import pytest
from hypothesis import given
import hypothesis.strategies as st

from dyncut import (
    ChangeEvent,
    DynamicGraph,
    GenParams,
    apply_change,
    format_stream,
    generate,
    parse_stream,
)
from dyncut.errors import InvalidMix, StreamSyntaxError, StreamValidationError
from dyncut.graph import (
    ADD_EDGE,
    ADD_VERTEX,
    DECREASE_WEIGHT,
    INCREASE_WEIGHT,
    REMOVE_EDGE,
    REMOVE_VERTEX,
)
from dyncut.stream import BALANCED_EDGE_MIX, format_event


class TestParse:
    def test_basic_lines(self):
        stream = parse_stream("av 1\nav 2\nae 1 2 3\n")
        assert stream.events == (
            ChangeEvent.add_vertex(1),
            ChangeEvent.add_vertex(2),
            ChangeEvent.add_edge(1, 2, 3),
        )

    def test_comments_and_blanks_skipped(self):
        stream = parse_stream("# comment\n\nav 7\nav 8  # trailing\nae 7 8 1\n")
        assert [ev.kind for ev in stream.events] == [ADD_VERTEX, ADD_VERTEX, ADD_EDGE]

    def test_unknown_code(self):
        with pytest.raises(StreamSyntaxError) as err:
            parse_stream("zz 1\n")
        assert err.value.line == 1

    def test_wrong_arity(self):
        with pytest.raises(StreamSyntaxError) as err:
            parse_stream("av 1\nae 1 2\n")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "arg",
        ["x", "\u0663", "\u00b2", "1" * 5000],
        ids=["letter", "arabic-indic-three", "superscript-two", "over-4300-digits"],
    )
    def test_non_integer_argument(self, arg):
        with pytest.raises(StreamSyntaxError):
            parse_stream(f"av {arg}\n")

    def test_zero_delta_is_syntax_error(self):
        with pytest.raises(StreamSyntaxError) as err:
            parse_stream("av 1\nav 2\nae 1 2 0\n")
        assert err.value.line == 3

    def test_validation_catches_oversized_decrease(self):
        text = "av 1\nav 2\nae 1 2 3\ndw 1 2 5\n"
        with pytest.raises(StreamValidationError) as err:
            parse_stream(text)
        assert err.value.line == 4

    def test_validation_catches_unapplicable_prefix(self):
        with pytest.raises(StreamValidationError) as err:
            parse_stream("av 1\nre 1 2\n")
        assert err.value.line == 2


class TestGenerate:
    def test_vertices_only(self):
        stream = generate(GenParams(n_vertices=3, n_events=0), seed=123)
        assert stream.events == tuple(ChangeEvent.add_vertex(i) for i in (1, 2, 3))

    def test_deterministic_per_seed(self):
        params = GenParams(n_vertices=12, n_events=300)
        a = generate(params, seed=42)
        b = generate(params, seed=42)
        assert format_stream(a) == format_stream(b)
        assert format_stream(a) != format_stream(generate(params, seed=43))

    def test_streams_are_always_applicable(self):
        for seed in range(5):
            stream = generate(GenParams(n_vertices=8, n_events=200), seed=seed)
            g = DynamicGraph()
            for ev in stream:
                apply_change(g, ev)  # raises on any invalid event

    def test_mix_counts_match_within_rounding(self):
        mix = {INCREASE_WEIGHT: 0.5, DECREASE_WEIGHT: 0.5}
        stream = generate(GenParams(n_vertices=6, n_events=400, mix=mix), seed=9)
        counts = {}
        for ev in stream.events[6:]:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        # bootstrap may substitute a few add-edge events before any edge exists
        assert counts.get(ADD_EDGE, 0) <= 3
        assert abs(counts.get(INCREASE_WEIGHT, 0) - 200) <= 3
        assert abs(counts.get(DECREASE_WEIGHT, 0) - 200) <= 3

    def test_balanced_mix_counts(self):
        stream = generate(
            GenParams(n_vertices=30, n_events=1000, mix=BALANCED_EDGE_MIX), seed=4
        )
        counts = {}
        for ev in stream.events[30:]:
            counts[ev.kind] = counts.get(ev.kind, 0) + 1
        for kind in (ADD_EDGE, REMOVE_EDGE, INCREASE_WEIGHT, DECREASE_WEIGHT):
            assert abs(counts.get(kind, 0) - 250) <= 10

    def test_generated_stream_parses_strict(self):
        stream = generate(GenParams(n_vertices=10, n_events=150), seed=77)
        again = parse_stream(format_stream(stream))
        assert again.events == stream.events


class TestMixValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(InvalidMix):
            generate(GenParams(n_vertices=2, n_events=1, mix={ADD_EDGE: 0.5}), seed=0)

    def test_negative_fraction(self):
        mix = {ADD_EDGE: 1.5, REMOVE_EDGE: -0.5}
        with pytest.raises(InvalidMix):
            generate(GenParams(n_vertices=2, n_events=1, mix=mix), seed=0)

    def test_nan_fraction(self):
        mix = {ADD_EDGE: 1.0, REMOVE_EDGE: float("nan")}
        with pytest.raises(InvalidMix):
            generate(GenParams(n_vertices=2, n_events=1, mix=mix), seed=0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidMix):
            generate(GenParams(n_vertices=2, n_events=1, mix={"warp": 1.0}), seed=0)


@given(st.integers(0, 10**6))
def test_format_parse_roundtrip(seed):
    stream = generate(GenParams(n_vertices=5, n_events=60), seed=seed)
    assert parse_stream(format_stream(stream)).events == stream.events


def test_format_event_shapes():
    assert format_event(ChangeEvent.add_vertex(3)) == "av 3"
    assert format_event(ChangeEvent.remove_edge(2, 5)) == "re 2 5"
    assert format_event(ChangeEvent.decrease_weight(2, 5, 1)) == "dw 2 5 1"
