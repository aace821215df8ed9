import random

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
    EVENT_KINDS,
    INCREASE_WEIGHT,
    REMOVE_EDGE,
)
from dyncut.stream import BALANCED_EDGE_MIX, format_event

from helpers import reference_generate


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

    def test_only_a_newline_ends_a_line(self):
        # a form feed or a Unicode line break inside a line neither ends a
        # comment nor starts an event; a CRLF line ends at its "\n"
        assert parse_stream("# note\u2028av 5\n").events == ()
        assert parse_stream("av 1 # c\x0cav 2\n").events == (ChangeEvent.add_vertex(1),)
        with pytest.raises(StreamSyntaxError) as err:
            parse_stream("av 1\x85av 2\n")
        assert err.value.line == 1
        stream = parse_stream("av 1\r\nav 2\r\n")
        assert stream.events == (ChangeEvent.add_vertex(1), ChangeEvent.add_vertex(2))

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

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("zz 1\n", 1, "unknown event code 'zz'"),
            ("av 1\nae 1 2\n", 2, "ae takes 3 arguments, got 2"),
            ("av x # c\n", 1, "non-integer argument in 'av x'"),
            (" \tae 1\x0c2 x\u2028# c\n", 1, "non-integer argument in 'ae 1\\x0c2 x'"),
            ("av 1\nav 2\nae 1 2 0\n", 3, "weights must be positive integers, got 0"),
            ("av 1\ndw 1 1 2\n", 2, "self-loops are not allowed"),
        ],
        ids=["unknown-code", "arity", "comment", "edge-whitespace", "zero-delta", "self-loop"],
    )
    def test_syntax_messages(self, text, line, message):
        with pytest.raises(StreamSyntaxError) as err:
            parse_stream(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_over_4300_digits_message(self):
        with pytest.raises(ValueError) as refused:
            int("1" * 5000)
        with pytest.raises(StreamSyntaxError) as err:
            parse_stream("av 1\nav " + "1" * 5000 + "\n")
        assert str(err.value) == f"line 2: {refused.value}"

    def test_syntax_error_wins_over_earlier_validation_error(self):
        with pytest.raises(StreamValidationError) as err:
            parse_stream("av 1\nre 1 2\nav 3\n")
        assert str(err.value) == "line 2: no edge {1,2}"
        # every line is read before any event is applied
        with pytest.raises(StreamSyntaxError) as err:
            parse_stream("av 1\nre 1 2\nav 3\nav 4 5\n")
        assert str(err.value) == "line 4: av takes 1 arguments, got 2"

    def test_whitespace_inside_a_line(self):
        # tab, form feed and U+2028 separate tokens; only "\n" ends a line
        stream = parse_stream("av\t1\nav\x0c2\nae 1\u20282\t\x0c3\u2028\n")
        assert stream.events == (
            ChangeEvent.add_vertex(1),
            ChangeEvent.add_vertex(2),
            ChangeEvent.add_edge(1, 2, 3),
        )


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

    @given(
        n=st.integers(0, 15),
        m=st.integers(0, 300),
        shares=st.lists(st.integers(0, 3), min_size=6, max_size=6).filter(any),
        weight_max=st.integers(1, 9),
        seed=st.integers(0, 2**64),
    )
    def test_matches_reference(self, n, m, shares, weight_max, seed):
        mix = {k: share / sum(shares) for k, share in zip(EVENT_KINDS, shares)}
        params = GenParams(n_vertices=n, n_events=m, weight_max=weight_max, mix=mix)
        assert format_stream(generate(params, seed)) == format_stream(
            reference_generate(params, seed)
        )

    def test_matches_reference_where_add_edge_lists_missing_pairs(self, monkeypatch):
        # after 64 failed tries an add-edge draws from the list of missing
        # pairs, the one draw of a sequence of vertex pairs; a nearly complete
        # 15-vertex graph takes that path
        fallbacks = []

        class CountingRandom(random.Random):
            def choice(self, seq):
                if isinstance(seq[0], tuple) and len(seq[0]) == 2:
                    fallbacks.append(len(seq))
                return super().choice(seq)

        monkeypatch.setattr(random, "Random", CountingRandom)
        mix = {ADD_EDGE: 0.8, DECREASE_WEIGHT: 0.1, REMOVE_EDGE: 0.1}
        taken = 0
        for seed in range(4):
            params = GenParams(n_vertices=15, n_events=160, weight_max=3, mix=mix)
            fallbacks.clear()
            got = format_stream(generate(params, seed))
            by_generate = len(fallbacks)
            assert got == format_stream(reference_generate(params, seed))
            assert fallbacks[:by_generate] == fallbacks[by_generate:]
            taken += by_generate
        assert taken > 0


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
