import pytest

from dyncut.cli import main

P3_BUILD = "av 1\nav 2\nav 3\nae 1 2 3\nae 2 3 2\n"


def _write(tmp_path, text):
    f = tmp_path / "stream.txt"
    f.write_text(text)
    return str(f)


def test_build_prints_tree(tmp_path, capsys):
    assert main(["build", _write(tmp_path, P3_BUILD)]) == 0
    assert capsys.readouterr().out == "1 2 3\n2 3 2\n"


def test_query_prints_connectivity(tmp_path, capsys):
    assert main(["query", _write(tmp_path, P3_BUILD), "1", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_replay_summary_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    rc = main(["replay", _write(tmp_path, P3_BUILD), "--verify", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dynamic_cuts 0" in out
    rows = csv_path.read_text().splitlines()
    assert rows[0].startswith("step,kind,")
    assert len(rows) == 6


def test_gen_is_deterministic_and_replayable(tmp_path, capsys):
    argv = ["gen", "--vertices", "6", "--events", "40", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    stream_file = _write(tmp_path, first)
    assert main(["replay", stream_file, "--verify"]) == 0


def test_gen_with_explicit_mix(capsys):
    rc = main(
        ["gen", "--vertices", "4", "--events", "10", "--mix", "0,0,0.5,0,0.5,0", "--seed", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 14


@pytest.mark.parametrize(
    "extra",
    [
        ["--mix", "1,1"],
        ["--mix", "0,0,nan,0,0,1"],
        ["--vertices", "-1"],
        ["--events", "-1"],
        ["--weight-max", "0"],
    ],
    ids=["mix-count", "mix-nan", "vertices", "events", "weight-max"],
)
def test_bad_mix_fails_cleanly(extra, capsys):
    # each bad generator argument is an error line and exit 1, not a traceback
    rc = main(["gen", "--vertices", "4", "--events", "10", *extra])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_stream_fails_cleanly(tmp_path, capsys):
    rc = main(["build", _write(tmp_path, "av 1\nre 1 2\n")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_missing_file_fails_cleanly(capsys):
    rc = main(["build", "/nonexistent/stream.txt"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
