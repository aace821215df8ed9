import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyncut
from dyncut.cli import main
from dyncut.stream import GenParams, format_stream, generate

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


def test_gen_default_mix_is_the_generator_default(capsys):
    assert main(["gen", "--vertices", "12", "--events", "50", "--seed", "4"]) == 0
    assert capsys.readouterr().out == format_stream(generate(GenParams(12, 50), 4))


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


@pytest.mark.parametrize("argv", [["build"], ["replay"], ["query", "1", "2"]], ids=lambda a: a[0])
def test_non_utf8_byte_is_a_line_error(tmp_path, capsys, argv):
    # the file is read as UTF-8 whatever the locale; a bad byte is a syntax
    # error on its line, and inside a comment it is harmless
    f = tmp_path / "stream.txt"
    f.write_bytes(b"av 1\n# \xff\nav 2\n\xff\n")
    assert main([argv[0], str(f), *argv[1:]]) == 1
    assert capsys.readouterr().err.startswith("error: line 4: ")


def test_missing_file_fails_cleanly(capsys):
    rc = main(["build", "/nonexistent/stream.txt"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_import_loads_only_the_standard_library():
    # the package and its CLI run on the standard library alone; a fresh
    # interpreter shows what importing them pulls in, beyond what its
    # startup hooks loaded before
    src = str(Path(dyncut.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = """if True:
        import sys
        before = set(sys.modules)
        import dyncut, dyncut.cli
        new = {name.partition(".")[0] for name in sys.modules.keys() - before} - {"dyncut"}
        assert new <= sys.stdlib_module_names, sorted(new - sys.stdlib_module_names)
    """
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
