"""End-to-end command-line behavior via click's test runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from pfsm.cli import main

FIG2_TSV = """\
a*c\t0\t2\taac
a*c\t1\t2\tac
ac\t1\t2\tac
a*c\t2\t2\tc
a*c\t3\t4\tac
ac\t3\t4\tac
a*c\t4\t4\tc
a(ca)*b\t1\t6\tacacab
a(ca)*b\t3\t6\tacab
a(ca)*b\t5\t6\tab
"""


@pytest.fixture
def runner():
    return CliRunner()


def fig1_args():
    return ["-e", "a*c", "-e", "ac", "-e", "a(ca)*b"]


def test_match_fig2_tsv(runner):
    result = runner.invoke(main, ["match", *fig1_args(), "--text", "aacacab"])
    assert result.exit_code == 0, result.output
    assert result.output == FIG2_TSV


def test_match_jsonl(runner):
    result = runner.invoke(main, ["match", "-e", "a*c", "--text", "aac",
                                  "--format", "jsonl"])
    assert result.exit_code == 0
    rows = [json.loads(line) for line in result.output.splitlines()]
    assert {"label": "a*c", "start": 0, "end": 2, "match": "aac"} in rows


def test_match_empty_input(runner):
    result = runner.invoke(main, ["match", "-e", "a", "--text", ""])
    assert result.exit_code == 0
    assert result.output == ""


def test_match_stats_flag(runner):
    result = runner.invoke(main, ["match", "-e", "a*c", "--text", "aac",
                                  "--stats"])
    assert result.exit_code == 0
    assert "# stats:" in result.output
    assert "matches=3" in result.output


def test_match_stats_needs_single_strategy(runner):
    # Partitioned runs report no scan statistics, so --stats is refused
    # rather than printing made-up zero counts.
    result = runner.invoke(main, ["match", "-e", "a*b", "--text", "aaab",
                                  "--strategy", "chained", "--workers", "2",
                                  "--stats"])
    assert result.exit_code == 2
    assert "--stats" in result.output


@pytest.mark.parametrize("strategy", ["regex", "chained"])
def test_match_zero_workers_is_usage_error(runner, strategy):
    result = runner.invoke(main, ["match", "-e", "a", "--text", "aa",
                                  "--strategy", strategy, "--workers", "0"])
    assert result.exit_code == 2
    assert "--workers" in result.output


@pytest.mark.parametrize("strategy, workers", [
    ("regex", 3), ("lazy", 2), ("chained", 2), ("chained", 3),
])
def test_match_strategies_equal_single(runner, strategy, workers):
    single = runner.invoke(main, ["match", *fig1_args(), "--text", "aacacab"])
    result = runner.invoke(main, ["match", *fig1_args(), "--text", "aacacab",
                                  "--strategy", strategy,
                                  "--workers", str(workers)])
    assert result.exit_code == 0, result.output
    assert result.output == single.output


def test_match_explicit_segments(runner):
    result = runner.invoke(main, ["match", *fig1_args(), "--text", "aacacab",
                                  "--strategy", "chained", "--segments", "2,5"])
    assert result.exit_code == 0
    assert result.output == FIG2_TSV


def test_match_from_pattern_and_input_files(runner, tmp_path):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("# three patterns\na*c\nac\nmine\ta(ca)*b\n")
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(b"aacacab")
    result = runner.invoke(main, ["match", "--patterns", str(patterns),
                                  "--input", str(corpus)])
    assert result.exit_code == 0
    assert result.output == FIG2_TSV.replace("a(ca)*b\t", "mine\t")


def test_usage_errors_exit_2(runner):
    assert runner.invoke(main, ["match", "--text", "x"]).exit_code == 2
    assert runner.invoke(main, ["match", "-e", "a"]).exit_code == 2
    assert runner.invoke(main, ["match", "-e", "a", "--text", "x",
                                "--input", "y"]).exit_code == 2


def test_syntax_error_reports_line_and_exits_1(runner, tmp_path):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("ab\n(a\n")
    result = runner.invoke(main, ["match", "--patterns", str(patterns),
                                  "--text", "ab"])
    assert result.exit_code == 1
    assert ":2:" in result.output
    assert "parenthesis" in result.output


@pytest.mark.parametrize("command", ["match", "compile", "oracle"])
def test_pattern_file_error_names_file_line(runner, tmp_path, command):
    # Comments and blank lines count toward the line number, and -e
    # patterns given before the file do not shift it.
    patterns = tmp_path / "pats.txt"
    patterns.write_text("# comment\n\nab\n(a\n")
    args = [command, "-e", "a", "--patterns", str(patterns)]
    if command != "compile":
        args += ["--text", "ab"]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert f"{patterns}:4: pattern '(a'" in result.output


def test_compile_output_write_error_exits_1(runner, tmp_path):
    target = tmp_path / "missing" / "x.aut"
    result = runner.invoke(main, ["compile", *fig1_args(), "-o", str(target)])
    assert result.exit_code == 1
    assert f"cannot write {target}:" in result.output


@pytest.mark.parametrize("line", ["\tab", "a  b", " ab"])
def test_compile_refuses_label_the_dump_cannot_hold(runner, tmp_path, line):
    # A label that would not parse back unchanged is refused; no file is
    # left behind.
    patterns = tmp_path / "pats.txt"
    patterns.write_text(line + "\n")
    target = tmp_path / "x.aut"
    result = runner.invoke(main, ["compile", "--patterns", str(patterns),
                                  "-o", str(target)])
    assert result.exit_code == 1
    label = line.split("\t")[0]
    assert f"label {label!r}" in result.output
    assert not target.exists()


def test_compile_dump_load_match(runner, tmp_path):
    dump = tmp_path / "machine.aut"
    result = runner.invoke(main, ["compile", *fig1_args(), "--form", "dfa",
                                  "-o", str(dump)])
    assert result.exit_code == 0, result.output
    assert dump.read_text().startswith("PFSM-AUT v1\n")
    match = runner.invoke(main, ["match", "--automaton", str(dump),
                                 "--text", "aacacab"])
    assert match.exit_code == 0
    assert match.output == FIG2_TSV


def test_compile_roundtrip_is_byte_identical(runner, tmp_path):
    first = tmp_path / "a.aut"
    second = tmp_path / "b.aut"
    runner.invoke(main, ["compile", *fig1_args(), "-o", str(first)])
    # compile from the dump itself: load, dump again
    from pfsm.union import dump_pfsm, load_pfsm
    assert dump_pfsm(load_pfsm(first.read_text())) == first.read_text()
    runner.invoke(main, ["compile", *fig1_args(), "-o", str(second)])
    assert first.read_text() == second.read_text()


def test_compile_empty_pattern_file(runner, tmp_path):
    patterns = tmp_path / "empty.txt"
    patterns.write_text("# nothing here\n")
    result = runner.invoke(main, ["compile", "--patterns", str(patterns)])
    assert result.exit_code == 0
    assert "state 0 initial" in result.output


def test_compile_dfa_ceiling_error(runner, monkeypatch):
    import pfsm.compile as compile_mod
    monkeypatch.setattr(compile_mod, "DEFAULT_STATE_CEILING", 2)
    monkeypatch.setattr("pfsm.cli.compile_pattern",
                        lambda pat, form: compile_mod.compile_pattern(
                            pat, form, state_ceiling=2))
    result = runner.invoke(main, ["compile", "-e", "(a|b)*abb", "--form", "dfa"])
    assert result.exit_code == 1
    assert "exceeded" in result.output


def test_oracle_subcommand_matches_engine(runner):
    engine_out = runner.invoke(main, ["match", *fig1_args(), "--text", "aacacab"])
    oracle_out = runner.invoke(main, ["oracle", *fig1_args(), "--text", "aacacab"])
    assert oracle_out.exit_code == 0
    assert sorted(oracle_out.output.splitlines()) \
        == sorted(engine_out.output.splitlines())


def test_bench_emits_csv(runner, tmp_path):
    csv_path = tmp_path / "bench.csv"
    result = runner.invoke(main, [
        "bench", "--sizes", "64,128", "--rs", "1,2", "--fixed-r", "2",
        "--fixed-n", "64", "--workers", "1,2", "--repeats", "1",
        "--strategies", "single,chained", "--csv", str(csv_path)])
    assert result.exit_code == 0, result.output
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "scenario,n,r,strategy,workers,seconds"
    assert any(line.startswith("scaling_n,64,2,") for line in lines)


def test_bench_csv_write_error_exits_1(runner, tmp_path):
    target = tmp_path / "missing" / "bench.csv"
    result = runner.invoke(main, [
        "bench", "--sizes", "16", "--rs", "1", "--fixed-r", "1",
        "--fixed-n", "16", "--workers", "1", "--repeats", "1",
        "--strategies", "single", "--csv", str(target)])
    assert result.exit_code == 1
    assert f"cannot write {target}:" in result.output


def test_match_dedupe_flag(runner):
    # A pattern set with identical languages under distinct labels still
    # reports per-label; --no-dedupe only affects duplicate final states,
    # so output here is unchanged. Just exercise the flag path.
    on = runner.invoke(main, ["match", "-e", "ab", "--text", "ab"])
    off = runner.invoke(main, ["match", "-e", "ab", "--text", "ab",
                               "--no-dedupe"])
    assert on.exit_code == off.exit_code == 0
    assert on.output == off.output


def test_scan_does_not_import_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])])
    code = ("import sys, pfsm, pfsm.cli\n"
            "p = pfsm.build_pfsm([('ab', pfsm.compile_pattern('ab'))])\n"
            "assert len(pfsm.find_matches(p, b'xab')) == 1\n"
            "assert 'numpy' not in sys.modules\n")
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
