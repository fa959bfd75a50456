"""End-to-end command-line behavior via click's test runner."""

import contextlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner
from helpers import (BAD_PFSM_DUMPS, BAD_PFSM_DUMP_IDS, FIG1_PATTERNS,
                     PLAIN_SHARED_FINAL_DUMP, PLAIN_TWO_LABEL_DUMP,
                     traced_peak)

from pfsm import build_pfsm, compile_pattern, validate_pfsm
from pfsm.cli import main
from pfsm.wire import dump_pfsm, load_pfsm

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


def test_help_lists_the_three_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    section = result.output.split("Commands:")[1]
    listed = [line.split()[0] for line in section.splitlines() if line.strip()]
    assert listed == ["compile", "match", "oracle"]


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
    # The whole line, so the scan's peak pair count is checked too.
    args = ["match", "--text", "aacacab", "--stats"]
    for pat in FIG1_PATTERNS:
        args += ["-e", pat]
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == (
        "# stats: n=7 r=3 m_max=5 s=256 peak_active_pairs=9 matches=10")


def test_match_prints_each_match_before_the_scan_returns(runner, monkeypatch):
    # Each match is formatted from the scan's sink in the cycle where it
    # ends, not from a list read after the scan.
    import pfsm.cli as cli
    real_run, real_format = cli.run, cli.format_match_tsv
    returned, seen = [False], []

    def run(*args):
        stats = real_run(*args)
        returned[0] = True
        return stats

    def format_match_tsv(*args):
        seen.append(returned[0])
        return real_format(*args)

    monkeypatch.setattr(cli, "run", run)
    monkeypatch.setattr(cli, "format_match_tsv", format_match_tsv)
    result = runner.invoke(main, ["match", *fig1_args(), "--text", "aacacab"])
    assert result.output == FIG2_TSV
    assert seen == [False] * 10


def test_match_memory_does_not_grow_with_match_count():
    # `a+` over n `a`s has n(n+1)/2 matches, but at most n live tags.
    # Printed from the sink, the matches leave a peak that follows the live
    # set, under 2x when n doubles; held in a list, they grow it about 4x.
    def peak(n):
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            return traced_peak(lambda: main(["match", "-e", "a+", "--text",
                                             "a" * n], standalone_mode=False))

    peak(150)                               # first-use imports and caches
    small, large = peak(150), peak(300)
    assert large < 2 * small, (small, large)


def test_match_from_pattern_and_input_files(runner, tmp_path):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("# three patterns\na*c\nac\nmine\ta(ca)*b\n")
    corpus = tmp_path / "corpus.bin"
    corpus.write_bytes(b"aacacab")
    result = runner.invoke(main, ["match", "--patterns", str(patterns),
                                  "--input", str(corpus)])
    assert result.exit_code == 0
    assert result.output == FIG2_TSV.replace("a(ca)*b\t", "mine\t")


def test_usage_errors_exit_2(runner, tmp_path):
    assert runner.invoke(main, ["match", "--text", "x"]).exit_code == 2
    assert runner.invoke(main, ["match", "-e", "a"]).exit_code == 2
    assert runner.invoke(main, ["match", "-e", "a", "--text", "x",
                                "--input", "y"]).exit_code == 2
    dump = tmp_path / "machine.aut"
    dump.write_text("PFSM-AUT v2\nstate 0 initial\n")
    result = runner.invoke(main, ["match", "--automaton", str(dump), "-e", "a",
                                  "--text", "a"])
    assert result.exit_code == 2
    assert "--automaton conflicts with -e/--patterns" in result.output


@pytest.mark.parametrize("command", ["match", "compile", "oracle"])
def test_no_patterns_is_usage_error(runner, command):
    # Neither -e nor --patterns (nor, for match, --automaton): nothing to
    # compile, so no command writes an empty union or scans for nothing.
    text = [] if command == "compile" else ["--text", "a"]
    result = runner.invoke(main, [command, *text])
    assert result.exit_code == 2
    assert "no patterns given" in result.output


def test_unreadable_input_exits_1(runner, tmp_path):
    missing = tmp_path / "missing.txt"
    result = runner.invoke(main, ["match", "-e", "a", "--input", str(missing)])
    assert result.exit_code == 1
    assert f"cannot read {missing}: " in result.output


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


@pytest.mark.parametrize("command", ["match", "compile", "oracle"])
def test_repeated_label_names_the_repeat(runner, tmp_path, command):
    text = [] if command == "compile" else ["--text", "a"]
    result = runner.invoke(main, [command, "-e", "a", "-e", "a", *text])
    assert result.exit_code == 1
    assert "<arg>:2: duplicate label 'a'" in result.output
    patterns = tmp_path / "pats.txt"
    patterns.write_text("b\n# comment\nb\n")
    result = runner.invoke(main, [command, "-e", "a", "--patterns",
                                  str(patterns), *text])
    assert result.exit_code == 1
    assert f"{patterns}:3: duplicate label 'b'" in result.output


@pytest.mark.parametrize("option", ["--patterns", "--automaton"])
def test_non_utf8_file_cannot_be_read(runner, tmp_path, option):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9\n")
    result = runner.invoke(main, ["match", option, str(path), "--text", "a"])
    assert result.exit_code == 1
    assert f"cannot read {path}: " in result.output


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
    assert dump.read_text().startswith("PFSM-AUT v2\n")
    match = runner.invoke(main, ["match", "--automaton", str(dump),
                                 "--text", "aacacab"])
    assert match.exit_code == 0
    assert match.output == FIG2_TSV


def test_match_plain_dump_reports_each_label(runner, tmp_path):
    dump = tmp_path / "plain.aut"
    dump.write_text(PLAIN_TWO_LABEL_DUMP)
    result = runner.invoke(main, ["match", "--automaton", str(dump),
                                  "--text", "ab"])
    assert result.exit_code == 0, result.output
    assert result.output == "a\t0\t0\ta\nb\t1\t1\tb\n"


@pytest.mark.parametrize("form", ["nfa", "dfa"])
def test_match_form_beside_automaton_is_usage_error(runner, tmp_path, form):
    # `match` compiles every pattern in the one form it scans, so it has no
    # --form option, beside --automaton or beside -e.
    dump = tmp_path / "machine.aut"
    runner.invoke(main, ["compile", *fig1_args(), "-o", str(dump)])
    for source in (["--automaton", str(dump)], fig1_args()):
        result = runner.invoke(main, ["match", *source, "--form", form,
                                      "--text", "aacacab"])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--form" in result.output


def test_match_plain_dfa_with_a_two_label_state(runner, tmp_path):
    # The DFA of a*b and ab loads as it is: one machine whose state 4
    # accepts both labels. It reports both where they end, as the oracle
    # does for the two patterns, and its dump loads back to the same bytes.
    p = load_pfsm(PLAIN_SHARED_FINAL_DUMP)
    assert validate_pfsm(p) == [] and len(p.automaton.states) == 1 + 5
    assert len({e.entry for e in p.directory.values()}) == 1
    assert frozenset({0, 1}) in p.automaton.final_labels.values()
    text = dump_pfsm(p)
    assert dump_pfsm(load_pfsm(text)) == text
    dump = tmp_path / "shared.aut"
    dump.write_text(PLAIN_SHARED_FINAL_DUMP)
    data = "abaabbab"
    result = runner.invoke(main, ["match", "--automaton", str(dump),
                                  "--text", data])
    oracle = runner.invoke(main, ["oracle", "-e", "a*b", "-e", "ab",
                                  "--text", data])
    assert result.exit_code == oracle.exit_code == 0, result.output
    assert "a*b\t0\t1\tab\nab\t0\t1\tab\n" in result.output
    assert result.output == oracle.output


@pytest.mark.parametrize("text, fragment", BAD_PFSM_DUMPS, ids=BAD_PFSM_DUMP_IDS)
def test_match_rejects_malformed_automaton(runner, tmp_path, text, fragment):
    dump = tmp_path / "bad.aut"
    dump.write_text(text)
    result = runner.invoke(main, ["match", "--automaton", str(dump),
                                  "--text", "aba"])
    assert result.exit_code == 1
    assert f"{dump}: " in result.output and fragment in result.output


def test_compile_roundtrip_is_byte_identical(runner, tmp_path):
    first = tmp_path / "a.aut"
    second = tmp_path / "b.aut"
    runner.invoke(main, ["compile", *fig1_args(), "-o", str(first)])
    # compile from the dump itself: load, dump again
    assert dump_pfsm(load_pfsm(first.read_text())) == first.read_text()
    runner.invoke(main, ["compile", *fig1_args(), "-o", str(second)])
    assert first.read_text() == second.read_text()


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("form", ["nfa", "dfa"])
@pytest.mark.parametrize("name", ["fig1", "mixed"])
def test_compile_dump_equals_the_pinned_dump(runner, name, form):
    # The pinned dumps fix state numbering, trie sharing and edge order.
    # `mixed` has literals that share prefixes, one word under two labels
    # and a regex grafted between literals.
    result = runner.invoke(main, ["compile", "--form", form, "--patterns",
                                  str(GOLDEN / f"{name}.patterns")])
    assert result.exit_code == 0, result.output
    want = (GOLDEN / f"{name}.{form}.dump").read_text()
    if result.output != want:
        # Name the first differing line: a full diff of the long dumps is slow.
        got, pinned = result.output.splitlines(), want.splitlines()
        k = next((k for k, (g, w) in enumerate(zip(got, pinned)) if g != w),
                 min(len(got), len(pinned)))
        pytest.fail(f"dump differs from {name}.{form}.dump at line {k + 1}: "
                    f"got {got[k:k + 1]}, pinned {pinned[k:k + 1]}")
    assert dump_pfsm(load_pfsm(want)) == want


def test_compile_empty_pattern_file(runner, tmp_path):
    patterns = tmp_path / "empty.txt"
    patterns.write_text("# nothing here\n")
    result = runner.invoke(main, ["compile", "--patterns", str(patterns)])
    assert result.exit_code == 0
    assert "state 0 initial" in result.output


@pytest.mark.parametrize("command", ["match", "oracle"])
def test_empty_pattern_file_matches_nothing(runner, tmp_path, command):
    # A file of only comments is the empty set, as in `compile`: no match
    # and exit 0, not a usage error.
    patterns = tmp_path / "empty.txt"
    patterns.write_text("# nothing here\n\n# nor here\n")
    result = runner.invoke(main, [command, "--patterns", str(patterns),
                                  "--text", "aacacab"])
    assert result.exit_code == 0, result.output
    assert result.output == ""


def nullable_warning(where, pattern):
    return (f"{where}: warning: pattern {pattern!r} matches the empty string; "
            "zero-length matches are never reported\n")


@pytest.mark.parametrize("strict", [False, True], ids=["default", "error-filter"])
@pytest.mark.parametrize("command", ["match", "compile"])
def test_nullable_pattern_warns_on_one_stderr_line(runner, tmp_path, command,
                                                   strict):
    # Each nullable pattern is named once on stderr, where it was given;
    # stdout and the exit code are those of the same patterns unwarned,
    # even when warnings are errors.
    patterns = tmp_path / "nullable.txt"
    patterns.write_text("# a comment\nb?\nac\n")
    args = ["-e", "a*", "--patterns", str(patterns)]
    if command == "match":
        args += ["--text", "aabac"]
    with warnings.catch_warnings():
        warnings.simplefilter("error" if strict else "default")
        result = runner.invoke(main, [command, *args])
    assert result.exit_code == 0, result.output
    assert result.stderr == (nullable_warning("<arg>:1", "a*") +
                             nullable_warning(f"{patterns}:2", "b?"))
    if command == "match":
        want = runner.invoke(main, ["oracle", *args]).stdout
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            want = dump_pfsm(build_pfsm([(p, compile_pattern(p))
                                         for p in ("a*", "b?", "ac")]))
    assert result.stdout == want


def source_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])])
    return env


def test_nullable_warning_under_python_error_filter():
    got = subprocess.run([sys.executable, "-W", "error", "-m", "pfsm.cli",
                          "match", "-e", "a*", "--text", "aa"], env=source_env(),
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    assert got.stderr == nullable_warning("<arg>:1", "a*")
    assert got.stdout == "a*\t0\t0\ta\na*\t0\t1\taa\na*\t1\t1\ta\n"


def test_compile_dfa_ceiling_error(runner, monkeypatch):
    import pfsm.compile as compile_mod
    monkeypatch.setattr(compile_mod, "DEFAULT_STATE_CEILING", 2)
    result = runner.invoke(main, ["compile", "-e", "(a|b)*abb", "--form", "dfa"])
    assert result.exit_code == 1
    assert "exceeded" in result.output


def test_oracle_subcommand_matches_engine(runner):
    engine_out = runner.invoke(main, ["match", *fig1_args(), "--text", "aacacab"])
    oracle_out = runner.invoke(main, ["oracle", *fig1_args(), "--text", "aacacab"])
    assert oracle_out.exit_code == 0
    assert oracle_out.output == engine_out.output


def test_oracle_breaks_ties_in_pattern_order(runner):
    # Both patterns match (0, 0); `match` reports them in the order given.
    args = ["-e", "a", "-e", ".", "--text", "a"]
    engine_out = runner.invoke(main, ["match", *args])
    oracle_out = runner.invoke(main, ["oracle", *args])
    assert engine_out.output == "a\t0\t0\ta\n.\t0\t0\ta\n"
    assert oracle_out.output == engine_out.output


def test_every_export_resolves():
    import pfsm
    assert [name for name in pfsm.__all__ if not hasattr(pfsm, name)] == []


def test_scan_does_not_import_numpy():
    env = source_env()
    code = ("import sys, pfsm, pfsm.cli\n"
            "p = pfsm.build_pfsm([('ab', pfsm.compile_pattern('ab'))])\n"
            "assert len(pfsm.find_matches(p, b'xab')) == 1\n"
            "assert 'numpy' not in sys.modules\n")
    got = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
