"""Command-line front-end.

Subcommands: match (scan input with patterns or a compiled machine, and
print each match in the cycle where it ends), compile (write the machine
interchange dump), oracle (brute-force reference matcher, for debugging).

Patterns come from -e (repeatable) and --patterns, read and checked in one
place for all three commands. Giving neither option is a usage error; a
pattern file with no pattern line (only blank or `#` lines) is the empty
set, so `match` and `oracle` print nothing and `compile` writes the empty
union. A nullable pattern is named on one stderr line,
`<arg>:k: warning: ...` or `file:line: warning: ...`.

Exit codes: 0 success, 1 match-phase or compile error, 2 usage error.
"""

from __future__ import annotations

import sys
import warnings

import click

from .compile import (StateCeilingExceeded, compile_pattern, read_pattern_file)
from .engine import format_match_jsonl, format_match_tsv, run
from .oracle import all_matches
from .syntax import RegexSyntaxError, parse_regex
from .union import Pfsm, build_pfsm
from .wire import AutomatonFormatError, dump_pfsm, load_pfsm


class MatchError(click.ClickException):
    exit_code = 1


def _read_patterns(exprs, patterns_file, parse) -> list:
    """(label, parse(pattern)) pairs of the -e patterns, then the pattern
    file's. Errors name `<arg>:k` for the k-th -e pattern or `file:line`:
    a repeated label, or a pattern `parse` refuses. A warning `parse`
    gives, such as a nullable pattern's, is one stderr line
    `where: warning: ...`, whatever the warning filters say. Neither option
    given is the one usage error; a file with no pattern line is the empty
    set."""
    if not (exprs or patterns_file):
        raise click.UsageError("no patterns given (-e or --patterns)")
    entries = [(f"<arg>:{k}", e, e) for k, e in enumerate(exprs, start=1)]
    if patterns_file:
        try:
            with open(patterns_file, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    entries.extend((f"{patterns_file}:{lineno}", label, pattern)
                                   for label, pattern in read_pattern_file([line]))
        except (OSError, UnicodeDecodeError) as exc:
            raise MatchError(f"cannot read {patterns_file}: {exc}") from exc
    seen, parsed = set(), []
    for where, label, pattern in entries:
        if label in seen:
            raise MatchError(f"{where}: duplicate label {label!r}")
        seen.add(label)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                parsed.append((label, parse(pattern)))
        except (RegexSyntaxError, StateCeilingExceeded) as exc:
            raise MatchError(f"{where}: pattern {pattern!r}: {exc}") from exc
        for w in caught:
            click.echo(f"{where}: warning: {w.message}", err=True)
    return parsed


def _load_machine(exprs, patterns_file, automaton_file) -> Pfsm:
    if automaton_file and (exprs or patterns_file):
        raise click.UsageError("--automaton conflicts with -e/--patterns")
    if automaton_file:
        try:
            with open(automaton_file, encoding="utf-8") as fh:
                return load_pfsm(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise MatchError(f"cannot read {automaton_file}: {exc}") from exc
        except AutomatonFormatError as exc:
            raise MatchError(f"{automaton_file}: {exc}") from exc
    return build_pfsm(_read_patterns(exprs, patterns_file, compile_pattern))


def _read_input(text, input_file) -> bytes:
    if text is not None and input_file:
        raise click.UsageError("--text conflicts with --input")
    if input_file:
        try:
            with open(input_file, "rb") as fh:
                return fh.read()
        except OSError as exc:
            raise MatchError(f"cannot read {input_file}: {exc}") from exc
    if text is None:
        raise click.UsageError("no input given (--text or --input)")
    return text.encode("utf-8")


@click.group()
def main():
    """Multi-pattern regex matcher reporting every match at every span."""


@main.command("match")
@click.option("-e", "expressions", multiple=True, help="Pattern (repeatable).")
@click.option("--patterns", "patterns_file", type=click.Path(), default=None,
              help="Pattern file, one per line; optional label<TAB>pattern.")
@click.option("--automaton", "automaton_file", type=click.Path(), default=None,
              help="Compiled machine dump to run directly.")
@click.option("--text", default=None, help="Input string (UTF-8 bytes).")
@click.option("--input", "input_file", type=click.Path(), default=None,
              help="Input file (raw bytes).")
@click.option("--format", "fmt", type=click.Choice(["tsv", "jsonl"]), default="tsv")
@click.option("--stats", is_flag=True, help="Append a scan-statistics summary.")
def cmd_match(expressions, patterns_file, automaton_file, text, input_file,
              fmt, stats):
    """Scan input and print each match as it ends: by end, then start,
    then label."""
    pfsm = _load_machine(expressions, patterns_file, automaton_file)
    data = _read_input(text, input_file)
    formatter = format_match_tsv if fmt == "tsv" else format_match_jsonl
    scan_stats = run(pfsm, data, lambda m: click.echo(formatter(m, pfsm, data)))
    if stats:
        m_max = max((e.n_states for e in pfsm.directory.values()), default=0)
        click.echo(f"# stats: n={scan_stats.cycles} r={len(pfsm.directory)} "
                   f"m_max={m_max} s=256 "
                   f"peak_active_pairs={scan_stats.peak_pairs} "
                   f"matches={scan_stats.matches_emitted}")


@main.command("compile")
@click.option("-e", "expressions", multiple=True, help="Pattern (repeatable).")
@click.option("--patterns", "patterns_file", type=click.Path(), default=None)
@click.option("--form", type=click.Choice(["nfa", "dfa"]), default="nfa")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Output file (default stdout).")
def cmd_compile(expressions, patterns_file, form, output):
    """Compile patterns and write the machine interchange dump."""
    pfsm = build_pfsm(_read_patterns(expressions, patterns_file,
                                     lambda p: compile_pattern(p, form)))
    try:
        text = dump_pfsm(pfsm)
    except ValueError as exc:
        raise MatchError(str(exc)) from exc
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MatchError(f"cannot write {output}: {exc}") from exc
    else:
        click.echo(text, nl=False)


@main.command("oracle")
@click.option("-e", "expressions", multiple=True, help="Pattern (repeatable).")
@click.option("--patterns", "patterns_file", type=click.Path(), default=None)
@click.option("--text", default=None)
@click.option("--input", "input_file", type=click.Path(), default=None)
def cmd_oracle(expressions, patterns_file, text, input_file):
    """Brute-force reference matches (slow; for debugging and validation)."""
    asts = _read_patterns(expressions, patterns_file, parse_regex)
    data = _read_input(text, input_file)
    # Ties break on the pattern's position in the list, as in `match`.
    rank = {label: k for k, (label, _) in enumerate(asts)}
    found = sorted(all_matches(asts, data),
                   key=lambda m: (m[2], m[1], rank[m[0]]))
    for label, start, end in found:
        snippet = data[start:end + 1].decode("latin-1")
        click.echo(f"{label}\t{start}\t{end}\t{snippet}")


if __name__ == "__main__":
    sys.exit(main())
