"""Command-line front-end.

Subcommands: match (scan input with patterns or a compiled machine),
compile (write the machine interchange dump), bench (timing harness),
oracle (brute-force reference matcher, for debugging).

Exit codes: 0 success, 1 match-phase or compile error, 2 usage error.
"""

from __future__ import annotations

import sys

import click

from .automaton import AutomatonFormatError
from .bench import (adversarial_machine, rows_to_csv, scaling_vs_n,
                    scaling_vs_r, strategy_scaling)
from .compile import (StateCeilingExceeded, compile_pattern, read_pattern_file)
from .engine import format_match_jsonl, format_match_tsv, run
from .oracle import all_matches
from .parallel import PartitionPlan, PlanError, data_plan, regex_plan, run_partitioned
from .syntax import RegexSyntaxError, parse_regex
from .union import Pfsm, build_pfsm, dump_pfsm, load_pfsm


class MatchError(click.ClickException):
    exit_code = 1


def _gather_patterns(exprs, patterns_file) -> list[tuple[str, str, str]]:
    """(where, label, pattern) triples; `where` is `<arg>:k` for the k-th
    -e pattern and `file:line` for a pattern file entry."""
    entries = [(f"<arg>:{k}", e, e) for k, e in enumerate(exprs, start=1)]
    if patterns_file:
        try:
            with open(patterns_file, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    entries.extend((f"{patterns_file}:{lineno}", label, pattern)
                                   for label, pattern in read_pattern_file([line]))
        except OSError as exc:
            raise MatchError(f"cannot read {patterns_file}: {exc}") from exc
    return entries


def _compile_set(entries, form) -> Pfsm:
    compiled = []
    for where, label, pattern in entries:
        try:
            compiled.append((label, compile_pattern(pattern, form)))
        except (RegexSyntaxError, StateCeilingExceeded) as exc:
            raise MatchError(f"{where}: pattern {pattern!r}: {exc}") from exc
    return build_pfsm(compiled)


def _load_machine(exprs, patterns_file, automaton_file, form) -> Pfsm:
    if automaton_file and (exprs or patterns_file):
        raise click.UsageError("--automaton conflicts with -e/--patterns")
    if automaton_file:
        try:
            with open(automaton_file, encoding="utf-8") as fh:
                return load_pfsm(fh.read())
        except OSError as exc:
            raise MatchError(f"cannot read {automaton_file}: {exc}") from exc
        except AutomatonFormatError as exc:
            raise MatchError(f"{automaton_file}: {exc}") from exc
    entries = _gather_patterns(exprs, patterns_file)
    if not entries:
        raise click.UsageError("no patterns given (-e, --patterns, or --automaton)")
    return _compile_set(entries, form)


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


def _make_plan(strategy, workers, segments_flag, n, pfsm) -> PartitionPlan:
    if strategy == "regex":
        return regex_plan(pfsm, workers)
    plan = data_plan(strategy, n, workers)
    if segments_flag and segments_flag != "auto":
        try:
            cuts = tuple(int(c) for c in segments_flag.split(","))
        except ValueError as exc:
            raise click.UsageError(f"bad --segments {segments_flag!r}") from exc
        plan = PartitionPlan(strategy, len(cuts) + 1, cuts=cuts)
    return plan


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
@click.option("--form", type=click.Choice(["nfa", "dfa", "auto"]), default="auto",
              help="Per-pattern machine form.")
@click.option("--strategy", type=click.Choice(["single", "regex", "lazy", "chained"]),
              default="single")
@click.option("--workers", type=click.IntRange(min=1), default=1)
@click.option("--segments", "segments_flag", default="auto",
              help="Comma-separated cut points, or 'auto' for even segments.")
@click.option("--format", "fmt", type=click.Choice(["tsv", "jsonl"]), default="tsv")
@click.option("--stats", is_flag=True,
              help="Append a scan-statistics summary (single strategy only).")
@click.option("--dedupe/--no-dedupe", default=True,
              help="Suppress duplicate (label, start, end) reports.")
def cmd_match(expressions, patterns_file, automaton_file, text, input_file,
              form, strategy, workers, segments_flag, fmt, stats, dedupe):
    """Scan input and print every match, sorted by (end, start, label)."""
    if stats and strategy != "single":
        raise click.UsageError("--stats needs --strategy single")
    pfsm = _load_machine(expressions, patterns_file, automaton_file, form)
    data = _read_input(text, input_file)
    formatter = format_match_tsv if fmt == "tsv" else format_match_jsonl

    if strategy == "single":
        matches = []
        scan_stats = run(pfsm, data, matches.append, dedupe=dedupe)
    else:
        if not data:
            matches = []
        else:
            try:
                plan = _make_plan(strategy, workers, segments_flag, len(data), pfsm)
                matches = run_partitioned(pfsm, data, plan)
            except PlanError as exc:
                raise MatchError(str(exc)) from exc

    for m in matches:
        click.echo(formatter(m, pfsm, data))
    if stats:
        click.echo(f"# stats: {scan_stats.summary()}")


@main.command("compile")
@click.option("-e", "expressions", multiple=True, help="Pattern (repeatable).")
@click.option("--patterns", "patterns_file", type=click.Path(), default=None)
@click.option("--form", type=click.Choice(["nfa", "dfa", "auto"]), default="auto")
@click.option("-o", "--output", type=click.Path(), default=None,
              help="Output file (default stdout).")
def cmd_compile(expressions, patterns_file, form, output):
    """Compile patterns and write the machine interchange dump."""
    pfsm = _compile_set(_gather_patterns(expressions, patterns_file), form)
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
    entries = _gather_patterns(expressions, patterns_file)
    if not entries:
        raise click.UsageError("no patterns given")
    data = _read_input(text, input_file)
    asts = []
    for where, label, pattern in entries:
        try:
            asts.append((label, parse_regex(pattern)))
        except RegexSyntaxError as exc:
            raise MatchError(f"{where}: pattern {pattern!r}: {exc}") from exc
    found = sorted(all_matches(asts, data), key=lambda m: (m[2], m[1], m[0]))
    for label, start, end in found:
        snippet = data[start:end + 1].decode("latin-1")
        click.echo(f"{label}\t{start}\t{end}\t{snippet}")


@main.command("bench")
@click.option("--sizes", default="1000,2000,4000",
              help="Comma-separated input lengths for the n-scaling sweep.")
@click.option("--rs", default="1,2,4,8",
              help="Comma-separated pattern counts for the r-scaling sweep.")
@click.option("--fixed-r", type=int, default=4, help="r for the n sweep.")
@click.option("--fixed-n", type=int, default=2000, help="n for the r sweep.")
@click.option("--strategies", default="single,regex,lazy,chained")
@click.option("--workers", default="1,2,4")
@click.option("--repeats", type=int, default=3)
@click.option("--csv", "csv_path", type=click.Path(), default=None,
              help="Write the CSV report to a file (default stdout).")
def cmd_bench(sizes, rs, fixed_r, fixed_n, strategies, workers, repeats,
              csv_path):
    """Timing sweeps: time vs n, time vs r, per strategy and worker count."""
    ns = [int(x) for x in sizes.split(",")]
    r_values = [int(x) for x in rs.split(",")]
    strategy_list = strategies.split(",")
    workers_list = [int(x) for x in workers.split(",")]

    rows = []
    rows += scaling_vs_n(ns, fixed_r, repeats)
    rows += scaling_vs_r(r_values, fixed_n, repeats)
    p = adversarial_machine(fixed_r)
    data = b"a" * fixed_n
    rows += strategy_scaling(p, data, strategy_list, workers_list,
                             repeats=repeats)

    text = rows_to_csv(rows)
    if csv_path:
        try:
            with open(csv_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise MatchError(f"cannot write {csv_path}: {exc}") from exc
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    sys.exit(main())
