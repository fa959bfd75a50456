"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`."""

import random

import pytest
from helpers import (FIG1_INPUT, FIG2_MATCHES, adversarial_scan_seconds,
                     all_strings, build_fig1, build_fig1_mixed, engine_matches,
                     fast_cycle_pairs, gen_alphabet, gen_ast, gen_instance,
                     loglog_slope, match_texts, nfa_accepts)

from pfsm import build_pfsm, add_pattern, remove_pattern, extract_pattern, step
from pfsm.compile import compile_nfa, nfa_to_dfa
from pfsm.engine import Engine, find_matches, run
from pfsm.oracle import accepts, all_matches
from pfsm.parallel import data_plan, regex_plan, run_partitioned


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""))
    assert ok, name


def _all_strategy_runs(p, data):
    """Match sets from the single run and every strategy."""
    runs = {"single": match_texts(find_matches(p, data), p),
            "single/engine": match_texts(engine_matches(p, data), p)}
    if data:
        runs["regex/2"] = match_texts(
            run_partitioned(p, data, regex_plan(p, 2)), p)
        for strategy in ("lazy", "chained"):
            for workers in (2, 3):
                plan = data_plan(strategy, len(data), workers)
                runs[f"{strategy}/{workers}"] = match_texts(
                    run_partitioned(p, data, plan), p)
    return runs


def test_criterion_1_fig2_golden():
    """Fig. 2: three patterns on "aacacab" give exactly the 10 matches, in
    every engine form and under every strategy."""
    builders = {"dfa": lambda: build_fig1("dfa"),
                "nfa": lambda: build_fig1("nfa"),
                "eps": lambda: build_fig1("eps"),
                "mixed": build_fig1_mixed}
    for form, build in builders.items():
        p = build()
        for name, got in _all_strategy_runs(p, FIG1_INPUT).items():
            if got != FIG2_MATCHES:
                report("criterion 1: Fig. 2 golden", False, f"{form} {name}")
    report("criterion 1: Fig. 2 golden", True,
           "4 forms x 7 run modes, 10 matches each")


def test_criterion_2_fig3_trace():
    """Fig. 3 trace on "ac": active states/tags after each of the first two
    cycles, and exactly three matches ending at index 1."""
    p = build_fig1("dfa")
    a = p.automaton
    entry = {e.label: e.entry for e in p.directory.values()}
    succ = lambda s, byte: next(iter(step(a, {s}, ord(byte))))

    matches = []
    eng = Engine(p, matches.append)
    eng.feed(ord("a"), 0)
    ok_d = eng.active == {succ(entry[lab], "a"): {0}
                          for lab in ("a*c", "ac", "a(ca)*b")}
    eng.feed(ord("c"), 1)
    ok_h = eng.active == {
        succ(entry["a*c"], "c"): {0, 1},
        succ(succ(entry["ac"], "a"), "c"): {0},
        succ(succ(entry["a(ca)*b"], "a"), "c"): {0},
    }
    three = (match_texts(matches, p)
             == {("a*c", 0, 1), ("a*c", 1, 1), ("ac", 0, 1)})
    report("criterion 2: Fig. 3 trace", ok_d and ok_h and three,
           "cycle-0 set, cycle-1 set, 3 matches at end=1")


def test_criterion_3_oracle_equivalence():
    """1,000 randomized instances: engine match set equals the brute-force
    all-substring oracle exactly, under every strategy."""
    rng = random.Random(0xACCE)
    for trial in range(1000):
        p, labeled, data, _ = gen_instance(rng, max_patterns=4, depth=5,
                                           max_input=64, max_alphabet=4,
                                           forms=("dfa", "nfa", "mixed", "eps"))
        want = {(p.label_text(lab), i, j) for lab, i, j in all_matches(labeled, data)}
        for name, got in _all_strategy_runs(p, data).items():
            if got != want:
                report("criterion 3: oracle equivalence", False,
                       f"trial {trial} {name}")
    report("criterion 3: oracle equivalence", True, "1000 instances")


def test_criterion_4_tag_budget():
    """Active (state, tag) pairs per cycle stay within r(i+1)+1 for all-DFA
    machines and (sum of pattern sizes)(i+1)+1 for all-NFA machines."""
    rng = random.Random(0xB4D6E7)
    checked = total = 0
    for _ in range(300):
        p, _, data, form = gen_instance(rng, max_input=64, forms=("dfa", "nfa"))
        stats = run(p, data)
        counts = fast_cycle_pairs(p, data)
        if stats.cycles != len(data) or stats.peak_pairs != max(counts, default=0):
            report("criterion 4: tag budget", False,
                   f"{form}: counters {stats} disagree with {counts}")
        per_tag = (len(p.directory) if form == "dfa"
                   else sum(e.n_states for e in p.directory.values()))
        # Every cycle counts at least the initial state's fresh tag.
        for i, pairs in enumerate(counts):
            if not 0 < pairs <= per_tag * (i + 1) + 1:
                report("criterion 4: tag budget", False,
                       f"{form} cycle {i}: {pairs} outside "
                       f"[1, {per_tag * (i + 1) + 1}]")
            checked += 1
        total += len(data)
    report("criterion 4: tag budget", checked == total > 0,
           f"{checked} cycles of {total} bytes, 0 violations")


def test_criterion_5_live_update_equivalence():
    """200 randomized add/remove sequences: the mutated machine matches
    exactly like a fresh build of the surviving pattern set."""
    rng = random.Random(0x11FE)
    for trial in range(200):
        p, _, data, _ = gen_instance(rng, max_patterns=3, max_input=48)
        live = {p.label_text(lid): extract_pattern(p, lid)
                for lid in p.live_labels()}
        spare = {}
        for i in range(rng.randint(1, 3)):
            sp, _, _, _ = gen_instance(rng, max_patterns=1, max_input=0)
            (lid,) = sp.live_labels()
            spare[f"s{trial}_{i}"] = extract_pattern(sp, lid)
        for _ in range(rng.randint(1, 6)):
            if live and rng.random() < 0.4:
                name = rng.choice(sorted(live))
                p = remove_pattern(p, name)
                spare[name] = live.pop(name)
            elif spare:
                name = rng.choice(sorted(spare))
                machine = spare.pop(name)
                p = add_pattern(p, name, machine)
                live[name] = machine
        fresh = build_pfsm(sorted(live.items()))
        got = match_texts(find_matches(p, data), p)
        want = match_texts(find_matches(fresh, data), fresh)
        if got != want:
            report("criterion 5: live-update equivalence", False, f"trial {trial}")
    report("criterion 5: live-update equivalence", True, "200 sequences")


def test_criterion_6_subset_construction_soundness():
    """500 random NFAs (at most 10 states): NFA, its subset-construction
    DFA, and the tree-interpreting oracle agree on every string up to
    length 6 over the instance alphabet."""
    rng = random.Random(0x5C5C)
    built = 0
    while built < 500:
        alphabet = gen_alphabet(rng, 3)
        ast = gen_ast(rng, alphabet, 2)
        nfa = compile_nfa(ast)
        if len(nfa.states) > 10:
            continue
        built += 1
        dfa = nfa_to_dfa(nfa)
        for s in all_strings(alphabet, 6):
            want = accepts(ast, s)
            if nfa_accepts(nfa, s) != want or nfa_accepts(dfa, s) != want:
                report("criterion 6: subset construction", False,
                       f"instance {built}, string {s!r}")
    report("criterion 6: subset construction", True, "500 NFAs, strings <= 6")


@pytest.mark.slow
def test_criterion_7_scaling():
    """Adversarial worst case: log-log slope of time vs n at most 2.3 on
    n in {1k, 2k, 4k, 8k}; slope of time vs r at most 1.3 on r in
    {1, 2, 4, 8}."""
    ns = [1000, 2000, 4000, 8000]
    slope_n = loglog_slope(ns, [adversarial_scan_seconds(4, n, repeats=3)
                                for n in ns])

    rs = [1, 2, 4, 8]
    slope_r = loglog_slope(rs, [adversarial_scan_seconds(r, 2000, repeats=3)
                                for r in rs])

    detail = f"slope_n={slope_n:.2f} (<=2.3), slope_r={slope_r:.2f} (<=1.3)"
    report("criterion 7: scaling", slope_n <= 2.3 and slope_r <= 1.3, detail)
