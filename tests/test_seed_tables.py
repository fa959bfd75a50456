"""The scan's seed tables kept on the machine generation: built on its
first windowed scan, handed to the next generation by `add_pattern` and
`remove_pattern` with a record of their edit, and patched through it."""

import gc
import random
import weakref
from dataclasses import replace

import pytest
from helpers import engine_segment, literal_machine, with_epsilon

import pfsm.engine
from pfsm import (add_pattern, build_pfsm, compile_pattern, find_matches,
                  remove_pattern, run_segment)
from pfsm.engine import SeedTables, _build_seed_tables
from pfsm.parallel import PartitionPlan, run_partitioned
from pfsm.union import _MAX_PENDING
from pfsm.wire import load_pfsm


@pytest.fixture
def builds(monkeypatch):
    """The machines the from-scratch seed table builder is called on."""
    calls = []

    def counted(a):
        calls.append(a)
        return _build_seed_tables(a)

    monkeypatch.setattr(pfsm.engine, "_build_seed_tables", counted)
    return calls


def _pending_edits(p):
    """How many edits `p`'s seed record holds, or None without a record."""
    return p._seed[3] if type(p._seed) is tuple else None


def _regex_set(*patterns):
    return build_pfsm([(pat, compile_pattern(pat)) for pat in patterns])


def test_updates_patch_the_tables_of_a_scanned_generation(builds):
    # An update does no table work, and the first scan after a regex
    # remove + add patches the scanned parent's tables rather than
    # building them again; a trie edit makes the next scan build them.
    data = b"abbcxadbcdaabd" * 3
    p = _regex_set("ab+c", "a[^x]*d", "(bc|cd)a?")
    find_matches(p, data)
    assert len(builds) == 1
    q = add_pattern(remove_pattern(p, "ab+c"), "d[bc]+a", compile_pattern("d[bc]+a"))
    q = remove_pattern(q, "a[^x]*d")
    assert len(builds) == 1
    assert _pending_edits(q) == 3
    got = find_matches(q, data)
    assert len(builds) == 1
    assert got == find_matches(replace(q), data)
    assert len(builds) == 2                 # the table-less copy builds
    assert type(q._seed) is SeedTables
    lit = add_pattern(q, "abd", literal_machine(b"abd"))
    assert len(builds) == 2 and lit._seed is None
    find_matches(lit, data)
    assert len(builds) == 3
    # A literal joining the trie is a trie edit too.
    grown = add_pattern(lit, "abc", literal_machine(b"abc"))
    assert grown._seed is None
    find_matches(grown, data)
    assert len(builds) == 4


def test_a_scan_reuses_its_generations_tables(builds):
    p = _regex_set("ab+c", "a[^x]*d")
    for data in (b"abbc", b"axd", b"ad" * 50):
        find_matches(p, data)
    run_segment(p, b"xabc", (1, 2), None)
    assert len(builds) == 1


def test_a_partitioned_scan_makes_the_tables_before_it_forks(builds):
    p = _regex_set("ab+c", "a[^x]*d")
    data = b"abbcad" * 40
    want = find_matches(_regex_set("ab+c", "a[^x]*d"), data)
    builds.clear()
    assert run_partitioned(p, data, PartitionPlan("chained", 3)) == want
    assert run_partitioned(p, data, PartitionPlan("lazy", 3)) == want
    assert len(builds) == 1
    assert type(p._seed) is SeedTables


def test_a_scan_that_seeds_nothing_builds_nothing(builds):
    # A scan without a window, as the chained carry pass runs, neither
    # builds the tables nor patches a pending record.
    p = _regex_set("ab+c", "a[^x]*d")
    _, carry = run_segment(replace(p), b"xa", (1, 1), None)
    builds.clear()
    run_segment(p, b"bbc", None, carry, base=2)
    assert builds == [] and p._seed is None
    find_matches(p, b"abc")
    q = add_pattern(p, "c[bd]", compile_pattern("c[bd]"))
    run_segment(q, b"bbc", None, replace(carry, generation=q.generation), base=2)
    assert len(builds) == 1 and _pending_edits(q) == 1


def test_a_pending_record_keeps_no_earlier_generation_alive():
    # The record holds the scanned ancestor's tables and the edits' rows
    # and state sets, not the parent's automaton or Pfsm.
    p = _regex_set("ab+c", "a[^x]*d")
    find_matches(p, b"abc")
    q = remove_pattern(add_pattern(p, "cd+", compile_pattern("cd+")), "ab+c")
    assert _pending_edits(q) == 2
    gone = weakref.ref(p), weakref.ref(p.automaton)
    del p
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    assert find_matches(q, b"abbcdd") == find_matches(replace(q), b"abbcdd")


def test_more_edits_than_the_cap_build_from_scratch(builds):
    p = _regex_set("ab+c", "a[^x]*d")
    find_matches(p, b"abc")
    builds.clear()
    for k in range(_MAX_PENDING + 1):
        p = add_pattern(p, f"c{k}", compile_pattern("c[ab]+d"))
        assert (p._seed is None) == (k == _MAX_PENDING)
    find_matches(p, b"cabd")
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# Differential property test across update sequences

ALPHABET = b"abcd"

# The regex joiners of perfbench's SHAPES, each alone and in pairs: a
# class, `x+`, `x?`, a two-way alternation and a `[^x]*` gap, between
# literal anchors, and after a first byte that reaches a final.
JOINERS = ["[bd]", "c+", "d?", "(ab|dc)", "[^c]*"]
REGEXES = ([f"a{j}b" for j in JOINERS]
           + [f"b{j}a{k}c" for j in JOINERS[::2] for k in JOINERS[1::2]]
           + [f"c{j}d{j}a" for j in JOINERS] + [f"d{j}" for j in JOINERS])
# One-byte words, words that branch at depth 1 and a word that is a
# prefix of another.
LITERALS = ["a", "d", "ba", "bc", "bd", "cab", "cabd"]

# A dump whose labels x and y share the machine at 1, which has an
# epsilon edge; z's machine at 6 has none.
SHARED_EPS_DUMP = (
    "PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\nstate 4\n"
    "state 5\nstate 6\nstate 7\npattern x 1\npattern y 1\npattern z 6\n"
    "eps 0 1\neps 0 6\ntrans 1 0x61 2\neps 2 3\ntrans 3 0x62 4\n"
    "trans 3 0x63 5\ntrans 2 0x64 5\ntrans 6 0x62 7\ntrans 7 0x62 7\n"
    "final 4 x\nfinal 5 y\nfinal 7 z\n")


def _machine(pattern):
    if pattern in LITERALS:
        return literal_machine(pattern.encode())
    if pattern.startswith("eps:"):
        m = compile_pattern(pattern[4:], "nfa")
        return with_epsilon(m, m.states - {m.initial})
    return compile_pattern(pattern)


def _canonical(tables: SeedTables):
    """The tables with each row's order dropped; each entry names its table
    by identity, which must be the state's own row in the machine."""
    rows = {}
    for byte, row in tables.rows.items():
        states = [t for t, _ in row]
        assert len(states) == len(set(states)), byte
        rows[byte] = sorted((t, id(table)) for t, table in row)
    return tables.closing, tables.n_start, rows


def _check_scan(p, rng):
    data = bytes(rng.choice(ALPHABET) for _ in range(rng.randint(0, 24)))
    window = None
    if data:
        lo = rng.randrange(len(data))
        window = (lo, rng.randint(lo, len(data) - 1))
    bare = replace(p)
    got, want = [], []
    stats, carry = run_segment(p, data, window, None, got.append)
    bare_stats, bare_carry = run_segment(bare, data, window, None, want.append)
    eng, eng_stats, eng_carry = engine_segment(p, data, window, None)
    assert got == want == eng
    counters = [(s.cycles, s.peak_pairs, s.sum_pairs, s.matches_emitted)
                for s in (stats, bare_stats, eng_stats)]
    assert counters[0] == counters[1] == counters[2]
    assert carry == bare_carry == eng_carry
    if window is not None:
        assert _canonical(p._seed) == _canonical(_build_seed_tables(p.automaton))


def test_patched_tables_equal_a_build_from_scratch(monkeypatch):
    # Random build, add, remove and scan sequences over every regex joiner,
    # literals that share the trie, epsilon machines and a loaded dump
    # with a shared entry: after each windowed scan the generation's tables
    # equal a build from scratch, and every scan equals one of a table-less
    # copy and the reference Engine. Some runs of updates go unscanned for
    # longer than the pending cap.
    patched = []
    real = pfsm.engine._patched

    def counted(a, pending):
        patched.append(real(a, pending))
        return patched[-1]

    monkeypatch.setattr(pfsm.engine, "_patched", counted)
    rng = random.Random("seed-tables")
    pool = REGEXES + LITERALS + ["eps:ab+c", "eps:d[^a]*b"]
    for trial in range(320):
        if trial % 8 == 0:
            p = load_pfsm(SHARED_EPS_DUMP)
        else:
            p = build_pfsm([(pat, _machine(pat))
                            for pat in rng.sample(pool, rng.randint(0, 6))])
        for _ in range(rng.randint(1, 12)):
            live = [p.label_text(lid) for lid in p.live_labels()]
            run = _MAX_PENDING + 2 if rng.random() < 0.05 else rng.randint(0, 3)
            for _ in range(run):
                if live and rng.random() < 0.5:
                    victim = live.pop(rng.randrange(len(live)))
                    p = remove_pattern(p, victim)
                else:
                    new = rng.choice([pat for pat in pool if pat not in live])
                    p = add_pattern(p, new, _machine(new))
                    live.append(new)
            _check_scan(p, rng)
    # The patch ran, and fell back, often enough to be tested.
    assert sum(t is not None for t in patched) > 300
    assert sum(t is None for t in patched) > 100
