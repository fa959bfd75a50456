"""Shared test utilities: randomized instance generation and an
automaton-membership check built only from the primitive operations."""

from __future__ import annotations

import math
import random
import statistics
import time
import tracemalloc

from pfsm import Engine, build_pfsm, epsilon_closure, run, step
from pfsm.automaton import Automaton
from pfsm.compile import compile_nfa, compile_pattern, nfa_to_dfa
from pfsm.syntax import (ByteClass, Literal, Node, Opt, Plus, Star,
                         alternation, concat)

FIG1_PATTERNS = ["a*c", "ac", "a(ca)*b"]
FIG1_INPUT = b"aacacab"
FIG2_MATCHES = {
    ("a*c", 0, 2), ("a*c", 1, 2), ("ac", 1, 2), ("a*c", 2, 2),
    ("a*c", 3, 4), ("ac", 3, 4), ("a*c", 4, 4),
    ("a(ca)*b", 1, 6), ("a(ca)*b", 3, 6), ("a(ca)*b", 5, 6),
}

# A plain PFSM-AUT dump (no `pattern` lines) whose finals carry two
# labels: it loads as one machine that keeps both, so scanning `ab`
# reports `a` at (0, 0) and `b` at (1, 1).
PLAIN_TWO_LABEL_DUMP = ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\n"
                        "final 1 a\nfinal 2 b\ntrans 0 0x61 1\n"
                        "trans 0 0x62 2\n")

# A plain dump of the DFA of the patterns `a*b` and `ab` over {a, b}: its
# state 4, reached by `ab`, accepts both labels.
PLAIN_SHARED_FINAL_DUMP = (
    "PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\nstate 4\n"
    "final 3 a*b\nfinal 4 ab\nfinal 4 a*b\ntrans 0 0x61 1\ntrans 0 0x62 3\n"
    "trans 1 0x61 2\ntrans 1 0x62 4\ntrans 2 0x61 2\ntrans 2 0x62 3\n")

# PFSM-AUT dumps the loader must refuse, with a fragment of the error:
# pattern x's final state 2 has an edge back into q0, a pattern line whose
# entry state is not an integer, pattern b's final labeled with pattern
# a's text, a pattern entry that is not a state, a final label on the
# ancillary initial state, and two with a machine that patterns a and b
# share: pattern c's final labeled b, and an edge from b's final into
# pattern c's machine. Then four faults of `final` lines and the header:
# a (state, label) pair listed twice, a final without a label, a final
# naming an undeclared state, and a dump in the retired v1 format. Then
# three directive lines with a field too few or too many: a `trans` line
# without its target, an `eps` line with a second target and a `state`
# line without its id. Then two patterns that could never match: b
# shares x's entry but has no final, and y's one final is not reached
# from y's entry. Then four faults of single lines: a second initial
# state, a label on two `pattern` lines, an unknown directive and a final
# whose label has no `pattern` line. Then a plain dump whose label b has
# its one final where the initial state never reaches. Last, two more
# directive lines a field short: an `eps` line without its target and a
# `pattern` line without its entry state.
BAD_PFSM_DUMPS = [
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nfinal 2 x\n"
     "trans 1 0x61 2\ntrans 2 0x62 0\neps 0 1\npattern x 1\n",
     "state 2 has edges leaving the pattern, to [0]"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1 x\neps 0 1\n"
     "pattern x abc\n",
     "malformed pattern line 'pattern x abc'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\nstate 4\n"
     "final 2 a\nfinal 4 a\ntrans 1 0x61 2\ntrans 3 0x62 4\neps 0 1\n"
     "eps 0 3\npattern a 1\npattern b 3\n",
     "final 4 is labeled 'a' but owned by pattern 'b'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1 a\neps 0 1\n"
     "pattern a 1\npattern b 5\n",
     "pattern 'b' entry state 5 is not a state of the machine"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 0 x\neps 0 1\n"
     "pattern x 1\n",
     "ancillary initial state is final"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\nstate 5\n"
     "state 6\nfinal 2 a\nfinal 3 b\nfinal 6 b\ntrans 1 0x61 2\n"
     "trans 1 0x62 3\ntrans 5 0x63 6\neps 0 1\neps 0 5\npattern a 1\n"
     "pattern b 1\npattern c 5\n",
     "final 6 is labeled 'b' but owned by pattern 'c'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\nstate 4\n"
     "state 5\nfinal 2 a\nfinal 3 b\nfinal 5 c\ntrans 1 0x61 2\n"
     "trans 1 0x62 3\ntrans 3 0x63 5\ntrans 4 0x63 5\neps 0 1\neps 0 4\n"
     "pattern a 1\npattern b 1\npattern c 4\n",
     "patterns 'b' and 'c' of different machines share state 5"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1 x\nfinal 1 x\n"
     "trans 0 0x61 1\n",
     "line 5: final 1 'x' listed twice"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1\ntrans 0 0x61 1\n",
     "line 4: final without label"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1 x\nfinal 7 y\n"
     "trans 0 0x61 1\n",
     "final state 7 not in state set"),
    ("PFSM-AUT v1\nstate 0 initial\nstate 1 final x\ntrans 0 0x61 1\n",
     "line 1: bad header 'PFSM-AUT v1', expected 'PFSM-AUT v2'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\ntrans 0 0x61\nfinal 1 x\n",
     "line 4: malformed trans line 'trans 0 0x61'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1 x\neps 0 1 1\n",
     "line 5: malformed eps line 'eps 0 1 1'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate\n",
     "line 3: malformed state line 'state'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\n"
     "final 3 x\ntrans 1 0x61 2\ntrans 2 0x61 1\ntrans 2 0x62 3\n"
     "eps 0 1\npattern x 1\npattern b 1\n",
     "pattern 'b' has no final line"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nstate 3\n"
     "final 3 y\ntrans 1 0x61 2\neps 0 1\npattern y 1\n",
     "pattern 'y' reaches none of its finals"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1 initial\n",
     "line 3: second initial state"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1 x\neps 0 1\n"
     "pattern x 1\npattern x 1\n",
     "line 7: duplicate pattern label 'x'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nedge 0 1\n",
     "line 4: unknown directive 'edge'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nfinal 2 x\n"
     "final 2 y\ntrans 1 0x61 2\neps 0 1\npattern x 1\n",
     "final 2 labeled 'y' which has no pattern line"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nstate 2\nfinal 1 a\n"
     "final 2 b\ntrans 0 0x61 1\n",
     "pattern 'b' reaches none of its finals"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1 x\neps 0\n",
     "line 5: malformed eps line 'eps 0'"),
    ("PFSM-AUT v2\nstate 0 initial\nstate 1\nfinal 1 x\neps 0 1\npattern x\n",
     "line 6: malformed pattern line 'pattern x'"),
]
BAD_PFSM_DUMP_IDS = ["edge-leaves-pattern", "non-integer-entry",
                     "final-labeled-by-other-pattern", "entry-not-a-state",
                     "final-initial-state", "final-labeled-by-other-machine",
                     "edge-into-other-machine", "final-pair-twice",
                     "final-without-label", "final-of-undeclared-state",
                     "v1-header", "trans-field-missing", "eps-field-extra",
                     "state-without-id", "pattern-without-final",
                     "final-not-reached", "second-initial-state",
                     "pattern-label-twice", "unknown-directive",
                     "final-label-without-pattern",
                     "plain-final-not-reached", "eps-field-missing",
                     "pattern-field-missing"]


def plain_dump(a: Automaton, texts: list[str]) -> str:
    """A plain dump of `a` whose finals accepting label k name texts[k]."""
    lines = ["PFSM-AUT v2"]
    lines += (f"state {s}" + " initial" * (s == a.initial)
              for s in sorted(a.states))
    lines += (f"final {s} {texts[k]}"
              for s, labels in sorted(a.final_labels.items())
              for k in sorted(labels))
    lines += (f"trans {s} 0x{b:02X} {t}"
              for s, table in sorted(a.byte_transitions.items())
              for b, succ in sorted(table.items()) for t in sorted(succ))
    lines += (f"eps {s} {t}" for s, succ in sorted(a.epsilon_transitions.items())
              for t in sorted(succ))
    return "\n".join(lines) + "\n"


def joined_nfa(asts: list[Node]) -> Automaton:
    """The patterns' machines joined under one initial state by epsilon
    edges: a final accepts label k if it ends asts[k]."""
    joined = Automaton({0}, 0, {}, {0: set()}, {})
    for k, ast in enumerate(asts):
        nfa, base = compile_nfa(ast), max(joined.states) + 1
        joined.states |= {base + s for s in nfa.states}
        joined.epsilon_transitions[0].add(base + nfa.initial)
        for s, table in nfa.byte_transitions.items():
            joined.byte_transitions[base + s] = {
                b: {base + t for t in succ} for b, succ in table.items()}
        for s in nfa.finals:
            joined.final_labels[base + s] = frozenset({k})
    return joined


def joined_dfa(asts: list[Node]) -> Automaton:
    """The subset-construction DFA of `joined_nfa(asts)`."""
    return nfa_to_dfa(joined_nfa(asts))


def assert_rows_frozen_and_shared(a: Automaton) -> None:
    """Every successor set of `a`, byte or epsilon, is a frozenset, and in
    each row the bytes with equal successors share one object."""
    for s, row in a.byte_transitions.items():
        assert all(type(succ) is frozenset for succ in row.values()), s
        assert len({id(succ) for succ in row.values()}) \
            == len(set(row.values())), s
    for s, succ in a.epsilon_transitions.items():
        assert type(succ) is frozenset, s


def nfa_accepts(a: Automaton, s: bytes) -> bool:
    """Membership by direct closure/step simulation of the automaton."""
    current = epsilon_closure(a, {a.initial})
    for byte in s:
        current = epsilon_closure(a, step(a, current, byte))
        if not current:
            return False
    return bool(current & a.finals)


def all_strings(alphabet: list[int], max_len: int):
    """Every byte string over the alphabet up to max_len, shortest first."""
    layer = [b""]
    yield b""
    for _ in range(max_len):
        layer = [s + bytes([b]) for s in layer for b in alphabet]
        yield from layer


def gen_ast(rng: random.Random, alphabet: list[int], depth: int) -> Node:
    """Random tree over {literals, classes, |, concat, *, +, ?}."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.8:
            return Literal(rng.choice(alphabet))
        k = rng.randint(1, len(alphabet))
        return ByteClass(frozenset(rng.sample(alphabet, k)))
    kind = rng.randrange(5)
    if kind == 0:
        return concat([gen_ast(rng, alphabet, depth - 1)
                       for _ in range(rng.randint(2, 3))])
    if kind == 1:
        return alternation([gen_ast(rng, alphabet, depth - 1)
                            for _ in range(rng.randint(2, 3))])
    if kind == 2:
        return Star(gen_ast(rng, alphabet, depth - 1))
    if kind == 3:
        return Plus(gen_ast(rng, alphabet, depth - 1))
    return Opt(gen_ast(rng, alphabet, depth - 1))


def gen_alphabet(rng: random.Random, max_size: int = 4) -> list[int]:
    size = rng.randint(2, max_size)
    return [ord("a") + i for i in range(size)]


def with_epsilon(machine: Automaton, hopped) -> Automaton:
    """The same language with epsilon edges: every byte edge into a state
    of `hopped` enters a fresh state instead, joined to it by an epsilon
    edge, and a fresh initial state has an epsilon edge to the old one."""
    top = max(machine.states) + 1
    hop = {s: top + i for i, s in enumerate(sorted(hopped))}
    start = top + len(hop)
    byte_transitions = {s: {b: {hop.get(t, t) for t in succ}
                            for b, succ in table.items()}
                        for s, table in machine.byte_transitions.items()}
    eps = {s: set(succ) for s, succ in machine.epsilon_transitions.items()}
    for s, h in hop.items():
        eps[h] = {s}
    eps[start] = {machine.initial}
    return Automaton(machine.states | set(hop.values()) | {start}, start,
                     byte_transitions, eps, dict(machine.final_labels))


def random_hops(rng: random.Random, machine: Automaton) -> Automaton:
    """`with_epsilon` over a random half of the states other than the
    initial one."""
    return with_epsilon(machine, [s for s in sorted(machine.states)
                                  if s != machine.initial and rng.random() < 0.5])


def gen_instance(rng: random.Random, *, max_patterns: int = 4, depth: int = 5,
                 max_input: int = 64, forms=("dfa", "nfa", "mixed"),
                 max_alphabet: int = 4):
    """A random (pfsm, [(label id, ast)], input, form) quadruple. The "eps"
    form puts epsilon edges into every NFA (`random_hops`); "eps2" applies
    `random_hops` twice, so some byte edges lead into chains of two epsilon
    edges. Half the sets of two or more patterns end with a literal word
    under two labels, which in every form but the eps ones share one final
    of the trie."""
    alphabet = gen_alphabet(rng, max_alphabet)
    n_patterns = rng.randint(1, max_patterns)
    asts = [gen_ast(rng, alphabet, depth) for _ in range(n_patterns)]
    if n_patterns > 1 and rng.random() < 0.5:
        word = concat([Literal(rng.choice(alphabet))
                       for _ in range(rng.randint(1, 3))])
        asts[-2:] = [word, word]
    form = rng.choice(forms)
    machines = []
    for i, ast in enumerate(asts):
        nfa = compile_nfa(ast)
        if form == "dfa" or (form == "mixed" and rng.random() < 0.5):
            machines.append((f"p{i}", nfa_to_dfa(nfa)))
        elif form == "eps":
            machines.append((f"p{i}", random_hops(rng, nfa)))
        elif form == "eps2":
            machines.append((f"p{i}", random_hops(rng, random_hops(rng, nfa))))
        else:
            machines.append((f"p{i}", nfa))
    p = build_pfsm(machines)
    labeled = [(p.label_ids[f"p{i}"], ast) for i, ast in enumerate(asts)]
    data = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, max_input)))
    return p, labeled, data, form


def gen_literal_set(rng: random.Random, alphabet: list[int],
                    max_words: int = 6, max_len: int = 4) -> list[tuple[str, bytes]]:
    """(label, word) pairs of a random literal set. It always holds a word,
    its one-byte prefix, an extension of it and a second label for it, so
    words share prefixes, one word is a prefix of another, two labels have
    the same literal and one-byte words occur; more random words follow."""
    def word(lo: int, hi: int) -> bytes:
        return bytes(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))

    base = word(2, max_len)
    words = [base[:1], base, base + word(1, 2), base]
    words += [word(1, max_len) for _ in range(rng.randint(0, max_words))]
    rng.shuffle(words)
    return [(f"w{k}", w) for k, w in enumerate(words)]


def literal_machine(word: bytes):
    """The machine of one literal word: a chain of one-byte edges."""
    return compile_nfa(concat([Literal(b) for b in word]))


def gen_literal_instance(rng: random.Random, *, max_input: int = 64,
                         max_alphabet: int = 3):
    """A random literal set in `gen_instance`'s shape: (pfsm, [(label id,
    ast)], input, "literal"); its words share one trie."""
    alphabet = gen_alphabet(rng, max_alphabet)
    pairs = gen_literal_set(rng, alphabet)
    p = build_pfsm([(label, literal_machine(w)) for label, w in pairs])
    labeled = [(p.label_ids[label], concat([Literal(b) for b in w]))
               for label, w in pairs]
    data = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, max_input)))
    return p, labeled, data, "literal"


def build_fig1(form: str = "dfa"):
    """The Fig. 1 set in one form; "eps" is the NFA with every state
    but the initial one behind an epsilon edge."""
    from pfsm.compile import compile_pattern
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        machines = [(pat, compile_pattern(pat, "nfa" if form == "eps" else form))
                    for pat in FIG1_PATTERNS]
    if form == "eps":
        machines = [(pat, with_epsilon(m, m.states - {m.initial}))
                    for pat, m in machines]
    return build_pfsm(machines)


def build_fig1_mixed():
    from pfsm.compile import compile_pattern
    forms = ["dfa", "nfa", "dfa"]
    return build_pfsm([(pat, compile_pattern(pat, f))
                       for pat, f in zip(FIG1_PATTERNS, forms)])


def match_texts(matches, pfsm) -> set[tuple[str, int, int]]:
    return {(pfsm.label_text(m.label), m.start, m.end) for m in matches}


def engine_segment(p, data: bytes, window, carry_in, base: int = 0):
    """`run_segment` computed by the reference `Engine`, feeding one byte
    per cycle: (matches in emission order, stats, snapshot)."""
    out = []
    eng = Engine(p, out.append)
    if carry_in is not None:
        eng.restore(carry_in)
    for pos, byte in enumerate(data, base):
        eng.feed(byte, pos, window is not None and window[0] <= pos <= window[1])
        if not eng.active and (window is None or pos >= window[1]):
            break
    return out, eng.stats, eng.snapshot()


def engine_matches(p, data: bytes):
    """Every match of a whole-input scan by the reference `Engine`."""
    window = (0, len(data) - 1) if data else None
    return engine_segment(p, data, window, None)[0]


def fast_cycle_pairs(p, data: bytes) -> list[int]:
    """The pair count of each cycle of `run(p, data)`, read from the fast
    scan's own counters: cycle k's count is the rise in `sum_pairs` from
    the scan of data[:k] to the scan of data[:k + 1]. A cycle's count does
    not depend on the bytes after it."""
    sums = [run(p, data[:k]).sum_pairs for k in range(len(data) + 1)]
    return [b - a for a, b in zip(sums, sums[1:])]


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_text(seed, alphabet: bytes, n: int) -> bytes:
    """`n` seeded random bytes drawn from `alphabet`."""
    rng = random.Random(seed)
    return bytes(rng.choice(alphabet) for _ in range(n))


def best_scan_seconds(p, data: bytes, repeats: int = 3) -> float:
    """Best of `repeats` timed `run(p, data)` calls, after one warm-up."""
    sink = lambda _: None
    run(p, data, sink)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run(p, data, sink)
        best = min(best, time.perf_counter() - t0)
    return best


def adversarial_scan_seconds(r: int, n: int, repeats: int = 3) -> float:
    """Best of `repeats` timed scans, after one warm-up scan, of the DFA
    set a*b, a*c, ... (r patterns) over n bytes of 'a': every start
    position stays live to the end, so the active set is as large as it
    gets while no match is reported."""
    p = build_pfsm([(pat, compile_pattern(pat, "dfa"))
                    for pat in ("a*" + chr(ord("b") + i) for i in range(r))])
    return best_scan_seconds(p, b"a" * n, repeats)


def peel_tags(lo: int, mask: int) -> list[int]:
    """The tags of an anchored mask, ascending, by peeling the lowest set
    bit off one at a time: the reference that `engine._tags` is held to."""
    out = []
    while mask:
        low = mask & -mask
        out.append(lo + low.bit_length() - 1)
        mask ^= low
    return out


def loglog_slope(xs: list[float], ts: list[float]) -> float:
    """Least-squares slope of log(t) against log(x)."""
    return statistics.linear_regression([math.log(x) for x in xs],
                                        [math.log(t) for t in ts]).slope
