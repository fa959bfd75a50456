"""Seeded inputs of the pfsm benchmark and the expectations its outputs are
checked against.

Every generator draws from its own `random.Random` stream keyed by the
workload name and the seed, so the same seed always gives the same patterns
and input. The expectations never run the pfsm scanner: literal words are
found with `bytes.find`, the adversarial set has a closed form, and regular
expressions go through the brute-force matcher in `pfsm.oracle`.

A match is compared as a `(label text, start, end)` triple, end inclusive.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field

from pfsm import oracle
from pfsm.syntax import parse_regex

LITERAL_ALPHABET = "abcdefghijkl"
REGEX_ALPHABET = "abcdefghijklmnop"
ADVERSARIAL_PATTERNS = ["a*b", "a*c", "a*d", "a*e"]
NAMES = ["literal-dict", "adversarial-tags", "regex-live", "split-2w"]


@dataclass(frozen=True)
class Sizes:
    literal_r: int
    literal_n: int
    adversarial_n: int
    regex_r: int
    regex_text_n: int
    chunk_n: int
    split_n: int


# Input lengths are scaled so that one whole scan by the python engine takes
# about a third of a second: a run then holds dozens of scans, and the time
# scaling in clock.py brackets each of them closely. The first
# plan was 32 KiB for literal-dict and split-2w and 8 KiB for
# adversarial-tags.
FULL = Sizes(literal_r=200, literal_n=4096, adversarial_n=4096,
             regex_r=64, regex_text_n=16384, chunk_n=512, split_n=8192)
# Same generators at toy size, for the smoke mode and the benchmark's tests.
TOY = Sizes(literal_r=20, literal_n=1024, adversarial_n=256,
            regex_r=8, regex_text_n=2048, chunk_n=128, split_n=1024)


@dataclass
class Workload:
    name: str
    seed: int
    patterns: list[str]     # pattern texts, each its own label
    data: bytes             # the scanned input; on regex-live, the chunk source
    check_input: bytes = b""  # scanned once after the update probe
    live: bool = False      # closed update/scan loop instead of whole scans
    strategy: str = "single"
    chunk_n: int = 0
    expect: object = None   # Expectation
    shapes: dict[str, tuple] = field(default_factory=dict)  # regex -> joiner kinds

    def fingerprint(self) -> dict:
        pattern_blob = "\n".join(self.patterns).encode()
        return {
            "seed": self.seed,
            "patterns_sha256": hashlib.sha256(pattern_blob).hexdigest(),
            "input_sha256": hashlib.sha256(self.data).hexdigest(),
            "r": len(self.patterns),
            "n": len(self.data),
        }


def _word(rng: random.Random, alphabet: str, lo: int, hi: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def literal_dict(seed: int, sz: Sizes) -> Workload:
    rng = random.Random(f"literal-dict/{seed}")
    vocab: set[str] = set()
    while len(vocab) < sz.literal_r:
        vocab.add(_word(rng, LITERAL_ALPHABET, 3, 8))
    words = sorted(vocab)
    rng.shuffle(words)
    tokens, length = [], 0
    while length < sz.literal_n:
        tok = (rng.choice(words) if rng.random() < 0.25
               else _word(rng, LITERAL_ALPHABET, 3, 8))
        tokens.append(tok)
        length += len(tok) + 1
    data = " ".join(tokens).encode()[:sz.literal_n]
    return Workload("literal-dict", seed, words, data, data[:1024],
                    expect=LiteralExpectation())


def adversarial_tags(seed: int, sz: Sizes) -> Workload:
    # The input is fixed by construction; the seed only orders the patterns.
    rng = random.Random(f"adversarial-tags/{seed}")
    patterns = list(ADVERSARIAL_PATTERNS)
    rng.shuffle(patterns)
    data = b"a" * (sz.adversarial_n - 1) + b"b"
    return Workload("adversarial-tags", seed, patterns, data, b"a" * 255 + b"b",
                    expect=AdversarialExpectation())


# Joiner kinds: 0 class, 1 `x+`, 2 `x?`, 3 two-way alternation, 4 `[^x]*` gap.
# Pattern i of a set gets SHAPES[i % len(SHAPES)], so every seed has the same
# mix of shapes and only the letters differ. A `[^x]*` gap alone puts 255 byte
# edges on a DFA state, so a free mix would move the machine's size, and the
# set-up and update times with it, by a factor of two between seeds.
SHAPES = ([(k,) for k in range(5)]
          + list(itertools.product(range(5), repeat=2)))


def regex_pattern(rng: random.Random, shape: tuple) -> str:
    """2-3 byte literal anchors joined by the joiners `shape` names. A gap
    `[^x]*` excludes a letter no anchor of the pattern uses, which keeps the
    DFA's shape the same whatever the letters."""
    anchors = [_word(rng, REGEX_ALPHABET, 2, 3) for _ in range(len(shape) + 1)]
    unused = [c for c in REGEX_ALPHABET if c not in "".join(anchors)]

    def joiner(kind: int) -> str:
        if kind == 0:
            return "[" + "".join(rng.sample(REGEX_ALPHABET, rng.randint(2, 4))) + "]"
        if kind == 1:
            return rng.choice(REGEX_ALPHABET) + "+"
        if kind == 2:
            return rng.choice(REGEX_ALPHABET) + "?"
        if kind == 3:
            return f"({_word(rng, REGEX_ALPHABET, 2, 3)}|{_word(rng, REGEX_ALPHABET, 2, 3)})"
        return f"[^{rng.choice(unused)}]*"

    return anchors[0] + "".join(joiner(kind) + anchor
                                for kind, anchor in zip(shape, anchors[1:]))


def fresh_regex(rng: random.Random, shape: tuple, taken) -> str:
    while True:
        text = regex_pattern(rng, shape)
        if text not in taken:
            return text


def _regex_set(seed: int, r: int) -> dict[str, tuple]:
    """r distinct patterns, in order, each mapped to its shape."""
    rng = random.Random(f"regex-set/{seed}")
    shapes: dict[str, tuple] = {}
    for i in range(r):
        shape = SHAPES[i % len(SHAPES)]
        shapes[fresh_regex(rng, shape, shapes)] = shape
    return shapes


def _regex_text(rng: random.Random, n: int) -> bytes:
    return "".join(rng.choice(REGEX_ALPHABET) for _ in range(n)).encode()


def regex_live(seed: int, sz: Sizes) -> Workload:
    text = _regex_text(random.Random(f"regex-live/{seed}"), sz.regex_text_n)
    shapes = _regex_set(seed, sz.regex_r)
    return Workload("regex-live", seed, list(shapes), text, live=True,
                    chunk_n=sz.chunk_n, expect=OracleExpectation(), shapes=shapes)


def split_2w(seed: int, sz: Sizes) -> Workload:
    text = _regex_text(random.Random(f"split-2w/{seed}"), sz.split_n)
    return Workload("split-2w", seed, list(_regex_set(seed, sz.regex_r)), text,
                    text[:1024], strategy="chained", expect=OracleExpectation())


BUILDERS = {"literal-dict": literal_dict, "adversarial-tags": adversarial_tags,
            "regex-live": regex_live, "split-2w": split_2w}


def build(name: str, seed: int, sz: Sizes) -> Workload:
    return BUILDERS[name](seed, sz)


# ---------------------------------------------------------------------------
# expectations

Triple = tuple[str, int, int]


class LiteralExpectation:
    """Every overlapping occurrence of every word, by `bytes.find`."""

    def __call__(self, patterns: list[str], data: bytes) -> set[Triple]:
        out = set()
        for word in patterns:
            needle = word.encode()
            at = data.find(needle)
            while at >= 0:
                out.add((word, at, at + len(needle) - 1))
                at = data.find(needle, at + 1)
        return out


class AdversarialExpectation:
    """Closed form on `a`*(n-1) + `b`: `a*b` matches from every start to the
    last byte, and `a*c` .. `a*e` never match."""

    def __call__(self, patterns: list[str], data: bytes) -> set[Triple]:
        n = len(data)
        if data != b"a" * (n - 1) + b"b" or not set(patterns) <= set(ADVERSARIAL_PATTERNS):
            raise ValueError("closed form holds only for a...ab and the a*x patterns")
        if "a*b" not in patterns:
            return set()
        return {("a*b", i, n - 1) for i in range(n)}


class OracleExpectation:
    """`pfsm.oracle.all_matches`, memoised per (pattern, input) so that a
    chunk seen again is only re-checked for the patterns added since."""

    def __init__(self):
        self._memo: dict[tuple[str, bytes], frozenset] = {}

    def per_pattern(self, pattern: str, data: bytes) -> frozenset:
        key = (pattern, data)
        hit = self._memo.get(key)
        if hit is None:
            spans = oracle.all_matches([(0, parse_regex(pattern))], data)
            hit = frozenset((pattern, s, e) for _, s, e in spans)
            self._memo[key] = hit
        return hit

    def __call__(self, patterns: list[str], data: bytes) -> set[Triple]:
        out: set[Triple] = set()
        for pattern in patterns:
            out |= self.per_pattern(pattern, data)
        return out


# ---------------------------------------------------------------------------
# checking

def check(found: list[Triple], expected: set[Triple]) -> bool:
    """A scan is right when it reports each expected match exactly once."""
    return len(found) == len(set(found)) and set(found) == expected


def checker_self_test(expected: set[Triple]) -> bool:
    """True when `check` accepts the exact list and rejects a perturbed one:
    one match dropped and the end of another shifted by one."""
    ref = sorted(expected)
    if len(ref) < 2:
        ref = [("x", 0, 0), ("x", 1, 2)]
    perturbed = [*ref[1:-1], (ref[-1][0], ref[-1][1], ref[-1][2] + 1)]
    return check(list(ref), set(ref)) and not check(perturbed, set(ref))
