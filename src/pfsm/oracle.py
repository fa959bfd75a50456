"""Brute-force reference matcher.

Two independent methods, sharing no code with the automaton pipeline:

- accepts(): memoized recursive interpretation of the syntax tree over
  string spans.
- match_ends(): position-set simulation; the set of input positions is a
  bitmask and each tree node maps a start mask to the mask of positions
  reachable after consuming a word of its language.

all_matches() enumerates every (label, start, end) span via the
position-set method; the suite cross-checks the two methods against each
other on every generated instance.
"""

from __future__ import annotations

from .syntax import Alt, ByteClass, Concat, Empty, Literal, Node, Opt, Plus, Star


def accepts(ast: Node, s: bytes) -> bool:
    """True iff s belongs to the language of the tree."""
    memo: dict[tuple, bool] = {}

    def match(node, i, j) -> bool:
        key = (id(node), i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(node, Empty):
            out = i == j
        elif isinstance(node, Literal):
            out = j == i + 1 and s[i] == node.byte
        elif isinstance(node, ByteClass):
            out = j == i + 1 and s[i] in node.bytes_
        elif isinstance(node, Concat):
            out = match_seq(node.parts, 0, i, j)
        elif isinstance(node, Alt):
            out = any(match(c, i, j) for c in node.choices)
        elif isinstance(node, (Star, Plus)):
            # a non-empty child word, then more repetitions; the empty span
            # is x*'s, and x+'s only when the child matches it
            out = any(match(node.child, i, k) and (k == j or match(node, k, j))
                      for k in range(i + 1, j + 1)) or \
                  (i == j and (isinstance(node, Star) or match(node.child, i, i)))
        elif isinstance(node, Opt):
            out = i == j or match(node.child, i, j)
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[key] = out
        return out

    def match_seq(parts, idx, i, j) -> bool:
        key = ("seq", id(parts), idx, i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if idx == len(parts) - 1:
            out = match(parts[idx], i, j)
        else:
            out = any(match(parts[idx], i, k) and match_seq(parts, idx + 1, k, j)
                      for k in range(i, j + 1))
        memo[key] = out
        return out

    return match(ast, 0, len(s))


def _occupancy(s: bytes) -> dict[int, int]:
    """byte value -> bitmask of the positions holding it."""
    occ: dict[int, int] = {}
    for i, b in enumerate(s):
        occ[b] = occ.get(b, 0) | (1 << i)
    return occ


def _advance(node: Node, mask: int, occ: dict[int, int]) -> int:
    """Map a bitmask of start positions to the positions reachable after
    consuming one word of the node's language from each of them. `x*`
    grows its start mask by `x` steps to a fixed point; `x+` takes one `x`
    step first, then grows the same way."""
    if mask == 0:
        return 0
    if isinstance(node, Empty):
        return mask
    if isinstance(node, Literal):
        return (mask & occ.get(node.byte, 0)) << 1
    if isinstance(node, ByteClass):
        hits = 0
        for b in node.bytes_:
            got = occ.get(b)
            if got:
                hits |= got
        return (mask & hits) << 1
    if isinstance(node, Concat):
        for part in node.parts:
            mask = _advance(part, mask, occ)
            if mask == 0:
                return 0
        return mask
    if isinstance(node, Alt):
        out = 0
        for choice in node.choices:
            out |= _advance(choice, mask, occ)
        return out
    if isinstance(node, (Star, Plus)):
        reach = mask if isinstance(node, Star) else _advance(node.child, mask, occ)
        while True:
            grown = reach | _advance(node.child, reach, occ)
            if grown == reach:
                return reach
            reach = grown
    if isinstance(node, Opt):
        return mask | _advance(node.child, mask, occ)
    raise TypeError(f"unknown node {node!r}")


def match_ends(ast: Node, s: bytes, start: int) -> set[int]:
    """All exclusive end positions j such that s[start:j] matches."""
    occ = _occupancy(s)
    ends = _advance(ast, 1 << start, occ)
    return {j for j in range(len(s) + 1) if ends >> j & 1}


def all_matches(patterns, data: bytes) -> set[tuple[int, int, int]]:
    """Every (label, start, end-inclusive) span of every pattern.

    patterns: iterable of (label, syntax tree). Zero-length spans are not
    enumerated, matching the engine's output convention.
    """
    occ = _occupancy(data)
    out: set[tuple[int, int, int]] = set()
    for label, ast in patterns:
        for i in range(len(data)):
            ends = _advance(ast, 1 << i, occ)
            j = i + 1
            ends >>= j
            while ends:
                if ends & 1:
                    out.add((label, i, j - 1))
                ends >>= 1
                j += 1
    return out
