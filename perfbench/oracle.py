"""Reachability computed apart from the program under test.

Two oracles over the benchmark's own :class:`~inputs.Dag` copy, sharing
no code with ``repro``:

* :class:`DescendantBits` — one Python-int bitset of descendants per
  vertex, filled in reverse rank order (each vertex ORs its children's
  sets).  On the 20k graph it holds ~50 MB and answers a pair with one
  shift-and-mask, cheap enough to check every answer of a read run;
* :func:`reaches` — an early-exit DFS, for graphs that change (churn
  epochs, the final state) where rebuilding bitsets per epoch would cost
  more than the handful of pairs checked.

A vertex reaches itself, matching the server's ``query(v, v) == True``.
"""

from __future__ import annotations


class DescendantBits:
    """Descendant bitsets of a DAG whose vertices are ints ``0..n-1``."""

    def __init__(self, dag) -> None:
        bits: dict[int, int] = {}
        for v in sorted(dag.out, key=dag.rank.__getitem__, reverse=True):
            b = 1 << v
            for w in dag.out[v]:
                b |= bits[w]
            bits[v] = b
        self._bits = bits

    def reaches(self, s: int, t: int) -> bool:
        return (self._bits[s] >> t) & 1 == 1

    def check(self, src, dst, answers) -> int:
        """Count answers (0/1 bytes) that disagree with the oracle; a
        byte above 1 marks a pair that got no answer and is skipped."""
        bits = self._bits
        wrong = 0
        for s, t, a in zip(src, dst, answers):
            if a < 2 and (bits[s] >> t) & 1 != a:
                wrong += 1
        return wrong


def reaches(dag, s: int, t: int) -> bool:
    """Whether *s* reaches *t* in *dag* (DFS that prunes past t's rank)."""
    if s == t:
        return True
    rank = dag.rank
    limit = rank[t]
    out = dag.out
    seen = {s}
    stack = [s]
    while stack:
        for w in out[stack.pop()]:
            if w == t:
                return True
            # Every edge climbs in rank, so nothing ranked past t leads
            # back down to it.
            if w not in seen and rank[w] < limit:
                seen.add(w)
                stack.append(w)
    return False
