"""Checks of the benchmark's own oracle and input generators.

Run with ``python3 -m pytest perfbench``; they import nothing from
``repro``.
"""

import random

import pytest

from inputs import churn_trace, random_dag, uniform_pairs, zipf_pairs
from oracle import DescendantBits, reaches


def brute_force_closure(dag) -> set:
    """Every reachable (s, t) pair, by a plain DFS from each vertex."""
    closure = set()
    for s in dag.out:
        seen = {s}
        stack = [s]
        while stack:
            for w in dag.out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        closure.update((s, t) for t in seen)
    return closure


@pytest.mark.parametrize("seed", range(8))
def test_oracles_match_brute_force(seed):
    n = 12 + 4 * seed
    dag = random_dag(n, 2 * n, seed=seed)
    closure = brute_force_closure(dag)
    bits = DescendantBits(dag)
    for s in range(n):
        for t in range(n):
            expected = (s, t) in closure
            assert bits.reaches(s, t) == expected
            assert reaches(dag, s, t) == expected
    src = [s for s in range(n) for _ in range(n)]
    dst = [t for _ in range(n) for t in range(n)]
    answers = bytearray((s, t) in closure for s, t in zip(src, dst))
    assert bits.check(src, dst, answers) == 0
    answers[0] ^= 1
    assert bits.check(src, dst, answers) == 1
    answers[0] = 2  # no answer: skipped
    assert bits.check(src, dst, answers) == 0


@pytest.mark.parametrize("seed", range(4))
def test_churn_trace_is_valid_and_keeps_protected_vertices(seed):
    dag = random_dag(60, 150, seed=seed)
    protected = frozenset(range(0, 60, 3))
    ops = churn_trace(dag, 120, random.Random(seed), protected)
    assert len(ops) == 120
    assert {op["kind"] for op in ops} == {
        "insert_vertex", "delete_vertex", "insert_edge", "delete_edge"}
    g = dag.copy()
    for op in ops:
        assert not (op["kind"] == "delete_vertex"
                    and op["vertex"] in protected)
        g.apply(op)  # raises on a missing vertex/edge or a rank violation
    closure = brute_force_closure(g)
    for s in g.out:
        for t in g.out:
            assert reaches(g, s, t) == ((s, t) in closure)
    assert protected <= set(g.out)


@pytest.mark.parametrize("count", [9, 10, 15])
def test_short_traces_hold_every_kind(count):
    dag = random_dag(60, 150, seed=1)
    for seed in range(20):
        ops = churn_trace(dag, count, random.Random(seed), frozenset())
        assert len({op["kind"] for op in ops}) == 4


def test_inputs_repeat_for_a_seed():
    dag = random_dag(200, 600, seed=1)
    assert random_dag(200, 600, seed=1).out == dag.out
    for gen in (uniform_pairs, zipf_pairs):
        a = gen(dag, 500, random.Random(7))
        b = gen(dag, 500, random.Random(7))
        c = gen(dag, 500, random.Random(8))
        assert a == b and a != c
    assert churn_trace(dag, 50, random.Random(3), frozenset()) == \
        churn_trace(dag, 50, random.Random(3), frozenset())


def test_uniform_pairs_point_down_the_order():
    dag = random_dag(200, 600, seed=2)
    src, dst = uniform_pairs(dag, 1000, random.Random(0))
    assert all(dag.rank[s] <= dag.rank[t] for s, t in zip(src, dst))
