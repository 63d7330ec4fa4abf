"""Seeded inputs: the served graph, query pairs and the churn trace.

Everything here is the benchmark's own code: the program under test only
ever sees the edge-list file, the request frames and the update ops this
module produces.  Vertices are ints; every generator takes an explicit
``random.Random`` so a seed fixes its output.
"""

from __future__ import annotations

import itertools
import random
from array import array

#: The served graph: a uniform random DAG with 20k vertices and 80k
#: edges, drawn with a fixed seed so every run serves the same index.
GRAPH_VERTICES = 20_000
GRAPH_EDGES = 80_000
GRAPH_SEED = 0

#: Seed of the Zipf popularity ranking (fixed: it is part of the dataset).
ZIPF_RANKING_SEED = 0

#: Ids of vertices the churn trace inserts start here, far above the
#: base graph's ids, so a reader can tell them apart at a glance.
NEW_VERTEX_BASE = 1_000_000

#: Churn op mix (kind, count per block of 10 ops).  Edge ops in TOL ride
#: a vertex delete plus re-insert, so together they weigh as much as
#: vertex ops.
CHURN_MIX = (
    ("insert_vertex", 3),
    ("delete_vertex", 2),
    ("insert_edge", 3),
    ("delete_edge", 2),
)


class Dag:
    """A DAG as out/in adjacency sets plus a rank that orders every edge.

    ``rank[u] < rank[v]`` holds for every edge ``u -> v``, so an op that
    only adds edges from lower to higher rank can never close a cycle.
    """

    def __init__(self) -> None:
        self.out: dict[int, set[int]] = {}
        self.inn: dict[int, set[int]] = {}
        self.rank: dict[int, float] = {}

    @property
    def num_vertices(self) -> int:
        return len(self.out)

    @property
    def num_edges(self) -> int:
        return sum(len(s) for s in self.out.values())

    def add_vertex(self, v: int, rank: float) -> None:
        if v in self.out:
            raise ValueError(f"vertex {v} already exists")
        self.out[v] = set()
        self.inn[v] = set()
        self.rank[v] = rank

    def add_edge(self, u: int, v: int) -> None:
        if not self.rank[u] < self.rank[v]:
            raise ValueError(f"edge {u}->{v} runs against the rank order")
        if v in self.out[u]:
            raise ValueError(f"edge {u}->{v} already exists")
        self.out[u].add(v)
        self.inn[v].add(u)

    def remove_edge(self, u: int, v: int) -> None:
        self.out[u].remove(v)
        self.inn[v].remove(u)

    def remove_vertex(self, v: int) -> None:
        for w in self.out.pop(v):
            self.inn[w].discard(v)
        for u in self.inn.pop(v):
            self.out[u].discard(v)
        del self.rank[v]

    def copy(self) -> "Dag":
        other = Dag()
        other.out = {v: set(s) for v, s in self.out.items()}
        other.inn = {v: set(s) for v, s in self.inn.items()}
        other.rank = dict(self.rank)
        return other

    def apply(self, op: dict) -> None:
        """Apply one churn op (the wire dict form) to this graph."""
        kind = op["kind"]
        if kind == "insert_vertex":
            self.add_vertex(op["vertex"], op["rank"])
            for u in op["ins"]:
                self.add_edge(u, op["vertex"])
            for w in op["outs"]:
                self.add_edge(op["vertex"], w)
        elif kind == "delete_vertex":
            self.remove_vertex(op["vertex"])
        elif kind == "insert_edge":
            self.add_edge(op["tail"], op["head"])
        elif kind == "delete_edge":
            self.remove_edge(op["tail"], op["head"])
        else:
            raise ValueError(f"unknown op kind {kind!r}")

    def edge_list_text(self) -> str:
        """Edge-list file text: every vertex on its own line, then edges."""
        lines = [f"# perfbench dag vertices={self.num_vertices} "
                 f"edges={self.num_edges}"]
        lines.extend(str(v) for v in sorted(self.out))
        for u in sorted(self.out):
            lines.extend(f"{u} {w}" for w in sorted(self.out[u]))
        return "\n".join(lines) + "\n"


def random_dag(n: int = GRAPH_VERTICES, m: int = GRAPH_EDGES,
               seed: int = GRAPH_SEED) -> Dag:
    """A uniform random DAG: a random permutation is the topological
    order and *m* distinct forward pairs are drawn uniformly."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    dag = Dag()
    for position, v in enumerate(order):
        dag.add_vertex(v, float(position))
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if i > j:
            i, j = j, i
        edges.add((order[i], order[j]))
    for u, v in sorted(edges):
        dag.add_edge(u, v)
    return dag


def uniform_pairs(dag: Dag, count: int, rng: random.Random,
                  vertices=None) -> tuple[array, array]:
    """Topology-aware uniform pairs (the paper's Section-8 workload):
    both endpoints uniform, oriented so the source has the lower rank."""
    pool = sorted(dag.out) if vertices is None else list(vertices)
    rank = dag.rank
    a = rng.choices(pool, k=count)
    b = rng.choices(pool, k=count)
    src = array("i", bytes(4 * count))
    dst = array("i", bytes(4 * count))
    for i, (s, t) in enumerate(zip(a, b)):
        if rank[s] > rank[t]:
            s, t = t, s
        src[i] = s
        dst[i] = t
    return src, dst


def zipf_pairs(dag: Dag, count: int, rng: random.Random,
               skew: float = 1.1) -> tuple[array, array]:
    """Zipf-skewed pairs: each vertex gets a popularity rank and both
    endpoints are drawn independently with weight ``1/rank**skew`` (the
    distribution ``repro loadgen`` sends).

    The ranking comes from :data:`ZIPF_RANKING_SEED`, not from *rng*:
    the hot set is part of the dataset, like the graph, so every seed
    meets the same hot vertices and only the draws vary.
    """
    vertices = sorted(dag.out)
    random.Random(ZIPF_RANKING_SEED).shuffle(vertices)
    cum = list(itertools.accumulate(
        1.0 / (r + 1) ** skew for r in range(len(vertices))
    ))
    src = array("i", rng.choices(vertices, cum_weights=cum, k=count))
    dst = array("i", rng.choices(vertices, cum_weights=cum, k=count))
    return src, dst


def churn_trace(dag: Dag, count: int, rng: random.Random,
                protected: frozenset) -> list[dict]:
    """A valid, acyclic trace of *count* update ops against *dag*.

    Rank-based: an inserted vertex gets a random rank, its in-neighbours
    come from lower ranks and its out-neighbours from higher ones, and an
    inserted edge always runs from lower to higher rank, so no op closes
    a cycle (a cycle-closing insert merges SCCs, and a few of those would
    swamp the trace).  Every op is applied to a private copy of *dag* as
    it is generated, so it is valid in sequence.  Vertices in *protected*
    are never deleted.  Ops are wire dicts (``UpdateOp.to_dict`` form)
    plus a ``rank`` on vertex inserts, which the server ignores.
    """
    g = dag.copy()
    alive = sorted(g.out)
    deletable = [v for v in alive if v not in protected]
    slot = {v: i for i, v in enumerate(deletable)}
    block = [kind for kind, n in CHURN_MIX for _ in range(n)]
    schedule: list[str] = []
    next_id = NEW_VERTEX_BASE
    ops: list[dict] = []

    def random_alive() -> int:
        # Rejection over the id space keeps draws O(1) without keeping a
        # second, order-sensitive list of every live vertex.
        while True:
            v = alive[rng.randrange(len(alive))]
            if v in g.out:
                return v

    def drop_deletable(v: int) -> None:
        i = slot.pop(v)
        last = deletable.pop()
        if last != v:
            deletable[i] = last
            slot[last] = i

    while len(ops) < count:
        if not schedule:
            # Each block of ops holds the exact mix in a seeded order, so
            # every trace of 9 or more ops has every kind, and the mix
            # does not drift with the seed.
            schedule = block[:]
            rng.shuffle(schedule)
        kind = schedule.pop()
        if kind == "insert_vertex":
            v = next_id
            r = rng.uniform(0.0, float(GRAPH_VERTICES))
            ins: set[int] = set()
            outs: set[int] = set()
            want_in, want_out = rng.randint(1, 3), rng.randint(1, 3)
            for _ in range(64):
                if len(ins) >= want_in and len(outs) >= want_out:
                    break
                u = random_alive()
                if g.rank[u] < r and len(ins) < want_in:
                    ins.add(u)
                elif g.rank[u] > r and len(outs) < want_out:
                    outs.add(u)
            op = {"kind": kind, "vertex": v, "ins": sorted(ins),
                  "outs": sorted(outs), "rank": r}
            next_id += 1
            alive.append(v)
            slot[v] = len(deletable)
            deletable.append(v)
        elif kind == "delete_vertex":
            v = deletable[rng.randrange(len(deletable))]
            drop_deletable(v)
            op = {"kind": kind, "vertex": v}
        elif kind == "insert_edge":
            while True:
                u, w = random_alive(), random_alive()
                if u == w:
                    continue
                if g.rank[u] > g.rank[w]:
                    u, w = w, u
                if w not in g.out[u]:
                    break
            op = {"kind": kind, "tail": u, "head": w}
        else:
            while True:
                u = random_alive()
                if g.out[u]:
                    break
            w = sorted(g.out[u])[rng.randrange(len(g.out[u]))]
            op = {"kind": kind, "tail": u, "head": w}
        g.apply(op)
        ops.append(op)
        if len(alive) > 2 * len(g.out):
            alive = [v for v in alive if v in g.out]
    return ops


def wire_op(op: dict) -> dict:
    """The op as the server's update envelope carries it."""
    return {k: v for k, v in op.items() if k != "rank"}
