"""Traced mode: the per-layer ledger, timed from outside each layer.

Each measurement feeds this run's own inputs (the graph file the server
booted on, the workload's pairs, the churn trace) through one layer's
public functions and times the calls from here; no span inside the
program is needed.  The served-path figures (worker CPU and probe time,
client CPU, forwarded requests, publishes per update, tracing overhead)
come from the traced served phase in ``run.py`` and are merged in there.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from pathlib import Path

from inputs import wire_op, zipf_pairs

#: Pairs timed per query-kernel measurement, and query_batch calls.
QUERY_SAMPLE = 100_000
BATCH_CALLS = 5_000
CODEC_REQUESTS = 2_000


class _Spans:
    """A trace sink keeping finished span records in memory."""

    def __init__(self) -> None:
        self.records: list[dict] = []

    def write(self, record: dict) -> None:
        if record.get("kind") == "span":
            self.records.append(record)

    def total(self, name: str, *attrs: str) -> int:
        return sum(r["attrs"].get(a, 0) for r in self.records
                   if r["name"] == name for a in attrs)


def _timed(fn, repeats: int = 3) -> float:
    """Median wall seconds of *repeats* calls of *fn*."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def measure(run, state: Path) -> dict:
    """Every in-process per-layer metric for *run*'s inputs.

    Builds its own indexes and services from the graph file in *state*
    (the server is stopped by then), so nothing here shares a process
    with the served system.
    """
    from repro.core.frozen import freeze
    from repro.core.index import ReachabilityIndex
    from repro.core.butterfly import butterfly_build
    from repro.core.ops import UpdateOp
    from repro.core.orders import butterfly_upper_order
    from repro.core.serialize import pack_frozen
    from repro.graph.condensation import DynamicCondensation
    from repro.graph.io import read_edge_list
    from repro.obs import trace as obs_trace
    from repro.service.durability import DurabilityManager, WriteAheadLog
    from repro.service.server import ReachabilityService
    from repro.shm.publisher import SnapshotPublisher
    from repro.shm.reader import SnapshotReader

    clock = time.perf_counter
    out: dict = {}
    for stale in ("layers-wal", "layers-wal-only"):
        shutil.rmtree(state / stale, ignore_errors=True)
    graph = read_edge_list(state / "graph.txt")
    ops = [UpdateOp.from_dict(wire_op(op)) for op in run.ops]

    # repro.core: order and construction on the served graph.
    t = clock()
    order = butterfly_upper_order(graph)
    out["core.order_s"] = clock() - t
    t = clock()
    butterfly_build(graph, order)
    out["core.butterfly_s"] = clock() - t

    # repro.core: query kernels on this workload's own pairs.
    index = ReachabilityIndex(graph)
    frozen = freeze(index.tol)
    comp = index.condensation.component_of
    lo = run.warm
    hi = min(len(run.src), lo + QUERY_SAMPLE)
    src, dst = run.src[lo:hi], run.dst[lo:hi]
    cpairs = [(comp[s], comp[t]) for s, t in zip(src, dst)]
    fq = frozen.query
    t = clock()
    for a, b in cpairs:
        a == b or fq(a, b)
    out["core.frozen_query_us"] = (clock() - t) / len(cpairs) * 1e6
    lq = index.query
    t = clock()
    for s, d in zip(src, dst):
        lq(s, d)
    out["core.live_query_us"] = (clock() - t) / len(src) * 1e6

    # repro.core: update kernels replaying the trace, with the kernels'
    # own span attributes captured as work counts.
    spans = _Spans()
    per_kind: dict[str, list[float]] = {}
    core_s = []
    with obs_trace.capture(sink=spans):
        for op in ops:
            t = clock()
            op.apply(index)
            dt = clock() - t
            core_s.append(dt)
            per_kind.setdefault(op.kind, []).append(dt)
    for kind in ("insert_vertex", "delete_vertex", "insert_edge",
                 "delete_edge"):
        out[f"core.{kind}_ms"] = statistics.median(per_kind[kind]) * 1e3
    n_ops = len(ops)
    out["core.delete_frontier"] = spans.total(
        "tol.delete", "frontier_fwd", "frontier_bwd") / n_ops
    out["core.delete_labels_removed"] = spans.total(
        "tol.delete", "labels_removed") / n_ops
    out["core.insert_candidates_scanned"] = spans.total(
        "tol.insert.choose_level", "candidates_scanned") / n_ops
    out["core.insert_labels_added"] = spans.total(
        "tol.insert", "labels_added") / n_ops
    del index, frozen

    # repro.graph: the condensation alone.
    cond = DynamicCondensation(graph.copy())
    t = clock()
    for op in ops:
        op.apply(cond)
    out["graph.condensation_us_per_op"] = (clock() - t) / n_ops * 1e6

    # repro.service: WAL'd write-through apply, minus the kernel time of
    # the same op.
    wal_dir = state / "layers-wal"
    service = ReachabilityService(
        graph, durability=DurabilityManager(wal_dir, fsync=run.wal_fsync))
    overhead = []
    try:
        # The cache's use on Zipf batches, the mix that repeats pairs.
        zsrc, zdst = zipf_pairs(run.dag, BATCH_CALLS * 16,
                                random.Random(run.args.seed + 2))
        batches = [list(zip(zsrc[a:a + 16], zdst[a:a + 16]))
                   for a in range(0, len(zsrc), 16)]
        before = service.cache.stats()
        t = clock()
        for b in batches:
            service.query_batch(b)
        out["service.query_batch_us"] = (clock() - t) / len(batches) * 1e6
        after = service.cache.stats()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        out["service.cache_hit_ratio"] = hits / max(1, hits + misses)

        for op, core in zip(ops, core_s):
            t = clock()
            service.apply(op)
            overhead.append(clock() - t - core)
        out["service.apply_overhead_ms"] = statistics.median(overhead) * 1e3
        out["service.freeze_s"] = _timed(service.freeze_snapshot)

        # repro.shm: pack, publish, attach.
        frozen, component_of, epoch = service.freeze_snapshot()
        vertices = list(component_of)
        meta = {"vertices": vertices,
                "component_of": [component_of[v] for v in vertices],
                "epoch": epoch}
        blob = pack_frozen(frozen, meta, include_edges=False)
        out["shm.snapshot_bytes"] = len(blob)
        out["shm.pack_s"] = _timed(
            lambda: pack_frozen(frozen, meta, include_edges=False))
        publisher = SnapshotPublisher(service, num_workers=1)
        try:
            out["shm.publish_s"] = _timed(publisher.publish)
            reader = SnapshotReader(publisher.control_name)
            try:
                reader.current()
                attach = []
                for _ in range(3):
                    publisher.publish()
                    t = clock()
                    reader.current()
                    attach.append(clock() - t)
                out["shm.attach_ms"] = statistics.median(attach) * 1e3
            finally:
                reader.close()
        finally:
            publisher.close()
    finally:
        service.durability.close()

    # repro.service: the WAL alone, one append + sync per op.
    log_path = state / "layers-wal-only" / "wal.log"
    wal = WriteAheadLog(log_path, fsync=run.wal_fsync)
    try:
        size0 = log_path.stat().st_size
        appends, syncs = [], []
        for op in ops:
            t = clock()
            wal.append(op)
            t1 = clock()
            wal.sync()
            syncs.append(clock() - t1)
            appends.append(t1 - t)
        out["service.wal_append_us"] = statistics.median(appends) * 1e6
        out["service.wal_sync_us"] = statistics.median(syncs) * 1e6
        out["service.wal_bytes_per_update"] = (
            (log_path.stat().st_size - size0) / n_ops)
    finally:
        wal.close()

    out.update(codec(run))
    return out


def codec(run) -> dict:
    """JSON frame cost of this workload's request and reply frames,
    both directions, built as the client and the worker build them."""
    from repro.net.protocol import decode_payload, encode_frame, ok_response
    from repro.obs.trace import new_trace_id

    frames = []
    batch = run.batch
    lo = run.warm
    for k in range(CODEC_REQUESTS):
        a = lo + (k * batch) % (len(run.src) - lo - batch)
        pairs = list(zip(run.src[a:a + batch], run.dst[a:a + batch]))
        trace = new_trace_id()
        request = {"v": 2, "id": k, "op": "query",
                   "pairs": [[s, t] for s, t in pairs], "trace": trace}
        reply = ok_response(k, results=[run.oracle.reaches(s, t)
                                        for s, t in pairs],
                            epoch=0, degraded=False, trace=trace)
        frames.append((request, reply))
    req_bytes = rep_bytes = 0
    t = time.perf_counter()
    for request, reply in frames:
        wire = encode_frame(request)
        decode_payload(wire[4:])
        back = encode_frame(reply)
        decode_payload(back[4:])
        req_bytes += len(wire)
        rep_bytes += len(back)
    elapsed = time.perf_counter() - t
    return {
        "net.codec_us_per_request": elapsed / len(frames) * 1e6,
        "net.request_bytes": req_bytes / len(frames),
        "net.reply_bytes": rep_bytes / len(frames),
    }
