#!/usr/bin/env python3
"""End-to-end benchmark of the served reachability system.

Run from the repository root::

    python3 perfbench/run.py --workload read-uniform --seed 1 --seconds 6 --trace 0

Boots ``repro serve --workers 1 --wal`` on a fixed 20k-vertex random DAG,
drives one workload at it, checks every answer against an oracle of its
own, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
A line before it carries reference fields (tail percentiles, host steal
time, a CPU calibration loop) that nothing is normalised by.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import inputs
import layers
import procs
from oracle import DescendantBits, reaches
from phases import (UpdateLink, check_churn, churn_phase, churn_stats,
                    read_phase)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench-run"

WORKLOADS = ("read-uniform", "churn")

#: Served configuration: WAL fsync once per applied batch (one op per
#: update request here), snapshot republish checks every 50 ms.
WAL_FSYNC = "batch"
PUBLISH_INTERVAL = 0.05

#: Boots per untraced run; setup_s is their median.
BOOTS = 3

#: Read workloads: pairs per request and pairs per second of --seconds.
#: The work is fixed per run (only time varies) and sized so the timed
#: phase lasts about --seconds on a 2-vCPU host.
UNIFORM_BATCH = 64
UNIFORM_PAIRS_PER_S = 50_000
#: Untimed uniform pairs first: enough to fill the worker's 200k-entry
#: memo, so the timed phase sees a long-lived snapshot's steady state.
UNIFORM_WARMUP_PAIRS = 200_000
#: Warm-up pairs go in large requests: only the memo's contents count.
WARMUP_BATCH = 1024

#: Writes: churn sends this many ops per second of --seconds; each read
#: workload ends with a write phase of PROBE_OPS_PER_S ops per second of
#: --seconds on the same path, so every workload reports every metric.
CHURN_OPS_PER_S = 4
PROBE_OPS_PER_S = 2

#: The open-loop reader beside the writes: requests per second, pairs
#: per request, and the protected vertices it draws from.
READER_RATE = 100.0
READER_BATCH = 16
READER_VERTICES = 2_000
#: Reader pairs drawn per run; the reader cycles through them.
READER_POOL = 50_000

#: Post-trace sample checked against the final graph.
FINAL_SAMPLE = 2_048

#: A run that has not finished after this many seconds stops its server
#: and exits non-zero, well inside the 180 s a run may take.
DEADLINE_S = 150


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def percentile(values, q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def calibration_ms() -> float:
    """A fixed pure-Python loop, best of three (reference only)."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=6)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def preflight() -> str | None:
    """Why this run must not start, or None."""
    pgid_file = STATE / "server.pgid"
    if pgid_file.exists():
        pgid = int(pgid_file.read_text() or 0)
        if pgid and procs.group_members(pgid):
            return f"an earlier run's server (pgid {pgid}) is still alive"
    leftovers = procs.repro_segments()
    if leftovers:
        return f"repro shared-memory segments still linked: {leftovers}"
    return None


class Run:
    """One benchmark invocation: inputs, server lifetimes, results."""

    def __init__(self, args) -> None:
        self.args = args
        self.rng = random.Random(args.seed)
        self.system = None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.ref: dict = {}
        self.layer: dict = {}
        self.wal_fsync = WAL_FSYNC
        self.client = None

    # -- server lifetime ----------------------------------------------

    def boot(self) -> float:
        """Start a fresh server; return spawn-to-first-reply seconds."""
        from repro.net.client import ReachabilityClient

        shutil.rmtree(STATE / "wal", ignore_errors=True)
        system = procs.ServedSystem(
            ROOT, STATE / "graph.txt", STATE,
            wal_fsync=WAL_FSYNC, publish_interval=PUBLISH_INTERVAL,
        )
        self.system = system
        (STATE / "server.pgid").write_text(str(system.pgid))
        port = system.wait_port(timeout=150.0)
        # The worker attaches the first snapshot before it accepts, so
        # the first reply on a fresh connection marks the end of setup.
        client = ReachabilityClient("127.0.0.1", port, timeout=120.0,
                                    retries=0)
        client.ping()
        setup = time.perf_counter() - system.started
        self.client = client
        return setup

    def shutdown(self) -> None:
        if self.system is None:
            return
        if self.client is not None:
            self.client.close()
            self.client = None
        t = time.perf_counter()
        self.system.stop()
        self.ref.setdefault("stop_s", []).append(time.perf_counter() - t)
        self.system = None
        (STATE / "server.pgid").unlink(missing_ok=True)
        self.check_leaks()

    def check_leaks(self) -> None:
        """Fail the run on a linked ``repro-*`` segment, then unlink it
        so the next run is not refused for this run's fault."""
        leaked = procs.repro_segments()
        if leaked:
            self.problems.append(f"leaked shm segments: {leaked}")
            for name in leaked:
                (procs.SHM_DIR / name).unlink(missing_ok=True)

    # -- inputs ---------------------------------------------------------

    def make_inputs(self) -> None:
        args = self.args
        self.dag = inputs.random_dag()
        (STATE / "graph.txt").write_text(self.dag.edge_list_text())
        rng = self.rng
        protected = sorted(rng.sample(sorted(self.dag.out), READER_VERTICES))
        self.reader_src, self.reader_dst = inputs.uniform_pairs(
            self.dag, READER_POOL, rng, vertices=protected)
        if args.workload == "churn":
            n_ops = CHURN_OPS_PER_S * args.seconds
        else:
            n_ops = PROBE_OPS_PER_S * args.seconds
        self.ops = inputs.churn_trace(self.dag, n_ops, rng, frozenset(protected))
        self.warm = 0
        if args.workload == "read-uniform":
            self.warm = UNIFORM_WARMUP_PAIRS
            n = self.warm + UNIFORM_PAIRS_PER_S * args.seconds
            self.src, self.dst = inputs.uniform_pairs(self.dag, n, rng)
            self.batch = UNIFORM_BATCH
        else:
            self.src, self.dst = self.reader_src, self.reader_dst
            self.batch = READER_BATCH

    # -- phases -------------------------------------------------------

    def snapshot_plane(self) -> dict:
        """The writer's view of the shm plane (``health`` op)."""
        return self.client.health()["snapshot"]

    def read_workload(self) -> dict:
        traced = bool(self.args.trace)
        out: dict = {}
        if self.warm:
            warm = read_phase(self.client, self.src, self.dst, 0, self.warm,
                              WARMUP_BATCH)
            self.count(warm)
            self.check_reads(0, self.warm, warm)
        worker = self.snapshot_plane()["workers"][0]["pid"]
        cpu0 = self.system.cpu_seconds()
        wcpu0 = procs.cpu_seconds(worker)
        res = read_phase(self.client, self.src, self.dst, self.warm,
                         len(self.src), self.batch, traced=traced)
        cpu1 = self.system.cpu_seconds()
        wcpu1 = procs.cpu_seconds(worker)
        out["pss_mb"] = procs.pss_mb(self.system.members())
        self.count(res)
        self.check_reads(self.warm, len(self.src), res)
        pairs = len(self.src) - self.warm
        # The closed loop's rate at its median round trip: a stall of the
        # host moves the median far less than the phase's wall time.
        out["read_pairs_per_s"] = self.batch / median(res["latencies"])
        out["read_p50_ms"] = median(res["latencies"]) * 1e3
        out["server_cpu_us_per_pair"] = (cpu1 - cpu0) / pairs * 1e6
        self.ref.update(
            read_latency_ms=tail(res["latencies"]),
            read_phase_s=res["elapsed"],
            read_phase_pairs_per_s=pairs / res["elapsed"],
        )
        if traced:
            self.traced_net(res["latencies"], res["traced_latencies"],
                            res["probe_us"], res["client_cpu_us"],
                            (wcpu1 - wcpu0), res["requests"])
        return out

    def check_reads(self, start, end, res) -> None:
        wrong = self.oracle.check(self.src[start:end], self.dst[start:end],
                             res["answers"])
        if wrong:
            self.problems.append(f"{wrong} wrong read answers")
        if res["epochs"] - {0}:
            self.problems.append(f"read-only phase saw epochs "
                                 f"{sorted(res['epochs'])}")

    def count(self, res) -> None:
        self.attempted += res["requests"]
        self.failed += res["failed"]

    def write_phase(self) -> dict:
        traced = bool(self.args.trace)
        health = self.client.health()
        base_epoch = health["epoch"]
        plane = health["snapshot"]
        publishes0 = plane["publishes"]
        writer, worker = plane["writer_pid"], plane["workers"][0]["pid"]
        link = UpdateLink("127.0.0.1", self.system.port)
        try:
            cpu0 = self.system.cpu_seconds()
            wcpu0 = procs.cpu_seconds(writer)
            kcpu0 = procs.cpu_seconds(worker)
            req0 = plane["workers"][0]["requests"]
            res = churn_phase(
                self.client, link, self.ops, base_epoch,
                self.reader_src, self.reader_dst, rate=READER_RATE,
                batch=READER_BATCH, traced=traced,
            )
            cpu1 = self.system.cpu_seconds()
            wcpu1 = procs.cpu_seconds(writer)
            kcpu1 = procs.cpu_seconds(worker)
            pss = procs.pss_mb(self.system.members())
        finally:
            link.close()
        n_ops = len(self.ops)
        self.attempted += n_ops + res["reads_sent"]
        self.failed += res["read_failed"]
        self.failed += sum(1 for a in res["acks"] if a is None)
        problems = check_churn(res, self.dag, self.ops, base_epoch,
                               self.reader_src, self.reader_dst,
                               READER_BATCH)
        self.problems.extend(problems)
        out = {"pss_mb": pss}
        if any(a is None for a in res["acks"]):
            return out
        st = churn_stats(res, READER_BATCH)
        out.update(
            update_ops_per_s=1.0 / median(st["cycles"]),
            visibility_lag_mean_ms=statistics.fmean(st["lags"]) * 1e3,
            writer_cpu_ms_per_update=(wcpu1 - wcpu0) / n_ops * 1e3,
            read_pairs_per_s=st["read_pairs"] / st["read_span"],
            read_p50_ms=median(st["read_latencies"]) * 1e3,
            server_cpu_us_per_pair=(cpu1 - cpu0) / st["read_pairs"] * 1e6,
        )
        if len(st["lags"]) != n_ops:
            self.problems.append("some updates never became visible")
        self.ref["update_latency_ms"] = tail(st["update_latencies"])
        self.ref["visibility_lag_ms"] = tail(st["lags"])
        self.ref["beside_writes_read_latency_ms"] = tail(st["read_latencies"])
        self.ref["reader_lateness_ms"] = {
            "p50": median(st["lateness"]) * 1e3,
            "max": max(st["lateness"]) * 1e3,
        }
        self.ref["write_phase_s"] = st["write_wall"]
        self.ref["write_phase_ops_per_s"] = n_ops / st["write_wall"]
        plane = self.snapshot_plane()
        self.layer["shm.publishes_per_update"] = (
            (plane["publishes"] - publishes0) / n_ops)
        if traced and self.args.workload == "churn":
            self.traced_net(st["read_latencies"], st["traced_latencies"],
                            res["probe_us"], res["client_cpu_us"],
                            kcpu1 - kcpu0,
                            plane["workers"][0]["requests"] - req0)
        return out

    def traced_net(self, plain, traced, probe_us, client_cpu_us,
                   worker_cpu_s, requests) -> None:
        self.layer.update({
            "net.worker_cpu_us_per_request": worker_cpu_s / requests * 1e6,
            "net.worker_probe_us_per_request": median(probe_us),
            "net.client_cpu_us_per_request": median(client_cpu_us),
            "trace.overhead_pct": (median(traced) / median(plain) - 1) * 100,
        })

    def final_checks(self) -> int:
        """Check the final state; return the served label count."""
        final = self.dag.copy()
        for op in self.ops:
            final.apply(op)
        final_epoch = self.client.health()["epoch"]
        vertices = sorted(final.out)
        rng = random.Random(self.args.seed + 1)
        pairs = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(FINAL_SAMPLE)]
        wrong = 0
        for a in range(0, len(pairs), 64):
            chunk = pairs[a:a + 64]
            reply = self.client.query_many(chunk)
            self.attempted += 1
            if reply.epoch != final_epoch:
                self.problems.append(
                    f"final sample answered at epoch {reply.epoch}, "
                    f"not {final_epoch}")
            for (s, t), ans in zip(chunk, reply.results):
                if reaches(final, s, t) != ans:
                    wrong += 1
        if wrong:
            self.problems.append(f"{wrong} wrong answers on the final graph")
        health = self.client.health()
        index = health["index"]
        if (index["num_vertices"], index["num_edges"]) != (
                final.num_vertices, final.num_edges):
            self.problems.append(
                f"served |V|,|E| = {index['num_vertices']},"
                f"{index['num_edges']}; expected {final.num_vertices},"
                f"{final.num_edges}")
        stats = self.client.stats()
        counters = stats.get("counters", {})
        if stats.get("quarantined") or counters.get("updates_rejected"):
            self.problems.append(
                f"updates rejected={counters.get('updates_rejected')} "
                f"quarantined={stats.get('quarantined')}")
        if final_epoch != len(self.ops):
            self.problems.append(f"final epoch {final_epoch} after "
                                 f"{len(self.ops)} ops")
        workers = health["snapshot"]["workers"]
        self.layer["net.forwarded_requests"] = sum(
            w["forwarded"] for w in workers)
        return index["total_labels"]


def tail(values) -> dict:
    """Median and tail of a list of seconds, in ms, with the count."""
    return {
        "n": len(values),
        "p50": median(values) * 1e3,
        "p90": percentile(values, 0.90) * 1e3,
        "p99": percentile(values, 0.99) * 1e3,
    }


def execute(args) -> dict:
    reason = preflight()
    if reason:
        raise SystemExit(f"refusing to start: {reason}")
    STATE.mkdir(exist_ok=True)
    run = Run(args)
    began = time.perf_counter()
    timeline = run.ref["timeline_s"] = {}

    def mark(name: str) -> None:
        timeline[name] = time.perf_counter() - began

    steal0 = procs.host_steal_seconds()
    run.ref["calibration_ms"] = calibration_ms()
    try:
        metrics = drive(run, args, mark)
    finally:
        procs.stop_resource_tracker()
    run.ref["steal_s"] = procs.host_steal_seconds() - steal0
    run.ref["wall_s"] = time.perf_counter() - began
    return {"run": run, "metrics": metrics}


def drive(run: Run, args, mark) -> dict:
    """Boot, drive and check the served system, then stop it; in a
    traced run, measure the layers after it."""
    try:
        run.make_inputs()
        run.oracle = DescendantBits(run.dag)
        # The inputs and the oracle are long-lived; moving them out of
        # the collector's generations keeps its full passes from pausing
        # the load loop.
        gc.collect()
        gc.freeze()
        mark("inputs")
        boots = 1 if args.trace else BOOTS
        setups = []
        for i in range(boots):
            setups.append(run.boot())
            if i < boots - 1:
                run.shutdown()
        run.ref["setup_s"] = setups
        mark("boots")
        metrics: dict = {"setup_s": median(setups)}
        if args.workload != "churn":
            metrics.update(run.read_workload())
            mark("reads")
        # On a read workload the read metrics and the footprint come
        # from the read phase; the write phase adds the write metrics.
        for name, value in run.write_phase().items():
            metrics.setdefault(name, value)
        mark("writes")
        metrics["server_pss_mb"] = metrics.pop("pss_mb")
        metrics["index_labels"] = run.final_checks()
        mark("checks")
    finally:
        run.shutdown()
    if args.trace:
        run.layer.update(layers.measure(run, STATE))
        run.check_leaks()
        mark("layers")
    return metrics


def exit_on_signals() -> None:
    """Turn SIGINT, SIGTERM and the run's deadline (SIGALRM) into
    SystemExit, so every ``finally`` stops what the run started.  Only
    the first one counts: a second must not cut that teardown short."""
    fired = []

    def on_signal(signum, _frame):
        if fired:
            return
        fired.append(signum)
        if signum == signal.SIGALRM:
            raise SystemExit(f"error: run not finished after {DEADLINE_S} s")
        raise SystemExit(128 + signum)

    for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGALRM):
        signal.signal(signum, on_signal)
    signal.alarm(DEADLINE_S)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    exit_on_signals()
    procs.adopt_orphans()
    outcome = execute(args)
    signal.alarm(0)
    run = outcome["run"]
    left = procs.own_children()
    if left:
        run.problems.append(f"child processes still running: {left}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    measured = run.layer if args.trace else outcome["metrics"]
    values = {m["name"]: (measured.get(m["name"]), m["unit"])
              for m in spec["per_layer" if args.trace else "end_to_end"]}
    # A metric with no samples reads None or NaN: report it as missing.
    values = {name: (None if v is None or v != v else v, unit)
              for name, (v, unit) in values.items()}
    missing = [name for name, (v, _u) in values.items() if v is None]
    if missing:
        run.problems.append(f"metrics not measured: {missing}")
    run.ref["problems"] = run.problems
    print(json.dumps({"reference": run.ref}, default=str))
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": unit}
                    for name, (v, unit) in values.items() if v is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
