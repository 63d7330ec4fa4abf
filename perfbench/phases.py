"""The measured phases against a running server, and their checks.

A read phase is one closed-loop connection sending fixed-size query
batches.  A write phase is two connections from this process: a writer
sending one update op per request, each once the previous one is
visible, and an open-loop reader sending query batches on a fixed
schedule, timed from each request's due time.  Both phases keep every
reply so the oracle can check them after the clock stops.
"""

from __future__ import annotations

import socket
import threading
import time

from inputs import wire_op
from oracle import reaches


def read_phase(client, src, dst, start: int, end: int, batch: int, *,
               traced: bool = False) -> dict:
    """Send pairs ``[start, end)`` in batches; keep answers and timings.

    ``answers`` holds one byte per pair: 0 or 1 as answered, 2 where the
    request failed and nothing was answered.

    With *traced*, every other block of 64 requests asks for the
    worker's stage timings and clocks this thread's CPU inside
    ``query_many``; the untraced blocks between them give the overhead
    base.
    """
    answers = bytearray(b"\x02" * (end - start))
    latencies: list[float] = []
    traced_lat: list[float] = []
    probe_us: list[float] = []
    client_cpu_us: list[float] = []
    epochs: set[int] = set()
    failed = 0
    requests = 0
    clock = time.perf_counter
    thread_time = time.thread_time
    began = clock()
    for a in range(start, end, batch):
        b = min(a + batch, end)
        pairs = list(zip(src[a:b], dst[a:b]))
        trace_this = traced and (requests // 64) % 2 == 1
        requests += 1
        try:
            if trace_this:
                c0 = thread_time()
                t0 = clock()
                reply = client.query_many(pairs, timings=True)
                t1 = clock()
                client_cpu_us.append((thread_time() - c0) * 1e6)
                probe_us.append(reply.timings["probe_ms"] * 1e3)
                traced_lat.append(t1 - t0)
            else:
                t0 = clock()
                reply = client.query_many(pairs)
                t1 = clock()
                latencies.append(t1 - t0)
        except Exception:  # noqa: BLE001 - counted as a failed op
            failed += 1
            continue
        answers[a - start:b - start] = bytes(reply.results)
        epochs.add(reply.epoch)
    elapsed = clock() - began
    return {
        "answers": answers, "latencies": latencies,
        "traced_latencies": traced_lat, "probe_us": probe_us,
        "client_cpu_us": client_cpu_us, "epochs": epochs,
        "failed": failed, "requests": requests, "elapsed": elapsed,
    }


class UpdateLink:
    """A bare protocol connection for update ops whose reply epoch we
    need (``ReachabilityClient.apply`` returns only the applied count)."""

    def __init__(self, host: str, port: int) -> None:
        from repro.net.protocol import encode_frame, recv_frame_file

        self._encode = encode_frame
        self._recv = recv_frame_file
        self.sock = socket.create_connection((host, port), timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        self._id = 0

    def frame(self, op: dict) -> bytes:
        self._id += 1
        return self._encode({"v": 2, "id": self._id, "op": "update",
                             "ops": [wire_op(op)]})

    def call(self, frame: bytes) -> dict:
        self.sock.sendall(frame)
        reply = self._recv(self.rfile)
        if reply is None:
            raise ConnectionError("server closed the update connection")
        return reply

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def churn_phase(client, link: UpdateLink, ops: list, base_epoch: int,
                reader_src, reader_dst, *, rate: float, batch: int,
                visible_timeout: float = 60.0, traced: bool = False) -> dict:
    """Updates, each sent once the previous one is visible, beside an
    open-loop reader.

    The writer sends one op, waits for its acknowledgement, then waits
    until the reader has seen a reply stamped with the acknowledged
    epoch before it sends the next: a client that reads its own writes.
    Each op so meets a writer that has finished publishing the last
    one, and its round trip is the write path's own cost rather than
    the phase of the republish poll it happened to land in.  The reader
    runs until it has seen the last op's epoch.
    """
    frames = [link.frame(op) for op in ops]
    acks: list = [None] * len(ops)   # (sent, acked, epoch) per op
    errors: list[str] = []
    state = {"visible": base_epoch, "stop": False}
    seen = threading.Condition()
    clock = time.perf_counter

    def visible(epoch: int) -> bool:
        return state["visible"] >= epoch or state["stop"]

    def writer() -> None:
        try:
            for i, frame in enumerate(frames):
                sent = clock()
                reply = link.call(frame)
                acked = clock()
                epoch = reply.get("epoch")
                acks[i] = (sent, acked, epoch)
                if not reply.get("ok") or reply.get("applied") != 1:
                    errors.append(f"op {i}: {reply}")
                    return
                with seen:
                    if not seen.wait_for(lambda: visible(epoch),
                                         timeout=visible_timeout):
                        errors.append(f"op {i} never became visible")
                        return
                if state["stop"]:
                    return
        except Exception as exc:  # noqa: BLE001 - reported as failures
            errors.append(f"writer: {type(exc).__name__}: {exc}")
        finally:
            with seen:
                state["stop"] = True
                seen.notify_all()

    period = 1.0 / rate
    # (due, sent, received, epoch, offset, answers, traced) per reply
    reads: list = []
    client_cpu_us: list[float] = []
    probe_us: list[float] = []
    read_failed = 0
    pool = len(reader_src)
    thread = threading.Thread(target=writer, name="perfbench-writer")
    final_epoch = base_epoch + len(ops)
    began = clock()
    thread.start()
    k = 0
    try:
        while True:
            due = began + k * period
            now = clock()
            if due > now:
                time.sleep(due - now)
            off = (k * batch) % (pool - batch)
            pairs = list(zip(reader_src[off:off + batch],
                             reader_dst[off:off + batch]))
            trace_this = traced and k % 2 == 1
            sent = clock()
            k += 1
            try:
                if trace_this:
                    c0 = time.thread_time()
                    reply = client.query_many(pairs, timings=True)
                    client_cpu_us.append((time.thread_time() - c0) * 1e6)
                    probe_us.append(reply.timings["probe_ms"] * 1e3)
                else:
                    reply = client.query_many(pairs)
            except Exception:  # noqa: BLE001 - counted as a failed op
                read_failed += 1
                if read_failed > 100:
                    errors.append("reader: too many failed reads")
                    break
                continue
            reads.append((due, sent, clock(), reply.epoch, off,
                          bytes(reply.results), trace_this))
            if reply.epoch > state["visible"]:
                with seen:
                    state["visible"] = reply.epoch
                    seen.notify_all()
            if reply.epoch >= final_epoch or state["stop"]:
                break
    finally:
        with seen:
            state["stop"] = True
            seen.notify_all()
        thread.join(timeout=visible_timeout + 130.0)
    return {
        "acks": acks, "errors": errors, "reads": reads,
        "read_failed": read_failed, "reads_sent": k,
        "client_cpu_us": client_cpu_us,
        "probe_us": probe_us, "began": began,
    }


def churn_stats(result: dict, batch: int) -> dict:
    """Latencies, lags and rates out of one :func:`churn_phase` result."""
    acks = result["acks"]
    reads = sorted(result["reads"], key=lambda r: r[2])
    update_lat = [acked - sent for sent, acked, _ in acks]
    lags = []
    j = 0
    for _sent, acked, epoch in acks:
        # First reply received after the ack that carries its epoch.
        while j < len(reads) and reads[j][2] < acked:
            j += 1
        m = j
        while m < len(reads) and reads[m][3] < epoch:
            m += 1
        if m < len(reads):
            lags.append(reads[m][2] - acked)
    # An op's cycle runs from its send to the next op's send: its round
    # trip plus its wait for visibility.
    cycles = [b[0] - a[0] for a, b in zip(acks, acks[1:])]
    return {
        "update_latencies": update_lat, "lags": lags, "cycles": cycles,
        "write_wall": acks[-1][1] - acks[0][0],
        "read_latencies": [r[2] - r[0] for r in reads if not r[6]],
        "traced_latencies": [r[2] - r[0] for r in reads if r[6]],
        "read_pairs": len(reads) * batch,
        "read_span": reads[-1][2] - result["began"] if reads else 0.0,
        "lateness": [r[1] - r[0] for r in reads],
    }


def check_churn(result: dict, base, ops: list, base_epoch: int,
                reader_src, reader_dst, batch: int) -> list[str]:
    """Check acks and one read reply per observed epoch.

    Replays the trace on a copy of the base graph and, at each epoch a
    reply was stamped with, checks that reply's answers by DFS.
    """
    problems = list(result["errors"])
    for i, ack in enumerate(result["acks"]):
        if ack is None:
            problems.append(f"op {i} never acknowledged")
        elif ack[2] != base_epoch + i + 1:
            problems.append(f"op {i} acked at epoch {ack[2]}, expected "
                            f"{base_epoch + i + 1}")
    first_per_epoch: dict[int, tuple] = {}
    for read in result["reads"]:
        first_per_epoch.setdefault(read[3], read)
    g = base.copy()
    applied = 0
    for epoch in sorted(first_per_epoch):
        target = epoch - base_epoch
        if not 0 <= target <= len(ops):
            problems.append(f"read stamped with unknown epoch {epoch}")
            continue
        while applied < target:
            g.apply(ops[applied])
            applied += 1
        off, answers = first_per_epoch[epoch][4:6]
        for s, t, a in zip(reader_src[off:off + batch],
                           reader_dst[off:off + batch], answers):
            if reaches(g, s, t) != bool(a):
                problems.append(f"epoch {epoch}: wrong answer for {s}->{t}")
    return problems
