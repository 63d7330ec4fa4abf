"""The served system as a process group, and what /proc says about it.

``repro serve --workers 1`` runs as a supervisor with a writer and one
reader-worker child.  The benchmark starts it in a session of its own,
so the whole assembly is one process group: CPU and PSS are summed over
the group, and teardown signals the group, never single pids.  The
supervisor is also told by the kernel to SIGTERM itself should the
benchmark die without a teardown (killed, say); its children watch it
and exit with it.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SHM_DIR = Path("/dev/shm")
CLK_TCK = os.sysconf("SC_CLK_TCK")
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def _prctl():
    return ctypes.CDLL(None, use_errno=True).prctl


def _die_with_parent(parent: int):
    """A ``preexec_fn``: SIGTERM this child when *parent* dies."""
    prctl = _prctl()

    def preexec() -> None:
        prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
        # The parent may have died before the request took effect.
        if os.getppid() != parent:
            os._exit(1)
    return preexec


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants.

    When the supervisor exits first, its writer and worker would pass to
    init and sit in the process table as zombies until init reaps them,
    after the benchmark has exited; as a subreaper the benchmark gets
    them and reaps them itself before it exits.
    """
    if _prctl()(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        err = ctypes.get_errno()
        raise OSError(err, f"PR_SET_CHILD_SUBREAPER: {os.strerror(err)}")


def stop_resource_tracker() -> None:
    """End this process's multiprocessing resource tracker, if it has
    one, and wait for it.

    Creating a shared-memory segment in this process (the traced shm
    measurements do) starts the tracker as a child; left alone it would
    outlive the benchmark by the moment it takes to notice the exit.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def repro_segments() -> list[str]:
    """Names of every ``repro-*`` shared-memory segment now linked."""
    try:
        return sorted(p.name for p in SHM_DIR.iterdir()
                      if p.name.startswith("repro-"))
    except FileNotFoundError:
        return []


def _pids(select, zombies: bool = False) -> list[int]:
    """Pids whose ``/proc/PID/stat`` fields after the command name pass
    *select*: ``[0]`` is the state, ``[1]`` the parent, ``[2]`` the
    process group.  Zombies only with *zombies*."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                fields = f.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        if (zombies or fields[0] != b"Z") and select(fields):
            pids.append(int(entry))
    return pids


def group_members(pgid: int, zombies: bool = False) -> list[int]:
    """Live pids whose process group is *pgid* (and its zombies, with
    *zombies*)."""
    return _pids(lambda fields: int(fields[2]) == pgid, zombies)


def own_children() -> list[int]:
    """Live pids whose parent is this process."""
    me = os.getpid()
    return _pids(lambda fields: int(fields[1]) == me)


def cpu_seconds(pid: int) -> float:
    """User + system CPU of *pid* (0.0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            fields = f.read().rsplit(b")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def pss_mb(pids) -> float:
    """Proportional set size summed over *pids*, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def host_steal_seconds() -> float:
    """Cumulative steal time of the host's CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / CLK_TCK if len(fields) > 8 else 0.0


class ServedSystem:
    """One ``repro serve --workers 1`` assembly in its own session."""

    def __init__(self, repo: Path, graph: Path, state: Path, *,
                 wal_fsync: str, publish_interval: float) -> None:
        self.port_file = state / "port"
        self.log_path = state / "serve.log"
        wal = state / "wal"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        argv = [
            sys.executable, "-m", "repro", "serve", str(graph),
            "--workers", "1", "--port", "0",
            "--port-file", str(self.port_file),
            "--wal", str(wal), "--fsync", wal_fsync,
            "--publish-interval", str(publish_interval),
        ]
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=str(state), env=env, stdin=subprocess.DEVNULL,
            stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True, preexec_fn=_die_with_parent(os.getpid()),
        )
        self.pgid = self.proc.pid
        self.port = None

    def wait_port(self, timeout: float) -> int:
        """Block until the port file names the bound port."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} during "
                    f"boot; see {self.log_path}")
            try:
                text = self.port_file.read_text().split()
            except FileNotFoundError:
                text = []
            if text:
                self.port = int(text[0])
                return self.port
            time.sleep(0.005)
        raise TimeoutError(f"server did not boot within {timeout}s")

    def members(self) -> list[int]:
        return group_members(self.pgid)

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.members())

    def reap(self) -> list[int]:
        """Reap the group's exited members that are this process's
        children (see :func:`adopt_orphans`); return the group's pids
        still in the process table."""
        left = []
        for pid in group_members(self.pgid, zombies=True):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = 0
            if not done:
                left.append(pid)
        return left

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM the group, wait until every member has exited and been
        reaped, SIGKILL stragglers."""
        try:
            os.killpg(self.pgid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None and not self.reap():
                break
            time.sleep(0.02)
        else:
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(timeout=10.0)
            deadline = time.monotonic() + 10.0
            while self.reap():
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"server group {self.pgid} still in the process "
                        f"table after SIGKILL")
                time.sleep(0.02)
        self._log.close()
