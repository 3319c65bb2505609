"""Host fingerprint, process-tree memory sampling and process cleanup.

Everything is read from ``/proc`` (psutil is not a dependency).
"""

from __future__ import annotations

import os
import signal
import threading
import time


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def fingerprint() -> dict:
    """CPUs (affinity), RAM, thread env and library versions."""
    import platform
    info = {"cpus": cpu_count(), "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
            "python": platform.python_version()}
    try:
        with open("/proc/meminfo") as f:
            kb = int(next(line for line in f if line.startswith("MemTotal")).split()[1])
        info["ram_gb"] = round(kb / 2**20, 1)
    except (OSError, StopIteration, ValueError):
        info["ram_gb"] = None
    for mod in ("ray", "pyarrow", "pandas", "duckdb", "numpy"):
        try:
            info[mod] = __import__(mod).__version__
        except (ImportError, AttributeError):
            info[mod] = None
    return info


def cpu_ticks() -> dict[str, int]:
    """Cumulative host CPU ticks (all CPUs) by state, from /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return {"busy": v[0] + v[1] + v[2] + v[5] + v[6], "idle": v[3] + v[4], "steal": v[7]}


def process_age_s() -> float | None:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return None


def descendants(root: int | None = None) -> list[int]:
    """PIDs of every live descendant of ``root`` (default: this process)."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _resident_kb(pid: int) -> int:
    """Proportional set size (shared object-store pages are split between
    the processes that map them, so the tree total counts them once);
    falls back to RSS where smaps_rollup is unavailable."""
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") // 1024
    except (OSError, ValueError, IndexError):
        return 0


def tree_resident_mb() -> float:
    """Resident memory of this process plus all its descendants, in MB."""
    pids = [os.getpid()] + descendants()
    return sum(_resident_kb(p) for p in pids) / 1024


class MemorySampler:
    """Background thread tracking the peak of ``tree_resident_mb``."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.samples = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, tree_resident_mb())
            self.samples += 1
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "MemorySampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_resident_mb())
        self.samples += 1


def reap_descendants(timeout_s: float = 15.0) -> None:
    """Terminate every process this one started (and their children) and
    wait until all of them are gone."""
    deadline = time.monotonic() + timeout_s
    sig = signal.SIGTERM
    while True:
        pids = descendants()
        for p in pids:
            try:
                os.waitpid(p, os.WNOHANG)
            except ChildProcessError:
                pass
        pids = [p for p in descendants() if _alive(p)]
        if not pids or time.monotonic() > deadline + 5:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for p in pids:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    """False for exited or zombie processes."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False
