"""The system under test: a private local Ray cluster, its processes, a
hang watchdog and an object-store sampler.

Settings are pinned, not derived from the host: ``num_cpus=4`` and a
fixed object-store size, dashboard off, no worker log forwarding, no
progress bars, and the ``ray.data`` logger at ERROR, so stdout carries
only the benchmark's own lines.
"""

from __future__ import annotations

import faulthandler
import glob
import logging
import os
import signal
import sys
import threading
import time

NUM_CPUS = 4
# the largest run's object-store peak is ~150 MiB; a smaller store asks
# less of a shared host's memory when the raylet maps it
OBJECT_STORE_BYTES = 512 << 20
# Ray's Unix socket paths (<temp>/session_<date>_<pid>/sockets/plasma_store)
# must fit in 107 bytes, which leaves about 45 for the temp dir itself
MAX_RAY_TEMP_LEN = 45


def start(ray_tmp: str) -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        log_to_driver=False,
        logging_level="ERROR",
        _temp_dir=ray_tmp,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _proc_table() -> dict[int, tuple[int, str]]:
    """pid -> (ppid, cmdline) for every live process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        state, ppid = stat[stat.rfind(")") + 2 :].split()[:2]
        if state != "Z":  # a zombie has already ended
            out[int(d)] = (int(ppid), cmd)
    return out


def _tracker_pid() -> int | None:
    from multiprocessing import resource_tracker

    return resource_tracker._resource_tracker._pid


def stop_tracker() -> None:
    """Stop the multiprocessing resource tracker, a helper process that
    spawning a child starts and that otherwise outlives this one."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def own_processes(ray_tmp: str) -> list[int]:
    """Processes this run started: descendants of this process, plus any
    process whose command line names this run's private Ray temp dir
    (Ray helpers that were re-parented). The multiprocessing resource
    tracker is left out: it serves every spawned child of the run and is
    stopped last, by ``stop_tracker``."""
    table = _proc_table()
    me = os.getpid()
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    found, todo = set(), [me]
    while todo:
        for c in kids.get(todo.pop(), []):
            if c not in found:
                found.add(c)
                todo.append(c)
    found |= {p for p, (_, cmd) in table.items() if ray_tmp + os.sep in cmd}
    found -= {me, _tracker_pid()}
    return sorted(found)


def reap(ray_tmp: str, known: list[int] = (), grace_s: float = 10.0) -> None:
    """Wait for this run's processes (and the ``known`` pids) to end;
    SIGKILL what is left after ``grace_s`` and wait again."""

    def alive() -> list[int]:
        _collect_children()
        live = _proc_table()
        return sorted(set(own_processes(ray_tmp)) | {p for p in known if p in live})

    deadline = time.monotonic() + grace_s
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in alive():
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while alive():
        time.sleep(0.05)


def _collect_children() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def stop(ray_tmp: str) -> None:
    import ray

    known = own_processes(ray_tmp)
    if ray.is_initialized():
        ray.shutdown()
    reap(ray_tmp, known)


def log_tails(ray_tmp: str, n_lines: int = 12) -> str:
    """The last lines of the Ray session logs under ``ray_tmp`` that tell
    where a stuck start-up or job stopped."""
    out = []
    pattern = os.path.join(ray_tmp, "session_[0-9]*", "logs", "*")
    for path in sorted(glob.glob(pattern)):
        name = os.path.basename(path)
        if not (name.startswith(("raylet.", "gcs_server.", "python-core-driver")) and os.path.isfile(path)):
            continue
        with open(path, errors="replace") as f:
            tail = f.readlines()[-n_lines:]
        if tail:
            out.append(f"--- {path}\n" + "".join(line[:300] for line in tail))
    return "".join(out)


class Watchdog:
    """Turns a hang into a failure record. ``arm(name, s)`` sets a
    deadline for the operation in flight, ``s`` times ``slack`` (capped
    by the run deadline); on expiry the stacks of every thread are
    dumped to stderr, ``on_hang(name)`` reports the failure and stops
    this run's processes, and the benchmark exits 3."""

    def __init__(self, run_deadline_s: float, on_hang, slack: float = 1.0) -> None:
        self._run_deadline = time.monotonic() + run_deadline_s
        self._slack = slack
        self._on_hang = on_hang
        self._lock = threading.Lock()
        self._op: tuple[str, float] | None = None
        threading.Thread(target=self._watch, daemon=True).start()

    def arm(self, name: str, seconds: float) -> None:
        with self._lock:
            deadline = time.monotonic() + seconds * self._slack
            self._op = (name, min(deadline, self._run_deadline))

    def disarm(self) -> None:
        with self._lock:
            self._op = None

    def _watch(self) -> None:
        while True:
            time.sleep(0.2)
            with self._lock:
                op = self._op
            deadline = op[1] if op else self._run_deadline
            if time.monotonic() < deadline:
                continue
            name = op[0] if op else "run"
            print(f"perfbench: stopped at {name}; stacks follow", file=sys.stderr)
            faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
            try:
                self._on_hang(name)
            finally:
                sys.stdout.flush()
                os._exit(3)


class StoreSampler:
    """Peak object-store bytes: single-node plasma lives in /dev/shm, so
    sampling that filesystem needs no Ray API calls (the method of
    ``scripts/measure_peak_store.py``)."""

    def __init__(self, period_s: float = 0.05) -> None:
        self.peak = 0
        self._period = period_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def used_bytes() -> int:
        st = os.statvfs("/dev/shm")
        return (st.f_blocks - st.f_bfree) * st.f_frsize

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, self.used_bytes())
            time.sleep(self._period)

    def __enter__(self) -> "StoreSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
