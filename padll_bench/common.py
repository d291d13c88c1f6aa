"""Shared pieces of the benchmark: results, statistics and resource checks.

Standard library only: the entry script imports this before the program
under test, so set-up time measures the program's own imports.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import resource
import stat
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("step_ms_p50", "ms", "lower"),
]

#: Nominal duration of one :func:`speed_probe`, seconds.
REFERENCE_PROBE_S = 0.002


def speed_probe() -> float:
    """Time a fixed piece of pure-Python work: integer adds and dict stores."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(20_000):
        total += i
        table[i & 255] = total
    return time.perf_counter() - start


class Speed:
    """Interpreter-speed probes bracketing each timed step.

    The machine this benchmark was built on changes speed by up to a third
    from one second to the next, for all code alike.  :meth:`timed` takes
    a mark of ``PROBES`` probes before and after a step and scales the
    step's wall time to the speed at which one probe takes
    ``REFERENCE_PROBE_S``.  Back-to-back steps share the mark between
    them.  A long step can also call :meth:`tick` from a hook inside it:
    the in-step probes join the two marks in the step's mean speed, and
    their cost is taken out of its wall time.
    """

    PROBES = 7
    #: A mark this recent is reused as the next step's starting mark.
    REUSE_S = 0.1
    #: In-step probes come at most this often.
    TICK_S = 0.1

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = None
        self._last_at = 0.0
        self._in_step: List[float] = []
        self._tick_at = 0.0
        self._tick_cost = 0.0
        self._stepping = False

    def tick(self) -> None:
        """One probe inside the running step, at most every ``TICK_S``."""
        now = time.perf_counter()
        if not self._stepping or now - self._tick_at < self.TICK_S:
            return
        probe = speed_probe()
        self.samples.append(probe)
        self._in_step.append(probe)
        self._tick_at = time.perf_counter()
        self._tick_cost += self._tick_at - now

    def mark(self) -> float:
        """Median of ``PROBES`` fresh probes."""
        probes = [speed_probe() for _ in range(self.PROBES)]
        self.samples.extend(probes)
        self._last, self._last_at = median(probes), time.perf_counter()
        return self._last

    def timed(self, fn: Callable, *args, **kwargs):
        """``fn(*args, **kwargs)`` between two marks: (result, raw s, factor).

        ``factor`` turns a raw time inside the step into a reference time
        (multiply) and a raw rate into a reference rate (divide).
        """
        recent = self._last is not None and time.perf_counter() - self._last_at < self.REUSE_S
        before = self._last if recent else self.mark()
        self._in_step, self._tick_cost = [], 0.0
        self._stepping, self._tick_at = True, time.perf_counter()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stepping = False
        raw = time.perf_counter() - start - self._tick_cost
        after = self.mark()
        speeds = [before, after, *self._in_step]
        return result, raw, REFERENCE_PROBE_S * len(speeds) / sum(speeds)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``q`` in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def steps_for(seconds: float, reference_step_s: float) -> int:
    """Steps in a run: as many as take ``seconds`` at reference speed.

    A run does a fixed amount of work rather than running for a fixed
    time, so its memory and sample counts do not move with the machine's
    speed.
    """
    return max(1, round(seconds / reference_step_s))


def pinned_report(seed: int, pinned) -> Tuple[str, float, str, str]:
    """The report line saying whether this seed's digests are pinned."""
    note = (
        "digests checked against pinned values"
        if pinned is not None
        else "not pinned; digests checked for repeats only"
    )
    return ("pinned_digests", float(pinned is not None), "bool", f"seed {seed}: {note}")


def step_metrics(work: float, steps: Sequence[float]) -> Dict[str, float]:
    """``work_per_s`` and the step pair from step durations in seconds."""
    return {
        "work_per_s": work / sum(steps),
        "step_ms_p50": 1e3 * median(steps),
        "step_ms_p90": 1e3 * percentile(steps, 90.0),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def open_sockets() -> int:
    """Sockets among this process's open file descriptors."""
    count = 0
    fd_dir = "/proc/self/fd"
    for name in os.listdir(fd_dir):
        try:
            mode = os.stat(os.path.join(fd_dir, name)).st_mode
        except OSError:
            continue  # the listdir descriptor itself, already closed
        if stat.S_ISSOCK(mode):
            count += 1
    return count


def program_threads() -> List[str]:
    """Names of live threads the program started (``padll-*``)."""
    return sorted(
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("padll-") and thread.is_alive()
    )


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Outcome:
    """What one measured run produced, before set-up and memory are added."""

    #: ``work_per_s`` and the step pair, scaled to reference speed.
    metrics: Dict[str, float]
    #: The same metrics as measured.
    raw: Dict[str, float]
    #: Operations attempted and failed; checks are counted on top of these.
    attempted: int
    failed: int
    checks: List[Check] = field(default_factory=list)
    #: Human-readable lines: (name, value, unit, note).
    report: List[Tuple[str, float, str, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(Check(name, bool(ok), detail))
        return bool(ok)


def stop_resource_tracker() -> None:
    """Stop this process's ``multiprocessing`` resource tracker and reap it.

    The first shared-memory segment starts the tracker as a child process,
    and it lives until its parent exits; it then exits on its own, orphaned,
    some time after.  Stopping it here makes it end before the benchmark
    does.  It is started again if anything needs it afterwards.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def child_pids() -> List[int]:
    """Process ids of this process's live children, of any kind."""
    pids: List[int] = []
    task_dir = "/proc/self/task"
    for task in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, task, "children")) as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        except OSError:
            continue  # the thread ended while listing
    return pids


def leak_checks(baseline_sockets: int) -> List[Check]:
    """Threads, sockets and child processes left after a workload closed.

    Call after :func:`stop_resource_tracker`: the tracker is a child too.
    """
    threads = program_threads()
    children = multiprocessing.active_children()
    pids = child_pids()
    sockets = open_sockets()
    return [
        Check("no padll-* threads left", not threads, ", ".join(threads)),
        Check("no child processes left", not children and not pids,
              ", ".join(str(pid) for pid in pids) or str(len(children))),
        Check(
            "no sockets left open",
            sockets <= baseline_sockets,
            f"{sockets} open, {baseline_sockets} before set-up",
        ),
    ]
