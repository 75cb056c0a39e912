"""Pure helpers of the benchmark: percentiles, names, run comparison, stamps.

Nothing here imports the program under test, so the helpers are unit-tested
on their own (``pitexbench/test_pitexbench.py``).
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import threading
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A percentile is reported only when at least this many samples lie beyond it
# (p90 therefore needs at least 100 samples).
MIN_SAMPLES_BEYOND = 10


def check_metric_name(name: str) -> str:
    """Return ``name`` if it is a valid metric name, else raise ``ValueError``."""
    if not METRIC_NAME.match(name):
        raise ValueError(f"invalid metric name {name!r}: use 1-64 of [A-Za-z0-9_.-]")
    return name


def samples_needed(q: float, beyond: int = MIN_SAMPLES_BEYOND) -> int:
    """Fewest samples for which at least ``beyond`` lie above the ``q`` quantile."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"quantile must lie in [0, 1), got {q}")
    return max(1, math.ceil(round(beyond / (1.0 - q), 9)))


def percentile(values: Sequence[float], q: float, beyond: int = MIN_SAMPLES_BEYOND) -> float:
    """The ``q`` quantile of ``values`` (linear interpolation between ranks).

    Raises ``ValueError`` when fewer than ``beyond`` samples would lie above
    it, so a tail figure is never reported from too small a sample.  A failed
    request is passed in as ``math.inf``: it misses every latency limit, so it
    can only push the percentile up.
    """
    n = len(values)
    if n < samples_needed(q, beyond):
        raise ValueError(
            f"p{q * 100:g} needs {samples_needed(q, beyond)} samples "
            f"({beyond} beyond it), got {n}"
        )
    ordered = sorted(values)
    position = q * (n - 1)
    low = int(math.floor(position))
    high = min(low + 1, n - 1)
    fraction = position - low
    if fraction == 0.0:
        return ordered[low]
    if math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def median(values: Sequence[float]) -> float:
    """The median (``percentile(values, 0.5)`` without the tail rule)."""
    return percentile(values, 0.5, beyond=0)


def speed_probe(repeats: int = 3) -> float:
    """Seconds one fixed unit of interpreter + numpy work takes right now.

    The best of ``repeats`` back-to-back tries, so a single preemption does
    not count as a slow host.
    """
    import numpy

    best = math.inf
    data = numpy.arange(100_000, dtype=numpy.float64)
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value % 7
        float((data * 1.5 + total).sum())
        best = min(best, time.perf_counter() - started)
    return best


def compare_runs(reference: Mapping, candidate: Mapping, label: str) -> List[str]:
    """Differences between two runs' answer digests and deterministic counters.

    Each argument is ``{"answers_digest": str, "counters": {name: int}}``.
    Returns one human-readable line per difference (empty when equal).
    """
    problems: List[str] = []
    if reference["answers_digest"] != candidate["answers_digest"]:
        problems.append(
            f"{label}: answers_digest {candidate['answers_digest'][:16]} != "
            f"{reference['answers_digest'][:16]}"
        )
    ref_counters = reference["counters"]
    new_counters = candidate["counters"]
    for name in sorted(set(ref_counters) | set(new_counters)):
        if ref_counters.get(name) != new_counters.get(name):
            problems.append(
                f"{label}: counter {name} = {new_counters.get(name)} != {ref_counters.get(name)}"
            )
    return problems


def source_digest(root: Path) -> str:
    """sha256 over the program's and the benchmark's Python sources, sorted."""
    hasher = hashlib.sha256()
    paths = list((root / "src").rglob("*.py")) + list((root / "pitexbench").glob("*.py"))
    for path in sorted(paths):
        hasher.update(str(path.relative_to(root)).encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_sha(root: Path) -> str:
    """The checked-out commit read from ``.git`` inside ``root``, or ``"none"``."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "none"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[len("ref: ") :]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return "none"


def run_stamp(root: Path, workload: str, seed: int, samples: Mapping[str, int]) -> dict:
    """What must match for two outputs of the benchmark to be comparable."""
    import numpy

    return {
        "host_cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "source_digest": source_digest(root)[:16],
        "workload": workload,
        "seed": seed,
        "samples": dict(samples),
    }


def _vm_hwm_kib(status_path: str) -> Optional[int]:
    try:
        with open(status_path, encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def peak_rss_mib(child_pids: Sequence[int] = ()) -> float:
    """Peak resident set (``VmHWM``) of this process plus ``child_pids``, in MiB.

    Raises ``RuntimeError`` when ``/proc`` does not report this process's
    ``VmHWM``: without it the workers cannot be measured either.
    """
    own = _vm_hwm_kib("/proc/self/status")
    if own is None:
        raise RuntimeError("/proc/self/status has no VmHWM line; peak RSS cannot be measured")
    total = own
    for pid in child_pids:
        total += _vm_hwm_kib(f"/proc/{pid}/status") or 0
    return total / 1024.0


def stat_cpu_ticks(stat_text: str) -> int:
    """``utime + stime`` in clock ticks from the text of a ``/proc/.../stat`` file."""
    # The command name, in parentheses, may hold spaces; fields follow the last ')'.
    fields = stat_text[stat_text.rindex(")") + 2 :].split()
    return int(fields[11]) + int(fields[12])


def _ticks(path: str) -> int:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return stat_cpu_ticks(handle.read())
    except OSError:  # the thread or process has ended
        return 0


def busy_cpu_seconds(child_pids: Sequence[int] = ()) -> float:
    """CPU seconds used so far by this process's other threads and ``child_pids``.

    The calling thread is left out, so a difference of two readings taken
    around some work of the caller's shows what the rest of the program did
    meanwhile.
    """
    own = threading.get_native_id()
    total = 0
    for task in os.listdir("/proc/self/task"):
        if int(task) != own:
            total += _ticks(f"/proc/self/task/{task}/stat")
    for pid in child_pids:
        total += _ticks(f"/proc/{pid}/stat")
    return total / os.sysconf("SC_CLK_TCK")


def format_metrics(metrics: Dict[str, dict]) -> List[str]:
    """``name value unit`` lines for the human-readable summary."""
    width = max((len(name) for name in metrics), default=0)
    return [
        f"  {name:<{width}}  {entry['value']:.6g} {entry['unit']}"
        for name, entry in metrics.items()
    ]
