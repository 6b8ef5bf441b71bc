"""Shared pieces of the three workloads: the run record (operations,
checks, notes), timing helpers, the host reference computation and CLI
cold starts."""

from __future__ import annotations

import contextlib
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


class Run:
    """What one benchmark run attempted, what failed and what it checked."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, toy: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.toy = toy
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.notes: dict[str, float] = {}
        self.host_ms: list[float] = []
        self.import_s = 0.0
        os.makedirs(OUT, exist_ok=True)

    def out_path(self, name: str) -> str:
        return os.path.join(OUT, f"{self.workload}-{self.seed}-{os.getpid()}-{name}")

    def remove_scratch(self):
        """Delete the files this run made under ``OUT``."""
        prefix = os.path.basename(self.out_path(""))
        for name in os.listdir(OUT):
            if name.startswith(prefix):
                os.remove(os.path.join(OUT, name))

    def op(self, fn, *args, times: list | None = None, **kwargs):
        """Run one operation; count it, and count it failed if it raises.
        Appends its wall time to ``times`` when given. Returns (ok, result)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            return True, fn(*args, **kwargs)
        except Exception:  # an operation of the program under test failed
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None
        finally:
            if times is not None:
                times.append(time.perf_counter() - t0)

    def check(self, name: str, ok: bool, detail: str = ""):
        ok = bool(ok)
        self.checks.append((name, ok, detail))
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)

    def host_reference(self, repeats: int = 3):
        self.host_ms.extend(host_reference_ms() for _ in range(repeats))


def median(values) -> float:
    return float(statistics.median(values))


def upper_quartile(values) -> float:
    """75th percentile (linear interpolation) of unit times.

    On a shared 2-vCPU host the CPU alternates between two speeds about
    1.45x apart, in episodes of seconds. The median of a run's units flips
    between the two levels with the share of fast time in the window; the
    upper quartile stays at the common, slower level. Across 20-second
    windows of ``host_reference_ms`` its spread (IQR/median) was 5%
    against 7.5% for the median.
    """
    return float(np.percentile(np.asarray(values, dtype=np.float64), 75))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_reference_ms() -> float:
    """Fixed numpy-plus-Python work that calls no ``leapts`` code, so a slow
    run can be told apart as the machine's or the program's."""
    rng = np.random.default_rng(12345)
    a = rng.normal(size=(48, 48))
    t0 = time.perf_counter()
    acc = 0.0
    x = a
    for i in range(150):
        x = np.tanh(x @ a * 0.05)
        acc += float(x[i % 48, (7 * i) % 48])
    total = 0
    for i in range(40000):
        total += (i * i) % 7
    out = (time.perf_counter() - t0) * 1e3
    if not np.isfinite(acc) or total != 79997:
        raise RuntimeError("host reference computation gave a wrong result")
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cli_launch(args: list[str], timeout: float = 60.0) -> tuple[float, int, str]:
    """Cold start of ``python -m leapts <args>``: (wall seconds, exit code, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "leapts", *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - t0, proc.returncode, proc.stdout


def parse_intervals(text: str) -> list[tuple[int, int]]:
    """'[1,24] [25,48]' or 'degenerate: [1,24]' -> [(1, 24), (25, 48)]."""
    out = []
    for tok in text.replace("degenerate:", "").split():
        lo, hi = tok.strip("[]").split(",")
        out.append((int(lo), int(hi)))
    return out


def covers_horizon(intervals, P: int) -> bool:
    """Intervals start at 1, follow each other without gap or overlap, end at P."""
    cursor = 1
    for lo, hi in intervals:
        if lo != cursor or hi < lo:
            return False
        cursor = hi + 1
    return cursor == P + 1


class CliStarts:
    """Cold starts of ``leapts anchors`` spread over a measurement window:
    ``tick()`` launches one when the next is due, ``finish()`` launches the
    rest. Each launch must exit 0 and print intervals tiling 1..P."""

    def __init__(self, run: Run, cases, seconds: float):
        self.run = run
        self.cases = list(cases)
        self.every = seconds / max(len(self.cases), 1)
        self.t0 = time.perf_counter()
        self.times: list[float] = []
        self.bad = 0

    def _launch(self):
        L, P = self.cases[len(self.times)]
        self.run.attempted += 1
        wall, code, stdout = cli_launch(["anchors", "--L", str(L), "--P", str(P)])
        try:
            ok = code == 0 and covers_horizon(parse_intervals(stdout), P)
        except ValueError:
            ok = False
        if code != 0:
            self.run.failed += 1
        if not ok:
            self.bad += 1
            print(f"cli anchors L={L} P={P}: exit {code}, output {stdout.strip()!r}", file=sys.stderr)
        self.times.append(wall)

    def tick(self):
        if len(self.times) < len(self.cases) and time.perf_counter() - self.t0 >= self.every * len(self.times):
            self._launch()

    def finish(self) -> float:
        while len(self.times) < len(self.cases):
            self._launch()
        self.run.check(f"cli: {len(self.cases)} launches exit 0 and tile 1..P", self.bad == 0)
        return upper_quartile(self.times)


def cli_import_s(repeats: int) -> float:
    """Median time of ``import leapts`` in a fresh interpreter (numpy included)."""
    code = "import time; t=time.perf_counter(); import leapts; print(time.perf_counter()-t)"
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import leapts failed: {proc.stderr}")
        times.append(float(proc.stdout.strip()))
    return median(times)


def timed_setups(run: Run, n: int, setup):
    """Run ``setup()`` ``n`` times; returns (last result, setup_s) where
    setup_s is the in-process ``import leapts`` time plus the upper
    quartile of the set-up times."""
    times, result = [], None
    for _ in range(n):
        result = None  # let the previous set-up's arrays go first
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return result, run.import_s + upper_quartile(times)


def phase(tracer, name: str):
    """A span named ``name`` in a traced run, nothing otherwise."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def rounds_rate(rounds, items: float) -> float:
    """``items`` per second over rounds of identical calls.

    ``rounds`` is a list of rounds, each a list of the seconds every call
    took, the same calls in the same order every round. Calls differ in
    cost, so each position is summarised on its own, by the upper quartile
    of its times over the rounds; the rate is the items of one round over
    the sum of those times.
    """
    full = [r for r in rounds if len(r) == len(rounds[0])]
    return items / sum(upper_quartile([r[i] for r in full]) for i in range(len(full[0])))
