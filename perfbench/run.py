"""fusionsim benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload fusion-v95 [--seed 1] [--seconds 50] [--trace 0]

Each iteration runs the workload in a fresh child interpreter with the
checkout's `src` on PYTHONPATH: a closed loop with one client and one
iteration at a time, single-threaded.  A run holds at least one
iteration; the next one starts only while it is expected to end less than
half an iteration past `--seconds`, so a run lasts about `--seconds`
however fast the machine is.  Every iteration's outputs go to a fresh
directory under `.perfbench_tmp/`, are checked against references
recorded from a known-good commit (see workloads.py), and are removed.  A
child that exits non-zero or fails its check counts as failed and is not
retried.

The benchmark and its children share one CPU.  Every half second an
untraced child is stopped while `speed_gauge`, a fixed loop, is timed.
The end-to-end times are the children's CPU times scaled by
GAUGE_REFERENCE_S over the run's median gauge time, so they read as
seconds on a machine running at the reference speed; README.md says why.

`--trace 0` reports the end-to-end metrics; `--trace 1` runs one untraced
and two traced iterations (see tracer.py) and reports the per-layer
metrics.  Metric names and units come from BENCHMARK.json.  A human-readable report and
the environment come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import platform
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

# This script's directory leads sys.path, so its siblings import directly.
import workloads
from tracer import COUNT_METRICS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: A run must end within 180 s; children still running past this are killed.
DEADLINE_S = 170.0
#: Fewest timed interpreter starts behind setup_s.  A few precede every
#: iteration, so the samples span the run like the iterations do.
SETUP_STARTS = 9
SETUP_PER_ITERATION = 3
#: Traced iterations in a --trace 1 run; their counts must agree exactly.
TRACED_RUNS = 2
#: A running child is stopped this often while `speed_gauge` runs.
GAUGE_EVERY_S = 0.5
#: About the median `speed_gauge` time, taken while a child runs, on the
#: machine README.md describes.  Times are reported scaled by this over
#: the run's median gauge time.
GAUGE_REFERENCE_S = 0.012
PR_SET_PDEATHSIG = 1
#: The children run single-threaded, BLAS pools included.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: What the `fusionsim` console script runs.
CLI_SHIM = "import sys; from fusionsim.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_SHIM = "import fusionsim.cli"
PROBE_SHIM = (
    "import json, sys, numpy, fusionsim.cli; print(json.dumps({"
    "'fusionsim': fusionsim.cli.__file__, 'numpy': numpy.__version__, "
    "'python': sys.version.split()[0]}))"
)


_GAUGE_SITES = 20_000
_GAUGE_KEYS = 300_000
_gauge_rng = random.Random(0)
_GAUGE_PAIRS = [
    (_gauge_rng.randrange(_GAUGE_SITES), _gauge_rng.randrange(_GAUGE_SITES)) for _ in range(3_000)
]
#: A dict far larger than the caches, keyed like fusionsim's Fock terms.
_GAUGE_TABLE = {(i, "H", i & 7): i for i in range(_GAUGE_KEYS)}
_GAUGE_LOOKUPS = [(k, "H", k & 7) for k in (_gauge_rng.randrange(_GAUGE_KEYS) for _ in range(8_000))]


def speed_gauge() -> float:
    """Seconds a fixed interpreter-bound loop takes: integer arithmetic,
    a union-find sweep over lists and lookups scattered over a large dict,
    the kinds of work the workloads do.  Its time follows the machine's
    speed, including the memory stalls a busy neighbour causes."""
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    parent = list(range(_GAUGE_SITES))
    size = [1] * _GAUGE_SITES
    for a, b in _GAUGE_PAIRS:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
    table = _GAUGE_TABLE
    for key in _GAUGE_LOOKUPS:
        total += table[key]
    return time.perf_counter() - start


def _die_with_parent() -> None:
    """In the child before exec: SIGKILL it if the benchmark dies, so a
    child stopped for the gauge never outlives the run."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    max_abs_err: float = math.inf
    layers: dict = field(default_factory=dict)


class Runner:
    """Starts children one at a time and keeps the attempt counts."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.env = {
            **os.environ,
            **SINGLE_THREAD_ENV,
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": str(seed % 2**32),
        }
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.setup: list[Sample] = []
        self.gauges: list[float] = []
        self.last_check = "no iteration checked"

    def spawn(
        self, cmd: list[str], log_path: Path, gauge: bool = True
    ) -> tuple[float, float, float, int]:
        """Run one child to completion: wall s, cpu s, peak RSS MB, exit code.

        With ``gauge``, every GAUGE_EVERY_S the child is stopped while
        `speed_gauge` runs; its wall time leaves those pauses out.  The
        child is killed at the run deadline."""
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            paused = 0.0
            proc = subprocess.Popen(
                cmd, cwd=ROOT, env=self.env, stdout=log, stderr=log, preexec_fn=_die_with_parent
            )
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    exited = select.poll()
                    exited.register(pidfd, select.POLLIN)
                    while not exited.poll(GAUGE_EVERY_S * 1000):
                        if time.monotonic() >= self.deadline:
                            proc.kill()
                            break
                        if gauge:
                            paused += self.gauge_paused(proc.pid)
                finally:
                    os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start - paused
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def gauge_paused(self, pid: int) -> float:
        """Run `speed_gauge` while the child is stopped; the pause in s.

        WNOWAIT leaves a child that exited meanwhile for spawn to reap."""
        start = time.perf_counter()
        os.kill(pid, signal.SIGSTOP)
        state = os.waitid(os.P_PID, pid, os.WSTOPPED | os.WEXITED | os.WNOWAIT)
        if state.si_code == os.CLD_STOPPED:
            self.gauges.append(speed_gauge())
        os.kill(pid, signal.SIGCONT)
        return time.perf_counter() - start

    def speed_scale(self) -> float:
        """Factor that scales this run's times to the reference speed."""
        return GAUGE_REFERENCE_S / statistics.median(self.gauges or [speed_gauge()])

    def probe(self) -> dict:
        """Untimed first start: compiles bytecode and reports versions."""
        done = subprocess.run(
            [sys.executable, "-c", PROBE_SHIM],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"cannot import fusionsim from {SRC}:\n{done.stderr}")
        info = json.loads(done.stdout.splitlines()[-1])
        if not Path(info["fusionsim"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported {info['fusionsim']}, not the checkout's")
        return info

    def time_setup(self) -> None:
        """One timed interpreter start that only imports fusionsim.cli."""
        with tempfile.TemporaryDirectory(dir=TMP_ROOT) as tmp:
            wall, cpu, rss, code = self.spawn([sys.executable, "-c", SETUP_SHIM], Path(tmp) / "log")
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.notes.append(f"setup start exited {code}")
        self.setup.append(Sample(wall, cpu, rss, ok=code == 0))

    def command(self, out: Path, trace: Path | None) -> list[str]:
        if trace is None:
            argv = workloads.cli_argv(self.workload, self.seed, out)
            return [sys.executable, "-c", CLI_SHIM, *argv]
        child = [sys.executable, str(BENCH_DIR / "child.py"), "--trace", str(trace)]
        return [*child, self.workload, str(self.seed), str(out)]

    def iteration(self, traced: bool) -> Sample:
        """One workload iteration in a fresh output directory, checked."""
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=TMP_ROOT))
        try:
            trace = tmp / "trace.json" if traced else None
            # A traced child times its own spans, so it is never paused.
            wall, cpu, rss, code = self.spawn(
                self.command(tmp / "out", trace), tmp / "log", gauge=not traced
            )
            self.attempted += 1
            sample = Sample(wall, cpu, rss, ok=False)
            if code != 0:
                log = (tmp / "log").read_text(errors="replace")[-2000:]
                self.notes.append(f"child exited {code}:\n{log}")
            else:
                try:
                    check = workloads.CHECKS[self.workload](self.seed, tmp / "out")
                    if traced:
                        sample.layers = json.loads(trace.read_text())
                except Exception as exc:  # noqa: BLE001 - any bad output fails the check
                    check = workloads.Check(False, math.inf, f"unreadable output: {exc!r}")
                sample.ok, sample.max_abs_err = check.ok, check.max_abs_err
                self.last_check = check.detail
                if not check.ok:
                    self.notes.append("CHECK FAILED: " + check.detail)
            if not sample.ok:
                self.failed += 1
            return sample
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    def measure(self, seconds: float, with_setup: bool) -> list[Sample]:
        """Untraced iterations for about ``seconds`` (at least one), each
        preceded by timed setup starts when ``with_setup``.  The next
        iteration starts only if, taking as long as the last, it would end
        less than half of it past ``seconds``."""
        samples: list[Sample] = []
        start = time.monotonic()
        last = 0.0
        while not samples or time.monotonic() - start + last / 2 < seconds:
            begin = time.monotonic()
            for _ in range(SETUP_PER_ITERATION if with_setup else 0):
                self.time_setup()
            samples.append(self.iteration(traced=False))
            last = time.monotonic() - begin
            if time.monotonic() >= self.deadline:
                break
        while with_setup and len(self.setup) < SETUP_STARTS:
            self.time_setup()
        return samples


# --------------------------------------------------------------------------
# Reporting
# --------------------------------------------------------------------------


def distribution(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond
    it, with the sample count."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
            break
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + f" (n={n})"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    """sha256 over the package sources, to tell commits apart without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "fusionsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def declared_units() -> dict[str, dict[str, str]]:
    """Metric name -> unit for each metric group of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        group: {m["name"]: m["unit"] for m in spec[group]}
        for group in ("end_to_end", "per_layer")
    }


def end_to_end(workload: str, runner: Runner, good: list[Sample]) -> tuple[dict, list[str]]:
    """Child CPU times scaled to the reference speed, with the raw times,
    the gauge and the scale factor as report lines."""
    wall = [s.wall_s for s in good]
    cpu = [s.cpu_s for s in good]
    setup = [s.cpu_s for s in runner.setup]
    scale = runner.speed_scale()
    cpu_s = statistics.median(cpu) * scale
    values = {
        "cpu_s": cpu_s,
        "setup_s": statistics.median(setup) * scale,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
        "elements_per_s": workloads.ELEMENTS[workload] / cpu_s,
    }
    lines = [
        f"{'raw wall_s':<40} {distribution(wall)} s",
        f"{'raw cpu_s':<40} {distribution(cpu)} s",
        f"{'raw setup wall_s':<40} {distribution([s.wall_s for s in runner.setup])} s",
        f"{'raw setup cpu_s':<40} {distribution(setup)} s",
        f"{'speed_gauge':<40} {distribution(runner.gauges)} s",
        f"{'scale (reference / median gauge)':<40} {scale:.6g}",
    ]
    return values, lines


def per_layer(traced: list[Sample], good: list[Sample]) -> tuple[dict, list[str]]:
    """Counts from the first traced run, which every other must repeat
    exactly (each difference is returned); times as medians over the
    traced runs."""
    values = dict(traced[0].layers)
    mismatches = []
    for name in values:
        if name not in COUNT_METRICS:
            values[name] = statistics.median(s.layers[name] for s in traced)
    for other in traced[1:]:
        for name in COUNT_METRICS:
            if other.layers[name] != values[name]:
                mismatches.append(f"count {name} differs: {values[name]} != {other.layers[name]}")
    values["trace.overhead"] = statistics.median(s.cpu_s for s in traced) / statistics.median(
        s.cpu_s for s in good
    )
    return values, mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description="fusionsim benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "fusionsim" / "cli.py").is_file():
        print(f"perfbench: no fusionsim sources under {SRC}", file=sys.stderr)
        return 2

    # The gauge must time the CPU the children run on, so the benchmark and
    # its children share one.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # SIGTERM unwinds like Ctrl-C, so spawn kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    load_start = os.getloadavg()
    TMP_ROOT.mkdir(exist_ok=True)
    try:
        units = declared_units()
        probe = runner.probe()
        # A traced run needs only one untraced iteration, for trace.overhead.
        plain = runner.measure(0.0 if args.trace else args.seconds, with_setup=not args.trace)
        traced = []
        while args.trace and len(traced) < TRACED_RUNS and time.monotonic() < runner.deadline:
            traced.append(runner.iteration(traced=True))
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()

    good = [s for s in plain if s.ok] or plain
    problems: list[str] = []
    lines: list[str] = []
    if args.trace:
        group = "per_layer"
        traced_ok = [s for s in traced if s.ok]
        if len(traced_ok) < TRACED_RUNS:
            problems.append(f"{len(traced_ok)} of {TRACED_RUNS} traced iterations passed")
        values, mismatches = per_layer(traced_ok, good) if traced_ok else ({}, [])
        problems += mismatches
    else:
        group = "end_to_end"
        values, lines = end_to_end(args.workload, runner, good)
    missing = [name for name in units[group] if name not in values]
    if missing:
        problems.append("no value for " + ", ".join(missing))
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units[group].items()
        if name in values
    }
    correct = runner.failed == 0 and not problems

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    print("environment " + json.dumps(environment))
    print(*runner.notes, *(f"PROBLEM: {p}" for p in problems), sep="\n")
    print(f"last check: {runner.last_check}", *lines, sep="\n")
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:.6g} {metric['unit']}")
    print(f"{'failed_share':<40} {runner.failed / runner.attempted:.6g} share")
    print(f"{'max_abs_err':<40} {max(s.max_abs_err for s in plain + traced):.6g} abs")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
