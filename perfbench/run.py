"""Closed-loop benchmark of the pattern-forge command line.

One client, one CLI child process at a time, no threads: the next child
is spawned only after the previous one has exited.  Each workload is one
CLI invocation over a fixed, declared region (see README.md for why each
exists).  A run repeats it for --seconds, spawning ``--version`` children
alongside to time start-up, and checks every output with code of its
own, not the package's.

    python3 perfbench/run.py --workload fs-delta --seed 1 --seconds 40 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

The harness pins itself, and so every child, to one core.  With --trace 0
the reference kernel (reference.py) loops on that core while the children
run, and each child's CPU time is reported in seconds at the reference
speed; that cancels most of the drift in the speed of a shared host.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
CLI children with in-process traced ones (tracing.py) and reports the
per-layer metrics.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is the
machine and input record.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"
TRACER = Path(__file__).resolve().parent / "tracing.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["per_layer"]}

#: a run of one workload must end within this many seconds of its start
RUN_LIMIT_S = 170.0
#: fewest workload children per run, whatever --seconds allows
MIN_SAMPLES = 2
#: --version children per set-up batch
SETUP_BATCH = 6
#: fewest set-up batches per run; setup_s is the median over batches
MIN_SETUP_BATCHES = 5
#: the reference kernel runs this long before the first measurement
REFERENCE_WARMUP_S = 0.5
#: percentiles considered for the tail figure, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


class CheckFailed(Exception):
    """A child's exit code or output broke a workload invariant."""


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# output checks, independent of the package


def _adequate(rows: list, m: int) -> bool:
    """Every nonempty row-subset sum mod m has one nonzero-entry sequence."""
    signatures = set()
    for mask in range(1, 1 << len(rows)):
        acc = [0] * len(rows[0])
        for i, row in enumerate(rows):
            if mask >> i & 1:
                acc = [(a + b) % m for a, b in zip(acc, row)]
        signatures.add(tuple(e for e in acc if e))
    return len(signatures) == 1


def check_search(doc: dict, n: int, m: int, l: int) -> int:
    """A found n x l pattern mod m that is adequate; returns the number
    of lengths the search certified (l - 1 exhausted, one found)."""
    _expect(doc.get("status") == "found", f"status {doc.get('status')!r}")
    pat = doc.get("pattern") or {}
    _expect((pat.get("n"), pat.get("m"), pat.get("l")) == (n, m, l),
            f"pattern shape {pat.get('n')}x{pat.get('l')} mod {pat.get('m')}")
    rows = pat.get("rows")
    _expect(isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == l for r in rows),
            "pattern rows have the wrong shape")
    _expect(all(type(e) is int and 0 <= e < m for r in rows for e in r),
            "pattern entries outside Z/m")
    _expect(all(any(r) for r in rows) and len({tuple(r) for r in rows}) == n,
            "pattern rows are zero or repeated")
    _expect(_adequate(rows, m), "pattern is not adequate")
    return l


def check_certificate(doc: dict, claim: str, enumerated: int) -> int:
    """A "verified" certificate for the claim covering the whole region."""
    _expect(doc.get("claim") == claim, f"claim {doc.get('claim')!r}")
    _expect(doc.get("status") == "verified", f"status {doc.get('status')!r}")
    _expect(doc.get("enumerated") == enumerated,
            f"enumerated {doc.get('enumerated')!r}, expected {enumerated}")
    return enumerated


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    variants: tuple  # equal-size argv choices; the seed picks one
    check: Callable[[dict], int]  # region covered, or CheckFailed
    covered_unit: str


WORKLOADS = {w.name: w for w in (
    Workload("search-n3-m3",
             (("search", "--n", "3", "--m", "3", "--l-max", "19"),),
             lambda doc: check_search(doc, 3, 3, 19), "lengths"),
    Workload("fs-sum-squares",
             (("verify", "--claim", "thm3.2", "--dim", "3", "--bound", "2",
               "--n", "3"),),
             lambda doc: check_certificate(doc, "thm3.2", math.comb(125, 3)),
             "combinations"),
    Workload("fs-delta",
             (("verify", "--claim", "thm4.1", "--kappa", "4",
               "--max-set", "3"),),
             lambda doc: check_certificate(doc, "thm4.1", math.comb(697, 2)),
             "pairs"),
    Workload("span-valuation",
             tuple(("verify", "--claim", "thm5.6", "--a", str(a), "--dim", "3",
                    "--bound", "25") for a in (2, 3, 5)),
             lambda doc: check_certificate(doc, "thm5.6", 51 ** 3 - 1),
             "points"),
)}


# ---------------------------------------------------------------------------
# children


@dataclass
class Child:
    exit: int
    start: float  # time.monotonic() at spawn
    end: float  # time.monotonic() once reaped
    cpu_s: float  # user + system, from wait4 on this child alone
    rss_mib: float
    stdout: bytes
    stderr: bytes

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def child_env() -> dict:
    """The caller's environment with src/ on the path and bytecode cached
    under .work/, so that start-up is timed as an installed package would
    start.  PYTHONHASHSEED is removed so that every child draws its own
    random hash seed."""
    drop = ("PYTHONHASHSEED", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def spawn(args: list, deadline: float) -> Child:
    """Run ``python args`` to completion and account for that child alone:
    wall time from spawn to reaped exit, and its own CPU time and peak RSS
    from wait4.  (RUSAGE_CHILDREN would be a running maximum over every
    child.)  The child is killed if it is still running at the deadline,
    or if the harness is interrupted while it runs."""
    argv = [sys.executable, *args]
    env = child_env()
    with tempfile.TemporaryFile(dir=WORK) as out, \
            tempfile.TemporaryFile(dir=WORK) as err:
        actions = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        try:
            pidfd = os.pidfd_open(pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                if not poller.poll(max(0.0, deadline - start) * 1000):
                    os.kill(pid, signal.SIGKILL)
            finally:
                os.close(pidfd)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        _, status, usage = os.wait4(pid, 0)
        end = time.monotonic()
        out.seek(0)
        err.seek(0)
        return Child(os.waitstatus_to_exitcode(status), start, end,
                     usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, out.read(), err.read())


class Yardstick:
    """The reference kernel (reference.py) looping in its own process on
    the harness's core while children run, and the conversion of a CPU
    time measured over a window into normalised seconds."""

    def __init__(self):
        self.log = WORK / f"reference-{os.getpid()}.log"
        self.proc = None
        self.times: list = []  # monotonic time of each logged round
        self.rows: list = []  # (monotonic, process_time, rounds)
        self._offset = 0
        self._partial = b""

    def __enter__(self) -> "Yardstick":
        self.log.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(REFERENCE), str(self.log)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        try:
            self._row_after(time.monotonic() + REFERENCE_WARMUP_S)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.proc.kill()
        self.proc.wait()
        self.log.unlink(missing_ok=True)

    def _read(self) -> None:
        try:
            with open(self.log, "rb") as fh:
                fh.seek(self._offset)
                data = fh.read()
        except FileNotFoundError:
            return
        self._offset += len(data)
        *lines, self._partial = (self._partial + data).split(b"\n")
        for line in lines:
            row = tuple(float(x) for x in line.split())
            self.times.append(row[0])
            self.rows.append(row)

    def _row_after(self, t: float) -> tuple:
        """The first round logged at or after t, waiting for it."""
        give_up = time.monotonic() + 10.0
        while not self.times or self.times[-1] < t:
            if self.proc.poll() is not None or time.monotonic() > give_up:
                raise RuntimeError("the reference kernel stopped logging "
                                   f"(exit code {self.proc.poll()})")
            time.sleep(0.005)
            self._read()
        return self.rows[bisect.bisect_left(self.times, t)]

    def round_s(self, t0: float, t1: float) -> float:
        """CPU seconds per reference round over a window covering
        [t0, t1]."""
        last = self._row_after(t1)
        first = self.rows[max(0, bisect.bisect_right(self.times, t0) - 1)]
        return (last[1] - first[1]) / (last[2] - first[2])

    def normalise(self, cpu_s: float, t0: float, t1: float) -> float:
        """cpu_s, spent between t0 and t1 on the reference kernel's core,
        in seconds at the reference speed."""
        return cpu_s * reference.ROUND_S / self.round_s(t0, t1)


def pin_to_one_core() -> int:
    """Pin the harness, and so every child it spawns, to one core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def cli_args(argv) -> list:
    return ["-m", "pattern_forge.cli", *argv]


def judge(workload: Workload, child: Child, exit_code: int,
          stdout: bytes) -> int:
    """Region covered by one child, or CheckFailed."""
    _expect(exit_code == 0, f"exit code {exit_code}: "
            + child.stderr.decode(errors="replace").strip()[-300:])
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not one JSON document: {exc}") from None
    _expect(isinstance(doc, dict), "stdout is not a JSON object")
    return workload.check(doc)


def check_same_stdout(source: str, argv, stdout: bytes) -> None:
    """Every run of one source tree must print the same bytes for one argv:
    the first run records a digest under .work/, later ones compare."""
    key = hashlib.sha256(json.dumps([source, list(argv)]).encode()).hexdigest()
    path = WORK / f"stdout-{key[:32]}.sha256"
    digest = hashlib.sha256(stdout).hexdigest()
    if not path.exists():
        path.write_text(digest + "\n")
        return
    _expect(path.read_text().strip() == digest,
            "stdout differs from an earlier run of this source tree")


# ---------------------------------------------------------------------------
# statistics and the record


def tail(samples: list):
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    ordered = sorted(samples)
    for pct in TAIL_PERCENTILES:
        beyond = len(ordered) - math.ceil(len(ordered) * pct / 100.0)
        if beyond >= 10:
            return pct, ordered[len(ordered) - beyond - 1]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(seed: int, digest: str) -> dict:
    return {"commit": commit(), "source_sha256": digest,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu_model(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "seed": seed,
            "loop": "closed, 1 client, 1 child at a time"}


# ---------------------------------------------------------------------------
# one workload


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def run(self, fn) -> None:
        """Call fn; count it, and count a CheckFailed as a failure."""
        self.attempted += 1
        try:
            fn()
        except CheckFailed as exc:
            self.failed += 1
            print(f"check failed: {exc}", file=sys.stderr)


def measure(workload: Workload, argv: tuple, rng: random.Random,
            seconds: float, deadline: float, source: str,
            stick: Yardstick) -> tuple:
    """End-to-end run: workload children and batches of --version
    children in a seeded order until the time is spent, each timed
    against the reference kernel.  Returns (tally, metrics, info)."""
    tally = Tally()
    norm, walls, cpus, rss, covered = [], [], [], [], []
    setups, setup_walls, round_s = [], [], []

    def workload_child():
        child = spawn(cli_args(argv), deadline)
        region = judge(workload, child, child.exit, child.stdout)
        check_same_stdout(source, argv, child.stdout)
        norm.append(stick.normalise(child.cpu_s, child.start, child.end))
        round_s.append(stick.round_s(child.start, child.end))
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.rss_mib)
        covered.append(region)

    def setup_batch():
        start, cpu = time.monotonic(), 0.0
        for _ in range(SETUP_BATCH):
            child = spawn(cli_args(["--version"]), deadline)
            _expect(child.exit == 0 and child.stdout.strip(),
                    f"--version exit code {child.exit}")
            cpu += child.cpu_s
            setup_walls.append(child.wall_s)
        setups.append(stick.normalise(cpu / SETUP_BATCH, start,
                                      time.monotonic()))

    spawn(cli_args(["--version"]), deadline)  # warm-up: bytecode, file cache
    start = time.monotonic()
    while time.monotonic() < deadline:
        steps = [workload_child, setup_batch]
        rng.shuffle(steps)
        for step in steps:
            tally.run(step)
        if tally.failed:
            break
        elapsed = time.monotonic() - start
        if len(norm) >= MIN_SAMPLES and elapsed * (1 + 1 / len(norm)) > seconds:
            break
    while (len(setups) < MIN_SETUP_BATCHES and not tally.failed
           and time.monotonic() < deadline):
        tally.run(setup_batch)

    metrics = {}
    info = {"samples": len(norm), "setup_samples": len(setup_walls),
            "setup_batches": len(setups)}
    if norm and setups and not tally.failed:
        cost = statistics.median(norm)
        metrics = {
            "norm_cpu_s": (cost, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (statistics.median(rss), "MiB"),
            "covered_per_s": (covered[0] / cost, "1/s"),
        }
        info.update({"norm_cpu_s_all": norm, "norm_cpu_s_tail": tail(norm),
                     "cpu_s_all": cpus, "wall_s_all": walls,
                     "reference_round_s_all": round_s,
                     "setup_s_all": setups, "setup_wall_s_all": setup_walls,
                     "peak_rss_mib_all": rss, "covered": covered[0],
                     "covered_unit": workload.covered_unit})
    return tally, metrics, info


def measure_traced(workload: Workload, argv: tuple, rng: random.Random,
                   seconds: float, deadline: float,
                   source: str) -> tuple:
    """Per-layer run: pairs of one untraced CLI child and one traced child,
    in a seeded order, until the time is spent.  Returns (tally, metrics,
    info)."""
    tally = Tally()
    untraced, traced, layers = [], [], []
    spans_file = WORK / f"spans-{workload.name}.json"

    def untraced_child():
        child = spawn(cli_args(argv), deadline)
        judge(workload, child, child.exit, child.stdout)
        check_same_stdout(source, argv, child.stdout)
        untraced.append(child.wall_s)

    def traced_child():
        child = spawn([str(TRACER), "--spans", str(spans_file), "--", *argv],
                      deadline)
        _expect(child.exit == 0, f"tracer exit code {child.exit}: "
                + child.stderr.decode(errors="replace").strip()[-300:])
        try:
            summary = json.loads(child.stdout.decode().splitlines()[-1])
            stdout = summary["stdout"].encode()
        except (ValueError, IndexError, KeyError) as exc:
            raise CheckFailed(f"tracer printed no summary: {exc}") from None
        judge(workload, child, summary["exit"], stdout)
        check_same_stdout(source, argv, stdout)
        traced.append(child.wall_s)
        layers.append(summary["metrics"])

    spawn(cli_args(["--version"]), deadline)  # warm-up: bytecode, file cache
    start = time.monotonic()
    while time.monotonic() < deadline:
        steps = [untraced_child, traced_child]
        rng.shuffle(steps)
        for step in steps:
            tally.run(step)
        if tally.failed:
            break
        elapsed = time.monotonic() - start
        if elapsed + untraced[-1] + traced[-1] > seconds:
            break

    metrics, info = {}, {"samples": len(traced), "spans_file": spans_file.name}
    if traced and untraced and not tally.failed:
        for name in layers[0]:
            unit = PER_LAYER_UNITS[name]
            median = (statistics.median_low if unit == "count"
                      else statistics.median)
            metrics[name] = (median([row[name] for row in layers]), unit)
        metrics["trace.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(untraced), "ratio")
        layer_self = {layer: metrics[f"{layer}.self_s"][0]
                      for layer in tracing.LAYERS}
        info.update({"untraced_wall_s_all": untraced,
                     "traced_wall_s_all": traced,
                     "dominant_layer": max(layer_self, key=layer_self.get)})
    return tally, metrics, info


# ---------------------------------------------------------------------------
# entry point


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="closed-loop benchmark of the pattern-forge CLI")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    begin = time.monotonic()
    if not (SRC / "pattern_forge" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC}/pattern_forge/cli.py "
              "is missing", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # SIGTERM unwinds like an exception, so children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    rng = random.Random(args.seed)
    digest = source_digest()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    rng.shuffle(names)
    deadline = begin + RUN_LIMIT_S * len(names)

    record = machine_record(args.seed, digest)
    core = pin_to_one_core()
    record["trace"] = args.trace
    record["seconds"] = args.seconds
    record["core"] = core
    record["reference_round_s"] = reference.ROUND_S
    record["workloads"] = {}
    attempted = failed = 0
    combined = {}
    complete = True
    with (contextlib.nullcontext() if args.trace else Yardstick()) as stick:
        for name in names:
            complete &= run_workload(name, args, rng, deadline, digest, stick,
                                     record, combined, single=len(names) == 1)
            attempted += record["workloads"][name]["attempted"]
            failed += record["workloads"][name]["failed"]

    correct = complete and failed == 0
    print(json.dumps({"record": record}))
    print(result_line(correct, max(1, attempted), failed, combined))
    return 0 if correct else 1


def run_workload(name: str, args, rng: random.Random, deadline: float,
                 digest: str, stick, record: dict, combined: dict,
                 single: bool) -> bool:
    """Measure one workload, print its lines and add its metrics to the
    record and to combined; False if it produced no metrics."""
    workload = WORKLOADS[name]
    argv = rng.choice(workload.variants)
    if args.trace:
        tally, metrics, info = measure_traced(
            workload, argv, rng, args.seconds, deadline, digest)
    else:
        tally, metrics, info = measure(
            workload, argv, rng, args.seconds, deadline, digest, stick)
    info.update({"argv": ["python", "-m", "pattern_forge.cli", *argv],
                 "attempted": tally.attempted, "failed": tally.failed,
                 "fail_ratio": tally.failed / max(1, tally.attempted)})
    record["workloads"][name] = info
    for metric, (value, unit) in metrics.items():
        print(f"{name:16} {metric:32} {value:14.6f} {unit}")
    for raw in ("wall_s", "cpu_s"):  # shared the core with the reference
        if info.get(f"{raw}_all"):
            print(f"{name:16} {raw:32} "
                  f"{statistics.median(info[f'{raw}_all']):14.6f} s "
                  "(raw, not normalised; not gated)")
    print(f"{name:16} {'fail_ratio':32} {info['fail_ratio']:14.6f} "
          f"ratio ({tally.failed}/{tally.attempted})")
    print(f"{name:16} {'samples':32} {info['samples']:14d} "
          "(highest percentile with 10 beyond: "
          f"{info.get('norm_cpu_s_tail')})")
    combined.update(metrics if single
                    else {f"{name}.{k}": v for k, v in metrics.items()})
    return bool(metrics)


if __name__ == "__main__":
    sys.exit(main())
