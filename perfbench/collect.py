"""Repeat run.py over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 \
        --out perfbench/baseline/e2e-seeds-1-10.json

Runs are sequential, one run.py at a time.  For every workload and metric
the summary gives the median, the quartiles (statistics.quantiles, n=4)
and the spread, the distance between the quartiles as a share of the
median.  Seeds are given as a range "a-b" or a comma list; --seconds
defaults to run_seconds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list, unit: str) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="benchmark",
                        help="comma list of workload names; all for every "
                             "workload in run.py; benchmark (the default) "
                             "for those in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    names = {"all": list(WORKLOADS),
             "benchmark": [w["name"] for w in BENCHMARK["workloads"]]
             }.get(args.workloads) or args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
               "record": None, "workloads": {}}
    ok = True
    for name in names:
        values: dict = {}
        units: dict = {}
        attempted = failed = 0
        dominant = []
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=200)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: exit {done.returncode}\n"
                      f"{done.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
            if summary["record"] is None:
                summary["record"] = {k: v for k, v in record.items()
                                     if k not in ("seed", "workloads")}
            dominant.append(record["workloads"][name].get("dominant_layer"))
            attempted += result["attempted"]
            failed += result["failed"]
            ok = ok and result["correct"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in ("norm_cpu_s", "setup_s", "peak_rss_mib", "covered_per_s",
                         "trace.overhead_ratio")), flush=True)
        stats = {m: summarise(v, units[m]) for m, v in values.items()
                 if len(v) >= 2}
        summary["workloads"][name] = {
            "argv_variants": [list(v) for v in WORKLOADS[name].variants],
            "attempted": attempted, "failed": failed,
            "fail_ratio": failed / attempted if attempted else None,
            "metrics": stats}
        if args.trace:
            summary["workloads"][name]["dominant_layer"] = dominant
        for metric, s in stats.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:16} {metric:32} median {s['median']:.6g} "
                  f"spread {spread}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
