#!/usr/bin/env python3
"""Sweep the adequate-pattern search over a small (n, m) grid and print
the frontier: minimal witness length found, or the exhausted bound, with
the nodes and the CPU seconds (time.process_time) of each search, which
other processes on the machine do not inflate as they do wall time.
Modulus 0 searches integer entries within --entry-bound, which only
that modulus reads.  With --json each (n, m) is one line of JSON
instead: its region, status, nodes, witness length `l` (null unless
found) and cpu_s.

Example:
    python scripts/pattern_frontier.py --n-max 4 --moduli 2,3,4,5 --l-max 9
    python scripts/pattern_frontier.py --moduli 0,3 --entry-bound 1
    python scripts/pattern_frontier.py --n-max 3 --moduli 5,7 --json
"""

import argparse
import sys
import time

from pattern_forge.patterns import SearchConfig, search
from pattern_forge.tokens import SizeLimitError, canonical_json


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=3)
    parser.add_argument("--moduli", default="2,3,5")
    parser.add_argument("--l-max", type=int, default=8)
    parser.add_argument("--entry-bound", type=int, default=None)
    parser.add_argument("--node-cap", type=int, default=None)
    parser.add_argument("--json", action="store_true",
                        help="one JSON line per (n, m) instead of a table")
    args = parser.parse_args()

    try:
        moduli = [int(s) for s in args.moduli.split(",")]
    except ValueError:
        parser.error(f"--moduli must be a comma list of ints, "
                     f"not {args.moduli!r}")
    if any(m == 1 or m < 0 for m in moduli):
        parser.error("every modulus must be >= 2, or 0 for integer entries")
    if args.n_max < 1:
        parser.error("--n-max must be >= 1")
    if args.l_max < 1:
        parser.error("--l-max must be >= 1")
    if args.node_cap is not None and args.node_cap < 0:
        parser.error("--node-cap must be >= 0")
    if 0 in moduli:
        if args.entry_bound is None or args.entry_bound < 1:
            parser.error("modulus 0 needs --entry-bound >= 1")
    elif args.entry_bound is not None:
        parser.error("--entry-bound is read only with modulus 0")

    if not args.json:
        print(f"{'n':>3} {'m':>3} {'result':>12} {'nodes':>10} {'cpu_s':>8}")
    for n in range(1, args.n_max + 1):
        for m in moduli:
            t0 = time.process_time()
            try:
                out = search(SearchConfig(
                    n=n, m=m, l_max=args.l_max, node_cap=args.node_cap,
                    entry_bound=args.entry_bound if m == 0 else None))
            except SizeLimitError as exc:
                parser.error(f"n = {n}, m = {m}: {exc}")
            cpu = time.process_time() - t0
            if args.json:
                print(canonical_json({
                    **out.region, "status": out.status, "nodes": out.nodes,
                    "l": out.pattern.l if out.pattern else None,
                    "cpu_s": round(cpu, 4)}), flush=True)
                continue
            if out.status == "found":
                result = f"l={out.pattern.l}"
            elif out.status == "exhausted":
                result = f"none<={args.l_max}"
            else:
                result = "cap hit"
            print(f"{n:>3} {m:>3} {result:>12} {out.nodes:>10} {cpu:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
