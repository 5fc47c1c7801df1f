"""The reference kernel: the benchmark's yardstick for the speed of the
core at the moment of a measurement.

On a shared host the speed of plain Python code drifts by tens of per
cent within seconds, and a time measured before or after a workload
does not track it.  So run.py pins itself, its CLI children and this
kernel to one core, and keeps the kernel looping in its own process
while each child runs.  The two share that core in scheduler slices of
a few milliseconds, so a slowdown of the core hits both alike.  The
child's CPU time divided by the kernel's CPU time per round, over the
same window, is then a cost that the drift hardly moves.

    python3 perfbench/reference.py LOG

loops until its parent exits or it is killed, and appends one line per
round to LOG: ``monotonic process_time rounds``.

A round mixes the kinds of work the workloads do: small immutable
vectors added and hashed into a set over all 3-combinations (groups,
verify), a depth-first search with list mutation (patterns), and
canonical JSON of small dicts (tokens).  The kernel imports nothing
from pattern_forge, so no change to the program moves it.  Changing
the kernel changes the unit of every normalised time, so leave it as
it is.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

#: seconds one round counts for: normalised time = CPU seconds x
#: ROUND_S / measured CPU seconds per round.  It is a fixed constant,
#: about the median round time on a 2-core "Intel(R) Xeon(R) Processor"
#: host with Python 3.11.7, so normalised seconds read close to CPU
#: seconds there.
ROUND_S = 0.022
#: the kernel's niceness: it takes about a tenth of the core, so the
#: child being measured keeps most of it
NICE = 10


class Vec:
    __slots__ = ("m", "coords")

    def __init__(self, m: int, coords: tuple):
        self.m = m
        self.coords = coords

    def __add__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        m = self.m
        return Vec(m, tuple((a + b) % m
                            for a, b in zip(self.coords, other.coords)))

    def __eq__(self, other):
        return isinstance(other, Vec) and self.coords == other.coords

    def __hash__(self):
        return hash((self.m, self.coords))


def subset_sums(points: list, n: int) -> int:
    seen = set()
    for combo in itertools.combinations(points, n):
        acc = combo[0]
        for v in combo[1:]:
            acc = acc + v
        seen.add(acc)
    return len(seen)


def balanced_words(progress: list, depth: int, limit: int) -> int:
    """Words over three letters whose letter counts never differ by more
    than two, counted by plain depth-first search."""
    if depth == limit:
        return 1
    total = 0
    for c in range(3):
        progress[c] += 1
        if max(progress) - min(progress) <= 2:
            total += balanced_words(progress, depth + 1, limit)
        progress[c] -= 1
    return total


def canonical_dumps(count: int) -> int:
    out = 0
    for i in range(count):
        out += len(json.dumps({"v": [i % 7, i % 11], "c": i & 3},
                              sort_keys=True, separators=(",", ":")))
    return out


POINTS = [Vec(5, (i % 5, i // 5 % 5, i // 25 % 5)) for i in range(26)]

#: what one round returns; anything else means the interpreter did other
#: work than the kernel describes
EXPECTED = (50, 4932, 8545)


def one_round() -> tuple:
    return (subset_sums(POINTS, 3), balanced_words([0, 0, 0], 0, 9),
            canonical_dumps(500))


def loop(log_path: str) -> int:
    parent = os.getppid()
    os.nice(NICE)
    got = one_round()
    if got != EXPECTED:
        print(f"reference round returned {got}, expected {EXPECTED}",
              file=sys.stderr)
        return 1
    rounds = 0
    with open(log_path, "w", encoding="ascii") as log:
        while os.getppid() == parent:
            one_round()
            rounds += 1
            log.write(f"{time.monotonic():.6f} {time.process_time():.6f} "
                      f"{rounds}\n")
            log.flush()
    return 0


if __name__ == "__main__":
    sys.exit(loop(sys.argv[1]))
