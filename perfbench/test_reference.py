"""Tests of the reference kernel and of the normalisation run.py builds
on it.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import time

import pytest

import reference
import run


def test_a_round_does_the_declared_work():
    assert reference.one_round() == reference.EXPECTED


def _stick_with_log(rows):
    stick = run.Yardstick()
    stick.rows = list(rows)
    stick.times = [row[0] for row in rows]
    return stick


def test_round_time_comes_from_rounds_covering_the_window():
    # one round every second of wall time, 0.03 CPU seconds each
    stick = _stick_with_log([(t, 0.03 * t, t) for t in range(10)])
    assert stick.round_s(2.5, 6.5) == pytest.approx(0.03)
    # a child that used 3 CPU seconds while a round cost 0.03
    assert stick.normalise(3.0, 2.5, 6.5) == pytest.approx(
        100 * reference.ROUND_S)


def test_the_kernel_logs_while_running_and_ends_with_the_block():
    run.WORK.mkdir(exist_ok=True)
    with run.Yardstick() as stick:
        start = time.monotonic()
        time.sleep(0.2)
        assert stick.round_s(start, time.monotonic()) > 0
        proc = stick.proc
    assert proc.poll() is not None
