"""The command-line scripts run end to end on small regions."""

import os
import subprocess
import sys
from pathlib import Path

from pattern_forge.cli import CLAIM_FLAGS

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def test_certificate_suite_verifies_every_claim():
    # lemma3.1 and both finite-sums claims go through the shared kernel
    proc = run_script("certificate_suite.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 19
    assert all(line.startswith("ok ") for line in lines), proc.stdout
    # thm5.1-shadow alone stays out: it certifies by argument, and its
    # count is 0 on every known monochromatic set
    claims = {line.split()[1] for line in lines}
    assert claims == set(CLAIM_FLAGS) - {"thm5.1-shadow"}
    # a region with nothing to enumerate would verify vacuously
    counts = [int(line.split("enumerated=")[1].split()[0]) for line in lines]
    assert all(count > 0 for count in counts), proc.stdout


def test_pattern_frontier_small_grid():
    proc = run_script("pattern_frontier.py", "--n-max", "2", "--moduli",
                      "2,3", "--l-max", "4")
    assert proc.returncode == 0, proc.stderr
    # a header and one row per (n, m)
    assert len(proc.stdout.splitlines()) == 1 + 2 * 2
