"""The command-line scripts run end to end on small regions."""

import os
import subprocess
import sys
from pathlib import Path

from pattern_forge.cli import CLAIM_FLAGS
from pattern_forge.patterns import SearchConfig, search

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
    proc = run_script("pattern_frontier.py", "--n-max", "3", "--moduli",
                      "2,3", "--l-max", "4")
    assert proc.returncode == 0, proc.stderr
    # a header and one row per (n, m), each with the result and nodes of
    # the library's own search of that region; the n = 3 rows find nothing
    # at l <= 4
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["n", "m", "result", "nodes", "cpu_s"]
    expected = []
    for n in (1, 2, 3):
        for m in (2, 3):
            out = search(SearchConfig(n=n, m=m, l_max=4))
            result = (f"l={out.pattern.l}" if out.status == "found"
                      else "none<=4")
            expected.append([str(n), str(m), result, str(out.nodes)])
    assert [row.split()[:4] for row in rows] == expected
