"""The command-line scripts run end to end on small regions."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_pattern_frontier_integer_entries():
    # modulus 0 searches integer entries within --entry-bound
    proc = run_script("pattern_frontier.py", "--n-max", "3", "--moduli",
                      "0,3", "--l-max", "4", "--entry-bound", "1")
    assert proc.returncode == 0, proc.stderr
    _, *rows = proc.stdout.splitlines()
    expected = []
    for n in (1, 2, 3):
        for m, bound in ((0, 1), (3, None)):
            out = search(SearchConfig(n=n, m=m, l_max=4, entry_bound=bound))
            result = (f"l={out.pattern.l}" if out.status == "found"
                      else "none<=4")
            expected.append([str(n), str(m), result, str(out.nodes)])
    assert [row.split()[:4] for row in rows] == expected


def test_pattern_frontier_json_lines():
    # --json prints one line of JSON per (n, m) instead of the table:
    # the region, status, nodes and witness length of the library's own
    # search of it, and its CPU seconds
    proc = run_script("pattern_frontier.py", "--n-max", "3", "--moduli",
                      "0,3", "--l-max", "4", "--entry-bound", "1", "--json")
    assert proc.returncode == 0, proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    expected = []
    for n in (1, 2, 3):
        for m, bound in ((0, 1), (3, None)):
            out = search(SearchConfig(n=n, m=m, l_max=4, entry_bound=bound))
            expected.append({**out.region, "status": out.status,
                             "nodes": out.nodes,
                             "l": out.pattern.l if out.pattern else None})
    assert [{key: value for key, value in record.items() if key != "cpu_s"}
            for record in records] == expected
    assert all(type(record["cpu_s"]) is float and record["cpu_s"] >= 0
               for record in records)


@pytest.mark.parametrize("argv,message", [
    (("--moduli", "0"), "needs --entry-bound"),
    (("--moduli", "0", "--entry-bound", "0"), "needs --entry-bound"),
    (("--moduli", "3", "--entry-bound", "1"), "only with modulus 0"),
    (("--moduli", "1"), "must be >= 2"),
    (("--moduli", "-3"), "must be >= 2"),
    (("--moduli", "2,x"), "comma list of ints"),
    (("--l-max", "0"), "--l-max must be >= 1"),
    (("--n-max", "0"), "--n-max must be >= 1"),
    (("--node-cap", "-1"), "--node-cap must be >= 0"),
    # (5, 7) has more column profile entries than a search tabulates;
    # the rows up to n = 4 are printed first
    (("--n-max", "5", "--moduli", "7", "--l-max", "1"), "n = 5, m = 7")],
    ids=["m0-no-bound", "m0-bound-0", "bound-unread", "m1", "m-negative",
         "m-not-int", "l-max-0", "n-max-0", "node-cap-negative",
         "size-limit"])
def test_pattern_frontier_refuses_bad_input(argv, message):
    # a usage error, exit 2 with argparse's message, never a traceback
    proc = run_script("pattern_frontier.py", *argv)
    assert proc.returncode == 2, (proc.stdout, proc.stderr)
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
