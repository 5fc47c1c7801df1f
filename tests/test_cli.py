import ast
import contextlib
import gc
import importlib
import io
import itertools
import json
import os
import pkgutil
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pattern_forge
from pattern_forge.cli import CLAIM_FLAGS, main, run as run_process
from pattern_forge.verify import no_seven_norms


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_usage(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    out = capsys.readouterr()
    return err.value.code, out.err


# -- search ------------------------------------------------------------------

def test_search_found_exit_zero(capsys):
    code, out, _ = run(capsys, "search", "--n", "2", "--m", "5",
                       "--l-max", "3")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "found"
    assert data["pattern"]["m"] == 5


def test_search_exhausted_exit_one(capsys):
    code, out, _ = run(capsys, "search", "--n", "3", "--m", "0",
                       "--entry-bound", "2", "--l-max", "4")
    assert code == 1
    assert json.loads(out)["status"] == "exhausted"


def test_search_inconclusive_exit_two(capsys):
    code, out, _ = run(capsys, "search", "--n", "3", "--m", "2",
                       "--l-max", "8", "--node-cap", "3")
    assert code == 2
    assert json.loads(out)["status"] == "inconclusive"


@pytest.mark.parametrize("argv,code,nodes,expected", [
    (("--n", "4", "--m", "5", "--l-max", "8"), 1, (6404, 2271),
     '{"status":"exhausted","nodes":%d,"region":{"n":4,"m":5,"l_min":1,'
     '"l_max":8}}\n'),
    (("--n", "5", "--m", "3", "--l-max", "6"), 1, (458, 384),
     '{"status":"exhausted","nodes":%d,"region":{"n":5,"m":3,"l_min":1,'
     '"l_max":6}}\n'),
    (("--n", "6", "--m", "2", "--l-max", "3"), 1, (0, 0),
     '{"status":"exhausted","nodes":%d,"region":{"n":6,"m":2,"l_min":1,'
     '"l_max":3}}\n'),
    (("--n", "2", "--m", "2", "--l-max", "2"), 1, (0, 0),
     '{"status":"exhausted","nodes":%d,"region":{"n":2,"m":2,"l_min":1,'
     '"l_max":2}}\n'),
    (("--n", "2", "--m", "2", "--l-max", "5"), 0, (6, 6),
     '{"status":"found","nodes":%d,"region":{"n":2,"m":2,"l_min":1,'
     '"l_max":5},"pattern":{"n":2,"m":2,"l":3,"rows":[[0,1,1],[1,0,1]]}}\n')],
    ids=["4-5-8", "5-3-6", "6-2-3", "2-2-2", "2-2-5"])
def test_search_past_the_size_four_bound_prints_the_same_bytes(
        capsys, monkeypatch, argv, code, nodes, expected):
    # (4, 5), (5, 3) and (6, 2) always had too many columns for the
    # size-4 counting groups, and (2, 2) is the one region where sets of
    # 2 row subsets could be kept, so these bytes hold without either
    # family.  Nodes one length per pass, then three
    from pattern_forge import patterns
    for window, count in zip((1, 3), nodes):
        monkeypatch.setattr(patterns, "_WINDOW", window)
        assert run(capsys, "search", *argv)[:2] == (code, expected % count)


def test_search_with_a_huge_l_max_answers_at_length_3(capsys, monkeypatch):
    # a region found at l = 3 answers at once however large l_max is;
    # l_max = 10^4 comes first, so a table sized by l_max fails there
    # instead of filling memory at 10^9.  The windows are made one at a
    # time, and none is walked past the length found.
    from pattern_forge import patterns
    tops = []

    class Recorded(patterns._WindowSearch):
        def __init__(self, n, m, lo, hi, columns, budget):
            super().__init__(n, m, lo, hi, columns, budget)
            tops.append(hi)

    monkeypatch.setattr(patterns, "_WindowSearch", Recorded)
    for l_max in (10 ** 4, 10 ** 9):
        # nodes one length per pass, then three
        for window, nodes in ((1, 26), (3, 22)):
            monkeypatch.setattr(patterns, "_WINDOW", window)
            tops.clear()
            code, out, _ = run(capsys, "search", "--n", "2", "--m", "3",
                               "--l-max", str(l_max))
            assert code == 0
            assert out == ('{"status":"found","nodes":%d,"region":{"n":2,'
                           '"m":3,"l_min":1,"l_max":%d},"pattern":{"n":2,'
                           '"m":3,"l":3,"rows":[[0,1,2],[1,2,0]]}}\n'
                           % (nodes, l_max))
            assert max(tops) == 3


def test_search_refuses_a_window_past_length_255(capsys, monkeypatch):
    # a progress field is one byte, so a window reaching length 256 is
    # refused before it starts, with nothing on stdout
    from pattern_forge import patterns
    monkeypatch.setattr(patterns, "_windows",
                        lambda n, m, l_max: iter([(254, 256)]))
    code, out, err = run(capsys, "search", "--n", "3", "--m", "3",
                         "--l-max", "300")
    assert (code, out) == (64, "")
    assert "255" in err


def test_search_missing_flag_is_usage_error(capsys):
    code, err = run_usage(capsys, "search", "--n", "3", "--m", "2")
    assert code == 64
    assert "--l-max" in err


def test_search_m0_requires_entry_bound(capsys):
    code, err = run_usage(capsys, "search", "--n", "3", "--m", "0",
                          "--l-max", "4")
    assert code == 64
    assert "entry-bound" in err


@pytest.mark.parametrize("argv", [
    # 3^25 - 1 columns and 2001^3 - 1 columns: building either table
    # would exhaust time and memory, so the size is computed instead
    ["--n", "25", "--m", "3", "--l-max", "1"],
    ["--n", "3", "--m", "0", "--entry-bound", "1000", "--l-max", "1"]])
def test_search_refuses_regions_too_large_to_tabulate(capsys, argv):
    code, out, err = run(capsys, "search", *argv)
    assert code == 64
    assert out == ""
    assert "column profile entries" in err


def test_search_negative_node_cap_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["search", "--n", "3", "--m", "2", "--l-max", "8",
              "--node-cap", "-1"])
    out = capsys.readouterr()
    assert err.value.code == 64
    assert out.out == ""
    assert "node_cap" in out.err


def test_search_out_file_embeds_manifest(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    code, out, _ = run(capsys, "search", "--n", "2", "--m", "3",
                       "--l-max", "3", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["result"] == json.loads(out)
    manifest = payload["manifest"]
    assert manifest["command"] == "search"
    assert manifest["version"]
    assert manifest["outputs"] == [str(out_file)]
    assert manifest["config"]["n"] == 2


def test_out_file_bytes_do_not_depend_on_threads(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    files = []
    for threads in ("1", "8"):
        code, _, _ = run(capsys, "search", "--n", "2", "--m", "3",
                         "--l-max", "3", "--threads", threads,
                         "--out", str(out_file))
        assert code == 0
        files.append(out_file.read_bytes())
    assert files[0] == files[1]
    assert "threads" not in json.loads(files[0])["manifest"]["config"]


def test_search_threads_do_not_change_output(capsys):
    argv = ["search", "--n", "3", "--m", "2", "--l-max", "8"]
    _, out1, _ = run(capsys, *argv, "--threads", "1")
    _, out8, _ = run(capsys, *argv, "--threads", "8")
    assert out1 == out8


@pytest.mark.parametrize("argv", [
    ["search", "--n", "2", "--m", "3", "--l-max", "3"],
    ["verify", "--claim", "thm3.2", "--dim", "1", "--bound", "1",
     "--n", "2"]])
def test_threads_below_one_is_usage_error(capsys, argv):
    for threads in ("0", "-2"):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--threads", threads])
        out = capsys.readouterr()
        assert err.value.code == 64
        assert out.out == ""
        assert "--threads" in out.err


def test_threads_env_is_not_read_without_threads(capsys, monkeypatch):
    # the environment holds no threads setting: a value that is not even
    # an integer changes neither the bytes nor the exit code
    argvs = [["search", "--n", "2", "--m", "3", "--l-max", "3"],
             ["verify", "--claim", "thm3.2", "--dim", "1", "--bound", "1",
              "--n", "2"],
             ["colour", "--id", "sum_squares", "--element", "[1,2]"]]
    plain = [run(capsys, *argv)[:2] for argv in argvs]
    monkeypatch.setenv("PATTERN_FORGE_THREADS", "abc")
    assert [run(capsys, *argv)[:2] for argv in argvs] == plain
    assert [code for code, _ in plain] == [0, 0, 0]
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


# -- colour ------------------------------------------------------------------

def test_colour_sum_squares(capsys):
    code, out, _ = run(capsys, "colour", "--id", "sum_squares",
                       "--element", "[1,-1,0]")
    assert code == 0
    assert out.strip() == "2"


def test_colour_valuation(capsys):
    code, out, _ = run(capsys, "colour", "--id", "valuation:a=2",
                       "--element", "[4,3,0]")
    assert code == 0
    assert out.strip() == "0"


def test_colour_delta(capsys):
    code, out, _ = run(capsys, "colour", "--id", "delta",
                       "--branches", '["000","010"]')
    assert code == 0
    assert out.strip() == '[["TOP",1],[1,"TOP"]]'


@pytest.mark.parametrize("argv", [
    ["--id", "sum_squares", "--element", "[9,2]"],
    ["--id", "delta", "--branches", '["000","010"]'],
    ["--id", "product_sigma", "--element", "[1,2]",
     "--group", json.dumps({"factors": [{"kind": "cyclic", "m": 3}] * 2})],
], ids=["element", "branches", "group"])
def test_colour_out_file_records_its_input(tmp_path, capsys, argv):
    code, plain, _ = run(capsys, "colour", *argv)
    out_file = tmp_path / "token.json"
    code_out, out, _ = run(capsys, "colour", *argv, "--out", str(out_file))
    assert code == code_out == 0
    assert out == plain
    payload = json.loads(out_file.read_text())
    assert payload["result"] == json.loads(out)
    manifest = payload["manifest"]
    assert manifest["command"] == "colour"
    assert manifest["outputs"] == [str(out_file)]
    for flag, value in zip(argv[::2], argv[1::2]):
        assert manifest["config"][flag[2:]] == value


@pytest.mark.parametrize("branches", ["[1]", "5", "null", '["01", null]',
                                      '["0a"]', '["012"]', '[" 1"]',
                                      '["01","1"]', '["０１","10"]'])
def test_colour_delta_refuses_malformed_branches(capsys, branches):
    # a branch that is not a string used to crash (exit 70); a branch is
    # read as ASCII 0s and 1s only, so fullwidth digits are refused too
    try:
        code = main(["colour", "--id", "delta", "--branches", branches])
    except SystemExit as exc:
        code = exc.code
    assert code == 64
    assert capsys.readouterr().out == ""


def test_colour_product_sigma_with_group(capsys):
    group = json.dumps({"factors": [{"kind": "prime_power", "p": 3, "k": 1},
                                    {"kind": "prime_power", "p": 5, "k": 1}]})
    code, out, _ = run(capsys, "colour", "--id", "product_sigma",
                       "--element", "[1,2]", "--group", group)
    assert code == 0
    assert out.strip() == "[[1],[2]]"


def test_colour_product_sigma_without_group_is_usage_error(capsys):
    code, err = run_usage(capsys, "colour", "--id", "product_sigma",
                          "--element", "[1,2]")
    assert code == 64


def test_colour_unknown_id(capsys):
    code, err = run_usage(capsys, "colour", "--id", "mystery",
                          "--element", "[1]")
    assert code == 64


# -- verify ------------------------------------------------------------------

def test_verify_lemma31(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "lemma3.1",
                       "--dim", "2", "--bound", "2")
    assert code == 0
    assert json.loads(out)["status"] == "verified"


def test_verify_lemma31_refuses_vacuous_boxes(capsys):
    # a box is refused exactly when the oracle would verify it without
    # examining a single triple
    for dim, bound in itertools.product((0, 1, 2), (0, 1, 2)):
        vacuous = no_seven_norms(dim, bound).enumerated == 0
        code, out, err = run(capsys, "verify", "--claim", "lemma3.1",
                             "--dim", str(dim), "--bound", str(bound))
        assert (code == 64) == vacuous, (dim, bound)
        if vacuous:
            assert out == ""
            assert "nonzero norm" in err
        else:
            assert json.loads(out)["status"] == "verified"


def test_verify_thm41(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "thm4.1",
                       "--kappa", "2", "--max-set", "2")
    assert code == 0


def test_verify_thm54_group_json(capsys):
    group = json.dumps({"factors": [{"kind": "prime_power", "p": 3, "k": 1},
                                    {"kind": "prime_power", "p": 3, "k": 1}]})
    code, out, _ = run(capsys, "verify", "--claim", "thm5.4",
                       "--group", group)
    assert code == 0
    assert json.loads(out)["claim"] == "thm5.4"


def test_verify_counterexample_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "thm3.2",
                       "--dim", "3", "--bound", "1", "--n", "2")
    assert code == 1
    assert json.loads(out)["status"] == "counterexample"


def test_verify_vacuous_region_is_usage_error(capsys):
    # [-1, 1]^2 has 9 points, so there are no 20-subsets to certify
    code, out, err = run(capsys, "verify", "--claim", "thm3.2",
                         "--dim", "2", "--bound", "1", "--n", "20")
    assert code == 64
    assert out == ""
    assert "20" in err


def test_verify_builds_the_points_once(capsys, monkeypatch):
    # the vacuous-region check reads the domain's size arithmetically,
    # so only the oracle builds the point list
    from pattern_forge.verify import GroupDomain
    calls = []
    points = GroupDomain.points

    def counted(self):
        calls.append(self)
        return points(self)

    monkeypatch.setattr(GroupDomain, "points", counted)
    code, out, _ = run(capsys, "verify", "--claim", "thm3.2",
                       "--dim", "2", "--bound", "1", "--n", "3")
    assert code == 0
    assert json.loads(out)["status"] == "verified"
    assert len(calls) == 1


@pytest.mark.parametrize("region", [
    ["--dim", "3", "--bound", "2"],
    # no 21-subset of this box ranks below the budget, so a scan that
    # meets the limit only inside fs_set_formal called it inconclusive
    ["--dim", "2", "--bound", "3", "--budget", "5"]])
def test_verify_refuses_sets_past_the_fs_limit(capsys, region):
    code, out, err = run(capsys, "verify", "--claim", "thm3.2", *region,
                         "--n", "21")
    assert code == 64
    assert out == ""
    assert "fs limit" in err


def test_verify_internal_error_exits_70(capsys, monkeypatch):
    import pattern_forge.verify

    def crash(*args):
        raise RuntimeError("oracle crashed")

    monkeypatch.setattr(pattern_forge.verify, "find_monochromatic_span",
                        crash)
    code, out, err = run(capsys, "verify", "--claim", "thm5.6", "--a", "2",
                         "--dim", "1", "--bound", "1")
    assert code == 70
    assert out == ""
    assert "RuntimeError" in err


@pytest.mark.parametrize("factors", [
    [{"kind": "int_box", "bound": 2}],
    [{"kind": "rat_box", "den": 2, "bound": 1}],
    [{"kind": "cyclic", "m": 3}, {"kind": "int_box", "bound": 1}],
], ids=["int_box", "rat_box", "cyclic_x_int_box"])
def test_verify_thm55_refuses_torsion_free_groups(capsys, factors):
    # an element of infinite order generates a subgroup no list holds
    code, out, err = run(capsys, "verify", "--claim", "thm5.5",
                         "--group", json.dumps({"factors": factors}))
    assert code == 64
    assert out == ""
    assert "infinite order" in err


def test_verify_thm55_full_lattice_is_an_unknown_flag(capsys):
    # the cyclic subgroups decide every subgroup, so there is no lattice
    # mode to ask for
    group = json.dumps({"factors": [{"kind": "cyclic", "m": 3}] * 2})
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--claim", "thm5.5", "--group", group,
              "--full-lattice"])
    out = capsys.readouterr()
    assert exc.value.code == 64
    assert out.out == ""
    assert "unrecognized arguments: --full-lattice" in out.err


@pytest.mark.parametrize("factors,alphas,beta,gammas", [
    (1, "0", "1", "2"),    # past the single generator
    (5, "-1", "0", "1"),   # would wrap round to the last generator
])
def test_verify_thm23_index_outside_basis_is_usage_error(
        capsys, factors, alphas, beta, gammas):
    group = json.dumps({"factors": [{"kind": "cyclic", "m": 5}] * factors})
    code, out, err = run(capsys, "verify", "--claim", "thm2.3",
                         "--group", group, "--alphas", alphas, "--beta", beta,
                         "--gammas", gammas, "--colouring", "product_sigma")
    assert code == 64
    assert out == ""
    assert "generator range" in err


@pytest.mark.parametrize("argv", [
    ["--claim", "thm4.1", "--kappa", "4", "--max-set", "3", "--budget", "-5"],
    ["--claim", "lemma3.1", "--dim", "2", "--bound", "2", "--budget", "-1"],
    ["--claim", "thm3.2", "--dim", "3", "--bound", "2", "--n", "3",
     "--budget", "-1"]], ids=["thm4.1", "lemma3.1", "thm3.2"])
def test_verify_negative_budget_is_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (64, "")
    assert "budget >= 0" in err
    # a budget of 0 is a scan that examines nothing
    argv[-1] = "0"
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 2
    assert json.loads(out)["enumerated"] == 0


def test_verify_negative_kappa_names_kappa(capsys):
    code, out, err = run(capsys, "verify", "--claim", "thm4.1",
                         "--kappa", "-1", "--max-set", "3")
    assert (code, out) == (64, "")
    assert err == "pattern-forge: need kappa >= 0, got -1\n"


def test_unwritable_out_file_leaves_stdout_empty(tmp_path, capsys):
    code, out, _ = run(capsys, "search", "--n", "2", "--m", "3",
                       "--l-max", "3", "--out",
                       str(tmp_path / "missing" / "result.json"))
    assert code == 70
    assert out == ""


_CYCLIC_5_CUBED = json.dumps({"factors": [{"kind": "cyclic", "m": 5}] * 3})


# a verified call of each claim that has no budget
_UNBUDGETED = [
    ["--claim", "thm5.4", "--group", _CYCLIC_5_CUBED],
    ["--claim", "thm5.5", "--group", _CYCLIC_5_CUBED],
    ["--claim", "thm5.6", "--a", "2", "--dim", "1", "--bound", "3"],
    ["--claim", "thm2.3", "--group", _CYCLIC_5_CUBED, "--alphas", "0",
     "--beta", "1", "--gammas", "2", "--colouring", "product_sigma"],
    ["--claim", "thm5.1-shadow", "--group", _CYCLIC_5_CUBED,
     "--elements", "[[1,4,0],[0,1,4]]"],
]


@pytest.mark.parametrize("argv", _UNBUDGETED)
def test_verify_refuses_budget_it_would_ignore(capsys, argv):
    assert run(capsys, "verify", *argv)[0] == 0
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv, "--budget", "1"])
    out = capsys.readouterr()
    assert err.value.code == 64
    assert out.out == ""
    assert "--budget" in out.err


@pytest.mark.parametrize("argv,flag", [
    (["--claim", "thm4.1", "--kappa", "2", "--max-set", "2", "--n", "5"],
     "--n"),
    (["--claim", "thm5.5", "--group", _CYCLIC_5_CUBED, "--dim", "3"],
     "--dim"),
    (["--claim", "thm5.5", "--group", _CYCLIC_5_CUBED, "--elements",
      "[[1,0,0]]"], "--elements"),
    (["--claim", "thm5.5", "--group", _CYCLIC_5_CUBED, "--a", "2"], "--a"),
    (["--claim", "thm3.2", "--dim", "1", "--bound", "1", "--n", "2",
      "--kappa", "2"], "--kappa"),
    (["--claim", "lemma3.1", "--dim", "2", "--bound", "1", "--group",
      _CYCLIC_5_CUBED], "--group"),
])
def test_verify_refuses_flags_its_claim_does_not_read(capsys, argv, flag):
    # a flag the oracle ignores would still land in the --out manifest,
    # so two equal results could differ on disk
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv])
    out = capsys.readouterr()
    assert (err.value.code, out.out) == (64, "")
    assert f"--claim {argv[1]} does not take {flag}" in out.err


@pytest.mark.parametrize("argv", _UNBUDGETED)
def test_unbudgeted_claims_take_out_and_threads(tmp_path, capsys, argv):
    out_file = tmp_path / "result.json"
    code, out, _ = run(capsys, "verify", *argv, "--threads", "2",
                       "--out", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["result"] == json.loads(out)


_HUGE_PRIME = 10 ** 18 + 3


@pytest.mark.parametrize("argv", [
    ["colour", "--id", "product_sigma", "--element", "[1]", "--group",
     json.dumps({"factors": [{"kind": "cyclic", "m": _HUGE_PRIME}]})],
    ["colour", "--id", "product_sigma", "--element", "[1]", "--group",
     json.dumps({"factors": [{"kind": "prime_power", "p": _HUGE_PRIME,
                              "k": 1}]})],
    ["verify", "--claim", "thm5.6", "--a", str(_HUGE_PRIME), "--dim", "1",
     "--bound", "1"]])
def test_huge_prime_is_refused_in_time(argv):
    # trial division stops at 2^20, so a prime past 2^40 is refused
    # instead of being factored for hours
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-m", "pattern_forge.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=30)
    assert (proc.returncode, proc.stdout) == (64, "")
    assert "2^40" in proc.stderr


def test_huge_modulus_with_a_small_factor_is_coloured(capsys):
    code, out, _ = run(capsys, "colour", "--id", "product_sigma",
                       "--element", "[1]", "--group",
                       json.dumps({"factors": [{"kind": "cyclic",
                                                "m": 2 ** 64}]}))
    assert (code, out) == (0, "[[1]]\n")


def _run_in_a_gib(argv):
    """The CLI in a child whose address space is capped at 1 GiB, so that
    an enumeration the region cap fails to stop dies instead of filling
    memory, and one that runs on is stopped by the timeout."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-m", "pattern_forge.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=10, preexec_fn=cap)


_CYCLIC_PRIME = json.dumps({"factors": [{"kind": "cyclic",
                                         "m": 1000000007}]})


@pytest.mark.parametrize("argv", [
    ["thm5.4", "--group",
     json.dumps({"factors": [{"kind": "cyclic", "m": _HUGE_PRIME}]})],
    ["thm5.4", "--group", _CYCLIC_PRIME],
    ["thm5.5", "--group", _CYCLIC_PRIME],
    ["thm5.6", "--a", "2", "--dim", "30", "--bound", "5"],
    ["thm4.1", "--kappa", "40", "--max-set", "2"],
    ["thm4.1", "--kappa", "1000000000", "--max-set", "2"],
    ["thm3.2", "--dim", "30", "--bound", "5", "--n", "3"],
    ["thm3.2", "--dim", "1000000000", "--bound", "1", "--n", "3"],
    ["lemma3.1", "--dim", "30", "--bound", "5"],
], ids=["thm5.4-huge", "thm5.4", "thm5.5", "thm5.6", "thm4.1",
        "thm4.1-huge", "thm3.2", "thm3.2-huge", "lemma3.1"])
def test_oversize_region_is_refused_before_enumeration(argv):
    # without the cap, each of these runs for hours or dies of a
    # MemoryError (exit 70)
    proc = _run_in_a_gib(["verify", "--claim", *argv])
    assert (proc.returncode, proc.stdout) == (64, "")
    assert "exceeds the cap" in proc.stderr


def test_branch_sets_stop_at_every_subset():
    # 2 branches make 16 sets however large --max-set is, so counting
    # them stops at set size 4
    argv = ["verify", "--claim", "thm4.1", "--kappa", "2", "--max-set"]
    huge = _run_in_a_gib(argv + ["1000000000"])
    every = _run_in_a_gib(argv + ["4"])
    assert huge.returncode == every.returncode == 0
    assert huge.stdout == every.stdout.replace('"max_size":4',
                                               '"max_size":1000000000')


@pytest.mark.parametrize("argv", [
    ["verify", "--claim", "thm4.1", "--kappa", "3", "--max-set", "3"],
    ["verify", "--claim", "thm4.1", "--kappa", "4", "--max-set", "3",
     "--budget", "20000"],
    ["verify", "--claim", "thm3.2", "--dim", "3", "--bound", "2", "--n", "3"],
    ["colour", "--id", "delta", "--branches",
     '["0110","1011","0000","1010","0111"]'],
], ids=["thm4.1", "thm4.1-budget", "thm3.2", "delta"])
def test_output_bytes_do_not_depend_on_the_hash_seed(argv):
    # branch sets hash their str branches, and str hashes are salted
    # per process
    outputs = set()
    for seed in ("1", "31337"):
        env = dict(os.environ, PYTHONPATH=_SRC, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "pattern_forge.cli",
                               *argv], env=env, capture_output=True,
                              timeout=60)
        assert proc.returncode in (0, 2), proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_verify_unknown_claim(capsys):
    code, err = run_usage(capsys, "verify", "--claim", "thm9.9")
    assert code == 64
    # an unknown command is refused the same way; bench is not one
    code, err = run_usage(capsys, "bench", "--workload", "search-n2-m3")
    assert code == 64
    assert "invalid choice: 'bench'" in err


def test_verify_missing_claim_flag(capsys):
    code, err = run_usage(capsys, "verify", "--claim", "lemma3.1",
                          "--dim", "2")
    assert code == 64
    assert "--bound" in err


def test_verify_thm56(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "thm5.6", "--a", "2",
                       "--dim", "1", "--bound", "1")
    assert code == 0


def test_verify_thm23_standard_basis(capsys):
    group = json.dumps({"factors": [{"kind": "cyclic", "m": 5}] * 5})
    code, out, _ = run(capsys, "verify", "--claim", "thm2.3",
                       "--group", group, "--alphas", "0,1", "--beta", "2",
                       "--gammas", "3,4", "--colouring", "product_sigma")
    assert code == 0
    assert json.loads(out)["status"] == "verified"


def test_verify_thm23_torsion_free_basis(capsys):
    # the subgroup an integer generator spans is infinite; the standard
    # basis is independent by its supports, and no closure is built
    group = json.dumps({"factors": [{"kind": "int_box", "bound": 2}] * 3})
    code, out, _ = run(capsys, "verify", "--claim", "thm2.3",
                       "--group", group, "--alphas", "0", "--beta", "1",
                       "--gammas", "2", "--colouring", "valuation:a=3")
    assert code == 0
    result = json.loads(out)
    assert (result["status"], result["enumerated"]) == ("verified", 4)


def test_verify_thm51_shadow(capsys):
    group = json.dumps({"factors": [{"kind": "cyclic", "m": 3}] * 3})
    elements = json.dumps([[1, 2, 0], [0, 1, 2]])
    code, out, _ = run(capsys, "verify", "--claim", "thm5.1-shadow",
                       "--group", group, "--elements", elements)
    assert code == 0
    data = json.loads(out)
    assert data["claim"] == "thm5.1-shadow"
    assert data["status"] == "verified"


def test_verify_thm51_shadow_refuses_the_zero_set(capsys):
    group = json.dumps({"factors": [{"kind": "cyclic", "m": 3}] * 2})
    code, out, err = run(capsys, "verify", "--claim", "thm5.1-shadow",
                         "--group", group, "--elements", "[[0,0]]")
    assert code == 64
    assert out == ""
    assert "support size is 0" in err


def test_verify_thm51_shadow_names_the_empty_set(capsys):
    group = json.dumps({"factors": [{"kind": "cyclic", "m": 3}] * 2})
    code, out, err = run(capsys, "verify", "--claim", "thm5.1-shadow",
                         "--group", group, "--elements", "[]")
    assert (code, out) == (64, "")
    assert "at least one element" in err


_CYCLIC_5 = json.dumps({"factors": [{"kind": "cyclic", "m": 5}]})
_CYCLIC_3_SQUARED = json.dumps({"factors": [{"kind": "cyclic", "m": 3}] * 2})
_RATIONAL = json.dumps({"factors": [{"kind": "rat_box", "den": 2,
                                     "bound": 2}]})


@pytest.mark.parametrize("argv", [
    ["colour", "--id", "sum_squares", "--element", "5"],
    ["colour", "--id", "product_sigma", "--group", _CYCLIC_5,
     "--element", "5"],
    ["verify", "--claim", "thm5.1-shadow", "--group", _CYCLIC_5,
     "--elements", "5"],
    ["verify", "--claim", "thm5.1-shadow", "--group", _CYCLIC_5,
     "--elements", "[5]"]] + [
    ["colour", "--id", "product_sigma", "--group", _RATIONAL,
     "--element", element]
    for element in ("[[1]]", "[[1,0]]", '[["a",2]]', "[[1,2,3]]")] + [
    ["colour", "--id", "product_sigma", "--group", _CYCLIC_3_SQUARED,
     "--element", "[1,2,5,5,5]"],
    ["verify", "--claim", "thm5.1-shadow", "--group", _CYCLIC_3_SQUARED,
     "--elements", "[[1,2,5]]"]])
def test_malformed_element_data_is_usage_error(capsys, argv):
    # a bare number used to reach a zip over its "coordinates", and a
    # rational coordinate other than [numerator, nonzero denominator]
    # an index or a Fraction; each crashed (exit 70) or, for [1,2,3],
    # read the first two entries.  Extra coordinates were dropped: the
    # colour of [1,2,5,5,5] printed [[1,2]] and exited 0
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 64
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("factor", [
    '{"kind":"cyclic","m":2.5}', '{"kind":"cyclic","m":true}',
    '{"kind":"cyclic","m":1e400}', '{"kind":"int_box","bound":1.5}',
    '{"kind":"int_box","bound":true}', '{"kind":"prime_power","p":3,"k":1.5}',
    '{"kind":"prime_power","p":3,"k":true}',
    '{"kind":"prime_power","p":2.0,"k":1}',
    '{"kind":"rat_box","den":2.5,"bound":1}',
    '{"kind":"rat_box","den":2,"bound":false}'])
@pytest.mark.parametrize("command", [
    ["verify", "--claim", "thm5.4"],
    ["colour", "--id", "product_sigma", "--element", "[1]"]])
def test_non_integer_group_parameters_are_usage_error(capsys, command,
                                                       factor):
    # a float or bool parameter used to crash (exit 70), print a result
    # (exit 0) or, as the float infinity 1e400, loop forever
    with pytest.raises(SystemExit) as exc:
        main([*command, "--group", '{"factors":[%s]}' % factor])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (64, "")
    assert "must be an int" in out.err


# -- start-up ----------------------------------------------------------------

_SRC = str(Path(pattern_forge.__file__).resolve().parents[1])


def _imported(*args):
    """Run python with args and return the modules it imported, read from
    the -X importtime report on stderr."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    modules = {line.rsplit("|", 1)[1].strip()
               for line in proc.stderr.splitlines()
               if line.startswith("import time:")}
    return proc, modules


_WORK = ("pattern_forge.groups", "pattern_forge.colourings",
         "pattern_forge.verify", "pattern_forge.patterns")


def test_cli_import_skips_dataclasses_and_traceback():
    proc, modules = _imported("-c", "import pattern_forge.cli")
    assert proc.returncode == 0
    assert "pattern_forge.tokens" in modules
    assert not modules & {"dataclasses", "traceback", *_WORK}


def test_each_subcommand_imports_only_what_it_runs():
    proc, modules = _imported("-m", "pattern_forge.cli", "--version")
    assert (proc.returncode, proc.stdout) == (0, pattern_forge.__version__
                                              + "\n")
    assert not modules & {"fractions", *_WORK}
    proc, modules = _imported("-m", "pattern_forge.cli", "verify", "--claim",
                              "thm3.2", "--dim", "1", "--bound", "1",
                              "--n", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "verified"
    assert "pattern_forge.verify" in modules
    assert "pattern_forge.patterns" not in modules
    proc, modules = _imported("-m", "pattern_forge.cli", "search", "--n", "2",
                              "--m", "3", "--l-max", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "found"
    assert "pattern_forge.patterns" in modules
    # no group arithmetic either: subset_sums and SizeLimitError live in
    # tokens
    assert not modules & {"pattern_forge.verify", "pattern_forge.colourings",
                          "pattern_forge.groups"}



@pytest.mark.parametrize("argv", [
    ["search", "--n", "3", "--m", "3", "--l-max", "10"],
    ["verify", "--claim", "thm3.2", "--dim", "3", "--bound", "2", "--n", "3"]])
def test_integer_runs_never_load_fractions(argv):
    # they build no Fraction, so they must not pay for importing one
    code = ("import sys\n"
            "from pattern_forge.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, 'fractions' in sys.modules, file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=_SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr.split() == ["1" if argv[0] == "search" else "0",
                                   "False"]
    assert json.loads(proc.stdout)["status"] in ("exhausted", "verified")

def test_star_import_of_every_module_with_all():
    # a name left in __all__ after its definition is gone raises
    # AttributeError here
    checked = set()
    for info in pkgutil.iter_modules(pattern_forge.__path__):
        module = importlib.import_module(f"pattern_forge.{info.name}")
        if hasattr(module, "__all__"):
            exec(f"from pattern_forge.{info.name} import *", {})
            checked.add(info.name)
    assert {"colourings", "patterns", "verify"} <= checked


# -- process entry -----------------------------------------------------------

# the argv of each workload BENCHMARK.json gates, as perfbench/run.py
# passes it to `python -m pattern_forge.cli`
_GATED = {
    "search-n3-m3": ["search", "--n", "3", "--m", "3", "--l-max", "19"],
    "fs-sum-squares": ["verify", "--claim", "thm3.2", "--dim", "3",
                       "--bound", "2", "--n", "3"],
}


def _child(argv, **kwargs):
    env = kwargs.pop("env", dict(os.environ, PYTHONPATH=_SRC))
    return subprocess.run([sys.executable, "-m", "pattern_forge.cli", *argv],
                          env=env, timeout=60, **kwargs)


def test_gated_argv_lists_are_the_benchmark_workloads():
    bench = json.loads((Path(_SRC).parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(_GATED)


@pytest.mark.parametrize("argv", [
    ["search", "--n", "3", "--m", "3", "--l-max", "8"],
    ["verify", "--claim", "thm4.1", "--kappa", "2", "--max-set", "2"],
    ["--version"], ["search", "--bogus"]],
    ids=["search", "verify", "version", "usage"])
def test_main_leaves_the_collector_alone(capsys, argv):
    # tests and scripts call main() in process: only run() freezes
    before = gc.get_freeze_count()
    with contextlib.suppress(SystemExit):
        main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("argv,code", [
    (["verify", "--claim", "thm4.1", "--kappa", "2", "--max-set", "2"], 0),
    (["verify", "--claim", "thm4.1", "--kappa", "-1", "--max-set", "2"], 64),
    (["--version"], 0), (["search", "--bogus"], 64)],
    ids=["verify", "refused", "version", "usage"])
def test_run_freezes_once_after_main_however_it_ends(monkeypatch, capsys,
                                                     argv, code):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(1))
    monkeypatch.setattr(sys, "argv", ["pattern-forge", *argv])
    try:
        got = run_process()
    except SystemExit as exc:
        got = exc.code
    capsys.readouterr()
    assert (got, frozen) == (code, [1])


@pytest.mark.parametrize("name", sorted(_GATED))
def test_child_writes_the_bytes_of_in_process_main(tmp_path, capsys, name):
    path = tmp_path / "result.json"
    argv = [*_GATED[name], "--out", str(path)]
    code, out, _ = run(capsys, *argv)
    written = path.read_bytes()
    path.unlink()
    proc = _child(argv, capture_output=True)
    assert (proc.returncode, proc.stdout) == (code, out.encode()), proc.stderr
    assert path.read_bytes() == written


# the gated workloads, and the calls argparse answers itself
_CLOSED_STDOUT = {**_GATED, "version": ["--version"], "help": ["--help"]}


@pytest.mark.parametrize("buffered", [False, True],
                         ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("name", sorted(_CLOSED_STDOUT))
def test_closed_stdout_exits_70(name, buffered):
    # the result cannot be delivered: neither its own code nor Python's
    # 120 for a flush that fails at exit, nor the 0 of a --version or
    # --help whose write argparse would drop.  Whether the write fails
    # in print or in the flush after main(), stderr holds run()'s one
    # line and no traceback.
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child(_CLOSED_STDOUT[name], env=env, stdout=write_end,
                      stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (
        70, b"pattern-forge: stdout closed before the result was written\n")


def test_installed_command_is_the_process_entry():
    # an installed pattern-forge runs the function `python -m
    # pattern_forge.cli` runs, so both freeze before exit
    pyproject = (Path(_SRC).parent / "pyproject.toml").read_text()
    target, = [line.split("=", 1)[1].strip().strip('"')
               for line in pyproject.splitlines()
               if line.startswith("pattern-forge =")]
    assert target == "pattern_forge.cli:run"
    module, _, name = target.partition(":")
    source = Path(importlib.import_module(module).__file__).read_text()
    block, = [node for node in ast.parse(source).body
              if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(line) for line in block.body] == [
        f"sys.exit({name}())"]


# -- argv fuzzing ------------------------------------------------------------

def _ints(lo, hi):
    """Mostly values in [lo, hi], sometimes 0 or -1."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi),
                     st.sampled_from([-1, 0])).map(str)


_SMALL = _ints(1, 4)
_JUNK = st.sampled_from(["--bogus", "junk", "-1", "{", "", "--n=x", "3.5",
                         "[]", "--claim"])
# finite and torsion-free groups, a float parameter and malformed JSON
_GROUP = st.sampled_from([
    json.dumps({"factors": [{"kind": "cyclic", "m": 3}] * 2}),
    json.dumps({"factors": [{"kind": "cyclic", "m": 2}] * 3}),
    json.dumps({"factors": [{"kind": "cyclic", "m": 5}]}),
    json.dumps({"factors": [{"kind": "prime_power", "p": 2, "k": 2}] * 2}),
    json.dumps({"factors": [{"kind": "int_box", "bound": 2}] * 2}),
    json.dumps({"factors": [{"kind": "rat_box", "den": 2, "bound": 1}]}),
    json.dumps({"factors": [{"kind": "cyclic", "m": 2.5}]}),
    '{"factors": [', '{"factors": [{"kind": "cyclic"}]}', '{"factors": 3}',
    '{"factors": [{"kind": "torus", "m": 2}]}', "[]", "null", "{}"])
_FLAGS = {
    "search": {"--n": _SMALL,
               "--m": _ints(2, 6),
               "--l-max": _ints(1, 6),
               "--l-min": _SMALL,
               "--entry-bound": _ints(1, 2),
               "--node-cap": _ints(1, 60),
               "--threads": _ints(1, 2)},
    "verify": {"--claim": st.sampled_from([*CLAIM_FLAGS, "thm9.9"]),
               "--dim": _ints(1, 3),
               "--bound": _ints(1, 2),
               "--n": _SMALL,
               "--kappa": _ints(1, 3),
               "--max-set": _ints(1, 3),
               "--a": _ints(2, 5),
               "--group": _GROUP,
               "--elements": st.sampled_from(
                   ["[[1,0],[0,1]]", "[[1,1]]", "[[1]]", "[]", "x",
                    "[[7,7]]", "5", "[5]"]),
               "--alphas": st.sampled_from(["0", "0,1", "-1", "x", "9"]),
               "--beta": _SMALL,
               "--gammas": st.sampled_from(["1", "1,2", "", "x"]),
               "--colouring": st.sampled_from(
                   ["product_sigma", "sum_squares", "nope"]),
               "--budget": _ints(1, 20),
               "--threads": _ints(1, 2)},
    "colour": {"--id": st.sampled_from(
                   ["sum_squares", "valuation:a=2", "valuation:a=4",
                    "product_sigma", "delta", "subgroup_parity", "nope"]),
               "--element": st.sampled_from(
                   ["[1,-1,0]", "[0]", "[0,0]", "[2,1]", "[]", "x", "[1.5]",
                    '"a"', "[[1]]", "5"]),
               "--branches": st.sampled_from(
                   ['["01","10"]', '["0","1","11"]', "[]", "x", "[1]"]),
               "--group": _GROUP},
}


# the flags each command or claim needs, a claim's read from the CLI's
# table; they are drawn more often, so that most examples get past
# argument checking
_NEEDS = {"search": ["--n", "--m", "--l-max"],
          "colour": ["--id", "--element"], "thm9.9": [],
          **{claim: [f"--{name}" for name in needs]
             for claim, (needs, _) in CLAIM_FLAGS.items()}}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    chosen = {}
    if command == "verify":
        chosen["--claim"] = draw(flags["--claim"])
    for name in _NEEDS[chosen.get("--claim", command)]:
        if draw(st.integers(0, 9)):
            chosen[name] = draw(flags[name])
    for name in draw(st.lists(st.sampled_from(sorted(flags)), unique=True,
                              max_size=3)):
        chosen.setdefault(name, draw(flags[name]))
    argv = [command]
    for name, value in chosen.items():
        argv += [name, value]
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        argv.insert(draw(st.integers(1, len(argv))), draw(_JUNK))
    return argv


@given(_argv())
@settings(max_examples=60, deadline=None)
def test_cli_argv_fuzz_keeps_the_exit_contract(argv):
    # a plain function, not the capsys fixture: Hypothesis runs every
    # example inside one test call
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    stdout = out.getvalue()
    assert code in (0, 1, 2, 64), (argv, code, err.getvalue())
    if code == 64:
        assert stdout == "", argv
    else:
        assert stdout.endswith("\n") and stdout.count("\n") == 1, argv
        json.loads(stdout)
