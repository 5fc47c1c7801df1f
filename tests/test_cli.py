import itertools
import json

import pytest

from pattern_forge.cli import main
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


def test_search_missing_flag_is_usage_error(capsys):
    code, err = run_usage(capsys, "search", "--n", "3", "--m", "2")
    assert code == 64
    assert "--l-max" in err


def test_search_m0_requires_entry_bound(capsys):
    code, err = run_usage(capsys, "search", "--n", "3", "--m", "0",
                          "--l-max", "4")
    assert code == 64
    assert "entry-bound" in err


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


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("PATTERN_FORGE_THREADS", "4")
    code, out, _ = run(capsys, "search", "--n", "2", "--m", "2",
                       "--l-max", "3")
    assert code == 0


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


def test_verify_internal_error_exits_70(capsys):
    # the cyclic subgroups of an integer box overflow the closure cap
    group = json.dumps({"factors": [{"kind": "int_box", "bound": 2}]})
    code, out, err = run(capsys, "verify", "--claim", "thm5.5",
                         "--group", group)
    assert code == 70
    assert out == ""
    assert "ClosureOverflow" in err


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


def test_unwritable_out_file_leaves_stdout_empty(tmp_path, capsys):
    code, out, _ = run(capsys, "search", "--n", "2", "--m", "3",
                       "--l-max", "3", "--out",
                       str(tmp_path / "missing" / "result.json"))
    assert code == 70
    assert out == ""


_CYCLIC_5_CUBED = json.dumps({"factors": [{"kind": "cyclic", "m": 5}] * 3})


@pytest.mark.parametrize("argv", [
    ["--claim", "thm5.4", "--group", _CYCLIC_5_CUBED],
    ["--claim", "thm5.5", "--group", _CYCLIC_5_CUBED],
    ["--claim", "thm5.6", "--a", "2", "--dim", "1", "--bound", "3"],
    ["--claim", "thm2.3", "--group", _CYCLIC_5_CUBED, "--alphas", "0",
     "--beta", "1", "--gammas", "2", "--colouring", "product_sigma"],
    ["--claim", "thm5.1-shadow", "--group", _CYCLIC_5_CUBED,
     "--elements", "[[1,4,0],[0,1,4]]"],
])
def test_verify_refuses_budget_it_would_ignore(capsys, argv):
    assert run(capsys, "verify", *argv)[0] == 0
    with pytest.raises(SystemExit) as err:
        main(["verify", *argv, "--budget", "1"])
    out = capsys.readouterr()
    assert err.value.code == 64
    assert out.out == ""
    assert "--budget" in out.err


def test_verify_unknown_claim(capsys):
    code, err = run_usage(capsys, "verify", "--claim", "thm9.9")
    assert code == 64


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


def test_verify_thm51_shadow(capsys):
    group = json.dumps({"factors": [{"kind": "cyclic", "m": 3}] * 3})
    elements = json.dumps([[1, 2, 0], [0, 1, 2]])
    code, out, _ = run(capsys, "verify", "--claim", "thm5.1-shadow",
                       "--group", group, "--elements", elements)
    assert code == 0
    data = json.loads(out)
    assert data["claim"] == "thm5.1-shadow"
    assert data["status"] == "verified"


# -- bench -------------------------------------------------------------------

def test_bench_known_workload(capsys):
    code, out, _ = run(capsys, "bench", "--workload", "search-n2-m3")
    assert code == 0
    report = json.loads(out)
    assert report["workload"] == "search-n2-m3"
    assert report["nodes"] > 0
    assert "wall_seconds" in report


def test_bench_unknown_workload(capsys):
    code, err = run_usage(capsys, "bench", "--workload", "none")
    assert code == 64
