"""Acceptance suite: one test per criterion, printing one line each.

All arithmetic in the package is exact, so every check is tolerance-free.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import math
import os
import random
import subprocess
import sys

from pattern_forge.colourings import (BranchSet, delta_colouring,
                                      resolve_colouring, valuation_colouring)
from pattern_forge.groups import GroupSpec, PrimePower, fs_set_formal, sigma
from pattern_forge.patterns import (Pattern, SearchConfig,
                                    canonical_2_adequate, is_adequate, search)
from pattern_forge.tokens import ColourToken
from pattern_forge.verify import (BranchSetDomain, GroupDomain,
                                  check_fs_matrix_identities,
                                  find_monochromatic_ap,
                                  find_monochromatic_fs,
                                  find_monochromatic_span,
                                  find_monochromatic_subgroup,
                                  no_seven_norms)

from naive import naive_find_adequate


def report(cid, slug, detail="PASS"):
    print(f"\nacceptance {cid:02d} {slug}: {detail}")


def test_criterion_01_canonical_pair_pattern_all_moduli():
    for m in list(range(2, 13)) + [0]:
        rep = is_adequate(canonical_2_adequate(m))
        assert rep.adequate, m
        expected = (1, m - 1) if m >= 2 else (1, -1)
        assert rep.signature == expected, m
    report(1, "canonical-pair-pattern")


def test_criterion_02_mod2_existence_up_to_n4():
    for n in (2, 3, 4):
        out = search(SearchConfig(n=n, m=2, l_max=2 ** n))
        assert out.status == "found", n
        assert is_adequate(out.pattern).adequate, n
    report(2, "mod2-existence-n2-n3-n4")


def test_criterion_03_three_rows_mod_three():
    # the search exhausts every l <= 18 before it finds the witness
    outcome = search(SearchConfig(n=3, m=3, l_max=19))
    assert outcome.status == "found"
    assert outcome.pattern.l == 19
    assert is_adequate(outcome.pattern).adequate
    report(3, "three-rows-mod-three", "PASS (found at l=19)")


def test_criterion_04_integer_entries_bounded_impossibility():
    out = search(SearchConfig(n=3, m=0, l_max=4, entry_bound=2))
    assert out.status == "exhausted"
    assert naive_find_adequate(3, 0, 4, bound=2) is None
    report(4, "integer-entries-bounded-impossibility")


def test_criterion_05_no_seven_equal_norms():
    for dim, bound in [(1, 5), (2, 3), (3, 3)]:
        cert = no_seven_norms(dim, bound)
        assert cert.status == "verified", (dim, bound)
    report(5, "no-seven-equal-norms")


def test_criterion_06_branch_matrix_pair_descent():
    cert = find_monochromatic_fs("delta", BranchSetDomain(3, 3), 2,
                                 claim="thm4.1")
    assert cert.status == "verified"
    # direct complete pair enumeration over nonempty sets of size <= 3
    branches = ["".join(bits) for bits in itertools.product("01", repeat=3)]
    sets = []
    for size in (1, 2, 3):
        sets.extend(BranchSet(c)
                    for c in itertools.combinations(branches, size))
    pairs = 0
    for x, y in itertools.combinations(sets, 2):
        pairs += 1
        cx, cy = delta_colouring(x), delta_colouring(y)
        if cx == cy:
            assert delta_colouring(x.symmetric_difference(y)) != cx
    assert pairs == math.comb(92, 2)
    report(6, "branch-matrix-pair-descent")


def test_criterion_07_progressions_product_sigma():
    verified = [GroupSpec((PrimePower(3, 1),) * 3),
                GroupSpec((PrimePower(5, 1),) * 2),
                GroupSpec((PrimePower(3, 2),) * 2)]
    for spec in verified:
        cert = find_monochromatic_ap("product_sigma", spec)
        assert cert.status == "verified", spec
    boolean = GroupSpec.cyclic_power(2, 2)
    cert = find_monochromatic_ap("product_sigma", boolean)
    assert cert.status == "counterexample"
    colour = resolve_colouring("product_sigma")
    a = boolean.element(cert.witness["a"])
    b = boolean.element(cert.witness["b"])
    assert len({colour(a), colour(a + b), colour(a + b + b)}) == 1
    report(7, "length-three-progressions")


def test_criterion_08_cyclic_subgroups_bichromatic():
    for p, k in [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)]:
        cert = find_monochromatic_subgroup(
            "subgroup_parity", GroupSpec((PrimePower(p, k),)))
        assert cert.status == "verified", (p, k)
    report(8, "cyclic-subgroups-bichromatic")


def test_criterion_09_valuation_flip_and_spans():
    box = GroupSpec.integer_box(10, 3)
    elements = [x for x in box.enumerate() if not x.is_zero()]
    for a in (2, 3, 5):
        for x in elements:
            c_x = valuation_colouring(x, a)
            c_ax = valuation_colouring(a * x, a)
            assert {c_x, c_ax} == {ColourToken.bit(0), ColourToken.bit(1)}
        cert = find_monochromatic_span(a, 3, 10)
        assert cert.status == "verified", a
    report(9, "valuation-flip-and-spans")


def test_criterion_10_matrix_identities_randomized():
    spec = GroupSpec.cyclic_power(5, 8)
    rng = random.Random(20260810)
    for trial in range(50):
        table = {}

        def colouring(x, table=table):
            if x not in table:
                table[x] = ColourToken.int_(rng.randrange(6))
            return table[x]

        cert = check_fs_matrix_identities(
            spec, [0, 1, 2], 3, [4, 5, 6], colouring)
        assert cert.status == "verified", trial
    report(10, "matrix-identities-randomized")


def test_criterion_11_search_and_colouring_round_trip():
    for n in (1, 2, 3):
        for m in (2, 3):
            for l in (1, 2, 3, 4):
                eng = search(SearchConfig(n=n, m=m, l_max=l))
                spec = GroupSpec.cyclic_power(m, l)
                cert = find_monochromatic_fs(
                    "product_sigma", GroupDomain(spec), n)
                found = eng.status == "found"
                assert found == (cert.status == "counterexample"), (n, m, l)
                if found:
                    pattern = eng.pattern
                    lifted = GroupSpec.cyclic_power(m, pattern.l)
                    ys = [lifted.element(row) for row in pattern.rows]
                    sigmas = {sigma(s) for s in fs_set_formal(ys)}
                    expected = ColourToken.seq(is_adequate(pattern).signature)
                    assert sigmas == {expected}, (n, m, l)
    report(11, "search-colouring-round-trip")


def _random_pattern(rng, m):
    n = rng.randint(1, 3)
    l = rng.randint(1, 5)
    entries = list(range(m))
    seen = set()
    rows = []
    guard = 0
    while len(rows) < n and guard < 200:
        guard += 1
        r = tuple(rng.choice(entries) for _ in range(l))
        if any(r) and r not in seen:
            seen.add(r)
            rows.append(r)
    if len(rows) < n:
        return None
    return Pattern(n, m, l, tuple(rows))


def test_criterion_12_metamorphic_adequacy_invariances():
    for m in (2, 3, 5):
        rng = random.Random(97 * m)
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        produced = 0
        while produced < 1000:
            p = _random_pattern(rng, m)
            if p is None:
                continue
            produced += 1
            base = is_adequate(p)

            perm = list(range(p.n))
            rng.shuffle(perm)
            permuted = Pattern(p.n, m, p.l, tuple(p.rows[i] for i in perm))
            rep = is_adequate(permuted)
            assert rep.adequate == base.adequate
            if base.adequate:
                assert rep.signature == base.signature

            u = rng.choice(units)
            scaled = Pattern(p.n, m, p.l,
                             tuple(tuple(u * e % m for e in r)
                                   for r in p.rows))
            rep = is_adequate(scaled)
            assert rep.adequate == base.adequate
            if base.adequate:
                assert rep.signature == tuple(u * k % m
                                              for k in base.signature)

            widened = Pattern(p.n, m, p.l + 1,
                              tuple(r + (0,) for r in p.rows))
            rep = is_adequate(widened)
            assert rep.adequate == base.adequate
            if base.adequate:
                assert rep.signature == base.signature
    report(12, "metamorphic-adequacy-invariances")


def test_criterion_13_byte_identical_json_across_threads():
    commands = [
        ["search", "--n", "2", "--m", "2", "--l-max", "4"],
        ["search", "--n", "3", "--m", "2", "--l-max", "8"],
        ["search", "--n", "4", "--m", "2", "--l-max", "16"],
        ["search", "--n", "3", "--m", "3", "--l-max", "9"],
        ["search", "--n", "3", "--m", "0", "--entry-bound", "2",
         "--l-max", "4"],
    ]
    for cmd in commands:
        outputs = []
        for threads, seed in (("1", "101"), ("8", "202")):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "pattern_forge.cli", *cmd,
                 "--threads", threads],
                capture_output=True, env=env)
            assert proc.returncode in (0, 1), (cmd, proc.stderr)
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], cmd
    report(13, "byte-identical-json-across-threads")
