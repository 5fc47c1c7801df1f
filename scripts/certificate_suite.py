#!/usr/bin/env python3
"""Run the full desk-scale certificate suite and write one JSON report.

Example:
    python scripts/certificate_suite.py --out certificates.json
"""

import argparse
import sys
import time

from pattern_forge.colourings import product_sigma_colouring
from pattern_forge.groups import GroupSpec, PrimePower
from pattern_forge.tokens import canonical_json
from pattern_forge.verify import (BranchSetDomain, GroupDomain,
                                  check_fs_matrix_identities,
                                  find_monochromatic_ap,
                                  find_monochromatic_fs,
                                  find_monochromatic_span,
                                  find_monochromatic_subgroup,
                                  no_seven_norms)


def suite():
    # every claim but thm5.1-shadow, which certifies by argument: its
    # count C(N, s + 1) is 0 on every known monochromatic set, and a
    # certificate here must count something
    yield "lemma3.1 d=2 B=5", lambda: no_seven_norms(2, 5)
    yield "lemma3.1 d=2 B=3", lambda: no_seven_norms(2, 3)
    yield "lemma3.1 d=3 B=3", lambda: no_seven_norms(3, 3)
    yield "thm3.2 box=[-2,2]^3 n=3", lambda: find_monochromatic_fs(
        "sum_squares", GroupDomain(GroupSpec.integer_box(2, 3)), 3,
        claim="thm3.2")
    yield "thm4.1 kappa=3 sets<=3", lambda: find_monochromatic_fs(
        "delta", BranchSetDomain(3, 3), 2, claim="thm4.1")
    for factors, label in [
        ((PrimePower(3, 1),) * 3, "(Z3)^3"),
        ((PrimePower(5, 1),) * 2, "(Z5)^2"),
        ((PrimePower(3, 2),) * 2, "(Z9)^2"),
    ]:
        yield (f"thm5.4 {label}",
               lambda f=factors: find_monochromatic_ap(
                   "product_sigma", GroupSpec(f)))
    # Z/p^k is cyclic, so every subgroup is; the last two are not
    for factors, label in [
        ((PrimePower(3, 1),), "Z3^1"), ((PrimePower(3, 2),), "Z3^2"),
        ((PrimePower(5, 1),), "Z5^1"), ((PrimePower(7, 1),), "Z7^1"),
        ((PrimePower(5, 2),), "Z5^2"),
        ((PrimePower(3, 1),) * 3, "(Z3)^3"),
        ((PrimePower(5, 1),) * 2, "(Z5)^2"),
    ]:
        yield (f"thm5.5 {label}",
               lambda f=factors: find_monochromatic_subgroup(
                   "subgroup_parity", GroupSpec(f)))
    for a in (2, 3, 5):
        yield (f"thm5.6 a={a} d=3 B=10",
               lambda a=a: find_monochromatic_span(a, 3, 10))
    yield "thm2.3 (Z5)^8 product_sigma", lambda: check_fs_matrix_identities(
        GroupSpec.cyclic_power(5, 8), [0, 1, 2], 3, [4, 5, 6],
        product_sigma_colouring)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    rows = []
    bad = 0
    for label, run in suite():
        t0 = time.perf_counter()
        cert = run()
        wall = time.perf_counter() - t0
        ok = cert.status == "verified"
        bad += not ok
        print(f"{'ok ' if ok else 'FAIL'} {label:28s}"
              f" {cert.status:14s} enumerated={cert.enumerated:>8}"
              f" {wall:7.2f}s")
        rows.append({"label": label, "certificate": cert.jsonable(),
                     "wall_seconds": round(wall, 4)})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json({"suite": rows}))
            fh.write("\n")
        print(f"wrote {args.out}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
