import functools
import itertools
import json
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pattern_forge.colourings import (BranchSet, delta_colouring,
                                      product_sigma_colouring,
                                      resolve_colouring)
from pattern_forge.groups import (Cyclic, Element, GroupSpec, IntegerBox,
                                  PreconditionError, PrimePower, RationalBox,
                                  SizeLimitError, supp)
from pattern_forge.tokens import ColourToken, canonical_json
from pattern_forge.verify import (BranchSetDomain, GroupDomain,
                                  check_fs_matrix_identities, first_in_class,
                                  find_monochromatic_ap,
                                  find_monochromatic_fs,
                                  find_monochromatic_span,
                                  find_monochromatic_subgroup,
                                  fs_support_growth_check, no_seven_norms)

from naive import (naive_fs_scan, naive_subgroups, naive_subset_sums,
                   naive_sunflower)


# -- monochromatic finite sums ---------------------------------------------------

def test_fs_delta_small_scale_verified():
    cert = find_monochromatic_fs("delta", BranchSetDomain(2, 2), 2)
    assert cert.status == "verified"
    assert cert.witness is None


def test_fs_delta_adds_through_the_branch_set_class(monkeypatch):
    # a wrapper installed on the class after import sees the kernel's sums
    calls = []
    original = BranchSet.symmetric_difference

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(BranchSet, "symmetric_difference", counting)
    find_monochromatic_fs("delta", BranchSetDomain(2, 2), 2)
    assert len(calls) > 0


def test_branch_subset_sums_are_in_bitmask_order():
    # entry b - 1 is the sum over the set bits of b: the last of the
    # naive sums of that subset
    points = BranchSetDomain(2, 2).points()
    for xs in (points[1:4], points[3:7], points[:1]):
        expected = [
            naive_subset_sums([x for i, x in enumerate(xs) if b >> i & 1],
                              BranchSetDomain.add)[-1]
            for b in range(1, 1 << len(xs))]
        assert BranchSetDomain.subset_sums(xs) == expected


def test_fs_delta_counterexample_rechecks_its_branch_set_witness(
        monkeypatch):
    # delta is verified on every domain, so a constant colouring stands
    # in for it to send a branch-set witness through the re-check
    from pattern_forge import verify
    monkeypatch.setattr(verify, "delta_colouring",
                        lambda x: ColourToken.int_(0))
    domain = BranchSetDomain(2, 2)
    cert = find_monochromatic_fs("delta", domain, 2)
    assert (cert.status, cert.enumerated) == ("counterexample", 1)
    a, b = domain.points()[:2]
    assert cert.witness == {
        "x": [a.jsonable(), b.jsonable()], "colour": 0,
        "fs_values": [a.jsonable(), b.jsonable(),
                      a.symmetric_difference(b).jsonable()]}


def test_fs_sum_squares_pair_counterexample_is_self_certifying():
    domain = GroupDomain(GroupSpec.integer_box(2, 3))
    cert = find_monochromatic_fs("sum_squares", domain, 2)
    assert cert.status == "counterexample"
    # re-verify the witness by direct evaluation, outside the oracle
    colour = resolve_colouring("sum_squares")
    spec = GroupSpec.integer_box(2, 3)
    x, y = (spec.element(v) for v in cert.witness["x"])
    tokens = {colour(x), colour(y), colour(x + y)}
    assert len(tokens) == 1
    assert next(iter(tokens)).jsonable() == cert.witness["colour"]


def test_fs_budget_gives_inconclusive():
    domain = GroupDomain(GroupSpec.integer_box(2, 3))
    cert = find_monochromatic_fs("sum_squares", domain, 3, budget=10)
    assert cert.status == "inconclusive"
    assert cert.enumerated == 10


# a budget below 0 is a bad input, not an empty scan: it is refused, as
# SearchConfig refuses a node_cap below 0
@pytest.mark.parametrize("call", [
    lambda: find_monochromatic_fs(
        "sum_squares", GroupDomain(GroupSpec.integer_box(2, 3)), 3,
        budget=-1),
    lambda: find_monochromatic_fs("delta", BranchSetDomain(4, 3), 2,
                                  budget=-5),
    lambda: no_seven_norms(3, 3, budget=-3)],
    ids=["thm3.2", "thm4.1", "lemma3.1"])
def test_negative_budget_is_refused(call):
    with pytest.raises(PreconditionError, match="budget >= 0, got -"):
        call()


def test_branch_set_domain_refuses_a_negative_kappa():
    # not Python's "negative shift count" from 1 << kappa in size()
    with pytest.raises(PreconditionError, match="kappa >= 0, got -1"):
        BranchSetDomain(-1, 3)
    assert BranchSetDomain(0, 3).size() == 2


def test_fs_sum_squares_no_monochromatic_triples_in_small_box():
    # complete enumeration; the pair case just above shows n=2 differs
    domain = GroupDomain(GroupSpec.integer_box(2, 3))
    cert = find_monochromatic_fs("sum_squares", domain, 3, claim="thm3.2")
    assert cert.status == "verified"
    assert cert.enumerated == 317750  # C(125, 3)


@pytest.mark.parametrize("n", [0, -1])
def test_fs_refuses_empty_sets(n):
    domain = GroupDomain(GroupSpec.integer_box(1, 2))
    with pytest.raises(PreconditionError):
        find_monochromatic_fs("sum_squares", domain, n)


@pytest.mark.parametrize("domain", [
    GroupDomain(GroupSpec.integer_box(1, 2)),
    GroupDomain(GroupSpec.cyclic_power(2, 1)),
    GroupDomain(GroupSpec([Cyclic(3), PrimePower(2, 2)])),
    BranchSetDomain(0, 3), BranchSetDomain(1, 0), BranchSetDomain(2, 2),
    BranchSetDomain(2, 5), BranchSetDomain(2, 10 ** 9),
    BranchSetDomain(3, 3)])
def test_domain_size_counts_the_points(domain):
    # the CLI refuses n > size() instead of building the points twice
    assert domain.size() == len(domain.points())


# each oracle on a region of more than 80 items and on a neighbour of
# fewer: under a cap of 80 the first is refused and the second runs
@pytest.mark.parametrize("over,under", [
    # (2 bound + 1)^dim points: 81 and 49
    (lambda: no_seven_norms(2, 4), lambda: no_seven_norms(2, 3)),
    (lambda: find_monochromatic_span(2, 2, 4),
     lambda: find_monochromatic_span(2, 2, 3)),
    (lambda: find_monochromatic_fs(
        "sum_squares", GroupDomain(GroupSpec.integer_box(4, 2)), 2),
     lambda: find_monochromatic_fs(
        "sum_squares", GroupDomain(GroupSpec.integer_box(3, 2)), 2)),
    # sets of at most 3 (or 2) of 8 branches: 93 and 37
    (lambda: find_monochromatic_fs("delta", BranchSetDomain(3, 3), 2),
     lambda: find_monochromatic_fs("delta", BranchSetDomain(3, 2), 2)),
    # size (size - 1) pairs: 90 and 72
    (lambda: find_monochromatic_ap("product_sigma", GroupSpec((Cyclic(10),))),
     lambda: find_monochromatic_ap("product_sigma", GroupSpec((Cyclic(9),)))),
    # size^2 multiples at most: 81 and 49
    (lambda: find_monochromatic_subgroup(
        "subgroup_parity", GroupSpec((PrimePower(3, 2),))),
     lambda: find_monochromatic_subgroup(
        "subgroup_parity", GroupSpec((PrimePower(7, 1),)))),
], ids=["lemma3.1", "thm5.6", "thm3.2", "thm4.1", "thm5.4", "thm5.5"])
def test_oracles_refuse_a_region_past_the_cap(monkeypatch, over, under):
    from pattern_forge import verify
    monkeypatch.setattr(verify, "REGION_CAP", 80)
    with pytest.raises(SizeLimitError, match="exceeds the cap of 80"):
        over()
    assert under().enumerated > 0


def test_region_cap_admits_every_region_in_use():
    from pattern_forge import verify
    # the largest: the box of a thm5.6 run with dim 3 and bound 25
    verify.check_region(51, 3)
    verify.check_region(2, verify.REGION_CAP.bit_length() - 1)
    verify.check_region(1, 10 ** 18)
    for base, exp in [(2, verify.REGION_CAP.bit_length()),
                      (verify.REGION_CAP + 1, 1), (3, 10 ** 18)]:
        with pytest.raises(SizeLimitError):
            verify.check_region(base, exp)


@pytest.mark.parametrize("n,error", [(0, PreconditionError),
                                     (21, SizeLimitError)])
def test_first_in_class_refuses_set_sizes_outside_the_fs_range(n, error):
    points = list(GroupSpec.cyclic_power(2, 2).enumerate())
    with pytest.raises(error):
        first_in_class(range(4), n, points, operator.add, hash, 0, 4,
                       math.inf)


@pytest.mark.parametrize("budget", [None, 0, 5])
def test_fs_refuses_sets_past_the_fs_limit(budget):
    # the kernel refuses 21 generators; the oracle refuses them up
    # front, whatever the budget or the size of the colour classes
    domain = GroupDomain(GroupSpec.integer_box(3, 2))
    with pytest.raises(SizeLimitError):
        find_monochromatic_fs("sum_squares", domain, 21, budget=budget)


_FS_CASES = st.one_of(
    st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)]).map(
        lambda bd: ("sum_squares", GroupDomain(GroupSpec.integer_box(*bd)))),
    st.builds(lambda ms: ("product_sigma", GroupDomain(GroupSpec(
        tuple(Cyclic(m) for m in ms)))),
        st.lists(st.integers(2, 5), min_size=1, max_size=2)),
    st.just(("delta", BranchSetDomain(2, 2))),
)


@given(_FS_CASES, st.integers(1, 4), st.data())
@settings(max_examples=120)
def test_fs_class_pruning_agrees_with_naive_scan(case, n, data):
    colouring_id, domain = case
    points = domain.points()
    if n > len(points):
        n = len(points)
    budget = data.draw(st.none() | st.integers(0, math.comb(len(points), n)))
    colour, add = ((delta_colouring, BranchSet.symmetric_difference)
                   if colouring_id == "delta"
                   else (resolve_colouring(colouring_id), operator.add))
    status, enumerated, combo = naive_fs_scan(colour, points, n, budget, add)
    cert = find_monochromatic_fs(colouring_id, domain, n, budget=budget)
    assert (cert.status, cert.enumerated) == (status, enumerated)
    if combo is None:
        assert cert.witness is None
    else:
        assert cert.witness["x"] == [x.jsonable() for x in combo]


@pytest.mark.parametrize("bound,dim,enumerated", [(1, 3, 40), (2, 3, 315)])
def test_fs_counterexample_rank_matches_naive_scan(bound, dim, enumerated):
    # the witness sits deep in the lex order, past other colour classes
    domain = GroupDomain(GroupSpec.integer_box(bound, dim))
    naive = naive_fs_scan(resolve_colouring("sum_squares"), domain.points(), 2)
    cert = find_monochromatic_fs("sum_squares", domain, 2)
    assert naive[:2] == ("counterexample", enumerated)
    assert (cert.status, cert.enumerated) == naive[:2]
    assert cert.witness["x"] == [x.jsonable() for x in naive[2]]


class _CountingDomain(GroupDomain):
    """A group domain that counts the sums the oracle asks it for."""

    def __init__(self, spec):
        super().__init__(spec)
        self.adds = 0

    def walk_form(self, points, colour):
        keys, add, key_colour = super().walk_form(points, colour)

        def counted(a, b):
            self.adds += 1
            return add(a, b)
        return keys, counted, key_colour


@pytest.mark.parametrize("budget,most",
                         [(0, 0), (10, 0), (1_000, 10), (None, 1_303)])
def test_fs_kernel_work_is_bounded_by_the_budget(budget, most):
    # a prefix whose lex-smallest completion ranks past the budget ends
    # its class, so a small budget never walks the pruned trees; 1,303
    # adds cover the whole box
    domain = _CountingDomain(GroupSpec.integer_box(2, 3))
    cert = find_monochromatic_fs("sum_squares", domain, 3, budget=budget)
    assert cert.status == ("verified" if budget is None else "inconclusive")
    assert domain.adds <= most


@pytest.mark.parametrize("spec,colouring_id", [
    (GroupSpec.integer_box(2, 2), "sum_squares"),
    (GroupSpec([RationalBox(2, 1), IntegerBox(1)]), "sum_squares"),
    (GroupSpec([Cyclic(3), PrimePower(2, 2)]), "product_sigma"),
    (GroupSpec([Cyclic(4), IntegerBox(1)]), "product_sigma")])
def test_group_walk_form_is_the_elements_arithmetic(spec, colouring_id):
    # the oracle walks coordinate tuples; each sum and colour it reads
    # must be the Element's
    domain = GroupDomain(spec)
    points = domain.points()
    colour = resolve_colouring(colouring_id)
    keys, add, key_colour = domain.walk_form(points, colour)
    assert keys == [x.coords for x in points]
    for x, kx in zip(points, keys):
        assert key_colour(kx) == colour(x)
        for y, ky in zip(points, keys):
            assert add(kx, ky) == (x + y).coords
            assert key_colour(add(kx, ky)) == colour(x + y)


def test_fs_group_walk_adds_no_elements(monkeypatch):
    # sums stay coordinate tuples until the colouring reads them, and
    # with no budget no prefix is ranked
    from pattern_forge import verify
    counts = {"add": 0, "rank": 0}
    add, rank = Element.__add__, verify._lex_rank

    def counted_add(self, other):
        counts["add"] += 1
        return add(self, other)

    def counted_rank(combo, size):
        counts["rank"] += 1
        return rank(combo, size)

    monkeypatch.setattr(Element, "__add__", counted_add)
    monkeypatch.setattr(verify, "_lex_rank", counted_rank)
    domain = GroupDomain(GroupSpec.integer_box(2, 3))
    cert = find_monochromatic_fs("sum_squares", domain, 3)
    assert (cert.status, cert.enumerated) == ("verified", 317750)
    assert counts == {"add": 0, "rank": 0}
    cert = find_monochromatic_fs("sum_squares", domain, 3, budget=1_000)
    assert cert.status == "inconclusive" and counts["rank"] > 0


def test_fs_certificates_are_reproducible():
    domain = BranchSetDomain(2, 2)
    a = find_monochromatic_fs("delta", domain, 2)
    b = find_monochromatic_fs("delta", BranchSetDomain(2, 2), 2)
    assert canonical_json(a.jsonable()) == canonical_json(b.jsonable())


def test_fs_rejects_mismatched_domain():
    with pytest.raises(PreconditionError):
        find_monochromatic_fs("delta", GroupDomain(GroupSpec.cyclic_power(3, 1)), 2)
    with pytest.raises(PreconditionError):
        find_monochromatic_fs("sum_squares", BranchSetDomain(2, 2), 2)


def test_certificate_json_shape():
    cert = no_seven_norms(1, 1)
    data = json.loads(canonical_json(cert.jsonable()))
    assert list(data) == ["claim", "domain", "status", "enumerated",
                          "witness", "order"]
    assert data["status"] == "verified"
    assert data["order"] == "lex-v1"


# -- matrix identities -------------------------------------------------------------

Z5_5 = GroupSpec.cyclic_power(5, 5)


def test_matrix_identities_hold_for_any_colouring():
    for cid in ("product_sigma", "subgroup_parity"):
        cert = check_fs_matrix_identities(
            Z5_5, [0, 1], 2, [3, 4], resolve_colouring(cid))
        assert cert.status == "verified", cid


def test_matrix_identities_under_random_colourings():
    import random
    rng = random.Random(7)
    for trial in range(5):
        table = {}

        def c(x, table=table):
            if x not in table:
                table[x] = ColourToken.int_(rng.randrange(4))
            return table[x]

        cert = check_fs_matrix_identities(Z5_5, [0, 1], 2, [3, 4], c)
        assert cert.status == "verified"


def test_matrix_identities_ordering_precondition():
    with pytest.raises(PreconditionError):
        check_fs_matrix_identities(Z5_5, [0, 3], 2, [3, 4],
                                   resolve_colouring("product_sigma"))


def test_constant_colouring_makes_the_matrix_sums_monochromatic():
    constant = lambda x: ColourToken.int_(0)
    cert = check_fs_matrix_identities(Z5_5, [0, 1], 2, [3, 4], constant)
    assert cert.status == "verified"
    e = Z5_5.basis()
    col0 = [e[2] - e[a] for a in (0, 1)]
    col1 = [e[g] - e[2] for g in (3, 4)]
    values = col0 + col1 + [x + y for x in col0 for y in col1]
    assert len(set(values)) == 8
    assert {constant(v) for v in values} == {ColourToken.int_(0)}


@pytest.mark.parametrize("alphas,gammas", [([0, 0], [3, 4]),
                                           ([0, 1], [3, 3])])
def test_repeated_index_gives_equal_entries(alphas, gammas):
    # a repeated index gives two equal entries of one column; every
    # colour identity still holds, so only the distinctness check fails
    cert = check_fs_matrix_identities(Z5_5, alphas, 2, gammas,
                                      resolve_colouring("product_sigma"))
    assert (cert.status, cert.enumerated) == ("counterexample", 9)
    assert cert.witness == {"failed": [{"entries_distinct": False}]}


# -- seven equal norms ---------------------------------------------------------------

@pytest.mark.parametrize("dim,bound", [(1, 1), (2, 2), (1, 5)])
def test_no_seven_norms_small(dim, bound):
    assert no_seven_norms(dim, bound).status == "verified"


def test_no_seven_norms_budget():
    assert no_seven_norms(3, 3, budget=5).status == "inconclusive"


@pytest.mark.parametrize("hit", [
    # 0 three times: every norm is 0, so only distinctness fails
    lambda members, n: (0,) * n,
    # the first three vectors of norm 1: (-1, 0) + (0, -1) has norm 2
    lambda members, n: tuple(members[:n]) if len(members) >= n else None])
def test_no_seven_norms_rechecks_its_witness(monkeypatch, hit):
    from pattern_forge import verify
    monkeypatch.setattr(verify, "first_in_class",
                        lambda members, n, *rest: hit(members, n))
    with pytest.raises(AssertionError, match="re-check"):
        no_seven_norms(2, 1)


# the certificates of the bucketed triple scan that preceded the shared
# finite-sums kernel; at dim 3, bound 3 the norm buckets hold 38,416
# triples
@pytest.mark.parametrize("dim,bound,budget,status,enumerated", [
    (2, 3, None, "verified", 192), (3, 3, None, "verified", 38_416),
    (3, 4, None, "verified", 126_960), (4, 2, None, "verified", 545_872),
    (3, 3, 0, "inconclusive", 0), (3, 3, 5, "inconclusive", 5),
    (3, 3, 38_415, "inconclusive", 38_415),
    (3, 3, 38_416, "verified", 38_416), (3, 3, 38_417, "verified", 38_416)])
def test_no_seven_norms_certificates(dim, bound, budget, status, enumerated):
    cert = no_seven_norms(dim, bound, budget=budget)
    assert canonical_json(cert.jsonable()) == json.dumps(
        {"claim": "lemma3.1", "domain": {"dim": dim, "bound": bound},
         "status": status, "enumerated": enumerated, "witness": None,
         "order": "lex-v1"}, separators=(",", ":"))


# -- arithmetic progressions ----------------------------------------------------------

def test_ap_verified_on_odd_order_groups():
    for factors in ((PrimePower(3, 1),) * 3, (PrimePower(5, 1),) * 2):
        cert = find_monochromatic_ap("product_sigma", GroupSpec(factors))
        assert cert.status == "verified"


def test_ap_counterexample_on_boolean_group():
    cert = find_monochromatic_ap("product_sigma", GroupSpec.cyclic_power(2, 2))
    assert cert.status == "counterexample"
    spec = GroupSpec.cyclic_power(2, 2)
    colour = resolve_colouring("product_sigma")
    a = spec.element(cert.witness["a"])
    b = spec.element(cert.witness["b"])
    tokens = {colour(a), colour(a + b), colour(a + b + b)}
    assert len(tokens) == 1


# -- subgroups ---------------------------------------------------------------------------

def test_subgroup_parity_verified_on_prime_power_cyclic():
    for p, k in [(3, 1), (3, 2), (5, 1)]:
        cert = find_monochromatic_subgroup(
            "subgroup_parity", GroupSpec((PrimePower(p, k),)))
        assert cert.status == "verified", (p, k)


_lattice = functools.cache(naive_subgroups)


@pytest.mark.parametrize("factors,count", [
    ((Cyclic(5), Cyclic(5)), 8),
    ((Cyclic(3),) * 3, 28),
    ((Cyclic(2),) * 4, 67),
    ((Cyclic(4), Cyclic(2)), 8),
    ((Cyclic(9), Cyclic(3)), 10),
], ids=["z5^2", "z3^3", "z2^4", "z4xz2", "z9xz3"])
def test_subgroup_lattice_has_the_textbook_count(factors, count):
    # the naive lattice the oracle is compared against below is complete
    lattice = _lattice(GroupSpec(factors))
    assert len(lattice) == count
    # each node is closed under subtraction, so a subgroup
    assert all(a - b in h for h in lattice for a in h for b in h)


# groups of rank at most 3, with a Z/2 whose one cyclic subgroup is
# monochromatic off zero under every colouring
EQUIVALENCE_SPECS = [
    GroupSpec((Cyclic(2),)), GroupSpec((Cyclic(5),)),
    GroupSpec.cyclic_power(3, 2), GroupSpec((Cyclic(4), Cyclic(2))),
    GroupSpec((Cyclic(9), Cyclic(3))), GroupSpec((Cyclic(2), Cyclic(3))),
    GroupSpec.cyclic_power(2, 3), GroupSpec.cyclic_power(3, 3)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cyclic_scan_decides_every_subgroup(data):
    # a subgroup is monochromatic off zero only if a cyclic subgroup
    # inside it is, so scanning the cyclic ones agrees with the lattice
    import pattern_forge.verify
    spec = data.draw(st.sampled_from(EQUIVALENCE_SPECS))
    k = data.draw(st.sampled_from([0, 2, 3]))
    if k:
        table = data.draw(st.lists(st.integers(0, k - 1),
                                   min_size=spec.size(),
                                   max_size=spec.size()))
        index = {x: i for i, x in enumerate(spec.enumerate())}

        def colour(x):
            return ColourToken.int_(table[index[x]])
    else:
        colour = resolve_colouring("product_sigma")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pattern_forge.verify, "resolve_colouring",
                   lambda cid: colour)
        cert = find_monochromatic_subgroup("table", spec)

    def monochromatic(h):
        return len({colour(e) for e in h if not e.is_zero()}) == 1

    some = any(len(h) > 1 and monochromatic(h) for h in _lattice(spec))
    assert cert.status == ("counterexample" if some else "verified")
    if some:
        h = frozenset(spec.element(c) for c in cert.witness["subgroup"])
        assert h in _lattice(spec) and len(h) > 1 and monochromatic(h)


def test_subgroup_counterexample_under_weak_colouring():
    # one-generator subgroups of a Boolean group are single nonzero points
    cert = find_monochromatic_subgroup("product_sigma",
                                       GroupSpec.cyclic_power(2, 1))
    assert cert.status == "counterexample"


def test_subgroup_witness_names_the_lex_first_generator(monkeypatch):
    # under a constant colouring the first cyclic subgroup, <1> of Z/5,
    # is monochromatic; 1, 2, 3 and 4 all generate it
    import pattern_forge.verify
    monkeypatch.setattr(pattern_forge.verify, "resolve_colouring",
                        lambda cid: lambda x: ColourToken.bit(0))
    cert = find_monochromatic_subgroup("constant", GroupSpec((Cyclic(5),)))
    assert cert.status == "counterexample" and cert.enumerated == 1
    assert cert.witness["generator"] == [1]
    assert cert.witness["subgroup"] == [[a] for a in range(5)]


def test_trivial_group_is_vacuously_verified():
    # a spec whose only cyclic subgroup is {0}: nothing to enumerate
    cert = find_monochromatic_subgroup("subgroup_parity",
                                       GroupSpec((PrimePower(3, 1),)))
    assert cert.enumerated >= 1  # the whole group itself


# -- spans --------------------------------------------------------------------------------

@pytest.mark.parametrize("a,dim,bound", [(2, 3, 5), (3, 2, 5), (2, 1, 1)])
def test_span_certificates(a, dim, bound):
    assert find_monochromatic_span(a, dim, bound).status == "verified"


def test_span_checks_its_parameters_once(monkeypatch):
    from pattern_forge import colourings, verify
    calls = []

    def counted(n):
        calls.append(n)
        return n in (2, 3, 5)

    monkeypatch.setattr(colourings, "is_prime", counted)
    cert = find_monochromatic_span(3, 2, 3)
    assert (cert.status, cert.enumerated, calls) == ("verified", 48, [3])
    with pytest.raises(ValueError):
        find_monochromatic_span(4, 2, 3)
    # the loop reads the unchecked kernel, and its hit is re-checked
    # through the checked colouring before it is reported
    monkeypatch.setattr(verify, "valuation_bit",
                        lambda coords, a: ColourToken.bit(0))
    with pytest.raises(AssertionError, match="re-check"):
        find_monochromatic_span(3, 2, 3)


# -- support growth under product sigma -------------------------------------------------

Z3_6 = GroupSpec.cyclic_power(3, 6)


def test_support_growth_verified_on_honest_monochromatic_set():
    xs = [Z3_6.element([1, 2, 0, 0, 0, 0]), Z3_6.element([0, 1, 2, 0, 0, 0])]
    cert = fs_support_growth_check(Z3_6, xs)
    assert cert.status == "verified"


def test_support_growth_singleton_vacuous():
    cert = fs_support_growth_check(Z3_6, [Z3_6.element([1, 0, 0, 0, 0, 0])])
    assert cert.status == "verified"


def test_support_growth_disjoint_sunflower_fails_monochromaticity():
    xs = [Z3_6.element([1, 0, 0, 0, 0, 0]), Z3_6.element([0, 1, 0, 0, 0, 0])]
    with pytest.raises(PreconditionError):
        fs_support_growth_check(Z3_6, xs)


def test_support_growth_nested_supports_are_an_input_error():
    xs = [Z3_6.element([1, 0, 0, 0, 0, 0]), Z3_6.element([1, 1, 0, 0, 0, 0])]
    with pytest.raises(PreconditionError):
        fs_support_growth_check(Z3_6, xs)


def test_support_growth_refuses_the_zero_set():
    # {0} is monochromatic with support size 0, and its lone empty
    # support is no sunflower whose sum could break the colour
    Z3_2 = GroupSpec.cyclic_power(3, 2)
    with pytest.raises(PreconditionError, match="support size is 0"):
        fs_support_growth_check(Z3_2, [Z3_2.zero()])


@st.composite
def _equal_support_family(draw):
    """(spec, s, xs): distinct elements of (Z/m)^L or an integer box, all
    of support size s.  Some families start from an (s + 1)-sunflower
    with a random root, petals and nonzero values; extra members have
    random supports of size s."""
    length = draw(st.integers(2, 6))
    if draw(st.booleans()):
        m = draw(st.integers(2, 6))
        spec = GroupSpec.cyclic_power(m, length)
        nonzero = st.integers(1, m - 1)
    else:
        bound = draw(st.integers(1, 2))
        spec = GroupSpec.integer_box(bound, length)
        nonzero = st.integers(-bound, bound).filter(bool)
    s = draw(st.integers(1, length))

    def element(support):
        coords = [0] * length
        for i in support:
            coords[i] = draw(nonzero)
        return spec.element(coords)

    xs = []
    # a root of size r leaves s + 1 petals of size s - r to place
    roots = [r for r in range(s + 1) if r + (s + 1) * (s - r) <= length]
    if draw(st.booleans()):
        r = draw(st.sampled_from(roots))
        cells = draw(st.permutations(range(length)))
        petal = s - r
        xs += [element(cells[:r] + cells[r + i * petal:r + (i + 1) * petal])
               for i in range(s + 1)]
    for _ in range(draw(st.integers(0 if xs else 1, 3))):
        xs.append(element(draw(st.permutations(range(length)))[:s]))
    return spec, s, draw(st.permutations(list(dict.fromkeys(xs))))


@given(_equal_support_family())
@settings(max_examples=200)
def test_support_growth_refuses_every_sunflower(case):
    # the certificate rests on its precondition check: a family holding
    # an (s + 1)-sunflower of supports must fail it, by one of the two
    # cases of the argument in fs_support_growth_check's docstring
    spec, s, xs = case
    found = naive_sunflower([supp(x) for x in xs], s + 1)
    if found is None:
        try:
            cert = fs_support_growth_check(spec, xs)
        except PreconditionError:
            return
        assert (cert.status, cert.enumerated) == (
            "verified", math.comb(len(xs), s + 1))
        return
    with pytest.raises(PreconditionError):
        fs_support_growth_check(spec, xs)
    idxs, root = found
    members = [xs[i] for i in idxs]
    if len(root) < s:
        # nonempty disjoint petals: the sum outgrows the colour
        assert len(supp(functools.reduce(operator.add, members))) > s
    else:
        # one shared support: distinct members differ in colour
        assert len({product_sigma_colouring(x) for x in members}) > 1


@pytest.mark.parametrize("spec, count", [
    (GroupSpec.cyclic_power(3, 3), 2), (GroupSpec.cyclic_power(2, 3), 3),
    (GroupSpec.cyclic_power(4, 2), 0), (GroupSpec((Cyclic(3), Cyclic(9))), 0)])
def test_support_growth_counts_every_small_monochromatic_set(spec, count):
    # count: the monochromatic 2- and 3-element sets; every one is a
    # pair with s >= 2, and none has a third member
    points = [x for x in spec.enumerate() if not x.is_zero()]
    checked = 0
    for n in (2, 3):
        for combo in itertools.combinations(points, n):
            colours = {product_sigma_colouring(x)
                       for x in naive_subset_sums(combo)}
            if len(colours) != 1:
                continue
            cert = fs_support_growth_check(spec, combo)
            s = len(supp(combo[0]))
            assert (cert.status, cert.enumerated) == (
                "verified", math.comb(n, s + 1))
            checked += 1
    assert checked == count
