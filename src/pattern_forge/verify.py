"""Brute-force oracles that certify, over bounded enumerable domains, the
negative partition statements and the algebraic identities behind the
positive ones.

Every oracle returns a Certificate.  "verified" is only issued after the
declared region has been enumerated completely; counterexample witnesses
are re-evaluated outside the search loop before being reported.  A
region of more than REGION_CAP items is refused before it is built.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Optional, Sequence

from .colourings import (BranchSet, check_valuation_base,
                         check_valuation_factors, delta_colouring,
                         product_sigma_colouring, resolve_colouring,
                         valuation_bit, valuation_colouring)
from .groups import (DEFAULT_FS_LIMIT, Element, GroupSpec, PreconditionError,
                     SizeLimitError, fs_set_formal, multiples, subset_sums,
                     supp)
from .tokens import ColourToken, Record

_set = object.__setattr__

__all__ = [
    "Certificate", "GroupDomain", "BranchSetDomain", "first_in_class",
    "find_monochromatic_fs", "check_fs_matrix_identities", "no_seven_norms",
    "find_monochromatic_ap", "find_monochromatic_subgroup",
    "find_monochromatic_span", "fs_support_growth_check", "check_region",
]

#: enumeration order contract recorded in every certificate
ORDER_VERSION = "lex-v1"

#: the most items an enumerating oracle may build: its points, or its
#: pairs for thm5.4, or for thm5.5 its multiples; the largest region in
#: use, the 51^3 - 1 nonzero points of a thm5.6 box, fits
REGION_CAP = 1 << 18


def check_region(base: int, exp: int = 1) -> None:
    """Refuse a region of base ** exp items past REGION_CAP with
    SizeLimitError.  For base >= 2 an exp at or past the cap's bit
    length is over the cap, so a huge power is never formed."""
    if base > 1 and (exp >= REGION_CAP.bit_length()
                     or base ** exp > REGION_CAP):
        power = f"{base}^{exp}" if exp != 1 else f"{base}"
        raise SizeLimitError(
            f"a region of {power} items exceeds the cap of {REGION_CAP}")


VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"
INCONCLUSIVE = "inconclusive"


class Certificate(Record):
    __slots__ = ("claim", "domain", "status", "enumerated", "witness")

    def __init__(self, claim: str, domain: dict, status: str,
                 enumerated: int, witness: Optional[dict] = None):
        _set(self, "claim", claim)
        _set(self, "domain", domain)
        _set(self, "status", status)
        _set(self, "enumerated", enumerated)
        _set(self, "witness", witness)

    def jsonable(self):
        return {"claim": self.claim, "domain": self.domain,
                "status": self.status, "enumerated": self.enumerated,
                "witness": self.witness, "order": ORDER_VERSION}


# ---------------------------------------------------------------------------
# domains for the finite-sums oracle


class GroupDomain:
    """A finite (or box-clipped) group spec as an enumerable sum domain.
    The oracle walks its points as coordinate tuples, so a sum builds
    an Element only when it reaches the colouring."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec

    def points(self) -> list:
        return list(self.spec.enumerate())

    def walk_form(self, points: list, colour):
        """(keys, add, colour) for `first_in_class`: the points'
        coordinate tuples, the spec's coordinate adder, and `colour`
        read on a coordinate tuple."""
        spec = self.spec
        return ([x.coords for x in points], spec.add_coords,
                lambda coords: colour(Element(spec, coords)))

    def size(self) -> int:
        """len(self.points()), without building them."""
        return self.spec.size()

    @staticmethod
    def subset_sums(xs: Sequence[Element]) -> list:
        return fs_set_formal(xs)

    def describe(self) -> dict:
        return {"kind": "group", "factors": self.spec.jsonable()["factors"],
                "size": self.spec.size()}


class BranchSetDomain:
    """All branch sets of size <= max_size over branches of length kappa,
    under symmetric difference."""

    @staticmethod
    def add(a: BranchSet, b: BranchSet) -> BranchSet:
        # resolved at call time, so a later wrapper on BranchSet is called
        return a.symmetric_difference(b)

    def __init__(self, kappa: int, max_size: int):
        if kappa < 0:
            raise PreconditionError(f"need kappa >= 0, got {kappa}")
        self.kappa = kappa
        self.max_size = max_size

    def points(self) -> list:
        branches = ["".join(bits)
                    for bits in itertools.product("01", repeat=self.kappa)]
        return [BranchSet(combo)
                for size in range(min(self.max_size, len(branches)) + 1)
                for combo in itertools.combinations(branches, size)]

    def size(self) -> int:
        """len(self.points()), without building them.  A region past
        REGION_CAP is refused as it is counted: a kappa at or past the
        cap's bit length at once, else once the running sum passes it."""
        check_region(2, self.kappa)
        branches, total = 1 << self.kappa, 0
        for size in range(min(self.max_size, branches) + 1):
            total += math.comb(branches, size)
            check_region(total)
        return total

    def walk_form(self, points: list, colour):
        """(keys, add, colour) for `first_in_class`: the points
        themselves, under symmetric difference."""
        return points, self.add, colour

    @staticmethod
    def subset_sums(xs: Sequence[BranchSet]) -> list:
        return subset_sums(xs, BranchSetDomain.add)

    def describe(self) -> dict:
        return {"kind": "branch_sets", "kappa": self.kappa,
                "max_size": self.max_size}


def _cached(colour):
    """The colouring behind a dict cache: each point is coloured once."""
    cache: dict = {}

    def col(x):
        t = cache.get(x)
        if t is None:
            t = cache[x] = colour(x)
        return t
    return col


def _resolve_for_domain(colouring_id: str, domain):
    if colouring_id == "delta":
        if not isinstance(domain, BranchSetDomain):
            raise PreconditionError(
                "the delta colouring lives on branch-set domains")
        return delta_colouring
    if not isinstance(domain, GroupDomain):
        raise PreconditionError(
            f"colouring {colouring_id!r} lives on group domains")
    return resolve_colouring(colouring_id)


# ---------------------------------------------------------------------------
# monochromatic finite-sum sets


def _lex_rank(combo: Sequence[int], size: int) -> int:
    """Position of the increasing index tuple `combo` in the lex order of
    itertools.combinations(range(size), len(combo)), by the combinatorial
    number system applied to the complemented indices."""
    k = len(combo)
    return math.comb(size, k) - 1 - sum(
        math.comb(size - 1 - c, k - i) for i, c in enumerate(combo))


_STOP = object()


def first_in_class(members: Sequence[int], n: int, points: Sequence, add,
                   col, token, size: int, limit) -> Optional[tuple]:
    """The lex-first n-tuple of `members` whose nonempty subset sums all
    have colour `token` and whose _lex_rank(tuple, size) is below
    `limit` (math.inf for no limit), or None.  `members` are increasing
    indices into `points`, all of colour `token` under `col`; `add` is
    the domain's sum.  n must lie in 1..DEFAULT_FS_LIMIT.

    Depth-first over the lex-ordered prefixes, keeping the 2^k - 1
    subset sums of the current prefix in the order of `subset_sums`,
    built prefix by prefix so that the walk can stop early: extending it
    by x computes and colours only x's new sums s + x, and drops the
    extension at the first one off `token`.  Sound, because every subset
    sum of a prefix is a subset sum of each of its extensions.  The walk ends once the
    lex-smallest completion of a prefix ranks at or past `limit`: every
    later leaf lies lex-after it, and lex order inside `members` is the
    order of `_lex_rank`."""
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if n > DEFAULT_FS_LIMIT:
        raise SizeLimitError(
            f"n = {n} exceeds the fs limit {DEFAULT_FS_LIMIT}")
    last = len(members) - n  # choice d of a tuple sits at position <= last + d
    # every n-tuple ranks below C(size, n), so a limit at or past it
    # never ends the walk and no rank need be computed
    bounded = limit < math.comb(size, n)
    combo: list = []

    def walk(start: int, sums: list):
        """The hit below the current prefix, _STOP, or None to go on."""
        depth = len(combo)
        for j in range(start, last + depth + 1):
            x = points[members[j]]
            new = [x]
            for s in sums:
                t = add(s, x)
                if col(t) != token:
                    break
                new.append(t)
            else:
                combo.append(members[j])
                if bounded and _lex_rank(
                        combo + members[j + 1:j + n - depth], size) >= limit:
                    return _STOP
                if depth + 1 == n:
                    return tuple(combo)
                found = walk(j + 1, sums + new)
                if found is not None:
                    return found
                combo.pop()
        return None

    found = walk(0, [])
    return None if found is _STOP else found


def find_monochromatic_fs(colouring_id: str, domain, n: int,
                          budget: Optional[int] = None,
                          claim: str = "fs") -> Certificate:
    """Look for an n-subset of the domain whose full subset-sum set is a
    single colour; "verified" means the whole lex-ordered region of
    n-subsets holds none.

    The singletons are among the subset sums, so a qualifying set lies in
    one colour class of the points.  Each class goes through
    `first_in_class`; the rest of the region, and every combination a
    pruned prefix rules out, is covered without evaluation.  `enumerated`
    still counts the lex-ordered region: C(N, n) when verified, the
    budget when inconclusive, and one past the lex rank of the first
    qualifying combination on a counterexample.  Sets of more than
    DEFAULT_FS_LIMIT points are refused before any sum is built, and a
    domain of more than REGION_CAP points before it is built."""
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if budget is not None and budget < 0:
        raise PreconditionError(f"need budget >= 0, got {budget}")
    colour = _resolve_for_domain(colouring_id, domain)
    check_region(domain.size())
    points = domain.points()
    keys, add, key_colour = domain.walk_form(points, colour)
    col = _cached(key_colour)
    desc = {"colouring": colouring_id, "n": n, **domain.describe()}
    total = math.comb(len(points), n)
    limit = total if budget is None else min(budget, total)

    classes: dict = {}
    for i, x in enumerate(keys):
        classes.setdefault(col(x), []).append(i)
    best = None
    for token, members in classes.items():
        hit = first_in_class(members, n, keys, add, col, token,
                             len(points), limit)
        if hit is not None:
            limit, best = _lex_rank(hit, len(points)), hit
    if best is not None:
        witness = _recheck_fs_witness(colour, domain,
                                      [points[i] for i in best])
        return Certificate(claim, desc, COUNTEREXAMPLE, limit + 1, witness)
    if limit < total:
        return Certificate(claim, desc, INCONCLUSIVE, limit)
    return Certificate(claim, desc, VERIFIED, total)


def _recheck_fs_witness(colour, domain, combo) -> dict:
    """Independent re-evaluation of a monochromaticity witness: recompute
    every subset sum and colour from scratch and insist they agree."""
    sums = domain.subset_sums(combo)
    tokens = [colour(s) for s in sums]
    if any(t != tokens[0] for t in tokens):
        raise AssertionError("witness failed its independent re-check")
    return {"x": [x.jsonable() for x in combo],
            "colour": tokens[0].jsonable(),
            "fs_values": [s.jsonable() for s in sums]}


# ---------------------------------------------------------------------------
# the two-column matrix identities behind the pair-sum result


def check_fs_matrix_identities(spec: GroupSpec, alphas: Sequence[int],
                               beta: int, gammas: Sequence[int],
                               colouring: Callable[[Element], ColourToken]
                               ) -> Certificate:
    """Build the matrix x_{i,0} = g_beta - g_{alpha_i}, x_{i,1} =
    g_{gamma_i} - g_beta over the standard basis g of `spec` and verify
    that every entry and every cross sum x_{i,0} + x_{j,1} has the colour
    of the matching generator difference, and that the entries are
    pairwise distinct.  The identities are algebraic, so any colouring
    passes on honest inputs.

    The basis is independent by construction: g_i is nonzero on
    coordinate i, where every other g_j is 0, and each factor's add and
    neg map (0, 0) to 0, so every element of the subgroup the other
    vectors generate is 0 there and g_i lies outside it.  No check runs."""
    alphas = list(alphas)
    gammas = list(gammas)
    if not alphas or len(alphas) != len(gammas):
        raise PreconditionError("need equally many low and high indices")
    if not (max(alphas) < beta < min(gammas)):
        raise PreconditionError(
            "indices must satisfy max(alphas) < beta < min(gammas)")
    rank = len(spec.factors)
    if min(alphas) < 0 or max(gammas) >= rank:
        raise PreconditionError(
            f"indices must lie in 0..{rank - 1}, the generator range")
    gens = spec.basis()

    def d(i: int, j: int) -> ColourToken:
        # every call has i < j, by the index precondition above
        return colouring(gens[j] - gens[i])

    col0 = [gens[beta] - gens[a] for a in alphas]
    col1 = [gens[g] - gens[beta] for g in gammas]

    desc = {"rows": len(alphas), "alphas": alphas, "beta": beta,
            "gammas": gammas}
    checks = 0
    failures = []
    for i, a in enumerate(alphas):
        checks += 1
        if colouring(col0[i]) != d(a, beta):
            failures.append({"entry": [i, 0]})
    for j, g in enumerate(gammas):
        checks += 1
        if colouring(col1[j]) != d(beta, g):
            failures.append({"entry": [j, 1]})
    for i, a in enumerate(alphas):
        for j, g in enumerate(gammas):
            checks += 1
            if colouring(col0[i] + col1[j]) != d(a, g):
                failures.append({"cross": [i, j]})
    checks += 1
    entries = col0 + col1
    if len(set(entries)) != len(entries):
        failures.append({"entries_distinct": False})
    if failures:
        return Certificate("thm2.3", desc, COUNTEREXAMPLE, checks,
                           {"failed": failures})
    return Certificate("thm2.3", desc, VERIFIED, checks)


# ---------------------------------------------------------------------------
# no seven equal norms


def no_seven_norms(dim: int, bound: int,
                   budget: Optional[int] = None) -> Certificate:
    """Exhaust distinct triples of integer vectors in [-bound, bound]^dim
    for x, y, z with |x| = |y| = |z| = |x+y| = |x+z| = |y+z| = |x+y+z|.
    The seven norms are those of the subset sums of {x, y, z}, so this is
    the finite-sums check with the squared norm as colouring: each bucket
    of one squared norm goes through `first_in_class`.
    `enumerated` counts triples bucket by bucket (ascending norm, lex
    inside a bucket)."""
    if budget is not None and budget < 0:
        raise PreconditionError(f"need budget >= 0, got {budget}")
    desc = {"dim": dim, "bound": bound}
    check_region(2 * bound + 1, dim)
    vectors = list(itertools.product(range(-bound, bound + 1), repeat=dim))

    def sq(v):
        return sum(map(operator.mul, v, v))

    def vadd(u, v):
        return tuple(map(operator.add, u, v))

    buckets: dict = {}
    for v in vectors:
        buckets.setdefault(sq(v), []).append(v)

    examined = 0
    for r, members in sorted(buckets.items()):
        # a bucket of fewer than three vectors, such as {0}, has an empty
        # region and passes through
        region = math.comb(len(members), 3)
        limit = region if budget is None else min(region, budget - examined)
        hit = first_in_class(list(range(len(members))), 3, members, vadd,
                             sq, r, len(members), limit)
        if hit is not None:
            x, y, z = (members[i] for i in hit)
            if (len({x, y, z}) != 3
                    or {sq(s) for s in subset_sums([x, y, z], vadd)} != {r}):
                raise AssertionError("witness failed its re-check")
            witness = {"x": list(x), "y": list(y), "z": list(z),
                       "norm_sq": r}
            return Certificate("lemma3.1", desc, COUNTEREXAMPLE,
                               examined + _lex_rank(hit, len(members)) + 1,
                               witness)
        if limit < region:
            return Certificate("lemma3.1", desc, INCONCLUSIVE,
                               examined + limit)
        examined += region
    return Certificate("lemma3.1", desc, VERIFIED, examined)


# ---------------------------------------------------------------------------
# arithmetic progressions of length three


def find_monochromatic_ap(colouring_id: str, spec: GroupSpec) -> Certificate:
    """Exhaust pairs (a, b), b != 0, for a monochromatic {a, a+b, a+2b}."""
    colour = resolve_colouring(colouring_id)
    size = spec.size()
    check_region(size * (size - 1))
    points = list(spec.enumerate())
    desc = {"colouring": colouring_id,
            "factors": spec.jsonable()["factors"], "size": size}
    col = _cached(colour)

    examined = 0
    for a in points:
        for b in points:
            if b.is_zero():
                continue
            examined += 1
            terms = {a, a + b, a + b + b}
            tokens = {col(t) for t in terms}
            if len(tokens) == 1:
                fresh = {colour(t) for t in (a, a + b, a + b + b)}
                if len(fresh) != 1:
                    raise AssertionError("witness failed its re-check")
                witness = {"a": a.jsonable(), "b": b.jsonable(),
                           "colour": next(iter(fresh)).jsonable()}
                return Certificate("thm5.4", desc, COUNTEREXAMPLE,
                                   examined, witness)
    return Certificate("thm5.4", desc, VERIFIED, examined)


# ---------------------------------------------------------------------------
# monochromatic subgroups


def _cyclic_subgroups(spec: GroupSpec) -> dict:
    """Each nontrivial cyclic subgroup, as a frozenset of elements, with
    the lex-first element that generates it, in order of that element."""
    gens: dict = {}
    for x in spec.enumerate():
        if not x.is_zero():
            gens.setdefault(frozenset(multiples(x)), x)
    return gens


def find_monochromatic_subgroup(colouring_id: str,
                                spec: GroupSpec) -> Certificate:
    """Check that no nontrivial subgroup is monochromatic off zero.  Only
    the cyclic subgroups are enumerated, and that decides every subgroup:
    a nontrivial H contains a nontrivial <x>, and <x> minus 0 lies in H
    minus 0, so H is monochromatic off zero only if <x> is.  The domain
    key set to False records that only cyclic subgroups were enumerated.
    An element of infinite order raises PreconditionError."""
    colour = resolve_colouring(colouring_id)
    size = spec.size()
    # each of the size - 1 nonzero elements lists at most size multiples
    check_region(size, 2)
    desc = {"colouring": colouring_id,
            "factors": spec.jsonable()["factors"], "size": size,
            "full_lattice": False}
    col = _cached(colour)

    examined = 0
    for h, g in _cyclic_subgroups(spec).items():
        nontrivial = [e for e in h if not e.is_zero()]
        examined += 1
        tokens = {col(e) for e in nontrivial}
        if len(tokens) == 1:
            fresh = {colour(e) for e in nontrivial}
            if len(fresh) != 1:
                raise AssertionError("witness failed its re-check")
            witness = {"generator": g.jsonable(),
                       "subgroup": sorted(e.jsonable() for e in h),
                       "colour": next(iter(fresh)).jsonable()}
            return Certificate("thm5.5", desc, COUNTEREXAMPLE,
                               examined, witness)
    return Certificate("thm5.5", desc, VERIFIED, examined)


# ---------------------------------------------------------------------------
# monochromatic spans over the integers


def find_monochromatic_span(a: int, dim: int, bound: int) -> Certificate:
    """Every span containing x also contains a*x, so it suffices to check
    that the a-adic parity colouring separates x from a*x for every
    nonzero x in the box.  The colouring's checks run once, here, and
    the loop calls its unchecked kernel."""
    check_region(2 * bound + 1, dim)
    spec = GroupSpec.integer_box(bound, dim)
    desc = {"a": a, "dim": dim, "bound": bound}
    check_valuation_base(a)
    check_valuation_factors(spec)
    examined = 0
    for x in spec.enumerate():
        if x.is_zero():
            continue
        examined += 1
        if valuation_bit(x.coords, a) == valuation_bit((a * x).coords, a):
            if valuation_colouring(x, a) != valuation_colouring(a * x, a):
                raise AssertionError("witness failed its re-check")
            witness = {"x": x.jsonable(), "ax": (a * x).jsonable()}
            return Certificate("thm5.6", desc, COUNTEREXAMPLE,
                               examined, witness)
    return Certificate("thm5.6", desc, VERIFIED, examined)


# ---------------------------------------------------------------------------
# support growth under the product-sigma colouring


def fs_support_growth_check(spec: GroupSpec, xs: Sequence[Element]) -> Certificate:
    """Finite shadow of the support-growth argument: a set X of distinct
    elements whose nonempty subset sums all have one product-sigma colour
    c, with common support size s >= 1, holds no sunflower of s + 1
    supports.  The checks here are the whole certificate:

    (i)  c lists the nonzero coordinates of each projection class in
         index order, so every subset sum has support size exactly s;
    (ii) two elements of colour c with the same support are equal.

    Take s + 1 members whose supports pairwise meet in one root K.  If
    |K| = s, every support equals K, so by (ii) the members are equal,
    which X forbids.  So |K| < s: the petals supp(x) - K are nonempty and
    pairwise disjoint, and on each petal only its own member is nonzero.
    The members' sum is then a subset sum with support >= s + 1, against
    (i).  Hence none of the C(|X|, s + 1) tuples is a sunflower, and that
    count is the certificate's `enumerated`.

    Monochromaticity is a precondition; violating it is an input error,
    not a counterexample.  So are the empty set and the set {0}: the
    argument needs an element and a support size s >= 1."""
    xs = list(xs)
    if not xs:
        raise PreconditionError(
            "the set is empty: the support-growth argument needs at least "
            "one element")
    sums = fs_set_formal(xs)
    if len({product_sigma_colouring(s) for s in sums}) != 1:
        raise PreconditionError(
            "subset sums are not monochromatic under product sigma")
    s = len(supp(xs[0]))
    if s == 0:
        raise PreconditionError(
            "the set is {0}: its support size is 0, and the support-growth "
            "argument needs nonzero elements")
    desc = {"factors": spec.jsonable()["factors"],
            "set_size": len(xs), "support_size": s}
    return Certificate("thm5.1-shadow", desc, VERIFIED,
                       math.comb(len(xs), s + 1))
