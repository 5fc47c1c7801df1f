"""Residue-matrix patterns whose subset sums all share one nonzero-entry
sequence, together with an exhaustive, certificate-grade search for them.

A pattern is an n x l matrix over Z/mZ (m = 0 means exact integers).  It
is *adequate* when the nonzero-entry sequences of all 2^n - 1 nonempty
row-subset sums coincide.  The search enumerates candidate column
sequences depth-first, maintaining for every row subset the prefix of
the common signature it has produced so far; branches die as soon as the
prefixes disagree or simple counting bounds rule out completion.
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import reduce
from typing import Optional

from .tokens import Record, SizeLimitError, subset_sums

_set = object.__setattr__

__all__ = [
    "Pattern", "AdequacyReport", "SearchConfig",
    "SearchOutcome", "is_adequate", "canonical_2_adequate", "search",
]


class Pattern(Record):
    """n nonzero, pairwise distinct row vectors of length l over Z/mZ."""

    __slots__ = ("n", "m", "l", "rows")

    def __init__(self, n: int, m: int, l: int, rows: tuple):
        if n < 1 or l < 1:
            raise ValueError("pattern needs n >= 1 rows and l >= 1 columns")
        if m == 1 or m < 0:
            raise ValueError("modulus must be >= 2, or 0 for integer entries")
        rows = tuple(tuple(int(e) % m if m else int(e) for e in r)
                     for r in rows)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        for r in rows:
            if len(r) != l:
                raise ValueError("ragged pattern rows")
            if all(e == 0 for e in r):
                raise ValueError("pattern rows must be nonzero")
        if len(set(rows)) != n:
            raise ValueError("pattern rows must be pairwise distinct")
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "l", l)
        _set(self, "rows", rows)

    def jsonable(self):
        return {"n": self.n, "m": self.m, "l": self.l,
                "rows": [list(r) for r in self.rows]}


class AdequacyReport(Record):
    __slots__ = ("adequate", "signature")

    def __init__(self, adequate: bool, signature: Optional[tuple] = None):
        _set(self, "adequate", adequate)
        _set(self, "signature", signature)


def is_adequate(pattern: Pattern) -> AdequacyReport:
    """Check all 2^n - 1 subset sums for a common nonzero-entry sequence.

    Returns the shared signature when adequate.
    """
    m = pattern.m

    def add(u, v):
        return tuple((a + b) % m if m else a + b for a, b in zip(u, v))

    signatures = {tuple(e for e in s if e)
                  for s in subset_sums(pattern.rows, add)}
    if len(signatures) != 1:
        return AdequacyReport(False)
    return AdequacyReport(True, signature=signatures.pop())


def canonical_2_adequate(m: int) -> Pattern:
    """The two-row pattern ((1, -1, 0), (0, 1, -1)) over Z/mZ, which is
    adequate for every modulus (and for exact integers at m = 0)."""
    minus_one = m - 1 if m >= 2 else -1
    return Pattern(2, m, 3, ((1, minus_one, 0), (0, 1, minus_one)))


# ---------------------------------------------------------------------------
# exhaustive search


class SearchConfig(Record):
    __slots__ = ("n", "m", "l_max", "l_min", "entry_bound", "node_cap")

    def __init__(self, n: int, m: int, l_max: int, l_min: int = 1,
                 entry_bound: Optional[int] = None,
                 node_cap: Optional[int] = None):
        if n < 1:
            raise ValueError("n must be >= 1")
        if m == 1 or m < 0:
            raise ValueError("modulus must be >= 2, or 0 for integer entries")
        if not 1 <= l_min <= l_max:
            raise ValueError("need 1 <= l_min <= l_max")
        if m == 0:
            if entry_bound is None or entry_bound < 1:
                raise ValueError("integer search needs entry_bound >= 1")
        elif entry_bound is not None:
            raise ValueError("entry_bound only applies at m = 0")
        if node_cap is not None and node_cap < 0:
            raise ValueError("node_cap must be >= 0")
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "l_max", l_max)
        _set(self, "l_min", l_min)
        _set(self, "entry_bound", entry_bound)
        _set(self, "node_cap", node_cap)

    def region(self) -> dict:
        out = {"n": self.n, "m": self.m,
               "l_min": self.l_min, "l_max": self.l_max}
        if self.m == 0:
            out["entry_bound"] = self.entry_bound
        return out


class SearchOutcome(Record):
    __slots__ = ("status", "nodes", "region", "pattern")

    def __init__(self, status: str, nodes: int, region: dict,
                 pattern: Optional[Pattern] = None):
        _set(self, "status", status)  # "found" | "exhausted" | "inconclusive"
        _set(self, "nodes", nodes)
        _set(self, "region", region)
        _set(self, "pattern", pattern)

    def jsonable(self):
        out = {"status": self.status, "nodes": self.nodes,
               "region": self.region}
        if self.pattern is not None:
            out["pattern"] = self.pattern.jsonable()
        return out


class _NodeBudget:
    """Candidate columns tried so far, over all lengths of one search.
    Past `cap` _WindowSearch._dfs raises _NodeCapReached, and search
    reports cap + 1 nodes."""

    __slots__ = ("used", "cap")

    def __init__(self, cap):
        self.used = 0
        self.cap = math.inf if cap is None else cap


class _NodeCapReached(Exception):
    """The search has tried more candidate columns than its node cap."""


def _column_alphabet(n: int, m: int, entry_bound: Optional[int]) -> list:
    if m >= 2:
        entries = range(m)
    else:
        entries = range(-entry_bound, entry_bound + 1)
    zero = (0,) * n
    return [c for c in itertools.product(entries, repeat=n) if c != zero]


def _column_profile(c: tuple, m: int) -> tuple:
    """(mask, value) for every nonempty row subset with nonzero sum."""
    sums = subset_sums(c, (lambda a, b: (a + b) % m) if m else operator.add)
    return tuple((mask, s) for mask, s in enumerate(sums, 1) if s)


def _hull_facets(points: list) -> Optional[list]:
    """The facets of the convex hull of `points`, distinct integer
    vectors of one length d, as sorted (w, b): w.x >= b holds on every
    point and is tight on a facet, with w and b integers of gcd 1.  None
    when the hull is not d-dimensional.

    Exact double description (Motzkin et al. 1953; Fukuda and Prodon,
    "Double description method revisited", 1996) in integers: the valid
    inequalities (b', w) with b' + w.x >= 0 on every point form the cone
    {y : a.y >= 0} over the rows a = (1, x), pointed when the hull is
    full-dimensional, and its extreme rays are the facets.  The rays of
    d + 1 independent rows seed it; each further row keeps the rays on
    its nonnegative side, and joins every adjacent pair across it, two
    rays being adjacent when no third ray is tight on every row that
    both are tight on."""
    d = len(points[0])
    # rows in descending order: at 18 hit sets of three rows, taking the
    # points with the most ones first halves the rays kept in between
    rows = [(1, *x) for x in sorted(points, reverse=True)]
    # d + 1 linearly independent rows, by fraction-free elimination
    basis, echelon = [], []
    for i, row in enumerate(rows):
        v = row
        for col, pivot in echelon:
            if v[col]:
                a, f = pivot[col], v[col]
                v = [x * a - y * f for x, y in zip(v, pivot)]
        col = next((c for c, x in enumerate(v) if x), None)
        if col is not None:
            echelon.append((col, v))
            basis.append(i)
            if len(basis) > d:
                break
    else:
        return None
    # the seed rays are the columns of the inverse of the basis rows:
    # fraction-free Gauss-Jordan leaves D_i times row i of the inverse
    # in the right half of row i
    size = d + 1
    aug = [[*rows[i], *(int(j == k) for j in range(size))]
           for k, i in enumerate(basis)]
    for k in range(size):
        p = next(i for i in range(k, size) if aug[i][k])
        aug[k], aug[p] = aug[p], aug[k]
        pivot = aug[k]
        for i in range(size):
            f = aug[i][k]
            if i != k and f:
                a = pivot[k]
                v = [x * a - y * f for x, y in zip(aug[i], pivot)]
                g = math.gcd(*v)
                aug[i] = [x // g for x in v]
    scale = math.lcm(*(aug[i][i] for i in range(size)))
    rays = []
    for j in range(size):
        v = [aug[i][size + j] * (scale // aug[i][i]) for i in range(size)]
        g = math.gcd(*v)
        v = [x // g for x in v]
        zero = sum(1 << i for i in basis
                   if not sum(map(operator.mul, rows[i], v)))
        rays.append((v, zero))
    # rays adjacent in a cone of dimension d + 1 share d - 1 tight rows
    need = d - 1
    chosen = set(basis)
    for j, row in enumerate(rows):
        if j in chosen:
            continue
        bit = 1 << j
        positive, negative, kept = [], [], []
        for v, zero in rays:
            s = sum(map(operator.mul, row, v))
            if s > 0:
                positive.append((v, zero, s))
                kept.append((v, zero))
            elif s < 0:
                negative.append((v, zero, s))
            else:
                kept.append((v, zero | bit))
        zeros = [zero for _, zero in rays]
        for vp, zp, sp in positive:
            for vn, zn, sn in negative:
                common = zp & zn
                if common.bit_count() < need:
                    continue
                # distinct extreme rays have distinct tight sets
                for z in zeros:
                    if common & z == common and z != zp and z != zn:
                        break
                else:
                    v = [sp * y - sn * x for x, y in zip(vp, vn)]
                    g = math.gcd(*v)
                    kept.append(([x // g for x in v], common | bit))
        rays = kept
    return sorted((tuple(v[1:]), -v[0]) for v, _ in rays)


def _constraint_groups(n: int, m: int, profiles: list) -> list:
    """Counting constraints the demand vector must satisfy, as one-sided
    sides (v, b, g), `v` a tuple of (mask, coefficient) pairs in mask
    order, each stating v.(k*1 - p) >= r*b and, where g > 1, also
    v.(k*1 - p) == r*b mod g.

    Every column raises w.p, the weighted progress, by one of a fixed
    set A of amounts (taken over the alphabet's hit sets).  So over r
    remaining columns that end every mask at k, the demand
    w.(k*1 - p) must lie in [r*min A, r*max A] and be congruent to
    r*min A modulo the gcd g of (a - min A): the sides (w, min A, g)
    and (-w, -max A, g).  The bound holds whatever the weights, so only
    which weights are tried depends on the code below; dropping a side
    is always sound, as it only cuts less.

    For n <= 3, where the hull of the hit sets (H, 0/1 vectors indexed
    by mask) is full-dimensional, the weights are its facet normals
    (see _hull_facets), and each gives its lower side alone: r*conv(H)
    is exactly the set of points that meet every facet's lower side,
    so the facets imply every upper side (at r = 0 they force the
    demand to 0), and this is the exact LP bound on the demand, which
    implies every 0/1 group and triangle below at every k.  Elsewhere
    (n >= 4, m = 2, one row) the weights are 0/1, each giving both
    sides: the set of all subsets, which pins down the possible
    signature lengths, and, while their number times the columns stays
    within _TABLE_CAP << 7 (see _sets_of_three_fit), the triangles (see
    _triangles) and, at m = 0 and 2, the sets of 3 subsets.  At n = 2
    the set of all subsets is the only set of 3, and is tried once.  No
    set of 2 subsets is tried: from n = 3 on each has amounts {0, 1, 2}
    and could never exclude anything.  Nor is a set of 3 {T1, T2, T3}
    at m >= 3, where this branch runs only from n = 4 on (at n = 2 and
    3 the hull is full-dimensional, and n = 1 has one subset).  Its
    amounts hold 0: three homogeneous sums in n >= 4 unknowns have a
    nonzero solution mod a prime p dividing m, and m/p times it is a
    column.  They hold 3: for m >= 4 at most 3 m^(n-1) < m^n columns
    make one of the sums 0, and at m = 3 inclusion-exclusion over F_3
    leaves 3^n - 3 * 3^(n-1) + 3 * 3^(n-2) - |K| >= 2 * 3^(n-2) columns
    that make none 0 (two distinct 0/1 vectors are independent, so the
    common kernel K of the three holds at most 3^(n-2) columns).  They
    hold 1 or 2: the unit column
    e_i for a row i in T1 but not in T2.  So g = 1, and the box gives
    both sides.

    One rule drops a side: where the box max p <= k <= min p + r
    already gives its bound (b is the sum of v's negative entries, as
    each k - p[mask] lies in [0, r]) and it carries no congruence.  A
    congruence is carried by the first side that states it, up to a
    unit of Z/g (at (3, 3), 28 facets with g = 3 state one); every
    later side stating it gets g = 1.
    """
    all_masks = tuple(range(1, 1 << n))
    # bit `mask` of a column's hit set is set where it hits `mask`.
    # Columns share hit sets, so each distinct one is kept once.
    hit_sets = sorted({sum(1 << mask for mask, _ in hits)
                       for hits in profiles})
    facets = None
    if n <= 3:
        facets = _hull_facets([tuple(hit >> mask & 1 for mask in all_masks)
                               for hit in hit_sets])
    if facets:
        candidates = [tuple((mask, c) for mask, c in zip(all_masks, w) if c)
                      for w, _ in facets]
    else:
        candidates = [tuple((mask, 1) for mask in all_masks)]
        if _sets_of_three_fit(n, len(profiles)):
            if m < 3:
                candidates += [
                    tuple((mask, 1) for mask in masks)
                    for masks in itertools.combinations(all_masks, 3)]
            candidates += [tuple(sorted(((x, -1), (y, 1), (z, 1))))
                           for x, y, z in _triangles(n)]
    # column[mask] holds bit `mask` of every hit set, one byte each, so
    # the bytes of sum(c * column[mask]) less neg in every byte are a
    # group's amounts less neg, the sum of its negative coefficients:
    # each in [0, |w|_1], within a byte, as |w|_1 <= 255.  That holds
    # for the group of all 2^n - 1 subsets, as the table cap keeps
    # n <= 8, and for a facet at n <= 3, whose coefficients are 7 x 7
    # determinants of 0s and 1s (Cramer's rule on 7 hit vectors), at
    # most 32 in size.
    width = len(hit_sets)
    ones = sum(1 << 8 * j for j in range(width))
    column = [sum((hit >> mask & 1) << 8 * j for j, hit in enumerate(hit_sets))
              for mask in range(1 << n)]
    # carried: the congruences some side carries, and None for g <= 1
    sides, carried = [], {None}
    for weights in dict.fromkeys(candidates):
        neg = sum(c for _, c in weights if c < 0)
        amounts = set((sum(c * column[mask] for mask, c in weights)
                       - neg * ones).to_bytes(width, "little"))
        lo, hi = min(amounts), max(amounts)
        g = math.gcd(*(a - lo for a in amounts))
        key = None
        if g > 1:
            # the congruence W*k - r*lo - w.p == 0 mod g, which both
            # sides state, scaled by a unit to make its first unit entry 1
            values = (sum(c for _, c in weights), -lo - neg,
                      *(c for _, c in weights))
            u = next((pow(e, -1, g) for e in values
                      if math.gcd(e, g) == 1), 1)
            key = (g, tuple(mask for mask, _ in weights),
                   *(u * e % g for e in values))
        # (v, b, whether the box gives b): it does where the least
        # amount is the sum of the negative weights, or the greatest
        # that of the positive ones
        pair = [(weights, lo + neg, lo == 0)]
        if not facets:
            pair.append((tuple((mask, -c) for mask, c in weights),
                         -hi - neg, hi == sum(abs(c) for _, c in weights)))
        for v, b, given in pair:
            if given and key in carried:
                continue
            sides.append((v, b, 1 if key in carried else g))
            carried.add(key)
    return sides


def _sets_of_three_fit(n: int, n_columns: int) -> bool:
    """Whether the sets of 3 row subsets, and with them the triangles,
    are tried: while their number times the columns stays within
    _TABLE_CAP << 7.  (6, 2) keeps them at 2.5M, (6, 3) drops them at
    28.9M and (7, 2) at 42.3M."""
    return math.comb((1 << n) - 1, 3) * n_columns <= _TABLE_CAP << 7


def _triangles(n: int) -> list:
    """The triangle bound, as (X, Y, Z): k >= p_Y + p_Z - p_X.

    Take disjoint nonempty row sets A and B and C = A | B (as masks).
    Every column sums to c_C = c_A + c_B on them, over Z/m and over Z,
    so no column makes exactly one of the three sums nonzero: per
    column h_X <= h_Y + h_Z for each labelling (X; Y, Z) of the triple,
    h_X being 1 where the column hits X.  Summed over the columns still
    to add, where mask X still needs k - p_X hits, that is
    k - p_X <= (k - p_Y) + (k - p_Z): the lower side of the weighted
    group e_Y + e_Z - e_X, whose amounts lie in [0, 2].  The set of
    triples is closed under row permutations, so _feasible stays
    invariant under them.  All 3*(3^n - 2^(n+1) + 1)/2 of them: 18 at
    n = 3 and 75 at n = 4."""
    out = []
    for c in range(1, 1 << n):
        # each split of C into A < B, over the nonempty proper submasks A
        a = c - 1 & c
        while a:
            b = c ^ a
            if a < b:
                out += [(c, a, b), (a, b, c), (b, a, c)]
            a = a - 1 & c
    return out


# entries kept by the fitting-column table of a region and by each of a
# pass's caches (the memo of exhausted states and the feasibility
# answers); past it they stop growing
_CACHE_CAP = 1 << 20

# lengths one depth-first pass of the search covers; see _windows
_WINDOW = 3

# most (column, row subset) pairs a search region may tabulate;
# _TABLE_CAP << 7 caps the (column, set of 3 row subsets) pairs
# _constraint_groups may evaluate (see _sets_of_three_fit)
_TABLE_CAP = 1 << 17

# a packed progress field is one byte, so no length passes _LONGEST
_FIELD, _LONGEST = 8, 255


def _fitting(options, need: str, offset: int) -> list:
    """The options that fit a state, in lex order, as (position in
    options, column, next tie mask, step images, sum step, ext).

    need[mask] is the code, entry + offset, of the signature entry the
    next hit on `mask` must produce, or the padding code chr(offset)
    where that hit extends the signature (entries are never 0, so no
    entry has that code).  A column fits when every hit on a fixed mask
    gives the needed value and all its extending hits agree on one
    value, `ext`, which it appends (None if it extends nothing).
    """
    wants = [ord(code) - offset for code in need]
    fitting = []
    for pos, (c, hits, next_tied, steps, sum_step) in enumerate(options):
        ext = None
        for mask, v in hits:
            want = wants[mask]
            if want:
                if want != v:
                    break
            elif ext is None:
                ext = v
            elif ext != v:
                break
        else:
            fitting.append((pos, c, next_tied, steps, sum_step, ext))
    return fitting


class _Columns:
    """The tables of a search region, shared by every length: the
    counting sides (see _constraint_groups) packed into the one affine
    form _feasible reads (see split_groups), per tie mask the
    allowed columns with their packed increments, and the fitting-column
    table.

    A search state carries its signature as a str of codes, one
    character chr(entry + sig_offset) per entry; sig_offset is 0 for
    m >= 2, as entries are nonzero residues, and n*b at m = 0, as an
    entry is a sum of at most n entries in [-b, b].  The padding code
    `pad`, chr(sig_offset), is no entry's code.

    Only canonical patterns are explored: rows in strictly ascending lex
    order, and a first signature entry s0 with s0 == gcd(s0, m) (s0 > 0
    at m = 0).  Row order is kept by a bitmask `tied` whose bit i says
    rows i and i + 1 agree on every column so far; on a tied pair only
    columns with c[i] <= c[i+1] are allowed, and the pair unties at the
    first <.  The root draws from one more list, under the tie mask
    1 << (n - 1), which no pair of rows produces: the all-tied columns
    whose nonzero subset sums all equal a canonical s0.

    Sound per length: permuting rows keeps the subset sums, and scaling
    by a unit u of Z/m maps every signature entry s to u*s.  Given any
    adequate pattern of length l, scale it by the unit sending s0 to
    gcd(s0, m) (s0 and gcd(s0, m) are associates in Z/m; at m = 0 scale
    by -1 if s0 < 0, which keeps the entry bound), then sort its rows.
    The rows are distinct, so they end up strictly ascending: a canonical
    adequate pattern of the same length.

    Once a state is untied (tie mask 0) no row-order constraint is left
    below it, and every test the search makes there only relabels under
    a row permutation pi: column c becomes c∘pi^-1, which hits pi(T)
    with the value c has on T, so fitting, need and the final test carry
    over; the alphabet is closed under pi, so its hit sets are, and so
    the facets of their hull, the 0/1 groups and the triangles are too
    (pi maps each group to one with the same amounts), and so are the
    conditions the kept sides state, as a side is only dropped where
    the box gives its bound and another side carries any congruence it
    states; and with them _feasible.
    So an untied (progress, sig, r) is exhausted exactly when
    (pi·progress, sig, r) is, and the memo keys such a child by the
    least packed image of its progress over the permutations the region
    tracks (all n! for n <= 4, the identity alone from n = 5 on).
    """

    def __init__(self, n: int, m: int, entry_bound):
        # (m or 2b+1)^n - 1 columns, each profiled over 2^n - 1 row
        # subsets; the mask count alone passes the cap from n = 18 on,
        # which spares the power for a huge n
        base = m or 2 * entry_bound + 1
        if (n >= _TABLE_CAP.bit_length()
                or (base ** n - 1) * ((1 << n) - 1) > _TABLE_CAP):
            raise SizeLimitError(
                f"a search with n = {n} over {base} entry values needs "
                f"more than {_TABLE_CAP} column profile entries")
        alphabet = _column_alphabet(n, m, entry_bound)
        profiles = [_column_profile(c, m) for c in alphabet]
        self.n_masks = n_masks = (1 << n) - 1
        # field `mask` of a packed progress is its byte `mask`, as no
        # field passes l <= _LONGEST; a feasibility key puts r above them
        self.rest_shift = _FIELD * (n_masks + 1)
        # a 1 in every field: a vector with all fields at k packs to k*ones
        self.ones = sum(1 << _FIELD * mask for mask in range(1, n_masks + 1))
        # a memo key (see memo_key) puts the tie mask above the last
        # field, and the signature code above the tie mask
        self.sig_shift = self.rest_shift + n - 1
        if m:
            self.sig_base, self.sig_offset = m, 0
        else:
            self.sig_base = 2 * n * entry_bound + 1
            self.sig_offset = n * entry_bound
        self.pad = chr(self.sig_offset)
        self.split_groups(_constraint_groups(n, m, profiles))
        sum_units = self.sum_units
        # the packed steps of each column: 1 into the progress field, and
        # sum_units[mask] into the packed side sums G, per hit mask
        step = {c: sum(1 << _FIELD * mask for mask, _ in hits)
                for c, hits in zip(alphabet, profiles)}
        sum_step = {c: sum(sum_units[mask] for mask, _ in hits)
                    for c, hits in zip(alphabet, profiles)}
        # the row permutations whose images of the progress vector _dfs
        # carries, identity first.  From n = 5 on the identity alone: the
        # n! images cost more per child than their merges saved on most
        # regions measured at n = 5 and 6 (see CHANGES.md).
        perms = (list(itertools.permutations(range(n))) if n <= 4
                 else [tuple(range(n))])
        # the images of the empty progress vector, at the root
        self.root_images = (0,) * len(perms)
        # images[c]: the step of c under each permutation, which is the
        # step of the permuted column; the alphabet holds every column,
        # so it holds the permuted one too.  Built one permutation at a
        # time, as n! - 1 lanes over the alphabet.
        get = step.__getitem__
        lanes = [map(get, map(operator.itemgetter(*perm), alphabet))
                 for perm in perms[1:]]
        images = dict(zip(alphabet, zip(map(get, alphabet), *lanes)))
        # choices[tied]: (column, profile, next tie mask, step images,
        # sum step) in lex order
        self.choices = []
        for tied in range(1 << (n - 1)):
            pairs = [i for i in range(n - 1) if tied >> i & 1]
            self.choices.append([
                (c, hits, sum(1 << i for i in pairs if c[i] == c[i + 1]),
                 images[c], sum_step[c])
                for c, hits in zip(alphabet, profiles)
                if all(c[i] <= c[i + 1] for i in pairs)])
        # the root's list, choices[1 << (n - 1)]: every column is
        # nonzero, so the first one fixes s0, and all its nonzero subset
        # sums must equal s0.  gcd(s0, 0) = |s0|, so at m = 0 the test
        # reads s0 > 0.
        self.choices.append([(c, hits, *steps)
                             for c, hits, *steps in self.choices[-1]
                             if hits[0][1] == math.gcd(hits[0][1], m)])
        # (tie mask, need) -> fitting options; see _fitting.  Neither
        # the options nor need depend on l, so every length shares the
        # table.
        self.fitting: dict = {}

    def memo_key(self, state: int, tied: int, sig: str) -> int:
        """The memo's key for a child, one integer: `state` (the packed
        progress with r above it), the tie mask above that, and above
        both the signature code: a leading 1, then one base-sig_base
        digit per entry, its code entry + sig_offset (`sig` is the str of
        those codes).  Each part fits below the next, and the leading 1
        fixes the signature's length, so distinct states get distinct
        keys.  An untied child's progress is its least row-permutation
        image (see the class docstring).  _dfs builds the code entry by
        entry as the signature grows."""
        code = 1
        for entry_code in sig:
            code = code * self.sig_base + ord(entry_code)
        return state | tied << self.rest_shift | code << self.sig_shift

    def split_groups(self, sides) -> None:
        """Pack the counting sides (v, b, g) of _constraint_groups into
        one affine form, for _feasible, one field per side.  With V the
        sum of v's entries, a side holds at the final length k when

            V*k - r*b - v.p >= 0,

        that is a*k + r*c - v.p >= 0 with a = V and c = -b.  k_coefs
        packs the a, r_coefs the c, G holds bias + v.p (the bias 255
        times the sum of the negative v's sizes) and base the guard bit
        `half` plus the bias, so each field of
        x(k) = k*k_coefs + base + r*r_coefs - G holds
        half + a*k + r*c - v.p.  At a k in the box
        max p <= k <= min p + r that is within r*|v|_1 <= 255*widest of
        half (each k - p[mask] lies in [0, r], and b between the sums of
        the negative and of the positive entries), so no field borrows
        from the next and a guard bit is set exactly where its side
        holds.  low_guard tests the sides with a >= 0, which hold from
        some k up, and high_guard those with a < 0, which hold up to
        some k.  A side with g > 1 has its congruence read in its field,
        which holds its value V*k - r*b - v.p exactly past the guard
        bit, as (shift, field mask, g, guard bit mod g) in
        `congruences`."""
        slopes = [sum(x for _, x in v) for v, _, _ in sides]
        widest = max((sum(abs(x) for _, x in v) for v, _, _ in sides),
                     default=1)
        fw = (_LONGEST * widest).bit_length() + 1
        half = 1 << fw - 1

        def pack(values):  # Horner's rule: linear in the width
            return reduce(lambda out, x: (out << fw) + x, reversed(values), 0)
        guards = pack([half] * len(sides))
        self.low_guard = pack([half if a >= 0 else 0 for a in slopes])
        self.high_guard = guards - self.low_guard
        self.k_coefs = pack(slopes)
        self.r_coefs = pack([-b for _, b, _ in sides])
        # root_sums plus sum(p[mask] * sum_units[mask]) packs G
        self.root_sums = pack([_LONGEST * -sum(x for _, x in v if x < 0)
                               for v, _, _ in sides])
        self.base = guards + self.root_sums
        units = [0] * (self.n_masks + 1)
        for i, (v, _, _) in enumerate(sides):
            for mask, x in v:
                units[mask] += x << fw * i
        self.sum_units = units
        self.congruences = [(fw * i, (1 << fw) - 1, g, half % g)
                            for i, (_, _, g) in enumerate(sides) if g > 1]


def _known_length(n: int, m: int) -> Optional[int]:
    """A length at which an adequate pattern is known to exist, or None:
    1 for one row, 3 for two (canonical_2_adequate), and 2^n - 1 at even
    m >= 2, the simplex code (every nonzero 0/1 column once) lifted to
    Z/m by x -> (m/2)*x: every row subset sums to m/2 on 2^(n-1)
    columns and to 0 on the rest."""
    if n <= 2:
        return 2 * n - 1
    if m and m % 2 == 0:
        return (1 << n) - 1
    return None


def _windows(n: int, m: int, l_max: int):
    """The windows of _WINDOW consecutive lengths the search takes in
    turn, as (lo, hi), from length 1 up to l_max, made one at a time
    (l_max may be 10^9).  A pass walks its whole window below the length
    it finds, so one window ends at t = min(l_max, U), U from
    _known_length (l_max where none is known), and those above t are
    never reached.  The alignment only moves window edges, so soundness
    never depends on U."""
    known = _known_length(n, m)
    top = l_max if known is None else min(l_max, known)
    for end in range((top - 1) % _WINDOW + 1, l_max + _WINDOW, _WINDOW):
        yield max(1, end - _WINDOW + 1), min(end, l_max)


class _WindowSearch:
    """One depth-first pass over the canonical column sequences (see
    _Columns) of every length in a window [lo, hi], which returns the
    lex-first canonical pattern of the least length in the window that
    has one.  It holds what one pass needs: the memo of exhausted
    states, the feasibility answers, the chosen columns and `limit`, the
    longest length still sought.

    A node at depth d is alive for a range of r, the columns still to
    add: from the least r its column passed _feasible for up to
    limit - d, and its children for one fewer.  The range holds every r
    whose length the node can still complete to (a superset where
    _feasible fails in between), so a subtree is cut only where no
    length of the window survives.  A node alive for r = 0 that passes
    the final test is a pattern; the pass records it and lowers `limit`
    to its length - 1, so what is left of the pass only looks for
    shorter ones, and the last one recorded is the lex-first of the
    least length.  A node whose children have no r left stops, and
    counts no more nodes; once no length of the window is left, every
    node has stopped.

    Whether a child completes in r more columns depends on its
    progress, tie mask and signature alone, not on its depth, so the
    memo maps the _Columns.memo_key of a child, which holds no r, to a
    bitmask of the r proved exhausted for it: those its subtree was
    walked for, up to limit - depth as it stood on return, and those
    below the least r that passed _feasible.  A child is skipped when
    the bitmask holds every r from its least feasible one up.  The
    feasibility cache keys a child by its exact packed progress with r
    above it."""

    def __init__(self, n: int, m: int, lo: int, hi: int, columns: _Columns,
                 budget: _NodeBudget):
        self.n = n
        self.m = m
        self.lo = lo
        self.limit = hi
        self.columns = columns
        self.budget = budget
        self.chosen: list = []
        self.memo: dict = {}
        # _feasible(r, ...) reads only r, the progress vector and the
        # region's packed sides, so its answers are cached under the
        # packed progress with r in the fields above it
        self.feasible_cache: dict = {}
        self.result: Optional[Pattern] = None

    def _feasible(self, r: int, p: bytes, packed_sums: int,
                  k_lo: int) -> bool:
        """Can a state of progress p be completed with r more columns?

        p[mask] is the progress of `mask` (p[0] = 0), the packed progress
        as bytes, read here only for its minimum; `packed_sums` is the G
        of _Columns.split_groups, and k_lo is max(1, max p): the
        signature length, as no progress field passes it and the last
        entry came from a field that reached it (1 at the root).

        Only if some common final length k in the box
        k_lo <= k <= min p + r = k_hi passes every counting side (see
        _Columns.split_groups), and, for each side with g > 1, its
        congruence.  A side with a >= 0 that holds at k holds
        at every larger k, and one with a < 0 at every smaller k, so:
        the low sides must hold at k_hi and the high ones at k_lo; with
        no congruence, k_hi passes if the high sides hold there too;
        else the least k passing every low side, found by bisection
        between the two, is the one k to try the high sides at, and the
        k from there up while they hold are the ones to try the
        congruences at.
        Every test reads the packed x(k) of split_groups, whose fields
        hold their sides' values exactly at every k in the box; the low
        and high sides differ only in the guard mask that tests them."""
        columns = self.columns
        k_hi = min(p[1:]) + r
        if k_lo > k_hi:
            return False
        slope = columns.k_coefs
        base = columns.base + r * columns.r_coefs - packed_sums
        low = columns.low_guard
        high = columns.high_guard
        x = k_hi * slope + base
        if x & low != low:
            return False
        terms = columns.congruences
        if not terms and x & high == high:
            return True
        x = k_lo * slope + base
        if x & high != high:
            return False
        if x & low != low:
            # the low sides fail at lo and hold at hi
            lo, hi = k_lo, k_hi
            while hi - lo > 1:
                mid = (lo + hi) >> 1
                if (mid * slope + base) & low == low:
                    hi = mid
                else:
                    lo = mid
            k_lo = hi
            x = k_lo * slope + base
            if x & high != high:
                return False
        while True:
            for shift, field, g, res in terms:
                if (x >> shift & field) % g != res:
                    break
            else:
                return True
            if k_lo == k_hi:
                return False
            k_lo += 1
            x += slope
            if x & high != high:
                return False

    def _rows(self) -> tuple:
        return tuple(tuple(col[i] for col in self.chosen)
                     for i in range(self.n))

    def run(self) -> None:
        """Walk the window from the root, which is alive from the least
        length its empty progress vector passes _feasible for, under the
        root's tie mask (see _Columns).  A find is left in self.result;
        past the node cap _NodeCapReached propagates."""
        columns = self.columns
        for r in range(self.lo, self.limit + 1):
            if self._feasible(r, bytes(columns.n_masks + 1),
                              columns.root_sums, 1):
                self._dfs(0, r, 1 << (self.n - 1), columns.root_images,
                          columns.root_sums, "", 1)
                return

    def _dfs(self, depth: int, r_lo: int, tied: int, images: tuple,
             packed_sums: int, sig: str, sig_code: int) -> None:
        """The node is alive for r from `r_lo` up to self.limit - depth
        (see the class docstring).  `tied` is its tie mask, the root's
        at depth 0 (see _Columns), `images` holds the progress vector
        packed into one integer under each row permutation of _Columns,
        identity first, `packed_sums` is the G of _feasible, `sig` the
        signature as a str of codes (see _Columns) and `sig_code` its
        code in the memo key (see _Columns.memo_key).

        Each fitting child is settled in this order: one loop over r
        from the child's least, reading the feasibility cache and
        calling _feasible where it has no answer, fixes the least
        feasible r; only a feasible child forms its progress images,
        its memo key and its memo probe, and it is entered unless the
        memo holds every r from that least one up.  A find sets
        self.result and lowers self.limit; past the node cap the charge
        raises _NodeCapReached."""
        columns = self.columns
        packed = images[0]
        if not r_lo:
            # every field equal means every field at len(sig); a pair
            # still tied is a pair of equal rows
            if not tied and packed == len(sig) * columns.ones:
                self.result = Pattern(self.n, self.m, depth, self._rows())
                self.limit = depth - 1
                return
            if depth == self.limit:
                return

        # no field exceeds len(sig), and a mask at len(sig) extends the
        # signature: it reads the padding code appended here.  need[0]
        # is unused.
        size = columns.n_masks + 1
        need = packed.to_bytes(size, "little").decode("latin-1").translate(
            sig + columns.pad)
        table = columns.fitting
        fitting = table.get((tied, need))
        if fitting is None:
            fitting = _fitting(columns.choices[tied], need, columns.sig_offset)
            if len(table) < _CACHE_CAP:
                table[tied, need] = fitting

        # a child is alive for r in [lo, hi]: one column fewer than this
        # node's r, and no length past the limit
        lo = r_lo - 1 if r_lo else 0
        hi = self.limit - depth - 1
        # the r of [lo, hi], as memo bits
        wanted = (2 << hi) - (1 << lo)
        rest_shift = columns.rest_shift
        lo_field = lo << rest_shift
        sig_shift = columns.sig_shift
        # the child's code is sig_code, or this plus the entry it appends
        sig_offset = columns.sig_offset
        extended_code = sig_code * columns.sig_base + sig_offset
        sig_len = len(sig)
        cache = self.feasible_cache
        memo = self.memo
        budget = self.budget
        add = operator.add
        # every option counts as a node, fitting or not: the ones that
        # fail the signature are spent in one chunk with the next fit
        tried = 0
        for pos, c, next_tied, steps, sum_step, ext in fitting:
            budget.used += pos + 1 - tried
            tried = pos + 1
            if budget.used > budget.cap:
                raise _NodeCapReached
            # the child's progress, and `state` its key in the cache: the
            # progress with r above it.  r runs up from lo to the child's
            # least feasible r, or to hi; the progress bytes are built on
            # the child's first cache miss.
            child = packed + steps[0]
            child_sums = packed_sums + sum_step
            state = child | lo_field
            r = lo
            p = None
            while True:
                feasible = cache.get(state)
                if feasible is None:
                    if p is None:
                        p = child.to_bytes(size, "little")
                    feasible = self._feasible(
                        r, p, child_sums,
                        sig_len if ext is None else sig_len + 1)
                    # skipping an insert is always safe: _feasible is pure
                    if len(cache) < _CACHE_CAP:
                        cache[state] = feasible
                if feasible or r == hi:
                    break
                r += 1
                state += 1 << rest_shift
            if not feasible:
                continue
            child_images = tuple(map(add, images, steps))
            child_code = sig_code if ext is None else extended_code + ext
            # the memo is checked before descending, so a hit spends no
            # budget; the tie mask is part of the key, so an entry names
            # one subtree, or once untied its row-permutation orbit (see
            # _Columns).  A child with no column left to add (hi == 0)
            # is neither looked up nor stored.  The child is skipped when
            # the memo holds every r from its least feasible one up.
            done = 0
            if hi:
                key = ((child | next_tied << rest_shift if next_tied
                        else min(child_images))
                       | child_code << sig_shift)
                done = memo.get(key, 0)
                if not (wanted >> r << r) & ~done:
                    continue
            self.chosen.append(c)
            self._dfs(depth + 1, r, next_tied, child_images, child_sums,
                      sig if ext is None else sig + chr(ext + sig_offset),
                      child_code)
            self.chosen.pop()
            top = self.limit - depth - 1
            if top < lo:
                # a find below left no length for this node: count
                # nothing more
                return
            if top < hi:
                hi = top
                wanted = (2 << hi) - (1 << lo)
            # the subtree stores only keys of more progress, so the
            # entry is still `done`; stored bits are never 0
            if hi and (done or len(memo) < _CACHE_CAP):
                memo[key] = done | wanted

        budget.used += len(columns.choices[tied]) - tried
        if budget.used > budget.cap:
            raise _NodeCapReached


def search(cfg: SearchConfig) -> SearchOutcome:
    """Exhaustively search the configured region for an adequate pattern.

    Lengths are swept in ascending order starting from 1, one
    depth-first pass per window of _WINDOW lengths (see _windows);
    candidate columns are tried in lexicographic order, and a pass
    returns the lex-first canonical pattern of the least length in its
    window that has one (see _WindowSearch), so the reported pattern
    depends on the region only.  The search runs on one thread.  An
    all-zero column never appears in a minimal pattern (dropping it
    preserves adequacy), so columns are drawn from the nonzero alphabet;
    a witness shorter than l_min is zero-padded back into the region.
    `nodes` counts the candidate columns tried on canonical branches,
    and depends on the window edges as well as the region.  A child is
    skipped when its pass's memo has proved exhausted every r the child
    could be alive for, under its key (_Columns.memo_key): progress, tie
    mask and signature, up to a row permutation once untied.

    "exhausted" certifies that no adequate pattern with the given (n, m)
    exists at any length <= l_max (entries within the bound when m = 0).
    """
    budget = _NodeBudget(cfg.node_cap)
    columns = _Columns(cfg.n, cfg.m, cfg.entry_bound)
    for lo, hi in _windows(cfg.n, cfg.m, cfg.l_max):
        if hi > _LONGEST:
            raise SizeLimitError(f"no search reaches past length {_LONGEST}")
        engine = _WindowSearch(cfg.n, cfg.m, lo, hi, columns, budget)
        try:
            engine.run()
        except _NodeCapReached:
            # a cap hit after a find leaves shorter lengths unsearched
            return SearchOutcome("inconclusive", cfg.node_cap + 1,
                                 cfg.region())
        pattern = engine.result
        if pattern is not None:
            if pattern.l < cfg.l_min:
                pad = cfg.l_min - pattern.l
                rows = tuple(r + (0,) * pad for r in pattern.rows)
                pattern = Pattern(cfg.n, cfg.m, cfg.l_min, rows)
            # self-verification, decoupled from the pruning logic
            if not is_adequate(pattern).adequate:
                raise AssertionError(
                    "search produced a pattern that fails the definitional "
                    "adequacy check; this is a bug")
            return SearchOutcome("found", budget.used, cfg.region(), pattern)
    return SearchOutcome("exhausted", budget.used, cfg.region())
