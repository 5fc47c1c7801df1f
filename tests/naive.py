"""Independent brute-force oracles used to cross-check the main routines.

These deliberately share no logic with the search engine's pruning:
they generate candidate row tuples directly and test each one with the
definitional adequacy check.  Rows are grouped by their nonzero-entry
sequence first, which is sound because the singleton subset sums
already force all rows of a qualifying tuple into one class.  The one
piece the naive adequacy finder shares with the search is
`tokens.subset_sums`, which `is_adequate` and the column profiles both
call; it is pinned against `naive_subset_sums` below, mask by mask, in
tests/test_groups.py.

`naive_search` is the reference for the search's node counts: it walks
the same canonical columns with none of the search's packing, tables or
caches.  It shares two things with the search.  One is the window size
`_WINDOW`, so that a test can set both engines to one length per pass.
The other is the list of one-sided counting sides of
`_constraint_groups`, which tests/test_patterns.py checks three ways:
by direct arithmetic on every prefix of adequate patterns; against
`naive_counting_groups`, built by direct summation, where the list has
no facets; and against `naive_facet_groups`, the facets of
`naive_hull_facets`, a brute force over every facet candidate, where it
does.  Those two give every group both of its sides, so `_feasible`,
checked against `naive_feasible` over them, is checked to lose nothing
by the sides `_constraint_groups` drops.
"""

import itertools
import math
import operator

from pattern_forge import patterns
from pattern_forge.patterns import Pattern, _constraint_groups, is_adequate


def all_rows(m, l, bound=None):
    entries = range(m) if m else range(-bound, bound + 1)
    return [r for r in itertools.product(entries, repeat=l) if any(r)]


def naive_find_adequate(n, m, l_max, bound=None):
    """First adequate pattern by plain generate-and-test, or None."""
    for l in range(1, l_max + 1):
        classes = {}
        for r in all_rows(m, l, bound):
            classes.setdefault(tuple(e for e in r if e), []).append(r)
        for _, members in sorted(classes.items()):
            if len(members) < n:
                continue
            for combo in itertools.combinations(members, n):
                p = Pattern(n, m, l, combo)
                if is_adequate(p).adequate:
                    return p
    return None


def naive_subset_sums(xs, add=operator.add):
    """All nonempty-subset sums of a list of elements, no shared helpers."""
    out = []
    for k in range(1, len(xs) + 1):
        for combo in itertools.combinations(xs, k):
            total = combo[0]
            for x in combo[1:]:
                total = add(total, x)
            out.append(total)
    return out


def naive_fs_scan(colour, points, n, budget=None, add=operator.add):
    """Plain lex scan over every n-subset of points for one whose subset
    sums all share a colour: (status, enumerated, combo or None), with
    the certificate conventions of the finite-sums oracle."""
    examined = 0
    for combo in itertools.combinations(points, n):
        if budget is not None and examined >= budget:
            return "inconclusive", examined, None
        examined += 1
        if len({colour(s) for s in naive_subset_sums(combo, add)}) == 1:
            return "counterexample", examined, combo
    return "verified", examined, None


def naive_disjoint_pairs(n):
    """Every unordered pair (A, B), A < B, of disjoint nonempty row
    subsets of n rows, as masks."""
    masks = range(1, 1 << n)
    return [(a, b) for a in masks for b in masks if a < b and not a & b]


def naive_feasible(progress, r, sides):
    """Can `progress` (indexed by row-subset mask, slot 0 unused) be
    completed in r more columns?  A plain walk over every common final
    length k, testing each counting side (v, b, g), v a tuple of (mask,
    coefficient) pairs, at that k: its demand v.(k*1 - p) must be at
    least r*b, and where g > 1 be congruent to r*b mod g."""
    p = progress
    for k in range(max(1, max(p[1:])), min(p[1:]) + r + 1):
        for v, b, g in sides:
            demand = sum(c * (k - p[mask]) for mask, c in v)
            if demand < r * b or g > 1 and (demand - r * b) % g:
                break
        else:
            return True
    return False


def naive_sides(groups):
    """Both sides of every two-sided group (w, lo, hi, g), as the sides
    naive_feasible walks: w.d >= r*lo and -w.d >= -r*hi, each with the
    group's congruence."""
    return [side for w, lo, hi, g in groups
            for side in ((w, lo, g), (tuple((mask, -c) for mask, c in w),
                                      -hi, g))]


def naive_congruence(v, b, g):
    """The congruence V*k - r*b - v.p == 0 mod g of a side (v, b, g),
    V the sum of v, as the set of its coefficient tuples (V, -b, v) mod
    g under every unit of Z/g, with g and v's masks: two sides state
    the same condition exactly when these sets meet."""
    values = (sum(c for _, c in v), -b, *(c for _, c in v))
    return frozenset((g, tuple(mask for mask, _ in v),
                      *(u * e % g for e in values))
                     for u in range(1, g) if math.gcd(u, g) == 1)


def naive_hull_facets(points):
    """The facets of the convex hull of `points` (integer tuples of one
    length d), as the sorted (w, b) with w.x >= b on every point, tight
    on d affinely independent ones, and w, b coprime integers; None when
    no d + 1 points are affinely independent.  A brute force over every
    d-subset: the hyperplane through it, solved by exact integer
    elimination (Fractions took about 1.3 s on 13 points in R^7), is a
    facet when every point lies on one side of it."""
    d = len(points[0])
    facets = set()
    for subset in itertools.combinations(points, d):
        # (w, -b) spans the null space of the rows (x, 1) when they
        # have rank d
        rows = [[*x, 1] for x in subset]
        pivots = []
        for col in range(d + 1):
            i = len(pivots)
            at = next((j for j in range(i, d) if rows[j][col]), None)
            if at is None:
                continue
            rows[i], rows[at] = rows[at], rows[i]
            for j in range(d):
                f = rows[j][col]
                if j != i and f:
                    a = rows[i][col]
                    rows[j] = [x * a - y * f for x, y in zip(rows[j], rows[i])]
            pivots.append(col)
        if len(pivots) < d:
            continue
        free = next(c for c in range(d + 1) if c not in pivots)
        scale = math.lcm(*(rows[i][col] for i, col in enumerate(pivots)))
        y = [0] * (d + 1)
        y[free] = scale
        for i, col in enumerate(pivots):
            y[col] = -rows[i][free] * scale // rows[i][col]
        g = math.gcd(*y)
        w, b = [v // g for v in y[:d]], -y[d] // g
        sides = {(dot > b) - (dot < b) for dot in
                 (sum(map(operator.mul, w, x)) for x in points)}
        if sides == {0, 1}:
            facets.add((tuple(w), b))
        elif sides == {0, -1}:
            facets.add((tuple(-v for v in w), -b))
    return sorted(facets) or None


def _columns(n, m, bound):
    """The nonzero columns in lex order, and each one's (mask, value)
    list of the row subsets it gives a nonzero sum."""
    entries = range(m) if m else range(-bound, bound + 1)
    columns = [c for c in itertools.product(entries, repeat=n) if any(c)]
    hits = {}
    for c in columns:
        sums = [(mask, sum(c[i] for i in range(n) if mask >> i & 1))
                for mask in range(1, 1 << n)]
        hits[c] = [(mask, v % m if m else v) for mask, v in sums
                   if (v % m if m else v)]
    return columns, hits


def naive_groups(n, m, bound=None):
    """_constraint_groups' list of one-sided counting sides (v, b, g)
    for the region, under the _TABLE_CAP in force at call time."""
    columns, hits = _columns(n, m, bound)
    return _constraint_groups(n, [hits[c] for c in columns])


def naive_hit_vectors(n, m, bound=None):
    """The distinct 0/1 vectors, indexed by mask 1 .. 2^n - 1, of the
    row subsets a nonzero column hits."""
    columns, hits = _columns(n, m, bound)
    return sorted({tuple(int(any(mk == mask for mk, _ in hits[c]))
                         for mask in range(1, 1 << n)) for c in columns})


def _naive_bounds(w, vectors):
    """(lo, hi, g) of the weights w, a dict mask -> coefficient, from
    its amounts w.h over the hit vectors h."""
    amounts = {sum(c * h[mask - 1] for mask, c in w.items())
               for h in vectors}
    lo = min(amounts)
    return lo, max(amounts), math.gcd(*(a - lo for a in amounts))


def naive_facet_groups(n, m, bound=None, facets=None):
    """Every facet of the hull of the region's hit vectors as a
    two-sided group (w, lo, hi, g), lo, hi and g by brute force over
    naive_hit_vectors.  The facets are naive_hull_facets' unless given
    as a list of (w, b)."""
    vectors = naive_hit_vectors(n, m, bound)
    if facets is None:
        facets = naive_hull_facets(vectors)
    groups = []
    for w, _ in facets:
        weights = tuple((mask, c) for mask, c in enumerate(w, 1) if c)
        groups.append((weights, *_naive_bounds(dict(weights), vectors)))
    return groups


def naive_counting_groups(n, m, bound=None):
    """The 0/1 counting groups as two-sided groups (w, lo, hi, g): the
    set of all row subsets, then, while the sets of 3 of them times the
    columns stay within patterns._TABLE_CAP << 7 (read at call time),
    every set of 3 and e_Y + e_Z - e_X for each labelling (X; Y, Z) of
    disjoint nonempty A, B and A | B, each once (at n = 2 the set of
    all subsets is the only set of 3).  Each gets lo, hi and g from the
    amounts w.h over the hit vectors h, and is left out where it can
    exclude nothing: where lo and hi are the sums of its negative and
    positive coefficients and g <= 1.  Sets of 2 are not built: from
    n = 3 on each would be left out (see
    test_no_set_of_two_row_subsets_is_ever_kept in
    tests/test_patterns.py)."""
    vectors = naive_hit_vectors(n, m, bound)
    masks = range(1, 1 << n)
    n_columns = len(_columns(n, m, bound)[0])
    candidates = [{mask: 1 for mask in masks}]
    if math.comb(len(masks), 3) * n_columns <= patterns._TABLE_CAP << 7:
        candidates += [{mask: 1 for mask in combo}
                       for combo in itertools.combinations(masks, 3)]
        for a, b in naive_disjoint_pairs(n):
            for x, y, z in ((a | b, a, b), (a, b, a | b), (b, a, a | b)):
                candidates.append({x: -1, y: 1, z: 1})
    groups = {}
    for w in candidates:
        lo, hi, g = _naive_bounds(w, vectors)
        if (g > 1 or lo != sum(c for c in w.values() if c < 0)
                or hi != sum(c for c in w.values() if c > 0)):
            groups[tuple(sorted(w.items()))] = lo, hi, g
    return [(weights, *rest) for weights, rest in groups.items()]


class _NodeCapReached(Exception):
    """naive_search has counted more nodes than its node cap."""


def naive_search(n, m, l_max, bound=None, merge_rows=True, memo_cap=None,
                 sides=None, node_cap=None):
    """(status, nodes, pattern or None) of the canonical-pattern search
    by plain recursion: the columns in lex order, a per-mask progress
    list, a tuple signature, naive_feasible over `sides` (by default
    _constraint_groups' list for the region, as naive_groups gives it),
    and a dict from tuple memo keys to the set of r proved exhausted,
    stopped from taking new keys at memo_cap per pass.  Every candidate
    column counts as a node, as in `search`, and past `node_cap` nodes
    the search stops as ("inconclusive", node_cap + 1, None).  With
    merge_rows an untied state's key holds the least of its progress
    tuple's row-permutation images (n <= 4), else the progress tuple
    itself.

    The lengths are searched in passes over windows of
    patterns._WINDOW lengths (read at call time), the top one of those
    up to t ending at t: n = 1 has a pattern at length 1, n = 2 at 3,
    and an even m >= 2 at 2^n - 1; else t = l_max.  In a pass a node is
    alive for r (columns still to add) from the least r its column
    passed naive_feasible for up to the longest length still sought,
    and its children for one fewer.  A find lowers that length to one
    below its own, and a node stops, counting nothing more, once its
    children have no r left."""
    window = patterns._WINDOW
    masks = range(1, 1 << n)
    columns, hits = _columns(n, m, bound)
    if sides is None:
        sides = _constraint_groups(n, [hits[c] for c in columns])
    perms = list(itertools.permutations(range(n)))
    if not merge_rows or n > 4:
        perms = perms[:1]
    # relabel[k][mask]: the mask its rows move to under perms[k]
    relabel = [[sum(1 << perm[i] for i in range(n) if mask >> i & 1)
                for mask in range(1 << n)] for perm in perms]

    def least_image(progress):
        images = []
        for to in relabel:
            image = [0] * (1 << n)
            for mask in masks:
                image[to[mask]] = progress[mask]
            images.append(tuple(image))
        return min(images)

    def first_column(c):
        # the first nonzero subset sum fixes s0 == gcd(s0, m)
        s0 = hits[c][0][1]
        return s0 == math.gcd(s0, m)

    if n == 1:
        top = 1
    elif n == 2:
        top = 3
    elif m % 2 == 0 and m > 0:
        top = 2 ** n - 1
    else:
        top = l_max
    top = min(top, l_max)
    tops = list(range(top, 0, -window))[::-1]
    tops += list(range(top + window, l_max + window, window))
    windows = [(max(1, t - window + 1), min(t, l_max)) for t in tops]

    nodes = 0
    for lo, hi in windows:
        progress = [0] * (1 << n)
        chosen = []
        memo = {}
        limit = hi
        found = None

        def dfs(depth, r_lo, tied, sig):
            nonlocal nodes, limit, found
            if r_lo == 0 and tied == 0 and all(q == len(sig)
                                               for q in progress[1:]):
                found = tuple(tuple(c[i] for c in chosen) for i in range(n))
                limit = depth - 1
                return
            pairs = [i for i in range(n - 1) if tied >> i & 1]
            child_lo = max(0, r_lo - 1)
            for c in columns:
                child_hi = limit - depth - 1
                if child_hi < child_lo:
                    return
                if any(c[i] > c[i + 1] for i in pairs):
                    continue
                if depth == 0 and not first_column(c):
                    continue
                nodes += 1
                if node_cap is not None and nodes > node_cap:
                    raise _NodeCapReached
                ext = None
                fits = True
                for mask, v in hits[c]:
                    if progress[mask] < len(sig):
                        fits = sig[progress[mask]] == v
                    elif ext is None:
                        ext = v
                    else:
                        fits = ext == v
                    if not fits:
                        break
                if not fits:
                    continue
                child_tied = sum(1 << i for i in pairs if c[i] == c[i + 1])
                child_sig = sig if ext is None else sig + (ext,)
                for mask, _ in hits[c]:
                    progress[mask] += 1
                key = ((least_image(progress) if child_tied == 0
                        else tuple(progress)), child_tied, child_sig)
                least = next((r for r in range(child_lo, child_hi + 1)
                              if naive_feasible(progress, r, sides)), None)
                # a child is skipped when the memo holds the least r it
                # passes naive_feasible for and every r above that
                if least is not None and not (child_hi and set(range(
                        least, child_hi + 1)) <= memo.get(key, set())):
                    chosen.append(c)
                    dfs(depth + 1, least, child_tied, child_sig)
                    chosen.pop()
                    child_hi = limit - depth - 1
                    # exhausted: every r the child was walked for, and
                    # those below the first it passed naive_feasible for
                    if child_hi and child_hi >= child_lo and (
                            key in memo or memo_cap is None
                            or len(memo) < memo_cap):
                        memo.setdefault(key, set()).update(
                            range(child_lo, child_hi + 1))
                for mask, _ in hits[c]:
                    progress[mask] -= 1

        try:
            for r in range(lo, hi + 1):
                if naive_feasible(progress, r, sides):
                    dfs(0, r, (1 << n - 1) - 1, ())
                    break
        except _NodeCapReached:
            return "inconclusive", node_cap + 1, None
        if found is not None:
            return "found", nodes, Pattern(n, m, len(found[0]), found)
    return "exhausted", nodes, None


def naive_span(gens, spec):
    """The subgroup generated by gens, grown from 0 by adding generators
    until nothing new appears (which is the subgroup in a finite group)."""
    span = {spec.zero()}
    new = span
    while new:
        new = {s + g for s in new for g in gens} - span
        span |= new
    return span


def naive_is_independent(seq):
    """Each term lies outside the subgroup generated by its predecessors."""
    return all(x not in naive_span(seq[:i], x.parent)
               for i, x in enumerate(seq))


def naive_subgroups(spec):
    """Every subgroup of a finite direct sum of r cyclic factors, as
    frozensets: the spans of the r-element generator tuples, since each
    subgroup of such a group needs at most r generators."""
    elems = list(spec.enumerate())
    return {frozenset(naive_span(gens, spec)) for gens in
            itertools.combinations_with_replacement(elems, len(spec.factors))}


def naive_sunflower(family, k):
    """The lex-first k-tuple (k >= 2) of indices into `family`, a list of
    sets, whose sets pairwise meet in one common root, as (indices, root),
    or None."""
    for idxs in itertools.combinations(range(len(family)), k):
        meets = {frozenset(family[i] & family[j])
                 for i, j in itertools.combinations(idxs, 2)}
        if len(meets) == 1:
            return idxs, meets.pop()
    return None
