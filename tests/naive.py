"""Independent brute-force oracles used to cross-check the main routines.

These deliberately share no logic with the search engine's pruning:
they generate candidate row tuples directly and test each one with the
definitional adequacy check.  Rows are grouped by their nonzero-entry
sequence first, which is sound because the singleton subset sums
already force all rows of a qualifying tuple into one class.  The one
piece the naive adequacy finder shares with the search is
`groups.subset_sums`, which `is_adequate` and the column profiles both
call; it is pinned against `naive_subset_sums` below, mask by mask, in
tests/test_groups.py.
"""

import itertools
import operator

from pattern_forge.patterns import Pattern, is_adequate


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


def naive_feasible(progress, r, groups):
    """Can `progress` (indexed by row-subset mask, slot 0 unused) be
    completed in r more columns?  A plain walk over every common final
    length k, testing each counting group (masks, lo, hi, g) at that k."""
    p = progress
    for k in range(max(1, max(p[1:])), min(p[1:]) + r + 1):
        ok = True
        for masks, lo, hi, g in groups:
            demand = len(masks) * k - sum(p[mk] for mk in masks)
            if demand < 0 or not r * lo <= demand <= r * hi:
                ok = False
                break
            if g > 1 and (demand - r * lo) % g:
                ok = False
                break
        if ok:
            return True
    return False


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
