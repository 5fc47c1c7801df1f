import collections
import functools
import itertools
import json
import math
import operator
import random
import types
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pattern_forge import patterns
from pattern_forge.groups import (GroupSpec, SizeLimitError, fs_set_formal,
                                  sigma)
from pattern_forge.patterns import (Pattern, SearchConfig,
                                    canonical_2_adequate, is_adequate, search)
from pattern_forge.tokens import ColourToken, canonical_json

from naive import (naive_congruence, naive_counting_groups, naive_facet_groups,
                   naive_feasible, naive_find_adequate, naive_groups,
                   naive_hit_vectors, naive_hull_facets, naive_search,
                   naive_sides)


# -- pattern construction ------------------------------------------------------

def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern(2, 3, 2, ((1, 0), (1, 0)))  # duplicate rows
    with pytest.raises(ValueError):
        Pattern(2, 3, 2, ((0, 0), (1, 0)))  # zero row
    with pytest.raises(ValueError):
        Pattern(1, 1, 1, ((1,),))  # bad modulus
    with pytest.raises(ValueError):
        Pattern(1, 3, 2, ((1,),))  # ragged


def test_pattern_entries_reduce():
    p = Pattern(2, 3, 3, ((1, -1, 0), (0, 1, -1)))
    assert p.rows == ((1, 2, 0), (0, 1, 2))


def test_pattern_json_round_trip():
    p = canonical_2_adequate(3)
    blob = canonical_json(p.jsonable())
    assert blob == '{"n":2,"m":3,"l":3,"rows":[[1,2,0],[0,1,2]]}'
    assert Pattern(**json.loads(blob)) == p


# -- adequacy ------------------------------------------------------------------

def test_adequate_example_mod3():
    report = is_adequate(Pattern(2, 3, 3, ((1, 2, 0), (0, 1, 2))))
    assert report.adequate
    assert report.signature == (1, 2)


def test_inadequate_witness():
    report = is_adequate(Pattern(2, 2, 2, ((1, 0), (0, 1))))
    assert not report.adequate


def test_canonical_two_row_patterns():
    assert canonical_2_adequate(2).rows == ((1, 1, 0), (0, 1, 1))
    assert canonical_2_adequate(5).rows == ((1, 4, 0), (0, 1, 4))
    p0 = canonical_2_adequate(0)
    assert p0.rows == ((1, -1, 0), (0, 1, -1))
    report = is_adequate(p0)
    assert report.adequate and report.signature == (1, -1)


# -- search --------------------------------------------------------------------

def test_search_finds_two_row_patterns():
    for m in (2, 3, 5, 7):
        out = search(SearchConfig(n=2, m=m, l_max=3))
        assert out.status == "found"
        assert is_adequate(out.pattern).adequate


def test_search_found_patterns_self_verify():
    for n, m, l_max in [(1, 2, 1), (2, 2, 3), (3, 2, 8), (2, 3, 3)]:
        out = search(SearchConfig(n=n, m=m, l_max=l_max))
        assert out.status == "found"
        report = is_adequate(out.pattern)
        assert report.adequate
        assert out.pattern.n == n and out.pattern.m == m


def test_search_matches_naive_oracle_on_small_grid():
    for n in (1, 2):
        for m in (2, 3):
            for l_max in (1, 2, 3):
                out = search(SearchConfig(n=n, m=m, l_max=l_max))
                naive = naive_find_adequate(n, m, l_max)
                assert (out.status == "found") == (naive is not None), \
                    (n, m, l_max)


# the module's own bound on tabulated pairs and its window of lengths
_TABLE_CAP = patterns._TABLE_CAP
_WINDOW = patterns._WINDOW


# the status and node counts of every region the tests below pin: nodes
# one length per pass (_WINDOW = 1), then with the module's _WINDOW of 3
# lengths per pass
_NODES = {
    (3, 3, None, 12): ("exhausted", 2_480, 2_025),
    (3, 4, None, 9): ("found", 2_627, 1_991),
    (3, 0, 2, 5): ("exhausted", 341, 166),
    (3, 3, None, 8): ("exhausted", 155, 132),
    (3, 5, None, 8): ("exhausted", 3_018, 1_605),
    (3, 0, 1, 8): ("exhausted", 378, 277),
    (4, 3, None, 8): ("exhausted", 803, 295),
    (3, 4, None, 8): ("found", 2_627, 1_991),
    (3, 6, None, 8): ("found", 12_217, 8_832),
    (3, 4, None, 7): ("found", 2_627, 1_991),
    (3, 6, None, 7): ("found", 12_217, 8_832),
    (3, 3, None, 19): ("found", 73_966, 48_677),
    (4, 2, None, 16): ("found", 4_293, 4_293),
    (3, 5, None, 4): ("exhausted", 134, 104),
    (3, 6, None, 4): ("exhausted", 684, 592),
    (3, 0, 2, 4): ("exhausted", 184, 166),
    (4, 3, None, 4): ("exhausted", 49, 39),
    (3, 2, None, 7): ("found", 28, 28)}


@pytest.mark.parametrize("n,m,bound,l_max", list(_NODES))
def test_pinned_node_counts(monkeypatch, n, m, bound, l_max):
    # only canonical branches are counted, and the lex-first pattern is
    # canonical anyway, so the counts are where a lost symmetry break
    # shows.  Progress fields are one byte at every l_max, so the
    # lengths 4, 7 and 8 pin the packing where field widths once
    # changed.  (3, 3) is validated independently to l = 8
    # (generate-and-test and the subset scan over (Z/3)^8 agree).
    # test_naive_search_reproduces_the_pinned_counts checks naive_search
    # against every count.
    status, *counts = _NODES[n, m, bound, l_max]
    cfg = SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound)
    for window, expected in zip((1, _WINDOW), counts):
        monkeypatch.setattr(patterns, "_WINDOW", window)
        out = search(cfg)
        assert (out.status, out.nodes) == (status, expected), window


# regions small enough for the generate-and-test oracle: (n, m, bound, l_max)
_ORACLE_REGIONS = [(n, m, None, 5) for n in (1, 2, 3) for m in (2, 3, 4, 5)]
_ORACLE_REGIONS += [(n, 0, 1, 5) for n in (1, 2, 3)]
_ORACLE_REGIONS += [(3, 2, None, 7)]  # the first 3-row pattern mod 2 has l = 7


@pytest.mark.parametrize("n,m,bound,l_max", _ORACLE_REGIONS)
def test_symmetry_break_keeps_per_length_status(n, m, bound, l_max):
    # the engine explores only canonical patterns; an adequate pattern of
    # length l exists iff a canonical one does, so every length agrees
    # with the oracle, which shares no code with the engine
    for l in range(1, l_max + 1):
        out = search(SearchConfig(n=n, m=m, l_min=l, l_max=l,
                                  entry_bound=bound))
        naive = naive_find_adequate(n, m, l, bound=bound)
        assert out.status == ("found" if naive else "exhausted"), (n, m, l)


@pytest.mark.parametrize("n,m,bound,l_max", [
    (1, 2, None, 2), (1, 6, None, 2), (1, 0, 2, 2),
    (2, 2, None, 3), (2, 3, None, 3), (2, 4, None, 3), (2, 6, None, 3),
    (2, 0, 1, 3), (2, 0, 2, 3), (3, 2, None, 8), (4, 2, None, 16)])
def test_found_witnesses_are_canonical(n, m, bound, l_max):
    out = search(SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound))
    assert out.status == "found"
    rows = out.pattern.rows
    assert all(a < b for a, b in zip(rows, rows[1:])), rows
    s0 = is_adequate(out.pattern).signature[0]
    assert s0 == math.gcd(s0, m) and s0 > 0, (rows, s0)


# the engine class itself; tests swap patterns._WindowSearch for
# checking subclasses
_WINDOW_SEARCH = patterns._WindowSearch


@functools.cache
def _prefix_state(n, m, chosen):
    """(progress, signature, tie mask) of a tuple of columns, computed
    from the columns alone: progress[mask] counts the nonzero entries of
    the row-subset sum, and the signature is the longest nonzero-entry
    sequence (adequate prefixes agree on the shorter ones)."""
    progress = [0] * (1 << n)
    signature = ()
    for mask in range(1, 1 << n):
        entries = []
        for c in chosen:
            v = sum(c[i] for i in range(n) if mask >> i & 1)
            v = v % m if m else v
            if v:
                entries.append(v)
        progress[mask] = len(entries)
        if len(entries) > len(signature):
            signature = tuple(entries)
    tied = sum(1 << i for i in range(n - 1)
               if all(c[i] == c[i + 1] for c in chosen))
    return tuple(progress), signature, tied


@functools.cache
def _hit_vectors(columns):
    """For every column of the region, the 0/1 vector of the row subsets
    it hits: a child's progress is its parent's plus one of these."""
    return {tuple(int(any(mk == mask for mk, _ in hits))
                  for mask in range(columns.n_masks + 1))
            for _, hits, *_ in columns.choices[0]}


def _assert_child_of_prefix(engine, progress):
    """`progress` is the chosen prefix's progress plus one column."""
    parent, _, _ = _prefix_state(engine.n, engine.m, tuple(engine.chosen))
    delta = tuple(a - b for a, b in zip(progress, parent))
    assert delta in _hit_vectors(engine.columns), (engine.chosen, progress)


def _decode(columns, key):
    """The progress vector and r packed into a feasibility key."""
    width = patterns._FIELD
    progress = [key >> width * mask & (1 << width) - 1
                for mask in range(columns.n_masks + 1)]
    return progress, key >> columns.rest_shift


def _feasible_on(engine, progress, r):
    """_feasible on `progress`, passed as bytes, on a new engine of the
    same region, with G and k_lo computed from the vector itself."""
    columns = engine.columns
    fresh = _WINDOW_SEARCH(engine.n, engine.m, 1, max(1, r), columns,
                           patterns._NodeBudget(None))
    packed_sums = columns.root_sums + sum(map(operator.mul, progress,
                                              columns.sum_units))
    return fresh._feasible(r, bytes(progress), packed_sums,
                           max(1, max(progress)))


class _CheckedCache(dict):
    """A feasibility cache that checks every key against the chosen
    prefix and recomputes every hit without the cache, from the state
    the key itself packs."""

    def __init__(self, engine):
        super().__init__()
        self.engine = engine
        self.hits = 0

    def _decoded(self, key):
        engine = self.engine
        progress, r = _decode(engine.columns, key)
        assert progress[0] == 0
        # the lookup comes before the child column is appended; r is
        # within the child's window of r
        depth = len(engine.chosen)
        assert max(0, engine.lo - depth - 1) <= r <= engine.limit - depth - 1
        _assert_child_of_prefix(engine, progress)
        return progress, r

    def get(self, key):
        progress, r = self._decoded(key)
        cached = super().get(key)
        if cached is not None:
            self.hits += 1
            assert cached == _feasible_on(self.engine, progress, r), (
                self.engine.lo, self.engine.chosen, progress, r)
        return cached

    def __setitem__(self, key, answer):
        # an answer is stored under the state it was computed on, the
        # progress bytes of the engine's last _feasible call
        progress, _ = self._decoded(key)
        assert progress == list(self.engine.asked), (self.engine.chosen, key)
        super().__setitem__(key, answer)


# (n, m, bound, l_max): every n <= 4 against moduli 2, 3, 5 and m = 0,
# and three rows mod 4 and 6, where a packing one bit short first
# returns a wrong answer (at l = 6)
_CACHE_REGIONS = [(n, m, None, l_max) for n, l_max in
                  [(1, 3), (2, 6), (3, 9), (4, 4)] for m in (2, 3, 5)]
_CACHE_REGIONS += [(n, 0, bound, l_max) for n, l_max in
                   [(1, 3), (2, 5), (3, 6)] for bound in (1, 2)]
_CACHE_REGIONS += [(3, 4, None, 7), (3, 6, None, 7)]


@pytest.mark.parametrize("n,m,bound,l_max", _CACHE_REGIONS)
def test_feasibility_cache_hits_match_a_fresh_call(monkeypatch, n, m, bound,
                                                   l_max):
    caches = []

    class Checked(patterns._WindowSearch):
        def __init__(self, *args):
            super().__init__(*args)
            self.feasible_cache = _CheckedCache(self)
            caches.append(self.feasible_cache)

        def _feasible(self, r, p, packed_sums, k_lo):
            self.asked = p
            return super()._feasible(r, p, packed_sums, k_lo)

    cfg = SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound)
    plain = search(cfg)
    monkeypatch.setattr(patterns, "_WindowSearch", Checked)
    assert search(cfg) == plain
    # one pass per window, up to the one holding the witness
    longest = plain.pattern.l if plain.pattern else l_max
    assert len(caches) == sum(lo <= longest for lo, _ in
                              patterns._windows(n, m, l_max))
    assert all(len(c) <= patterns._CACHE_CAP for c in caches)
    if plain.nodes > 100:
        assert sum(c.hits for c in caches) > 0


def test_capped_caches_keep_the_outcome(monkeypatch):
    # past the cap an answer is recomputed and a state re-explored, so
    # only the node count may grow
    engines = []

    class Recorded(patterns._WindowSearch):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    cfg = SearchConfig(n=3, m=4, l_max=9)
    plain = search(cfg)
    monkeypatch.setattr(patterns, "_WindowSearch", Recorded)
    monkeypatch.setattr(patterns, "_CACHE_CAP", 3)
    capped = search(cfg)
    assert (capped.status, capped.pattern) == (plain.status, plain.pattern)
    assert capped.nodes > plain.nodes
    assert max(len(e.feasible_cache) for e in engines) == 3
    assert max(len(e.memo) for e in engines) == 3


# (3, 3) up to 12 takes a cap of 30: at 50 its memo fills with three
# lengths per pass only
@pytest.mark.parametrize("cap,n,m,bound,l_max,status,nodes,full", [
    (3, 3, 4, None, 9, "found", (5_666, 5_030), True),
    (30, 3, 3, None, 12, "exhausted", (3_104, 2_675), True),
    (100, 3, 5, None, 12, "exhausted", (38_850, 23_014), True),
    (500, 2, 0, 3, 6, "found", (67, 57), False)],
    ids=["3-3-4-None-9", "30-3-3-None-12", "100-3-5-None-12", "500-2-0-3-6"])
def test_node_counts_with_saturated_caches(monkeypatch, cap, n, m, bound,
                                           l_max, status, nodes, full):
    # nodes one length per pass, then with the module's _WINDOW, and
    # whether the memo fills.  naive_search(memo_cap=cap), whose memo
    # keys are tuples, gives the same counts (see
    # test_naive_search_reproduces_the_pinned_counts).  Once a cache is
    # full, which entries it holds depends on the order they came in, so
    # equal counts mean the one-integer keys name the same states, up to
    # a row permutation where untied, in the same order.  The m = 0
    # region fills nothing and pins the offset digits.
    engines = []

    class Recorded(patterns._WindowSearch):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(patterns, "_WindowSearch", Recorded)
    monkeypatch.setattr(patterns, "_CACHE_CAP", cap)
    for window, expected in zip((1, _WINDOW), nodes):
        monkeypatch.setattr(patterns, "_WINDOW", window)
        engines.clear()
        out = search(SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound))
        assert (out.status, out.nodes) == (status, expected)
        assert full == (max(len(e.memo) for e in engines) == cap)


# every region whose nodes a test pins, as (n, m, bound, l_max, memo
# cap or None, one length per pass): the keys of _NODES, the capped
# caches (and (3, 3) up to 12 at a cap of 50, where its memo fills with
# three lengths per pass only) and the node-cap region run to its end,
# each one length per pass and with the module's _WINDOW, then the
# regions test_cli pins with the module's _WINDOW
_PINNED_REGIONS = [(*region, one_per_pass) for region in [
    *((*key, None) for key in _NODES),
    (3, 4, None, 9, 3), (3, 3, None, 12, 50), (3, 3, None, 12, 30),
    (3, 5, None, 12, 100),
    (2, 0, 3, 6, 500), (3, 3, None, 10, None)]
    for one_per_pass in (False, True)]
_PINNED_REGIONS += [(2, 3, None, 3, None, False), (4, 5, None, 8, None, False),
                    (5, 3, None, 6, None, False), (6, 2, None, 3, None, False)]


@pytest.mark.parametrize("n,m,bound,l_max,cap,one_per_pass", _PINNED_REGIONS)
def test_naive_search_reproduces_the_pinned_counts(monkeypatch, n, m, bound,
                                                   l_max, cap, one_per_pass):
    # naive_search shares no packing, cache or key code with search, so
    # equal status, nodes and witness bytes back every pin above.  Where
    # the memo fills, a memo of r-sets must take new keys where the memo
    # of (state, r) keys did.
    if cap is not None:
        monkeypatch.setattr(patterns, "_CACHE_CAP", cap)
    monkeypatch.setattr(patterns, "_WINDOW", 1 if one_per_pass else _WINDOW)
    out = search(SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound))
    status, nodes, pattern = naive_search(n, m, l_max, bound, memo_cap=cap)
    assert (status, nodes) == (out.status, out.nodes)
    assert (canonical_json(pattern.jsonable()) if pattern else None) == (
        canonical_json(out.pattern.jsonable()) if out.pattern else None)


# the pinned regions for the naive engine with the 0/1 groups of size 3
# alone, which leaves out (4, 2, None, 16): there the engine walks
# 249,066 nodes, not 4,293, in about 13 s
_SMALL_GROUP_REGIONS = sorted({(n, m, bound, l_max, cap)
                               for n, m, bound, l_max, cap, _ in _PINNED_REGIONS
                               if (n, m, l_max) != (4, 2, 16)}, key=str)


@pytest.mark.parametrize("n,m,bound,l_max,cap", _SMALL_GROUP_REGIONS)
def test_groups_of_sizes_two_and_three_keep_the_outcome(n, m, bound, l_max,
                                                        cap):
    # dropping a counting group only cuts less, so the 0/1 groups of 3
    # row subsets alone (for n >= 3 without the group of all subsets),
    # without the triangle bound and the facets, give the status and
    # witness of the region's own list; only the nodes walked may grow.
    # No group of 2 is kept from n = 3 on (see
    # test_no_set_of_two_row_subsets_is_ever_kept).  Sides the box
    # bounds, with no congruence, are left out, as they cut nothing.
    full = naive_groups(n, m, bound)
    small = [(v, b, g) for v, b, g in naive_sides(
        [w for w in naive_counting_groups(n, m, bound)
         if len(w[0]) == 3 and min(c for _, c in w[0]) > 0])
        if g > 1 or b != sum(c for _, c in v if c < 0)]
    with_full = naive_search(n, m, l_max, bound, memo_cap=cap, sides=full)
    with_small = naive_search(n, m, l_max, bound, memo_cap=cap, sides=small)
    assert with_small[0] == with_full[0]
    assert (canonical_json(with_small[2].jsonable()) if with_small[2]
            else None) == (canonical_json(with_full[2].jsonable())
                           if with_full[2] else None)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_merging_row_permutations_keeps_the_outcome(data):
    # the merge skips only subtrees proved exhausted, so status and the
    # lex-first witness stay, and the states it enters are a subset of
    # those it enters without merging
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.sampled_from([0, 2, 3] if n == 4 else [0, 2, 3, 4, 5]))
    bound = data.draw(st.integers(1, 2 if n < 4 else 1)) if m == 0 else None
    l_max = data.draw(st.integers(1, 5 if n == 4 else 8))
    merged = naive_search(n, m, l_max, bound)
    plain = naive_search(n, m, l_max, bound, merge_rows=False)
    assert (merged[0], merged[2]) == (plain[0], plain[2])
    assert merged[1] <= plain[1]


# (n, m, bound) -> the longest l_max at which naive_find_adequate
# answers within about a tenth of a second: one and two rows find their
# patterns at l = 1 and 3, three rows mod 2 at l = 7, the rest find none
_FIND_REGIONS = {(n, m, None): 9 for n in (1, 2) for m in range(2, 8)}
_FIND_REGIONS.update({
    (1, 0, 1): 9, (2, 0, 1): 9, (3, 2, None): 9, (3, 3, None): 5,
    (3, 4, None): 5, (3, 5, None): 4, (3, 6, None): 4, (3, 7, None): 3,
    (3, 0, 1): 5, (4, 2, None): 6, (4, 3, None): 4, (4, 4, None): 4,
    (4, 5, None): 3, (4, 6, None): 3, (4, 7, None): 3, (4, 0, 1): 4})
_naive_find = functools.cache(naive_find_adequate)


@functools.cache
def _one_length_per_pass(n, m, bound, l_max):
    with mock.patch.object(patterns, "_WINDOW", 1):
        return search(SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound))


@given(region=st.sampled_from(sorted(_FIND_REGIONS, key=str)),
       l_max=st.integers(1, 9), known=st.integers(1, 12),
       cap=st.none() | st.integers(0, 3000))
# the shortest pattern, at l = 3 and 7, at the top, the middle and the
# bottom of its window
@example(region=(2, 3, None), l_max=9, known=3, cap=None)
@example(region=(2, 3, None), l_max=9, known=4, cap=None)
@example(region=(2, 3, None), l_max=9, known=5, cap=None)
@example(region=(3, 2, None), l_max=9, known=7, cap=None)
@example(region=(3, 2, None), l_max=9, known=8, cap=None)
@example(region=(3, 2, None), l_max=9, known=9, cap=None)
@settings(max_examples=80, deadline=None)
def test_windows_anywhere_keep_status_and_witness(region, l_max, known, cap):
    # the windows are aligned by the length _known_length gives; any
    # length in its place only moves window edges, so the status is the
    # generate-and-test oracle's, the witness as short as its, and the
    # witness bytes those of a search of one length per pass
    n, m, bound = region
    l_max = min(l_max, _FIND_REGIONS[region])
    with mock.patch.object(patterns, "_known_length", lambda n, m: known):
        out = search(SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound,
                                  node_cap=cap))
    if out.status == "inconclusive":
        assert out.nodes == cap + 1
        return
    assert cap is None or out.nodes <= cap
    naive = _naive_find(n, m, l_max, bound)
    assert out.status == ("found" if naive else "exhausted")
    if naive:
        assert out.pattern.l == naive.l
        assert canonical_json(out.pattern.jsonable()) == canonical_json(
            _one_length_per_pass(n, m, bound, l_max).pattern.jsonable())


@pytest.mark.parametrize("n,m,known,l_maxes", [
    (3, 4, 7, range(7, 13)), (3, 6, 7, range(7, 13)), (2, 5, 3, range(3, 13))],
    ids=["3-4", "3-6", "2-5"])
def test_nodes_do_not_depend_on_l_max_past_a_known_length(n, m, known,
                                                          l_maxes):
    # the windows end at the length where a pattern is known to exist,
    # whatever l_max lies past it, so the search walks the same nodes
    assert patterns._known_length(n, m) == known
    outs = {l_max: search(SearchConfig(n=n, m=m, l_max=l_max))
            for l_max in l_maxes}
    assert len({(out.status, out.nodes, out.pattern)
                for out in outs.values()}) == 1
    assert outs[known].pattern.l == known


_key_columns = functools.cache(patterns._Columns)


def _codes(columns, entries):
    """A signature as the str of codes the search carries."""
    return "".join(chr(e + columns.sig_offset) for e in entries)


def _decode_memo_key(columns, n, key):
    """(state, tie mask, signature entries) of a memo key."""
    state = key & ((1 << columns.rest_shift) - 1)
    tied = key >> columns.rest_shift & ((1 << n - 1) - 1)
    code = key >> columns.sig_shift
    sig = []
    while code > 1:
        code, digit = divmod(code, columns.sig_base)
        sig.append(digit - columns.sig_offset)
    assert code == 1
    return state, tied, tuple(reversed(sig))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_memo_key_decodes_to_its_parts(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.sampled_from([0, 2, 3, 5]))
    bound = data.draw(st.integers(1, 3)) if m == 0 else None
    l_max = data.draw(st.sampled_from([1, 2, 7, 8, 19, 31]))
    columns = _key_columns(n, m, bound)
    top = n * bound if m == 0 else m - 1
    entry = (st.integers(-top, top).filter(bool) if m == 0
             else st.integers(1, top))
    # every part at its widest: all state bits and tie bits set, and a
    # signature of l_max extreme entries
    full_state = (1 << columns.rest_shift) - 1
    state = data.draw(st.one_of(st.just(full_state),
                                st.integers(0, full_state)))
    tied = data.draw(st.sampled_from([0, (1 << n - 1) - 1]) | st.integers(
        0, (1 << n - 1) - 1))
    extremes = st.sampled_from(sorted({-top if m == 0 else 1, top}))
    sig = tuple(data.draw(st.one_of(
        st.lists(entry, max_size=l_max),
        st.lists(extremes, min_size=l_max, max_size=l_max))))
    key = columns.memo_key(state, tied, _codes(columns, sig))
    assert _decode_memo_key(columns, n, key) == (state, tied, sig)


def _packed_images(columns, n, progress):
    """The packed progress vector under every row permutation: row i
    moves to perm[i], so the field of a mask moves to the mask of the
    rows it names."""
    width = patterns._FIELD
    return [sum(progress[mask] << width * sum(1 << perm[i] for i in range(n)
                                              if mask >> i & 1)
                for mask in range(1, 1 << n))
            for perm in itertools.permutations(range(n))]


# (3, 0, 2) and (4, 3) one length longer than before the triangle bound,
# which leaves no untied child at l_max 5 and 8
@pytest.mark.parametrize("n,m,bound,l_max", [
    (3, 3, None, 8), (3, 4, None, 7), (2, 5, None, 6), (3, 0, 1, 6),
    (3, 0, 2, 6), (4, 3, None, 9)])
def test_search_memo_keys_are_memo_key(monkeypatch, n, m, bound, l_max):
    # _dfs extends the signature code entry by entry; the code it passes
    # down must be memo_key's.  Every key it stores is the memo_key of a
    # child it descended into, of the child's own progress when tied and
    # of the least row-permutation image of it when untied, computed
    # from the chosen columns alone, and it maps to a nonzero bitmask of
    # r that lengths of the window reach from the child's depth
    engines = []

    class Recorded(patterns._WindowSearch):
        def __init__(self, *args):
            super().__init__(*args)
            self.top = self.limit
            self.children = {}
            engines.append(self)

        def _dfs(self, depth, r_lo, tied, images, packed_sums, sig,
                 sig_code):
            columns = self.columns
            assert sig_code == columns.memo_key(0, 0, sig) >> columns.sig_shift
            if depth:
                progress, signature, tie = _prefix_state(
                    n, m, tuple(self.chosen))
                assert (_codes(columns, signature), tie) == (sig, tied)
                every = _packed_images(columns, n, progress)
                # the images _dfs carries, identity first
                assert images[0] == every[0]
                assert sorted(images) == sorted(every)
                packed = min(every) if tied == 0 else every[0]
                key = columns.memo_key(packed, tied, sig)
                self.children.setdefault(key, set()).add(
                    ((packed, tied, signature), packed != every[0], depth))
            return super()._dfs(depth, r_lo, tied, images, packed_sums, sig,
                                sig_code)

    monkeypatch.setattr(patterns, "_WindowSearch", Recorded)
    search(SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound))
    stored = merged = 0
    for engine in engines:
        for key, bits in engine.memo.items():
            (parts, moved, _), *_ = engine.children[key]
            assert _decode_memo_key(engine.columns, n, key) == parts
            # the r of a length in the window, from some depth the key
            # was entered at
            deepest = min(depth for *_, depth in engine.children[key])
            assert 0 < bits < 2 << engine.top - deepest
            stored += 1
            merged += moved
    # some key is stored, and from n = 3 on some untied key is not the
    # child's own progress
    assert stored > 0 and (n < 3 or merged > 0)


@pytest.mark.parametrize("n,m,l_max", [
    (1, 3, 2), (2, 3, 3), (3, 3, 4), (4, 3, 4), (5, 3, 6), (6, 2, 3)])
def test_columns_hold_one_image_per_tracked_permutation(n, m, l_max):
    # all n! row permutations up to n = 4, the identity alone from n = 5
    # on, where test_cli pins the stdout bytes of (5, 3, 6) and (6, 2, 3);
    # l_max names the length each region is searched to there
    columns = patterns._Columns(n, m, None)
    count = math.factorial(n) if n <= 4 else 1
    assert columns.root_images == (0,) * count
    for options in columns.choices:
        for c, hits, _, images, _ in options:
            step = sum(1 << patterns._FIELD * mask for mask, _ in hits)
            assert images[0] == step and len(images) == count


@pytest.mark.parametrize("n,m,length", [
    (3, 2, 7), (3, 4, 7), (3, 6, 7), (3, 3, 19)])
def test_field_widths_from_l_max_change_nothing(monkeypatch, n, m, length):
    # progress fields are one byte at every l_max, and the fields of the
    # packed form take their width from 255, so _Columns builds nothing
    # per length, and 15 more lengths must change no answer and no
    # count, one length per pass and three; 15 is a multiple of
    # both, so no window edge moves
    _, *counts = _NODES[n, m, None, length]
    for window, expected in zip((1, _WINDOW), counts):
        monkeypatch.setattr(patterns, "_WINDOW", window)
        exact = search(SearchConfig(n=n, m=m, l_max=length))
        wide = search(SearchConfig(n=n, m=m, l_max=length + 15))
        assert (exact.status, exact.pattern.l, exact.nodes) == (
            "found", length, expected)
        assert (wide.status, wide.pattern, wide.nodes) == (
            exact.status, exact.pattern, exact.nodes)


@pytest.mark.parametrize("n,m,bound,l_max,status,nodes", [
    (4, 3, None, 20, "exhausted", 183_501),
    (4, 3, None, 24, "exhausted", 855_835),
    (4, 2, None, 24, "found", 4_293),
    (4, 0, 1, 12, "exhausted", 6_089)])
def test_four_row_node_counts(n, m, bound, l_max, status, nodes):
    # regions that held 935, 840 and 940 size-4 groups, whose status,
    # witness and nodes stayed when those groups went; pinned on search
    # alone
    out = search(SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound))
    assert (out.status, out.nodes) == (status, nodes)
    if out.pattern:
        assert out.pattern.rows == _simplex(n, 1)


def _capped(n, m, l_max, caps):
    """The cases of test_node_cap_outcomes on one region."""
    return [pytest.param(n, m, l_max, cap, id=f"{n}-{m}-{l_max}-{cap}")
            for cap in caps]


@pytest.mark.parametrize("n,m,l_max,cap", [
    # the region is exhausted after 2,063 nodes one length per pass, and
    # after 1,273 three per pass; the edges of earlier counts stay as
    # caps: 2,986 and 1,635 before the facets, 2,908 and 1,557 with the
    # size-4 groups, 3,896 and 1,973 before the triangle bound
    *_capped(3, 3, 10, (0, 1, 2, 5, 17, 100, 1272, 1273, 1556, 1557, 1634,
                        1635, 1972, 1973, 2062, 2063, 2907, 2908, 2985, 2986,
                        3895, 3896, 5000)),
    *_capped(3, 2, 8, (0, 1, 2, 5, 17, 100, 5000)),
    # three per pass, the witness is recorded at 923 nodes, and the pass
    # spends 1,068 more proving l = 5 and 6 empty; a cap in between
    # leaves them unproved, so the run is inconclusive.  One length per
    # pass the run ends at 2,627 nodes.  The edges of earlier counts stay
    # as caps: before the facets the witness came at 1,293 and the runs
    # ended at 3,503 and 2,497, with the size-4 groups at 1,176, 3,386
    # and 2,380.
    *_capped(3, 4, 9, (923, 1176, 1293, 1990, 1991, 2379, 2380, 2496, 2497,
                       2626, 2627, 3385, 3386, 3502, 3503))])
def test_node_cap_outcomes(monkeypatch, n, m, l_max, cap):
    # the search spends the columns that fail the signature in chunks;
    # naive_search spends every candidate column one by one and stops
    # past the cap, so equal bytes at the caps on either side of each
    # run's end back every edge
    cfg = SearchConfig(n=n, m=m, l_max=l_max, node_cap=cap)
    for window in (1, _WINDOW):
        monkeypatch.setattr(patterns, "_WINDOW", window)
        status, nodes, pattern = naive_search(n, m, l_max, node_cap=cap)
        expected = patterns.SearchOutcome(status, nodes, cfg.region(), pattern)
        assert canonical_json(search(cfg).jsonable()) == canonical_json(
            expected.jsonable()), window


def _groups_under_the_cap(n, m, bound):
    """The counting sides of a region as (v, b, g), under the
    _TABLE_CAP in force."""
    alphabet = patterns._column_alphabet(n, m, bound)
    return patterns._constraint_groups(
        n, [patterns._column_profile(c, m) for c in alphabet])


# the same, at the module's own _TABLE_CAP, kept across tests
_counting_groups = functools.cache(_groups_under_the_cap)


@functools.cache
def _engine(n, m, bound=None):
    """One length-12 engine per region, kept across examples: building
    the tables of (4, 4) takes a good part of a second."""
    return patterns._WindowSearch(n, m, 12, 12, patterns._Columns(n, m, bound),
                                  patterns._NodeBudget(None))


@pytest.mark.parametrize("n,m", [(3, 2), (4, 2), (4, 4)])
def test_regions_with_congruences(n, m):
    # the regions below exercise the congruence step of _feasible
    assert any(g > 1 for *_, g in _counting_groups(n, m, None))


def _hull_region(n, m):
    """Whether _constraint_groups gives the region facets: its hit sets
    span a full-dimensional hull at n = 2 and 3 but for m = 2."""
    return 2 <= n <= 3 and m != 2


def _is_triangle(v):
    """Whether the side's weights are a triangle's lower side, e_Y + e_Z
    - e_X (see patterns._triangles)."""
    return sorted(c for _, c in v) == [-1, 1, 1]


def _can_exclude(w, lo, hi, g):
    """Whether a two-sided group can exclude anything: a side whose bound
    the box does not give, or a congruence."""
    return (g > 1 or lo != sum(c for _, c in w if c < 0)
            or hi != sum(c for _, c in w if c > 0))


# the hull regions whose facets the naive walk takes from
# naive_hull_facets; on the others it takes those of _hull_facets, as
# the brute force takes 2.5 s on the 18 hit vectors of (3, 4)
_BRUTE_HULLS = [(3, 3, None), (3, 5, None), (3, 0, 1)]


@functools.cache
def _two_sided_groups(n, m, bound):
    """The two-sided groups (w, lo, hi, g) of a region, by brute force:
    the facets of its hull (see naive_facet_groups) where it has them,
    else naive_counting_groups."""
    if not _hull_region(n, m):
        return naive_counting_groups(n, m, bound)
    facets = (None if (n, m, bound) in _BRUTE_HULLS else
              patterns._hull_facets(naive_hit_vectors(n, m, bound)))
    return naive_facet_groups(n, m, bound, facets)


@functools.cache
def _two_sided_sides(n, m, bound):
    """Both sides of every group of _two_sided_groups.  No side is
    dropped, so naive_feasible over these checks the sides
    _constraint_groups drops as implied."""
    return naive_sides(_two_sided_groups(n, m, bound))


@pytest.mark.parametrize("n,m,bound,one_sided,two_sided,congruent", [
    (3, 3, None, 12, 28, 28), (3, 4, None, 38, 0, 0), (3, 5, None, 31, 5, 0),
    (3, 6, None, 38, 0, 0), (2, 3, None, 1, 0, 0), (3, 0, 1, 16, 36, 0),
    (4, 0, 1, 17, 0, 0), (3, 2, None, 28, 8, 7), (4, 2, None, 0, 36, 35)])
def test_counting_groups_split(n, m, bound, one_sided, two_sided, congruent):
    # the two-sided groups behind the sides, by brute force: the facets
    # that can exclude something, or the 0/1 groups with the triangles
    # counted apart.  A group the box bounds on one side, with g <= 1,
    # is one-sided.  The facets imply every upper side, so each facet
    # gives its lower side alone, one field; a 0/1 group gives a field
    # per side the box does not bound, or that carries its congruence,
    # and a triangle its lower side, whose bound 0 the box never gives.
    hull = _hull_region(n, m)
    if hull:
        facets = patterns._hull_facets(naive_hit_vectors(n, m, bound))
        groups = [group for group in naive_facet_groups(n, m, bound, facets)
                  if _can_exclude(*group)]
    else:
        groups = naive_counting_groups(n, m, bound)
    triangles = [w for w, *_ in groups if not hull and _is_triangle(w)]
    assert len(triangles) == (0 if hull else
                              3 * (3 ** n - 2 ** (n + 1) + 1) // 2)
    rest = [(dict(w), lo, hi, g) for w, lo, hi, g in groups
            if w not in triangles]
    one = sum(g <= 1 and (lo == sum(c for c in w.values() if c < 0))
              + (hi == sum(c for c in w.values() if c > 0)) == 1
              for w, lo, hi, g in rest)
    assert (one, len(rest) - one, sum(g > 1 for *_, g in rest)) == (
        one_sided, two_sided, congruent)
    sides = _counting_groups(n, m, bound)
    if hull:
        lower = {(w, lo) for w, lo, *_ in groups}
        assert {(v, b) for v, b, _ in sides} <= lower
        assert len(sides) == one_sided + two_sided
    else:
        assert {v for v, b, _ in sides if b == 0 and _is_triangle(v)} == set(
            triangles)
        assert len(sides) == one_sided + 2 * two_sided + len(triangles)
    # congruences equal up to a unit share one carrier: at (3, 3) the
    # 28 facets with g = 3 share one
    columns = patterns._Columns(n, m, bound)
    assert len(columns.congruences) == {(3, 3): 1, (3, 2): 7, (4, 2): 35}.get(
        (n, m), 0)


@pytest.mark.parametrize("n,m,bound,fields,low", [
    (3, 3, None, 40, 24), (3, 0, 1, 52, 20), (3, 5, None, 36, 36),
    (3, 7, None, 36, 36), (3, 0, 2, 36, 36), (2, 2, None, 5, 4),
    (3, 2, None, 62, 54), (3, 4, None, 38, 38), (4, 2, None, 147, 111),
    (4, 3, None, 77, 76), (4, 4, None, 77, 76), (4, 5, None, 76, 76),
    (4, 6, None, 76, 76), (4, 7, None, 76, 76), (4, 0, 1, 92, 92),
    (5, 2, None, 582, 426), (5, 3, None, 272, 271), (6, 2, None, 2207, 1555)])
def test_packed_field_counts(n, m, bound, fields, low):
    # split_groups gives each side one field (test_packed_fields_*
    # check field i against side i), and the `low` sides with a >= 0
    # its low_guard.  One-sided facets cut the fields of the regions
    # with facets but (3, 4), whose facets had no upper side to drop,
    # and moved no other region here: no n >= 4 region and not (3, 2)
    sides = _counting_groups(n, m, bound)
    assert len(sides) == fields
    assert sum(sum(c for _, c in v) >= 0 for v, _, _ in sides) == low


@pytest.mark.parametrize("n,m,bound,size_three", [
    pytest.param(n, m, bound, size_three, id="-".join(
        map(str, (n, m, *[bound] * (m == 0), size_three))))
    for n, m, bound, size_three in [
        (4, 7, None, True), (6, 2, None, True), (6, 3, None, False),
        (7, 2, None, False), (3, 2, None, True), (3, 15, None, True),
        (3, 0, 7, True), (4, 3, None, True)]])
def test_size_three_candidates_only_within_their_cap(monkeypatch, n, m, bound,
                                                     size_three):
    # sets of 3 row subsets are tried only while their number times the
    # columns stays within _TABLE_CAP << 7: (4, 7) at 1.1M and (6, 2) at
    # 2.5M keep them (and (5, 5) at 14.0M), (6, 3) at 28.9M and (7, 2) at
    # 42.3M try none (nor (8, 2) at 696M).  No set of 2 or of 4 is tried
    # on any region, not even on those few columns make cheap: (3, 2)
    # with 7 and (4, 3) with 80.  Where the facets come in, no set is
    # tried at all: (3, 15) with 3,374 columns and (3, 0) at bound 7 with
    # 3,374.
    profiles = [patterns._column_profile(c, m)
                for c in patterns._column_alphabet(n, m, bound)]
    n_masks = (1 << n) - 1
    assert (math.comb(n_masks, 3) * len(profiles)
            <= patterns._TABLE_CAP << 7) == size_three
    evaluated = collections.Counter()

    def combinations(masks, size):
        for combo in itertools.combinations(masks, size):
            evaluated[size] += 1
            yield combo
    monkeypatch.setattr(patterns, "itertools", types.SimpleNamespace(
        combinations=combinations))
    patterns._constraint_groups(n, profiles)
    assert evaluated == ({3: math.comb(n_masks, 3)} if size_three
                         and not _hull_region(n, m) else {})


@pytest.mark.parametrize("n,m,fields", [
    (1, 3, 0), (2, 3, 3), (3, 3, 18), (4, 7, 75), (6, 2, 903), (6, 3, 0),
    (7, 2, 0)])
def test_triangles_only_within_the_size_three_cap(monkeypatch, n, m,
                                                  fields):
    # _triangles gives every labelling (X; Y, Z) of disjoint nonempty A,
    # B and A | B, 3*(3^n - 2^(n+1) + 1)/2 of them.  On the 0/1 path,
    # here taken with the facets turned off, the sides keep the lower
    # side of every one while the sets of 3 row subsets are tried
    # ((4, 7) and (6, 2)), and none where they are not ((6, 3), and
    # (7, 2), which would carry 2,898 fields)
    n_columns = len(patterns._column_alphabet(n, m, None))
    fit = math.comb((1 << n) - 1, 3) * n_columns <= patterns._TABLE_CAP << 7
    assert fit == (n < 6 or (n, m) == (6, 2))
    masks = range(1, 1 << n)
    every = {t for a in masks for b in masks if a < b and not a & b
             for t in ((a | b, a, b), (a, b, a | b), (b, a, a | b))}
    assert len(every) == 3 * (3 ** n - 2 ** (n + 1) + 1) // 2
    triangles = patterns._triangles(n)
    assert len(triangles) == len(every) and set(triangles) == every
    monkeypatch.setattr(patterns, "_hull_facets", lambda points: None)
    kept = [sorted(v, key=lambda mc: (mc[1], mc[0]))
            for v, *_ in _groups_under_the_cap(n, m, None) if _is_triangle(v)]
    assert len(kept) == fields
    assert {tuple(mask for mask, _ in w) for w in kept} == (
        every if fit else set())


def test_triangles_at_the_edge_of_the_size_three_cap(monkeypatch):
    # (3, 2), which has no facets: C(7, 3) sets of 3 times 7 columns is
    # 245, within 2 << 7 but past 1 << 7
    for cap, fields in ((2, 18), (1, 0)):
        monkeypatch.setattr(patterns, "_TABLE_CAP", cap)
        groups = _groups_under_the_cap(3, 2, None)
        sizes = {len(v) for v, *_ in groups if min(dict(v).values()) > 0}
        assert (3 in sizes) == bool(fields)
        assert sum(map(_is_triangle, (v for v, *_ in groups))) == fields


@pytest.mark.parametrize("n,m,bound", [
    (3, 3, None), (3, 12, None), (4, 2, None), (3, 2, None), (2, 0, 2),
    (3, 0, 1)])
def test_counting_groups_read_each_hit_set_once(n, m, bound):
    # a group's amounts depend only on which hit sets occur, so passing
    # every profile twice changes no group.  On these regions doubling
    # the columns moves no candidate past the size-3 bound.  (2, 0) at
    # bound 2 has one facet that can exclude something.
    profiles = [patterns._column_profile(c, m)
                for c in patterns._column_alphabet(n, m, bound)]
    groups = patterns._constraint_groups(n, profiles)
    assert groups
    assert patterns._constraint_groups(n, profiles + profiles) == groups


@pytest.mark.parametrize("n,m,bound", sorted(
    {(2, 2, None)} | {(n, m, bound) for n, m, bound, *_ in _PINNED_REGIONS},
    key=str))
def test_no_two_sides_share_their_weights(n, m, bound):
    # distinct candidates give distinct sides; at n = 2 the set of all
    # row subsets is also the only set of 3, and is tried once
    sides = _counting_groups(n, m, bound)
    assert len({v for v, _, _ in sides}) == len(sides)


# the hit sets small enough for the brute force: every region of one
# and two rows has one of three (1 point, 3 at m = 2, 4 elsewhere), and
# the 13-point sets of (3, 3) and (3, 0) at bound 1; (3, 2) spans 7
# points in a 6-dimensional flat
_SMALL_HULLS = [(1, 2, None), (1, 5, None), (1, 0, 1), (2, 2, None),
                (2, 3, None), (2, 4, None), (2, 7, None), (2, 0, 1),
                (2, 0, 2), (3, 2, None), (3, 3, None), (3, 0, 1)]


@pytest.mark.parametrize("n,m,bound", _SMALL_HULLS)
def test_hull_facets_match_a_brute_force(n, m, bound):
    # naive_hull_facets tries the hyperplane through every d-subset;
    # hulls that are not full-dimensional give None on both sides, and
    # _constraint_groups then falls back to the 0/1 groups
    vectors = naive_hit_vectors(n, m, bound)
    facets = patterns._hull_facets(vectors)
    assert facets == naive_hull_facets(vectors)
    assert (facets is not None) == _hull_region(n, m)


def _rank(rows):
    """The rank of integer rows, by elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        at = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / rows[rank][col]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("n,m,bound,points,count", [
    (3, 5, None, 17, 43), (3, 7, None, 17, 43), (3, 0, 2, 17, 43),
    (3, 4, None, 18, 45), (3, 6, None, 18, 45), (3, 15, None, 17, 43),
    (3, 3, None, 13, 47), (3, 0, 1, 13, 59)])
def test_hull_facets_are_facets(n, m, bound, points, count):
    # past the brute force's reach: every facet holds on every hit
    # vector and is tight on 7 affinely independent ones, so it is a
    # facet, and the list is closed under row permutations, which
    # _feasible's invariance (and so the memo's merge) needs
    vectors = naive_hit_vectors(n, m, bound)
    facets = patterns._hull_facets(vectors)
    assert (len(vectors), len(facets)) == (points, count)
    for w, b in facets:
        dots = [sum(map(operator.mul, w, x)) for x in vectors]
        assert min(dots) == b and math.gcd(b, *w) == 1
        tight = [(1, *x) for x, dot in zip(vectors, dots) if dot == b]
        assert _rank(tight) == 7
    for perm in itertools.permutations(range(n)):
        # mask `mask` moves to the mask of the rows it names
        to = [sum(1 << perm[i] for i in range(n) if mask >> i & 1)
              for mask in range(1 << n)]
        moved = []
        for w, b in facets:
            image = [0] * (1 << n)
            for mask in range(1, 1 << n):
                image[to[mask]] = w[mask - 1]
            moved.append((tuple(image[1:]), b))
        assert sorted(moved) == facets


@pytest.mark.parametrize("n,m,bound", [
    (1, 3, None), (1, 0, 2), (2, 2, None), (3, 2, None), (4, 2, None),
    (4, 3, None), (4, 0, 1)])
def test_counting_groups_match_naive_where_no_facets(n, m, bound):
    # where the hull is not full-dimensional (m = 2, one row) or n >= 4,
    # the sides of _constraint_groups are those of the 0/1 groups and
    # the triangles naive_counting_groups builds by direct summation:
    # each side is one of theirs, with its g or, where an earlier side
    # carries its congruence, 1; every side whose bound the box does not
    # give is kept; and every congruence is carried by exactly one side
    sides = _counting_groups(n, m, bound)
    groups = naive_counting_groups(n, m, bound)
    every = {(v, b): g for v, b, g in naive_sides(groups)}
    for v, b, g in sides:
        assert (v, b) in every and g in (every[v, b], 1), (v, b, g)
    assert {(v, b) for v, b in every
            if b != sum(c for _, c in v if c < 0)} <= {
        (v, b) for v, b, _ in sides}
    carried = [naive_congruence(*side) for side in sides if side[2] > 1]
    assert len(set(carried)) == len(carried)
    assert set(carried) == {naive_congruence(w, lo, g)
                            for w, lo, _, g in groups if g > 1}


@pytest.mark.parametrize("n,m,bound", [
    (3, 2, None), (3, 3, None), (3, 0, 1), (3, 0, 2), (4, 2, None),
    (4, 3, None), (4, 6, None), (5, 3, None)])
def test_no_set_of_two_row_subsets_is_ever_kept(n, m, bound):
    # from n = 3 on, for any row subsets X and Y some column hits both
    # (e_i with i in both, else e_i + e_j), one hits exactly one (e_i
    # with i in one only) and a nonzero one hits neither: among three
    # rows one lies in neither, two lie in the same ones (e_i - e_j), or
    # a lies in X alone, b in Y alone and c in both (e_a + e_b - e_c).
    # So e_X + e_Y has amounts {0, 1, 2}, g = 1, and could never be kept,
    # which is why _constraint_groups tries no set of 2
    vectors = naive_hit_vectors(n, m, bound)
    for x, y in itertools.combinations(range((1 << n) - 1), 2):
        assert {h[x] + h[y] for h in vectors} == {0, 1, 2}, (x + 1, y + 1)


def _simplex(n, scale):
    """All 2^n - 1 nonzero 0/1 columns in counting order, times scale."""
    return tuple(tuple(scale * (j >> n - 1 - i & 1) for j in range(1, 1 << n))
                 for i in range(n))


# the witnesses search reports, written out, as (n, m, bound) -> rows
_WITNESSES = {
    (2, 3, None): ((0, 1, 2), (1, 2, 0)),
    (2, 5, None): ((0, 1, 4), (1, 4, 0)),
    (2, 0, 1): ((0, 1, -1), (1, -1, 0)),
    (2, 0, 2): ((0, 1, -1), (1, -1, 0)),
    (3, 2, None): _simplex(3, 1),
    (3, 3, None): ((0, 0, 0, 1, 1, 0, 2, 2, 0, 1, 1, 1, 2, 2, 0, 2, 1, 2, 0),
                   (0, 0, 1, 0, 1, 2, 2, 1, 1, 0, 1, 2, 0, 0, 0, 2, 2, 1, 2),
                   (1, 1, 2, 2, 1, 1, 1, 2, 0, 0, 2, 2, 0, 1, 2, 0, 0, 0, 0)),
    (3, 4, None): _simplex(3, 2),
    (3, 6, None): _simplex(3, 3),
    (3, 8, None): _simplex(3, 4),
    (4, 2, None): _simplex(4, 1)}


@pytest.mark.parametrize("n,m,bound", list(_WITNESSES))
def test_search_reports_the_written_out_witnesses(n, m, bound):
    rows = _WITNESSES[n, m, bound]
    out = search(SearchConfig(n=n, m=m, l_min=len(rows[0]),
                              l_max=len(rows[0]), entry_bound=bound))
    assert out.pattern.rows == rows


def _witness_prefixes(data):
    """(n, m, bound, k, prefixes) of an adequate pattern drawn from the
    witnesses: permuting rows and scaling by a unit keep a pattern
    adequate, and so does putting adequate patterns of the same rows
    side by side, as every subset sum is then the parts' sums side by
    side.  k is its signature length, and prefixes holds (r, progress)
    for every prefix, r the columns left and progress[mask] the nonzero
    entries of the mask's sum over the prefix."""
    n, m, bound = data.draw(st.sampled_from(list(_WITNESSES)))
    part = _WITNESSES[n, m, bound]
    units = ([u for u in range(1, m) if math.gcd(u, m) == 1] if m
             else [1, -1])
    rows = [()] * n
    for _ in range(data.draw(st.integers(1, 3))):
        order = data.draw(st.permutations(range(n)))
        u = data.draw(st.sampled_from(units))
        rows = [row + tuple(u * e % m if m else u * e for e in part[i])
                for row, i in zip(rows, order)]
    pattern = Pattern(n, m, len(rows[0]), tuple(rows))
    report = is_adequate(pattern)
    assert report.adequate
    sums = {mask: [sum(rows[i][j] for i in range(n) if mask >> i & 1)
                   for j in range(pattern.l)] for mask in range(1, 1 << n)}
    prefixes = [(pattern.l - done,
                 {mask: sum(1 for v in col[:done] if (v % m if m else v))
                  for mask, col in sums.items()})
                for done in range(pattern.l + 1)]
    return n, m, bound, len(report.signature), prefixes


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_counting_groups_hold_on_every_prefix_of_adequate_patterns(data):
    # no pruning code is called: each side's demand over the columns
    # left, v.(k*1 - p), is checked directly, on the facets where the
    # witness's region has them and on the 0/1 groups and triangles
    # where it does not
    n, m, bound, k, prefixes = _witness_prefixes(data)
    for r, progress in prefixes:
        for v, b, g in _counting_groups(n, m, bound):
            demand = sum(c * (k - progress[mask]) for mask, c in v)
            assert demand >= r * b, (progress, r, v)
            if g > 1:
                assert (demand - r * b) % g == 0, (progress, r, v)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_triangle_bound_holds_on_every_prefix_of_adequate_patterns(data):
    # k >= p_Y + p_Z - p_X for every labelling (X; Y, Z) of disjoint
    # nonempty row sets A, B and A | B, checked directly on every prefix
    # with no pruning code: as p_A + p_B + p_C - 2*p_X <= k
    n, m, bound, k, prefixes = _witness_prefixes(data)
    masks = range(1, 1 << n)
    for _, p in prefixes:
        for a in masks:
            for b in masks:
                if a & b:
                    continue
                total = p[a] + p[b] + p[a | b]
                for x in (a, b, a | b):
                    assert total - 2 * p[x] <= k, (p, a, b, x)


# regions with congruences (the 0/1 groups at m = 2 and (4, 4), the
# facets at (3, 3)) and regions with facets and no congruence
_WALK_REGIONS = [(3, 2, None), (4, 2, None), (4, 4, None), (3, 3, None),
                 (3, 5, None), (3, 0, 1)]


@st.composite
def _walk_states(draw):
    """(region, progress, r): progress fields near one another, where
    the groups decide; a spread of 9 is the widest seen on search --n 3
    --m 3 --l-max 19."""
    n, m, bound = draw(st.sampled_from(_WALK_REGIONS))
    base = draw(st.integers(0, 10))
    spread = draw(st.integers(0, 9))
    progress = [0] + [base + draw(st.integers(0, spread))
                      for _ in range((1 << n) - 1)]
    return (n, m, bound), progress, draw(st.integers(0, 12))


# the congruence scan steps twice: at (3, 3) its box is [5, 14], the low
# sides first hold at k = 11, and the one congruence (the 28 facets
# with g = 3 share it) fails at 11 and 12 and holds at 13
@example(((3, 3, None), [0, 5, 3, 2, 3, 2, 5, 5], 12))
# at (3, 2), with 7 congruences, the scan's one k (5) passes the first
# and fails the second, so reading one term is not enough
@example(((3, 2, None), [0, 3, 0, 0, 2, 3, 2, 1], 6))
@given(_walk_states())
@settings(max_examples=400, deadline=None)
def test_feasible_agrees_with_naive_walk(state):
    # the naive walk takes both sides of every group, facets included
    (n, m, bound), progress, r = state
    engine = _engine(n, m, bound)
    assert _feasible_on(engine, progress, r) == naive_feasible(
        progress, r, _two_sided_sides(n, m, bound)), (progress, r)


@pytest.mark.parametrize("n,m,bound,cut", [
    (3, 3, None, 36), (3, 5, None, 36), (3, 0, 1, 46)])
def test_feasible_cuts_where_one_facet_alone_does(n, m, bound, cut):
    # states just across one facet of the hull: r hit vectors tight on
    # it summed into the demand, one entry moved across, and a final
    # length at or just above the largest entry.  Where the two-sided
    # walk says no, and says yes without that facet, _feasible must say
    # no, so a kept facet side deleted from the packed form fails here.
    # In 300 seeded tries per facet such a state turns up for `cut`
    # facets: every one that can exclude something but 4 at (3, 3) and
    # 6 at (3, 0, b = 1), which no state of one final length needs up
    # to r = 3 (checked by enumeration).
    groups = [group for group in _two_sided_groups(n, m, bound)
              if _can_exclude(*group)]
    every = naive_sides(groups)
    vectors = naive_hit_vectors(n, m, bound)
    engine = _engine(n, m, bound)
    rng = random.Random(0)
    found = 0
    for i, (w, lo, _, _) in enumerate(groups):
        rest = naive_sides(groups[:i] + groups[i + 1:])
        tight = [h for h in vectors
                 if sum(c * h[mask - 1] for mask, c in w) == lo]
        for _ in range(300):
            r = rng.randint(1, 12)
            demand = [sum(col) for col in
                      zip(*(rng.choice(tight) for _ in range(r)))]
            mask, c = rng.choice(w)
            demand[mask - 1] -= 1 if c > 0 else -1
            k = max(demand) + rng.randint(0, 2)
            progress = [0] + [k - d for d in demand]
            if (not naive_feasible(progress, r, every)
                    and naive_feasible(progress, r, rest)):
                assert not _feasible_on(engine, progress, r), (w, progress, r)
                found += 1
                break
    assert found == cut


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_feasible_is_invariant_under_row_permutations(data):
    # the memo keys an untied child by the least row-permutation image
    # of its progress, which is sound only where _feasible answers every
    # image alike.  States as search meets them at length 12: a depth d,
    # progress fields within d, and r up to 12 - d.  The n = 3 regions
    # but (3, 2) carry facets, in each of the three kinds of hit sets
    # (13 at m = 3 and at m = 0 with bound 1, 17 at odd m >= 5, 18 at
    # even m >= 4)
    n, m, bound = data.draw(st.sampled_from([
        (3, 2, None), (3, 3, None), (3, 5, None), (3, 4, None), (3, 0, 1),
        (4, 2, None), (4, 3, None)]))
    engine = _engine(n, m, bound)
    depth = data.draw(st.integers(0, 12))
    low = data.draw(st.integers(max(0, depth - 4), depth))
    progress = [0] + [data.draw(st.integers(low, depth))
                      for _ in range(1, 1 << n)]
    r = data.draw(st.integers(0, 12 - depth))
    perm = data.draw(st.permutations(range(n)))
    image = [0] * (1 << n)
    for mask in range(1, 1 << n):
        image[sum(1 << perm[i] for i in range(n) if mask >> i & 1)] = \
            progress[mask]
    assert _feasible_on(engine, image, r) == _feasible_on(engine, progress, r)


@pytest.mark.parametrize("fields,r", [
    ((38,) * 7, 19), ((38,) * 6 + (37,), 19), ((38,) * 6 + (37,), 0),
    ((19,) * 7, 19), ((30, 38, 34, 38, 36, 35, 38), 8),
    ((23, 17, 22, 23, 21, 19, 17), 17),
    # progress bytes at their limit, at l = 128
    ((255,) * 7, 0), ((255,) * 7, 128)])
def test_feasible_at_the_field_width_bound(fields, r):
    # the packed fields must hold for progress fields up to 2l and r <= l,
    # at l = 19, or at the least l with every field within 2l.  (3, 3)
    # has sides under both guard masks and reads a congruence.
    progress = [0, *fields]
    engine = _engine(3, 3, None)
    columns = engine.columns
    assert columns.low_guard and columns.high_guard and columns.congruences
    assert _feasible_on(engine, progress, r) == naive_feasible(
        progress, r, _two_sided_sides(3, 3, None))


@functools.cache
def _packed_sides(n, m, bound):
    """The packed form of a region, read back: its _Columns, the field
    width fw, and per field the side (a, c, v) that k_coefs, r_coefs
    and sum_units hold there, v as a dict mask -> coefficient.  Checks
    that field i holds side i (v, b, g) of _constraint_groups, as
    a = sum(v) and c = -b, under the guard mask of its kind, with its
    bias, and reads its congruence where g > 1."""
    columns = _engine(n, m, bound).columns
    guards = columns.low_guard | columns.high_guard
    half = guards & -guards
    fw = half.bit_length()
    count = guards.bit_length() // fw
    assert guards == sum(half << fw * i for i in range(count))

    def fields(packed):
        out = []
        for _ in range(count):
            field = packed & (1 << fw) - 1
            field -= (field & half) << 1
            out.append(field)
            packed = (packed - field) >> fw
        assert packed == 0
        return out

    per_mask = [fields(unit) for unit in columns.sum_units]
    sides = [(a, c, {mask: v[i] for mask, v in enumerate(per_mask) if v[i]})
             for i, (a, c) in enumerate(zip(fields(columns.k_coefs),
                                            fields(columns.r_coefs)))]
    assert columns.low_guard == sum(half << fw * i for i, (a, _, _)
                                    in enumerate(sides) if a >= 0)
    # the biases, each in [0, 2^fw)
    assert [columns.root_sums >> fw * i & (1 << fw) - 1
            for i in range(count + 1)] == [
        patterns._LONGEST * -sum(x for x in v.values() if x < 0)
        for _, _, v in sides] + [0]
    assert columns.base == guards + columns.root_sums
    wanted = _counting_groups(n, m, bound)
    assert sides == [(sum(c for _, c in v), -b, dict(v)) for v, b, _ in wanted]
    assert columns.congruences == [(fw * i, (1 << fw) - 1, g, half % g)
                                   for i, (_, _, g) in enumerate(wanted)
                                   if g > 1]
    return columns, fw, sides


def _assert_fields_hold_their_sides(n, m, bound, progress, r):
    """Every field of _feasible's x(k) = k*k_coefs + base + r*r_coefs - G,
    G as the search carries it, decodes to half + a*k + r*c - v.p at
    every k in the box max(1, max p) <= k <= min p + r."""
    columns, fw, sides = _packed_sides(n, m, bound)
    half = 1 << fw - 1
    packed_sums = columns.root_sums + sum(map(operator.mul, progress,
                                              columns.sum_units))
    rest = [r * c - sum(x * progress[mask] for mask, x in v.items())
            for _, c, v in sides]
    for k in range(max(1, max(progress)), min(progress[1:]) + r + 1):
        x = k * columns.k_coefs + columns.base + r * columns.r_coefs \
            - packed_sums
        assert [x >> fw * i & (1 << fw) - 1 for i in range(len(sides))] == [
            half + a * k + d for (a, _, _), d in zip(sides, rest)], (
                progress, r, k)
        assert x >> fw * len(sides) == 0


# (3, 3) has sides of both kinds and a congruence, (3, 0, b = 1) the
# most fields, (4, 3) the 0/1 groups of 15 subsets and the triangles
_DECODE_REGIONS = [(3, 3, None), (3, 0, 1), (4, 3, None)]


@pytest.mark.parametrize("n,m,bound", _DECODE_REGIONS)
def test_packed_fields_at_the_corners_of_the_box(n, m, bound):
    # at r = 255 and k = 255, with each progress byte 0 or 255, the
    # corners that push each side to either end of its range
    columns, _, sides = _packed_sides(n, m, bound)
    assert columns.low_guard and columns.high_guard
    assert bool(columns.congruences) == ((n, m) == (3, 3))
    for _, _, v in sides:
        for top in (0, patterns._LONGEST):
            progress = [0] + [top if v.get(mask, 0) > 0 else
                              patterns._LONGEST - top
                              for mask in range(1, columns.n_masks + 1)]
            _assert_fields_hold_their_sides(n, m, bound, progress, 255)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_packed_fields_decode_to_their_sides(data):
    n, m, bound = data.draw(st.sampled_from(_DECODE_REGIONS))
    n_masks = (1 << n) - 1
    byte = st.sampled_from([0, patterns._LONGEST]) | st.integers(0, 255)
    progress = [0] + [data.draw(byte) for _ in range(n_masks)]
    # the least r whose box is not empty, up to 255
    least = max(1, max(progress)) - min(progress[1:])
    r = data.draw(st.just(255) | st.integers(least, 255))
    _assert_fields_hold_their_sides(n, m, bound, progress, r)


def test_congruence_scan_applies_the_packed_test_at_each_k():
    # two made-up groups: one whose lower side needs k >= 2 (its upper
    # side, k <= p + r, is the box's), and one with a congruence needing
    # k odd, whose lower side the box gives but which keeps it for the
    # congruence, and whose upper side, with a < 0, is a high side.  Of
    # k in [1, 2] only k = 1 is odd, and it fails the low sides, so the
    # scan must start at the least k passing them.
    groups = [(((2, 1),), 0, 2, 2), (((1, 1),), 1, 1, 0)]
    sides = [(((2, 1),), 0, 2), (((2, -1),), -2, 1), (((1, 1),), 1, 1)]
    columns = patterns._Columns(2, 2, None)
    columns.split_groups(sides)
    assert (columns.low_guard.bit_count(), columns.high_guard.bit_count(),
            len(columns.congruences)) == (2, 1, 1)
    engine = patterns._WindowSearch(2, 2, 4, 4, columns,
                                    patterns._NodeBudget(None))
    progress = [0, 0, 1, 0]
    assert naive_feasible(progress, 2, naive_sides(groups)) is False
    assert naive_feasible(progress, 2, sides) is False
    assert _feasible_on(engine, progress, 2) is False


@pytest.mark.parametrize("n,m,bound,l_max", [
    (3, 2, None, 8), (3, 3, None, 9), (3, 4, None, 8), (4, 2, None, 16),
    (4, 4, None, 5), (3, 0, 1, 6), (3, 5, None, 8)])
def test_feasible_agrees_with_naive_walk_on_search_states(monkeypatch, n, m,
                                                           bound, l_max):
    calls = []
    sides = _two_sided_sides(n, m, bound)

    class Checked(patterns._WindowSearch):
        def _feasible(self, r, progress, packed_sums, k_lo):
            # the progress bytes decode to the state the call asks
            # about: the empty one at the root (every column hits some
            # subset), else the chosen prefix plus the column under
            # test; G and k_lo are carried, not recomputed
            assert type(progress) is bytes
            assert len(progress) == self.columns.n_masks + 1
            p = list(progress)
            assert p[0] == 0
            if not any(p):
                assert not self.chosen and self.lo <= r <= self.limit
            else:
                _assert_child_of_prefix(self, p)
            assert packed_sums == self.columns.root_sums + sum(
                map(operator.mul, p, self.columns.sum_units))
            assert k_lo == max(1, max(p))
            answer = super()._feasible(r, progress, packed_sums, k_lo)
            assert answer == naive_feasible(p, r, sides)
            calls.append(answer)
            return answer

    cfg = SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound)
    plain = search(cfg)
    monkeypatch.setattr(patterns, "_WindowSearch", Checked)
    assert search(cfg) == plain
    assert len(calls) > 0


def _direct_scan(options, progress, signature):
    """The options that fit a search state, by checking every hit of
    every option against the signature (the check the fitting table
    replaces)."""
    out = []
    for pos, (c, hits, next_tied, step, lower_step) in enumerate(options):
        ext = None
        ok = True
        for mask, v in hits:
            q = progress[mask]
            if q < len(signature):
                ok = signature[q] == v
            elif ext is None:
                ext = v
            else:
                ok = ext == v
            if not ok:
                break
        if ok:
            out.append((pos, c, next_tied, step, lower_step, ext))
    return out


class _CheckedTable(dict):
    """A region's fitting-column table that checks every entry it stores
    or returns against a direct scan of the options its key names (tie
    mask 1 << (n - 1): the root's options), in the state computed from
    the columns the engine of the current window has chosen."""

    def __init__(self):
        super().__init__()
        self.engine = None
        self.hits = 0

    def _expected(self, key):
        engine = self.engine
        columns = engine.columns
        progress, signature, tied = _prefix_state(engine.n, engine.m,
                                                  tuple(engine.chosen))
        # an entry of 0 encodes to the padding code
        need = _codes(columns, (signature[q] if q < len(signature) else 0
                                for q in progress))
        if not engine.chosen:
            tied = 1 << (engine.n - 1)
        assert key == (tied, need), engine.chosen
        return _direct_scan(columns.choices[tied], progress, signature)

    def get(self, key):
        entry = super().get(key)
        if entry is not None:
            self.hits += 1
            assert entry == self._expected(key), (self.engine.chosen, key)
        return entry

    def __setitem__(self, key, entry):
        assert entry == self._expected(key), (self.engine.chosen, key)
        super().__setitem__(key, entry)


@pytest.mark.parametrize("n,m,bound,l_max", [
    (2, 3, None, 4), (3, 3, None, 9), (3, 4, None, 8), (3, 6, None, 7),
    (4, 2, None, 16), (4, 3, None, 5), (2, 0, 2, 4), (3, 0, 1, 6)])
def test_fitting_table_matches_a_direct_scan(monkeypatch, n, m, bound, l_max):
    tables = []

    class Checked(patterns._WindowSearch):
        def __init__(self, n, m, lo, hi, columns, budget):
            super().__init__(n, m, lo, hi, columns, budget)
            # one table per region, shared by its windows
            if not isinstance(columns.fitting, _CheckedTable):
                assert not columns.fitting
                columns.fitting = _CheckedTable()
                tables.append(columns.fitting)
            columns.fitting.engine = self

    cfg = SearchConfig(n=n, m=m, l_max=l_max, entry_bound=bound)
    plain = search(cfg)
    monkeypatch.setattr(patterns, "_WindowSearch", Checked)
    assert search(cfg) == plain
    assert len(tables) == 1 and len(tables[0]) > 0
    if plain.nodes > 1000:
        assert tables[0].hits > 0


def test_table_size_refusal_is_arithmetic(monkeypatch):
    # (3^3 - 1) columns x 7 row subsets = 182 profile entries
    monkeypatch.setattr(patterns, "_TABLE_CAP", 182)
    assert search(SearchConfig(n=3, m=3, l_max=2)).status == "exhausted"
    monkeypatch.setattr(patterns, "_TABLE_CAP", 181)
    with pytest.raises(SizeLimitError):
        search(SearchConfig(n=3, m=3, l_max=2))
    monkeypatch.undo()
    # refused by arithmetic alone: building any of these would not end
    for cfg in [SearchConfig(n=25, m=3, l_max=1),
                SearchConfig(n=3, m=0, l_max=1, entry_bound=1000),
                SearchConfig(n=10 ** 9, m=2, l_max=1)]:
        with pytest.raises(SizeLimitError):
            search(cfg)


def test_search_refuses_a_window_past_length_255(monkeypatch):
    # progress fields are one byte: a window reaching 256 is refused
    # before it starts, while one ending at 255 runs
    tops = []

    class Recorded(patterns._WindowSearch):
        def __init__(self, n, m, lo, hi, columns, budget):
            super().__init__(n, m, lo, hi, columns, budget)
            tops.append(hi)

    monkeypatch.setattr(patterns, "_WindowSearch", Recorded)
    monkeypatch.setattr(patterns, "_windows",
                        lambda n, m, l_max: iter([(1, 3), (254, 256)]))
    with pytest.raises(SizeLimitError):
        search(SearchConfig(n=3, m=3, l_max=300))
    assert tops == [3]
    monkeypatch.setattr(patterns, "_windows",
                        lambda n, m, l_max: iter([(253, 255)]))
    out = search(SearchConfig(n=2, m=3, l_max=300, node_cap=100))
    assert (out.status, tops) == ("inconclusive", [3, 255])


@pytest.mark.parametrize("n,m,bound,code,nodes,rows", [
    (2, 0, 100, 400, 45_550, ((0, 1, -1), (1, -1, 0))),
    (2, 209, None, 208, 88_168, ((0, 1, 208), (1, 208, 0))),
    (1, 1000, None, 999, 1, ((1,),))], ids=["2-0-100", "2-209", "1-1000"])
def test_signature_codes_past_one_byte(n, m, bound, code, nodes, rows):
    # the signature is carried as a str of codes entry + sig_offset, the
    # largest `code` here: past ASCII, and for two regions past one
    # byte, so a table of byte codes could not hold them
    columns = patterns._Columns(n, m, bound)
    assert columns.sig_offset + (n * bound if m == 0 else m - 1) == code
    out = search(SearchConfig(n=n, m=m, l_max=3, entry_bound=bound))
    assert (out.status, out.nodes, out.pattern.rows) == ("found", nodes, rows)


def test_search_integer_entries_exhausts_and_matches_oracle():
    out = search(SearchConfig(n=3, m=0, l_max=3, entry_bound=1))
    assert out.status == "exhausted"
    assert naive_find_adequate(3, 0, 3, bound=1) is None
    # two rows are achievable over the integers
    out2 = search(SearchConfig(n=2, m=0, l_max=3, entry_bound=1))
    assert out2.status == "found"


def test_search_node_cap_gives_inconclusive():
    out = search(SearchConfig(n=3, m=2, l_max=8, node_cap=3))
    assert out.status == "inconclusive"
    assert out.pattern is None


def test_search_region_in_outcome_json():
    out = search(SearchConfig(n=3, m=0, l_max=4, entry_bound=2))
    data = out.jsonable()
    assert data["status"] == "exhausted"
    assert data["region"] == {"n": 3, "m": 0, "l_min": 1, "l_max": 4,
                              "entry_bound": 2}


def test_search_pads_short_witnesses_into_the_region():
    out = search(SearchConfig(n=2, m=3, l_min=4, l_max=5))
    assert out.status == "found"
    assert out.pattern.l == 4
    assert is_adequate(out.pattern).adequate


def test_search_is_deterministic_across_runs_and_threads():
    a = search(SearchConfig(n=3, m=2, l_max=8))
    b = search(SearchConfig(n=3, m=2, l_max=8))
    assert canonical_json(a.jsonable()) == canonical_json(b.jsonable())


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(n=0, m=2, l_max=3)
    with pytest.raises(ValueError):
        SearchConfig(n=2, m=1, l_max=3)
    with pytest.raises(ValueError):
        SearchConfig(n=2, m=0, l_max=3)  # missing entry bound
    with pytest.raises(ValueError):
        SearchConfig(n=2, m=2, l_max=3, entry_bound=2)
    with pytest.raises(ValueError):
        SearchConfig(n=2, m=2, l_max=2, l_min=3)
    with pytest.raises(ValueError):
        SearchConfig(n=2, m=2, l_max=2, node_cap=-1)


# -- metamorphic invariances ---------------------------------------------------

def random_pattern(rng, m):
    n = rng.randint(1, 3)
    l = rng.randint(1, 5)
    entries = range(m) if m else range(-2, 3)
    seen = set()
    rows = []
    guard = 0
    while len(rows) < n:
        guard += 1
        if guard > 200:
            return None
        r = tuple(rng.choice(list(entries)) for _ in range(l))
        if any(r) and r not in seen:
            seen.add(r)
            rows.append(r)
    return Pattern(n, m, l, tuple(rows))


def units(m):
    return [u for u in range(1, m) if math.gcd(u, m) == 1]


@pytest.mark.parametrize("m", [2, 3, 5])
def test_adequacy_invariances_on_random_patterns(m):
    rng = random.Random(1729 + m)
    for _ in range(300):
        p = random_pattern(rng, m)
        if p is None:
            continue
        base = is_adequate(p)

        perm = list(range(p.n))
        rng.shuffle(perm)
        permuted = Pattern(p.n, m, p.l, tuple(p.rows[i] for i in perm))
        assert is_adequate(permuted).adequate == base.adequate

        u = rng.choice(units(m))
        scaled = Pattern(p.n, m, p.l,
                         tuple(tuple(u * e % m for e in r) for r in p.rows))
        rep = is_adequate(scaled)
        assert rep.adequate == base.adequate
        if base.adequate:
            assert rep.signature == tuple(u * k % m for k in base.signature)

        widened = Pattern(p.n, m, p.l + 1, tuple(r + (0,) for r in p.rows))
        rep = is_adequate(widened)
        assert rep.adequate == base.adequate
        if base.adequate:
            assert rep.signature == base.signature


@given(st.data())
@settings(max_examples=60)
def test_row_permutation_invariance_property(data):
    m = data.draw(st.sampled_from([2, 3, 5]))
    l = data.draw(st.integers(1, 4))
    pool = [r for r in itertools.product(range(m), repeat=l) if any(r)]
    n = data.draw(st.integers(1, min(3, len(pool))))
    idxs = data.draw(st.lists(st.integers(0, len(pool) - 1),
                              min_size=n, max_size=n, unique=True))
    rows = tuple(pool[i] for i in idxs)
    p = Pattern(n, m, l, rows)
    q = Pattern(n, m, l, tuple(reversed(rows)))
    assert is_adequate(p).adequate == is_adequate(q).adequate


# -- lifting -------------------------------------------------------------------

def test_lift_along_standard_basis_is_the_pattern():
    # y_i = sum_j rows[i][j] * e_j is the row read as an element, which
    # is how acceptance criterion 11 realizes a pattern
    spec = GroupSpec.cyclic_power(3, 3)
    for row in canonical_2_adequate(3).rows:
        y = spec.zero()
        for coeff, e in zip(row, spec.basis()):
            y = y + coeff * e
        assert y == spec.element(row)


def test_lift_products_share_one_sigma_value():
    for n, m, l_max in [(2, 3, 3), (3, 2, 8)]:
        out = search(SearchConfig(n=n, m=m, l_max=l_max))
        pattern = out.pattern
        spec = GroupSpec.cyclic_power(m, pattern.l)
        ys = [spec.element(row) for row in pattern.rows]
        sigmas = {sigma(s) for s in fs_set_formal(ys)}
        assert sigmas == {ColourToken.seq(is_adequate(pattern).signature)}
