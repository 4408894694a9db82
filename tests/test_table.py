"""Tests for the constellation coefficient table.

The s = 0 boundary layer has an independent closed-form oracle
(block_partition_count over labeled endpoints) and, for small m, the whole
table equals a brute-force census of the endpoint assignments that contain
a cycle.
"""

import bisect
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepoisson.combinatorics import (
    binomial,
    block_partition_count,
    block_partition_table,
    factorial,
    log_fraction,
)
from cyclepoisson.errors import GuardError, ValidationError
from cyclepoisson.series import poisson_block_series
from cyclepoisson.table import (
    EnsembleParams,
    _block_counts,
    _column_counts,
    boundary_layer,
    brute_force_profile_counts,
    fill_table,
    growth_profile,
    stopping_set_count,
    verify_table,
)


# ----------------------------------------------------------------------
# parameters
# ----------------------------------------------------------------------


def test_params_basic():
    p = EnsembleParams(n=100, r=Fraction(1, 2))
    assert p.m == 50
    assert p.k == 51


def test_params_from_checks():
    p = EnsembleParams.from_checks(7)
    assert (p.n, p.m, p.k) == (7, 7, 8)
    assert p.r == 0


def test_params_validation():
    with pytest.raises(ValidationError):
        EnsembleParams(n=0, r=Fraction(0))
    with pytest.raises(ValidationError):
        EnsembleParams(n=10, r=Fraction(1))
    with pytest.raises(ValidationError):
        EnsembleParams(n=10, r=Fraction(-1, 2))
    # (1-r)*n must come out integral
    with pytest.raises(ValidationError):
        EnsembleParams(n=4, r=Fraction(1, 3))
    # n must be an integer, even a float with an integral value
    with pytest.raises(ValidationError):
        EnsembleParams(n=2.5, r=0)
    with pytest.raises(ValidationError):
        EnsembleParams(n=4.0, r=Fraction(1, 2))


# ----------------------------------------------------------------------
# closed forms against independent oracles
# ----------------------------------------------------------------------


def test_boundary_single_variable():
    # one variable on t=1 check: both endpoints on the same check, m ways,
    # and A(1,1,0) = m/2 after dividing by 1! * 2^1
    for m in (1, 2, 5, 9):
        p = EnsembleParams.from_checks(m)
        assert boundary_layer(m, 1, [1]) == {1: {1: Fraction(m, 2)}}
        assert stopping_set_count(p, 1, 1) == m


def test_boundary_frozen_values():
    p = EnsembleParams.from_checks(100)
    assert boundary_layer(100, 2, [2])[2][2] == Fraction(7425, 2)
    assert stopping_set_count(p, 2, 2) == 29700
    # cross-check the v! 2^v weight between the two forms
    assert factorial(2) * 2**2 * Fraction(7425, 2) == 29700


def test_stopping_set_small_m():
    p = EnsembleParams.from_checks(3)
    assert stopping_set_count(p, 1, 1) == 3
    assert stopping_set_count(p, 2, 2) == 18
    assert stopping_set_count(p, 1, 2) == 0  # two checks need at least 4 endpoints
    assert stopping_set_count(p, 2, 17) == 0  # t beyond m


def test_stopping_set_matches_partition_oracle():
    # binom(m,t) choices of the check set, then ordered covers of the 2v
    # labeled endpoints by t blocks of size >= 2
    for m, v, t in [(3, 2, 1), (3, 2, 2), (4, 3, 2), (5, 3, 3), (6, 4, 2)]:
        p = EnsembleParams.from_checks(m)
        expect = binomial(m, t) * block_partition_count(2 * v, t, 2)
        assert stopping_set_count(p, v, t) == expect


@settings(max_examples=60, deadline=None)
@given(t=st.integers(0, 12), n=st.integers(0, 40))
def test_block_counts_match_both_oracles(t, n):
    # the fill's integer kernel against verify's first-block convolution
    # and the Fraction EGF power
    expect = block_partition_count(n, t, 2)
    assert expect == factorial(n) * poisson_block_series(t, n).coef(n)
    assert _block_counts(t, n)[t][n] == expect


def test_brute_force_profile_counts_m3_v1():
    counts = brute_force_profile_counts(3, 1)
    assert counts == {(1, 0): 3, (0, 2): 6}
    assert sum(counts.values()) == 9


def test_brute_force_profile_counts_sum():
    for m, v in [(2, 2), (3, 2), (4, 1)]:
        counts = brute_force_profile_counts(m, v)
        assert sum(counts.values()) == m ** (2 * v)


def test_brute_force_guard():
    with pytest.raises(GuardError):
        brute_force_profile_counts(10, 10)


# ----------------------------------------------------------------------
# recurrence fill
# ----------------------------------------------------------------------


def test_fill_small_frozen_values():
    p = EnsembleParams.from_checks(3)
    table = fill_table(p, vmax=2)
    assert table.value(0, 0, 0) == 1
    assert table.value(1, 1, 0) == Fraction(3, 2)
    assert table.value(1, 1, 1) == 0  # nothing at v=0 feeds it
    assert table.value(2, 1, 0) == Fraction(3, 8)
    assert table.value(2, 1, 1) == 3
    assert table.value(2, 1, 2) == Fraction(3, 2)
    assert table.value(2, 2, 0) == Fraction(9, 4)


def test_fill_depends_on_m_only():
    a = fill_table(EnsembleParams(n=200, r=Fraction(1, 2)), vmax=3)
    b = fill_table(EnsembleParams.from_checks(100), vmax=3)
    assert a == b


def test_fill_vmax_bounds():
    p = EnsembleParams(n=4, r=Fraction(1, 2))  # m = 2
    with pytest.raises(ValidationError):
        fill_table(p, vmax=5)
    with pytest.raises(ValidationError):
        fill_table(p, vmax=-1)


def test_entries_is_a_read_only_fraction_view():
    # entries is a new dict per access: value on every stored key, the
    # origin included, and no write to it reaches the table
    table = fill_table(EnsembleParams.from_checks(5), vmax=5)
    view = table.entries
    rows = list(itertools.chain(*table.levels))
    assert len(view) == len(rows) + 1 > 1
    assert view[(0, 0, 0)] == table.value(0, 0, 0) == 1
    for v, t, s, b in rows:
        val = view[(v, t, s)]
        assert type(val) is Fraction
        assert val == table.value(v, t, s)
        assert val * factorial(v) * 2**v == b
    for key, val in view.items():
        assert val == table.value(*key)
    assert (1, 1, 1) not in view and table.value(1, 1, 1) == 0
    before = dict(view)
    view[(1, 1, 0)] = Fraction(1)
    del view[(2, 1, 0)]
    assert table.entries == before
    with pytest.raises(AttributeError):
        table.entries = {}


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 7), vmax=st.integers(0, 8))
def test_origin_value_never_feeds_recurrence(m, vmax):
    # the only recurrence term reading level v-1 at t-1 carries a factor s,
    # so A(0,0,0) is inert: the recurrence run from an empty v = 0 plane
    # yields the fill's v >= 1 entries
    table = fill_table(_params(m, vmax), vmax)
    stripped = {k: a for k, a in table.entries.items() if k[0] >= 1}
    assert _recurrence_fill(m, vmax, {}) == stripped


def _set_count(table, key, count):
    """Store the count at key (None deletes it), keeping its level's rows in key order."""
    level = table.levels[key[0] - 1]
    i = bisect.bisect_left(level, key)
    held = i < len(level) and level[i][:3] == key
    level[i:i + held] = [] if count is None else [(*key, count)]


def _counts(table):
    """The table's rows as a (v, t, s) -> B dict."""
    return {row[:3]: row[3] for row in itertools.chain(*table.levels)}


def test_verify_table_clean():
    table = fill_table(EnsembleParams.from_checks(6), vmax=6)
    assert verify_table(table) == []


def test_verify_table_flags_corruption():
    # A(2,1,1) + 1, that is B(2,1,1) + 2! 2^2
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    _set_count(table, (2, 1, 1), _counts(table)[(2, 1, 1)] + 8)
    problems = verify_table(table)
    assert problems
    assert any("(2,1,1)" in msg or "(3," in msg for msg in problems)


def test_verify_table_flags_top_level_recurrence_corruption():
    # no recurrence row reads level vmax, so a wrong s >= 1 entry there is
    # caught by its own row only
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    _set_count(table, (3, 1, 2), _counts(table)[(3, 1, 2)] + 48)
    assert verify_table(table) == ["recurrence fails at (3,1,2)"]


def test_verify_table_flags_boundary_corruption():
    # no recurrence row reads level vmax, so only the boundary oracle can
    # catch a wrong s = 0 entry there
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    _set_count(table, (3, 2, 0), _counts(table)[(3, 2, 0)] + 48)
    assert verify_table(table) == ["boundary identity fails at (v=3,t=2)"]


def test_verify_table_flags_every_single_count_change():
    # every stored count, the edges of the profile support included, is
    # read by some visited row
    table = fill_table(EnsembleParams.from_checks(4), vmax=4)
    for level in table.levels:
        for i, (v, t, s, b) in enumerate(level):
            level[i] = (v, t, s, b + 1)
            assert verify_table(table), (v, t, s)
            level[i] = (v, t, s, b)
    assert verify_table(table) == []


@pytest.mark.parametrize(
    "key, expect",
    [
        # read by row (3,2,2), which is in the support; the rows (3,3,1)
        # and (3,2,3) that also read it are outside and not visited
        ((2, 2, 1), ["recurrence fails at (3,2,2)"]),
        # level vmax: no row reads it, and its own row is not visited
        ((3, 3, 1), []),
        ((2, 3, 0), []),
        # 2t + s = 2v + 1 and t + s = m: the last cell of row t = 2v + 1 - m
        ((2, 1, 3), []),
    ],
)
def test_verify_table_flags_entry_outside_profile_support(key, expect):
    # 2t + s > 2v: no assignment of v variables has this profile
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    _set_count(table, key, 1)
    assert verify_table(table) == [
        "entry outside profile support 2t+s <= 2v at (%d,%d,%d)" % key
    ] + expect


def _per_entry_verify(table):
    # verify_table as it was before it read counts in rows: one counts.get
    # per key each check reads, so an entry outside the support is read
    # exactly where a visited row names it
    m = table.m
    vmax = table.vmax
    counts = _counts(table)
    bad = []
    for (v, t, s), b in sorted(counts.items()):
        if b == 0:
            bad.append("stored zero at (%d,%d,%d)" % (v, t, s))
        if not (1 <= t <= m) or not (0 <= s <= m - t):
            bad.append("entry outside support at (%d,%d,%d)" % (v, t, s))
        elif 2 * t + s > 2 * v:
            bad.append("entry outside profile support 2t+s <= 2v at (%d,%d,%d)" % (v, t, s))
    blocks = block_partition_table(min(m, vmax), 2 * vmax, 2)
    get = counts.get
    for v in range(1, vmax + 1):
        for t in range(1, min(v, m) + 1):
            if get((v, t, 0), 0) != binomial(m, t) * blocks[t][2 * v]:
                bad.append("boundary identity fails at (v=%d,t=%d)" % (v, t))
            for s in range(1, min(m - t, 2 * (v - t)) + 1):
                u = m - t - s
                rhs = get((v - 1, t, s - 1), 0) * t + get((v - 1, t - 1, s), 0) * s
                if s >= 2:
                    rhs += get((v - 1, t, s - 2), 0) * (u + 2)
                if s * get((v, t, s), 0) != 2 * v * (u + 1) * rhs:
                    bad.append("recurrence fails at (%d,%d,%d)" % (v, t, s))
    return bad


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 6), data=st.data())
def test_verify_table_matches_per_entry_reference(m, data):
    # edits change, delete or insert rows in key order, as a level can
    # hold them: stored keys, any key of the levels the checks read (t = 0,
    # t > v and t + s > m included), and keys a step outside the index
    # ranges; from vmax = 2 on, some recurrence row reads level v - 1 at
    # t - 1 = 0
    vmax = data.draw(st.integers(min(m, 2), m), label="vmax")
    table = fill_table(EnsembleParams.from_checks(m), vmax)
    keys = st.one_of(
        st.sampled_from(sorted(_counts(table))),
        st.tuples(st.integers(1, vmax), st.integers(0, m), st.integers(0, m)),
        st.tuples(st.integers(1, vmax), st.just(0), st.integers(1, m)),
        st.tuples(st.integers(1, vmax), st.integers(-1, m + 1), st.integers(-1, m + 1)),
    )
    # None deletes the key; an integer is added to its count (0 on an
    # absent key stores a zero)
    edit = st.tuples(keys, st.one_of(st.none(), st.integers(-3, 3)))
    edits = data.draw(st.lists(edit, min_size=1, max_size=6), label="edits")
    for key, delta in edits:
        count = None if delta is None else _counts(table).get(key, 0) + delta
        _set_count(table, key, count)
    assert verify_table(table) == _per_entry_verify(table)


@pytest.mark.parametrize(
    "key, count, message",
    [
        ((3, 1, 0), 0, "stored zero at (3,1,0)"),
        # read by the row (3,1,1) as B(2,0,1)
        ((2, 0, 1), 1, "entry outside support at (2,0,1)"),
        ((2, 1, -1), 1, "entry outside support at (2,1,-1)"),
        # s = -2 would index the cell of (2,1,2), inside the profile
        ((2, 1, -2), 1, "entry outside support at (2,1,-2)"),
        # t + s > m = 4 inside the profile support 2t + s <= 2v
        ((3, 1, 4), 1, "entry outside support at (3,1,4)"),
    ],
)
def test_verify_table_flags_each_row_a_level_should_not_hold(key, count, message):
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    _set_count(table, key, count)
    problems = verify_table(table)
    assert problems[0] == message
    assert problems == _per_entry_verify(table)


@pytest.mark.parametrize("level, row", [(2, (1, 1, 0, 4)), (2, (3, 1, 0, 4)), (3, (1, 1, 1, 1))])
def test_verify_table_flags_a_row_of_another_level(level, row):
    # a level's rows carry their v; one with another level's v is outside
    # the support, and the check reads no count from it
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    rows = table.levels[level - 1]
    rows.insert(0 if row < rows[0] else len(rows), row)
    assert verify_table(table) == ["entry outside support at (%d,%d,%d)" % row[:3]]


def _recurrence_fill(m, vmax, origin):
    # the paper's three-term recurrence in Fractions, level by level, from
    # the given v = 0 plane, with the s = 0 layer from the partition count
    entries = dict(origin)

    def value(v, t, s):
        return entries.get((v, t, s), Fraction(0))

    for v in range(1, vmax + 1):
        weight = factorial(v) * 2**v
        for t in range(1, m + 1):
            val = Fraction(binomial(m, t) * block_partition_count(2 * v, t, 2), weight)
            if val:
                entries[(v, t, 0)] = val
            for s in range(1, m - t + 1):
                u = m - t - s
                rhs = value(v - 1, t, s - 1) * (u + 1) * t
                rhs += value(v - 1, t - 1, s) * (u + 1) * s
                if s >= 2:
                    rhs += value(v - 1, t, s - 2) * (u + 2) * (u + 1)
                if rhs:
                    entries[(v, t, s)] = rhs / s
    return entries


def _params(m, vmax):
    n = max(m, vmax)
    return EnsembleParams(n=n, r=1 - Fraction(m, n))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 7), vmax=st.integers(0, 8))
def test_factored_fill_matches_recurrence(m, vmax):
    table = fill_table(_params(m, vmax), vmax)
    assert table.entries == _recurrence_fill(m, vmax, {(0, 0, 0): Fraction(1)})


@settings(max_examples=30, deadline=None)
@given(m1=st.integers(1, 7), extra=st.integers(1, 5), vmax=st.integers(0, 8))
def test_profile_counts_do_not_depend_on_m(m1, extra, vmax):
    # v! 2^v A(v,t,s) / M(t,s) is one integer C(v,t,s) for every m >= t+s
    def counts(m):
        table = fill_table(_params(m, vmax), vmax)
        out = {}
        for v in range(1, vmax + 1):
            for t in range(1, m1 + 1):
                for s in range(m1 - t + 1):
                    multinomial = factorial(m) // (
                        factorial(t) * factorial(s) * factorial(m - t - s)
                    )
                    c = factorial(v) * 2**v * table.value(v, t, s) / multinomial
                    assert c.denominator == 1
                    out[(v, t, s)] = c
        return out

    assert counts(m1) == counts(m1 + extra)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 7), vmax=st.integers(0, 8))
def test_column_counts_match_the_filled_table(m, vmax):
    # one kernel column against the whole fill, for every -1 <= t, s <= m + 1:
    # negative indices, t = 0, t > vmax and t + s > m included, where the
    # column is zero
    counts = _counts(fill_table(_params(m, vmax), vmax))
    for t in range(-1, m + 2):
        for s in range(-1, m + 2):
            column = _column_counts(m, t, s, vmax)
            assert len(column) == vmax + 1
            for v in range(1, vmax + 1):
                assert column[v] == counts.get((v, t, s), 0), (v, t, s)


def test_column_counts_t1_closed_form():
    # one check of degree >= 2 and s < v leaves hold all 2v endpoints on
    # s + 1 checks, so the v edges close a cycle: every such assignment is
    # counted, the leaves take distinct endpoints and the rest go to the
    # one heavy check, C(v,1,s) = (2v)!/(2v-s)!
    column = _column_counts(200, 1, 150, 400)
    multinomial = 200 * math.comb(199, 150)
    for v in range(151, 401):
        assert column[v] == multinomial * math.perm(2 * v, 150), v
    for m, s in ((3, 0), (3, 2), (9, 5)):
        column = _column_counts(m, 1, s, 12)
        for v in range(s + 1, 13):
            assert column[v] == m * math.comb(m - 1, s) * math.perm(2 * v, s), (m, s, v)


def test_column_counts_peak_memory():
    # one skewed column streams its rectangle t' <= 1, s' <= 80 two levels at
    # a time; keeping the triangle t' + s' <= 81 at every level takes about
    # 139 MiB, and the two levels alone well under 1 MiB
    tracemalloc.start()
    try:
        _column_counts(120, 1, 80, 240)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mib <= 4


def test_level_sum_is_positive():
    table = fill_table(EnsembleParams.from_checks(5), vmax=4)
    sums = table.level_sums()
    assert set(sums) == {1, 2, 3, 4}
    assert all(total > 0 for total in sums.values())


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 6),
    vmax=st.integers(0, 7),
    key=st.tuples(st.integers(1, 7), st.integers(0, 6), st.integers(0, 6)),
    count=st.integers(-50, 50).filter(bool),
)
def test_level_sums_match_fraction_sums(m, vmax, key, count):
    # the one-pass integer sums against a per-level Fraction sum, with one
    # injected count at any key a level can hold, inside the support or not
    table = fill_table(_params(m, vmax), vmax)
    if vmax:
        _set_count(table, (min(key[0], vmax), *key[1:]), count)
    sums = table.level_sums()
    for v in range(10):
        expect = sum(
            (a for (vv, t, _s), a in table.entries.items() if vv == v and t >= 1),
            Fraction(0),
        )
        assert sums.get(v, Fraction(0)) == expect


# ----------------------------------------------------------------------
# cyclic census
# ----------------------------------------------------------------------


def _has_cycle(assign, m):
    """Whether the multigraph with edges (assign[2i], assign[2i+1]) on m
    checks has a cycle (a self-loop or multi-edge counts), by union-find."""
    parent = list(range(m))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for a, b in zip(assign[::2], assign[1::2]):
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[ra] = rb
    return False


def _cyclic_census(m, v):
    """(t, s) profiles of the assignments of v variables with a cycle."""
    counts = {}
    for assign in itertools.product(range(m), repeat=2 * v):
        if _has_cycle(assign, m):
            deg = [0] * m
            for c in assign:
                deg[c] += 1
            key = (sum(d >= 2 for d in deg), deg.count(1))
            counts[key] = counts.get(key, 0) + 1
    return counts


_CENSUS_PAIRS = [
    (m, v) for m in range(1, 7) for v in range(1, 9) if m ** (2 * v) <= 10**5
]


@pytest.mark.parametrize("m", sorted({m for m, _ in _CENSUS_PAIRS}))
def test_table_counts_cyclic_assignments(m):
    # v! 2^v A(v,t,s) is the number of endpoint assignments whose graph on
    # the m checks contains a cycle and has profile (t, s)
    vmax = max(v for mm, v in _CENSUS_PAIRS if mm == m)
    table = fill_table(_params(m, vmax), vmax)
    for v in range(1, vmax + 1):
        census = _cyclic_census(m, v)
        weight = factorial(v) * 2**v
        stored = {(t, s): b for _v, t, s, b in table.levels[v - 1]}
        assert stored == census, (m, v)
        assert all(weight * table.value(v, t, s) == b for (t, s), b in stored.items())


def _leaf_deletions(m, v):
    """Tally (cyclic assignment, leaf) pairs by profile (t, s) and kind.

    The kind is the degree of the other endpoint of the leaf's edge, capped
    at 3: deleting that edge leaves profile (t, s-1), (t-1, s) or (t, s-2)
    for kinds 3, 2 and 1.
    """
    counts = {}
    for assign in itertools.product(range(m), repeat=2 * v):
        if not _has_cycle(assign, m):
            continue
        deg = [0] * m
        for c in assign:
            deg[c] += 1
        t, s = sum(d >= 2 for d in deg), deg.count(1)
        for end, check in enumerate(assign):
            if deg[check] == 1:
                key = (t, s, min(deg[assign[end ^ 1]], 3))
                counts[key] = counts.get(key, 0) + 1
    return counts


_PEEL_PAIRS = [(m, v) for m, v in _CENSUS_PAIRS if m <= 4]


@pytest.mark.parametrize("m", sorted({m for m, _ in _PEEL_PAIRS}))
def test_recurrence_terms_count_leaf_deletions(m):
    # s * B(v,t,s) = 2v (u+1) (t B(v-1,t,s-1) + s B(v-1,t-1,s) + (u+2) B(v-1,t,s-2)):
    # each term alone is the number of (cyclic assignment, leaf) pairs whose
    # leaf edge ends, on its other side, at a check of degree >= 3, 2 or 1
    vmax = max(v for mm, v in _PEEL_PAIRS if mm == m)
    b = _counts(fill_table(_params(m, vmax), vmax)).get
    for v in range(1, vmax + 1):
        terms = {}
        for t in range(1, m + 1):
            for s in range(1, m - t + 1):
                u = m - t - s
                scale = 2 * v * (u + 1)
                for kind, term in (
                    (3, t * b((v - 1, t, s - 1), 0)),
                    (2, s * b((v - 1, t - 1, s), 0)),
                    (1, (u + 2) * b((v - 1, t, s - 2), 0) if s >= 2 else 0),
                ):
                    if term:
                        terms[(t, s, kind)] = scale * term
        assert terms == _leaf_deletions(m, v), (m, v)


def test_cyclic_census_excludes_forests():
    # m = 3, v = 2, (t, s) = (1, 2): the table and the cyclic census give
    # 12, while the all-assignment census adds the 24 two-edge paths
    table = fill_table(EnsembleParams.from_checks(3), vmax=2)
    assert factorial(2) * 2**2 * table.value(2, 1, 2) == 12
    assert _cyclic_census(3, 2)[(1, 2)] == 12
    assert brute_force_profile_counts(3, 2)[(1, 2)] == 36


# ----------------------------------------------------------------------
# growth exponents
# ----------------------------------------------------------------------


@st.composite
def _layer_cases(draw):
    m = draw(st.integers(1, 7))
    vmax = draw(st.integers(0, m))
    return m, vmax, draw(st.sets(st.integers(1, m)))


@settings(max_examples=30, deadline=None)
@given(_layer_cases())
def test_boundary_layer_matches_fill(case):
    m, vmax, t_set = case
    table = fill_table(EnsembleParams.from_checks(m), vmax=vmax)
    layer = boundary_layer(m, vmax, t_set)
    assert set(layer) == t_set
    for t, per_v in layer.items():
        for v, val in per_v.items():
            assert table.value(v, t, 0) == val
    # and nothing extra: every nonzero boundary value is reported
    for (v, t, s), val in table.entries.items():
        if s == 0 and t in t_set and v >= 1:
            assert layer[t][v] == val


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 60),
    vmax=st.integers(0, 80),
    data=st.data(),
)
def test_growth_profile_equals_log_fraction(m, vmax, data):
    # the gcd-reduced integer ratio gives the Fraction path's float exactly,
    # past the 25-digit prefix of log10_int as well
    t_set = data.draw(st.sets(st.integers(1, m), max_size=4), label="t_set")
    layer = boundary_layer(m, vmax, t_set)
    profile = growth_profile(m, vmax, t_set)
    assert set(profile) == set(layer)
    for t, vals in layer.items():
        assert profile[t] == [
            (v, log_fraction(vals[v] / binomial(m, t))) for v in sorted(vals)
        ]


def test_boundary_layer_frozen_values():
    layer = boundary_layer(100, 3, [1, 2])
    assert layer[1][1] == Fraction(50)
    assert layer[2][2] == Fraction(7425, 2)


def test_boundary_layer_validation():
    with pytest.raises(ValidationError):
        boundary_layer(5, 3, [0])
    with pytest.raises(ValidationError):
        boundary_layer(5, 3, [6])
    with pytest.raises(ValidationError):
        boundary_layer(5, -1, [1])
    assert boundary_layer(5, 3, []) == {}


def test_growth_profile_first_point():
    import math

    prof = growth_profile(100, 2, [1])
    v, g = prof[1][0]
    assert v == 1
    assert abs(g - math.log10(0.5)) < 1e-12


def test_growth_exponent_first_point():
    # the exponent of the filled table's first point, log10 A(1,1,0)/binom(100,1)
    # = log10(1/2), is the first point of growth_profile
    import math

    table = fill_table(EnsembleParams.from_checks(100), vmax=1)
    ratio = table.value(1, 1, 0) / binomial(100, 1)
    assert ratio == Fraction(1, 2)
    prof = growth_profile(100, 1, [1])
    assert prof[1] == [(1, log_fraction(ratio, 10))]
    assert abs(prof[1][0][1] - math.log10(0.5)) < 1e-12


def test_growth_exponent_undefined_below_t():
    # A(v,t,0) = 0 for v < t, where the exponent has no value: the profile
    # starts at v = t
    prof = growth_profile(10, 3, [2, 3])
    assert [v for v, _ in prof[2]] == [2, 3]
    assert [v for v, _ in prof[3]] == [3]
