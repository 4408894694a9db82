"""Tests for the constellation coefficient table.

The s = 0 boundary layer has an independent closed-form oracle
(block_partition_count over labeled endpoints) and the whole table is
reconciled against a brute-force census of endpoint assignments for small m.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclepoisson.combinatorics import binomial, block_partition_count, factorial
from cyclepoisson.errors import GuardError, ValidationError
from cyclepoisson.series import poisson_block_series
from cyclepoisson.table import (
    BaseConfig,
    EnsembleParams,
    _block_counts,
    _first_block_counts,
    boundary_coefficient,
    boundary_layer,
    brute_force_profile_counts,
    constellation_count,
    fill_table,
    growth_exponent,
    growth_profile,
    profile_reconciliation,
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


# ----------------------------------------------------------------------
# closed forms against independent oracles
# ----------------------------------------------------------------------


def test_constellation_count():
    p = EnsembleParams.from_checks(3)
    assert constellation_count(p, 0) == 1
    assert constellation_count(p, 2) == 81
    assert constellation_count(p, 4) == 0  # v beyond n
    assert constellation_count(p, -1) == 0


def test_boundary_single_variable():
    # one variable on t=1 check: both endpoints on the same check, m ways,
    # and A(1,1,0) = m/2 after dividing by 1! * 2^1
    for m in (1, 2, 5, 9):
        p = EnsembleParams.from_checks(m)
        assert boundary_coefficient(p, 1, 1) == Fraction(m, 2)
        assert stopping_set_count(p, 1, 1) == m


def test_boundary_frozen_values():
    p = EnsembleParams.from_checks(100)
    assert boundary_coefficient(p, 2, 2) == Fraction(7425, 2)
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
    # the fill's integer kernel and verify's first-block convolution against
    # the Fraction EGF power and the top-down partition recursion
    expect = block_partition_count(n, t, 2)
    assert expect == factorial(n) * poisson_block_series(t, n).coef(n)
    assert _block_counts(t, n)[t][n] == expect
    assert _first_block_counts(t, n)[t][n] == expect


def test_boundary_rejects_degenerate_indices():
    p = EnsembleParams.from_checks(4)
    with pytest.raises(ValidationError):
        boundary_coefficient(p, 0, 1)
    with pytest.raises(ValidationError):
        boundary_coefficient(p, 1, 0)


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


def test_origin_value_never_feeds_recurrence():
    # the only recurrence term reading level v-1 at t-1 carries a factor s,
    # so A(0,0,0) is inert: both base configs yield the same v >= 1 entries
    p = EnsembleParams.from_checks(4)
    seeded = fill_table(p, vmax=3, base=BaseConfig.UNIT_ORIGIN)
    empty = fill_table(p, vmax=3, base=BaseConfig.EMPTY)
    stripped = {k: v for k, v in seeded.entries.items() if k[0] >= 1}
    assert stripped == empty.entries


def test_verify_table_clean():
    table = fill_table(EnsembleParams.from_checks(6), vmax=6)
    assert verify_table(table) == []


def test_verify_table_flags_corruption():
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    table.entries[(2, 1, 1)] += 1
    problems = verify_table(table)
    assert problems
    assert any("(2,1,1)" in msg or "(3," in msg for msg in problems)


@pytest.mark.parametrize("delta", [Fraction(1, 7), Fraction(1, 16)])
def test_verify_table_flags_fractional_corruption(delta):
    # B = v! 2^v A is no longer integral at the corrupt entry (8/16 = 1/2
    # would vanish under floor division); the check still compares it
    # exactly, flags the same rows and does not raise
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    table.entries[(2, 1, 1)] += delta
    assert verify_table(table) == [
        "recurrence fails at (2,1,1)",
        "recurrence fails at (3,1,2)",
        "recurrence fails at (3,1,3)",
        "recurrence fails at (3,2,1)",
    ]


def test_verify_table_flags_top_level_recurrence_corruption():
    # no recurrence row reads level vmax, so a wrong s >= 1 entry there is
    # caught by its own row only
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    table.entries[(3, 1, 2)] += 1
    assert verify_table(table) == ["recurrence fails at (3,1,2)"]


def test_verify_table_flags_boundary_corruption():
    # no recurrence row reads level vmax, so only the boundary oracle can
    # catch a wrong s = 0 entry there
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    table.entries[(3, 2, 0)] += 1
    assert verify_table(table) == ["boundary identity fails at (v=3,t=2)"]


def test_verify_table_flags_fractional_boundary_corruption():
    # B(2,1,0) = 8 * (A + 1/7) is no longer integral; the boundary row and
    # the two level-3 rows that read it compare it exactly
    table = fill_table(EnsembleParams.from_checks(4), vmax=3)
    table.entries[(2, 1, 0)] += Fraction(1, 7)
    assert verify_table(table) == [
        "boundary identity fails at (v=2,t=1)",
        "recurrence fails at (3,1,1)",
        "recurrence fails at (3,1,2)",
    ]


def _recurrence_fill(m, vmax, base):
    # the paper's three-term recurrence in Fractions, level by level, with
    # the s = 0 layer from the top-down partition count
    entries = dict(base.level_zero())

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
@given(
    m=st.integers(1, 7),
    vmax=st.integers(0, 8),
    base=st.sampled_from(list(BaseConfig)),
)
def test_factored_fill_matches_recurrence(m, vmax, base):
    table = fill_table(_params(m, vmax), vmax, base=base)
    assert table.entries == _recurrence_fill(m, vmax, base)


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


def test_level_sum_is_positive():
    table = fill_table(EnsembleParams.from_checks(5), vmax=4)
    for v in range(1, 5):
        assert table.level_sum(v) > 0


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 6),
    vmax=st.integers(0, 7),
    key=st.tuples(st.integers(0, 8), st.integers(0, 6), st.integers(0, 6)),
    num=st.integers(-50, 50).filter(bool),
    den=st.integers(1, 10**4),
)
@example(m=4, vmax=3, key=(2, 1, 1), num=1, den=7)  # 7 does not divide 2! 2^2
def test_level_sums_match_fraction_sums(m, vmax, key, num, den):
    # the one-pass integer sums against a per-level Fraction sum, with one
    # injected entry whose denominator need not divide v! 2^v
    table = fill_table(_params(m, vmax), vmax)
    table.entries[key] = Fraction(num, den)
    sums = table.level_sums()
    for v in range(10):
        expect = sum(
            (a for (vv, t, _s), a in table.entries.items() if vv == v and t >= 1),
            Fraction(0),
        )
        assert sums.get(v, Fraction(0)) == expect
        assert table.level_sum(v) == expect


# ----------------------------------------------------------------------
# census reconciliation
# ----------------------------------------------------------------------


def test_reconciliation_boundary_matches():
    table = fill_table(EnsembleParams.from_checks(3), vmax=3)
    rows = profile_reconciliation(table, v_limit=3)
    for row in rows:
        if row["s"] == 0 and row["t"] >= 1:
            assert row["match"], row


def test_reconciliation_documents_s_mismatch():
    # the s >= 1 entries do not count degree-(exactly 1) profiles: first
    # disagreement at m=3 is (v=2, t=1, s=2), weighted table 12 vs census 36
    table = fill_table(EnsembleParams.from_checks(3), vmax=2)
    rows = {(r["v"], r["t"], r["s"]): r for r in profile_reconciliation(table, 2)}
    row = rows[(2, 1, 2)]
    assert row["table_count"] == 12
    assert row["oracle_count"] == 36
    assert not row["match"]
    # while (v=2, t=1, s=1) happens to agree
    assert rows[(2, 1, 1)]["table_count"] == rows[(2, 1, 1)]["oracle_count"] == 24


# ----------------------------------------------------------------------
# growth exponents
# ----------------------------------------------------------------------


def test_growth_exponent_first_point():
    import math

    table = fill_table(EnsembleParams.from_checks(100), vmax=1)
    g = growth_exponent(table, 1, 1)
    assert abs(g - math.log10(0.5)) < 1e-12


def test_growth_exponent_undefined_below_t():
    table = fill_table(EnsembleParams.from_checks(10), vmax=2)
    with pytest.raises(ValidationError):
        growth_exponent(table, 1, 2)


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
