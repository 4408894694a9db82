"""Tests for block-error evaluation, series identities, and the contour product."""

import decimal
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyclepoisson import errprob
from cyclepoisson.combinatorics import binomial, factorial
from cyclepoisson.errors import (
    CoverageError,
    ToleranceNotMetError,
    ValidationError,
)
from cyclepoisson.errprob import (
    ErrProbQuery,
    _forest_counts,
    block_error_probability,
    expected_block_error,
    hadamard_contour,
    hadamard_split_report,
    inner_power_sum,
    known_series_check,
)
from cyclepoisson.series import Series, geometric_series, monomial
from cyclepoisson.simulator import EXHAUSTIVE_CODE_GUARD, exhaustive_block_error
from cyclepoisson.table import EnsembleParams, _profile_levels, fill_table


@pytest.fixture(scope="module")
def n4_setup():
    params = EnsembleParams(n=4, r=Fraction(1, 2))  # m = 2
    table = fill_table(params, vmax=4)
    return params, table


# ----------------------------------------------------------------------
# query construction
# ----------------------------------------------------------------------


def test_query_x_value(n4_setup):
    params, table = n4_setup
    q = ErrProbQuery(params, Fraction(1, 10), table)
    assert q.x == Fraction(1, 18)  # 2(1/10) / ((9/10) * 4)
    assert ErrProbQuery(params, "1/10", table).x == q.x


def test_query_rejects_bad_epsilon(n4_setup):
    params, table = n4_setup
    with pytest.raises(ValidationError):
        ErrProbQuery(params, Fraction(1), table)
    with pytest.raises(ValidationError):
        ErrProbQuery(params, Fraction(11, 10), table)
    with pytest.raises(ValidationError):
        ErrProbQuery(params, Fraction(-1, 10), table)


def test_query_rejects_table_mismatch(n4_setup):
    params, _table = n4_setup
    other = fill_table(EnsembleParams.from_checks(3), vmax=3)
    with pytest.raises(ValidationError):
        ErrProbQuery(params, Fraction(1, 10), other)


# ----------------------------------------------------------------------
# expected block error
# ----------------------------------------------------------------------


def test_expected_block_error_zero_epsilon(n4_setup):
    params, table = n4_setup
    result = expected_block_error(ErrProbQuery(params, Fraction(0), table))
    assert result.value == 0


def test_expected_block_error_duplicate_evaluation(n4_setup):
    # independent re-summation straight off the entries dict, bypassing the
    # per-v breakdown path
    params, table = n4_setup
    eps = Fraction(1, 10)
    q = ErrProbQuery(params, eps, table)
    result = expected_block_error(q)
    n = params.n
    terms = dict.fromkeys(range(1, n + 1), Fraction(0))
    for (v, t, _s), a in table.entries.items():
        if t < 1:
            continue
        terms[v] += binomial(n, v) * factorial(v) * q.x**v * a
    direct = (1 - eps) ** n * sum(terms.values())
    assert result.value == direct
    assert result.value > 0
    assert result.per_v == block_error_probability(params, eps).per_v == tuple(terms.items())


def test_expected_block_error_breakdown(n4_setup):
    params, table = n4_setup
    eps = Fraction(1, 3)
    result = expected_block_error(ErrProbQuery(params, eps, table))
    assert [v for v, _ in result.per_v] == [1, 2, 3, 4]
    total = sum((term for _, term in result.per_v), Fraction(0))
    assert result.value == (1 - eps) ** params.n * total


def test_expected_block_error_coverage(n4_setup):
    params, _table = n4_setup
    shallow = fill_table(params, vmax=3)
    with pytest.raises(CoverageError) as err:
        expected_block_error(ErrProbQuery(params, Fraction(1, 10), shallow))
    assert err.value.missing == [4]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 5),
    m=st.integers(1, 5),
    eps=st.fractions(min_value=0, max_value=1, max_denominator=30),
)
def test_expected_block_error_is_exhaustive_probability(n, m, eps):
    # E_B is the exact block-error probability, not a bound on it; the
    # instances stay far below the enumeration guard to keep the test fast
    assume(m <= n and eps < 1 and m ** (2 * n) * 2**n <= 2 * 10**5)
    assert m ** (2 * n) <= EXHAUSTIVE_CODE_GUARD
    params = EnsembleParams(n=n, r=1 - Fraction(m, n))
    query = ErrProbQuery(params, eps, fill_table(params, vmax=n))
    assert expected_block_error(query).value == exhaustive_block_error(params, eps)


# ----------------------------------------------------------------------
# the forest counts: Renyi's sum as the oracle, and the recurrence's proof
# ----------------------------------------------------------------------


def _renyi_forest_counts(m):
    """W_v for 0 <= v < m from Renyi's alternating sum, the oracle for _forest_counts.

    A forest with v edges on m labelled checks has k = m - v trees, and
    Renyi's count f(m, k) of such forests has the integer form
        2^k m f(m,k) = binom(m,k) sum_{i=0}^{min(k,m-k)} (-1)^i 2^(k-i)
                       binom(k,i) (k+i) (m-k)_i m^(m-k-i).
    Each forest is v! 2^v assignments (edge labels and orientations), so
    W_v = v! 2^v f(m, m-v).
    """
    powers = [1]  # m^j for j < m
    for _ in range(m - 1):
        powers.append(powers[-1] * m)
    counts = []
    for v in range(m):
        k = m - v
        total = 0
        term_binom, falling = 1, 1  # binom(k,i) and (m-k)_i
        for i in range(min(k, v) + 1):
            term = term_binom * (k + i) * falling * powers[v - i] << (k - i)
            total += -term if i & 1 else term
            term_binom = term_binom * (k - i) // (i + 1)
            falling *= v - i
        forests = binomial(m, k) * total // (m << k)
        counts.append((factorial(v) << v) * forests)
    return tuple(counts)


def test_forest_counts_equal_renyis_sum_to_m300():
    for m in range(1, 301):
        assert _forest_counts(m) == _renyi_forest_counts(m), m


@settings(max_examples=5, deadline=None)
@given(m=st.integers(301, 600))
def test_forest_counts_equal_renyis_sum(m):
    assert _forest_counts(m) == _renyi_forest_counts(m)


@pytest.mark.parametrize("m", [2000, 5000])
def test_forest_counts_end_at_cayleys_count(m):
    # a forest with m - 1 edges on m checks is a spanning tree: Cayley's
    # m^(m-2) trees, each (m-1)! 2^(m-1) assignments
    forests = _forest_counts(m)
    assert len(forests) == m
    assert forests[-1] == factorial(m - 1) * 2 ** (m - 1) * m ** (m - 2)


# The certificate of _forest_counts' docstring.  Each function takes ints
# or Fractions, so the same code serves the integer grid and the generic
# rational points.


def _coefficients(m, v):
    """a0, a1, a2, with c(v+2) = m^2 + 4mu - 4u^2 - 5m + 10u - 6 at u = v+2."""
    u = v + 2
    c = m * m + 4 * m * u - 4 * u * u - 5 * m + 10 * u - 6
    return 2 * m * (m - v - 1) * (v + 1), -(m - v) * c, 2 * m * (m - v - 1) * (m - v)


def _q(m, v, i):
    return (
        -i * m**2 + 4 * i * m * v + i * m - 4 * i * v**2 - 6 * i * v - 2 * i
        - m**3 + 5 * m**2 * v + 7 * m**2 - 8 * m * v**2 - 19 * m * v - 8 * m
        + 4 * v**3 + 14 * v**2 + 14 * v + 4
    )


def _t(m, v, i):
    """t(v,i) = (-1/(2m))^i binom(m-v,i) (m-v+i) (v)_i, Renyi's summand."""
    return Fraction(-1, 2 * m) ** i * math.comb(m - v, i) * (m - v + i) * math.perm(v, i)


def _kernel(m, v, i):
    """T(v,i) = (-1/(2m))^i binom(m-v,i) v!/(v+2-i)! for 0 <= i <= v+2."""
    return Fraction(-1, 2 * m) ** i * math.comb(m - v, i) * Fraction(
        factorial(v), factorial(v + 2 - i)
    )


def _g(m, v, i):
    """G(v,i) = 2m i (v+1) Q(v,i) T(v,i) for 0 <= i <= v+2, else 0."""
    if i > v + 2:
        return 0
    return 2 * m * i * (v + 1) * _q(m, v, i) * _kernel(m, v, i)


def _over_kernel(m, v, i):
    """t(v,i), t(v+1,i), t(v+2,i), G(v,i+1) and G(v,i), each over T(v,i).

    From binom(m-v-1,i) = binom(m-v,i) (m-v-i)/(m-v), (v)_i = v!/(v+2-i)!
    (v+2-i)(v+1-i) and T(v,i+1) = T(v,i) (-1/(2m)) (m-v-i)(v+2-i)/(i+1).
    """
    m, v, i = Fraction(m), Fraction(v), Fraction(i)  # exact division for ints too
    return (
        (m - v + i) * (v + 2 - i) * (v + 1 - i),
        (m - v - i) * (m - v - 1 + i) * (v + 1) * (v + 2 - i) / (m - v),
        (m - v - i) * (m - v - 1 - i) * (m - v - 2 + i) * (v + 2) * (v + 1)
        / ((m - v) * (m - v - 1)),
        -(m - v - i) * (v + 2 - i) * (v + 1) * _q(m, v, i + 1),
        2 * m * i * (v + 1) * _q(m, v, i),
    )


def test_renyis_sum_is_the_certificates_hypergeometric_sum():
    # W_v = 2^v (m)_v m^(v-1) S(v) with S(v) = sum_i t(v,i)
    for m in range(1, 41):
        renyi = _renyi_forest_counts(m)
        for v in range(m):
            s = sum(_t(m, v, i) for i in range(v + 1))
            assert 2**v * math.perm(m, v) * Fraction(m) ** (v - 1) * s == renyi[v], (m, v)


def test_certificate_term_identity_on_the_integer_grid():
    # a0 t(v,i) + a1 t(v+1,i) + a2 t(v+2,i) = G(v,i+1) - G(v,i) in exact
    # Fractions for every 0 <= v <= m-3 and 0 <= i <= m+3, so past every
    # term's support, and each term is T(v,i) times its factor from
    # _over_kernel wherever i <= v+2; summed over i, the combination of the
    # S(v) vanishes
    for m in range(1, 41):
        for v in range(m - 2):
            a0, a1, a2 = _coefficients(m, v)
            total = 0
            for i in range(m + 4):
                t0, t1, t2 = (_t(m, v + j, i) for j in range(3))
                g1, g0 = _g(m, v, i + 1), _g(m, v, i)
                lhs = a0 * t0 + a1 * t1 + a2 * t2
                assert lhs == g1 - g0, (m, v, i)
                if i <= v + 2:
                    kernel = _kernel(m, v, i)
                    factors = _over_kernel(m, v, i)
                    assert (t0, t1, t2, g1, g0) == tuple(kernel * f for f in factors), (m, v, i)
                total += lhs
            assert total == 0, (m, v)


def test_certificate_polynomial_identity_proves_it():
    # The term identity over T(v,i) is
    #   E = a0 r0 + a1 r1 + a2 r2 - (g1 - g0) = 0
    # with (r0, r1, r2, g1, g0) from _over_kernel.  E is a polynomial (a1
    # carries the factor m-v and a2 the factor (m-v)(m-v-1)) of degree 4 in
    # m, 6 in v and 3 in i; even (m-v)(m-v-1) E has degree 6, 8 and 3.  A
    # polynomial with degree below the grid's size in each variable that
    # vanishes on the whole grid is zero, so this check proves E = 0, and
    # with it the term identity for every integer 0 <= v <= m-3 and i >= 0:
    # for i <= v+2 it is T(v,i) E, and past i = v+2 every term is 0.  Each
    # m has denominator 7 and each v denominator 3, so m-v and m-v-1 are
    # never 0.
    ms = [j + Fraction(3, 7) for j in range(8)]
    vs = [j + Fraction(1, 3) for j in range(-2, 8)]
    is_ = [j + Fraction(2, 11) for j in range(-1, 4)]
    for m in ms:
        for v in vs:
            a0, a1, a2 = _coefficients(m, v)
            for i in is_:
                r0, r1, r2, g1, g0 = _over_kernel(m, v, i)
                assert a0 * r0 + a1 * r1 + a2 * r2 == g1 - g0, (m, v, i)


# ----------------------------------------------------------------------
# the forest route
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n, m", [(12, 6), (20, 5), (9, 9)])
def test_forest_counts_complement_the_level_sums(n, m):
    # v! 2^v sum_{t,s} A(v,t,s) counts the cyclic assignments, so the
    # forests are the rest of the m^(2v); none are left once v >= m
    sums = fill_table(EnsembleParams(n=n, r=1 - Fraction(m, n)), vmax=n).level_sums()
    forests = _forest_counts(m)
    assert len(forests) == m
    for v in range(1, n + 1):
        w = forests[v] if v < m else 0
        assert factorial(v) * 2**v * sums[v] == m ** (2 * v) - w, v


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    m_share=st.fractions(min_value=0, max_value=1),
    eps=st.fractions(min_value=0, max_value=1, max_denominator=60),
)
def test_block_error_probability_matches_table_route(n, m_share, eps):
    # equality is (value, epsilon, n, m); the per-level equality of the
    # two routes' counts is test_forest_counts_complement_the_level_sums
    assume(eps < 1)
    m = max(1, math.ceil(m_share * n))
    params = EnsembleParams(n=n, r=1 - Fraction(m, n))
    query = ErrProbQuery(params, eps, fill_table(params, vmax=n))
    assert block_error_probability(params, eps) == expected_block_error(query)


@pytest.mark.parametrize("level", [2, 5, 7])
def test_table_route_reads_every_level(level):
    # n = 8 > m = 4: one count off by 1 at a level below m (2) or at or
    # past it (5, 7) must move the oracle off the forest route
    params = EnsembleParams(n=8, r=Fraction(1, 2))
    eps = Fraction(1, 3)
    table = fill_table(params, vmax=8)
    query = ErrProbQuery(params, eps, table)
    exact = block_error_probability(params, eps)
    assert expected_block_error(query) == exact
    rows = table.levels[level - 1]
    i = next(i for i, row in enumerate(rows) if row[1] >= 1)
    v, t, s, b = rows[i]
    rows[i] = (v, t, s, b + 1)
    assert expected_block_error(query).value != exact.value


def test_block_error_probability_keeps_no_per_v_state():
    # with the result alive, under 1 MiB stays traced: no per-v terms and
    # no forest counts are kept beside the value
    tracemalloc.start()
    try:
        result = block_error_probability(EnsembleParams(n=4000, r=Fraction(1, 2)), Fraction(1, 4))
        kept, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(float(result) - 0.817425255577017) < 1e-12
    assert kept < 1 << 20, kept


@pytest.mark.parametrize(
    "eps, message",
    [
        (Fraction(1), "epsilon = 1 leaves x undefined (division by zero)"),
        (Fraction(11, 10), "epsilon must lie in [0, 1], got 11/10"),
        (Fraction(-1, 10), "epsilon must lie in [0, 1], got -1/10"),
    ],
)
def test_bad_epsilon_messages_match_across_routes(n4_setup, eps, message):
    params, table = n4_setup
    for evaluate in (
        lambda: block_error_probability(params, eps),
        lambda: ErrProbQuery(params, eps, table),
    ):
        with pytest.raises(ValidationError) as err:
            evaluate()
        assert str(err.value) == message


def test_block_error_probability_builds_no_per_v_fractions(monkeypatch):
    # no per-v term is built until per_v is read: one Fraction for the
    # value, whatever n is
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(errprob, "Fraction", counting)
    result = block_error_probability(EnsembleParams(n=200, r=Fraction(1, 2)), Fraction(1, 20))
    assert len(made) <= 2
    assert len(result.per_v) == 200


def test_block_error_probability_near_threshold():
    # n = 2000, m = 1000 at the threshold eps = (1 - r)/2 = 1/4.  The bound
    # and the count are fixed in advance: 3172 of 4000 is the failure count
    # test_estimate_near_threshold_frozen pins at seed 7, and it must lie
    # within |z| <= 4 of the exact value
    params = EnsembleParams(n=2000, r=Fraction(1, 2))
    p = float(block_error_probability(params, Fraction(1, 4)).value)
    assert abs(p - 0.795196) < 1e-6
    trials, failures = 4000, 3172
    z = (failures / trials - p) / math.sqrt(p * (1 - p) / trials)
    assert abs(z) <= 4


def test_result_repr_past_the_int_str_limit():
    # at n = 600 the value's denominator has more than 4,300 digits; the
    # repr writes it through decimal and never lifts the limit
    limit = sys.get_int_max_str_digits()
    result = block_error_probability(EnsembleParams(n=600, r=Fraction(1, 2)), Fraction(1, 10000019))
    text = repr(result)
    assert sys.get_int_max_str_digits() == limit
    head, tail = text.split(", epsilon=")
    num, den = head.removeprefix("ErrProbResult(value=").split("/")
    assert Fraction(int(decimal.Decimal(num)), int(decimal.Decimal(den))) == result.value
    assert tail == "1/10000019, 600 terms)"
    small = block_error_probability(EnsembleParams(n=4, r=Fraction(1, 2)), Fraction(1, 10))
    assert repr(small) == "ErrProbResult(value=1981/10000, epsilon=1/10, 4 terms)"


def test_equal_m_parameterizations_share_level_sums():
    a = fill_table(EnsembleParams(n=4, r=Fraction(1, 2)), vmax=4)
    b = fill_table(EnsembleParams.from_checks(2), vmax=2)
    sums_a, sums_b = a.level_sums(), b.level_sums()
    for v in (1, 2):
        assert sums_a[v] == sums_b[v]


# ----------------------------------------------------------------------
# inner power sums and the rearrangement
# ----------------------------------------------------------------------


def test_inner_power_sum_hand_case(n4_setup):
    params, _table = n4_setup
    x = Fraction(1)
    inner = inner_power_sum(params, 1, 0, x)
    # v=1: C(4,1) 1! A(1,1,0) x / 4^2 with A(1,1,0) = 1
    assert inner.terms[0] == (1, Fraction(1, 4))
    # v=2: C(4,2) 2! A(2,1,0) x^2 / 4^4 with A(2,1,0) = 1/4
    assert inner.terms[1] == (2, Fraction(3, 256))
    assert inner.value == sum((t for _, t in inner.terms), Fraction(0))


def test_inner_power_sum_zero_column(n4_setup):
    params, _table = n4_setup
    inner = inner_power_sum(params, 2, 1, Fraction(3, 7))
    assert inner.value == 0
    assert inner.terms == ()


def test_rearrangement_identity(n4_setup):
    # the per-(t,s) parts come from kernel columns, the total from the table
    params, table = n4_setup
    eps = Fraction(2, 7)
    q = ErrProbQuery(params, eps, table)
    full = expected_block_error(q)
    profiles = {(t, s) for (v, t, s) in table.entries if v >= 1}
    split = sum(
        (
            inner_power_sum(params, t, s, q.x * params.n**2).value
            for t, s in sorted(profiles)
        ),
        Fraction(0),
    )
    assert (1 - eps) ** params.n * split == full.value


# ----------------------------------------------------------------------
# known series
# ----------------------------------------------------------------------


def test_known_series_identities():
    report = known_series_check(5, Fraction(3))
    assert report.scaled_identity_ok
    assert report.plain_identity_ok
    assert "polynomial identities" in report.note


def test_known_series_identities_sweep():
    rng = random.Random(13)
    for n in range(1, 31):
        for _ in range(3):
            x = Fraction(rng.randint(-100, 100), rng.randint(1, 20))
            report = known_series_check(n, x)
            assert report.scaled_identity_ok
            assert report.plain_identity_ok


def test_known_series_factorial_divergence():
    report = known_series_check(5, Fraction(1, 2))
    assert report.factorial_diverges
    assert not report.factorial_trivial
    assert report.first_ratio_above_one == 2
    assert report.first_ratio_above_one <= 10


def test_known_series_factorial_trivial_at_zero():
    report = known_series_check(5, Fraction(0))
    assert report.factorial_trivial
    assert not report.factorial_diverges
    assert report.first_ratio_above_one is None


@pytest.mark.parametrize(
    "x, first",
    [(Fraction(1, 20), 20), (Fraction(-1, 20), 20), (Fraction(2, 5), 2),
     (Fraction(1, 100), 100), (Fraction(1, 3), 3), (Fraction(7), 1), (Fraction(1), 1)],
)
def test_known_series_first_crossing_past_the_listed_ratios(x, first):
    # the crossing is the smallest v >= 1 with (v+1)|x| > 1, also where the
    # listed ratios (v <= 12) stay below 1, as at x = 1/20
    report = known_series_check(12, x)
    assert report.first_ratio_above_one == first
    assert (first + 1) * abs(x) > 1
    assert first == 1 or first * abs(x) <= 1
    assert len(report.ratios) == 12


# ----------------------------------------------------------------------
# exact split radii
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def m3_params():
    return EnsembleParams(n=12, r=Fraction(3, 4))  # m = 3


def test_split_report_factorial_radius(m3_params):
    # A(v,1,0) = 3/(2^v v!), so the factorial sequence is 3/2^v: radius 2
    # exactly, while the window estimate approaches the rate 1/2 from above
    report = hadamard_split_report(m3_params, 1, 0, x_grid=[1, 10])
    est = {e.series_id: e for e in report.estimates}
    fac = est["factorial"]
    assert fac.window == (7, 12)
    assert 0.5 < fac.estimate < 0.65
    assert fac.radius == 2 and isinstance(fac.radius, Fraction)
    assert fac.verdict == "finite-radius"
    assert dict(fac.per_x)[Fraction(1)] == "bounded"
    assert dict(fac.per_x)[Fraction(10)] == "divergent"
    assert est["factorial-over-n2v"].radius == 2 * 144
    assert "converges iff eps < 1/2" in report.note


def test_split_report_boundary_at_the_exact_radius(m3_params):
    # x = 2 is the factorial sequence's radius at (t,s) = (1,0); the window
    # estimate (0.585 over v = 7..12) used to call it divergent
    report = hadamard_split_report(m3_params, 1, 0, x_grid=[2, Fraction(-2)])
    fac = {e.series_id: e for e in report.estimates}["factorial"]
    assert fac.per_x == ((Fraction(2), "boundary"), (Fraction(-2), "boundary"))


def test_split_report_binomial_sequence_is_finite(m3_params):
    # C(n,v) vanishes for v > n, so the binomial sum is a polynomial: its
    # radius is infinite and every x is bounded, whatever the window
    # estimate over v <= n reads
    report = hadamard_split_report(m3_params, 1, 0, x_grid=[10000])
    est = {e.series_id: e for e in report.estimates}["binomial-over-n2v"]
    assert 0.003 < est.estimate < 0.0032
    assert math.isinf(est.radius)
    assert est.verdict == "infinite-radius"
    assert est.per_x == ((Fraction(10000), "bounded"),)


def test_split_report_zero_column(m3_params):
    report = hadamard_split_report(m3_params, 3, 1, x_grid=[5])
    for e in report.estimates:
        # a window of zeros reads 0; only an empty window reads nan
        assert e.estimate == 0
        assert e.verdict == "infinite-radius"
        assert math.isinf(e.radius)
        assert dict(e.per_x)[Fraction(5)] == "bounded"


def test_split_report_short_window_gives_exact_verdicts():
    # vmax = n = 3 leaves a two-point window (v = 2..3); the radii and
    # verdicts do not depend on it
    report = hadamard_split_report(EnsembleParams.from_checks(3), 1, 0, x_grid=[1, 2, 3])
    est = {e.series_id: e for e in report.estimates}
    assert est["factorial"].window == (2, 3)
    assert est["factorial"].radius == 2
    assert est["factorial"].per_x == (
        (Fraction(1), "bounded"), (Fraction(2), "boundary"), (Fraction(3), "divergent"),
    )
    assert est["factorial-over-n2v"].radius == 18
    assert math.isinf(est["binomial-over-n2v"].radius)


@pytest.mark.parametrize("m, depths", [(3, (0, 1, 3, 12)), (10, (0, 4, 10)), (60, (0, 2, 9))])
def test_split_radii_are_exact_at_every_depth(m, depths):
    n = 4 * m
    params = EnsembleParams(n=n, r=Fraction(3, 4))
    assert params.m == m
    for vmax in depths:
        for t in range(6):
            for s in range(4):
                radii = {
                    e.series_id: e.radius
                    for e in hadamard_split_report(params, t, s, vmax).estimates
                }
                assert math.isinf(radii["binomial-over-n2v"])
                if t == 0 or t + s > m:
                    assert all(math.isinf(r) for r in radii.values()), (m, vmax, t, s)
                else:
                    assert radii["factorial"] == Fraction(2, t * t)
                    assert radii["factorial-over-n2v"] == Fraction(2 * n * n, t * t)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_column_rate_bounds_hold_to_v400(t):
    # the two-sided bound of _split_radius's docstring, in integers:
    #   (2t)^s (v)_s (t^N - t (t-1)^(N-1) (N + t - 1)) <= C(v,t,s), N = 2(v-s)
    #   C(v,t,s) <= (2v (2t + s))^(t+s) t^(2v)
    levels = _profile_levels([4] * (t + 1), 400)
    next(levels)  # v = 0: the origin
    for v, level in enumerate(levels, start=1):
        for s in range(4):
            c = level[t][s]
            assert c <= (2 * v * (2 * t + s)) ** (t + s) * t ** (2 * v), (t, s, v)
            if v > s:
                falling = math.perm(v, s)
                big_n = 2 * (v - s)
                p_low = t**big_n - t * (t - 1) ** (big_n - 1) * (big_n + t - 1)
                assert (2 * t) ** s * falling * p_low <= c, (t, s, v)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_all_columns_factorial_term_closed_form(m):
    # the note's statement: at x = 2 eps/((1-eps) m^2), v! x^v sum_{t,s}
    # A(v,t,s) = (eps/(1-eps))^v (1 - W_v/m^(2v)), with W_v = 0 for v >= m
    n = 2 * m + 2
    table = fill_table(EnsembleParams(n=n, r=Fraction(n - m, n)), vmax=n)
    sums = table.level_sums()
    forests = _forest_counts(m)
    for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4)):
        x = 2 * eps / ((1 - eps) * m * m)
        for v in range(1, n + 1):
            w = forests[v] if v < m else 0
            expect = (eps / (1 - eps)) ** v * (1 - Fraction(w, m ** (2 * v)))
            assert factorial(v) * x**v * sums.get(v, Fraction(0)) == expect, (m, eps, v)


@pytest.mark.parametrize("t, s", [(-1, 0), (1, -2), (-3, -1)])
def test_split_report_rejects_negative_column(m3_params, t, s):
    with pytest.raises(ValidationError, match="t and s must be >= 0"):
        hadamard_split_report(m3_params, t, s)


def test_split_report_csv(m3_params):
    csv = hadamard_split_report(m3_params, 1, 0).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,s,series_id,v_window,root_test_estimate,verdict"
    assert len(lines) == 4
    for line in lines[1:]:
        assert len(line.split(",")) == 6
        assert line.startswith("1,0,")


def test_split_report_at_n1000_reads_one_column():
    # no table of this size is filled: the report reads column (1,0) from
    # the kernel, and its root test takes logs of integers past the
    # interpreter's int-to-str limit (n^(2v) has 6000 digits at v = n)
    report = hadamard_split_report(EnsembleParams(n=1000, r=Fraction(1, 2)), 1, 0)
    fac = {e.series_id: e for e in report.estimates}["factorial"]
    assert fac.radius == 2
    assert fac.window == (501, 1000)
    assert 0.5 < fac.estimate < 0.51


# ----------------------------------------------------------------------
# contour quadrature
# ----------------------------------------------------------------------


def test_contour_geometric_case():
    f = geometric_series(16)
    g = geometric_series(16)
    exact = float(f.hadamard(g).evaluate(Fraction(1, 4)))
    result = hadamard_contour(f, g, 0.25, rho=0.5)
    assert result.nodes <= 256
    assert abs(result.value.real - exact) < 1e-8
    assert abs(result.value.imag) < 1e-8


def test_contour_single_term():
    f = monomial(2, 8)
    g = monomial(2, 8)
    result = hadamard_contour(f, g, 0.5, rho=0.8, tol=1e-12)
    assert abs(result.value - 0.25) < 1e-10


def test_contour_at_zero():
    f = Series([2, 3, 4])
    g = Series([5, 1, 1])
    result = hadamard_contour(f, g, 0, rho=0.5)
    assert result.value == 10
    assert result.nodes == 0
    assert result.error_estimate == 0.0


def test_contour_tolerance_not_met(monkeypatch):
    f = geometric_series(24)
    g = geometric_series(24)
    monkeypatch.setattr(errprob, "_MAX_NODES", 64)
    with pytest.raises(ToleranceNotMetError) as err:
        hadamard_contour(f, g, 0.9, rho=0.95, tol=1e-30)
    assert err.value.nodes == 64
    assert err.value.best_value is not None


def test_contour_validation():
    f = geometric_series(4)
    with pytest.raises(ValidationError):
        hadamard_contour(f, f, 0.25, rho=-0.5)
