"""Tests for the differential-operator analysis.

The discriminant and substitution machinery is checked against hand-expanded
polynomials and exact spot evaluations; the residual check is exercised on
small filled tables, where the recurrence-derived operator must annihilate
everything in the interior window.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepoisson.errors import ValidationError
from cyclepoisson.pde import (
    ELLIPTIC,
    HYPERBOLIC,
    PARABOLIC,
    AlphaCase,
    Poly,
    alpha_case,
    alpha_discriminant,
    alpha_substitution,
    classify_point,
    discriminant,
    expansion_audit,
    pde_coefficients,
    pde_residual,
    printed_expansion,
    printed_f,
    quadratic_roots,
    recurrence_pde_coefficients,
    region_map,
    residual_reconciliation,
)
from cyclepoisson.table import CoeffTable, EnsembleParams, fill_table

Y = Poly.var(2, 0)
Z = Poly.var(2, 1)


# ----------------------------------------------------------------------
# polynomial plumbing
# ----------------------------------------------------------------------


def test_poly2_accumulates_duplicates():
    p = Poly(2, [((1, 1), 2), ((1, 1), -2), ((0, 0), 5)])
    assert p.terms == {(0, 0): Fraction(5)}
    assert Poly(1, [((2,), 1), ((2,), -1)]) == Poly(1)
    for bad_key in ((1,), (1, -1)):
        with pytest.raises(ValidationError):
            Poly(2, {bad_key: 1})


def test_poly2_arithmetic():
    p = (Y + Z) * (Y - Z)
    assert p == Y**2 - Z**2
    assert p.evaluate(3, 2) == 5
    assert abs(p.evaluate(3.0, 2.0) - 5.0) < 1e-12


def test_poly2_rejects_float_coefficients():
    with pytest.raises(ValidationError):
        Poly(2, {(0, 0): 0.5})
    with pytest.raises(ValidationError):
        Y.scale(0.5)


def test_poly1_substitution_consistency():
    p = Y**2 * Z - 3 * Z**2
    q = p.substitute_y(Fraction(1, 2))
    for z in (Fraction(2), Fraction(-1, 3), Fraction(7, 5)):
        assert q.evaluate(z) == p.evaluate(Fraction(1, 2) * z, z)


def test_poly3_shift_coeff_degree():
    g = Poly(3, {(1, 2, 3): Fraction(5)})
    assert g.shift(1, 0, 1) == Poly(3, {(2, 2, 4): 5})
    assert g.coeff(1, 2, 3) == 5 and g.coeff(0, 0, 0) == 0
    assert g.degree == 6 and Poly(3).degree == -1


# small polynomials of arity 1-3 with rational coefficients


def _fractions(span=6, den=4):
    return st.builds(Fraction, st.integers(-span, span), st.integers(1, den))


def _polys(arity):
    key = st.tuples(*[st.integers(0, 3)] * arity)
    return st.dictionaries(key, _fractions(), max_size=4).map(
        lambda terms: Poly(arity, terms)
    )


def _poly_pairs_and_point():
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            _polys(n), _polys(n), st.tuples(*[_fractions()] * n)
        )
    )


@settings(max_examples=60, deadline=None)
@given(
    _poly_pairs_and_point(),
    _fractions(),
    st.integers(0, 3),
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
)
def test_poly_arithmetic_agrees_with_evaluate(pqx, k, exp, deltas):
    p, q, x = pqx
    px, qx = p.evaluate(*x), q.evaluate(*x)
    assert (p + q).evaluate(*x) == px + qx
    assert (p - q).evaluate(*x) == px - qx
    assert (-p).evaluate(*x) == -px
    assert (p * q).evaluate(*x) == px * qx
    assert (k * p).evaluate(*x) == (p * k).evaluate(*x) == k * px
    assert (p + k).evaluate(*x) == (k + p).evaluate(*x) == px + k
    assert (k - p).evaluate(*x) == k - px
    assert (p**exp).evaluate(*x) == px**exp
    assert p.scale(k).evaluate(*x) == k * px
    deltas = deltas[: p.arity]
    assert p.shift(*deltas).evaluate(*x) == px * math.prod(
        c**d for c, d in zip(x, deltas)
    )
    assert abs(p.evaluate(*map(float, x)) - float(px)) <= 1e-9 * (1 + abs(px))


@settings(max_examples=60, deadline=None)
@given(_polys(2), _fractions(), _fractions())
def test_poly_substitute_y_agrees_with_evaluate(p, alpha, z):
    sub = p.substitute_y(alpha)
    assert sub.arity == 1
    assert sub.evaluate(z) == p.evaluate(alpha * z, z)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_poly_mixing_arities_raises(a, b, data):
    if a == b:
        b = a % 3 + 1
    p, q = data.draw(_polys(a)), data.draw(_polys(b))
    for combine in (
        lambda: p + q,
        lambda: p - q,
        lambda: p * q,
        lambda: p.evaluate(*[1] * b),
        lambda: p.shift(*[1] * b),
    ):
        with pytest.raises(ValidationError):
            combine()
    assert p != q


# ----------------------------------------------------------------------
# coefficient polynomials
# ----------------------------------------------------------------------


def test_coefficient_spot_values():
    coeffs = pde_coefficients(EnsembleParams.from_checks(5))  # k = 6
    assert coeffs["A"].evaluate(2, 17) == 4
    assert coeffs["F"].evaluate(0, 1) == 20
    assert coeffs["B"].evaluate(2, 1) == -1
    assert coeffs["C"].evaluate(1, 1) == 0
    # k = 3 set
    coeffs3 = pde_coefficients(EnsembleParams.from_checks(2))
    assert coeffs3["D"].evaluate(1, 1) == -1
    assert coeffs3["E'"].evaluate(1, 1) == -1


def test_recurrence_set_differs_only_in_second_y_slot():
    params = EnsembleParams.from_checks(4)
    printed = pde_coefficients(params)
    derived = recurrence_pde_coefficients(params)
    assert derived["A"] == Y**2 * (Z - 1)
    for name in ("B", "C", "D", "E'", "F"):
        assert printed[name] == derived[name]
    assert printed["A"] == Y**2 * (Y - 1)


def test_discriminant_expansion():
    # hand expansion: 4(B^2 - AC) = y^2 (4z^4 - 4yz^3 - 4yz^2 + 4y^2 z
    #                                      + y^2 + z^2 - 2yz)
    bracket = (
        4 * Z**4 - 4 * Y * Z**3 - 4 * Y * Z**2 + 4 * Y**2 * Z
        + Y**2 + Z**2 - 2 * Y * Z
    )
    assert 4 * discriminant() == Y**2 * bracket


def test_discriminant_k_free():
    for m in (1, 2, 40):
        coeffs = pde_coefficients(EnsembleParams.from_checks(m))
        assert coeffs["B"] * coeffs["B"] - coeffs["A"] * coeffs["C"] == discriminant()


def test_discriminant_spot_values():
    disc = discriminant()
    assert disc.evaluate(2, 1) == 5
    assert disc.evaluate(2, 2) == 0
    assert disc.evaluate(3, 2) == Fraction(-63, 4)


def test_degenerate_lines_are_parabolic():
    disc = discriminant()
    for w in (Fraction(-3), Fraction(0), Fraction(2, 7), Fraction(5)):
        assert disc.evaluate(0, w) == 0
        assert disc.evaluate(w, w) == 0  # the whole diagonal y = z


def test_classify_point():
    assert classify_point(2, 1).label == HYPERBOLIC
    assert classify_point(2, 1).value == 5
    assert classify_point(2, 2).label == PARABOLIC
    assert classify_point(3, 2).label == ELLIPTIC
    assert classify_point("5/2", "3/2").label == classify_point(
        Fraction(5, 2), Fraction(3, 2)
    ).label


def test_classify_point_float_tolerance():
    # a float point is classified by the exact value it holds: 2.0 + 1e-9
    # is just off the parabolic diagonal y = z
    for y, z in [(2.0, 2.0 + 1e-9), (3.0, 2.0), (0.1, 0.3), (2.0, 2.0)]:
        point = classify_point(y, z)
        exact = classify_point(Fraction(y), Fraction(z))
        assert (point.label, point.value) == (exact.label, exact.value)
    assert classify_point(2.0, 2.0 + 1e-9).label != PARABOLIC
    assert classify_point(3.0, 2.0).label == ELLIPTIC


def test_region_map_contains_all_labels():
    rm = region_map((1, 4), (1, 4), 7)
    counts = rm.counts()
    assert counts[HYPERBOLIC] > 0
    assert counts[PARABOLIC] > 0
    assert counts[ELLIPTIC] > 0
    assert sum(counts.values()) == 49


def test_region_map_zero_line_and_csv():
    rm = region_map((0, 2), (1, 3), 3)
    for p in rm.points:
        if p.y == 0:
            assert p.label == PARABOLIC
    csv = rm.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "y,z,discriminant,label"
    assert len(lines) == 1 + 9
    assert lines[1] == "0,1,0,parabolic"


def test_region_map_validation():
    with pytest.raises(ValidationError):
        region_map((0, 1), (0, 1), 1)


# ----------------------------------------------------------------------
# alpha substitution
# ----------------------------------------------------------------------


def test_alpha_substitution_frozen():
    sub = alpha_substitution(2)
    assert sub.exact == Poly(1, {(6,): -16, (5,): 32, (4,): 4})
    assert not sub.equal


def test_alpha_substitution_vanishes_at_one():
    sub = alpha_substitution(1)
    assert sub.exact.is_zero()
    assert sub.printed == Poly(1, {(6,): 3, (5,): -6, (4,): 3})  # 3 z^4 (z-1)^2
    assert not sub.equal


def test_alpha_substitution_degenerate_agreement():
    assert alpha_substitution(0).equal


def test_alpha_substitution_matches_discriminant():
    rng = random.Random(7)
    disc4 = 4 * discriminant()
    for _ in range(25):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        z = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        assert alpha_substitution(a).exact.evaluate(z) == disc4.evaluate(a * z, z)


def test_alpha_discriminant_frozen():
    assert alpha_discriminant(1) == 0
    assert alpha_discriminant(0) == -7
    assert alpha_discriminant(2) == 25


def test_alpha_discriminant_cubic_identity():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-200, 200), rng.randint(1, 40))
        assert alpha_discriminant(a) == 4 * a**3 - 3 * a**2 + 6 * a - 7


# ----------------------------------------------------------------------
# roots
# ----------------------------------------------------------------------


def test_printed_f_shapes():
    assert printed_f(4) == Poly(1, {(1,): -15, (0,): 21})
    assert printed_f(1) == Poly(1, {(2,): 3, (1,): -6, (0,): 3})


def test_quadratic_roots_exact_square():
    roots = quadratic_roots(printed_f(2))  # 2z^2 - 9z + 7 = (2z-7)(z-1)
    assert [r.exact for r in roots] == [1, Fraction(7, 2)]


def test_quadratic_roots_double():
    roots = quadratic_roots(printed_f(1))
    assert len(roots) == 1
    assert roots[0].exact == 1
    assert roots[0].multiplicity == 2


def test_quadratic_roots_linear_and_empty():
    assert [r.exact for r in quadratic_roots(printed_f(4))] == [Fraction(7, 5)]
    assert quadratic_roots(printed_f(Fraction(1, 2))) == []
    assert quadratic_roots(Poly(1, {(0,): 3})) == []


def test_quadratic_roots_interval_case():
    f = printed_f(5)  # -z^2 - 18z + 31, discriminant 448 is not a square
    roots = quadratic_roots(f)
    assert len(roots) == 2
    for root, expect in zip(roots, (-9 - math.sqrt(112), -9 + math.sqrt(112))):
        assert root.exact is None
        assert root.width < Fraction(1, 10**9)
        assert f.evaluate(root.lo) * f.evaluate(root.hi) <= 0
        assert abs(root.midpoint - expect) < 1e-8


def test_quadratic_roots_validation():
    with pytest.raises(ValidationError):
        quadratic_roots(Poly(1))
    with pytest.raises(ValidationError):
        quadratic_roots(Poly(1, {(3,): 1}))


# ----------------------------------------------------------------------
# case split along y = alpha z
# ----------------------------------------------------------------------


def test_alpha_case_indices():
    expected = {
        Fraction(0): 0,
        Fraction(1, 2): 1,
        Fraction(1): 2,
        Fraction(2): 3,
        Fraction(4): 4,
        Fraction(5): 5,
    }
    for alpha, index in expected.items():
        assert alpha_case(alpha).index == index


def test_alpha_case_zero_everywhere_parabolic():
    case = alpha_case(0)
    for z in (-2, Fraction(1, 3), 5):
        assert case.classify(z) == PARABOLIC


def test_alpha_case_below_one_all_hyperbolic():
    case = alpha_case(Fraction(1, 2))
    assert case.roots == ()
    for z in (-3, Fraction(1, 7), 1, 10):
        assert case.classify(z) == HYPERBOLIC
    assert case.classify(0) == PARABOLIC  # the z^4 factor


def test_alpha_case_one_double_root():
    case = alpha_case(1)
    assert case.roots[0].exact == 1
    assert case.classify(1) == PARABOLIC
    for z in (-1, Fraction(1, 2), 3, 7):
        assert case.classify(z) == HYPERBOLIC


def test_alpha_case_between_one_and_four():
    case = alpha_case(2)  # roots 1 and 7/2
    assert case.classify(2) == ELLIPTIC
    assert case.classify(1) == PARABOLIC
    assert case.classify(Fraction(7, 2)) == PARABOLIC
    assert case.classify(-1) == HYPERBOLIC
    assert case.classify(4) == HYPERBOLIC


def test_alpha_case_four_threshold():
    case = alpha_case(4)
    assert case.roots[0].exact == Fraction(7, 5)
    assert case.classify(1) == HYPERBOLIC
    assert case.classify(Fraction(7, 5)) == PARABOLIC
    assert case.classify(2) == ELLIPTIC


def test_alpha_case_above_four():
    case = alpha_case(5)  # roots near -19.58 and 1.58, opens downward
    assert case.classify(1) == HYPERBOLIC
    assert case.classify(-25) == ELLIPTIC
    assert case.classify(2) == ELLIPTIC


# ----------------------------------------------------------------------
# printed-expansion audit
# ----------------------------------------------------------------------


def test_printed_expansion_transcription():
    p = printed_expansion()
    assert p.terms[(2, 4)] == 4
    assert p.terms[(2, 3)] == -3
    assert p.terms[(3, 3)] == -4  # -yz^3 - 3yz^3 collected
    assert p.terms[(2, 2)] == 1
    assert p.terms[(4, 0)] == 1
    assert p.terms[(3, 1)] == 1
    assert p != 4 * discriminant()


def test_expansion_audit_structure():
    report = expansion_audit(n_points=40, seed=5)
    assert len(report.expansion_rows) == 40
    assert len(report.alpha_rows) == 40
    summary = report.summary()
    for section in ("expansion", "alpha_form"):
        tally = summary[section]
        assert tally["equal"] + tally["unequal"] == tally["total"] == 40
    # generic points expose the disagreement
    assert summary["expansion"]["unequal"] > 0
    assert summary["alpha_form"]["unequal"] > 0
    again = expansion_audit(n_points=40, seed=5)
    assert again.to_csv() == report.to_csv()


def test_expansion_audit_rejects_negative_seed():
    # random.Random seeds from |seed|, so -5 would rerun seed 5 unnoticed
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        expansion_audit(n_points=3, seed=-5)
    expansion_audit(n_points=3, seed=0)


# ----------------------------------------------------------------------
# residual check
# ----------------------------------------------------------------------


def test_residual_empty_table():
    # a table with no rows still holds the implied origin, whose artifact
    # x z^2 * m(m-1) is the whole residual, outside the window
    params = EnsembleParams.from_checks(4)
    empty = CoeffTable(params, [[], [], []])
    report = pde_residual(empty)
    assert report.passed
    assert report.residual.terms == {(1, 0, 2): -12}
    assert report.excluded == [((1, 0, 2), -12)]


def test_residual_recurrence_operator_passes():
    table = fill_table(EnsembleParams.from_checks(3), vmax=3)
    report = pde_residual(table)
    assert report.operator == "recurrence"
    assert report.passed


def test_residual_origin_artifact_is_excluded():
    # the origin row feeds F*G once, producing x z^2 * m(m-1) with nothing
    # on the left side to cancel it; t = 0 keeps it out of the window
    table = fill_table(EnsembleParams.from_checks(3), vmax=2)
    report = pde_residual(table)
    excluded = dict(report.excluded)
    assert excluded[(1, 0, 2)] == -6
    assert report.residual.coeff(1, 0, 2) == -6


@pytest.fixture(scope="module")
def m5_table():
    return fill_table(EnsembleParams(n=6, r=Fraction(1, 6)), vmax=6)


def test_residual_m5_recurrence_clean(m5_table):
    report = pde_residual(m5_table)
    assert report.passed
    assert len(report.excluded) == 11
    # the exclusions are the origin artifact plus the layer one x-shift
    # above the filled depth
    for (v, t, s), _val in report.excluded:
        assert v == 7 or (v, t, s) == (1, 0, 2)


def test_residual_m5_printed_slot(m5_table):
    reports = residual_reconciliation(m5_table)
    assert reports["recurrence"].passed
    printed = reports["printed"]
    assert not printed.passed
    assert len(printed.interior_nonzero) == 44
    assert len(printed.excluded) == 11
    spots = dict(printed.interior_nonzero)
    assert spots[(3, 2, 2)] == 15
    assert spots[(3, 3, 1)] == -15
    assert spots[(4, 2, 2)] == Fraction(125, 6)
    assert spots[(4, 2, 3)] == 150
    assert spots[(4, 2, 4)] == 105
    assert spots[(4, 3, 1)] == Fraction(-125, 6)


def test_residual_m5_printed_matches_slot_difference(m5_table):
    # the two operators differ by y^2 (y - z) d2/dy2, so the printed
    # residual at (v,t,s) must equal
    #   t(t-1) A(v-1,t,s-2) - (t-1)(t-2) A(v-1,t-1,s-1)
    report = pde_residual(m5_table, operator="printed")
    for (v, t, s), val in report.interior_nonzero:
        predicted = t * (t - 1) * m5_table.value(v - 1, t, s - 2) - (t - 1) * (
            t - 2
        ) * m5_table.value(v - 1, t - 1, s - 1)
        assert val == predicted


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m + 1))))
def test_residual_small_tables(m_vmax):
    # the m = 5 checks above, for every m <= 6 and vmax <= m + 1
    m, vmax = m_vmax
    n = max(m, vmax)
    table = fill_table(EnsembleParams(n=n, r=Fraction(n - m, n)), vmax)
    reports = residual_reconciliation(table)
    assert reports["recurrence"].passed
    for (v, t, s), val in reports["printed"].interior_nonzero:
        predicted = t * (t - 1) * table.value(v - 1, t, s - 2) - (t - 1) * (
            t - 2
        ) * table.value(v - 1, t - 1, s - 1)
        assert val == predicted


def test_residual_linearity(m5_table):
    # every row scaled by 3, the implied origin not: the residual is
    # 3 R(G) - 2 R(origin)
    params = m5_table.params
    scaled = CoeffTable(
        params, [[(v, t, s, 3 * b) for v, t, s, b in level] for level in m5_table.levels]
    )
    origin = CoeffTable(params, [[] for _ in m5_table.levels])
    a = pde_residual(m5_table, operator="printed")
    b = pde_residual(scaled, operator="printed")
    o = pde_residual(origin, operator="printed")
    assert not o.residual.is_zero()
    assert b.residual == a.residual.scale(3) - o.residual.scale(2)


@pytest.mark.parametrize("name", ["custom", "both", "Printed", ""])
def test_residual_unknown_operator_is_rejected(m5_table, name):
    with pytest.raises(ValidationError, match="unknown operator"):
        pde_residual(m5_table, name)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_residual_window_sees_every_bump_off_the_boundary(m):
    # +1 on a stored count B(v,t,s) with s >= 1 moves the z dG/dz term at
    # (v,t,s) itself by s, and every such monomial (t >= 1, v <= vmax) lies
    # in the window, so the recurrence report must fail.  s = 0 is skipped:
    # those entries are the boundary condition, which verify_table checks,
    # not the operator.  A bump there moves only level v + 1, and at
    # v = vmax that level is outside the window, so it can go unseen.
    vmax = m + 1
    table = fill_table(EnsembleParams(n=vmax, r=Fraction(vmax - m, vmax)), vmax)
    assert pde_residual(table).passed
    bumped = [
        (i, j) for i, level in enumerate(table.levels) for j, row in enumerate(level) if row[2] >= 1
    ]
    assert bumped
    for i, j in bumped:
        levels = [list(level) for level in table.levels]
        v, t, s, b = levels[i][j]
        levels[i][j] = (v, t, s, b + 1)
        report = pde_residual(CoeffTable(table.params, levels))
        assert not report.passed, (v, t, s)


def test_residual_json_shape(m5_table):
    payload = pde_residual(m5_table).to_json_dict()
    assert payload["pass"] is True
    assert payload["operator"] == "recurrence"
    assert payload["nonzero_monomials"] == []
    assert payload["excluded_monomials_count"] == 11
    assert payload["window"] == {
        "vmax": 6,
        "m": 5,
        "interior": "t >= 1 and (v <= vmax or t + s > m)",
    }
    for row in payload["excluded_monomials"]:
        assert set(row) == {"v", "t", "s", "value"}
        assert isinstance(row["value"], str)
