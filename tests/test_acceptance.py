"""End-to-end acceptance checks, one test per shipped guarantee.

Each test is numbered; the conftest hook prints one
`[ACCEPTANCE] criterion-N PASS|FAIL` line per test so a full run yields a
scoreboard.  Everything here goes through public entry points and
independent oracles (closed forms, exhaustive enumerations, committed
artifacts), not through the internals under test.  The one exception is
criterion 13's split check, which sums the simulator's per-range counter
over uneven ranges, since the public estimator counts all trials in one.
"""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cyclepoisson.cli import main
from cyclepoisson.combinatorics import (
    block_partition_count,
    factorial,
    log10_fraction,
    stirling_relative_error,
)
from cyclepoisson.errprob import hadamard_contour, known_series_check
from cyclepoisson.pde import (
    alpha_discriminant,
    classify_point,
    pde_residual,
    residual_reconciliation,
)
from cyclepoisson.series import geometric_series, monomial, poisson_block_series
from cyclepoisson.simulator import (
    _build_lut,
    _range_failures,
    estimate_block_error,
    exhaustive_block_error,
)
from cyclepoisson.table import (
    EnsembleParams,
    boundary_layer,
    fill_table,
    stopping_set_count,
    verify_table,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORTS = REPO_ROOT / "reports"


@pytest.fixture(scope="module")
def m5_table():
    # m = 5 with six variable levels; the default recurrence fill
    return fill_table(EnsembleParams(n=6, r=Fraction(1, 6)), 6)


def test_criterion_01_partition_count_oracle():
    # (2v)! times the x^(2v) coefficient of (e^x-1-x)^t counts ordered
    # partitions into t blocks of size >= 2; exact for all v <= 6, t <= 5
    for v in range(7):
        for t in range(6):
            series_side = factorial(2 * v) * poisson_block_series(t, 2 * v).coef(2 * v)
            assert series_side == block_partition_count(2 * v, t, 2), (v, t)


def test_criterion_02_stopping_sets_brute_force():
    # independent enumeration: endpoint maps with image size exactly t,
    # every image check covered at least twice
    for m in range(1, 5):
        params = EnsembleParams.from_checks(m)
        for v in range(1, 4):
            for t in range(m + 1):
                count = 0
                for assign in itertools.product(range(m), repeat=2 * v):
                    hits = Counter(assign)
                    if len(hits) == t and all(c >= 2 for c in hits.values()):
                        count += 1
                assert stopping_set_count(params, v, t) == count, (m, v, t)


def test_criterion_03_boundary_identity_m10():
    # v! 2^v A(v,t,0) == stopping_set_count(v,t), exactly, via
    # (2v)! = (2v-1)!! 2^v v!
    params = EnsembleParams.from_checks(10)
    table = fill_table(params, 10)
    for v in range(1, 11):
        for t in range(1, 11):
            lhs = factorial(v) * 2**v * table.value(v, t, 0)
            assert lhs == stopping_set_count(params, v, t), (v, t)


def test_criterion_04_recurrence_reverification(m5_table):
    # re-check every stored entry (and the omitted zeros) against the
    # three-term identity, independent of the fill order
    assert verify_table(m5_table) == []


def test_criterion_05_pde_residual_and_committed_report(m5_table):
    report = pde_residual(m5_table)
    assert report.passed
    assert report.interior_nonzero == []
    # the committed reconciliation artifact matches a fresh computation
    committed = json.loads(
        (REPORTS / "residual" / "residual_reconciliation_m5.json").read_text()
    )
    fresh = {
        name: rep.to_json_dict()
        for name, rep in residual_reconciliation(m5_table).items()
    }
    assert committed == fresh
    assert committed["recurrence"]["pass"] is True
    assert committed["printed"]["pass"] is False
    assert len(committed["printed"]["nonzero_monomials"]) == 44


def test_criterion_06_discriminant_identities():
    rng = random.Random(1414)
    for _ in range(10_000):
        alpha = Fraction(rng.randrange(-300, 301), rng.randrange(1, 50))
        value = alpha_discriminant(alpha)
        assert value == 4 * alpha**3 - 3 * alpha**2 + 6 * alpha - 7
    for k in range(1, 1001):
        z = Fraction(k, 17) - 20
        assert classify_point(0, z).label == "parabolic"
    assert classify_point(2, 1).label == "hyperbolic"
    assert classify_point(2, 2).label == "parabolic"
    assert classify_point(3, 2).label == "elliptic"


def test_criterion_07_expansion_audit_artifact(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "pde", "verify-paper-expansion"])
    capsys.readouterr()
    assert rc == 0
    fresh = (tmp_path / "expansion_audit.csv").read_bytes()
    rows = fresh.decode().splitlines()
    assert len(rows) == 2001  # header + 1000 expansion + 1000 alpha rows
    committed = (REPORTS / "expansion" / "expansion_audit.csv").read_bytes()
    assert committed == fresh


def _trinomial_block_count(t, n):
    # n! [x^n] (e^x - 1 - x)^t from the trinomial expansion of the t-th power:
    # a factors e^x, b factors -1, c factors -x give the sign (-1)^(b+c) and
    # n! [x^n] x^c e^(a x) = n!/(n-c)! * a^(n-c)
    total = 0
    for a in range(t + 1):
        for b in range(t - a + 1):
            c = t - a - b
            if c <= n:
                multinomial = math.comb(t, a) * math.comb(t - a, b)
                total += multinomial * (-1) ** (b + c) * math.perm(n, c) * a ** (n - c)
    return total


def test_criterion_08_growth_reaches_10_to_200():
    # Three quantities at m = 100 are compared with 10**200: A(v,t,0) itself,
    # whose maximum over v <= 100, t <= 50 stays below it; the raw assignment
    # count v! 2^v A(v,t,0) at v = 100, which passes it at t = 9; and A(v,50,0)
    # past v = 100, which passes it at v = 120.  Which normalisation the
    # paper's "10^200" refers to cannot be confirmed from this repo, which
    # does not hold the paper's text.  Every value named below must equal the
    # trinomial closed form, and every maximum and crossing must equal
    # reports/growth/growth_survey.json.
    survey = json.loads((REPORTS / "growth" / "growth_survey.json").read_text())
    quantities, crossings = survey["quantities"], survey["crossings_of_1e200"]
    m, bound = 100, 10**200
    layer = boundary_layer(m, 120, range(1, 51))

    def closed_form(v, t):
        weight = math.factorial(v) * 2**v
        return Fraction(math.comb(m, t) * _trinomial_block_count(t, 2 * v), weight)

    def as_recorded(value, recorded):
        # the survey rounds to 6 decimals, so any edited digit fails
        return abs(value - recorded) < 5e-7

    # A, the plotted exponent A / binom(m,t) and the raw assignment count
    # v! 2^v A all peak at the corner (100, 50) of the survey box
    box = [(v, t) for t, per_t in layer.items() for v in per_t if v <= 100]
    scales = {
        "log10_A": lambda v, t: 1,
        "log10_A_over_binom": lambda v, t: Fraction(1, math.comb(m, t)),
        "log10_assignment_count": lambda v, t: math.factorial(v) * 2**v,
    }
    for name, scale in scales.items():
        v_top, t_top = max(box, key=lambda vt: layer[vt[1]][vt[0]] * scale(*vt))
        top = log10_fraction(layer[t_top][v_top] * scale(v_top, t_top))
        recorded = quantities[name]
        assert (v_top, t_top) == (recorded["argmax_v"], recorded["argmax_t"]) == (100, 50)
        assert as_recorded(top, recorded["max"])
        if "max_natural_log" in recorded:
            assert as_recorded(top * math.log(10), recorded["max_natural_log"])
    corner = layer[50][100]
    assert corner == closed_form(100, 50)
    assert corner < bound
    assert as_recorded(log10_fraction(corner), crossings["log10_A_at_t50_v100"])

    # the raw assignment count at v = 100 first exceeds 10**200 at t = first_t
    params = EnsembleParams.from_checks(m)
    first_t = crossings["log10_assignment_count_at_v100_first_t"]
    counts = [stopping_set_count(params, 100, t) for t in range(1, first_t + 1)]
    assert all(count <= bound for count in counts[:-1]) and counts[-1] > bound
    below, above = counts[-2:]
    weight = math.factorial(100) * 2**100
    assert below == closed_form(100, first_t - 1) * weight
    assert above == closed_form(100, first_t) * weight
    assert stopping_set_count(params, 100, 50) == corner * weight

    # A(v,50,0) first exceeds 10**200 at v = first_v
    first_v = crossings["log10_A_at_t50_first_v"]
    values = [layer[50][v] for v in range(50, first_v + 1)]
    assert all(value <= bound for value in values[:-1]) and values[-1] > bound
    below, above = values[-2:]
    assert below == closed_form(first_v - 1, 50)
    assert above == closed_form(first_v, 50)


def test_criterion_09_appendix_profiles(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "table", "exponents", "--m", "100"])
    capsys.readouterr()
    assert rc == 0
    t_list = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50)
    for t in t_list:
        rows = (tmp_path / ("g_t%d_m100.csv" % t)).read_text().splitlines()
        assert rows[0] == "v,g"
        data = [row for row in rows[1:] if not row.startswith("#")]
        assert len(data) == 101 - t  # v runs t..100 once the series kicks in
        for row in data:
            assert math.isfinite(float(row.split(",")[1]))
    first_v, first_g = (tmp_path / "g_t1_m100.csv").read_text().splitlines()[1].split(",")
    assert first_v == "1"
    assert abs(float(first_g) - math.log10(0.5)) < 1e-12
    assert (tmp_path / "plot_exponents.gnuplot").exists()


def test_criterion_10_hadamard_quadrature():
    geo = geometric_series(64)
    exact = complex(geo.hadamard(geo).evaluate(0.25))
    result = hadamard_contour(geo, geo, 0.25, rho=0.5, tol=1e-8)
    assert result.nodes <= 256
    assert abs(result.value - exact) < 1e-8
    # discrete orthogonality, the identity the quadrature rests on: the
    # Hadamard product of z^i and z^j is z^i when i == j and 0 otherwise,
    # also where |i - j| aliases at the first node counts
    for i, j in itertools.product(range(8), repeat=2):
        value = hadamard_contour(monomial(i, 8), monomial(j, 8), 0.5, rho=1.0).value
        assert abs(value - (0.5**i if i == j else 0.0)) < 1e-12, (i, j)


def test_criterion_11_known_series_identities():
    rng = random.Random(2727)
    for n in range(1, 31):
        for _ in range(20):
            x = Fraction(rng.randrange(-10_000, 10_001), rng.randrange(1, 200))
            report = known_series_check(n, x)
            assert report.scaled_identity_ok, (n, x)
            assert report.plain_identity_ok, (n, x)
    for x in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
        assert known_series_check(10, x).factorial_diverges


def test_criterion_12_stirling_accuracy():
    for n in range(10, 201):
        assert stirling_relative_error(n) < 1e-3, n


def test_criterion_13_simulator_vs_exhaustive():
    seed = 20260816
    for n in (1, 2, 3):
        params = EnsembleParams(n=n, r=Fraction(0))
        for eps in (Fraction(1, 2), Fraction(1)):
            exact = exhaustive_block_error(params, eps)
            res = estimate_block_error(params, eps, trials=10**6, seed=seed)
            if eps == 1:
                assert res.p_hat == 1.0 == float(exact)
            else:
                sigma = math.sqrt(float(exact) * (1 - float(exact)) / res.trials)
                assert abs(res.p_hat - float(exact)) < 3 * sigma, (n, eps)
    # trial i draws from (seed, i) alone, so uneven contiguous ranges of the
    # same trials (here on the lookup-table path) add up to the same count
    params = EnsembleParams(n=2, r=Fraction(0))
    base = estimate_block_error(params, Fraction(1, 2), trials=10**6, seed=seed)
    lut = _build_lut(params)
    bounds = [0, 1, 16_385, 70_001, 333_333, 999_999, 10**6]
    pieces = sum(
        _range_failures(seed, lo, hi, params, [(1, 2)], lut)[0]
        for lo, hi in zip(bounds, bounds[1:])
    )
    assert pieces == base.failures


def test_criterion_14_reconcile_report(tmp_path, capsys):
    rc = main([
        "--out", str(tmp_path),
        "reconcile", "--n", "8", "--r", "1/2",
        "--eps-list", "1/20,1/10", "--trials", "20000", "--seed", "1",
    ])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads((tmp_path / "reconcile.json").read_text())
    assert doc["format"] == "cpreconcile/1"
    assert [row["epsilon"] for row in doc["rows"]] == ["1/20", "1/10"]
    for row in doc["rows"]:
        # both values present, side by side, with a verdict; agreement is
        # reported, not asserted
        assert Fraction(row["analytic"]) > 0
        assert 0.0 <= row["mc_p_hat"] <= 1.0
        assert row["mc_ci95"][0] <= row["mc_p_hat"] <= row["mc_ci95"][1]
        assert row["verdict"] in ("within-ci", "outside-ci")
    committed = json.loads((REPORTS / "reconcile" / "reconcile.json").read_text())
    assert committed["format"] == "cpreconcile/1"
    assert len(committed["rows"]) == 2
    assert all("verdict" in row for row in committed["rows"])
