"""Expected block-error evaluation and series-boundedness analysis.

The block-error probability of iterative decoding over the binary erasure
channel is the exact finite sum

    E_B = (1-eps)^n * sum_v C(n,v) v! x^v * sum_{t,s} A(v,t,s),

with x = 2 eps / ((1-eps) m^2).  v! 2^v sum_{t,s} A(v,t,s) is the number
of cyclic endpoint assignments of v variables; the other W_v of all
m^(2v) assignments form a forest on the m checks (W_v = 0 for v >= m).
With eps = a/b and d = (b-a) m^2, sum_v C(n,v) a^v m^(2v) d^(n-v) =
(b m^2)^n, so

    1 - E_B = sum_v C(n,v) a^v W_v d^(n-v) / (b m^2)^n,

and _block_error, the one place that weighs counts into the sum, sums
those forest terms.  Two routes feed it forest counts from two sources:

* block_error_probability, the production route, takes W from a
  three-term integer recurrence in v, which a creative-telescoping
  certificate derives from Renyi's alternating sum for the forest count
  (see _forest_counts).  Its sum stops at v = m - 1, and no table is
  filled.
* expected_block_error, the paper's route, adds the cyclic counts up
  level by level from the filled coefficient table and passes m^(2v)
  minus each, for every v = 0..n.  Its counts come from the table's
  recurrence, not from forests, so it is the oracle the forest route is
  checked against, and a wrong table count at any level changes it.

The same sum rearranges into per-(t,s) inner power sums with the n^{2v}
factored out of x, each read from one column of the m-free kernel with
no table filled, and the question of bounding those inner series leads
to the Hadamard product machinery: exact finite identities, a divergence
demonstration, the exact radius of convergence of each (t,s) coefficient
sequence (one column's v! A terms grow like (t^2/2)^v), and a
contour-integral evaluation of the Hadamard product of two truncated
series.

E_B is the exact block-error probability of iterative decoding, not a
bound: v! 2^v sum_{t,s} A(v,t,s) counts the endpoint assignments of v
erased variables whose graph on the checks contains a cycle, which are the
erased sets the peeling decoder cannot resolve, so the v-th term weighs
binom(n,v) eps^v (1-eps)^(n-v) by the share of such assignments among all
m^(2v).  E_B equals the exhaustive oracle exhaustive_block_error wherever
that fits its guard, and the Monte Carlo estimator in the simulator module
estimates the same probability.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

from .combinatorics import binomial, factorial, log_fraction
from .errors import CoverageError, ToleranceNotMetError, ValidationError
from .series import Series
from .table import (
    CoeffTable,
    EnsembleParams,
    _check_epsilon as _check_probability,
    _check_vmax,
    _column_counts,
    _exact,
)

__all__ = [
    "ErrProbQuery",
    "ErrProbResult",
    "InnerSum",
    "block_error_probability",
    "expected_block_error",
    "inner_power_sum",
    "KnownSeriesReport",
    "known_series_check",
    "SequenceEstimate",
    "HadamardSplitReport",
    "hadamard_split_report",
    "ContourResult",
    "hadamard_contour",
]


def _check_epsilon(epsilon) -> Fraction:
    """epsilon as a Fraction in [0, 1); eps = 1 would divide x by zero."""
    eps = _check_probability(epsilon)
    if eps == 1:
        raise ValidationError("epsilon = 1 leaves x undefined (division by zero)")
    return eps


@dataclass(frozen=True)
class ErrProbQuery:
    """Evaluation request: parameters, erasure probability, filled table.

    x is recomputed on construction as 2 eps/((1-eps) m^2).  eps = 1 is
    rejected: x would divide by zero.
    """

    params: EnsembleParams
    epsilon: Fraction
    table: CoeffTable
    x: Fraction = field(init=False)

    def __post_init__(self):
        eps = _check_epsilon(self.epsilon)
        object.__setattr__(self, "epsilon", eps)
        if self.table.m != self.params.m:
            raise ValidationError(
                "table has m=%d but parameters have m=%d"
                % (self.table.m, self.params.m)
            )
        m = self.params.m
        object.__setattr__(self, "x", 2 * eps / ((1 - eps) * m * m))


@dataclass(frozen=True)
class ErrProbResult:
    """E_B with the ensemble (n, m) it was evaluated for.

    The result stores no per-v terms: x and per_v are built from epsilon,
    n and m when they are read.  Equality compares value, epsilon, n and
    m.
    """

    value: Fraction
    epsilon: Fraction
    n: int
    m: int

    @property
    def x(self) -> Fraction:
        """2 eps / ((1-eps) m^2)."""
        return 2 * self.epsilon / ((1 - self.epsilon) * self.m * self.m)

    @property
    def per_v(self) -> tuple[tuple[int, Fraction], ...]:
        """(v, C(n,v) (eps/(1-eps))^v (1 - W_v/m^(2v))) for v = 1..n, built per read.

        W comes from _forest_counts(m), with W_v = 0 for v >= m.
        """
        n, m, eps = self.n, self.m, self.epsilon
        forests, ratio = _forest_counts(m), eps / (1 - eps)
        return tuple(
            (v, binomial(n, v) * ratio**v * (1 - Fraction(forests[v] if v < m else 0, m**(2 * v))))
            for v in range(1, n + 1)
        )

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self):
        # through decimal: the value may be past the int-to-str digit limit
        return "ErrProbResult(value=%s, epsilon=%s, %d terms)" % (
            _exact(self.value),
            _exact(self.epsilon),
            self.n,
        )


def _block_error(n: int, m: int, eps: Fraction, forests) -> ErrProbResult:
    """E_B from forests[v], the forest endpoint assignments of v variables.

    With eps = a/b and d = (b-a) m^2, 1 - E_B is sum_v c_v d^(n-v) /
    (b m^2)^n with c_v = C(n,v) a^v forests[v], over v = 0..top, where
    top = min(n, len(forests) - 1): a sequence that ends before n stands
    for zeros past its end.  Horner's rule forms sum_v c_v d^(top-v),
    C(n,v) a^v is updated per level, and d^(n-top) scales the sum to the
    full n.
    """
    a, b = eps.numerator, eps.denominator
    d = (b - a) * m * m
    top = min(n, len(forests) - 1)
    numerator, weight = 0, 1  # weight is C(n,v) a^v
    for v, count in enumerate(islice(forests, top + 1)):
        numerator = numerator * d + weight * count
        weight = weight * (n - v) * a // (v + 1)
    den = (b * m * m) ** n
    return ErrProbResult(Fraction(den - numerator * d ** (n - top), den), eps, n, m)


def expected_block_error(query: ErrProbQuery) -> ErrProbResult:
    """Exact finite evaluation of E_B from the table.

    This is the paper's route and the oracle for block_error_probability:
    each level's cyclic count is the table's sum of B = v! 2^v A(v,t,s)
    over t >= 1, and _block_error sums m^(2v) minus that count for every
    v = 0..n, so a wrong count at any level, v >= m included, changes
    the value.

    Raises:
        CoverageError: the table is shallower than v = n.
    """
    n = query.params.n
    if query.table.vmax < n:
        missing = list(range(query.table.vmax + 1, n + 1))
        raise CoverageError(
            "table reaches v=%d but the sum needs v up to %d (missing %s)"
            % (query.table.vmax, n, missing),
            missing=missing,
        )
    m = query.params.m
    counts = query.table.level_counts()
    forests = [m ** (2 * v) - counts.get(v, 0) for v in range(n + 1)]
    return _block_error(n, m, query.epsilon, forests)


def _forest_counts(m: int) -> tuple[int, ...]:
    """W_v for 0 <= v < m: endpoint assignments of v variables forming a forest.

    A forest with v edges on m labelled checks has k = m - v trees, and
    each is v! 2^v assignments (edge labels and orientations); a graph
    with v >= m edges on m checks has a cycle, so W_v = 0 there.  With
    P(k) = 4k^2 - 2(2m-5)k - (m+6)(m-1), W_0 = 1, W_1 = m(m-1) (any edge
    but a loop), and for 2 <= v <= m-1

        W_v = -P(k) W_{v-1} - 4m^2 (k+1)(v-1) W_{v-2},

    in integer multiply-adds: no alternating sum and no division.

    Proof.  Renyi's count f(m,k) of such forests (Renyi 1959),
        2^k m f(m,k) = binom(m,k) sum_{i=0}^{min(k,m-k)} (-1)^i 2^(k-i)
                       binom(k,i) (k+i) (m-k)_i m^(m-k-i),
    gives W_v = v! 2^v f(m,m-v) = 2^v (m)_v m^(v-1) S(v), where S(v) is
    sum_i t(v,i) over i >= 0 and
        t(v,i) = (-1/(2m))^i binom(m-v,i) (m-v+i) (v)_i.
    For 0 <= v <= m-3 and every integer i >= 0, Zeilberger's creative
    telescoping (Petkovsek, Wilf, Zeilberger, A = B) certifies
        a0 t(v,i) + a1 t(v+1,i) + a2 t(v+2,i) = G(v,i+1) - G(v,i)
    with
        a0 = 2m(m-v-1)(v+1),  a1 = -(m-v) c(v+2),  a2 = 2m(m-v-1)(m-v),
        c(u) = m^2 + 4mu - 4u^2 - 5m + 10u - 6 = -P(m-u),
        G(v,i) = 2m i (v+1) Q(v,i) T(v,i) for 0 <= i <= v+2, else 0,
        T(v,i) = (-1/(2m))^i binom(m-v,i) v!/(v+2-i)!,
        Q(v,i) = -im^2 + 4imv + im - 4iv^2 - 6iv - 2i - m^3 + 5m^2 v
                 + 7m^2 - 8mv^2 - 19mv - 8m + 4v^3 + 14v^2 + 14v + 4.
    For i <= v+2 each a_j t(v+j,i), G(v,i) and G(v,i+1) is T(v,i) times
    a polynomial in (m,v,i), and past i = v+2 every term is 0, so the
    identity is T(v,i) times one polynomial identity, of degree 4 in m,
    6 in v and 3 in i.  Summed over i it telescopes to 0, since
    G(v,0) = 0 and G vanishes past i = v+2: a0 S(v) + a1 S(v+1) +
    a2 S(v+2) = 0, which solved for S(v+2) and multiplied by
    2^(v+2) (m)_(v+2) m^(v+1) is the recurrence at v+2.
    tests/test_errprob.py checks the term identity in exact Fractions
    for m <= 40, checks the polynomial identity on a grid with more
    points than its degree in each variable, which proves it, and keeps
    Renyi's sum as the oracle.
    """
    counts = [1, m * (m - 1)]
    for v in range(2, m):
        k = m - v
        p = 4 * k * k - 2 * (2 * m - 5) * k - (m + 6) * (m - 1)
        counts.append(-p * counts[-1] - 4 * m * m * (k + 1) * (v - 1) * counts[-2])
    return tuple(counts[:m])


def block_error_probability(params: EnsembleParams, epsilon) -> ErrProbResult:
    """E_B from forest counts, with no coefficient table.

    _block_error sums the W of _forest_counts, which end at v = m - 1, so
    the sum stops there and subtracts nothing; value, per_v and x are
    expected_block_error's exactly.  W is recomputed on each call: at
    m = 2000 it takes a fraction of the time of the sum it feeds.
    """
    eps = _check_epsilon(epsilon)
    return _block_error(params.n, params.m, eps, _forest_counts(params.m))


@dataclass(frozen=True)
class InnerSum:
    t: int
    s: int
    value: Fraction
    terms: tuple[tuple[int, Fraction], ...]


def inner_power_sum(params: EnsembleParams, t: int, s: int, x) -> InnerSum:
    """The fixed-(t,s) inner sum S = sum_v C(n,v) v! A(v,t,s) x^v / n^{2v}.

    Returns the exact value with the full per-v term list, v = 1..n, from
    the one kernel column table._column_counts: v! A = B / 2^v.  Summing
    these over every (t,s) and multiplying by (1-eps)^n recovers
    expected_block_error when x carries the n^{2v}-factored-out scaling.
    """
    n = params.n
    x = Fraction(x)
    scale = 2 * n * n  # 2^v n^(2v) divides the v-th term
    terms = []
    total = Fraction(0)
    for v, b in enumerate(_column_counts(params.m, t, s, n)):
        if not b:
            continue
        term = Fraction(binomial(n, v) * b, scale**v) * x**v
        terms.append((v, term))
        total += term
    return InnerSum(t=t, s=s, value=total, terms=tuple(terms))


# ----------------------------------------------------------------------
# known finite identities and the factorial divergence
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KnownSeriesReport:
    n: int
    x: Fraction
    scaled_identity_ok: bool  # sum C(n,v) x^v / n^{2v} == (1 + x/n^2)^n
    plain_identity_ok: bool  # sum C(n,v) x^v == (1 + x)^n
    factorial_diverges: bool
    factorial_trivial: bool  # x == 0: the factorial series is just 1
    ratios: tuple[tuple[int, Fraction], ...]
    first_ratio_above_one: int | None
    note: str


_IDENTITY_NOTE = (
    "both binomial identities are polynomial identities in x and hold for "
    "every x at finite n; the |x|<1 proviso sometimes attached to them is "
    "not needed here"
)


def known_series_check(n: int, x) -> KnownSeriesReport:
    """Check the two finite binomial identities exactly; flag the factorial sum.

    The factorial series sum_v v! x^v has term ratio (v+1) x, unbounded for
    any x != 0, so it diverges everywhere; the report lists the first few
    ratios and the v where they cross 1, max(1, floor(1/|x|)) exactly.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    x = Fraction(x)
    n2 = Fraction(n) ** 2
    scaled = sum(
        (binomial(n, v) * x**v / n2**v for v in range(n + 1)), Fraction(0)
    )
    plain = sum((binomial(n, v) * x**v for v in range(n + 1)), Fraction(0))
    ratios = tuple((v, (v + 1) * abs(x)) for v in range(1, 13))
    # the smallest v >= 1 with (v+1)|x| > 1
    first = max(1, math.floor(1 / abs(x))) if x else None
    return KnownSeriesReport(
        n=n,
        x=x,
        scaled_identity_ok=scaled == (1 + x / n2) ** n,
        plain_identity_ok=plain == (1 + x) ** n,
        factorial_diverges=x != 0,
        factorial_trivial=x == 0,
        ratios=ratios,
        first_ratio_above_one=first,
        note=_IDENTITY_NOTE,
    )


# ----------------------------------------------------------------------
# exact radii for the three candidate splits
# ----------------------------------------------------------------------

SERIES_IDS = ("factorial", "factorial-over-n2v", "binomial-over-n2v")

_SPLIT_NOTE = (
    "radii are exact for one (t,s) column, whose v! A terms grow like "
    "(t^2/2)^v; summed over all (t,s), the v-th term of the factorial "
    "series at x = 2 eps/((1-eps) m^2) is (eps/(1-eps))^v (1 - W_v/m^(2v)) "
    "with W_v = 0 for v >= m, so that series converges iff eps < 1/2"
)


@dataclass(frozen=True)
class SequenceEstimate:
    series_id: str
    window: tuple[int, int]
    estimate: float  # sup over the window of |c_v|^(1/v); 0 for all-zero, nan if empty
    radius: Fraction | float  # exact; math.inf for a zero column or a finite sum
    verdict: str  # finite-radius | infinite-radius
    per_x: tuple[tuple[Fraction, str], ...]  # bounded | divergent | boundary


@dataclass(frozen=True)
class HadamardSplitReport:
    t: int
    s: int
    n: int
    estimates: tuple[SequenceEstimate, ...]
    note: str

    def to_csv(self) -> str:
        lines = ["t,s,series_id,v_window,root_test_estimate,verdict"]
        for est in self.estimates:
            lines.append(
                "%d,%d,%s,%d-%d,%.12g,%s"
                % (self.t, self.s, est.series_id, est.window[0], est.window[1],
                   est.estimate, est.verdict)
            )
        return "\n".join(lines) + "\n"


def _root_test(coeffs: dict[int, Fraction], window: range) -> float:
    """Sup of c_v^(1/v) over the window via exact logs.

    coeffs holds the window's nonzero terms, all positive.  0 for a window
    of zeros; nan for an empty window (vmax = 0), which has no value to
    estimate from.
    """
    if not window:
        return math.nan
    roots = (math.exp(log_fraction(c, base="e") / v) for v, c in coeffs.items())
    return max(roots, default=0.0)


def _split_radius(series_id: str, m: int, t: int, s: int, n: int) -> Fraction | float:
    """Exact radius of convergence of one split sequence of column (t,s).

    v! A(v,t,s) = M(t,s) C(v,t,s) / 2^v, with M(t,s) = m!/(t! s! (m-t-s)!)
    and C the m-free integers that table._profile_levels yields, one level
    v at a time as rows[t][s]:
        C(v,t,0) = P_t[2v] = (2v)! [x^(2v)] (e^x - 1 - x)^t,
        C(v,t,s) = 2v ((s-1) C(v-1,t,s-2) + t C(v-1,t,s-1) + t C(v-1,t-1,s)).
    The column is zero when t = 0 (only the origin has t = 0) or when
    t + s > m (M = 0), and every radius is then infinite.  Otherwise
    C(v,t,s)^(1/v) -> t^2, so the rate of v! A is t^2/2:

    * lower bound: keeping only the t C(v-1,t,s-1) term s times leads down
      to P_t[2(v-s)], so C(v,t,s) >= (2t)^s (v)_s P_t[2(v-s)], where
      (v)_s = v (v-1) ... (v-s+1); P_t[N] counts the maps of N points onto
      t blocks that leave every block at least 2 points, and a union bound
      over the block left with 0 or 1 point gives, for N >= 2,
      P_t[N] >= t^N - t (t-1)^(N-1) (N + t - 1).
    * upper bound: each step of the recurrence lowers t + s by at least one,
      so a path carries at most t + s factors 2v' <= 2v, its weights sum to
      at most 2t + s per step, and it ends at some P_t'[2w] <= t'^(2w) <= t^(2v):
      C(v,t,s) <= (2v (2t + s))^(t+s) t^(2v) for v >= 1.

    Both bounds are t^(2v) times a factor whose v-th root tends to 1, so
    the radius of sum_v v! A x^v ("factorial") is 2/t^2, and dividing the
    terms by n^(2v) ("factorial-over-n2v") scales it to 2 n^2/t^2.
    "binomial-over-n2v" is zero past v = n: a polynomial, infinite radius.
    """
    if t < 1 or t + s > m or series_id == "binomial-over-n2v":
        return math.inf
    radius = Fraction(2, t * t)
    return radius * n * n if series_id == "factorial-over-n2v" else radius


def hadamard_split_report(
    params: EnsembleParams, t: int, s: int, vmax: int | None = None, x_grid=()
) -> HadamardSplitReport:
    """Exact radii and verdicts for the three candidate splits of one column.

    The sequences are {v! A(v,t,s)}, {v! A(v,t,s)/n^{2v}} and
    {C(n,v) A(v,t,s)/n^{2v}}, with n and m from params; _split_radius
    gives each one's radius from the closed-form column rate, whatever
    vmax is.  Each x in x_grid gets a verdict per sequence: bounded when
    |x| is below the radius, boundary at it, divergent above.  Beside the
    radius, the estimate is an observation only: a root test, the sup of
    |c_v|^(1/v) over the trailing half of v = 1..vmax (vmax defaults to
    n), which approaches the rate 1/radius slowly.  The column is read
    from table._column_counts alone: v! A = B / 2^v.

    Raises:
        ValidationError: vmax outside 0..n, or a negative t or s.
    """
    n = params.n
    vmax = n if vmax is None else vmax
    _check_vmax(params, vmax)
    if t < 0 or s < 0:
        raise ValidationError("t and s must be >= 0, got t=%d s=%d" % (t, s))
    window = range(vmax // 2 + 1, vmax + 1)
    counts = _column_counts(params.m, t, s, vmax)
    column = {v: counts[v] for v in window if counts[v]}
    sequences = {
        "factorial": {v: Fraction(b, 1 << v) for v, b in column.items()},
        "factorial-over-n2v": {v: Fraction(b, n ** (2 * v) << v) for v, b in column.items()},
        "binomial-over-n2v": {
            v: Fraction(binomial(n, v) * b, factorial(v) * n ** (2 * v) << v)
            for v, b in column.items()
        },
    }
    x_grid = [Fraction(x) for x in x_grid]
    estimates = []
    for sid in SERIES_IDS:
        radius = _split_radius(sid, params.m, t, s, n)
        per_x = []
        for x in x_grid:
            if abs(x) < radius:
                per_x.append((x, "bounded"))
            elif abs(x) == radius:
                per_x.append((x, "boundary"))
            else:
                per_x.append((x, "divergent"))
        estimates.append(
            SequenceEstimate(
                series_id=sid,
                window=(window.start, vmax),
                estimate=_root_test(sequences[sid], window),
                radius=radius,
                verdict="infinite-radius" if math.isinf(radius) else "finite-radius",
                per_x=tuple(per_x),
            )
        )
    return HadamardSplitReport(
        t=t, s=s, n=n, estimates=tuple(estimates), note=_SPLIT_NOTE
    )


# ----------------------------------------------------------------------
# Hadamard product by contour quadrature
# ----------------------------------------------------------------------


# the quadrature starts at _START_NODES nodes and doubles up to _MAX_NODES
_START_NODES = 4
_MAX_NODES = 1 << 14


@dataclass(frozen=True)
class ContourResult:
    value: complex
    error_estimate: float
    nodes: int


def hadamard_contour(f: Series, g: Series, z, rho: float, tol: float = 1e-8) -> ContourResult:
    """Evaluate the Hadamard product F(z) = sum a_n b_n z^n by quadrature.

    Trapezoidal quadrature of (1/2 pi i) integral of f(w) g(z/w) dw/w on
    the circle |w| = rho, with f and g evaluated as the truncated
    polynomials they are.  Node count doubles from 4 until two successive
    estimates differ by less than tol, or 2^14 nodes are reached.

    z = 0 short-circuits to a_0 b_0 exactly.

    Raises:
        ValidationError: rho not positive.
        ToleranceNotMetError: node cap reached; carries the best estimate,
            the last successive difference, and the node count.
    """
    if z == 0:
        value = complex(f.coef(0)) * complex(g.coef(0))
        return ContourResult(value=value, error_estimate=0.0, nodes=0)
    if rho <= 0:
        raise ValidationError("rho must be positive")
    zc = complex(z)

    def estimate(nodes: int) -> complex:
        total = 0j
        for k in range(nodes):
            w = rho * cmath.exp(2j * cmath.pi * k / nodes)
            total += f.evaluate(w) * g.evaluate(zc / w)
        return total / nodes

    nodes = _START_NODES
    prev = estimate(nodes)
    while nodes < _MAX_NODES:
        nodes *= 2
        cur = estimate(nodes)
        diff = abs(cur - prev)
        if diff < tol:
            return ContourResult(value=cur, error_estimate=diff, nodes=nodes)
        prev = cur
    raise ToleranceNotMetError(
        "no convergence to %g within %d nodes" % (tol, _MAX_NODES),
        best_value=prev,
        error_estimate=diff,
        nodes=nodes,
    )
