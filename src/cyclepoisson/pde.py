"""Exact polynomial analysis of the table's differential operator.

The three-term recurrence behind the coefficient table translates, index
shift by index shift, into a second-order linear differential operator on
the generating function G(x,y,z) = sum A(v,t,s) x^v y^t z^s:

    z dG/dz = x z { F + D d/dy + E' d/dz + A d2/dy2 + C d2/dz2
                    + 2B d2/dydz } G.

This module builds the six coefficient polynomials exactly, classifies the
(y,z) plane by the sign of the discriminant B^2 - AC, reproduces the
y = alpha*z case split, and checks the operator against a filled table by
applying it to the truncated G and listing every monomial of the residual
that lies in the interior window.  All of this algebra runs on one sparse
exact polynomial type, `Poly`, in z, (y, z) or (x, y, z).

The interior window has a closed form.  A table filled to depth vmax holds
every A(v,t,s) with v <= vmax, and the residual's monomials (v,t,s) all
have s >= 1 and v <= vmax + 1.  The bracket reads only level v - 1, always
inside the table; z dG/dz reads A(v,t,s) itself, which is unknown only at
v = vmax + 1 inside the support t + s <= m.  So (v,t,s) is interior iff
t >= 1 and either v <= vmax or t + s > m; t = 0 is left out because the
origin feeds F*G with nothing on the left side to cancel it.

Two variants of the d2/dy2 slot are carried side by side.  The
classification set (`pde_coefficients`) uses A = y^2 (y - 1), which all of
the region machinery here takes as ground truth.  The operator obtained by
translating the recurrence term by term has A = y^2 (z - 1) instead
(`recurrence_pde_coefficients`); it is the variant that actually
annihilates the table, so the residual check defaults to it and
`residual_reconciliation` runs both and reports the difference.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .table import CoeffTable, EnsembleParams

__all__ = [
    "Poly",
    "Root",
    "PointClassification",
    "RegionMap",
    "AlphaSubstitution",
    "AlphaCase",
    "AuditReport",
    "ResidualReport",
    "pde_coefficients",
    "recurrence_pde_coefficients",
    "discriminant",
    "classify_point",
    "region_map",
    "alpha_substitution",
    "alpha_discriminant",
    "printed_f",
    "printed_expansion",
    "quadratic_roots",
    "alpha_case",
    "expansion_audit",
    "pde_residual",
    "residual_reconciliation",
    "HYPERBOLIC",
    "PARABOLIC",
    "ELLIPTIC",
]

HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"
ELLIPTIC = "elliptic"


def _rational(value) -> Fraction:
    """Coerce an exact coefficient; floats are refused to keep arithmetic exact."""
    if isinstance(value, float):
        raise ValidationError("float coefficients are not exact: %r" % (value,))
    return Fraction(value)


def _label_of_sign(value) -> str:
    if value > 0:
        return HYPERBOLIC
    if value < 0:
        return ELLIPTIC
    return PARABOLIC


# ----------------------------------------------------------------------
# sparse exact polynomials
# ----------------------------------------------------------------------


class Poly:
    """Sparse exact polynomial in a fixed number of variables.

    `terms` maps exponent tuples, one entry per variable, to nonzero
    Fractions.  The arity is part of the value, so the zero polynomial in
    (y, z) is not the zero polynomial in z, and arithmetic between two
    arities raises.  In this module arity 1 is a polynomial in z, arity 2
    in (y, z) and arity 3 in (x, y, z).
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=()):
        clean: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            coeff = _rational(coeff)
            key = tuple(int(e) for e in key)
            if len(key) != arity or min(key, default=0) < 0:
                raise ValidationError(
                    "exponent %r is not %d nonnegative integers" % (key, arity)
                )
            if coeff:
                acc = clean.get(key, 0) + coeff
                if acc:
                    clean[key] = acc
                else:
                    del clean[key]
        self.arity = arity
        self.terms = clean

    @classmethod
    def var(cls, arity: int, axis: int) -> "Poly":
        """The variable number `axis` as a polynomial of the given arity."""
        return cls(arity, {tuple(int(i == axis) for i in range(arity)): 1})

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(key) for key in self.terms), default=-1)

    def coeff(self, *exps: int) -> Fraction:
        return self.terms.get(exps, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def _coerced(self, other):
        if isinstance(other, Poly):
            if other.arity != self.arity:
                raise ValidationError(
                    "cannot combine polynomials of arity %d and %d"
                    % (self.arity, other.arity)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Poly(self.arity, {(0,) * self.arity: other})
        return None

    def __add__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return Poly(self.arity, [*self.terms.items(), *other.terms.items()])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerced(other)
        if other is None:
            return NotImplemented
        return Poly(
            self.arity,
            [
                (tuple(a + b for a, b in zip(k1, k2)), c1 * c2)
                for k1, c1 in self.terms.items()
                for k2, c2 in other.terms.items()
            ],
        )

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if exp < 0:
            raise ValidationError("negative exponent")
        out = Poly(self.arity, {(0,) * self.arity: 1})
        for _ in range(exp):
            out = out * self
        return out

    def scale(self, factor) -> "Poly":
        factor = _rational(factor)
        return Poly(self.arity, {k: c * factor for k, c in self.terms.items()})

    def shift(self, *deltas: int) -> "Poly":
        """Multiply by the monomial with exponents `deltas`."""
        if len(deltas) != self.arity:
            raise ValidationError("shift needs %d exponents" % self.arity)
        return Poly(
            self.arity,
            {
                tuple(e + d for e, d in zip(key, deltas)): c
                for key, c in self.terms.items()
            },
        )

    def evaluate(self, *point):
        """Exact value at `point`, each coordinate read as Fraction(x).

        A float coordinate counts as the exact binary value it holds.
        """
        if len(point) != self.arity:
            raise ValidationError("evaluate needs %d coordinates" % self.arity)
        # over the common denominator lcm(coefficient denominators) *
        # prod(d_i ** top_i) every term is an integer, so the sum is too
        point = [Fraction(x) for x in point]
        tops = [max((key[i] for key in self.terms), default=0) for i in range(self.arity)]
        powers = [
            [x.numerator**e * x.denominator ** (top - e) for e in range(top + 1)]
            for x, top in zip(point, tops)
        ]
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        total = 0
        for key, c in self.terms.items():
            term = c.numerator * (den // c.denominator)
            for row, e in zip(powers, key):
                term *= row[e]
            total += term
        for x, top in zip(point, tops):
            den *= x.denominator**top
        return Fraction(total, den)

    def substitute_y(self, alpha) -> "Poly":
        """Exact substitution y = alpha*z into a (y, z) polynomial, giving one in z."""
        if self.arity != 2:
            raise ValidationError("substitute_y needs a polynomial in (y, z)")
        alpha = _rational(alpha)
        return Poly(1, [((a + b,), c * alpha**a) for (a, b), c in self.terms.items()])

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.arity == other.arity and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return "Poly(%d, %r)" % (self.arity, self.terms)


# ----------------------------------------------------------------------
# operator coefficients and the discriminant
# ----------------------------------------------------------------------


def pde_coefficients(params: EnsembleParams) -> dict[str, Poly]:
    """The classification coefficient set.

    A = y^2 (y-1), B = y(2z^2 - y - z)/2, C = z(z^2 - y),
    D = y(2-k)(2z-1), E' = (2-k)(2z^2 - y), F = (k^2 - 3k + 2) z,
    with k = m + 1 from the parameters.  A, B, C are k-free; the region
    analysis below depends on them alone.
    """
    k = params.k
    y, z = Poly.var(2, 0), Poly.var(2, 1)
    return {
        "A": y**2 * (y - 1),
        "B": y * (2 * z**2 - y - z) * Fraction(1, 2),
        "C": z * (z**2 - y),
        "D": y * (2 * z - 1) * (2 - k),
        "E'": (2 * z**2 - y) * (2 - k),
        "F": z * (k * k - 3 * k + 2),
    }


def recurrence_pde_coefficients(params: EnsembleParams) -> dict[str, Poly]:
    """Coefficient set translated directly from the three-term recurrence.

    Identical to `pde_coefficients` except the second-y-derivative slot,
    which comes out as A = y^2 (z-1).  This is the set whose operator
    annihilates the filled table (see `pde_residual`).
    """
    y, z = Poly.var(2, 0), Poly.var(2, 1)
    out = pde_coefficients(params)
    out["A"] = y**2 * (z - 1)
    return out


@functools.cache
def discriminant() -> Poly:
    """Exact B^2 - AC, a polynomial in (y, z).

    A, B and C do not involve k, so any parameters give the same result;
    it is built once and shared, and callers must not modify it.
    """
    coeffs = pde_coefficients(EnsembleParams.from_checks(1))
    return coeffs["B"] * coeffs["B"] - coeffs["A"] * coeffs["C"]


@dataclass(frozen=True)
class PointClassification:
    y: object
    z: object
    value: object
    label: str


def classify_point(y, z) -> PointClassification:
    """Label a point by the exact sign of B^2 - AC.

    y and z are read as Fraction(y) and Fraction(z) (int, Fraction, str or
    float), so a float point is classified by the exact value it holds.
    """
    y, z = Fraction(y), Fraction(z)
    value = discriminant().evaluate(y, z)
    return PointClassification(y, z, value, _label_of_sign(value))


@dataclass
class RegionMap:
    points: list[PointClassification]
    grid_n: int

    def counts(self) -> dict[str, int]:
        out = {HYPERBOLIC: 0, PARABOLIC: 0, ELLIPTIC: 0}
        for p in self.points:
            out[p.label] += 1
        return out

    def to_csv(self) -> str:
        lines = ["y,z,discriminant,label"]
        for p in self.points:
            lines.append("%s,%s,%s,%s" % (p.y, p.z, p.value, p.label))
        return "\n".join(lines) + "\n"


def region_map(y_range, z_range, grid_n: int) -> RegionMap:
    """Classify an evenly spaced grid_n x grid_n grid of exact rational points.

    Grid points are y_lo + i*(y_hi-y_lo)/(grid_n-1), likewise in z, so the
    range endpoints are always included.  Rows run y-major.
    """
    if grid_n < 2:
        raise ValidationError("grid_n must be >= 2")
    y_lo, y_hi = (Fraction(v) for v in y_range)
    z_lo, z_hi = (Fraction(v) for v in z_range)
    ys = [y_lo + Fraction(i, grid_n - 1) * (y_hi - y_lo) for i in range(grid_n)]
    zs = [z_lo + Fraction(j, grid_n - 1) * (z_hi - z_lo) for j in range(grid_n)]
    points = [classify_point(y, z) for y in ys for z in zs]
    return RegionMap(points=points, grid_n=grid_n)


# ----------------------------------------------------------------------
# the y = alpha*z substitution
# ----------------------------------------------------------------------


def printed_f(alpha) -> Poly:
    """The printed quadratic f(z) = (4-alpha) z^2 - 3(1+alpha) z + 1+alpha+alpha^2.

    Carried verbatim as a claim to audit; the exact counterpart is the
    `exact` field of `alpha_substitution`.
    """
    alpha = _rational(alpha)
    return Poly(1, {(2,): 4 - alpha, (1,): -3 * (1 + alpha), (0,): 1 + alpha + alpha**2})


@dataclass(frozen=True)
class AlphaSubstitution:
    alpha: Fraction
    exact: Poly  # y = alpha*z substituted into 4(B^2 - AC)
    printed: Poly  # alpha^2 z^4 f(z) with the printed f
    printed_f: Poly
    equal: bool


def alpha_substitution(alpha) -> AlphaSubstitution:
    """Substitute y = alpha*z into 4(B^2 - AC), exactly, and compare.

    The exact result is alpha^2 z^4 (4(1-alpha) z^2 + 4 alpha (alpha-1) z
    + (alpha-1)^2), which vanishes identically at alpha = 1.  The printed
    claim alpha^2 z^4 f(z) is computed alongside; `equal` records whether
    the two polynomials agree (they do only where both degenerate, e.g.
    alpha = 0).
    """
    alpha = _rational(alpha)
    exact = (4 * discriminant()).substitute_y(alpha)
    f = printed_f(alpha)
    printed = f.shift(4).scale(alpha**2)
    return AlphaSubstitution(
        alpha=alpha, exact=exact, printed=printed, printed_f=f, equal=exact == printed
    )


def alpha_discriminant(alpha) -> Fraction:
    """Quadratic discriminant of the printed f, via both stated forms.

    Evaluates 9(1+a)^2 - 4(4-a)(1+a+a^2) and (a-1)(4a^2+a+7); the two are
    the same cubic 4a^3 - 3a^2 + 6a - 7 and the call cross-checks them.
    """
    a = _rational(alpha)
    expanded = 9 * (1 + a) ** 2 - 4 * (4 - a) * (1 + a + a * a)
    factored = (a - 1) * (4 * a * a + a + 7)
    if expanded != factored:
        raise ValidationError("discriminant forms disagree at alpha=%s" % (a,))
    return factored


# ----------------------------------------------------------------------
# roots and the case split
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Root:
    """A real root, exact when lo == hi, otherwise a validated interval."""

    lo: Fraction
    hi: Fraction
    multiplicity: int = 1

    @property
    def exact(self) -> Fraction | None:
        return self.lo if self.lo == self.hi else None

    @property
    def midpoint(self) -> float:
        return float((self.lo + self.hi) / 2)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _sqrt_interval(q: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] with lo^2 <= q <= hi^2 and hi - lo < width."""
    lo, hi = Fraction(0), max(Fraction(1), q)
    while hi - lo >= width:
        mid = (lo + hi) / 2
        if mid * mid <= q:
            lo = mid
        else:
            hi = mid
    return lo, hi


ROOT_WIDTH = Fraction(1, 10**10)


def quadratic_roots(poly: Poly) -> list[Root]:
    """Real roots of a polynomial in z of degree <= 2, sorted increasing.

    Exact roots whenever the quadratic discriminant is a rational square
    (and always in the linear and double-root cases); otherwise validated
    rational intervals narrower than ROOT_WIDTH.

    Raises:
        ValidationError: degree above 2, or the zero polynomial (every z
            is a root).
    """
    if poly.degree > 2:
        raise ValidationError("quadratic_roots handles degree <= 2 only")
    if poly.is_zero():
        raise ValidationError("the zero polynomial has no isolated roots")
    a, b, c = poly.coeff(2), poly.coeff(1), poly.coeff(0)
    if a == 0:
        if b == 0:
            return []  # nonzero constant
        r = -c / b
        return [Root(r, r)]
    disc = b * b - 4 * a * c
    if disc < 0:
        return []
    if disc == 0:
        r = -b / (2 * a)
        return [Root(r, r, multiplicity=2)]
    s = _rational_sqrt(disc)
    if s is not None:
        roots = sorted([(-b - s) / (2 * a), (-b + s) / (2 * a)])
        return [Root(r, r) for r in roots]
    lo, hi = _sqrt_interval(disc, ROOT_WIDTH * abs(2 * a))
    pairs = []
    for sign in (-1, 1):
        e1 = (-b + sign * lo) / (2 * a)
        e2 = (-b + sign * hi) / (2 * a)
        pairs.append(Root(min(e1, e2), max(e1, e2)))
    pairs.sort(key=lambda r: r.lo)
    return pairs


@dataclass(frozen=True)
class AlphaCase:
    """One branch of the case split along the ray y = alpha*z.

    `index` runs 0..5: alpha = 0, 0 < alpha < 1, alpha = 1, 1 < alpha < 4,
    alpha = 4, alpha > 4.  `roots` are those of the printed f, and
    `classify` labels a z value by the exact sign of alpha^2 z^4 f(z),
    i.e. against the printed form (the exact substitution is a separate
    comparison, see `alpha_substitution`).
    """

    alpha: Fraction
    index: int
    f: Poly
    roots: tuple[Root, ...]

    def classify(self, z) -> str:
        z = Fraction(z)
        value = self.alpha**2 * z**4 * self.f.evaluate(z)
        return _label_of_sign(value)


def alpha_case(alpha) -> AlphaCase:
    alpha = _rational(alpha)
    if alpha == 0:
        index = 0
    elif alpha < 1:
        index = 1
    elif alpha == 1:
        index = 2
    elif alpha < 4:
        index = 3
    elif alpha == 4:
        index = 4
    else:
        index = 5
    if alpha < 0:
        # negative rays are not part of the stated split; classify still works
        index = -1
    f = printed_f(alpha)
    return AlphaCase(alpha=alpha, index=index, f=f, roots=tuple(quadratic_roots(f)))


# ----------------------------------------------------------------------
# printed-expansion audit
# ----------------------------------------------------------------------


def printed_expansion() -> Poly:
    """The printed expanded form of 4(B^2 - AC), transcribed term by term.

    y^2 (4z^4 - 3z^3 + z^2 + y^2 - yz^3 - 3yz^3 + yz); the two yz^3 terms
    collapse to -4yz^3 when collected.  This polynomial does NOT equal the
    exact expansion y^2 (4z^4 - 4yz^3 - 4yz^2 + 4y^2 z + y^2 + z^2 - 2yz);
    `expansion_audit` measures the disagreement point by point.
    """
    y, z = Poly.var(2, 0), Poly.var(2, 1)
    bracket = (
        4 * z**4
        - 3 * z**3
        + z**2
        + y**2
        - y * z**3
        - 3 * y * z**3
        + y * z
    )
    return y**2 * bracket


def _random_fraction(rng: random.Random, span: int = 120, den: int = 24) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


@dataclass
class AuditReport:
    """Point-by-point comparison of exact vs printed forms."""

    expansion_rows: list[dict]
    alpha_rows: list[dict]

    def summary(self) -> dict:
        def tally(rows):
            eq = sum(1 for r in rows if r["equal"])
            return {"total": len(rows), "equal": eq, "unequal": len(rows) - eq}

        return {
            "expansion": tally(self.expansion_rows),
            "alpha_form": tally(self.alpha_rows),
        }

    def to_csv(self) -> str:
        lines = ["kind,a,b,exact,printed,equal"]
        for r in self.expansion_rows:
            lines.append(
                "expansion,%s,%s,%s,%s,%s"
                % (r["y"], r["z"], r["exact"], r["printed"], r["equal"])
            )
        for r in self.alpha_rows:
            lines.append(
                "alpha-form,%s,%s,%s,%s,%s"
                % (r["alpha"], r["z"], r["exact"], r["printed"], r["equal"])
            )
        return "\n".join(lines) + "\n"


def expansion_audit(n_points: int = 1000, seed: int = 20260816) -> AuditReport:
    """Evaluate exact vs printed forms at random rational points.

    Two comparisons per seed stream: the expanded discriminant claim
    (exact 4(B^2-AC) against `printed_expansion`) and the substituted
    claim (exact substitution against alpha^2 z^4 f(z)).  Disagreement is
    the expected outcome at generic points; the report records it rather
    than asserting it away.  The seed must be >= 0: `random.Random` seeds
    from |seed|, so -5 would quietly rerun seed 5.
    """
    if n_points < 1:
        raise ValidationError("n_points must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0, got %d" % (seed,))
    rng = random.Random(seed)
    exact4 = 4 * discriminant()
    printed = printed_expansion()
    expansion_rows = []
    for _ in range(n_points):
        y = _random_fraction(rng)
        z = _random_fraction(rng)
        ev = exact4.evaluate(y, z)
        pv = printed.evaluate(y, z)
        expansion_rows.append(
            {"y": y, "z": z, "exact": ev, "printed": pv, "equal": ev == pv}
        )
    alpha_rows = []
    for _ in range(n_points):
        a = _random_fraction(rng)
        z = _random_fraction(rng)
        sub = alpha_substitution(a)
        ev = sub.exact.evaluate(z)
        pv = sub.printed.evaluate(z)
        alpha_rows.append(
            {"alpha": a, "z": z, "exact": ev, "printed": pv, "equal": ev == pv}
        )
    return AuditReport(expansion_rows=expansion_rows, alpha_rows=alpha_rows)


# ----------------------------------------------------------------------
# residual check against a filled table
# ----------------------------------------------------------------------


def _operator_terms(coeffs: dict[str, Poly]) -> list[tuple[Poly, int, int]]:
    """Bracket terms as (coefficient polynomial, d/dy order, d/dz order)."""
    return [
        (coeffs["F"], 0, 0),
        (coeffs["D"], 1, 0),
        (coeffs["E'"], 0, 1),
        (coeffs["A"], 2, 0),
        (coeffs["C"], 0, 2),
        (2 * coeffs["B"], 1, 1),
    ]


@dataclass
class ResidualReport:
    operator: str
    vmax: int
    m: int
    residual: Poly
    interior_nonzero: list[tuple[tuple[int, int, int], Fraction]]
    excluded: list[tuple[tuple[int, int, int], Fraction]]

    @property
    def passed(self) -> bool:
        return not self.interior_nonzero

    def to_json_dict(self) -> dict:
        return {
            "operator": self.operator,
            "window": {
                "vmax": self.vmax,
                "m": self.m,
                "interior": "t >= 1 and (v <= vmax or t + s > m)",
            },
            "nonzero_monomials": [
                {"v": v, "t": t, "s": s, "value": str(val)}
                for (v, t, s), val in self.interior_nonzero
            ],
            "excluded_monomials_count": len(self.excluded),
            "excluded_monomials": [
                {"v": v, "t": t, "s": s, "value": str(val)}
                for (v, t, s), val in self.excluded
            ],
            "pass": self.passed,
        }


_OPERATORS = {"recurrence": recurrence_pde_coefficients, "printed": pde_coefficients}


def pde_residual(table: CoeffTable, operator: str = "recurrence") -> ResidualReport:
    """Apply the named operator to G and report the residual.

    `operator` is "recurrence" (`recurrence_pde_coefficients`, the set the
    table satisfies) or "printed" (`pde_coefficients`).  G is every stored
    entry; the residual z dG/dz - x z {bracket} G is formed exactly and its
    nonzero monomials are split into the interior window and the excluded
    edge.  Nonzero interior monomials falsify the operator against the
    table; excluded ones are listed, not judged.

    Every residual monomial (v,t,s) has s >= 1 and 1 <= v <= vmax + 1, and
    the bracket reads only level v - 1 <= vmax, which the table holds in
    full.  The one read that can fall outside the table is the z dG/dz
    entry A(v,t,s) at v = vmax + 1, and it is a known zero exactly when
    (t,s) lies outside the support t + s <= m.  So (v,t,s) is interior iff
    t >= 1 and either v <= vmax or t + s > m.

    Raises:
        ValidationError: an operator name other than the two above.
    """
    if operator not in _OPERATORS:
        raise ValidationError(
            "unknown operator %r; expected one of %s" % (operator, ", ".join(_OPERATORS))
        )
    G = [(v, t, s, c) for (v, t, s), c in table.entries.items()]
    acc = {(v, t, s): c * s for v, t, s, c in G if s}  # z dG/dz
    for poly, p, q in _operator_terms(_OPERATORS[operator](table.params)):
        for v, t, s, c in G:
            # x z y^a z^b d^p/dy^p d^q/dz^q of c y^t z^s
            weight = math.perm(t, p) * math.perm(s, q)
            if not weight:
                continue
            cw = c * weight
            for (a, b), w in poly.terms.items():
                key = (v + 1, t - p + a, s - q + b + 1)
                acc[key] = acc.get(key, 0) - cw * w
    residual = Poly(3, acc)

    m, vmax = table.m, table.vmax
    interior_nonzero = []
    excluded = []
    for key in sorted(residual.terms):
        v, t, s = key
        inside = t >= 1 and (v <= vmax or t + s > m)
        (interior_nonzero if inside else excluded).append((key, residual.terms[key]))
    return ResidualReport(
        operator=operator,
        vmax=vmax,
        m=m,
        residual=residual,
        interior_nonzero=interior_nonzero,
        excluded=excluded,
    )


def residual_reconciliation(table: CoeffTable) -> dict[str, ResidualReport]:
    """Run the residual check under both coefficient sets.

    Returns reports keyed "recurrence" and "printed".  The two differ only
    in the d2/dy2 slot (y^2(z-1) vs y^2(y-1)); on a correctly filled table
    the first passes and the second reports the slot difference, monomial
    by monomial.
    """
    return {name: pde_residual(table, name) for name in _OPERATORS}
