"""Truncated formal power series over exact rationals.

A Series holds coefficients a_0 .. a_N of a power series truncated at order
N.  Every operation tracks the largest truncation order derivable from its
inputs: shifting right or integrating extends the window by one, shifting
left or differentiating shrinks it by one, and binary operations keep the
minimum of the two input orders.  All arithmetic is exact Fraction work;
floating point appears only in evaluate() when given a float or complex
argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import ValidationError

Coeff = Union[int, str, Fraction]

__all__ = ["Series", "poisson_block_series", "geometric_series", "monomial"]


@dataclass(frozen=True)
class Series:
    """Power series truncated at order len(coeffs) - 1."""

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Coeff]):
        vals = tuple(Fraction(c) for c in coeffs)
        if not vals:
            raise ValidationError("a series needs at least the order-0 coefficient")
        object.__setattr__(self, "coeffs", vals)

    @property
    def order(self) -> int:
        """Truncation order N (the largest retained exponent)."""
        return len(self.coeffs) - 1

    def coef(self, n: int) -> Fraction:
        """Coefficient of x^n; n must lie inside the truncation window."""
        if n < 0 or n > self.order:
            raise IndexError("coefficient %d outside truncation order %d" % (n, self.order))
        return self.coeffs[n]

    def truncate(self, order: int) -> "Series":
        """Drop coefficients above `order` (which must not exceed self.order)."""
        if order < 0 or order > self.order:
            raise ValidationError("cannot truncate to order %d from order %d" % (order, self.order))
        return Series(self.coeffs[: order + 1])

    # ------------------------------------------------------------------
    # shifts and calculus
    # ------------------------------------------------------------------

    def shift_right(self) -> "Series":
        """Multiply by x: [0, a_0, .., a_N], order N+1."""
        return Series((Fraction(0),) + self.coeffs)

    def shift_left(self) -> "Series":
        """(A - a_0)/x: [a_1, .., a_N], order N-1.

        Raises:
            ValidationError: on an order-0 series (no coefficient survives).
        """
        if self.order == 0:
            raise ValidationError("shift_left needs order >= 1")
        return Series(self.coeffs[1:])

    def differentiate(self) -> "Series":
        """Termwise derivative, order N-1; the derivative of a constant is
        the zero series of order 0."""
        if self.order == 0:
            return Series((Fraction(0),))
        return Series(tuple((n + 1) * c for n, c in enumerate(self.coeffs[1:])))

    def integrate(self) -> "Series":
        """Termwise antiderivative with zero constant term, order N+1."""
        return Series((Fraction(0),) + tuple(c / (n + 1) for n, c in enumerate(self.coeffs)))

    # ------------------------------------------------------------------
    # pointwise operations
    # ------------------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)))

    def __sub__(self, other: "Series") -> "Series":
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)))

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs))

    def scale(self, lam: Coeff) -> "Series":
        """Argument scaling A(lam*x): coefficient n becomes lam^n * a_n."""
        lam = Fraction(lam)
        out = []
        p = Fraction(1)
        for c in self.coeffs:
            out.append(p * c)
            p *= lam
        return Series(out)

    def difference(self) -> "Series":
        """(1 - x)*A truncated at the same order: b_0 = a_0, b_n = a_n - a_{n-1}."""
        out = [self.coeffs[0]]
        out.extend(self.coeffs[n] - self.coeffs[n - 1] for n in range(1, self.order + 1))
        return Series(out)

    def partial_sum(self) -> "Series":
        """A/(1 - x) truncated at the same order: b_n = a_0 + .. + a_n."""
        out = []
        acc = Fraction(0)
        for c in self.coeffs:
            acc += c
            out.append(acc)
        return Series(out)

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------

    def __mul__(self, other: "Series") -> "Series":
        """Cauchy product, truncated at min(self.order, other.order)."""
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, ai in enumerate(self.coeffs[: n + 1]):
            if not ai:
                continue
            for j in range(0, n + 1 - i):
                bj = other.coeffs[j]
                if bj:
                    out[i + j] += ai * bj
        return Series(out)

    def hadamard(self, other: "Series") -> "Series":
        """Coefficientwise product, truncated at the minimum order."""
        n = min(self.order, other.order)
        return Series(tuple(self.coeffs[i] * other.coeffs[i] for i in range(n + 1)))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def evaluate(self, x):
        """Horner evaluation of the truncated polynomial at x.

        Exact when x is int/Fraction; float or complex x gives a float or
        complex result.
        """
        if isinstance(x, (int, Fraction)):
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = 0j if isinstance(x, complex) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc


def poisson_block_series(t: int, order: int) -> Series:
    """(e^x - 1 - x)^t truncated at `order`, by repeated exact convolution.

    The base factor has coefficient 1/k! for every k >= 2 and nothing below,
    so the t-th power is zero below x^(2t); its x^n coefficient times n!
    counts ordered covers of n labeled elements by t disjoint blocks of size
    at least 2.  t = 0 gives the constant 1 at the requested order.
    """
    if t < 0:
        raise ValidationError("poisson_block_series requires t >= 0, got %r" % (t,))
    if order < 0:
        raise ValidationError("poisson_block_series requires order >= 0, got %r" % (order,))
    base = Series(
        [Fraction(0) if k < 2 else Fraction(1, math.factorial(k)) for k in range(order + 1)]
    )
    out = Series([Fraction(1)] + [Fraction(0)] * order)
    for _ in range(t):
        out = out * base
    return out


def geometric_series(order: int) -> Series:
    """1/(1-x) truncated at `order`: all coefficients 1."""
    if order < 0:
        raise ValidationError("geometric_series requires order >= 0, got %r" % (order,))
    return Series([Fraction(1)] * (order + 1))


def monomial(k: int, order: int) -> Series:
    """x^k truncated at `order` (k must fit in the window)."""
    if k < 0 or k > order:
        raise ValidationError("monomial exponent %d outside order %d" % (k, order))
    return Series([Fraction(1) if i == k else Fraction(0) for i in range(order + 1)])
