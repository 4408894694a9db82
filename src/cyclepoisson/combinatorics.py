"""Exact combinatorial counts and numeric helpers on huge integers.

Everything here is exact integer or rational arithmetic except the two
floating-point outputs: the factorial approximation and the logarithm
helpers, which are documented to at least 12 significant digits.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from operator import add, mul

from .errors import ValidationError

__all__ = [
    "factorial",
    "double_factorial_odd",
    "binomial",
    "stirling_factorial",
    "stirling_relative_error",
    "block_partition_count",
    "block_partition_table",
    "log10_int",
    "log10_fraction",
    "log_fraction",
    "log_ratio",
]

# Digits of the leading prefix used by the exact-log path.  25 digits keep the
# truncation error of the prefix below 1e-24, far under float rounding.
_LOG_PREFIX_DIGITS = 25


def factorial(n: int) -> int:
    """n! as an exact integer.

    Args:
        n: nonnegative integer.

    Raises:
        ValidationError: if n is negative.
    """
    if n < 0:
        raise ValidationError("factorial requires n >= 0, got %r" % (n,))
    return math.factorial(n)


def double_factorial_odd(v: int) -> int:
    """(2v-1)!! = 1 * 3 * 5 * ... * (2v-1), with v=0 giving the empty product 1.

    Computed by direct product so the identity (2v)! = (2v-1)!! * 2^v * v!
    can be tested against an independent code path.
    """
    if v < 0:
        raise ValidationError("double_factorial_odd requires v >= 0, got %r" % (v,))
    out = 1
    for j in range(1, 2 * v, 2):
        out *= j
    return out


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k is outside 0..n."""
    if n < 0:
        raise ValidationError("binomial requires n >= 0, got %r" % (n,))
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def stirling_factorial(n: int) -> float:
    """Factorial approximation sqrt((2n + 1/3) * pi) * (n/e)^n.

    Evaluated directly in floating point; overflows float64 for n >= 171
    (so does n! itself).  For large-n accuracy statements use
    stirling_relative_error, which works in log space.

    Raises:
        ValidationError: if n < 1 (the formula is not claimed at n = 0).
        OverflowError: if the value exceeds float range.
    """
    if n < 1:
        raise ValidationError("stirling_factorial requires n >= 1, got %r" % (n,))
    return math.sqrt((2 * n + 1.0 / 3.0) * math.pi) * (n / math.e) ** n


def stirling_relative_error(n: int) -> float:
    """|stirling_factorial(n) / n! - 1| computed without overflow.

    The formula's natural log is 0.5*log((2n+1/3)*pi) + n*(log n - 1); the
    exact factorial's log comes from the digit-count path, so the comparison
    stays valid far past float range.
    """
    if n < 1:
        raise ValidationError("stirling_relative_error requires n >= 1, got %r" % (n,))
    log_formula = 0.5 * math.log((2 * n + 1.0 / 3.0) * math.pi) + n * (math.log(n) - 1.0)
    log_exact = log10_int(math.factorial(n)) * math.log(10.0)
    return abs(math.expm1(log_formula - log_exact))


def block_partition_table(blocks: int, elements: int, min_block: int) -> list[list[int]]:
    """P[t][n] = block_partition_count(n, t, min_block) for t <= blocks, n <= elements.

    The rows _block_partition_rows has reached at n = elements, with the
    rows it has not started yet as zeros.  Exact integers, zero for
    n < t * min_block.
    """
    if elements < 0 or blocks < 0 or min_block < 0:
        raise ValidationError(
            "block partition arguments must be nonnegative, got elements=%r blocks=%r "
            "min_block=%r" % (elements, blocks, min_block)
        )
    for rows in islice(_block_partition_rows(blocks, min_block), elements + 1):
        pass
    return rows + [[0] * (elements + 1) for _ in range(blocks + 1 - len(rows))]


def _block_partition_rows(blocks: int, min_block: int):
    """Yield the rows P[t][0..n] for t <= min(blocks, n // min_block), for n = 0, 1, 2, ... in turn.

    Built bottom-up by choosing the first block: an ordered t-tuple is a
    first block of j >= min_block items, binom(n, j) ways, followed by a
    (t-1)-tuple covering the other n - j, so
    P[t][n] = sum_{j >= min_block} binom(n, j) * P[t-1][n-j],
    the binomial convolution that multiplies EGFs.  With min_block = 2,
    P[t][n] = n! * [x^n] (e^x - 1 - x)^t.  P[t][n] = 0 for n < t * min_block,
    so row t starts at n = t * min_block (every t <= blocks at n = 0 when
    min_block = 0).  The same list of rows is yielded each time, extended
    in place by one column and by the rows that start, so the work and
    memory follow the columns drawn, not blocks.  Arguments are
    nonnegative integers.
    """
    rows = [[1]]
    binoms = [1]
    for n in count():
        if n:
            # binom(n, j) for 0 <= j <= n from row n - 1, by Pascal's rule
            binoms = [1, *map(add, binoms, binoms[1:]), 1]
            rows[0].append(0)
        # one slice serves every t: map stops at the shorter tail
        low = binoms[min_block:]
        for t in range(1, min(blocks, n // min_block) + 1 if min_block else blocks + 1):
            if t == len(rows):
                rows.append([0] * n)
            # sum over min_block <= j <= top of binom(n, j) * P[t-1][n-j];
            # with min_block = 0 the j = 0 term reads P[t-1][n], set one step earlier
            top = n - (t - 1) * min_block
            tail = rows[t - 1][n - top : n - min_block + 1]
            rows[t].append(sum(map(mul, low, reversed(tail))))
        yield rows


@lru_cache(maxsize=None)
def block_partition_count(elements: int, blocks: int, min_block: int) -> int:
    """Ordered tuples of disjoint blocks covering a labeled set.

    Counts the ways to split `elements` labeled items into an ordered tuple of
    `blocks` pairwise-disjoint, jointly-exhaustive subsets, each of size at
    least `min_block`: the corner of block_partition_table; memoized per
    argument triple.  Each new triple builds the table up to its corner,
    so a sweep over many arguments should read one table instead.

    This is the independent oracle for coefficient extraction from the
    (e^x - 1 - x)^t family: the count equals (2v)! times the x^(2v)
    coefficient of that series when min_block = 2.
    """
    return block_partition_table(blocks, elements, min_block)[blocks][elements]


def log10_int(n: int) -> float:
    """log10 of a positive integer of any size.

    Uses the exact decimal digit count plus a float log10 of the leading
    25-digit prefix, so the result is accurate to ~1e-14 absolute even for
    integers with hundreds of digits (never converts n itself to float).
    """
    if n <= 0:
        raise ValidationError("log10_int requires n > 0, got %r" % (n,))
    try:
        digits = str(n)
    except ValueError:  # more digits than the interpreter's int-to-str limit
        return _log10_long(n)
    d = len(digits)
    if d <= _LOG_PREFIX_DIGITS:
        return math.log10(n)
    prefix = int(digits[:_LOG_PREFIX_DIGITS])
    return math.log10(prefix) + (d - _LOG_PREFIX_DIGITS)


def _log10_long(n: int) -> float:
    """log10_int(n) for n of 25 digits or more without str(n), in integers.

    The same digit count d, from bit_length and one comparison, and the
    same 25-digit prefix n // 10^(d-25) as the str() path, so the same
    float.
    """
    d = int((n.bit_length() - 1) * math.log10(2)) + 1  # d is this or one more
    if n >= 10**d:
        d += 1
    return math.log10(n // 10 ** (d - _LOG_PREFIX_DIGITS)) + (d - _LOG_PREFIX_DIGITS)


def log10_fraction(q: Fraction) -> float:
    """log10 of a positive rational, exact-integer path on both sides."""
    q = Fraction(q)
    if q <= 0:
        raise ValidationError("log10_fraction requires a positive value, got %r" % (q,))
    return log10_int(q.numerator) - log10_int(q.denominator)


def log_fraction(q: Fraction, base: int | str = 10) -> float:
    """Logarithm of a positive rational in base 10 or base e."""
    l10 = log10_fraction(q)
    if base == 10:
        return l10
    if base in ("e", math.e):
        return l10 * math.log(10.0)
    raise ValidationError("log base must be 10 or 'e', got %r" % (base,))


def log_ratio(num: int, den: int) -> float:
    """log10 of num/den for positive integers.

    The digit-count path on each side, with no Fraction built: for num/den
    in lowest terms this is exactly log_fraction(Fraction(num, den)).
    """
    return log10_int(num) - log10_int(den)
