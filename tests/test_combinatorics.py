import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cyclepoisson.combinatorics import (
    _block_partition_rows,
    _log10_long,
    binomial,
    block_partition_count,
    block_partition_table,
    double_factorial_odd,
    factorial,
    log10_fraction,
    log10_int,
    log_fraction,
    stirling_factorial,
    stirling_relative_error,
)
from cyclepoisson.errors import ValidationError


def pascal_binomial(n, k):
    # Independent oracle: Pascal's triangle, no math.comb involved.
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def test_factorial_frozen_values():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(20) == 2432902008176640000
    with pytest.raises(ValueError):
        factorial(-1)


def test_double_factorial_odd_values():
    assert double_factorial_odd(0) == 1
    assert double_factorial_odd(1) == 1
    assert double_factorial_odd(3) == 15
    assert double_factorial_odd(5) == 945
    # identity with an independent path: (2v)! / (2^v v!)
    for v in range(0, 12):
        assert double_factorial_odd(v) == factorial(2 * v) // (2**v * factorial(v))


def test_binomial_values_and_pascal_oracle():
    assert binomial(5, 2) == 10
    assert binomial(10, 0) == 1
    assert binomial(10, 11) == 0
    assert binomial(100, 50) == pascal_binomial(100, 50)
    for n in range(0, 12):
        for k in range(0, n + 2):
            assert binomial(n, k) == pascal_binomial(n, k)


def test_block_partition_count_frozen_values():
    # Frozen oracle values: 6 ordered 2-block covers of 4 elements,
    # 50 of 6 elements, and no 3-block cover of 5 elements with blocks >= 2.
    assert block_partition_count(4, 2, 2) == 6
    assert block_partition_count(6, 2, 2) == 50
    assert block_partition_count(5, 3, 2) == 0
    assert block_partition_count(0, 0, 2) == 1
    assert block_partition_count(3, 1, 2) == 1
    assert block_partition_count(2, 2, 2) == 0


def test_block_partition_count_brute_force():
    # Exhaustive assignment oracle: every map of elements to block labels
    # whose fibers all have size >= min_block.
    def brute(elements, blocks, min_block):
        if blocks == 0:
            return 1 if elements == 0 else 0
        count = 0
        for assign in range(blocks**elements):
            digits = []
            a = assign
            for _ in range(elements):
                digits.append(a % blocks)
                a //= blocks
            sizes = [digits.count(b) for b in range(blocks)]
            if all(s >= min_block for s in sizes):
                count += 1
        return count

    # every entry of the first-block table, not only its corner
    for min_block in (0, 1, 2, 3):
        table = block_partition_table(3, 6, min_block)
        for elements in range(0, 7):
            for blocks in range(0, 4):
                expect = brute(elements, blocks, min_block)
                assert table[blocks][elements] == expect
                assert block_partition_count(elements, blocks, min_block) == expect


def test_block_partition_table_deep_closed_forms():
    # with blocks of size >= 2: one block covers any n >= 2 one way, and
    # n! [x^n] (e^x - 1 - x)^2 = 2^n - 2 - 2n for n >= 3; 2848 elements is
    # what verify_table reads for an m = 2, vmax = 1424 table
    table = block_partition_table(2, 2848, 2)
    assert table[1][:2] == [0, 0] and set(table[1][2:]) == {1}
    assert table[2][:3] == [0, 0, 0]
    assert all(table[2][n] == 2**n - 2 - 2 * n for n in range(3, 2849))


def test_block_partition_rows_follow_the_columns_drawn():
    # with blocks far past what n reaches, the rows at n are those that
    # have started, t <= n // min_block, and agree with the full table
    for min_block in (1, 2, 3):
        for n, rows in enumerate(islice(_block_partition_rows(10**12, min_block), 13)):
            table = block_partition_table(n // min_block, n, min_block)
            assert rows == table, (min_block, n)


def test_block_partition_count_rejects_negative_arguments():
    for args in [(-1, 1, 2), (4, -1, 2), (4, 2, -1)]:
        with pytest.raises(ValidationError):
            block_partition_count(*args)


def test_stirling_factorial_small_values():
    assert abs(stirling_factorial(1) - 1.0) < 0.01
    approx = stirling_factorial(10)
    assert abs(approx - 3628800.0) / 3628800.0 < 1e-3
    assert abs(approx - 3.6286e6) / 3.6286e6 < 1e-3
    with pytest.raises(ValueError):
        stirling_factorial(0)


def test_stirling_relative_error_matches_direct_ratio():
    for n in (1, 5, 10, 50, 120):
        direct = abs(stirling_factorial(n) / float(factorial(n)) - 1.0)
        assert abs(stirling_relative_error(n) - direct) < 1e-9


def test_stirling_relative_error_large_n_no_overflow():
    # 200! is far past float range; the log-space path must still work.
    err = stirling_relative_error(200)
    assert 0.0 < err < 1e-3


def test_log10_int_exact_digits():
    assert abs(log10_int(1000) - 3.0) < 1e-14
    assert abs(log10_int(2) - math.log10(2)) < 1e-15
    # A 400-digit integer: 10^399 exactly.
    assert abs(log10_int(10**399) - 399.0) < 1e-12
    n = factorial(200)
    # Known: log10(200!) = 374.896...
    assert abs(log10_int(n) - 374.8968886) < 1e-6
    with pytest.raises(ValueError):
        log10_int(0)


_LONG_INTS = st.one_of(
    # random integers of 26 to 4300 digits (4300 is the default int-to-str limit)
    st.integers(26, 4300).flatmap(lambda d: st.integers(10 ** (d - 1), 10**d - 1)),
    # powers of ten and their neighbours, where the digit count changes
    st.builds(lambda k, step: 10**k + step, st.integers(25, 4299), st.integers(-1, 1)),
)


@given(_LONG_INTS)
# bit_length puts 2^153 - 1 at 46 digits, not 47, and the 26-digit prefix
# that would leave gives another float
@example(2**153 - 1)
def test_log10_int_branches_agree_below_the_str_limit(n):
    # the branch taken past the interpreter's int-to-str limit gives the
    # str() path's float bit for bit wherever both can run
    assert _log10_long(n) == log10_int(n)


def test_log10_int_past_the_str_limit():
    assert log10_int(10**5000) == 5000.0
    assert math.isfinite(stirling_relative_error(2000))


def test_log10_fraction_and_bases():
    assert abs(log10_fraction(Fraction(1, 2)) - math.log10(0.5)) < 1e-14
    q = Fraction(factorial(150), factorial(100))
    direct = sum(math.log10(i) for i in range(101, 151))
    assert abs(log10_fraction(q) - direct) < 1e-10
    assert abs(log_fraction(Fraction(1, 2), base="e") - math.log(0.5)) < 1e-13
    with pytest.raises(ValueError):
        log_fraction(Fraction(1, 2), base=2)
    with pytest.raises(ValueError):
        log10_fraction(Fraction(0))


def test_log10_random_rationals_vs_float():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.randint(1, 10**12)
        q = rng.randint(1, 10**12)
        assert abs(log10_fraction(Fraction(p, q)) - (math.log10(p) - math.log10(q))) < 1e-12
