"""Sampling, peeling, and block-error estimation.

The exhaustive enumerator is the oracle for the Monte Carlo path.  The
batched 2-core peel, the per-code peeling decoder and the union-find
cycle test are three independent implementations of the same failure
event, and `replay_trial` checks the batch trial by trial.
"""

import functools
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclepoisson import simulator
from cyclepoisson.errors import GuardError, ValidationError
from cyclepoisson.simulator import (
    LUT_GUARD,
    RNG_ID,
    CounterRng,
    SampledCode,
    _build_lut,
    _chunk_failures,
    _erased_np,
    _erasure_fails,
    _mix53,
    _offsets,
    _range_failures,
    _uniform_index_np,
    estimate_block_error,
    exhaustive_block_error,
    peel,
    replay_trial,
    sample_code,
    splitmix64_at,
    wilson_interval,
)
from cyclepoisson.table import EnsembleParams


def params_for(n, m):
    # r = 1 - m/n gives exactly m checks
    return EnsembleParams(n=n, r=Fraction(n - m, n))


P11 = params_for(1, 1)
P22 = params_for(2, 2)
P33 = params_for(3, 3)


# ----------------------------------------------------------------------
# rng stream
# ----------------------------------------------------------------------


def test_splitmix64_reference_vectors():
    # first outputs of the canonical implementation at seed 0
    assert splitmix64_at(0, 0) == 0xE220A8397B1DCDAF
    assert splitmix64_at(0, 1) == 0x6E789E6AA1B965F4
    assert splitmix64_at(0, 2) == 0x06C45D188009454F


def test_counter_addressing_is_stateless():
    # position k of seed s equals output k of the sequential stream
    rng = CounterRng(seed=99)
    seq = [rng.next_u53() for _ in range(10)]
    assert rng.position == 10
    assert seq == [splitmix64_at(99, k) >> 11 for k in range(10)]
    # jumping straight to a position gives the same draw
    late = CounterRng(seed=99, position=7)
    assert late.next_u53() == seq[7]


def _offset_draws(seed, start, count, n):
    """(count, 3n) top-53-bit draws from the chunk's row and column offsets."""
    rowz, colz = _offsets(seed, start, count, n)
    return _mix53(rowz[:, None] + colz)


def test_offset_states_match_scalar_stream():
    # slot j of trial i is counter position i*3n + j; near 2^50 trials the
    # row offset i*3n*golden wraps mod 2^64 many times over
    for seed in (42, (1 << 64) - 1):
        for start in (5, (1 << 50) - 2):
            u = _offset_draws(seed, start, count=3, n=3)
            rng = CounterRng(seed, position=start * 9)
            for row in range(3):
                manual = [rng.next_u53() for _ in range(9)]
                assert [int(x) for x in u[row]] == manual
                assert manual == [
                    splitmix64_at(seed, (start + row) * 9 + j) >> 11 for j in range(9)
                ]


def test_uniform_index_m1_and_range():
    rng = CounterRng(7)
    assert all(rng.uniform_index(1) == 0 for _ in range(50))
    rng = CounterRng(7)
    draws = [rng.uniform_index(6) for _ in range(1000)]
    assert set(draws) <= set(range(6))
    assert len(set(draws)) == 6


def test_endpoint_frequencies_near_uniform():
    m = 5
    total = 100_000
    rng = CounterRng(20260816)
    counts = [0] * m
    for _ in range(total):
        counts[rng.uniform_index(m)] += 1
    expect = total / m
    sigma = math.sqrt(total * (1 / m) * (1 - 1 / m))
    for c in counts:
        assert abs(c - expect) < 4 * sigma


def test_erasure_rate_matches_epsilon():
    p, q = 1, 3
    total = 100_000
    rng = CounterRng(31337)
    hits = sum(rng.erased(p, q) for _ in range(total))
    sigma = math.sqrt(total * (p / q) * (1 - p / q))
    assert abs(hits - total * p / q) < 4 * sigma


def test_erasure_draw_extremes():
    rng = CounterRng(5)
    assert not any(rng.erased(0, 1) for _ in range(100))
    rng = CounterRng(5)
    assert all(rng.erased(1, 1) for _ in range(100))


# ----------------------------------------------------------------------
# code sampling
# ----------------------------------------------------------------------


def test_sample_code_consumes_2n_draws():
    params = params_for(4, 3)
    rng = CounterRng(11)
    code = sample_code(params, rng)
    assert rng.position == 8
    assert len(code.endpoint_assignment) == 8
    assert all(0 <= e < 3 for e in code.endpoint_assignment)


def test_sample_code_deterministic():
    params = params_for(5, 4)
    a = sample_code(params, CounterRng(123))
    b = sample_code(params, CounterRng(123))
    assert a.endpoint_assignment == b.endpoint_assignment


def test_sampled_code_validation():
    with pytest.raises(ValidationError):
        SampledCode(params=P22, endpoint_assignment=(0, 1, 0))
    with pytest.raises(ValidationError):
        SampledCode(params=P22, endpoint_assignment=(0, 1, 0, 2))


# ----------------------------------------------------------------------
# peeling decoder
# ----------------------------------------------------------------------


def make_code(n, m, pairs):
    flat = tuple(e for pair in pairs for e in pair)
    return SampledCode(params=params_for(n, m), endpoint_assignment=flat)


def test_peel_empty_and_tree_cases():
    # variables 0..2 form a path; variable 3 stays unerased throughout
    code = make_code(4, 4, [(0, 1), (1, 2), (2, 3), (0, 0)])
    assert peel(code, []) == frozenset()
    assert peel(code, [0, 1, 2]) == frozenset()
    assert peel(code, [1]) == frozenset()


def test_peel_self_loop_sticks():
    code = make_code(3, 3, [(1, 1), (0, 2), (0, 2)])
    assert peel(code, [0]) == frozenset({0})
    assert peel(code, [1]) == frozenset()
    assert peel(code, [0, 1]) == frozenset({0})


def test_peel_double_edge_sticks():
    # two parallel variables between checks 0 and 1, plus a pendant
    code = make_code(3, 3, [(0, 1), (1, 0), (1, 2)])
    assert peel(code, [0, 1]) == frozenset({0, 1})
    assert peel(code, [0, 1, 2]) == frozenset({0, 1})
    assert peel(code, [0, 2]) == frozenset()


def test_peel_rejects_bad_variable():
    code = make_code(2, 2, [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        peel(code, [2])


def test_peel_residual_is_stopping_set():
    # post: residual checks all carry >= 2 residual endpoints, and the
    # residual is itself a peeling fixpoint
    rng = random.Random(404)
    n, m = 7, 5
    for _ in range(200):
        pairs = [(rng.randrange(m), rng.randrange(m)) for _ in range(n)]
        code = make_code(n, m, pairs)
        erased = [i for i in range(n) if rng.random() < 0.6]
        residual = peel(code, erased)
        assert residual <= set(erased)
        touched = [0] * m
        for i in residual:
            a, b = code.endpoints_of(i)
            touched[a] += 1
            touched[b] += 1
        assert all(t == 0 or t >= 2 for t in touched)
        assert peel(code, residual) == residual


def test_peel_agrees_with_cycle_test():
    # the residual is nonempty exactly when the erased multigraph has a
    # cycle; union-find and peeling are independent implementations
    rng = random.Random(902)
    n, m = 6, 5
    for _ in range(400):
        flat = [rng.randrange(m) for _ in range(2 * n)]
        code = SampledCode(params=params_for(n, m), endpoint_assignment=tuple(flat))
        erased = [i for i in range(n) if rng.random() < 0.5]
        stuck = bool(peel(code, erased))
        assert stuck == _erasure_fails(flat, erased, m)


# ----------------------------------------------------------------------
# wilson interval
# ----------------------------------------------------------------------


def test_wilson_published_value():
    lo, hi = wilson_interval(1, 10)
    assert abs(lo - 0.0179) < 1e-3
    assert abs(hi - 0.4042) < 1e-3


def test_wilson_boundaries_exact():
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_wilson_contains_point_estimate():
    rng = random.Random(3)
    for _ in range(100):
        trials = rng.randrange(1, 5000)
        failures = rng.randrange(trials + 1)
        lo, hi = wilson_interval(failures, trials)
        assert lo <= failures / trials <= hi
        assert 0.0 <= lo <= hi <= 1.0


def test_wilson_validation():
    with pytest.raises(ValidationError):
        wilson_interval(1, 0)
    with pytest.raises(ValidationError):
        wilson_interval(5, 4)


# ----------------------------------------------------------------------
# exhaustive oracle
# ----------------------------------------------------------------------


def test_exhaustive_single_check_closures():
    # n=m=1: the lone variable is always a self-loop, so P = eps; with
    # m=1 and n=2 every erased variable is a self-loop: P = 1-(1-eps)^2
    assert exhaustive_block_error(P11, Fraction(2, 7)) == Fraction(2, 7)
    eps = Fraction(2, 7)
    assert exhaustive_block_error(params_for(2, 1), eps) == 1 - (1 - eps) ** 2


def test_exhaustive_two_variables_two_checks():
    # with m=2 the full-erasure pattern always fails (either a self-loop
    # or two parallel edges) and a single erased variable fails iff
    # self-looped, which has probability 1/2; the total collapses to eps
    eps = Fraction(3, 11)
    assert exhaustive_block_error(P22, eps) == eps
    assert exhaustive_block_error(P22, Fraction(1, 2)) == Fraction(1, 2)


def test_exhaustive_full_erasure_is_certain_failure():
    # n variables on n checks leave no room for a forest
    assert exhaustive_block_error(P11, 1) == 1
    assert exhaustive_block_error(P22, 1) == 1
    assert exhaustive_block_error(P33, 1) == 1


def test_exhaustive_zero_epsilon():
    assert exhaustive_block_error(P33, 0) == 0


def test_exhaustive_frozen_value():
    assert exhaustive_block_error(P33, Fraction(1, 3)) == Fraction(83, 243)


def test_exhaustive_guards():
    with pytest.raises(GuardError):
        exhaustive_block_error(params_for(12, 2), Fraction(1, 2))
    with pytest.raises(GuardError):
        exhaustive_block_error(params_for(16, 1), Fraction(1, 2))


# ----------------------------------------------------------------------
# monte carlo estimator
# ----------------------------------------------------------------------


def test_estimate_frozen_regression():
    res = estimate_block_error(P22, Fraction(1, 2), trials=1000, seed=42)
    assert res.failures == 499
    assert res.p_hat == 0.499
    assert res.rng == RNG_ID


def test_estimate_thread_count_invariance():
    kwargs = dict(epsilon=Fraction(1, 2), trials=1000, seed=42)
    base = estimate_block_error(P22, **kwargs)
    for threads in (2, 3, 7):
        assert estimate_block_error(P22, threads=threads, **kwargs).failures == 499
    assert base.ci95[0] < base.p_hat < base.ci95[1]


def test_estimate_matches_peeling_replay():
    # the batched cycle test and the per-trial peeling decoder must agree
    # trial by trial; the replay also pins the draw addressing
    params = P33
    eps = Fraction(2, 5)
    res = estimate_block_error(params, eps, trials=300, seed=17)
    replayed = [replay_trial(params, eps, 17, i) for i in range(300)]
    assert sum(t.failed for t in replayed) == res.failures
    for t in replayed:
        assert t.erased <= set(range(3))
        assert t.residual <= t.erased


def test_estimate_epsilon_extremes():
    assert estimate_block_error(P22, 0, trials=500, seed=9).failures == 0
    for params in (P11, P22, P33):
        res = estimate_block_error(params, 1, trials=500, seed=9)
        assert res.failures == 500
        assert res.p_hat == 1.0
        assert res.ci95[1] == 1.0


def test_estimate_within_3_sigma_of_exhaustive():
    cases = [
        (P22, Fraction(1, 2), 200_000, 7),
        (P33, Fraction(1, 3), 200_000, 23),
    ]
    for params, eps, trials, seed in cases:
        exact = float(exhaustive_block_error(params, eps))
        res = estimate_block_error(params, eps, trials=trials, seed=seed)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(res.p_hat - exact) < 3 * sigma


def test_estimate_ci_shrinks_with_trials():
    a = estimate_block_error(P33, Fraction(1, 3), trials=20_000, seed=4)
    b = estimate_block_error(P33, Fraction(1, 3), trials=40_000, seed=4)
    width = lambda r: r.ci95[1] - r.ci95[0]
    assert width(b) < width(a)
    # roughly the 1/sqrt(2) law
    assert 0.6 < width(b) / width(a) < 0.8


def test_estimate_wide_rationals_use_exact_path():
    # a q with u * q past 2^64; results must stay deterministic and agree
    # with the scalar replay
    params = P22
    eps = Fraction(1500, 2999)
    res = estimate_block_error(params, eps, trials=200, seed=11)
    res2 = estimate_block_error(params, eps, trials=200, seed=11, threads=4)
    assert res.failures == res2.failures
    assert res.failures == sum(
        replay_trial(params, eps, 11, i).failed for i in range(200)
    )


def test_estimate_large_m_endpoints_exact():
    # an m with u * m past 2^64; check endpoint decoding against the
    # scalar rng directly
    m = 2500
    params = EnsembleParams.from_checks(m)
    u_end = _offset_draws(77, start=0, count=3, n=m)[:, : 2 * m]
    mapped = (u_end.astype(object) * m) >> 53
    assert _uniform_index_np(u_end, m).tolist() == mapped.tolist()
    rng = CounterRng(77)
    for row in range(3):
        expect = [rng.uniform_index(m) for _ in range(2 * m)]
        assert [int(x) for x in mapped[row]] == expect
        rng.position += m  # skip the erasure slots of this trial
    res = estimate_block_error(params, Fraction(9, 10), trials=60, seed=77)
    assert res.failures == sum(
        replay_trial(params, Fraction(9, 10), 77, i).failed for i in range(60)
    )


def test_estimate_very_wide_rationals_match_replay():
    # q >= 2^32, including the 2^55 of Fraction(0.1); P22 reads the
    # lookup table, params_for(6, 4) peels
    for params in (P22, params_for(6, 4)):
        for eps in (Fraction(0.1), Fraction(2**32 + 1, 2**33 + 3)):
            res = estimate_block_error(params, eps, trials=300, seed=5)
            assert res.failures == sum(
                replay_trial(params, eps, 5, i).failed for i in range(300)
            )


@settings(max_examples=200, deadline=None)
@given(
    u=st.lists(
        st.one_of(st.integers(0, (1 << 53) - 1), st.sampled_from([0, (1 << 53) - 1])),
        min_size=1,
        max_size=20,
    ),
    m=st.one_of(
        st.integers(1, (1 << 32) - 1), st.sampled_from([1, 1 << 11, (1 << 11) + 1, (1 << 32) - 1])
    ),
    q=st.integers(1, 1 << 64),
    data=st.data(),
)
def test_uint64_draw_maps_match_big_ints(u, m, q, data):
    p = data.draw(st.integers(0, q))
    arr = np.array(u, dtype=np.uint64)
    assert _uniform_index_np(arr, m).tolist() == [(x * m) >> 53 for x in u]
    assert _erased_np(arr, p, q).tolist() == [x * q < p << 53 for x in u]


def test_estimate_rejects_m_beyond_split_multiply():
    with pytest.raises(ValidationError):
        estimate_block_error(params_for(1 << 32, 1 << 32), 1, trials=1, seed=1)


_EPSILONS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1)]),
    st.fractions(min_value=0, max_value=1, max_denominator=50),
    st.just(Fraction(0.3)),
)


@st.composite
def _small_codes(draw):
    m = draw(st.integers(1, 6))
    return params_for(draw(st.integers(m, 12)), m)


@settings(max_examples=60, deadline=None)
@given(
    params=_small_codes(),
    eps=_EPSILONS,
    seed=st.integers(0, (1 << 64) - 1),
    lo=st.integers(0, 10**6),
    count=st.integers(1, 60),
)
def test_batched_peel_matches_per_trial_peel(params, eps, seed, lo, count):
    # n >= m, so erasing m or more variables (the shortcut that skips the
    # peel) happens, always at eps = 1
    p, q = eps.numerator, eps.denominator
    batched = _range_failures(seed, lo, lo + count, params, p, q, None)
    replayed = sum(
        replay_trial(params, eps, seed, i).failed for i in range(lo, lo + count)
    )
    assert batched == replayed


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 40),
    extra=st.integers(0, 40),
    eps=_EPSILONS,
    seed=st.integers(0, (1 << 64) - 1),
    lo=st.integers(0, 10**9),
    cuts=st.lists(st.integers(0, 400), max_size=6),
)
def test_range_failures_split_invariance(m, extra, eps, seed, lo, cuts):
    # the counter rng contract: any sharding of a trial range adds up
    params = params_for(m + extra, m)
    p, q = eps.numerator, eps.denominator
    bounds = [lo] + sorted(lo + c for c in cuts) + [lo + 400]
    pieces = sum(
        _range_failures(seed, a, b, params, p, q, None)
        for a, b in zip(bounds, bounds[1:])
    )
    assert pieces == _range_failures(seed, lo, lo + 400, params, p, q, None)


# every (n, m) whose estimate reads the lookup table
_LUT_PAIRS = [
    (n, m) for n in range(1, 21) for m in range(1, n + 1) if m ** (2 * n) << n <= LUT_GUARD
]


@functools.lru_cache(maxsize=None)
def _lut_for(n, m):
    return _build_lut(params_for(n, m))


def test_chunk_size_is_invisible(monkeypatch):
    params = params_for(30, 20)
    eps = Fraction(1, 4)
    whole = _range_failures(5, 3, 403, params, 1, 4, None)
    assert whole == sum(replay_trial(params, eps, 5, i).failed for i in range(3, 403))
    # the lookup table over several chunks
    lut = _lut_for(3, 3)
    lut_whole = _range_failures(13, 0, 40000, P33, 2, 5, lut)
    assert lut_whole == _range_failures(13, 0, 40000, P33, 2, 5, None)
    monkeypatch.setattr(simulator, "_BATCH_DRAWS", 3 * 30 * 17)  # 17 trials a chunk
    assert _range_failures(5, 3, 403, params, 1, 4, None) == whole
    assert _range_failures(13, 0, 40000, P33, 2, 5, lut) == lut_whole


def test_build_lut_matches_union_find_loop():
    # the vectorised relabelling against the per-pair union-find oracle, on
    # every table small enough to enumerate quickly
    for n, m in _LUT_PAIRS:
        if m ** (2 * n) << n > 1 << 13:
            continue
        expect = [
            _erasure_fails(endpoints, [i for i in range(n) if mask >> i & 1], m)
            for endpoints in itertools.product(range(m), repeat=2 * n)
            for mask in range(1 << n)
        ]
        assert _lut_for(n, m).tolist() == expect, (n, m)


@settings(max_examples=20, deadline=None)
@given(
    draws=st.lists(
        st.tuples(_EPSILONS, st.integers(0, (1 << 64) - 1), st.integers(0, 10**12), st.integers(1, 20)),
        min_size=len(_LUT_PAIRS),
        max_size=len(_LUT_PAIRS),
    )
)
def test_lut_and_direct_paths_agree(draws):
    # trial starts up to 10^12 wrap the row offset i*3n*golden mod 2^64
    for (n, m), (eps, seed, lo, count) in zip(_LUT_PAIRS, draws):
        params = params_for(n, m)
        p, q = eps.numerator, eps.denominator
        with_lut = _range_failures(seed, lo, lo + count, params, p, q, _lut_for(n, m))
        without = _range_failures(seed, lo, lo + count, params, p, q, None)
        replayed = sum(
            replay_trial(params, eps, seed, i).failed for i in range(lo, lo + count)
        )
        assert with_lut == without == replayed, (n, m)


def _chunk_peak_mib(*args):
    _chunk_failures(*args)  # numpy's first-call allocations are not the chunk's
    tracemalloc.start()
    try:
        _chunk_failures(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_chunk_peak_memory():
    # a stray full-size temporary shows here before it shows in peak RSS.
    # Peel path, n = 200, m = 100, eps = 1/5, 4000 trials: the (200, 4000)
    # uint64 erasure states are 6.1 MiB, and what lives beside them is under
    # 1 MiB; one more (2, k) endpoint temporary (2.4 MiB) would pass 8 MiB.
    assert _chunk_peak_mib(7, 0, 4000, params_for(200, 100), 1, 5, None) < 8
    # LUT path, n = 3, 65536 trials: the row offsets, one slot's draws, the
    # index and a temporary are 512 KiB each; a (trials, 3n) draw matrix
    # alone is 4.5 MiB
    assert _chunk_peak_mib(7, 0, 1 << 16, P33, 1, 5, _lut_for(3, 3)) < 3


def test_estimate_validation():
    with pytest.raises(ValidationError):
        estimate_block_error(P22, Fraction(3, 2), trials=10, seed=1)
    with pytest.raises(ValidationError):
        estimate_block_error(P22, Fraction(1, 2), trials=0, seed=1)
    with pytest.raises(ValidationError):
        estimate_block_error(P22, Fraction(1, 2), trials=10, seed=1, threads=0)


def test_result_json_shape():
    res = estimate_block_error(P22, Fraction(1, 2), trials=1000, seed=42)
    doc = res.to_json_dict()
    assert doc == {
        "format": "cpsim/1",
        "n": 2,
        "r": "0",
        "m": 2,
        "epsilon": "1/2",
        "trials": 1000,
        "seed": 42,
        "rng": "splitmix64-ctr/v1",
        "failures": 499,
        "p_hat": 0.499,
        "ci95": [res.ci95[0], res.ci95[1]],
    }
    assert all(isinstance(x, float) for x in doc["ci95"])
