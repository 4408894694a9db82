"""Monte Carlo sampling of the ensemble with a peeling decoder.

A sampled code is a multigraph: n degree-2 variables drop their 2n endpoint
draws i.i.d. uniformly on m checks (self-loops and multi-edges allowed and
counted with multiplicity).  Erasing each variable independently with
probability eps and peeling (repeatedly un-erasing any variable that is the
only erased endpoint on some check) either clears everything or stalls on
the maximal stopping set inside the erased set; a block error is a
nonempty residual, equivalently a nonempty 2-core (a cycle) in the erased
multigraph.

The estimator decides a whole batch of trials at once: it places every
trial's erased edges on its own copy of the m checks and peels them all
together with numpy (`_two_core`): each round drops every edge that has a
check of degree 1, gathering the kept and the dropped edges by index
lists, until a round drops nothing.  The edges left are exactly the
trials' peeling residuals, so a trial fails iff one of its edges
survives.  Trials erasing m or more variables fail without peeling,
because a forest on m checks has at most m - 1 edges.  `peel` (per code,
sets and a stack) is the independent per-trial oracle, and
`exhaustive_block_error` decides every (code, erasure) pair of a tiny
instance with it; tiny instances replace the batched peel by a
precomputed table of the same cycle test.

Reproducibility contract (rng id "splitmix64-ctr/v1"): draw number j of
trial i is the splitmix64 output at counter position i*3n + j, so results
are bit-identical for any batch size or split of the trials into ranges.
A trial owns exactly 3n positions: 2n endpoint draws (variable 0 endpoint
0, endpoint 1, variable 1 endpoint 0, ...) followed by n erasure draws
(variable 0 first).  Each 64-bit output is truncated to its top 53 bits u; an
endpoint index is (u * m) >> 53 and variable j is erased iff
u * q < p * 2**53 for eps = p/q.  All of that is integer arithmetic, so
every platform agrees exactly.

No counter array is formed: the state behind position k is
seed + (k + 1) * golden mod 2^64, linear in k, so the state of slot j of
trial i is a row offset seed + i*3n*golden plus a column offset
(j + 1)*golden, one uint64 add that wraps mod 2^64.  The peel and the table
share one draw stage: a chunk's erasure slots as one slot-major matrix,
then only the endpoints of the erased variables the shortcut leaves open.
Only the threshold depends on eps, so one call estimates any number of
epsilons from one draw stage per chunk: the chunk's erasure states are
mixed once, compared against every threshold and freed (`reconcile` draws
each trial once).  A trial's erased sets are then nested, the lower
threshold's inside the higher one's, and so are its peeling residuals, so
a trial that survives one epsilon survives every lower one.  The highest
epsilon is decided on every trial of the chunk, and each lower one only
on the trials that failed at the epsilon above it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GuardError, ValidationError
from .table import EnsembleParams, _check_epsilon, _check_int

__all__ = [
    "RNG_ID",
    "CounterRng",
    "splitmix64_at",
    "SampledCode",
    "sample_code",
    "peel",
    "TrialReplay",
    "replay_trial",
    "wilson_interval",
    "SimResult",
    "estimate_block_error",
    "exhaustive_block_error",
]

RNG_ID = "splitmix64-ctr/v1"

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# numpy uint64 copies; mixing any plain python int into uint64 arrays would
# silently promote to float64
_U = np.uint64
_GOLDEN_U = _U(_GOLDEN)
_MIX1_U = _U(_MIX1)
_MIX2_U = _U(_MIX2)

LUT_GUARD = 1 << 20
EXHAUSTIVE_CODE_GUARD = 10**7
EXHAUSTIVE_MASK_GUARD = 1 << 15

_DRAW_BLOCK = 1 << 14  # 128 KiB: measured 2-3x faster than one pass per step
# A chunk holds at most _BATCH_DRAWS / 3n trials, so that its (n, trials)
# uint64 erasure states stay within 4/3 MiB, and at most _BATCH (binds for
# n <= 10): at n = 3, chunks of 32,768 or 58,254 trials faulted in fresh
# pages every chunk and ran 1.6-1.8x slower, chunks of 8192 ran 9% slower
_BATCH = 1 << 14
_BATCH_DRAWS = 1 << 19
_M_LIMIT = 1 << 32  # the split multiply in _uniform_index_np is exact below this
_LOW26 = _U((1 << 26) - 1)


def splitmix64_at(seed: int, position: int) -> int:
    """The splitmix64 output at an absolute counter position."""
    z = (seed + (position + 1) * _GOLDEN) & _M64
    z ^= z >> 30
    z = (z * _MIX1) & _M64
    z ^= z >> 27
    z = (z * _MIX2) & _M64
    z ^= z >> 31
    return z


def _check_seed(seed) -> int:
    """The seed, which must be an integer in 0..2^64-1."""
    seed = _check_int(seed, "seed")
    if not 0 <= seed <= _M64:
        raise ValidationError("seed must lie in 0..2^64-1, got %d" % seed)
    return seed


def _mix53(z: np.ndarray) -> np.ndarray:
    """Top 53 bits of the splitmix64 output of each state z, in place.

    z must be C-contiguous.  Mixes blocks of _DRAW_BLOCK states, so that
    the passes over a block and their temporaries stay in cache.
    """
    flat = z.reshape(-1)
    for lo in range(0, flat.size, _DRAW_BLOCK):
        b = flat[lo : lo + _DRAW_BLOCK]
        b ^= b >> _U(30)
        b *= _MIX1_U
        b ^= b >> _U(27)
        b *= _MIX2_U
        b ^= b >> _U(31)
        b >>= _U(11)
    return z


@dataclass
class CounterRng:
    """Counter-addressed splitmix64 stream; state is just (seed, position)."""

    seed: int
    position: int = 0

    def __post_init__(self):
        self.seed = _check_seed(self.seed)
        self.position = _check_int(self.position, "position")
        if self.position < 0:
            raise ValidationError("position must be >= 0")

    def next_u53(self) -> int:
        z = splitmix64_at(self.seed, self.position)
        self.position += 1
        return z >> 11

    def uniform_index(self, m: int) -> int:
        return (self.next_u53() * m) >> 53

    def erased(self, p: int, q: int) -> bool:
        return self.next_u53() * q < p << 53


@dataclass(frozen=True)
class SampledCode:
    """One multigraph draw: endpoint 2i and 2i+1 are variable i's checks."""

    params: EnsembleParams
    endpoint_assignment: tuple[int, ...]

    def __post_init__(self):
        n, m = self.params.n, self.params.m
        ep = tuple(int(e) for e in self.endpoint_assignment)
        object.__setattr__(self, "endpoint_assignment", ep)
        if len(ep) != 2 * n:
            raise ValidationError("need exactly 2n endpoints, got %d" % len(ep))
        if any(not 0 <= e < m for e in ep):
            raise ValidationError("endpoint index outside [0, m)")

    def endpoints_of(self, variable: int) -> tuple[int, int]:
        return (
            self.endpoint_assignment[2 * variable],
            self.endpoint_assignment[2 * variable + 1],
        )


def sample_code(params: EnsembleParams, rng: CounterRng) -> SampledCode:
    """Draw one code, consuming exactly 2n rng outputs."""
    m = params.m
    endpoints = tuple(rng.uniform_index(m) for _ in range(2 * params.n))
    return SampledCode(params=params, endpoint_assignment=endpoints)


def peel(code: SampledCode, erased) -> frozenset[int]:
    """Run the peeling decoder; returns the residual erased set.

    A check carrying exactly one erased endpoint resolves that endpoint's
    variable; repeat to fixpoint.  The residual is the unique maximal
    stopping set inside `erased`: every check it touches carries at least
    two residual endpoints (a double edge on one check is already stuck).
    """
    n, m = code.params.n, code.params.m
    alive = set()
    for i in erased:
        i = int(i)
        if not 0 <= i < n:
            raise ValidationError("erased variable %d outside 0..n-1" % i)
        alive.add(i)
    deg = [0] * m
    incident: list[set[int]] = [set() for _ in range(m)]
    for i in alive:
        a, b = code.endpoints_of(i)
        deg[a] += 1
        deg[b] += 1
        incident[a].add(i)
        incident[b].add(i)
    stack = [c for c in range(m) if deg[c] == 1]
    while stack:
        c = stack.pop()
        if deg[c] != 1:
            continue
        i = next(v for v in incident[c] if v in alive)
        alive.discard(i)
        for e in code.endpoints_of(i):
            deg[e] -= 1
            incident[e].discard(i)
            if deg[e] == 1:
                stack.append(e)
    return frozenset(alive)


@dataclass(frozen=True)
class TrialReplay:
    trial: int
    code: SampledCode
    erased: frozenset[int]
    residual: frozenset[int]

    @property
    def failed(self) -> bool:
        return bool(self.residual)


def replay_trial(
    params: EnsembleParams, epsilon, seed: int, trial: int
) -> TrialReplay:
    """Reconstruct one trial of an estimate run, decoding it with `peel`.

    Uses the same counter addressing as the batched estimator, so the
    replayed failure indicator matches the batch bit for bit; the decoding
    path is the independent per-code peeling implementation rather than
    the batched one.  epsilon must lie in [0, 1], as for the estimator.
    """
    eps = _check_epsilon(epsilon)
    n = params.n
    rng = CounterRng(seed, position=3 * n * _check_int(trial, "trial"))
    code = sample_code(params, rng)
    p, q = eps.numerator, eps.denominator
    erased = frozenset(i for i in range(n) if rng.erased(p, q))
    return TrialReplay(
        trial=trial, code=code, erased=erased, residual=peel(code, erased)
    )


# ----------------------------------------------------------------------
# batched estimation
# ----------------------------------------------------------------------


def _build_lut(params: EnsembleParams) -> np.ndarray:
    """Failure flag for every (code, erasure mask) pair, mask in low bits.

    Erases the variables one at a time, for all codes and masks at once:
    label[c, mask, x] names the component of check x in code c's erased
    multigraph, and erasing variable b closes a cycle iff its two checks
    already share a label (union-find by relabelling).
    """
    n, m = params.n, params.m
    codes = m ** (2 * n)
    c = np.arange(codes)
    # slot k of code c is its base-m digit k, the first slot most significant
    slot = [(c // m ** (2 * n - 1 - k) % m)[:, None, None] for k in range(2 * n)]
    label = np.broadcast_to(np.arange(m, dtype=np.min_scalar_type(m)), (codes, 1, m))
    fails = np.zeros((codes, 1), dtype=bool)
    for b in range(n):
        la = np.take_along_axis(label, slot[2 * b], axis=2)
        lb = np.take_along_axis(label, slot[2 * b + 1], axis=2)
        # masks with bit b set follow the 2^b masks without it
        fails = np.concatenate([fails, fails | (la == lb)[:, :, 0]], axis=1)
        label = np.concatenate([label, np.where(label == la, lb, label)], axis=1)
    return fails.reshape(-1)


def _uniform_index_np(u: np.ndarray, m: int) -> np.ndarray:
    """(u * m) >> 53 for u < 2^53 and m < 2^32, in place in u; returns u.

    u * m = (uh * 2^26 + ul) * m with uh = u >> 26 < 2^27 and ul < 2^26;
    both partial products and their sum stay below 2^60, so no step leaves
    uint64, and the low part is the one temporary.  For m <= 2^11, u * m
    itself stays below 2^64.
    """
    mu = _U(m)
    if m <= 1 << 11:
        u *= mu
        u >>= _U(53)
        return u
    low = u & _LOW26
    low *= mu
    low >>= _U(26)
    u >>= _U(26)
    u *= mu
    u += low
    u >>= _U(27)
    return u


def _erased_np(u: np.ndarray, p: int, q: int) -> np.ndarray:
    """u * q < p * 2^53, as u < ceil(p * 2^53 / q) (u is an integer)."""
    return u < _U(-(-(p << 53) // q))


def _offsets(seed: int, start: int, count: int, n: int):
    """Row and column offsets of the splitmix64 states of a chunk.

    The state at counter position k is seed + (k + 1) * golden mod 2^64,
    so slot j of trial i has state rowz[i] + colz[j], with
    rowz[i] = seed + i * 3n * golden and colz[j] = (j + 1) * golden.
    """
    per = 3 * n
    rowz = np.arange(count, dtype=np.uint64)
    rowz *= _U(per * _GOLDEN & _M64)
    rowz += _U((seed + start * per * _GOLDEN) & _M64)
    colz = np.arange(1, per + 1, dtype=np.uint64)
    colz *= _GOLDEN_U
    return rowz, colz


def _chunk_failures(
    seed: int,
    start: int,
    count: int,
    params: EnsembleParams,
    pqs: list[tuple[int, int]],
    lut: np.ndarray | None,
) -> list[int]:
    """Failures among trials start .. start+count-1, one count per (p, q) in pqs.

    pqs must be nonempty and run from the highest epsilon down.  The
    erasure states are mixed once and compared against every threshold.
    The first matrix is decided on every trial, and each later one only on
    the trials that failed at the threshold before it: a lower threshold
    erases a subset of the same variables, and the residual inside a
    subset is a subset of the residual, so every trial that survived above
    survives below.
    """
    n = params.n
    rowz, colz = _offsets(seed, start, count, n)
    # erasure draws, slot-major: erased[j, i] is variable j of trial i
    z = _mix53(np.add(colz[2 * n :, None], rowz))
    erased = [_erased_np(z, p, q) for p, q in pqs]
    del z
    # popped, so that each matrix is freed once decided, or once the columns
    # of its open trials are taken
    failed = _decided_failures(erased.pop(0), rowz, colz, params, lut)
    counts = [int(np.count_nonzero(failed))]
    trials = None  # the trials `failed` flags; None while that is all of them
    while erased:
        trials = np.flatnonzero(failed) if trials is None else trials.compress(failed)
        failed = _decided_failures(
            erased.pop(0).take(trials, axis=1), rowz.take(trials), colz, params, lut
        )
        counts.append(int(np.count_nonzero(failed)))
    return counts


def _decided_failures(erased, rowz, colz, params, lut) -> np.ndarray:
    """Failure flags of the trials whose row offsets are `rowz`.

    `erased` is their (n, rowz.size) erasure matrix, which is consumed.
    """
    n, m = params.n, params.m
    count = rowz.size
    # a forest on m checks has at most m - 1 edges
    failed = erased.sum(axis=0, dtype=np.min_scalar_type(n)) >= m
    erased &= ~failed
    # draw only the endpoints of the erased variables left undecided
    rows = np.flatnonzero(erased)
    del erased
    var = rows // count
    rows -= var * count
    ends = np.empty((2, rows.size), dtype=np.uint64)
    np.take(rowz, rows, out=ends[0])
    ends[0] += colz[0 : 2 * n : 2][var]
    np.add(ends[0], _GOLDEN_U, out=ends[1])
    if lut is None:
        del var
    ends = _uniform_index_np(_mix53(ends), m).view(np.int64)
    if lut is not None:
        # a trial's table index sums (a*m + b) * (m^2)^(n-1-j) << n and 1 << j
        # over its erased variables j (unerased ones read as digits 0, which
        # no flag depends on); sums below LUT_GUARD are exact in float64
        mm = m * m
        weight = [
            (d * mm ** (n - 1 - j) << n) + (1 << j) for j in range(n) for d in range(mm)
        ]
        ends[0] *= m
        ends[0] += ends[1]
        var *= mm
        var += ends[0]
        del ends
        idx = np.bincount(rows, np.take(np.array(weight, dtype=float), var), count)
        failed |= lut.take(idx.astype(np.intp))
        return failed
    # checks of trial `row` renumbered to row*m .. row*m + m-1
    rows *= m
    ends += rows
    del rows
    # a self-loop adds 2 to its check's degree, so it is never peeled
    degree = np.bincount(ends.reshape(-1), minlength=count * m)
    a, _ = _two_core(degree, *ends)
    failed[a // m] = True
    return failed


def _two_core(degree: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The edges (a[k], b[k]) of the 2-core; peels `degree` in place.

    degree[c] counts the endpoints of live edges on check c.  Each round
    drops every edge with a check of degree 1 and stops when a round drops
    nothing.  Rounds gather by index lists (`flatnonzero`, then `take`),
    which measured faster than compressing a and b by boolean masks.
    """
    while a.size:
        keep = degree.take(a) > 1
        keep &= degree.take(b) > 1
        dead = np.flatnonzero(~keep)
        if not dead.size:
            break
        np.subtract.at(degree, a.take(dead), 1)
        np.subtract.at(degree, b.take(dead), 1)
        # an index list takes 8 bytes an edge; holding one at a time keeps
        # the round below the peak of the chunk's erasure draws
        del dead
        live = np.flatnonzero(keep)
        del keep
        a, b = a.take(live), b.take(live)
    return a, b


def _range_failures(seed, lo, hi, params, pqs, lut) -> list[int]:
    """Failures among trials lo .. hi-1, one count per (p, q) in pqs."""
    per_chunk = min(_BATCH, max(1, _BATCH_DRAWS // (3 * params.n)))
    # every chunk takes the thresholds from the highest epsilon down
    order = sorted(range(len(pqs)), key=lambda k: Fraction(*pqs[k]), reverse=True)
    ranked = [pqs[k] for k in order]
    totals = [0] * len(pqs)
    for start in range(lo, hi, per_chunk):
        chunk = _chunk_failures(seed, start, min(per_chunk, hi - start), params, ranked, lut)
        totals = [a + b for a, b in zip(totals, chunk)]
    counts = [0] * len(pqs)
    for k, total in zip(order, totals):
        counts[k] = total
    return counts


_Z95 = 1.959963984540054


def wilson_interval(failures: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval; always contains failures/trials."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if not 0 <= failures <= trials:
        raise ValidationError("failures outside 0..trials")
    p = failures / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    # at the boundaries the score equation has an exact root the float
    # arithmetic misses by one ulp
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return (lo, hi)


@dataclass(frozen=True)
class SimResult:
    params: EnsembleParams
    epsilon: Fraction
    trials: int
    seed: int
    failures: int
    p_hat: float
    ci95: tuple[float, float]
    rng: str = RNG_ID

    def to_json_dict(self) -> dict:
        eps = self.epsilon
        return {
            "format": "cpsim/1",
            "n": self.params.n,
            "r": str(self.params.r),
            "m": self.params.m,
            "epsilon": "%d/%d" % (eps.numerator, eps.denominator),
            "trials": self.trials,
            "seed": self.seed,
            "rng": self.rng,
            "failures": self.failures,
            "p_hat": self.p_hat,
            "ci95": [self.ci95[0], self.ci95[1]],
        }


def estimate_block_error(
    params: EnsembleParams,
    epsilon,
    trials: int,
    seed: int,
) -> SimResult:
    """Monte Carlo estimate of the block-error probability.

    Per trial: sample a code, erase variables i.i.d. with probability
    epsilon, fail iff the erased multigraph has a cycle (= nonempty
    peeling residual).  The failure count is fully determined by (seed,
    params, epsilon, trials): trial i draws from (seed, i) alone.

    Unlike the analytic query, epsilon = 1 is a perfectly good simulation
    input here.
    """
    return _estimate_block_errors(params, [epsilon], trials, seed)[0]


def _estimate_block_errors(
    params: EnsembleParams,
    epsilons,
    trials: int,
    seed: int,
) -> list[SimResult]:
    """`estimate_block_error` at each epsilon, every trial drawn once for all.

    Trial i's draws do not depend on epsilon, only the erasure threshold
    does, so result k equals estimate_block_error(params, epsilons[k],
    trials, seed).
    """
    eps_list = [_check_epsilon(e) for e in epsilons]
    trials = _check_int(trials, "trials")
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    seed = _check_seed(seed)
    n, m = params.n, params.m
    if m >= _M_LIMIT:
        raise ValidationError("m must be below 2^32, got %d" % m)
    # the factor 2^n alone exceeds the guard for n > 20; testing that first
    # spares computing m^(2n), a 1.7-million-bit integer at n = 10^5
    tiny = n <= 20 and m ** (2 * n) << n <= LUT_GUARD
    lut = _build_lut(params) if tiny else None
    pqs = [(eps.numerator, eps.denominator) for eps in eps_list]
    counts = _range_failures(seed, 0, trials, params, pqs, lut)
    return [
        SimResult(
            params=params,
            epsilon=eps,
            trials=trials,
            seed=seed,
            failures=failures,
            p_hat=failures / trials,
            ci95=wilson_interval(failures, trials),
        )
        for eps, failures in zip(eps_list, counts)
    ]


def exhaustive_block_error(params: EnsembleParams, epsilon) -> Fraction:
    """Exact failure probability by enumerating codes and erasure patterns.

    Averages the failure indicator over all m^(2n) equiprobable codes and
    all 2^n erasure masks with their epsilon-weights, deciding each (code,
    mask) pair with `peel`.  Guarded: it is a tiny-instance oracle, not a
    production path.

    Raises:
        GuardError: m^(2n) > 10^7 or 2^n > 2^15.
    """
    eps = _check_epsilon(epsilon)
    n, m = params.n, params.m
    n_codes = m ** (2 * n)
    if n_codes > EXHAUSTIVE_CODE_GUARD:
        raise GuardError("m^(2n) = %d exceeds %d" % (n_codes, EXHAUSTIVE_CODE_GUARD))
    if 1 << n > EXHAUSTIVE_MASK_GUARD:
        raise GuardError("2^n exceeds %d" % (EXHAUSTIVE_MASK_GUARD,))
    if eps == 0:
        return Fraction(0)
    masks = [
        ([i for i in range(n) if mask >> i & 1]) for mask in range(1 << n)
    ]
    # fails[k]: (code, mask) pairs that erase k variables and fail to peel
    fails = [0] * (n + 1)
    for endpoints in itertools.product(range(m), repeat=2 * n):
        code = SampledCode(params=params, endpoint_assignment=endpoints)
        for erased in masks:
            if peel(code, erased):
                fails[len(erased)] += 1
    total = sum((c * eps**k * (1 - eps) ** (n - k) for k, c in enumerate(fails)), Fraction(0))
    return total / n_codes
