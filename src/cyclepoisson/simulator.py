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
together with numpy, dropping each round every edge that has a check of
degree 1, until a round drops nothing.  A trial fails iff one of its
edges survives.  Trials erasing m or more variables fail without peeling,
because a forest on m checks has at most m - 1 edges.  `peel` (per code,
sets and a stack) and `_erasure_fails` (per code, union-find) are the
independent per-trial oracles; tiny instances read a precomputed table of
the same cycle test instead.

Reproducibility contract (rng id "splitmix64-ctr/v1"): draw number j of
trial i is the splitmix64 output at counter position i*3n + j, so results
are bit-identical for any thread count or batch size.  A trial owns
exactly 3n positions: 2n endpoint draws (variable 0 endpoint 0, endpoint
1, variable 1 endpoint 0, ...) followed by n erasure draws (variable 0
first).  Each 64-bit output is truncated to its top 53 bits u; an
endpoint index is (u * m) >> 53 and variable j is erased iff
u * q < p * 2**53 for eps = p/q.  All of that is integer arithmetic, so
every platform agrees exactly.

No counter array is formed: the state behind position k is
seed + (k + 1) * golden mod 2^64, linear in k, so the state of slot j of
trial i is a row offset seed + i*3n*golden plus a column offset
(j + 1)*golden, one uint64 add that wraps mod 2^64.  The lookup-table path
draws one slot of a chunk at a time; the peeling path draws a chunk's
erasure slots as one slot-major matrix, then only the endpoints of the
erased variables.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import GuardError, ValidationError
from .table import EnsembleParams

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
# A chunk holds at most _BATCH trials, so that one slot's lookup-table
# draws are a single _DRAW_BLOCK and stay in cache, and at most
# _BATCH_DRAWS / 3n, so that its (n, trials) uint64 erasure states stay
# within 4/3 MiB; both measured faster than 4x larger chunks
_BATCH = _DRAW_BLOCK
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
        self.seed = int(self.seed) & _M64
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


def _erasure_fails(endpoints, erased_vars, m: int) -> bool:
    """The per-trial oracle: cycle test on the erased multigraph by union-find.

    Equivalent to a nonempty peeling residual: the residual is the 2-core,
    and a multigraph has a nonempty 2-core iff it contains a cycle (a
    self-loop or multi-edge counts).
    """
    count = len(erased_vars)
    if count == 0:
        return False
    if count == 1:
        i = erased_vars[0]
        return endpoints[2 * i] == endpoints[2 * i + 1]
    parent = list(range(m))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for i in erased_vars:
        ra, rb = find(endpoints[2 * i]), find(endpoints[2 * i + 1])
        if ra == rb:
            return True
        parent[ra] = rb
    return False


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
    the batched one.
    """
    eps = Fraction(epsilon)
    n = params.n
    rng = CounterRng(seed, position=3 * n * trial)
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
    already share a label (union-find by relabelling, as in
    `_erasure_fails`).
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
    """(u * m) >> 53 for u < 2^53 and m < 2^32, without leaving uint64.

    u * m = (uh * 2^26 + ul) * m with uh = u >> 26 < 2^27 and ul < 2^26;
    both partial products and their sum stay below 2^60.  For m <= 2^11,
    u * m itself stays below 2^64.
    """
    mu = _U(m)
    if m <= 1 << 11:
        high = u * mu
        high >>= _U(53)
        return high
    low = u & _LOW26
    low *= mu
    low >>= _U(26)
    high = u >> _U(26)
    high *= mu
    high += low
    high >>= _U(27)
    return high


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
    p: int,
    q: int,
    lut: np.ndarray | None,
) -> int:
    """Number of failures among trials start .. start+count-1."""
    n, m = params.n, params.m
    rowz, colz = _offsets(seed, start, count, n)
    if lut is not None:
        # slot by slot, so that no temporary is larger than one slot's draws
        u = np.empty(count, dtype=np.uint64)
        idx = np.zeros(count, dtype=np.uint64)
        for j in range(2 * n):
            _mix53(np.add(rowz, colz[j], out=u))
            idx *= _U(m)
            idx += _uniform_index_np(u, m)
        idx <<= _U(n)
        for j in range(n):
            _mix53(np.add(rowz, colz[2 * n + j], out=u))
            idx |= _erased_np(u, p, q).astype(np.uint64) << _U(j)
        return int(lut[idx].sum())
    # erasure draws, slot-major: erased[j, i] is variable j of trial i
    z = np.add(colz[2 * n :, None], rowz)
    erased = _erased_np(_mix53(z), p, q)
    del z
    # a forest on m checks has at most m - 1 edges
    failed = erased.sum(axis=0) >= m
    erased[:, failed] = False
    # draw only the endpoints of the edges left to peel, checks of trial
    # `row` renumbered to row*m .. row*m + m-1
    var, rows = np.divmod(np.flatnonzero(erased), count)
    del erased
    ends = np.empty((2, rows.size), dtype=np.uint64)
    np.take(rowz, rows, out=ends[0])
    ends[0] += colz[0 : 2 * n : 2][var]
    np.add(ends[0], _GOLDEN_U, out=ends[1])
    del var
    ends = _uniform_index_np(_mix53(ends), m).view(np.int64)
    rows *= m
    ends += rows
    del rows
    # a self-loop adds 2 to its check's degree, so it is never peeled
    degree = np.bincount(ends.reshape(-1), minlength=count * m)
    a, b = ends
    while a.size:
        keep = (degree[a] > 1) & (degree[b] > 1)
        if keep.all():
            break
        drop = ~keep
        np.subtract.at(degree, a[drop], 1)
        np.subtract.at(degree, b[drop], 1)
        a, b = a[keep], b[keep]
    failed[a // m] = True
    return int(np.count_nonzero(failed))


def _range_failures(seed, lo, hi, params, p, q, lut) -> int:
    failures = 0
    start = lo
    per_chunk = min(_BATCH, max(1, _BATCH_DRAWS // (3 * params.n)))
    while start < hi:
        count = min(per_chunk, hi - start)
        failures += _chunk_failures(seed, start, count, params, p, q, lut)
        start += count
    return failures


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
    threads: int = 1,
) -> SimResult:
    """Monte Carlo estimate of the block-error probability.

    Per trial: sample a code, erase variables i.i.d. with probability
    epsilon, fail iff the erased multigraph has a cycle (= nonempty
    peeling residual).  The failure count is fully determined by (seed,
    params, epsilon, trials), regardless of `threads`: trials are sharded
    into contiguous ranges whose counts just add up.

    Unlike the analytic query, epsilon = 1 is a perfectly good simulation
    input here.
    """
    eps = Fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValidationError("epsilon must lie in [0, 1], got %s" % (eps,))
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    seed = int(seed) & _M64
    n, m = params.n, params.m
    if m >= _M_LIMIT:
        raise ValidationError("m must be below 2^32, got %d" % m)
    p, q = eps.numerator, eps.denominator
    lut = None
    # the factor 2^n alone exceeds the guard for n > 20; testing that first
    # spares computing m^(2n), a 1.7-million-bit integer at n = 10^5
    if n <= 20 and m ** (2 * n) << n <= LUT_GUARD:
        lut = _build_lut(params)
    if threads == 1:
        failures = _range_failures(seed, 0, trials, params, p, q, lut)
    else:
        per = trials // threads
        extra = trials % threads
        ranges = []
        lo = 0
        for i in range(threads):
            hi = lo + per + (1 if i < extra else 0)
            if hi > lo:
                ranges.append((lo, hi))
            lo = hi
        with ThreadPoolExecutor(max_workers=threads) as pool:
            failures = sum(
                pool.map(
                    lambda pair: _range_failures(
                        seed, pair[0], pair[1], params, p, q, lut
                    ),
                    ranges,
                )
            )
    p_hat = failures / trials
    return SimResult(
        params=params,
        epsilon=eps,
        trials=trials,
        seed=seed,
        failures=failures,
        p_hat=p_hat,
        ci95=wilson_interval(failures, trials),
    )


def exhaustive_block_error(params: EnsembleParams, epsilon) -> Fraction:
    """Exact failure probability by enumerating codes and erasure patterns.

    Averages the failure indicator over all m^(2n) equiprobable codes and
    all 2^n erasure masks with their epsilon-weights.  Guarded: it is a
    tiny-instance oracle, not a production path.

    Raises:
        GuardError: m^(2n) > 10^7 or 2^n > 2^15.
    """
    eps = Fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValidationError("epsilon must lie in [0, 1], got %s" % (eps,))
    n, m = params.n, params.m
    n_codes = m ** (2 * n)
    if n_codes > EXHAUSTIVE_CODE_GUARD:
        raise GuardError("m^(2n) = %d exceeds %d" % (n_codes, EXHAUSTIVE_CODE_GUARD))
    if 1 << n > EXHAUSTIVE_MASK_GUARD:
        raise GuardError("2^n exceeds %d" % (EXHAUSTIVE_MASK_GUARD,))
    if eps == 0:
        return Fraction(0)
    weights = [eps**k * (1 - eps) ** (n - k) for k in range(n + 1)]
    masks = [
        ([i for i in range(n) if mask >> i & 1]) for mask in range(1 << n)
    ]
    total = Fraction(0)
    for endpoints in itertools.product(range(m), repeat=2 * n):
        for erased in masks:
            if _erasure_fails(endpoints, erased, m):
                total += weights[len(erased)]
    return total / n_codes
