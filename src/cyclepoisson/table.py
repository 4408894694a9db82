"""Constellation coefficient tables for the cycle Poisson ensemble.

The ensemble has n degree-2 variable nodes whose 2n edge endpoints land
uniformly and independently on m = (1-r)n check nodes (a multigraph; both
endpoints of a variable may hit the same check).  The table A(v, t, s) is a
three-index family of exact rationals over 0 <= v <= vmax, 1 <= t <= m,
0 <= s <= m-t (plus a pluggable v = 0 origin):

* the s = 0 boundary layer has the closed form
  A(v, t, 0) = binom(m, t) * (2v-1)!! * [x^(2v)] (e^x - 1 - x)^t,
  computed in the integer form binom(m, t) * P_t[2v] / (v! * 2^v) with
  P_t[n] = n! * [x^n] (e^x - 1 - x)^t,
* every s >= 1 entry is defined by the three-term recurrence
  s * A(v,t,s) = A(v-1,t,s-2)*(u+2)*(u+1)   (when s >= 2)
              + A(v-1,t,s-1)*(u+1)*t
              + A(v-1,t-1,s)*(u+1)*s,      u = m-t-s,
  divided exactly by s.

The recurrence factors.  With the multinomial M(t,s) = m!/(t! s! u!),
  M(t,s-2)*(u+2)*(u+1) = M(t,s)*s*(s-1),
  M(t,s-1)*(u+1)       = M(t,s)*s,
  M(t-1,s)*(u+1)       = M(t,s)*t,
so A(v,t,s) = M(t,s) * C(v,t,s) / (v! * 2^v) where the integers C do not
depend on m:
  C(v,t,0) = P_t[2v],
  C(v,t,s) = 2v * ((s-1)*C(v-1,t,s-2) + t*C(v-1,t,s-1) + t*C(v-1,t-1,s)).
fill_table evaluates this form.  verify_table checks the unfactored
recurrence, and the s = 0 layer against an integer oracle that shares no
code with the fill: the powers of the n!-scaled EGF e^x - 1 - x as a
binomial convolution, P_t[n] = sum_{j>=2} binom(n,j) * P_{t-1}[n-j]
(choose the first block).

Entries outside the support are zero.  v! * 2^v * A(v, t, s) counts the
cyclic assignments with profile (t, s): endpoint assignments of v variables
whose graph on the checks contains a cycle (a self-loop or a repeated pair
counts as one), with exactly t checks of degree >= 2 and s checks of degree
exactly one.  This holds by exhaustive enumeration for every m, v <= 4; a
derivation from the recurrence is still open.  At s = 0 these are all the
stopping sets on t checks, since a graph with no check of degree one
always has a cycle.  The all-assignment census of
brute_force_profile_counts also counts forests, so profile_reconciliation
reports the forest profiles as mismatches.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .combinatorics import binomial, factorial, log_fraction
from .errors import GuardError, TableFormatError, ValidationError

__all__ = [
    "EnsembleParams",
    "BaseConfig",
    "CoeffTable",
    "constellation_count",
    "stopping_set_count",
    "boundary_coefficient",
    "brute_force_profile_counts",
    "fill_table",
    "verify_table",
    "profile_reconciliation",
    "growth_exponent",
    "boundary_layer",
    "growth_profile",
    "save_table",
    "load_table",
]

BRUTE_FORCE_GUARD = 10**8

_HEADER_MAGIC = "CPTABLE 2"
_HEADER_RE = re.compile(r"^m=(0|[1-9][0-9]*) vmax=(0|[1-9][0-9]*) base=([a-z-]+)$")
_ROW_RE = re.compile(
    r"^(0|[1-9][0-9]*) (0|[1-9][0-9]*) (0|[1-9][0-9]*) (-?(?:0|[1-9][0-9]*))/([1-9][0-9]*)$"
)
_TRAILER_RE = re.compile(rb"end sha256=([0-9a-f]{64})\n")


@dataclass(frozen=True)
class EnsembleParams:
    """Cycle Poisson ensemble parameters.

    n variable nodes of degree 2, design rate r, m = (1-r)n check nodes,
    and the shifted check count k = m + 1 used by the differential operator.
    """

    n: int
    r: Fraction
    m: int = field(init=False)
    k: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.n < 1:
            raise ValidationError("n must be >= 1, got %r" % (self.n,))
        if not 0 <= self.r < 1:
            raise ValidationError("rate must satisfy 0 <= r < 1, got %s" % (self.r,))
        m_exact = (1 - self.r) * self.n
        if m_exact.denominator != 1:
            raise ValidationError("(1-r)*n must be an integer, got %s" % (m_exact,))
        object.__setattr__(self, "m", int(m_exact))
        object.__setattr__(self, "k", int(m_exact) + 1)

    @classmethod
    def from_checks(cls, m: int) -> "EnsembleParams":
        """Parameters for table-only work: the table depends on m alone."""
        return cls(n=m, r=Fraction(0))


class BaseConfig(enum.Enum):
    """Pluggable v=0 / t=0 convention for the recurrence origin."""

    UNIT_ORIGIN = "unit-origin"  # A(0,0,0) = 1, everything else at v=0 zero
    EMPTY = "empty"  # the whole v=0 plane zero

    def level_zero(self) -> dict[tuple[int, int, int], Fraction]:
        if self is BaseConfig.UNIT_ORIGIN:
            return {(0, 0, 0): Fraction(1)}
        return {}

    @classmethod
    def from_label(cls, label: str) -> "BaseConfig":
        for cfg in cls:
            if cfg.value == label:
                return cfg
        raise ValidationError("unknown base config %r" % (label,))


class CoeffTable:
    """Sparse exact-rational table of A(v, t, s) coefficients.

    Absent entries are zero.  Equality is on (m, vmax, base, entries): two
    parameterizations with the same check count carry identical tables.
    """

    def __init__(
        self,
        params: EnsembleParams,
        vmax: int,
        base: BaseConfig,
        entries: dict[tuple[int, int, int], Fraction],
    ):
        self.params = params
        self.vmax = vmax
        self.base = base
        self.entries = entries

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def is_partial(self) -> bool:
        """Always False: load_table returns a complete table or raises.

        Kept read-only for callers that still check it, such as the
        exact_build workload in perfbench/workloads.py.
        """
        return False

    def value(self, v: int, t: int, s: int) -> Fraction:
        return self.entries.get((v, t, s), Fraction(0))

    def level_sum(self, v: int) -> Fraction:
        """Sum of A(v, t, s) over t >= 1 and all s."""
        return self.level_sums().get(v, Fraction(0))

    def level_sums(self) -> dict[int, Fraction]:
        """level_sum(v) for every level v with an entry at t >= 1, in one pass.

        Entries are added as integers over w = v! * 2^v, which every
        denominator of a filled table divides, and one Fraction is built
        per level.  An entry whose denominator does not divide w is added
        as a Fraction, so the sums stay exact on any table.
        """
        weights: dict[int, int] = {}
        sums: dict[int, int | Fraction] = {}
        for (v, t, _s), val in self.entries.items():
            if t < 1:
                continue
            w = weights.get(v)
            if w is None:
                w = weights[v] = factorial(v) * 2**v
            sums[v] = sums.get(v, 0) + _scaled(val, w)
        return {v: Fraction(b, weights[v]) for v, b in sums.items()}

    def __eq__(self, other):
        if not isinstance(other, CoeffTable):
            return NotImplemented
        return (
            self.m == other.m
            and self.vmax == other.vmax
            and self.base == other.base
            and self.entries == other.entries
        )

    __hash__ = None

    def __repr__(self):
        return "CoeffTable(m=%d, vmax=%d, base=%s, %d entries)" % (
            self.m,
            self.vmax,
            self.base.value,
            len(self.entries),
        )


def _scaled(val: Fraction, weight: int) -> int | Fraction:
    """weight * val: an int when val's denominator divides weight, else exact."""
    den = val.denominator
    return weight * val if weight % den else val.numerator * (weight // den)


# ----------------------------------------------------------------------
# closed forms and oracles
# ----------------------------------------------------------------------


def constellation_count(params: EnsembleParams, v: int) -> int:
    """Endpoint assignments of v degree-2 variables: m^(2v) for 0 <= v <= n."""
    if v < 0 or v > params.n:
        return 0
    return params.m ** (2 * v)


def _block_counts(tmax: int, nmax: int) -> list[list[int]]:
    """P[t][n] = n! * [x^n] (e^x - 1 - x)^t for 0 <= t <= tmax, 0 <= n <= nmax.

    P[t][n] counts ordered t-tuples of disjoint blocks of size >= 2 covering
    n labeled elements.  The last element either joins one of the t blocks
    of a cover of the other n-1, or pairs with one of those n-1 in a new
    block of size 2:  P[t][n] = t * (P[t][n-1] + (n-1) * P[t-1][n-2]).
    Exact integers, zero for n < 2t.
    """
    counts = [[0] * (nmax + 1) for _ in range(tmax + 1)]
    counts[0][0] = 1
    for t in range(1, tmax + 1):
        prev, row = counts[t - 1], counts[t]
        for n in range(2 * t, nmax + 1):
            row[n] = t * (row[n - 1] + (n - 1) * prev[n - 2])
    return counts


def stopping_set_count(params: EnsembleParams, v: int, t: int) -> int:
    """Assignments of v variables covering exactly t checks, each at least twice.

    Closed form binom(m,t) * (2v)! * [x^(2v)] (e^x - 1 - x)^t, evaluated as
    binom(m,t) * P_t[2v]: an exact integer by construction.
    """
    if v < 0 or t < 0:
        raise ValidationError("stopping_set_count needs v, t >= 0")
    if t > params.m:
        return 0
    return binomial(params.m, t) * _block_counts(t, 2 * v)[t][2 * v]


def boundary_coefficient(params: EnsembleParams, v: int, t: int) -> Fraction:
    """The s = 0 layer: binom(m,t) * (2v-1)!! * [x^(2v)] (e^x - 1 - x)^t.

    Equals stopping_set_count / (v! * 2^v); zero whenever v < t (the series
    has nothing below x^(2t)).
    """
    if v < 1 or t < 1:
        raise ValidationError("boundary_coefficient needs v >= 1 and t >= 1")
    return Fraction(stopping_set_count(params, v, t), factorial(v) * 2**v)


def brute_force_profile_counts(m: int, v: int) -> dict[tuple[int, int], int]:
    """Exhaustive degree-profile census of all m^(2v) endpoint assignments.

    For each assignment of 2v labeled endpoints to m checks, classify the
    profile (t, s) with t = checks of degree >= 2 and s = checks of degree
    exactly 1.  Returns counts per profile; they sum to m^(2v).  This is the
    independent oracle the table semantics are reconciled against.
    """
    if m < 1 or v < 0:
        raise ValidationError("brute_force_profile_counts needs m >= 1, v >= 0")
    total = m ** (2 * v)
    if total > BRUTE_FORCE_GUARD:
        raise GuardError(
            "m^(2v) = %d exceeds the enumeration guard %d" % (total, BRUTE_FORCE_GUARD)
        )
    counts: dict[tuple[int, int], int] = {}
    for assign in itertools.product(range(m), repeat=2 * v):
        deg = [0] * m
        for c in assign:
            deg[c] += 1
        t = sum(1 for d in deg if d >= 2)
        s = sum(1 for d in deg if d == 1)
        counts[(t, s)] = counts.get((t, s), 0) + 1
    return counts


# ----------------------------------------------------------------------
# recurrence fill
# ----------------------------------------------------------------------


def _profile_counts(width: int, vmax: int) -> list[list[list[int]]]:
    """C[v][t][s] of the factored recurrence for 0 <= v <= vmax, t + s <= width.

    C(v,t,0) = P_t[2v] and, for s >= 1,
    C(v,t,s) = 2v * ((s-1)*C(v-1,t,s-2) + t*C(v-1,t,s-1) + t*C(v-1,t-1,s)),
    so every C is an integer and no step divides.  An entry reads only
    smaller t and s, so the values do not depend on width, which only
    bounds the triangle tabulated.  Rows stop at t = min(width, vmax) and
    C(v,t,s) = 0 unless 2t + s <= 2v.  Row t = 0 is zero for s >= 1 at
    every level, so the v = 0 origin never reaches an s >= 1 entry.
    """
    tmax = min(width, vmax)
    blocks = _block_counts(tmax, 2 * vmax)
    levels: list[list[list[int]]] = []
    for v in range(vmax + 1):
        level = [[blocks[t][2 * v]] + [0] * (width - t) for t in range(tmax + 1)]
        for t in range(1, min(v, tmax) + 1):
            row, same, left = level[t], levels[-1][t], levels[-1][t - 1]
            for s in range(1, min(width - t, 2 * (v - t)) + 1):
                c = t * (same[s - 1] + left[s])
                if s >= 2:
                    c += (s - 1) * same[s - 2]
                row[s] = 2 * v * c
        levels.append(level)
    return levels


def fill_table(
    params: EnsembleParams,
    vmax: int,
    base: BaseConfig = BaseConfig.UNIT_ORIGIN,
) -> CoeffTable:
    """Fill A(v, t, s) for 1 <= v <= vmax as M(t,s) * C(v,t,s) / (v! * 2^v).

    The integers C come from the m-free kernel _profile_counts and M(t,s)
    is the multinomial m!/(t! s! (m-t-s)!); each stored entry is one
    exact Fraction, and zeros are not stored.  The v = 0 plane is the base
    config's.  Every level is filled from scratch: refilling is faster
    than loading a saved table of the same size.

    Raises:
        ValidationError: vmax outside 0..n.
    """
    if vmax < 0 or vmax > params.n:
        raise ValidationError("vmax must lie in 0..n, got %r" % (vmax,))
    m = params.m
    entries = base.level_zero()
    counts = _profile_counts(m, vmax)
    multinomial = [
        [binomial(m, t) * binomial(m - t, s) for s in range(m - t + 1)]
        for t in range(min(m, vmax) + 1)
    ]
    for v in range(1, vmax + 1):
        weight = factorial(v) * 2**v
        for t in range(1, min(v, m) + 1):
            for s, c in enumerate(counts[v][t]):
                if c:
                    entries[(v, t, s)] = Fraction(multinomial[t][s] * c, weight)
    return CoeffTable(params, vmax, base, entries)


def _first_block_counts(tmax: int, nmax: int) -> list[list[int]]:
    """P[t][n] = n! * [x^n] (e^x - 1 - x)^t, built by choosing the first block.

    An ordered t-tuple of disjoint blocks of size >= 2 covering n labeled
    elements is a first block of j >= 2 elements, binom(n, j) ways,
    followed by a (t-1)-tuple covering the other n - j:
    P[t][n] = sum_{j>=2} binom(n, j) * P[t-1][n-j], the binomial
    convolution that multiplies EGFs.  This is verify_table's oracle for
    the s = 0 layer and deliberately shares no code with _block_counts.
    """
    pascal = [[binomial(n, j) for j in range(n + 1)] for n in range(nmax + 1)]
    counts = [[1] + [0] * nmax]
    for t in range(1, tmax + 1):
        prev = counts[-1]
        row = [0] * (nmax + 1)
        for n in range(2 * t, nmax + 1):
            choose = pascal[n]
            row[n] = sum(
                choose[j] * prev[n - j] for j in range(2, n - 2 * (t - 1) + 1)
            )
        counts.append(row)
    return counts


def verify_table(table: CoeffTable) -> list[str]:
    """Independent recheck of every invariant; returns violation messages.

    Rechecks, independent of fill order: support (nothing stored outside the
    index ranges, v = 0 plane matches the base config), the paper's
    unfactored three-term recurrence at every (v, t, s) with s >= 1 in
    support (including entries stored as zero by omission), and the
    boundary identity
    v! * 2^v * A(v,t,0) == binom(m,t) * (2v)! * [x^(2v)] (e^x - 1 - x)^t.
    Both checks run on B = v! * 2^v * A: the int num * (v! 2^v // den)
    where den divides v! * 2^v, and the exact Fraction otherwise, so a
    corrupt entry is compared exactly.  The recurrence is checked as
    s * B(v,t,s) == 2v * R(B(v-1)) with R its right-hand side.  The
    boundary side is binom(m,t) * P_t[2v] from _first_block_counts, an
    integer binomial convolution independent of the kernel the fill uses.
    """
    m = table.m
    vmax = table.vmax
    bad: list[str] = []
    origin = table.base.level_zero()
    weight = [factorial(v) * 2**v for v in range(vmax + 1)]
    scaled: dict[tuple[int, int, int], int | Fraction] = {}
    for (v, t, s), val in sorted(table.entries.items()):
        if val == 0:
            bad.append("stored zero at (%d,%d,%d)" % (v, t, s))
        if 0 <= v <= vmax:
            scaled[(v, t, s)] = _scaled(val, weight[v])
        if v == 0:
            if origin.get((v, t, s)) != val:
                bad.append("v=0 entry (%d,%d,%d)=%s conflicts with base %s"
                           % (v, t, s, val, table.base.value))
            continue
        if v > vmax or not (1 <= t <= m) or not (0 <= s <= m - t):
            bad.append("entry outside support at (%d,%d,%d)" % (v, t, s))
    tmax = min(m, vmax)  # P_t[2v] vanishes for v < t
    blocks = _first_block_counts(tmax, 2 * vmax)
    stopping = {
        (v, t): binomial(m, t) * blocks[t][2 * v]
        for t in range(1, tmax + 1)
        for v in range(t, vmax + 1)
    }
    get = scaled.get
    for v in range(1, vmax + 1):
        for t in range(1, m + 1):
            if get((v, t, 0), 0) != stopping.get((v, t), 0):
                bad.append("boundary identity fails at (v=%d,t=%d)" % (v, t))
            for s in range(1, m - t + 1):
                u = m - t - s
                rhs = get((v - 1, t, s - 1), 0) * t + get((v - 1, t - 1, s), 0) * s
                if s >= 2:
                    rhs += get((v - 1, t, s - 2), 0) * (u + 2)
                if s * get((v, t, s), 0) != 2 * v * (u + 1) * rhs:
                    bad.append("recurrence fails at (%d,%d,%d)" % (v, t, s))
    return bad


def profile_reconciliation(table: CoeffTable, v_limit: int) -> list[dict]:
    """Compare v! * 2^v * A(v,t,s) against the brute-force profile census.

    One row per (v, profile) observed on either side, with both counts and a
    match flag.  This documents what the recurrence entries do and do not
    count; disagreement is a reported outcome, not an error.
    """
    rows: list[dict] = []
    for v in range(1, min(v_limit, table.vmax) + 1):
        oracle = brute_force_profile_counts(table.m, v)
        profiles = set(oracle)
        profiles.update((t, s) for (vv, t, s) in table.entries if vv == v)
        weight = factorial(v) * 2**v
        for t, s in sorted(profiles):
            table_count = weight * table.value(v, t, s)
            oracle_count = oracle.get((t, s), 0)
            rows.append(
                {
                    "v": v,
                    "t": t,
                    "s": s,
                    "table_count": table_count,
                    "oracle_count": oracle_count,
                    "match": table_count == oracle_count,
                }
            )
    return rows


# ----------------------------------------------------------------------
# growth exponents
# ----------------------------------------------------------------------


def growth_exponent(table: CoeffTable, v: int, t: int, base=10) -> float:
    """log_base of A(v,t,0) / binom(m,t), to at least 12 significant digits.

    The rational is exact and can have hundreds of digits; the log goes
    through the digit-count path, never through a float conversion of the
    full value.

    Raises:
        ValidationError: when A(v,t,0) <= 0 (in particular whenever v < t).
    """
    val = table.value(v, t, 0)
    if val <= 0:
        raise ValidationError(
            "growth exponent undefined at (v=%d, t=%d): A(v,t,0) = %s" % (v, t, val)
        )
    return log_fraction(val / binomial(table.m, t), base=base)


def boundary_layer(m: int, vmax: int, t_values) -> dict[int, dict[int, Fraction]]:
    """Exact s = 0 boundary values A(v, t, 0) for the requested t's.

    One integer tabulation of P_t[2v] up to the largest t covers every t at
    once; this is how deep profiles (m = 100, v up to 100) stay cheap
    without filling the full three-index table.  Each t maps to its values
    at v = t..vmax (all nonzero).
    """
    t_set = {int(t) for t in t_values}
    if not t_set:
        return {}
    if min(t_set) < 1:
        raise ValidationError("t values must be >= 1")
    if max(t_set) > m:
        raise ValidationError("t values must not exceed m = %d" % (m,))
    if vmax < 0:
        raise ValidationError("vmax must be >= 0, got %r" % (vmax,))
    counts = _block_counts(max(t_set), 2 * vmax)
    weight = [factorial(v) * 2**v for v in range(vmax + 1)]
    return {
        t: {
            v: Fraction(binomial(m, t) * counts[t][2 * v], weight[v])
            for v in range(t, vmax + 1)
        }
        for t in sorted(t_set)
    }


def growth_profile(m: int, vmax: int, t_values, base=10) -> dict[int, list[tuple[int, float]]]:
    """Growth exponents g(v) = log(A(v,t,0)/binom(m,t)) per requested t.

    Rows run over the v where the exponent is defined (v >= t).
    """
    layer = boundary_layer(m, vmax, t_values)
    out: dict[int, list[tuple[int, float]]] = {}
    for t, vals in layer.items():
        ct = binomial(m, t)
        out[t] = [(v, log_fraction(vals[v] / ct, base=base)) for v in sorted(vals)]
    return out


# ----------------------------------------------------------------------
# CPTABLE file format
# ----------------------------------------------------------------------


def save_table(table: CoeffTable, path) -> None:
    """Write the canonical CPTABLE 2 format, ASCII with LF endings.

    Line 1: "CPTABLE 2".  Line 2: "m=<m> vmax=<vmax> base=<name>".  Then one
    row per nonzero entry, "<v> <t> <s> <num>/<den>" in lowest terms with a
    positive denominator, sorted lexicographically by (v, t, s).  Zero
    entries are omitted.  The last line is "end sha256=<hex>", the
    lowercase sha256 of every byte before it, so a truncated or altered
    file cannot load.
    """
    lines = [_HEADER_MAGIC, "m=%d vmax=%d base=%s" % (table.m, table.vmax, table.base.value)]
    for (v, t, s), val in sorted(table.entries.items()):
        lines.append("%d %d %d %d/%d" % (v, t, s, val.numerator, val.denominator))
    body = ("\n".join(lines) + "\n").encode("ascii")
    with open(path, "wb") as fh:
        fh.write(body + b"end sha256=%s\n" % hashlib.sha256(body).hexdigest().encode())


def _checked_body(data: bytes) -> list[str]:
    """The lines before the trailer, once the trailer's sha256 matches them.

    The trailer must be the file's last line, so a file cut anywhere, or
    with anything after the trailer, is rejected here.  CPTABLE 1 files
    have no trailer; they are rejected with the command that rebuilds them.
    """
    if data.startswith(b"CPTABLE 1\n"):
        header = _HEADER_RE.match(data.split(b"\n", 2)[1].decode("ascii", "replace"))
        rebuild = "--m %s --vmax %s --base %s" % (
            header.groups() if header else ("<m>", "<vmax>", "<base>")
        )
        raise TableFormatError(
            "CPTABLE 1 files are no longer read; rebuild with "
            "`cyclepoisson table build %s`" % rebuild,
            line=1,
        )
    start = data.rfind(b"\n", 0, len(data) - 1) + 1
    body = data[:start]
    trailer = _TRAILER_RE.fullmatch(data, start)
    if not trailer:
        raise TableFormatError(
            "last line is not the trailer 'end sha256=<64 hex>' (truncated file?)",
            line=body.count(b"\n") + 1,
        )
    if hashlib.sha256(body).hexdigest().encode() != trailer.group(1):
        raise TableFormatError(
            "sha256 of the body does not match the trailer", line=body.count(b"\n") + 1
        )
    try:
        text = body.decode("ascii")
    except UnicodeDecodeError as exc:
        raise TableFormatError(
            "non-ASCII byte at offset %d" % exc.start, line=body.count(b"\n", 0, exc.start) + 1
        ) from None
    return text.split("\n")[:-1]


def load_table(path) -> CoeffTable:
    """Load a CPTABLE 2 file completely, or raise TableFormatError.

    The trailer is checked first: it must be the last line and its sha256
    must match every byte before it, which rules out any truncation or
    changed byte.  Then the body must be ASCII, and: header magic and
    fields, row syntax, lowest-terms normalization with positive
    denominator, strictly increasing (v, t, s) order, no zero values,
    indices inside the declared support, v = 0 rows consistent with the
    base config, the base config's rows present, and rows up to exactly
    the declared vmax.
    """
    with open(path, "rb") as fh:
        lines = _checked_body(fh.read())
    if not lines or lines[0] != _HEADER_MAGIC:
        raise TableFormatError("bad magic, expected %r" % (_HEADER_MAGIC,), line=1)
    if len(lines) < 2:
        raise TableFormatError("missing header line", line=2)
    header = _HEADER_RE.match(lines[1])
    if not header:
        raise TableFormatError("bad header %r" % (lines[1],), line=2)
    m = int(header.group(1))
    vmax = int(header.group(2))
    try:
        base = BaseConfig.from_label(header.group(3))
    except ValidationError:
        raise TableFormatError("unknown base %r" % (header.group(3),), line=2) from None
    params = EnsembleParams.from_checks(m) if m >= 1 else None
    if params is None:
        raise TableFormatError("m must be >= 1", line=2)

    entries: dict[tuple[int, int, int], Fraction] = {}
    prev_key = None
    for idx, line in enumerate(lines[2:], start=3):
        row = _ROW_RE.match(line)
        if not row:
            raise TableFormatError("bad row %r" % (line,), line=idx)
        v, t, s = int(row.group(1)), int(row.group(2)), int(row.group(3))
        num, den = int(row.group(4)), int(row.group(5))
        val = Fraction(num, den)
        if val == 0:
            raise TableFormatError("zero entries must be omitted", line=idx)
        if val.numerator != num or val.denominator != den:
            raise TableFormatError("%d/%d is not in lowest terms" % (num, den), line=idx)
        key = (v, t, s)
        if prev_key is not None and key <= prev_key:
            raise TableFormatError("rows out of order at %r" % (key,), line=idx)
        prev_key = key
        if v > vmax:
            raise TableFormatError("v exceeds declared vmax", line=idx)
        if v == 0:
            if base.level_zero().get(key) != val:
                raise TableFormatError(
                    "v=0 row conflicts with base=%s" % (base.value,), line=idx
                )
        elif not (1 <= t <= m) or not (0 <= s <= m - t):
            raise TableFormatError("indices outside support", line=idx)
        entries[key] = val

    max_v = max((key[0] for key in entries), default=0)
    if max_v != vmax:
        raise TableFormatError(
            "rows stop at v=%d but the header declares vmax=%d" % (max_v, vmax), line=2
        )
    for key, val in base.level_zero().items():
        if entries.get(key) != val:
            raise TableFormatError("file is missing base row %r" % (key,), line=3)
    return CoeffTable(params, vmax, base, entries)
