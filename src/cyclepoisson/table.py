"""Constellation coefficient tables for the cycle Poisson ensemble.

The ensemble has n degree-2 variable nodes whose 2n edge endpoints land
uniformly and independently on m = (1-r)n check nodes (a multigraph; both
endpoints of a variable may hit the same check).  The table A(v, t, s) is a
three-index family of exact rationals over 0 <= v <= vmax, 1 <= t <= m,
0 <= s <= m-t, plus the origin A(0, 0, 0) = 1 as the whole v = 0 plane:

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
code with the fill: combinatorics.block_partition_table, the powers of
the n!-scaled EGF e^x - 1 - x as a binomial convolution,
P_t[n] = sum_{j>=2} binom(n,j) * P_{t-1}[n-j] (choose the first block).
The origin feeds no v >= 1 entry: the only term reading level v-1 at
t-1 = 0 carries the factor s, and row t = 0 is zero for s >= 1.

Entries outside the support are zero; an entry is nonzero only where
2t + s <= 2v.  B(v, t, s) = v! * 2^v * A(v, t, s) counts the cyclic
assignments with profile (t, s): endpoint assignments of v variables whose
graph on the checks contains a cycle (a self-loop or a repeated pair counts
as one), with exactly t checks of degree >= 2 and s checks of degree
exactly one.  The recurrence is the peeling step.  A check of degree one
is on no cycle, so deleting the variable (edge) at a chosen leaf check
keeps a cyclic graph cyclic, with v - 1 variables.  The edge's other
endpoint c has one of three degrees, one term each:
  deg c >= 3: c keeps degree >= 2, leaving profile (t, s-1), weight t;
  deg c == 2: c becomes a leaf, leaving (t-1, s), weight s;
  deg c == 1: an isolated edge, both ends empty, leaving (t, s-2), weight
              (u+2) * (u+1) for the ordered pair of empty checks.
In B terms, s * B(v,t,s) = 2v * (u+1) * (t*B(v-1,t,s-1) + s*B(v-1,t-1,s)
+ (u+2)*B(v-1,t,s-2)): the s on the left picks the leaf, and 2v * (u+1)
the deleted edge's label, its orientation and the empty check its leaf
lands on.  A forest strips down to t = 0, where the table is zero, so only
cyclic graphs are counted.  The tests check each term against the
(cyclic assignment, leaf) pairs of its kind, and the totals against an
exhaustive census of the assignments a union-find cycle test finds a
cycle in.  At s = 0 these are all the stopping sets on t checks,
since a graph with no check of degree one always has a cycle.
brute_force_profile_counts tallies every assignment, forests included, so
it exceeds the table wherever a forest has the profile.

A table is held a level at a time from its fill to its file to its check:
level v is its nonzero rows (v, t, s, B) in (t, s) order.  _filled_levels
yields them, CoeffTable keeps them, a CPTABLE 3 file holds them in the same
order and _read_levels yields them back, and one checker (_verify_levels)
reads them two levels at a time, from a table or from a file.
"""

from __future__ import annotations

import bisect
import decimal
import hashlib
import itertools
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add, ge, index, itemgetter, lt, setitem

from .combinatorics import (
    _block_partition_rows,
    binomial,
    factorial,
    log_ratio,
)
from .errors import GuardError, TableFormatError, ValidationError

__all__ = [
    "EnsembleParams",
    "CoeffTable",
    "stopping_set_count",
    "brute_force_profile_counts",
    "fill_table",
    "verify_table",
    "boundary_layer",
    "growth_profile",
    "save_table",
    "load_table",
]

BRUTE_FORCE_GUARD = 10**8

_HEADER_MAGIC = "CPTABLE 3"
_HEADER_RE = re.compile(r"^m=(0|[1-9][0-9]*) vmax=(0|[1-9][0-9]*)$")
# the magic and header of the formats no longer read, for the rebuild command
_OLD_HEAD_RE = re.compile(rb"(CPTABLE [12])\n(?:m=([0-9]+) vmax=([0-9]+) )?")
# rows "<v> <t> <s> <B>", each ending in LF, with v, t and B positive
_ROWS_RE = re.compile(r"(?:[1-9][0-9]* [1-9][0-9]* (?:0|[1-9][0-9]*) [1-9][0-9]*\n)*")
# rows that load_table checks per pass: one batch's parsed columns stay
# small beside the table they fill
_LOAD_BATCH = 4096
# bytes the CPTABLE reader takes from a file per read
_READ_BLOCK = 1 << 20
_TRAILER_RE = re.compile(rb"end sha256=([0-9a-f]{64})\n")
# the v = 0 plane, the origin alone, as a row (v, t, s, B) (there 0! * 2^0 = 1,
# so B = A); no level or CPTABLE 3 file holds it, as it is implied
_ORIGIN = (0, 0, 0, 1)
_OUTSIDE_PROFILE = "entry outside profile support 2t+s <= 2v at (%d,%d,%d)"


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
        object.__setattr__(self, "n", _check_int(self.n, "n"))
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


def _check_int(value, name: str) -> int:
    """value as an int through operator.index, which refuses floats and strings."""
    try:
        return index(value)
    except TypeError:
        raise ValidationError("%s must be an integer, got %r" % (name, value)) from None


def _check_epsilon(epsilon) -> Fraction:
    """The erasure probability as a Fraction, which must lie in [0, 1]."""
    eps = Fraction(epsilon)
    if not 0 <= eps <= 1:
        raise ValidationError("epsilon must lie in [0, 1], got %s" % (eps,))
    return eps


class CoeffTable:
    """Sparse exact table of A(v, t, s), stored as integer counts a level at a time.

    levels[v-1] is level v's nonzero rows (v, t, s, B) in (t, s) order,
    with B = v! * 2^v * A(v, t, s) the number of cyclic assignments with
    that profile; a key with no row is zero.  These are the levels
    _filled_levels yields and a CPTABLE 3 file holds.  The v = 0 plane is
    the origin A(0, 0, 0) = 1 alone and has no row, and vmax is
    len(levels).  entries is the table as a dict of Fractions A = B /
    (v! * 2^v), the origin included, built per access.  Equality is on
    (m, levels): two parameterizations with the same check count carry
    identical tables.
    """

    def __init__(self, params: EnsembleParams, levels: list[list[tuple[int, int, int, int]]]):
        self.params = params
        self.levels = levels

    @property
    def m(self) -> int:
        return self.params.m

    @property
    def vmax(self) -> int:
        return len(self.levels)

    @property
    def entries(self) -> dict[tuple[int, int, int], Fraction]:
        """A(v, t, s) per stored row and the origin, as a new dict of Fractions."""
        rows = itertools.chain([_ORIGIN], *self.levels)
        return {(v, t, s): Fraction(b, _weight(v)) for v, t, s, b in rows}

    @property
    def is_partial(self) -> bool:
        """Always False: load_table returns a complete table or raises.

        Kept read-only for callers that still check it, such as the
        exact_build workload in perfbench/workloads.py.
        """
        return False

    def value(self, v: int, t: int, s: int) -> Fraction:
        key = (v, t, s)
        if key == _ORIGIN[:3]:
            return Fraction(1)
        level = self.levels[v - 1] if 1 <= v <= self.vmax else []
        i = bisect.bisect_left(level, key)
        if i < len(level) and level[i][:3] == key:
            return Fraction(level[i][3], _weight(v))
        return Fraction(0)

    def level_counts(self) -> dict[int, int]:
        """Sum of B(v, t, s) over t >= 1 and all s, for every level v with an entry there.

        This is the number of cyclic endpoint assignments of v variables.
        """
        sums: dict[int, int] = {}
        for v, level in enumerate(self.levels, start=1):
            counts = [b for _v, t, _s, b in level if t >= 1]
            if counts:
                sums[v] = sum(counts)
        return sums

    def level_sums(self) -> dict[int, Fraction]:
        """level_counts as sums of A: one Fraction, the count over v! * 2^v, per level."""
        return {v: Fraction(b, _weight(v)) for v, b in self.level_counts().items()}

    def __eq__(self, other):
        if not isinstance(other, CoeffTable):
            return NotImplemented
        return self.m == other.m and self.levels == other.levels

    __hash__ = None

    def __repr__(self):
        rows = sum(map(len, self.levels))
        return "CoeffTable(m=%d, vmax=%d, %d entries)" % (self.m, self.vmax, rows + 1)


@lru_cache(maxsize=None)
def _weight(v: int) -> int:
    """v! * 2^v, the denominator every A at level v has in counts form."""
    return factorial(v) << v


# ----------------------------------------------------------------------
# closed forms and oracles
# ----------------------------------------------------------------------


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


def brute_force_profile_counts(m: int, v: int) -> dict[tuple[int, int], int]:
    """Exhaustive degree-profile census of all m^(2v) endpoint assignments.

    For each assignment of 2v labeled endpoints to m checks, classify the
    profile (t, s) with t = checks of degree >= 2 and s = checks of degree
    exactly 1.  Returns counts per profile; they sum to m^(2v).  Forests
    are counted too, so each count bounds v! * 2^v * A(v,t,s) from above.
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


def _profile_levels(widths: list[int], vmax: int):
    """Yield C(v) for v = 0..vmax in turn, as rows[t][s] with s < widths[t].

    C(v,t,0) = P_t[2v] and, for s >= 1,
    C(v,t,s) = 2v * ((s-1)*C(v-1,t,s-2) + t*C(v-1,t,s-1) + t*C(v-1,t-1,s)),
    so every C is an integer and no step divides.  An entry reads only
    (t, s-1), (t, s-2) and (t-1, s) one level down, so the values do not
    depend on the widths, which only bound the rows tabulated: the
    triangle t + s <= m for fill_table, the rectangle t' <= t, s' <= s for
    one column.  Widths must not increase with t, so row t - 1 of the
    level below covers row t.  Only that level is kept while the next is
    computed.  C(v,t,s) = 0 unless 2t + s <= 2v, and row t = 0 is zero for
    s >= 1 at every level, so the v = 0 origin never reaches an s >= 1
    entry.  The s = 0 seeds are _block_counts(len(widths) - 1, 2 vmax).
    """
    blocks = _block_counts(len(widths) - 1, 2 * vmax)
    prev = None
    for v in range(vmax + 1):
        level = [[blocks[t][2 * v]] + [0] * (w - 1) for t, w in enumerate(widths)]
        for t in range(1, min(v, len(widths) - 1) + 1):
            row, same, left = level[t], prev[t], prev[t - 1]
            for s in range(1, min(widths[t] - 1, 2 * (v - t)) + 1):
                c = t * (same[s - 1] + left[s])
                if s >= 2:
                    c += (s - 1) * same[s - 2]
                row[s] = 2 * v * c
        yield level
        prev = level


def _column_counts(m: int, t: int, s: int, vmax: int) -> list[int]:
    """B(v,t,s) = M(t,s) * C(v,t,s) for 0 <= v <= vmax: one (t,s) column.

    These are fill_table's counts at (v, t, s) for v >= 1.  The levels of
    C come from _profile_levels over the rectangle t' <= t, s' <= s, the
    cone the column reads, two levels at a time.  The column is zero when
    t = 0 (only the origin has t = 0), t + s > m (M = 0) or t > vmax
    (C = 0 unless 2t + s <= 2v).
    """
    if t < 1 or s < 0 or t + s > m or t > vmax:
        return [0] * (vmax + 1)
    multinomial = binomial(m, t) * binomial(m - t, s)
    return [multinomial * level[t][s] for level in _profile_levels([s + 1] * (t + 1), vmax)]


def _check_vmax(params: EnsembleParams, vmax: int) -> None:
    """Raise ValidationError unless 0 <= vmax <= n: the depth a table may be filled to."""
    if vmax < 0 or vmax > params.n:
        raise ValidationError("vmax must lie in 0..n, got %r" % (vmax,))


def _filled_levels(m: int, vmax: int):
    """Each level v = 1..vmax in turn, as its nonzero rows (v, t, s, B) in (t, s) order.

    B = M(t,s) * C(v,t,s) with the integers C from the m-free kernel
    _profile_levels over the triangle t + s <= m and M(t,s) the
    multinomial m!/(t! s! (m-t-s)!).  Both routes to a table file start
    here: fill_table stores these rows, and `table build` writes them as
    they come, so it holds one level at a time.  The v = 0 level, the
    origin alone, is not yielded.
    """
    multinomial = [
        [binomial(m, t) * binomial(m - t, s) for s in range(m - t + 1)]
        for t in range(min(m, vmax) + 1)
    ]
    levels = _profile_levels([len(row) for row in multinomial], vmax)
    next(levels)
    for v, level in enumerate(levels, start=1):
        rows = []
        for t in range(1, min(v, m) + 1):
            row = multinomial[t]
            rows += [(v, t, s, row[s] * c) for s, c in enumerate(level[t]) if c]
        yield rows


def fill_table(params: EnsembleParams, vmax: int) -> CoeffTable:
    """Fill A(v, t, s) for 1 <= v <= vmax as M(t,s) * C(v,t,s) / (v! * 2^v).

    The table's levels are those _filled_levels yields, the counts
    B = M(t,s) * C(v,t,s) with zeros not stored.  The v = 0 plane is the
    origin alone.  Every level is filled from scratch: refilling is
    faster than loading a saved table of the same size.  `table build`
    writes the same levels to its file without building this table, so
    an interrupted build leaves a file with no valid trailer, which
    load_table refuses; a crash mid-write could already tear a file.

    Raises:
        ValidationError: vmax outside 0..n.
    """
    _check_vmax(params, vmax)
    return CoeffTable(params, list(_filled_levels(params.m, vmax)))


def verify_table(table: CoeffTable) -> list[str]:
    """Independent recheck of every invariant; returns violation messages.

    Rechecks, independent of the fill: the support (no stored zero, and
    nothing outside the index ranges or the profile support
    2t + s <= 2v), the paper's unfactored three-term recurrence at every
    (v, t, s) with s >= 1 in the profile support (entries stored as zero
    by omission included), and the boundary identity
    v! * 2^v * A(v,t,0) == binom(m,t) * (2v)! * [x^(2v)] (e^x - 1 - x)^t.
    The checker is _verify_levels over the table's levels, the one
    `table verify --file` runs on the levels it streams from a file.
    """
    return _verify_levels(table.m, table.levels)[1]


def _check_levels(levels, m: int) -> list[str]:
    """The boundary and recurrence failures of the levels v = 0, 1, 2, ... drawn in turn.

    Level v comes as rows[t][s] over _level_widths(m, v), an absent count
    as zero, and is checked against the level below it, so two are held.
    The recurrence is checked as s * B(v,t,s) == 2v * R(B(v-1)) with R its
    right-hand side; outside the profile support both sides vanish once
    no entry is stored there, so those rows are not visited.  The
    boundary side is binom(m,t) * P_t[2v] from
    combinatorics._block_partition_rows, an integer binomial convolution
    independent of the kernel the fill uses, extended a level at a time:
    the work follows the levels checked, whatever vmax is.
    """
    partitions = _block_partition_rows(m, 2)
    choose = [1]
    bad: list[str] = []
    prev = next(levels)
    next(partitions)
    for v, level in enumerate(levels, start=1):
        next(partitions)
        blocks = next(partitions)  # P_t[n] for t <= min(m, v), n <= 2v
        if v <= m:
            choose.append(binomial(m, v))
        for t in range(1, min(v, m) + 1):
            cur, same, left = level[t], prev[t], prev[t - 1]
            if cur[0] != choose[t] * blocks[t][2 * v]:
                bad.append("boundary identity fails at (v=%d,t=%d)" % (v, t))
            for s in range(1, min(m - t, 2 * (v - t)) + 1):
                u = m - t - s
                rhs = same[s - 1] * t + left[s] * s
                if s >= 2:
                    rhs += same[s - 2] * (u + 2)
                if s * cur[s] != 2 * v * (u + 1) * rhs:
                    bad.append("recurrence fails at (%d,%d,%d)" % (v, t, s))
        prev = level
    return bad


def _level_widths(m: int, v: int) -> list[int]:
    """widths[t] of the rows _check_levels reads at level v, for t <= min(v + 1, m).

    Row t covers s <= min(m - t, 2 (v - t) + 1): every key the checks
    read at level v, as the level checked and as the one below level
    v + 1.  Row v + 1 is empty.  A key outside them has 2t + s > 2v + 1.
    """
    top = min(v + 1, m)
    # m - t is the bound for the rows t < k, 2 (v - t) + 1 for the others
    k = max(0, min(top + 1, 2 * v + 2 - m))
    return [*range(m + 1, m + 1 - k, -1), *range(2 * (v - k) + 2, 2 * (v - top), -2)]


def _placed_rows(v: int, m: int, ts, ss, bs) -> list[list[int]]:
    """rows[t][s] over _level_widths(m, v), from level v's rows (t, s, B) as three columns.

    Every row must lie in the widths: t, s >= 0, t + s <= m and
    2t + s <= 2v + 1.
    """
    rows = [[0] * w for w in _level_widths(m, v)]
    list(map(setitem, map(rows.__getitem__, ts), ss, bs))
    return rows


def _verify_levels(m: int, levels) -> tuple[int, list[str]]:
    """The entry count and the violation messages of the levels v = 1, 2, ... of a table.

    levels yields each level as its rows (v, t, s, B) in (t, s) order: a
    table's levels, or _read_levels of a file.  The checks are independent
    of the fill.  First the support: a stored zero, a row outside the index
    ranges (t < 1, s < 0, t + s > m or another level's v) and one outside
    the profile support 2t + s <= 2v are named, level by level in row
    order.  Then the boundary and the paper's unfactored three-term
    recurrence (_check_levels), two levels held at a time, on the rows
    that the checks read (_placed_rows), the origin as level 0; a key with
    no row reads as zero.  Each level is scanned a column at a time, and
    its rows are named one by one only if the scan finds a fault.  The
    support messages come first.  The entry count is the rows plus the
    origin.
    """
    support: list[str] = []
    entries = 1

    def placed():
        nonlocal entries
        yield _placed_rows(0, m, [0], [0], [1])
        for v, level in enumerate(levels, start=1):
            entries += len(level)
            vs, ts, ss, bs = zip(*level) if level else ((),) * 4
            rows = _profile_rows(v, m, vs, ts, ss, bs)
            if rows is None:
                support.extend(_row_faults(v, m, level))
                # a row past 2t + s = 2v + 1 is read by no check
                kept = [
                    rv == v and t >= 0 and s >= 0 and t + s <= m and 2 * t + s <= 2 * v + 1
                    for rv, t, s, _b in level
                ]
                rows = _placed_rows(v, m, *(itertools.compress(c, kept) for c in (ts, ss, bs)))
            yield rows

    checks = _check_levels(placed(), m)
    return entries, support + checks


def _profile_rows(v: int, m: int, vs, ts, ss, bs) -> list[list[int]] | None:
    """_placed_rows of level v's columns, or None unless each row is a count the level may hold.

    That is a nonzero count with the level's v, t >= 1, s >= 0,
    t + s <= m and 2t + s <= 2v.  Each check is one pass over a column or
    the placing: a row past the widths raises IndexError there, and one
    at 2t + s = 2v + 1, inside them, is in the last cell of a row
    t >= 2v + 1 - m, the rows that reach s = 2 (v - t) + 1.
    """
    if 0 in bs or vs.count(v) < len(vs) or min(ts, default=1) < 1 or min(ss, default=0) < 0:
        return None
    try:
        rows = _placed_rows(v, m, ts, ss, bs)
    except IndexError:
        return None
    if any(map(itemgetter(-1), filter(None, rows[max(0, 2 * v + 1 - m) :]))):
        return None
    return rows


def _row_faults(v: int, m: int, level) -> list[str]:
    """The support messages of level v's rows (v, t, s, B), in row order."""
    bad = []
    for rv, t, s, b in level:
        if b == 0:
            bad.append("stored zero at (%d,%d,%d)" % (rv, t, s))
        if rv != v or t < 1 or s < 0 or t + s > m:
            bad.append("entry outside support at (%d,%d,%d)" % (rv, t, s))
        elif 2 * t + s > 2 * v:
            bad.append(_OUTSIDE_PROFILE % (rv, t, s))
    return bad


# ----------------------------------------------------------------------
# growth exponents
# ----------------------------------------------------------------------


def _boundary_counts(m: int, vmax: int, t_values) -> tuple[list[int], list[list[int]]]:
    """The requested t's, validated and sorted, and P_t[n] for n <= 2 vmax.

    One integer tabulation up to the largest t covers every t at once;
    this is how deep profiles (m = 100, v up to 100) stay cheap without
    filling the full three-index table.
    """
    t_set = {int(t) for t in t_values}
    if not t_set:
        return [], []
    if min(t_set) < 1:
        raise ValidationError("t values must be >= 1")
    if max(t_set) > m:
        raise ValidationError("t values must not exceed m = %d" % (m,))
    if vmax < 0:
        raise ValidationError("vmax must be >= 0, got %r" % (vmax,))
    return sorted(t_set), _block_counts(max(t_set), 2 * vmax)


def boundary_layer(m: int, vmax: int, t_values) -> dict[int, dict[int, Fraction]]:
    """Exact s = 0 boundary values A(v, t, 0) for the requested t's.

    A(v,t,0) = binom(m,t) * P_t[2v] / (v! * 2^v).  Each t maps to its
    values at v = t..vmax (all nonzero).
    """
    t_list, counts = _boundary_counts(m, vmax, t_values)
    return {
        t: {
            v: Fraction(binomial(m, t) * counts[t][2 * v], _weight(v))
            for v in range(t, vmax + 1)
        }
        for t in t_list
    }


def growth_profile(m: int, vmax: int, t_values) -> dict[int, list[tuple[int, float]]]:
    """Growth exponents g(v) = log10(A(v,t,0)/binom(m,t)) per requested t.

    Rows run over the v where the exponent is defined (v >= t).  The ratio
    is P_t[2v] / (v! * 2^v); both sides are divided by their gcd and the
    log taken side by side, which gives log_fraction's float exactly with
    no Fraction built.
    """
    t_list, counts = _boundary_counts(m, vmax, t_values)
    out: dict[int, list[tuple[int, float]]] = {}
    for t in t_list:
        row = out[t] = []
        for v in range(t, vmax + 1):
            p, w = counts[t][2 * v], _weight(v)
            g = gcd(p, w)
            row.append((v, log_ratio(p // g, w // g)))
    return out


# ----------------------------------------------------------------------
# CPTABLE file format
# ----------------------------------------------------------------------


def _write_over(path, chunks) -> None:
    """Make the file at path hold exactly the byte chunks, rewriting an existing file in place.

    The open creates a missing file but does not truncate, since an
    O_TRUNC open of an existing file costs far more than the write on
    some file systems (ext4 mounted with discard).  Each chunk goes over
    the old bytes as it is drawn, so a lazy source is held one chunk at a
    time, and the file is then cut where the writing stopped, so an
    existing file keeps its inode, permissions and hard links.  A source
    that raises (an interrupted `table build`) leaves the chunks written
    before it, cut there, so a CPTABLE file is left with no valid
    trailer, and load_table refuses it.  A crash mid-write could already
    tear a file: between the write and the cut it can leave a longer
    file's tail behind, which no trailer matches either.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "wb") as fh:
        try:
            fh.writelines(chunks)
        finally:
            fh.truncate()


def _rows_text(rows) -> str:
    """The lines "<v> <t> <s> <B>" of rows (v, t, s, B), each ending in LF.

    A batch with a count past the interpreter's int-to-str digit limit is
    formatted through decimal, which has none, so the limit is never lifted.
    """
    try:
        return "".join(["%d %d %d %d\n" % row for row in rows])
    except ValueError:
        return "".join("%d %d %d %s\n" % (v, t, s, decimal.Decimal(b)) for v, t, s, b in rows)


def _write_cptable(path, m: int, vmax: int, batches) -> str:
    """Write the CPTABLE 3 file of m, vmax and the rows (v, t, s, B) in batches, in file order.

    The header goes first, then each batch's rows as the batch is drawn
    (`table build` draws one level at a time and holds no more), then the
    trailer.  The sha256 is updated as each chunk is written, so the file
    is neither held whole nor read back.  Returns the lowercase hex
    sha256 of the whole file, trailer included.
    """
    digest = hashlib.sha256()

    def chunks():
        head = "%s\nm=%d vmax=%d\n" % (_HEADER_MAGIC, m, vmax)
        for text in itertools.chain([head], map(_rows_text, batches)):
            data = text.encode("ascii")
            digest.update(data)
            yield data
        trailer = b"end sha256=%s\n" % digest.hexdigest().encode()
        digest.update(trailer)
        yield trailer

    _write_over(path, chunks())
    return digest.hexdigest()


def save_table(table: CoeffTable, path) -> str:
    """Write the canonical CPTABLE 3 format, ASCII with LF endings.

    Line 1: "CPTABLE 3".  Line 2: "m=<m> vmax=<vmax>".  Then the rows
    "<v> <t> <s> <B>" of table.levels as they stand, level after level,
    the call `table build` makes: B = v! * 2^v * A(v,t,s) is the positive
    integer count, and the rows run in (v, t, s) order.  Zero entries are
    omitted, and so is the v = 0 plane: the origin B(0,0,0) = 1 is
    implied.  An s = 0 row's B is the stopping-set count
    binom(m,t) * P_t[2v].  The last line is "end sha256=<hex>", the
    lowercase sha256 of every byte before it, so a truncated or altered
    file cannot load.  A count past the interpreter's int-to-str digit
    limit is written through decimal, which has none.  The file is
    written over in place (_write_over), and an interrupted write or
    `table build` leaves a file with no valid trailer, which load_table
    refuses; a crash mid-write could already tear a file.

    Returns the lowercase hex sha256 of the whole file as written, so the
    caller need not read the file back.
    """
    return _write_cptable(path, table.m, table.vmax, table.levels)


def _int(token: str) -> int:
    """int(token) for a decimal token of any length.

    A token past the interpreter's int-to-str digit limit goes through
    decimal, which has no such limit, so the limit is never lifted.
    """
    try:
        return int(token)
    except ValueError:
        return int(decimal.Decimal(token))


def _exact(q) -> str:
    """str(q) for a Fraction or int, past the int-to-str digit limit too.

    Each integer goes through decimal, which has no such limit, so the
    limit is never lifted; the text is str()'s wherever str() works.
    """
    num = decimal.Decimal(q.numerator)
    return str(num) if q.denominator == 1 else "%s/%s" % (num, decimal.Decimal(q.denominator))


def _line_blocks(buf: bytes, fh):
    """Yield buf and then the rest of the file fh as pairs (block, last), a _READ_BLOCK read at a time.

    Each block is whole lines, and together they are every byte before
    the file's last line.  last is None but in the final pair, where it
    is that last line.
    """
    while True:
        more = fh.read(_READ_BLOCK)
        # where the last line starts, should the file end here
        cut = buf.rfind(b"\n", 0, len(buf) - 1) + 1
        if not more:
            yield buf[:cut], buf[cut:]
            return
        yield buf[:cut], None
        buf = buf[cut:] + more


def _body_text(path):
    """The text of a CPTABLE 3 file before its last line, in blocks of whole lines.

    Nothing is yielded until the whole file has passed three checks, and
    TableFormatError names the first that fails: the last line must be
    the trailer 'end sha256=<64 hex>', its hex must be the sha256 of every
    byte before it, and those bytes must be ASCII.  A file of one
    _READ_BLOCK block is read once, and that block kept.  A longer file is
    hashed a block at a time and then read a second time for its text.
    The second pass is hashed too, and if its sha256 differs from the
    first (the file changed between the passes), the generator raises at
    its end, so a caller that keeps nothing until then takes in only the
    bytes the trailer signs.  CPTABLE 1 and CPTABLE 2 files are rejected
    first, with the command that rebuilds them, read up to the end of
    their second line only.
    """
    digest = hashlib.sha256()
    non_ascii = None
    offset = lines = 0
    with open(path, "rb") as fh:
        head = fh.read(_READ_BLOCK)
        if _OLD_HEAD_RE.match(head):
            # the rebuild hint reads the second line, which may go on past
            # this block; the rest of the file is not read
            while head.count(b"\n") < 2 and (more := fh.read(_READ_BLOCK)):
                head += more
            magic, m, vmax = (g.decode() for g in _OLD_HEAD_RE.match(head).groups(b""))
            hint = "`cyclepoisson table build --m %s --vmax %s`" % (m or "<m>", vmax or "<vmax>")
            raise TableFormatError(
                "%s files are no longer read; rebuild with %s" % (magic, hint), line=1
            )
        for blocks, (block, last) in enumerate(_line_blocks(head, fh), start=1):
            digest.update(block)
            if non_ascii is None and not block.isascii():
                # each byte decodes to one character, a bad one to U+FFFD
                start = block.decode("ascii", "replace").index("\ufffd")
                non_ascii = TableFormatError(
                    "non-ASCII byte at offset %d" % (offset + start),
                    line=lines + block.count(b"\n", 0, start) + 1,
                )
            offset += len(block)
            lines += block.count(b"\n")
        trailer = _TRAILER_RE.fullmatch(last)
        if not trailer:
            raise TableFormatError(
                "last line is not the trailer 'end sha256=<64 hex>' (truncated file?)",
                line=lines + 1,
            )
        if digest.hexdigest().encode() != trailer.group(1):
            raise TableFormatError("sha256 of the body does not match the trailer", line=lines + 1)
        if non_ascii:
            raise non_ascii
        if blocks == 1:
            if block:
                yield str(block, "ascii")
            return
        fh.seek(0)
        again = hashlib.sha256()
        for block, _last in _line_blocks(fh.read(_READ_BLOCK), fh):
            again.update(block)
            if not block.isascii():
                # the file changed, so the digests below differ
                break
            if block:
                yield str(block, "ascii")
        if again.digest() != digest.digest():
            raise TableFormatError("the file changed while it was read", line=lines + 1)


def _read_levels(path):
    """Yield a CPTABLE 3 file's (m, vmax), then level v = 1..vmax in turn, as the file streams.

    A level is its rows (v, t, s, B), as _filled_levels yields them (empty
    for a level with none), and comes once its last row is read.
    _body_text has checked the trailer, sha256 and ASCII before the first
    line comes.  The header is checked, then each batch of up to
    _LOAD_BATCH rows (_batch_rows), which raises at the batch's first bad
    line, and each level is cut from the batches by bisecting their v
    columns.  Last, the rows must reach the declared vmax, and only then
    does the last level come.  A file over one block is read twice, and a
    change between the reads is known only at the end, so a caller keeps
    what it makes of the levels to itself until the generator is
    exhausted.
    """
    lines = itertools.chain.from_iterable(text.split("\n")[:-1] for text in _body_text(path))
    magic, line2 = next(lines, None), next(lines, None)
    if magic != _HEADER_MAGIC:
        raise TableFormatError("bad magic, expected %r" % (_HEADER_MAGIC,), line=1)
    if line2 is None:
        raise TableFormatError("missing header line", line=2)
    header = _HEADER_RE.match(line2)
    if not header:
        raise TableFormatError("bad header %r" % (line2,), line=2)
    m, vmax = map(_int, header.groups())
    if m < 1:
        raise TableFormatError("m must be >= 1", line=2)
    yield m, vmax
    prev_key = (0, 0, 0)
    small: dict[str, int] = {}
    first = 3  # the file line of the batch's first row
    level, rows = 1, []
    for batch in iter(lambda: list(itertools.islice(lines, _LOAD_BATCH)), []):
        # a filled table's file has a row (v, 1, s) for every s level v
        # uses, so its indices stay below the line they are on, which
        # bounds this map however large a header declares m or vmax
        top = min(max(m, vmax), first + len(batch))
        small.update((str(i), i) for i in range(len(small), top + 1))
        batch, vs = _batch_rows(batch, first, prev_key, m, vmax, small)
        prev_key = batch[-1][:3]
        first += len(batch)
        i = 0
        while i < len(batch):
            # the first row past this level
            j = bisect.bisect_right(vs, level, i)
            rows += batch[i:j]
            if j < len(batch):
                yield rows
                level, rows = level + 1, []
            i = j
    if prev_key[0] != vmax:
        # formatted through decimal: either number may be past the digit limit
        raise TableFormatError(
            "rows stop at v=%s but the header declares vmax=%s"
            % (decimal.Decimal(prev_key[0]), decimal.Decimal(vmax)),
            line=2,
        )
    if vmax:
        yield rows


def _batch_rows(
    batch: list[str], first_line: int, prev_key, m: int, vmax: int, small: dict[str, int]
):
    """The rows (v, t, s, B) of a batch of row lines, and their v column.

    Raises TableFormatError at the first row that fails a check, with its
    file line number (first_line is batch[0]'s).  A row fails if it is not
    "<v> <t> <s> <B>" with v, t and B positive decimal integers and s a
    nonnegative one, none with a leading zero; then, in this order within
    a row, if its (v, t, s) is not above the row before it (prev_key
    before batch[0]), if v > vmax and if t + s > m.  Each check is one
    pass over the whole batch (a regex match of the joined rows, then map
    and zip over the parsed columns), so no row runs interpreter code of
    its own.  Only when a pass fails is its first bad row found, from what
    the passes hold: the end of the regex match, and the first true flag
    of each column check; the rows before a bad syntax are still checked.
    small maps decimal strings to ints, which a dict lookup does several
    times faster than int(); a batch with an index it lacks, or a count
    past the int-to-str digit limit, is parsed with _int throughout.
    """
    text = "\n".join([*batch, ""])
    good = _ROWS_RE.match(text).end()
    tokens = (text if good == len(text) else text[:good]).split()
    try:
        vs, ts, ss = (list(map(small.__getitem__, tokens[i::4])) for i in range(3))
        counts = list(map(int, tokens[3::4]))
    except (KeyError, ValueError):
        vs, ts, ss, counts = (list(map(_int, tokens[i::4])) for i in range(4))
    rows = list(zip(vs, ts, ss, counts))
    # a row (v, t, s, B) is at or above the next row's key (v', t', s')
    # exactly when (v, t, s) >= (v', t', s')
    order = map(ge, itertools.chain([prev_key], rows), zip(vs, ts, ss))
    if good == len(text) and not any(order) and max(vs) <= vmax and max(map(add, ts, ss)) <= m:
        return rows, vs
    # each check's first bad row, len(rows) for none
    firsts = [
        next(itertools.compress(itertools.count(), flags), len(rows))
        for flags in (
            map(ge, itertools.chain([prev_key], rows), zip(vs, ts, ss)),
            map(lt, itertools.repeat(vmax), vs),
            map(lt, itertools.repeat(m), map(add, ts, ss)),
        )
    ]
    i = min(firsts)
    if i == len(rows):
        raise TableFormatError("bad row %r" % (batch[i],), line=first_line + i)
    messages = (
        "rows out of order at (%s)" % ", ".join(tokens[4 * i : 4 * i + 3]),
        "v exceeds declared vmax",
        "indices outside support",
    )
    raise TableFormatError(messages[firsts.index(i)], line=first_line + i)


def load_table(path) -> CoeffTable:
    """Load a CPTABLE 3 file completely, or raise TableFormatError.

    The file streams through _read_levels, which checks, in the order
    the errors are reported: the trailer, which must be the last line,
    and its sha256 of every byte before it, which rule out any truncation
    or changed byte; then that the body is ASCII; then header magic and
    fields, row syntax (v, t and the count B positive decimal integers
    with no leading zero, s a nonnegative one), strictly increasing
    (v, t, s) order, t + s <= m, and rows up to exactly the declared
    vmax.  A row error names the file's first bad line, which _batch_rows
    finds from its own passes over the batch that holds it.  The table
    holds the levels _read_levels yields; the origin is implied.
    Numbers of any length load without lifting the int-to-str digit limit.
    """
    levels = _read_levels(path)
    m, _vmax = next(levels)
    return CoeffTable(EnsembleParams.from_checks(m), list(levels))
