"""Subcommand front end tying the library together.

Every run resolves an output directory (--out, else the CYCLEPOISSON_OUT
environment variable, else the working directory) and executes exactly one
subcommand.  A run that emitted artifacts finishes by writing
`manifest.json` there: the command, its arguments, the seed if one was
used, and a sha256 per emitted artifact.  A run that emitted none (it
printed to stdout only, like `table verify`) writes no manifest and leaves
any existing one untouched.  Re-running the recorded command line
reproduces every artifact byte for byte.  An artifact or manifest that
already exists is rewritten in place and then cut to its new length
(`table._write_over`); the manifest is written as LF-terminated bytes
on every platform.  A run that dies mid-write leaves a file its manifest
does not match, as a truncating write would.  `table build` writes each
level of the table as the fill yields it and never holds the whole
table, so a build cut short leaves a file with no valid trailer, which
`load_table` refuses; a crash mid-write could already tear a file.  It
checks --vmax before it opens the file, so a rejected build writes no
byte.

The global --out must come before the group.  A run that names a leaf
builds that leaf's parser and no other (see `_named_branch` and
`_parse`): the leaf parses the tokens after it, and the group, the leaf
name and the last --out before the group are set on its namespace, which
then equals the full tree's.  Every other argv (`--help`, a group's
--help, an unknown group or leaf, tokens the leaf does not know) is
parsed by the full tree, which reports it as it always did.  Every
parser is built from one argument builder per leaf, listed in `_GROUPS`,
so a new subcommand adds its handler and one leaf builder there.
Handlers import the library modules they call, so a run loads only its
own: no table, stopping-sets, series, pde or errprob run imports numpy.

Repeated values in a comma-separated list (--eps-list, --x-list,
--t-list) are dropped, compared by value, keeping the first occurrence.

Exit codes: 0 success, 1 usage, 2 validation or numeric failure, 3 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from typing import Callable, NamedTuple

from .errors import CyclePoissonError, ValidationError
from .table import (
    EnsembleParams,
    _check_vmax,
    _exact,
    _filled_levels,
    _read_levels,
    _verify_levels,
    _write_cptable,
    _write_over,
    fill_table,
    growth_profile,
    stopping_set_count,
)

DEFAULT_T_LIST = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50)
OUT_ENV_VAR = "CYCLEPOISSON_OUT"


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % (text,))


def _distinct(values: list, text: str) -> list:
    """The values with repeats (equal by value) dropped, in first-occurrence order."""
    if not values:
        raise argparse.ArgumentTypeError("empty list: %r" % (text,))
    return list(dict.fromkeys(values))


def _frac_list(text: str) -> list[Fraction]:
    return _distinct([_frac(tok) for tok in text.split(",") if tok.strip()], text)


def _int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("not a comma-separated integer list: %r" % (text,))
    return _distinct(values, text)


def _range_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected lo:hi, got %r" % (text,))
    return (_frac(parts[0]), _frac(parts[1]))


def _check_count(m: int) -> int:
    if m < 1:
        raise ValidationError("m must be >= 1, got %d" % m)
    return m


def _params_for_checks(m: int, depth: int) -> EnsembleParams:
    """Parameters with exactly m checks and enough variables for depth."""
    n = max(_check_count(m), depth)
    return EnsembleParams(n=n, r=Fraction(n - m, n))


class _Run:
    """Collects artifacts and the seed for the end-of-run manifest."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.hashes: dict[str, str] = {}
        self.seed = None

    def resolve(self, path) -> Path:
        p = Path(path)
        return p if p.is_absolute() else self.out_dir / p

    def _name_for(self, target: Path) -> str:
        try:
            return str(target.relative_to(self.out_dir))
        except ValueError:
            return str(target)

    def write_text(self, path, text: str) -> Path:
        target = self.resolve(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        data = text.encode()
        _write_over(target, [data])
        self.hashes[self._name_for(target)] = hashlib.sha256(data).hexdigest()
        return target


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------


def _cmd_series_demo(args, run: _Run) -> int:
    from .series import geometric_series, poisson_block_series

    order = args.order
    b2 = poisson_block_series(2, order)
    geo = geometric_series(order)
    print("(e^x - 1 - x)^2 truncated at order %d:" % order)
    print("  coefficients:", ", ".join(str(b2.coef(k)) for k in range(order + 1)))
    prod = b2 * geo
    print("multiplied by the geometric series (partial sums of coefficients):")
    print("  coefficients:", ", ".join(str(prod.coef(k)) for k in range(order + 1)))
    had = b2.hadamard(b2)
    print("hadamard square:")
    print("  coefficients:", ", ".join(str(had.coef(k)) for k in range(order + 1)))
    x = Fraction(1, 2)
    print("evaluated at x = 1/2 (exact):", b2.evaluate(x))
    return 0


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------


def _cmd_table_build(args, run: _Run) -> int:
    if args.m is None or args.vmax is None:
        raise ValidationError("table build needs --m and --vmax")
    params = _params_for_checks(args.m, args.vmax)
    _check_vmax(params, args.vmax)
    out_path = run.resolve(args.out_file or ("table_m%d_v%d.cpt" % (args.m, args.vmax)))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    sizes = []

    def levels():
        for rows in _filled_levels(params.m, args.vmax):
            sizes.append(len(rows))
            yield rows

    run.hashes[run._name_for(out_path)] = _write_cptable(out_path, params.m, args.vmax, levels())
    # the origin is an entry with no row
    print("filled m=%d vmax=%d, %d nonzero entries" % (params.m, args.vmax, sum(sizes) + 1))
    print("wrote %s" % out_path)
    return 0


def _cmd_table_exponents(args, run: _Run) -> int:
    m = _check_count(args.m)
    vmax = args.vmax if args.vmax is not None else m
    t_list = args.t_list if args.t_list is not None else [t for t in DEFAULT_T_LIST if t <= m]
    profile = growth_profile(m, vmax, t_list)
    out_names = []
    top = None
    for t in t_list:
        exponents = dict(profile.get(t, []))
        lines = ["v,g"]
        for v in range(1, vmax + 1):
            g = exponents.get(v)
            if g is None:
                lines.append("# v=%d gap zero-coefficient" % v)
            else:
                lines.append("%d,%.15g" % (v, g))
                top = g if top is None else max(top, g)
        name = "g_t%d_m%d.csv" % (t, m)
        run.write_text(name, "\n".join(lines) + "\n")
        out_names.append(name)
    plot = [
        "# growth exponents g(v) = log10(A(v,t,0)/binom(m,t)), one file per t",
        "# run with: gnuplot plot_exponents.gnuplot",
        "set datafile separator ','",
        "set datafile commentschars '#'",
        "set key top left",
        "set xlabel 'v'",
        "set ylabel 'g (log10)'",
        "plot \\",
    ]
    plot.append(
        ", \\\n".join(
            "  '%s' skip 1 using 1:2 with lines title 't=%d'" % (name, t)
            for name, t in zip(out_names, t_list)
        )
    )
    run.write_text("plot_exponents.gnuplot", "\n".join(plot) + "\n")
    print("wrote %d profile files + plot_exponents.gnuplot under %s" % (len(out_names), run.out_dir))
    if top is not None:
        print("max exponent in sweep: %.6g" % top)
    return 0


def _cmd_table_verify(args, run: _Run) -> int:
    # the file is checked as it streams; nothing prints unless it loads
    levels = _read_levels(Path(args.file))
    m, vmax = next(levels)
    entries, problems = _verify_levels(m, levels)
    # a loaded header's m or vmax may be past the digit limit
    print("table: m=%s vmax=%s, %d entries" % (_exact(m), _exact(vmax), entries))
    if problems:
        for p in problems:
            print("FAIL %s" % p)
        return 2
    print("ok: support, origin, boundary and recurrence checks all pass")
    return 0


def _cmd_stopping_sets_count(args, run: _Run) -> int:
    params = _params_for_checks(args.m, args.v)
    count = stopping_set_count(params, args.v, args.t)
    text = _exact(count)
    print(text)
    if count > 0 and args.digits:
        print("digits: %d" % len(text))
    return 0


# ----------------------------------------------------------------------
# pde
# ----------------------------------------------------------------------


def _cmd_pde_classify(args, run: _Run) -> int:
    from .pde import classify_point

    point = classify_point(args.y, args.z)
    print("%s %s" % (point.label, point.value))
    return 0


def _cmd_pde_region(args, run: _Run) -> int:
    from .pde import region_map

    rmap = region_map(args.y_range, args.z_range, args.grid)
    path = run.write_text(args.csv, rmap.to_csv())
    counts = rmap.counts()
    print("wrote %s" % path)
    print(" ".join("%s=%d" % (k, v) for k, v in sorted(counts.items())))
    return 0


def _cmd_pde_alpha(args, run: _Run) -> int:
    from .pde import alpha_case, alpha_discriminant, alpha_substitution

    alphas = [args.alpha]
    if args.survey:
        alphas = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(5)]
    lines = []
    for alpha in alphas:
        case = alpha_case(alpha)
        sub = alpha_substitution(alpha)
        disc = alpha_discriminant(alpha)
        roots = []
        for root in case.roots:
            if root.exact is not None:
                roots.append("%s (mult %d)" % (root.exact, root.multiplicity))
            else:
                roots.append("~%.12g [width<%g]" % (root.midpoint, float(root.width)))
        lines += [
            "alpha=%s case=%d" % (alpha, case.index),
            "  f(z) along y=alpha z: %s" % _poly1_str(case.f),
            "  roots: %s" % ("; ".join(roots) if roots else "none (no real roots)"),
            "  cubic discriminant 4a^3-3a^2+6a-7 = %s" % disc,
            "  exact substitution equals the printed form: %s" % sub.equal,
        ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.survey:
        run.write_text("alpha_survey.txt", text)
    return 0


def _poly1_str(poly) -> str:
    terms = []
    for (deg,) in sorted(poly.terms, reverse=True):
        terms.append("%s z^%d" % (poly.terms[(deg,)], deg))
    return " + ".join(terms) if terms else "0"


def _cmd_pde_residual(args, run: _Run) -> int:
    from .pde import pde_residual, residual_reconciliation

    vmax = args.vmax if args.vmax is not None else args.m + 1
    params = _params_for_checks(args.m, vmax)
    table = fill_table(params, vmax)
    if args.operator == "both":
        reports = residual_reconciliation(table)
        doc = {name: rep.to_json_dict() for name, rep in reports.items()}
        default_name = "residual_reconciliation_m%d.json" % args.m
        rc = 0
    else:
        rep = pde_residual(table, args.operator)
        reports = {args.operator: rep}
        doc = rep.to_json_dict()
        default_name = "residual_%s_m%d.json" % (args.operator, args.m)
        rc = 0 if rep.passed else 2
    path = run.write_text(args.json_file or default_name, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, rep in sorted(reports.items()):
        print(
            "operator=%s interior_nonzero=%d excluded=%d %s"
            % (
                name,
                len(rep.interior_nonzero),
                len(rep.excluded),
                "PASS" if rep.passed else "FAIL",
            )
        )
    print("wrote %s" % path)
    return rc


def _cmd_pde_verify_expansion(args, run: _Run) -> int:
    from .pde import expansion_audit

    run.seed = args.seed
    report = expansion_audit(n_points=args.points, seed=args.seed)
    path = run.write_text(args.csv, report.to_csv())
    summary = report.summary()
    for kind in ("expansion", "alpha_form"):
        tally = summary[kind]
        print(
            "%s: %d points, %d equal, %d unequal"
            % (kind, tally["total"], tally["equal"], tally["unequal"])
        )
    if summary["expansion"]["unequal"] or summary["alpha_form"]["unequal"]:
        print("verdict: printed forms do NOT reproduce the exact algebra")
    else:
        print("verdict: printed forms match the exact algebra")
    print("wrote %s" % path)
    return 0


# ----------------------------------------------------------------------
# errprob
# ----------------------------------------------------------------------


def _cmd_errprob_eval(args, run: _Run) -> int:
    from .errprob import block_error_probability

    result = block_error_probability(EnsembleParams(n=args.n, r=args.r), args.eps)
    print("x = %s" % _exact(result.x))
    print("E_B = %s" % _exact(result.value))
    print("E_B ~ %.15g" % float(result.value))
    if args.breakdown:
        for v, term in result.per_v:
            print("  v=%d term=%s (~%.6g)" % (v, _exact(term), float(term)))
    return 0


def _cmd_errprob_sweep(args, run: _Run) -> int:
    from .errprob import block_error_probability

    params = EnsembleParams(n=args.n, r=args.r)
    lines = ["epsilon,value,float_value"]
    for eps in args.eps_list:
        result = block_error_probability(params, eps)
        lines.append(
            "%s,%s,%.15g" % (eps, _exact(result.value), float(result.value))
        )
    path = run.write_text(args.csv, "\n".join(lines) + "\n")
    print("wrote %s (%d epsilon values)" % (path, len(args.eps_list)))
    return 0


def _cmd_errprob_hadamard_split(args, run: _Run) -> int:
    from .errprob import hadamard_split_report

    params = EnsembleParams(n=args.n, r=args.r)
    report = hadamard_split_report(params, args.t, args.s, args.vmax, x_grid=args.x_list or ())
    path = run.write_text(args.csv, report.to_csv())
    for est in report.estimates:
        print(
            "%s: window v=%d..%d estimate=%.6g radius=%s (%s)"
            % (est.series_id, est.window[0], est.window[1], est.estimate, est.radius, est.verdict)
        )
        for x, verdict in est.per_x:
            print("  x=%s -> %s" % (x, verdict))
    print("note: %s" % report.note)
    print("wrote %s" % path)
    return 0


def _cmd_errprob_hadamard_check(args, run: _Run) -> int:
    from .errprob import hadamard_contour
    from .series import geometric_series

    order = args.order
    f = geometric_series(order)
    g = geometric_series(order)
    z = float(args.z)
    exact = f.hadamard(g).evaluate(z)
    result = hadamard_contour(f, g, z, rho=args.rho, tol=args.tol)
    diff = abs(result.value - exact)
    print("quadrature value: %.15g%+.3gj" % (result.value.real, result.value.imag))
    print("coefficient-wise: %.15g" % exact)
    print("difference: %.3g with %d nodes" % (diff, result.nodes))
    if diff > 10 * args.tol:
        print("FAIL: difference above tolerance")
        return 2
    return 0


def _cmd_errprob_known_series(args, run: _Run) -> int:
    from .errprob import known_series_check

    report = known_series_check(args.n, args.x)
    print("n=%d x=%s" % (report.n, report.x))
    print("scaled identity  sum C(n,v) x^v / n^2v == (1 + x/n^2)^n : %s" % report.scaled_identity_ok)
    print("plain identity   sum C(n,v) x^v == (1 + x)^n          : %s" % report.plain_identity_ok)
    if report.factorial_trivial:
        print("factorial series: trivial at x = 0")
    else:
        print("factorial series diverges: %s" % report.factorial_diverges)
        if report.first_ratio_above_one is not None:
            print("  term ratio (v+1)|x| first exceeds 1 at v=%d" % report.first_ratio_above_one)
    print("note: %s" % report.note)
    return 0


# ----------------------------------------------------------------------
# simulate / reconcile
# ----------------------------------------------------------------------


def _cmd_simulate(args, run: _Run) -> int:
    from .simulator import estimate_block_error

    run.seed = args.seed
    params = EnsembleParams(n=args.n, r=args.r)
    result = estimate_block_error(params, args.eps, trials=args.trials, seed=args.seed)
    doc = result.to_json_dict()
    text = json.dumps(doc, indent=2) + "\n"
    print(text, end="")
    if args.json_file:
        path = run.write_text(args.json_file, text)
        print("wrote %s" % path, file=sys.stderr)
    return 0


_RECONCILE_NOTE = (
    "the analytic value is the exact block-failure probability (the chance "
    "that the erased variables' graph on the checks contains a cycle) and "
    "the simulation estimates the same probability; the verdict records CI "
    "containment, not asserted equality, since a 95% interval misses the "
    "exact value 1 time in 20 by chance"
)


def _cmd_reconcile(args, run: _Run) -> int:
    from .errprob import block_error_probability
    from .simulator import RNG_ID, _estimate_block_errors

    run.seed = args.seed
    params = EnsembleParams(n=args.n, r=args.r)
    # every analytic value first, so that an epsilon the exact side rejects
    # stops the run before a trial is drawn; then one draw for all epsilons
    analytics = [block_error_probability(params, eps) for eps in args.eps_list]
    sims = _estimate_block_errors(params, args.eps_list, trials=args.trials, seed=args.seed)
    rows = []
    for eps, analytic, mc in zip(args.eps_list, analytics, sims):
        lo, hi = mc.ci95
        verdict = "within-ci" if lo <= float(analytic.value) <= hi else "outside-ci"
        rows.append(
            {
                "epsilon": "%d/%d" % (eps.numerator, eps.denominator),
                "analytic": _exact(analytic.value),
                "analytic_float": float(analytic.value),
                "mc_p_hat": mc.p_hat,
                "mc_ci95": [lo, hi],
                "mc_failures": mc.failures,
                "verdict": verdict,
            }
        )
    doc = {
        "format": "cpreconcile/1",
        "n": args.n,
        "r": str(args.r),
        "m": params.m,
        "trials": args.trials,
        "seed": args.seed,
        "rng": RNG_ID,
        "rows": rows,
        "note": _RECONCILE_NOTE,
    }
    path = run.write_text(args.json_file, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("epsilon      analytic          mc_p_hat     ci95                      verdict")
    for row in rows:
        print(
            "%-12s %-17.10g %-12.6g [%.6g, %.6g]   %s"
            % (
                row["epsilon"],
                row["analytic_float"],
                row["mc_p_hat"],
                row["mc_ci95"][0],
                row["mc_ci95"][1],
                row["verdict"],
            )
        )
    print("note: %s" % _RECONCILE_NOTE)
    print("wrote %s" % path)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


class _Leaf(NamedTuple):
    """A subcommand: its --help line, its handler and its argument builder."""

    help: str
    handler: Callable
    add_args: Callable[[argparse.ArgumentParser], None]


class _Group(NamedTuple):
    """A group of subcommands: its --help line and its leaves, in --help order."""

    help: str
    leaves: dict[str, _Leaf]


def _series_demo_args(p) -> None:
    p.add_argument("--order", type=int, default=8)


def _table_build_args(p) -> None:
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--vmax", type=int, default=None)
    p.add_argument("--out", dest="out_file", default=None, help="output table file")


def _table_exponents_args(p) -> None:
    p.add_argument("--m", type=int, default=100)
    p.add_argument("--vmax", type=int, default=None)
    p.add_argument("--t-list", dest="t_list", type=_int_list, default=None)


def _table_verify_args(p) -> None:
    p.add_argument("--file", required=True)


def _stopping_sets_count_args(p) -> None:
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--digits", action="store_true", help="also print the decimal digit count")


def _pde_classify_args(p) -> None:
    p.add_argument("--y", type=_frac, required=True)
    p.add_argument("--z", type=_frac, required=True)


def _pde_region_args(p) -> None:
    p.add_argument("--y-range", dest="y_range", type=_range_pair, default=(Fraction(0), Fraction(4)))
    p.add_argument("--z-range", dest="z_range", type=_range_pair, default=(Fraction(0), Fraction(4)))
    p.add_argument("--grid", type=int, default=17)
    p.add_argument("--csv", default="region.csv")


def _pde_alpha_args(p) -> None:
    p.add_argument("--alpha", type=_frac, default=Fraction(1))
    p.add_argument("--survey", action="store_true", help="print all six canonical cases and write them to alpha_survey.txt")


def _pde_residual_args(p) -> None:
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--vmax", type=int, default=None)
    p.add_argument("--operator", choices=["recurrence", "printed", "both"], default="recurrence")
    p.add_argument("--json", dest="json_file", default=None)


def _pde_verify_expansion_args(p) -> None:
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20260816)
    p.add_argument("--csv", default="expansion_audit.csv")


def _errprob_eval_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_frac, required=True)
    p.add_argument("--eps", type=_frac, required=True)
    p.add_argument("--breakdown", action="store_true")


def _errprob_sweep_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_frac, required=True)
    p.add_argument("--eps-list", dest="eps_list", type=_frac_list, required=True)
    p.add_argument("--csv", default="errprob_sweep.csv")


def _errprob_hadamard_split_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_frac, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--vmax", type=int, default=None)
    p.add_argument("--x-list", dest="x_list", type=_frac_list, default=None)
    p.add_argument("--csv", default="hadamard_split.csv")


def _errprob_hadamard_check_args(p) -> None:
    p.add_argument("--z", type=_frac, default=Fraction(1, 4))
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--order", type=int, default=64)


def _errprob_known_series_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_frac, required=True)


def _simulate_args(p) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=_frac, required=True)
    p.add_argument("--eps", type=_frac, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", dest="json_file", default=None)


def _reconcile_args(p) -> None:
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--r", type=_frac, default=Fraction(1, 2))
    p.add_argument("--eps-list", dest="eps_list", type=_frac_list, default=[Fraction(1, 20), Fraction(1, 10)])
    p.add_argument("--trials", type=int, default=200_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", dest="json_file", default="reconcile.json")


# the command tree in the order --help lists it; simulate and reconcile are
# leaves at the top level
_GROUPS: dict[str, _Group | _Leaf] = {
    "series": _Group(
        "power series toolkit demo",
        {"demo": _Leaf("walk through the series operations", _cmd_series_demo, _series_demo_args)},
    ),
    "table": _Group(
        "coefficient tables and growth profiles",
        {
            "build": _Leaf("fill a table and save it", _cmd_table_build, _table_build_args),
            "exponents": _Leaf(
                "emit growth-exponent CSV profiles and a plot script",
                _cmd_table_exponents,
                _table_exponents_args,
            ),
            "verify": _Leaf("re-check a saved table", _cmd_table_verify, _table_verify_args),
        },
    ),
    "stopping-sets": _Group(
        "closed-form stopping-set counts",
        {
            "count": _Leaf(
                "count assignments covering t checks twice",
                _cmd_stopping_sets_count,
                _stopping_sets_count_args,
            ),
        },
    ),
    "pde": _Group(
        "discriminant classification and residual checks",
        {
            "classify": _Leaf("classify one (y, z) point", _cmd_pde_classify, _pde_classify_args),
            "region": _Leaf("classify a rational grid to CSV", _cmd_pde_region, _pde_region_args),
            "alpha": _Leaf("case split along the ray y = alpha z", _cmd_pde_alpha, _pde_alpha_args),
            "residual": _Leaf("apply the operator to a filled table", _cmd_pde_residual, _pde_residual_args),
            "verify-paper-expansion": _Leaf(
                "audit the printed discriminant expansion against the exact algebra",
                _cmd_pde_verify_expansion,
                _pde_verify_expansion_args,
            ),
        },
    ),
    "errprob": _Group(
        "analytic block-error evaluation",
        {
            "eval": _Leaf("evaluate the expected block error once", _cmd_errprob_eval, _errprob_eval_args),
            "sweep": _Leaf("sweep epsilon values to CSV", _cmd_errprob_sweep, _errprob_sweep_args),
            "hadamard-split": _Leaf(
                "exact radii and verdicts for one (t,s) column",
                _cmd_errprob_hadamard_split,
                _errprob_hadamard_split_args,
            ),
            "hadamard-check": _Leaf(
                "contour quadrature vs coefficient-wise evaluation",
                _cmd_errprob_hadamard_check,
                _errprob_hadamard_check_args,
            ),
            "known-series": _Leaf(
                "finite binomial identities and the divergent factorial sum",
                _cmd_errprob_known_series,
                _errprob_known_series_args,
            ),
        },
    ),
    "simulate": _Leaf("Monte Carlo decoder simulation", _cmd_simulate, _simulate_args),
    "reconcile": _Leaf("analytic value vs Monte Carlo, side by side", _cmd_reconcile, _reconcile_args),
}


def _fill_leaf(p: argparse.ArgumentParser, leaf: _Leaf, label: str) -> argparse.ArgumentParser:
    """p given the leaf's handler, command label and options."""
    p.set_defaults(handler=leaf.handler, cmd_label=label)
    leaf.add_args(p)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the whole command tree."""
    parser = argparse.ArgumentParser(
        prog="cyclepoisson",
        description="Exact stopping-set tables, PDE checks and decoder simulation "
        "for the cycle Poisson ensemble.",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output directory for artifacts and manifest.json "
        "(default: $%s or the working directory)" % OUT_ENV_VAR,
    )
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")
    for name, entry in _GROUPS.items():
        if isinstance(entry, _Leaf):
            _fill_leaf(groups.add_parser(name, help=entry.help), entry, name)
            continue
        sub = groups.add_parser(name, help=entry.help).add_subparsers(dest="sub", required=True, metavar="CMD")
        for leaf_name, leaf in entry.leaves.items():
            _fill_leaf(sub.add_parser(leaf_name, help=leaf.help), leaf, "%s %s" % (name, leaf_name))
    return parser


class _Branch(NamedTuple):
    """What an argv names before its leaf's options; see `_named_branch`."""

    group: str | None = None
    sub: str | None = None
    leaf: _Leaf | None = None
    out: str | None = None
    rest: tuple[str, ...] = ()


def _named_branch(argv: list[str]) -> _Branch:
    """The group and leaf an argv names, the --out before them, and the rest.

    The group is the first token after any `--out VALUE` or `--out=VALUE`
    pairs (VALUE not starting with "-"), if it is a known group name, and
    `out` is the last such VALUE.  Anything else (--help, abbreviations,
    "--", an unknown or missing group) names no group and is left to the
    full tree, which also owns those messages.  The leaf is the group
    itself if it is a top-level leaf (simulate, reconcile), else the token
    right after the group (`sub`) if it is one of that group's leaves, and
    `rest` holds the tokens after the leaf.  No leaf is named where that
    token is no leaf (the group's --help, an unknown leaf, an option
    before the leaf), or where a token of the rest before any "--" starts
    with "--=": the root reads every such token as an option and rejects
    this one as ambiguous between --help and --out, before the leaf sees
    it.  Then the full tree parses the argv.
    """
    i = 0
    out = None
    while i < len(argv):
        token = argv[i]
        if token == "--out" and i + 1 < len(argv) and not argv[i + 1].startswith("-"):
            out = argv[i + 1]
            i += 2
        elif token.startswith("--out=") and not token[len("--out="):].startswith("-"):
            out = token[len("--out="):]
            i += 1
        else:
            entry = _GROUPS.get(token)
            if entry is None:
                return _Branch()
            sub = None
            if isinstance(entry, _Group):
                sub = argv[i + 1] if i + 1 < len(argv) else None
                entry = entry.leaves.get(sub)
                i += 1
            rest = argv[i + 1:]
            options = rest[: rest.index("--")] if "--" in rest else rest
            if entry is None or any(t.startswith("--=") for t in options):
                return _Branch()
            return _Branch(token, sub, entry, out, tuple(rest))
    return _Branch()


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the full tree would give, from the leaf's parser where it gives it.

    A named leaf is parsed by its own parser alone, built as the tree
    builds it, and the namespace gets the root's and group's values.  If
    that parser leaves tokens it does not know, or no leaf is named, the
    full tree parses the argv, so it reports them as it always did.
    """
    branch = _named_branch(argv)
    if branch.leaf is not None:
        label = branch.group if branch.sub is None else "%s %s" % (branch.group, branch.sub)
        parser = _fill_leaf(argparse.ArgumentParser(prog="cyclepoisson " + label), branch.leaf, label)
        args, extras = parser.parse_known_args(branch.rest)
        if not extras:
            args.out = branch.out
            args.group = branch.group
            if branch.sub is not None:
                args.sub = branch.sub
            return args
    return build_parser().parse_args(argv)


def _write_manifest(run: _Run, args, argv: list[str]) -> None:
    manifest = {
        "cmd": args.cmd_label,
        "args": argv,
        "seed": run.seed,
        "artifact_hashes": run.hashes,
    }
    run.out_dir.mkdir(parents=True, exist_ok=True)
    path = run.out_dir / "manifest.json"
    _write_over(path, [(json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help
        return 0 if not exc.code else 1
    out_dir = Path(args.out or os.environ.get(OUT_ENV_VAR) or ".")
    run = _Run(out_dir=out_dir)
    try:
        rc = args.handler(args, run)
        if run.hashes:
            _write_manifest(run, args, argv)
        return rc
    except CyclePoissonError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
