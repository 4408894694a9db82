"""Subcommand front end tying the library together.

Every run resolves an output directory (--out, else the CYCLEPOISSON_OUT
environment variable, else the working directory), executes exactly one
subcommand, and finishes by writing `manifest.json` there: the command,
its arguments, the seed if one was used, and a sha256 per emitted
artifact.  Re-running the recorded command line reproduces every artifact
byte for byte.

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

from .combinatorics import binomial, log10_int
from .errors import CyclePoissonError, ValidationError
from .errprob import (
    ErrProbQuery,
    expected_block_error,
    hadamard_contour,
    hadamard_split_report,
    known_series_check,
)
from .pde import (
    alpha_case,
    alpha_discriminant,
    alpha_substitution,
    classify_point,
    expansion_audit,
    pde_residual,
    region_map,
    residual_reconciliation,
)
from .series import geometric_series, poisson_block_series
from .simulator import estimate_block_error
from .table import (
    BaseConfig,
    EnsembleParams,
    fill_table,
    growth_profile,
    load_table,
    save_table,
    stopping_set_count,
    verify_table,
)

DEFAULT_T_LIST = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50)
OUT_ENV_VAR = "CYCLEPOISSON_OUT"


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % (text,))


def _frac_list(text: str) -> list[Fraction]:
    return [_frac(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("not a comma-separated integer list: %r" % (text,))


def _range_pair(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected lo:hi, got %r" % (text,))
    return (_frac(parts[0]), _frac(parts[1]))


def _params_for_checks(m: int, depth: int) -> EnsembleParams:
    """Parameters with exactly m checks and enough variables for depth."""
    n = max(m, depth, 1)
    return EnsembleParams(n=n, r=Fraction(n - m, n))


class _Run:
    """Collects artifacts and the seed for the end-of-run manifest."""

    def __init__(self, out_dir: Path, threads: int):
        self.out_dir = out_dir
        self.threads = threads
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
        target.write_bytes(data)
        self.hashes[self._name_for(target)] = hashlib.sha256(data).hexdigest()
        return target

    def record_file(self, target: Path) -> None:
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        self.hashes[self._name_for(target)] = digest


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------


def _cmd_series_demo(args, run: _Run) -> int:
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
    table = fill_table(params, args.vmax, base=BaseConfig.from_label(args.base))
    out_path = run.resolve(args.out_file or ("table_m%d_v%d.cpt" % (args.m, args.vmax)))
    print("filled m=%d vmax=%d, %d nonzero entries" % (table.m, table.vmax, len(table.entries)))
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_table(table, out_path)
    run.record_file(out_path)
    print("wrote %s" % out_path)
    return 0


def _cmd_table_exponents(args, run: _Run) -> int:
    m = args.m
    vmax = args.vmax if args.vmax is not None else m
    t_list = args.t_list or list(DEFAULT_T_LIST)
    profile = growth_profile(m, vmax, t_list)
    out_names = []
    top = None
    for t in t_list:
        rows = profile.get(t, [])
        have = {v for v, _ in rows}
        lines = ["v,g"]
        for v in range(1, vmax + 1):
            match = [g for (vv, g) in rows if vv == v]
            if match:
                lines.append("%d,%.15g" % (v, match[0]))
                top = match[0] if top is None else max(top, match[0])
            elif v not in have:
                lines.append("# v=%d gap zero-coefficient" % v)
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
    table = load_table(Path(args.file))
    problems = verify_table(table)
    print("table: m=%d vmax=%d, %d entries" % (table.m, table.vmax, len(table.entries)))
    if problems:
        for p in problems:
            print("FAIL %s" % p)
        return 2
    print("ok: support, base, boundary and recurrence checks all pass")
    return 0


def _cmd_stopping_sets_count(args, run: _Run) -> int:
    params = _params_for_checks(args.m, args.v)
    count = stopping_set_count(params, args.v, args.t)
    print(count)
    if count > 0 and args.digits:
        print("digits: %d" % (int(log10_int(count)) + 1))
    return 0


# ----------------------------------------------------------------------
# pde
# ----------------------------------------------------------------------


def _cmd_pde_classify(args, run: _Run) -> int:
    point = classify_point(args.y, args.z)
    print("%s %s" % (point.label, point.value))
    return 0


def _cmd_pde_region(args, run: _Run) -> int:
    rmap = region_map(args.y_range, args.z_range, args.grid)
    path = run.write_text(args.csv, rmap.to_csv())
    counts = rmap.counts()
    print("wrote %s" % path)
    print(" ".join("%s=%d" % (k, v) for k, v in sorted(counts.items())))
    return 0


def _cmd_pde_alpha(args, run: _Run) -> int:
    alphas = [args.alpha]
    if args.survey:
        alphas = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(5)]
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
        print("alpha=%s case=%d" % (alpha, case.index))
        print("  f(z) along y=alpha z: %s" % _poly1_str(case.f))
        print("  roots: %s" % ("; ".join(roots) if roots else "none (no real roots)"))
        print("  cubic discriminant 4a^3-3a^2+6a-7 = %s" % disc)
        print("  exact substitution equals the printed form: %s" % sub.equal)
    return 0


def _poly1_str(poly) -> str:
    terms = []
    for deg in sorted(poly.terms, reverse=True):
        terms.append("%s z^%d" % (poly.terms[deg], deg))
    return " + ".join(terms) if terms else "0"


def _cmd_pde_residual(args, run: _Run) -> int:
    vmax = args.vmax if args.vmax is not None else args.m + 1
    params = _params_for_checks(args.m, vmax)
    table = fill_table(params, vmax)
    if args.operator == "both":
        reports = residual_reconciliation(table)
        doc = {name: rep.to_json_dict() for name, rep in reports.items()}
        default_name = "residual_reconciliation_m%d.json" % args.m
        rc = 0
    else:
        coeffs = None
        if args.operator == "printed":
            from .pde import pde_coefficients

            coeffs = pde_coefficients(params)
        rep = pde_residual(table, coefficients=coeffs, operator_name=args.operator)
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


def _build_query(n: int, r: Fraction, eps: Fraction, vmax: int) -> ErrProbQuery:
    params = EnsembleParams(n=n, r=r)
    table = fill_table(params, vmax)
    return ErrProbQuery(params=params, epsilon=eps, table=table)


def _cmd_errprob_eval(args, run: _Run) -> int:
    vmax = args.vmax if args.vmax is not None else args.n
    query = _build_query(args.n, args.r, args.eps, vmax)
    result = expected_block_error(query)
    print("x = %s" % query.x)
    print("E_B = %s" % result.value)
    print("E_B ~ %.15g" % float(result.value))
    if args.breakdown:
        for v, term in result.per_v:
            print("  v=%d term=%s (~%.6g)" % (v, term, float(term)))
    return 0


def _cmd_errprob_sweep(args, run: _Run) -> int:
    vmax = args.vmax if args.vmax is not None else args.n
    params = EnsembleParams(n=args.n, r=args.r)
    table = fill_table(params, vmax)
    lines = ["epsilon,value,float_value"]
    for eps in args.eps_list:
        query = ErrProbQuery(params=params, epsilon=eps, table=table)
        result = expected_block_error(query)
        lines.append(
            "%s,%s,%.15g" % (eps, result.value, float(result.value))
        )
    path = run.write_text(args.csv, "\n".join(lines) + "\n")
    print("wrote %s (%d epsilon values)" % (path, len(args.eps_list)))
    return 0


def _cmd_errprob_hadamard_split(args, run: _Run) -> int:
    vmax = args.vmax if args.vmax is not None else args.n
    params = EnsembleParams(n=args.n, r=args.r)
    table = fill_table(params, vmax)
    report = hadamard_split_report(table, args.t, args.s, args.n, x_grid=args.x_list or ())
    path = run.write_text(args.csv, report.to_csv())
    for est in report.estimates:
        print(
            "%s: window v=%d..%d estimate=%.6g radius=%.6g (%s)"
            % (est.series_id, est.window[0], est.window[1], est.estimate, est.radius, est.verdict)
        )
        for x, verdict in est.per_x:
            print("  x=%s -> %s" % (x, verdict))
    print("note: %s" % report.note)
    print("wrote %s" % path)
    return 0


def _cmd_errprob_hadamard_check(args, run: _Run) -> int:
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
    run.seed = args.seed
    params = EnsembleParams(n=args.n, r=args.r)
    result = estimate_block_error(
        params, args.eps, trials=args.trials, seed=args.seed, threads=run.threads
    )
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
    run.seed = args.seed
    params = EnsembleParams(n=args.n, r=args.r)
    table = fill_table(params, args.n)
    rows = []
    for eps in args.eps_list:
        query = ErrProbQuery(params=params, epsilon=eps, table=table)
        analytic = expected_block_error(query)
        mc = estimate_block_error(
            params, eps, trials=args.trials, seed=args.seed, threads=run.threads
        )
        lo, hi = mc.ci95
        verdict = "within-ci" if lo <= float(analytic.value) <= hi else "outside-ci"
        rows.append(
            {
                "epsilon": "%d/%d" % (eps.numerator, eps.denominator),
                "analytic": str(analytic.value),
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
        "rng": "splitmix64-ctr/v1",
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


def build_parser() -> argparse.ArgumentParser:
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
    parser.add_argument(
        "--threads", type=int, default=1, help="worker threads for simulate and reconcile"
    )
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    def leaf(sub, name, handler, label, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler, cmd_label=label)
        return p

    # series
    series = groups.add_parser("series", help="power series toolkit demo")
    series_sub = series.add_subparsers(dest="sub", required=True, metavar="CMD")
    demo = leaf(series_sub, "demo", _cmd_series_demo, "series demo", help="walk through the series operations")
    demo.add_argument("--order", type=int, default=8)

    # table
    table = groups.add_parser("table", help="coefficient tables and growth profiles")
    table_sub = table.add_subparsers(dest="sub", required=True, metavar="CMD")
    build = leaf(table_sub, "build", _cmd_table_build, "table build", help="fill a table and save it")
    build.add_argument("--m", type=int, default=None)
    build.add_argument("--vmax", type=int, default=None)
    build.add_argument("--base", choices=["unit-origin", "empty"], default="unit-origin")
    build.add_argument("--out", dest="out_file", default=None, help="output table file")
    expo = leaf(
        table_sub,
        "exponents",
        _cmd_table_exponents,
        "table exponents",
        help="emit growth-exponent CSV profiles and a plot script",
    )
    expo.add_argument("--m", type=int, default=100)
    expo.add_argument("--vmax", type=int, default=None)
    expo.add_argument("--t-list", dest="t_list", type=_int_list, default=None)
    verify = leaf(table_sub, "verify", _cmd_table_verify, "table verify", help="re-check a saved table")
    verify.add_argument("--file", required=True)

    # stopping-sets
    stopping = groups.add_parser("stopping-sets", help="closed-form stopping-set counts")
    stopping_sub = stopping.add_subparsers(dest="sub", required=True, metavar="CMD")
    count = leaf(stopping_sub, "count", _cmd_stopping_sets_count, "stopping-sets count", help="count assignments covering t checks twice")
    count.add_argument("--m", type=int, required=True)
    count.add_argument("--v", type=int, required=True)
    count.add_argument("--t", type=int, required=True)
    count.add_argument("--digits", action="store_true", help="also print the decimal digit count")

    # pde
    pde = groups.add_parser("pde", help="discriminant classification and residual checks")
    pde_sub = pde.add_subparsers(dest="sub", required=True, metavar="CMD")
    classify = leaf(pde_sub, "classify", _cmd_pde_classify, "pde classify", help="classify one (y, z) point")
    classify.add_argument("--y", type=_frac, required=True)
    classify.add_argument("--z", type=_frac, required=True)
    region = leaf(pde_sub, "region", _cmd_pde_region, "pde region", help="classify a rational grid to CSV")
    region.add_argument("--y-range", dest="y_range", type=_range_pair, default=(Fraction(0), Fraction(4)))
    region.add_argument("--z-range", dest="z_range", type=_range_pair, default=(Fraction(0), Fraction(4)))
    region.add_argument("--grid", type=int, default=17)
    region.add_argument("--csv", default="region.csv")
    alpha = leaf(pde_sub, "alpha", _cmd_pde_alpha, "pde alpha", help="case split along the ray y = alpha z")
    alpha.add_argument("--alpha", type=_frac, default=Fraction(1))
    alpha.add_argument("--survey", action="store_true", help="print all six canonical cases")
    residual = leaf(pde_sub, "residual", _cmd_pde_residual, "pde residual", help="apply the operator to a filled table")
    residual.add_argument("--m", type=int, default=5)
    residual.add_argument("--vmax", type=int, default=None)
    residual.add_argument("--operator", choices=["recurrence", "printed", "both"], default="recurrence")
    residual.add_argument("--json", dest="json_file", default=None)
    audit = leaf(
        pde_sub,
        "verify-paper-expansion",
        _cmd_pde_verify_expansion,
        "pde verify-paper-expansion",
        help="audit the printed discriminant expansion against the exact algebra",
    )
    audit.add_argument("--points", type=int, default=1000)
    audit.add_argument("--seed", type=int, default=20260816)
    audit.add_argument("--csv", default="expansion_audit.csv")

    # errprob
    errprob = groups.add_parser("errprob", help="analytic block-error evaluation")
    errprob_sub = errprob.add_subparsers(dest="sub", required=True, metavar="CMD")
    ev = leaf(errprob_sub, "eval", _cmd_errprob_eval, "errprob eval", help="evaluate the expected block error once")
    ev.add_argument("--n", type=int, required=True)
    ev.add_argument("--r", type=_frac, required=True)
    ev.add_argument("--eps", type=_frac, required=True)
    ev.add_argument("--vmax", type=int, default=None)
    ev.add_argument("--breakdown", action="store_true")
    sweep = leaf(errprob_sub, "sweep", _cmd_errprob_sweep, "errprob sweep", help="sweep epsilon values to CSV")
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--r", type=_frac, required=True)
    sweep.add_argument("--eps-list", dest="eps_list", type=_frac_list, required=True)
    sweep.add_argument("--vmax", type=int, default=None)
    sweep.add_argument("--csv", default="errprob_sweep.csv")
    split = leaf(errprob_sub, "hadamard-split", _cmd_errprob_hadamard_split, "errprob hadamard-split", help="root-test radius estimates for one (t,s) column")
    split.add_argument("--n", type=int, required=True)
    split.add_argument("--r", type=_frac, required=True)
    split.add_argument("--t", type=int, required=True)
    split.add_argument("--s", type=int, required=True)
    split.add_argument("--vmax", type=int, default=None)
    split.add_argument("--x-list", dest="x_list", type=_frac_list, default=None)
    split.add_argument("--csv", default="hadamard_split.csv")
    check = leaf(errprob_sub, "hadamard-check", _cmd_errprob_hadamard_check, "errprob hadamard-check", help="contour quadrature vs coefficient-wise evaluation")
    check.add_argument("--z", type=_frac, default=Fraction(1, 4))
    check.add_argument("--rho", type=float, default=0.5)
    check.add_argument("--tol", type=float, default=1e-8)
    check.add_argument("--order", type=int, default=64)
    known = leaf(errprob_sub, "known-series", _cmd_errprob_known_series, "errprob known-series", help="finite binomial identities and the divergent factorial sum")
    known.add_argument("--n", type=int, required=True)
    known.add_argument("--x", type=_frac, required=True)

    # simulate
    simulate = groups.add_parser("simulate", help="Monte Carlo decoder simulation")
    simulate.set_defaults(handler=_cmd_simulate, cmd_label="simulate")
    simulate.add_argument("--n", type=int, required=True)
    simulate.add_argument("--r", type=_frac, required=True)
    simulate.add_argument("--eps", type=_frac, required=True)
    simulate.add_argument("--trials", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--json", dest="json_file", default=None)

    # reconcile
    reconcile = groups.add_parser("reconcile", help="analytic value vs Monte Carlo, side by side")
    reconcile.set_defaults(handler=_cmd_reconcile, cmd_label="reconcile")
    reconcile.add_argument("--n", type=int, default=8)
    reconcile.add_argument("--r", type=_frac, default=Fraction(1, 2))
    reconcile.add_argument("--eps-list", dest="eps_list", type=_frac_list, default=[Fraction(1, 20), Fraction(1, 10)])
    reconcile.add_argument("--trials", type=int, default=200_000)
    reconcile.add_argument("--seed", type=int, default=1)
    reconcile.add_argument("--json", dest="json_file", default="reconcile.json")

    return parser


def _write_manifest(run: _Run, args, argv: list[str]) -> None:
    manifest = {
        "cmd": args.cmd_label,
        "args": argv,
        "seed": run.seed,
        "artifact_hashes": run.hashes,
    }
    path = run.out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 on --help
        return 0 if not exc.code else 1
    out_dir = Path(args.out or os.environ.get(OUT_ENV_VAR) or ".")
    run = _Run(out_dir=out_dir, threads=max(1, args.threads))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        rc = args.handler(args, run)
        _write_manifest(run, args, argv)
        return rc
    except ValidationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CyclePoissonError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
