"""The benchmark's workloads: CLI command sequences, value checks, layer calls.

Each workload is a short sequence of `cyclepoisson` CLI runs that users make,
a value check per run, and a traced pass that calls the public library
functions on the same inputs so each layer can be timed on its own.

Checks compare values (loaded tables, parsed exponents, failure counts,
exact rationals), never file bytes or stdout text, so a change of file
format or log output does not count as a wrong answer.

The two exact workloads (`exact_build`, `deep_profile`) have no random
input: the seed changes nothing in them.  In `monte_carlo` and
`small_reconcile` the seed is the simulator's `--seed` and, in the traced
pass, picks the extra epsilon values of the E_B grid.  Reference failure
counts are stored for DEFAULT_SEED only; any seed is checked by replaying
its first trials through the independent peeling decoder.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from cyclepoisson import (
    CyclePoissonError,
    EnsembleParams,
    ErrProbQuery,
    binomial,
    block_partition_count,
    boundary_layer,
    estimate_block_error,
    exhaustive_block_error,
    expected_block_error,
    factorial,
    fill_table,
    growth_profile,
    load_table,
    log_fraction,
    poisson_block_series,
    replay_trial,
    save_table,
    stopping_set_count,
    verify_table,
)

DEFAULT_SEED = 1
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# `table exponents` uses this t list when --t-list is not given
CLI_DEFAULT_T_LIST = (1, 2, 3, 4, 5, 10, 20, 30, 40, 50)

# "full" is what the benchmark measures; "smoke" is a seconds-long run of
# the same code paths for the benchmark's own test.  Full sizes keep every
# command under about a second, so that a run holds dozens of passes and the
# probes timed around a command (see probes.py) see the host it ran on.
SIZES = {
    "exact_build": {
        "full": {"m": 12, "vmax": 16},
        "smoke": {"m": 4, "vmax": 6},
    },
    "deep_profile": {
        "full": {"m": 60, "vmax": 60, "shallow": 30, "t_list": None},
        "smoke": {"m": 12, "vmax": 12, "shallow": 6, "t_list": [1, 2, 3, 5, 10]},
    },
    "monte_carlo": {
        "full": {"n": 200, "r": "1/2", "eps": ["1/20", "1/5"], "trials": 4000, "replay": 500},
        "smoke": {"n": 20, "r": "1/2", "eps": ["1/20", "1/5"], "trials": 2000, "replay": 50},
    },
    "small_reconcile": {
        "full": {"n": 8, "r": "1/2", "eps": ["1/20", "1/10"], "trials": 40000,
                 "tiny_trials": 1000000, "replay": 2000},
        "smoke": {"n": 6, "r": "1/2", "eps": ["1/20", "1/10"], "trials": 5000,
                  "tiny_trials": 20000, "replay": 200},
    },
}

# why each workload exists, and which layer does the most and the least work
PURPOSE = {
    "exact_build": {
        "why": "exact write path: table build then table verify at m=12, vmax=16",
        "busiest": "table (verify_table's stopping_set_count grid, then the s=0 Fraction sweep)",
        "idlest": "simulator (never called)",
    },
    "deep_profile": {
        "why": "deep narrow s=0 sweep: table exponents --m 60 (order 120, 10 t values), then at vmax 30",
        "busiest": "table (boundary_layer power sweep inside growth_profile)",
        "idlest": "simulator and table I/O (never called)",
    },
    "monte_carlo": {
        "why": "large simulate runs: n=200, 4000 trials at eps 1/20 (sparse, ~10% fail) and 1/5 (dense, ~52% fail)",
        "busiest": "simulator (splitmix64 draws and the per-trial union-find)",
        "idlest": "table, series and errprob (never called)",
    },
    "small_reconcile": {
        "why": "many tiny trials: reconcile at n=8 (fill, exact E_B, 2x40000 trials), then simulate n=3 with 1e6 trials",
        "busiest": "simulator (per-trial overhead and the tiny-instance path)",
        "idlest": "table (a 4-check fill) and errprob (two E_B sums)",
    },
}


# the probes (see probes.py) of each kind of command: exact tables are
# rational arithmetic run by the interpreter; a sampled run is numpy draws
# plus a per-trial Python failure test; reconcile does both; the
# tiny-instance path is numpy only
EXACT = ("fraction", "python")
SAMPLED = ("python", "numpy")
RECONCILE = ("fraction", "python", "numpy")
LOOKUP = ("numpy",)


@dataclass
class Command:
    """One CLI run and the check of what it produced."""

    label: str
    argv: list[str]
    check: Callable[[int], list[str]]  # exit code -> problems found
    probes: tuple[str, ...]  # probes.PROBES of the kinds of work the command does


@dataclass
class Workload:
    commands: list[Command]
    layers: Callable  # (tracer) -> problems found


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def make(name: str, seed: int, scale: str, reference: dict, out: Path) -> Workload:
    """Build the named workload; every artifact goes under `out`."""
    builder = _BUILDERS[name]
    return builder(SIZES[name][scale], seed, reference[name][scale], out)


def compute_reference(name: str, scale: str) -> dict:
    """Reference values from the library at the current commit."""
    return _REFERENCES[name](SIZES[name][scale])


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _table_params(m: int, vmax: int) -> EnsembleParams:
    """The parameters `table build` uses: m checks, n = max(m, vmax)."""
    n = max(m, vmax, 1)
    return EnsembleParams(n=n, r=Fraction(n - m, n))


def _table_digest(entries) -> str:
    """sha256 of the table's values; independent of the file format."""
    h = hashlib.sha256()
    for (v, t, s), val in sorted(entries.items()):
        h.update(b"%d %d %d %d %d\n" % (v, t, s, val.numerator, val.denominator))
    return h.hexdigest()


def _max_den_bits(entries) -> int:
    return max((val.denominator.bit_length() for val in entries.values()), default=0)


def _exit_problems(rc: int) -> list[str]:
    return [] if rc == 0 else ["exit code %d" % rc]


def _once(fn):
    """Call fn on first use and keep its result for the rest of the run."""
    box = []

    def get():
        if not box:
            box.append(fn())
        return box[0]

    return get


def _replay_problems(params, eps, seed, k) -> list[str]:
    """The batched estimator and the peeling replay agree on the first k trials."""
    batched = estimate_block_error(params, eps, trials=k, seed=seed).failures
    replayed = sum(replay_trial(params, eps, seed, i).failed for i in range(k))
    if batched != replayed:
        return ["n=%d eps=%s: %d failures batched, %d replayed over %d trials"
                % (params.n, eps, batched, replayed, k)]
    return []


def _sim_doc_problems(doc, params, eps, trials, seed, want) -> list[str]:
    """Check a simulate JSON document by value."""
    problems = []
    echo = {"n": params.n, "m": params.m, "trials": trials, "seed": seed}
    for key, val in echo.items():
        if doc.get(key) != val:
            problems.append("%s=%r, expected %r" % (key, doc.get(key), val))
    if Fraction(doc.get("epsilon", "-1")) != eps:
        problems.append("epsilon=%r, expected %s" % (doc.get("epsilon"), eps))
    failures = doc.get("failures")
    if not isinstance(failures, int) or not 0 <= failures <= trials:
        return problems + ["failures=%r outside 0..%d" % (failures, trials)]
    if doc.get("p_hat") != failures / trials:
        problems.append("p_hat=%r does not equal failures/trials" % (doc.get("p_hat"),))
    if want is not None and failures != want:
        problems.append("failures=%d, reference %d" % (failures, want))
    return problems


def _eps_grid(seed: int, base, extra: int = 6) -> list[Fraction]:
    """The traced E_B grid: the workload's epsilons plus seed-drawn ones."""
    rng = random.Random(seed)
    return list(base) + [Fraction(rng.randint(1, 49), 100) for _ in range(extra)]


# ----------------------------------------------------------------------
# exact_build
# ----------------------------------------------------------------------


def _exact_build(size, seed, ref, out: Path) -> Workload:
    m, vmax = size["m"], size["vmax"]
    cpt = out / "table.cpt"
    sample = [(vmax, t) for t in range(1, min(m, vmax) + 1)] + [(v, 1) for v in range(1, vmax)]

    def table_problems() -> list[str]:
        table = load_table(cpt)
        problems = []
        if table.is_partial or table.m != m or table.vmax != vmax:
            problems.append("loaded m=%d vmax=%d partial=%s, expected complete m=%d vmax=%d"
                            % (table.m, table.vmax, table.is_partial, m, vmax))
        if len(table.entries) != ref["entries"] or _table_digest(table.entries) != ref["digest"]:
            problems.append("table values differ from the reference")
        # v! 2^v A(v,t,0) counts stopping sets: binom(m,t) ordered block covers
        for v, t in sample:
            lhs = factorial(v) * 2**v * table.value(v, t, 0)
            if lhs != binomial(m, t) * block_partition_count(2 * v, t, 2):
                problems.append("A(%d,%d,0) disagrees with block_partition_count" % (v, t))
        return problems

    def check(rc):
        return _exit_problems(rc) + table_problems()

    base = ["--out", str(out), "table"]
    commands = [
        Command("table build", base + ["build", "--m", str(m), "--vmax", str(vmax), "--out", cpt.name], check,
                EXACT),
        # a passing verify of the reference table
        Command("table verify", base + ["verify", "--file", str(cpt)], check, EXACT),
    ]

    def layers(tracer) -> list[str]:
        params = _table_params(m, vmax)
        t_top = min(m, vmax)
        with tracer.span("table.boundary_sweep"):
            boundary_layer(m, vmax, range(1, t_top + 1))
        with tracer.span("series.block_series"):
            for t in range(1, t_top + 1):
                poisson_block_series(t, 2 * vmax)
        with tracer.span("table.fill") as attrs:
            table = fill_table(params, vmax)
        attrs.update(entries=len(table.entries), max_den_bits=_max_den_bits(table.entries))
        path = out / "layers.cpt"
        with tracer.span("table.save") as attrs:
            save_table(table, path)
        attrs["bytes"] = path.stat().st_size
        with tracer.span("table.load"):
            loaded = load_table(path)
        with tracer.span("table.verify"):
            violations = verify_table(loaded)
        with tracer.span("table.stopping_set_count"):
            for v in range(1, vmax + 1):
                for t in range(1, m + 1):
                    stopping_set_count(params, v, t)
        problems = ["verify_table: %s" % p for p in violations]
        if loaded != table or _table_digest(table.entries) != ref["digest"]:
            problems.append("library table differs from the reference")
        return problems

    return Workload(commands, layers)


def _exact_build_reference(size) -> dict:
    table = fill_table(_table_params(size["m"], size["vmax"]), size["vmax"])
    return {"entries": len(table.entries), "digest": _table_digest(table.entries)}


# ----------------------------------------------------------------------
# deep_profile
# ----------------------------------------------------------------------


def _read_profile(path: Path) -> dict[int, float]:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#") or line == "v,g":
                continue
            v, g = line.split(",")
            out[int(v)] = float(g)
    return out


def _deep_profile(size, seed, ref, out: Path) -> Workload:
    m, vmax, shallow = size["m"], size["vmax"], size["shallow"]
    t_list = size["t_list"] or list(CLI_DEFAULT_T_LIST)
    expected = {int(t): {v: g for v, g in rows} for t, rows in ref["exponents"].items()}

    def check_at(depth):
        def check(rc):
            problems = _exit_problems(rc)
            for t in t_list:
                want = {v: g for v, g in expected[t].items() if v <= depth}
                got = _read_profile(out / ("g_t%d_m%d.csv" % (t, m)))
                if set(got) != set(want):
                    problems.append("t=%d: profile covers v=%s, expected %s"
                                    % (t, sorted(got), sorted(want)))
                    continue
                bad = [v for v in want if not math.isclose(got[v], want[v], rel_tol=1e-12, abs_tol=0.0)]
                if bad:
                    problems.append("t=%d: exponents off at v=%s" % (t, bad[:5]))
            return problems

        return check

    argv = ["--out", str(out), "table", "exponents", "--m", str(m)]
    if size["t_list"]:
        argv += ["--t-list", ",".join(str(t) for t in t_list)]
    commands = [
        Command("table exponents", argv, check_at(vmax), EXACT),
        Command("table exponents shallow", argv + ["--vmax", str(shallow)], check_at(shallow), EXACT),
    ]

    def layers(tracer) -> list[str]:
        with tracer.span("table.boundary_sweep"):
            layer = boundary_layer(m, vmax, t_list)
        ratios = [vals[v] / binomial(m, t) for t, vals in layer.items() for v in sorted(vals)]
        with tracer.span("combinatorics.log"):
            for q in ratios:
                log_fraction(q)
        with tracer.span("table.growth_profile"):
            profile = growth_profile(m, vmax, t_list)
        problems = []
        for t in t_list:
            got = dict(profile.get(t, []))
            if set(got) != set(expected[t]) or any(
                not math.isclose(got[v], g, rel_tol=1e-12, abs_tol=0.0) for v, g in expected[t].items()
            ):
                problems.append("growth_profile t=%d differs from the reference" % t)
        return problems

    return Workload(commands, layers)


def _deep_profile_reference(size) -> dict:
    t_list = size["t_list"] or list(CLI_DEFAULT_T_LIST)
    profile = growth_profile(size["m"], size["vmax"], t_list)
    return {"exponents": {str(t): [[v, g] for v, g in profile.get(t, [])] for t in t_list}}


# ----------------------------------------------------------------------
# simulator workloads
# ----------------------------------------------------------------------


def _simulate_layers(tracer, runs, seed, replay) -> None:
    """Trace estimate, its eps=0 floor and the peeling replay per run."""
    for params, eps, trials in runs:
        with tracer.span("simulator.estimate") as attrs:
            result = estimate_block_error(params, eps, trials=trials, seed=seed)
            attrs.update(trials=trials, failures=result.failures)
        with tracer.span("simulator.no_erasure"):
            estimate_block_error(params, 0, trials=trials, seed=seed)
        with tracer.span("simulator.replay"):
            for i in range(replay):
                replay_trial(params, eps, seed, i)


def _monte_carlo(size, seed, ref, out: Path) -> Workload:
    params = EnsembleParams(n=size["n"], r=Fraction(size["r"]))
    trials, replay = size["trials"], size["replay"]
    runs = [(params, Fraction(e), trials) for e in size["eps"]]
    commands = []
    for i, (_params, eps, _trials) in enumerate(runs):
        doc_path = out / ("simulate_%d.json" % i)
        want = ref["failures"][str(eps)] if seed == ref["seed"] else None
        prefix = _once(lambda eps=eps: _replay_problems(params, eps, seed, replay))

        def check(rc, doc_path=doc_path, eps=eps, want=want, prefix=prefix):
            with open(doc_path) as fh:
                doc = json.load(fh)
            return _exit_problems(rc) + _sim_doc_problems(doc, params, eps, trials, seed, want) + prefix()

        argv = ["--out", str(out), "simulate", "--n", str(params.n), "--r", size["r"],
                "--eps", str(eps), "--trials", str(trials), "--seed", str(seed), "--json", doc_path.name]
        commands.append(Command("simulate eps=%s" % eps, argv, check, SAMPLED))

    def layers(tracer) -> list[str]:
        _simulate_layers(tracer, runs, seed, replay)
        return []

    return Workload(commands, layers)


def _monte_carlo_reference(size) -> dict:
    params = EnsembleParams(n=size["n"], r=Fraction(size["r"]))
    return {
        "seed": DEFAULT_SEED,
        "failures": {
            str(Fraction(e)): estimate_block_error(params, Fraction(e), size["trials"], DEFAULT_SEED).failures
            for e in size["eps"]
        },
    }


_TINY = EnsembleParams(n=3, r=Fraction(0))
_TINY_EPS = Fraction(1, 3)


def _small_reconcile(size, seed, ref, out: Path) -> Workload:
    params = EnsembleParams(n=size["n"], r=Fraction(size["r"]))
    eps_list = [Fraction(e) for e in size["eps"]]
    trials, tiny_trials, replay = size["trials"], size["tiny_trials"], size["replay"]
    default_seed = seed == ref["seed"]
    report = out / "reconcile.json"
    tiny_doc = out / "simulate_tiny.json"
    reconcile_prefix = _once(lambda: sum((_replay_problems(params, e, seed, replay) for e in eps_list), []))
    tiny_prefix = _once(lambda: _replay_problems(_TINY, _TINY_EPS, seed, replay))
    tiny_exact = _once(lambda: exhaustive_block_error(_TINY, _TINY_EPS))

    def check_reconcile(rc):
        with open(report) as fh:
            doc = json.load(fh)
        problems = _exit_problems(rc)
        rows = {Fraction(row["epsilon"]): row for row in doc.get("rows", [])}
        if set(rows) != set(eps_list):
            return problems + ["rows cover eps=%s" % sorted(map(str, rows))]
        for eps, row in rows.items():
            if Fraction(row["analytic"]) != Fraction(ref["analytic"][str(eps)]):
                problems.append("analytic E_B at eps=%s differs from the reference" % eps)
            failures = row["mc_failures"]
            if not 0 <= failures <= trials:
                problems.append("mc_failures=%r outside 0..%d" % (failures, trials))
            if default_seed and failures != ref["mc_failures"][str(eps)]:
                problems.append("mc_failures at eps=%s: %d, reference %d"
                                % (eps, failures, ref["mc_failures"][str(eps)]))
        return problems + reconcile_prefix()

    def check_tiny(rc):
        with open(tiny_doc) as fh:
            doc = json.load(fh)
        want = ref["tiny_failures"] if default_seed else None
        problems = _exit_problems(rc) + _sim_doc_problems(doc, _TINY, _TINY_EPS, tiny_trials, seed, want)
        # 1e6 trials estimate the exact probability to well within 6 sigma
        exact = float(tiny_exact())
        sigma = math.sqrt(exact * (1 - exact) / tiny_trials)
        p_hat = doc.get("p_hat", -1.0)
        if abs(p_hat - exact) > 6 * sigma:
            problems.append("p_hat=%r is over 6 sigma from the exact %.6g" % (p_hat, exact))
        return problems + tiny_prefix()

    eps_arg = ",".join(str(e) for e in eps_list)
    commands = [
        Command("reconcile", ["--out", str(out), "reconcile", "--n", str(params.n), "--r", size["r"],
                              "--eps-list", eps_arg, "--trials", str(trials), "--seed", str(seed),
                              "--json", report.name], check_reconcile, RECONCILE),
        Command("simulate tiny", ["--out", str(out), "simulate", "--n", "3", "--r", "0",
                                  "--eps", str(_TINY_EPS), "--trials", str(tiny_trials),
                                  "--seed", str(seed), "--json", tiny_doc.name], check_tiny, LOOKUP),
    ]
    grid = _eps_grid(seed, eps_list)

    def layers(tracer) -> list[str]:
        with tracer.span("table.boundary_sweep"):
            boundary_layer(params.m, params.n, range(1, min(params.m, params.n) + 1))
        with tracer.span("table.fill") as attrs:
            table = fill_table(params, params.n)
        attrs.update(entries=len(table.entries), max_den_bits=_max_den_bits(table.entries))
        problems = []
        for eps in grid:
            with tracer.span("errprob.eval"):
                value = expected_block_error(ErrProbQuery(params=params, epsilon=eps, table=table)).value
            if str(eps) in ref["analytic"] and value != Fraction(ref["analytic"][str(eps)]):
                problems.append("expected_block_error at eps=%s differs from the reference" % eps)
        runs = [(params, eps, trials) for eps in eps_list] + [(_TINY, _TINY_EPS, tiny_trials)]
        _simulate_layers(tracer, runs, seed, replay)
        return problems

    return Workload(commands, layers)


def _small_reconcile_reference(size) -> dict:
    params = EnsembleParams(n=size["n"], r=Fraction(size["r"]))
    table = fill_table(params, params.n)
    analytic, mc = {}, {}
    for e in size["eps"]:
        eps = Fraction(e)
        analytic[str(eps)] = str(expected_block_error(ErrProbQuery(params=params, epsilon=eps, table=table)).value)
        mc[str(eps)] = estimate_block_error(params, eps, size["trials"], DEFAULT_SEED).failures
    tiny = estimate_block_error(_TINY, _TINY_EPS, size["tiny_trials"], DEFAULT_SEED).failures
    return {"seed": DEFAULT_SEED, "analytic": analytic, "mc_failures": mc, "tiny_failures": tiny}


_BUILDERS = {
    "exact_build": _exact_build,
    "deep_profile": _deep_profile,
    "monte_carlo": _monte_carlo,
    "small_reconcile": _small_reconcile,
}

_REFERENCES = {
    "exact_build": _exact_build_reference,
    "deep_profile": _deep_profile_reference,
    "monte_carlo": _monte_carlo_reference,
    "small_reconcile": _small_reconcile_reference,
}

# errors a check may meet while reading what a command wrote
CHECK_ERRORS = (OSError, ValueError, KeyError, TypeError, CyclePoissonError)
