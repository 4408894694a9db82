"""Benchmark of the cyclepoisson CLI and of the library layers under it.

Run from the repository root:

    python3 perfbench/run.py --workload exact_build --seed 1 --seconds 20 --trace 0

Each run is one process and one workload (see workloads.py).  It imports
the package from ./src, times set-up in fresh child processes, then drives
the CLI in-process through `cyclepoisson.cli.main(argv)` pass after pass
until --seconds is spent, checking every output by value.

--trace 0 reports the end-to-end metrics: the median over passes of each
command's time normalised by the probes timed next to it (see probes.py),
the median normalised set-up time and the peak RSS.  --trace 1 alternates
an untraced CLI pass, the same pass with a span per command, and a pass of
direct library calls on the same inputs with a span per layer, and reports
the per-layer metrics (raw medians).  Spans (name, start, end, parent, run id)
are kept in memory and written to perfbench/out/ at exit.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  The line before it, and perfbench/out/result-*.json, record
the environment, the median and 90th percentile of each raw and normalised
time, every sample and failed_frac.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import probes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "cli.cmd1_norm_s": "s",
    "cli.cmd2_norm_s": "s",
    "peak_rss_mib": "MiB",
}

# layer metric -> (unit, span it is read from, span attribute or None for time)
PER_LAYER = {
    "table.boundary_sweep_s": ("s", "table.boundary_sweep", None),
    "table.fill_s": ("s", "table.fill", None),
    "table.verify_s": ("s", "table.verify", None),
    "table.stopping_set_count_s": ("s", "table.stopping_set_count", None),
    "table.growth_profile_s": ("s", "table.growth_profile", None),
    "table.save_s": ("s", "table.save", None),
    "table.load_s": ("s", "table.load", None),
    "table.cptable_bytes": ("bytes", "table.save", "bytes"),
    "table.entries": ("count", "table.fill", "entries"),
    "table.max_den_bits": ("bits", "table.fill", "max_den_bits"),
    "series.block_series_s": ("s", "series.block_series", None),
    "combinatorics.log_s": ("s", "combinatorics.log", None),
    "errprob.eval_s": ("s", "errprob.eval", None),
    "errprob.evals": ("count", "errprob.eval", "count"),
    "simulator.estimate_s": ("s", "simulator.estimate", None),
    "simulator.trials_per_s": ("1/s", "simulator.estimate", "trials"),
    "simulator.failures": ("count", "simulator.estimate", "failures"),
    "simulator.no_erasure_s": ("s", "simulator.no_erasure", None),
    "simulator.replay_s": ("s", "simulator.replay", None),
    "trace.overhead_s": ("s", None, None),
}

SETUP_REPEATS = {"full": 9, "smoke": 2}
SETUP_PROBES = ("python", "numpy")  # start-up is interpreter work and loading numpy

PASS_TIMES = ("wall_s", "cli.cmd1_s", "cli.cmd2_s", "wall_norm_s", "cli.cmd1_norm_s", "cli.cmd2_norm_s")


def use_checkout_package():
    """Import cyclepoisson from this checkout's src/, never from elsewhere."""
    pkg = ROOT / "src" / "cyclepoisson"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit("perfbench: no package source at %s" % pkg)
    sys.path.insert(0, str(pkg.parent))
    import cyclepoisson

    if Path(cyclepoisson.__file__).resolve().parent != pkg.resolve():
        raise SystemExit("perfbench: imported cyclepoisson from %s, not %s" % (cyclepoisson.__file__, pkg))


class Tracer:
    """In-memory spans: name, start, end, parent span id and run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record["attrs"]
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def children(self, parent_id: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == parent_id]


class _NoTracer:
    @contextlib.contextmanager
    def span(self, name: str):
        yield {}


def _run_command(main, cmd, check_errors, log: list[str]) -> tuple[float, float, bool]:
    """Run one CLI command in-process; return (seconds, normalised seconds, passed its check)."""
    gc.collect()
    sink = io.StringIO()
    try:
        before = probes.measure(cmd.probes)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            rc = main(cmd.argv)
            elapsed = time.perf_counter() - start
        after = probes.measure(cmd.probes)
    except Exception:  # the benchmark keeps going and counts the failure
        log.append("%s raised:\n%s" % (cmd.label, traceback.format_exc()))
        return 0.0, 0.0, False
    try:
        problems = cmd.check(rc)
    except check_errors as exc:
        problems = ["output unreadable: %r" % (exc,)]
    if problems:
        log.append("%s: %s\n%s" % (cmd.label, "; ".join(problems), sink.getvalue()[-2000:]))
    return elapsed, elapsed * probes.nominal(cmd.probes) / ((before + after) / 2), not problems


def _cli_pass(workload, out: Path, tally: dict, log: list[str], tracer=None) -> dict:
    """One pass of the workload's command sequence; returns its timings."""
    from cyclepoisson import cli
    from workloads import CHECK_ERRORS

    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tracer = tracer or _NoTracer()
    times = {"wall_s": 0.0, "wall_norm_s": 0.0}
    with tracer.span("cli.pass"):
        for i, cmd in enumerate(workload.commands, start=1):
            with tracer.span("cli." + cmd.label.replace(" ", "_")):
                elapsed, normalised, ok = _run_command(cli.main, cmd, CHECK_ERRORS, log)
            times["cli.cmd%d_s" % i] = elapsed
            times["cli.cmd%d_norm_s" % i] = normalised
            times["wall_s"] += elapsed
            times["wall_norm_s"] += normalised
            tally["attempted"] += 1
            tally["failed"] += not ok
    return times


def _layer_pass(workload, tracer: Tracer, tally: dict, log: list[str]) -> dict:
    """Direct library calls on the workload's inputs; returns layer metrics.

    A layer the workload does not reach records no span and reports 0.
    """
    gc.collect()
    tally["attempted"] += 1
    root = len(tracer.spans)
    with tracer.span("layers"):
        try:
            problems = workload.layers(tracer)
        except Exception:  # counted as a failed operation, traceback kept
            problems = [traceback.format_exc()]
    if problems:
        tally["failed"] += 1
        log.append("layer pass: %s" % "; ".join(problems))
    spans = tracer.children(root)
    metrics = {}
    for name, (_unit, span_name, attr) in PER_LAYER.items():
        if span_name is None:
            continue
        mine = [s for s in spans if s["name"] == span_name]
        busy = sum(s["end"] - s["start"] for s in mine)
        if attr is None:
            metrics[name] = busy
        elif attr == "count":
            metrics[name] = len(mine)
        elif name == "simulator.trials_per_s":
            metrics[name] = sum(s["attrs"][attr] for s in mine) / busy if busy else 0.0
        else:
            metrics[name] = sum(s["attrs"].get(attr, 0) for s in mine)
    return metrics


def _setup_samples(args) -> list[tuple[float, float]]:
    """(Raw, normalised) seconds from spawning a fresh process to the benchmark being ready.

    The child prints the CLOCK_MONOTONIC time at which it is ready, so the
    parent's wait for it to exit is not counted.  The set-up probes run
    just before the spawn and just after the exit.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS["smoke" if args.smoke else "full"]):
        before = probes.measure(SETUP_PROBES)
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        child = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
        raw = float(child.stdout) - start
        after = probes.measure(SETUP_PROBES)
        samples.append((raw, raw * probes.nominal(SETUP_PROBES) / ((before + after) / 2)))
    return samples


def _median_of(samples: list[dict], name: str) -> float:
    return statistics.median(s[name] for s in samples)


def _summary(samples: list[dict]) -> dict:
    """Sample count, minimum, median and 90th percentile of each pass time."""
    out = {}
    for name in PASS_TIMES:
        values = sorted(s[name] for s in samples)
        out[name] = {"n": len(values), "min": values[0], "median": statistics.median(values),
                     "p90": values[min(len(values) - 1, int(0.9 * len(values)))]}
    return out


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
    }


def measure(args, reference: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail record)."""
    import workloads

    scale = "smoke" if args.smoke else "full"
    reference = workloads.load_reference() if reference is None else reference
    run_id = "%s-seed%d-%d" % (args.workload, args.seed, os.getpid())
    out = OUT_DIR / ("work-%d" % os.getpid())
    workload = workloads.make(args.workload, args.seed, scale, reference, out)
    setup = [] if args.trace else _setup_samples(args)
    tally = {"attempted": 0, "failed": 0}
    log: list[str] = []
    untraced, traced, layers = [], [], []
    tracer = Tracer(run_id)
    start = time.perf_counter()
    round_seconds = []
    try:
        while True:
            began = time.perf_counter()
            tracer.run_id = "%s-round%d" % (run_id, len(round_seconds))
            untraced.append(_cli_pass(workload, out, tally, log))
            if args.trace:
                traced.append(_cli_pass(workload, out, tally, log, tracer))
                layers.append(_layer_pass(workload, tracer, tally, log))
            round_seconds.append(time.perf_counter() - began)
            if time.perf_counter() - start + statistics.median(round_seconds) > args.seconds:
                break
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if args.trace:
        _write_spans(tracer, args)
        metrics = {name: statistics.median(m[name] for m in layers) for name in PER_LAYER if name in layers[0]}
        metrics["trace.overhead_s"] = _median_of(traced, "wall_norm_s") - _median_of(untraced, "wall_norm_s")
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        metrics = {name: _median_of(untraced, name) for name in END_TO_END if name in untraced[0]}
        metrics["setup_s"] = statistics.median(normalised for _raw, normalised in setup)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": args.workload,
        **workloads.PURPOSE[args.workload],
        "commands": [cmd.argv for cmd in workload.commands],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "environment": environment(),
        "failed_frac": tally["failed"] / tally["attempted"],
        "pass_times": _summary(untraced),
        "samples": {"setup_s": setup, "untraced": untraced, "traced": traced, "layers": layers},
        "problems": log,
    }
    return result, detail


def _write_spans(tracer: Tracer, args) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed))
    with open(path, "w") as fh:
        for record in tracer.spans:
            fh.write(json.dumps(record) + "\n")


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    use_checkout_package()
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    if args.setup_only:
        import workloads

        scale = "smoke" if args.smoke else "full"
        workloads.make(args.workload, args.seed, scale, workloads.load_reference(), OUT_DIR / "unused")
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    result, detail = measure(args)
    for line in detail["problems"]:
        print(line, file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT_DIR / name, "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k not in ("samples", "problems")}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
