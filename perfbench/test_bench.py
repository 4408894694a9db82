"""Smoke test of the benchmark itself: seconds-long runs on tiny inputs.

Run from the repository root:

    python3 perfbench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest

import run

run.use_checkout_package()

import workloads  # noqa: E402  (needs the package path set up above)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(workload, trace=0, reference=None, seed=workloads.DEFAULT_SEED):
    args = run.parse_args(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                           "--trace", str(trace), "--smoke"])
    return run.measure(args, reference)


def _bump_exponent(ref):
    ref["exponents"]["1"][0][1] += 1.0  # v=1 is in both the full and the shallow profile


# one wrong reference value under every command of the workload
CORRUPTIONS = {
    "exact_build": lambda ref: ref.update(digest="0" * 64),
    "deep_profile": _bump_exponent,
    "monte_carlo": lambda ref: ref["failures"].update({k: v + 1 for k, v in ref["failures"].items()}),
    "small_reconcile": lambda ref: ref.update(
        analytic={k: "1/3" for k in ref["analytic"]}, tiny_failures=ref["tiny_failures"] + 1
    ),
}


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            for name in workloads.SIZES:
                with self.subTest(workload=name, trace=trace):
                    result, detail = smoke(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], detail["problems"])
                    self.assertEqual(detail["failed_frac"], 0.0)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
                    if trace == 0:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_wrong_reference_fails_every_command(self):
        for name, corrupt in CORRUPTIONS.items():
            with self.subTest(workload=name):
                reference = copy.deepcopy(workloads.load_reference())
                corrupt(reference[name]["smoke"])
                result, detail = smoke(name, 0, reference)
                self.assertFalse(result["correct"])
                self.assertEqual(detail["failed_frac"], 1.0)

    def test_other_seeds_are_checked_by_replay(self):
        for name in ("monte_carlo", "small_reconcile"):
            with self.subTest(workload=name):
                result, detail = smoke(name, seed=7)
                self.assertTrue(result["correct"], detail["problems"])

    def test_fails_without_the_package_source(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "exact_build", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
