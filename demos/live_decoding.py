"""Monte Carlo block-error estimation, and how to audit it.

Every trial is addressed by (seed, trial index) alone, so any single
trial can be replayed after the fact: same code sample, same erasure
pattern, same peeling outcome.
"""

from fractions import Fraction

from cyclepoisson import (
    EnsembleParams,
    estimate_block_error,
    exhaustive_block_error,
    replay_trial,
)

params = EnsembleParams(n=3, r=Fraction(0))
eps = Fraction(1, 3)
seed = 11

exact = exhaustive_block_error(params, eps)
print("exhaustive P_B for n=m=3, eps=1/3: %s = %.6f" % (exact, float(exact)))

for trials in (1_000, 10_000, 100_000):
    r = estimate_block_error(params, eps, trials=trials, seed=seed)
    lo, hi = r.ci95
    inside = "yes" if lo <= float(exact) <= hi else "NO"
    print(
        "  %7d trials: p_hat=%.5f  ci95=[%.5f, %.5f]  covers exact: %s"
        % (trials, r.p_hat, lo, hi, inside)
    )

# replay the first failing trial and show why it failed
print()
for trial in range(10_000):
    rep = replay_trial(params, eps, seed, trial)
    if rep.failed:
        print("first failing trial is #%d:" % trial)
        for var in range(params.n):
            a, b = rep.code.endpoints_of(var)
            mark = " erased" if var in rep.erased else ""
            print("  variable %d joins checks (%d, %d)%s" % (var, a, b, mark))
        print("  peel residual (a stopping set): %s" % sorted(rep.residual))
        break
