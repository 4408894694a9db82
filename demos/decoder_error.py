from fractions import Fraction

from cyclepoisson import (
    EnsembleParams,
    ErrProbQuery,
    block_error_probability,
    expected_block_error,
    fill_table,
    geometric_series,
    hadamard_contour,
    known_series_check,
)

# Exact expected block error for a tiny ensemble, with the per-v breakdown.
# block_error_probability counts the forests among the m^(2v) endpoint
# assignments and fills no table; the table route must agree exactly.
params = EnsembleParams(n=4, r=Fraction(1, 2))

print("E_B over erasure rates, n=%d r=%s:" % (params.n, params.r))
for eps in (Fraction(1, 20), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
    res = block_error_probability(params, eps)
    print("  eps=%-5s E_B = %-22s (%.6g)" % (eps, res.value, float(res.value)))

res = block_error_probability(params, Fraction(1, 10))
table = fill_table(params, vmax=params.n)
assert res == expected_block_error(
    ErrProbQuery(params=params, epsilon=Fraction(1, 10), table=table)
)
print()
print("the coefficient-table route gives the same result at eps=1/10")
print()
print("per-v terms at eps=1/10 (before the (1-eps)^n prefactor):")
for v, term in res.per_v:
    print("  v=%d  %s" % (v, float(term)))

# The v! x^v series behind these sums has zero radius of convergence,
# so any closed form must come from the polynomial identities instead.
print()
for x in (Fraction(1, 10), Fraction(1, 2)):
    rep = known_series_check(12, x)
    print(
        "x=%-4s identities ok=%s/%s, factorial series diverges: %s"
        % (x, rep.scaled_identity_ok, rep.plain_identity_ok, rep.factorial_diverges)
    )

# Hadamard products give coefficient-wise control where plain products fail.
print()
geo = geometric_series(64)
exact = complex(geo.hadamard(geo).evaluate(Fraction(1, 4)))
quad = hadamard_contour(geo, geo, 0.25, rho=0.5, tol=1e-8)
print("Hadamard square of 1/(1-x) at z=1/4:")
print("  contour quadrature: %.12f  (%d nodes)" % (quad.value.real, quad.nodes))
print("  coefficient sum:    %.12f" % exact.real)
