from fractions import Fraction

from cyclepoisson import EnsembleParams, factorial, fill_table, stopping_set_count

# A small ensemble: n = 6 variables, rate 1/6, so m = 5 checks.
params = EnsembleParams(n=6, r=Fraction(1, 6))
print("ensemble: n=%d m=%d k=%d r=%s" % (params.n, params.m, params.k, params.r))

table = fill_table(params, vmax=5)

print()
print("A(v,t,0) for the first few (v,t):")
print("  v\\t " + "".join("%12d" % t for t in range(1, 6)))
for v in range(1, 6):
    row = "".join("%12s" % table.value(v, t, 0) for t in range(1, 6))
    print("  %3d %s" % (v, row))

# Each table entry, times v! 2^v, is an exact count of endpoint
# assignments whose image has the given size with every fiber >= 2.
print()
print("v! 2^v A(v,t,0) == stopping_set_count(v,t):")
for v in range(1, 5):
    for t in range(1, v + 1):
        lhs = factorial(v) * 2**v * table.value(v, t, 0)
        rhs = stopping_set_count(params, v, t)
        assert lhs == rhs, (v, t)
        print("  v=%d t=%d  count=%d" % (v, t, rhs))

print()
print("level sums feed the error-probability series:")
for v, total in sorted(table.level_sums().items()):
    print("  sum_t,s A(%d,t,s) = %s" % (v, total))
