"""Growth factors of corner-free r-chains and the best arc size.

The runner recursion is a banded transfer operator; its stabilized column
sum is the exact per-arc growth factor.  The per-point rate peaks at arc
size 11, certified by integer cross-power comparisons, and the excursion
step polynomial recovers the same constants exactly.
"""

from ncmatch import (
    best_arc_size,
    excursion_moments,
    growth_factor,
    runner_counts,
    transfer_matrix,
)

print("r, growth factor, per-point rate:")
for r in range(1, 13):
    lam = growth_factor(r)
    print(f"  {r:2d} {lam:8d} {float(lam) ** (1.0 / r):.4f}")

r_best, rate = best_arc_size(190)
print(f"\ncertified best arc size up to 190: r={r_best} (rate {rate:.4f})")

# the transfer matrix stabilizes into constant diagonals; its column sum is
# exactly the growth factor, and the palindromic step polynomial P agrees:
# its base is P(1), and sigma^2 is the variance of the weighted steps
mat = transfer_matrix(5)
lam, var = excursion_moments(5)
print(f"\nexcursion steps for r=5: lambda = P(1) = {lam}, sigma^2 = {var}")
print("column sum:", mat.column_sum_stabilized())

vec = runner_counts(3, 4)
print("\nrunner counts after four arcs (r=3):", vec)
print("head entry equals the down-free count of the 12-point chain")

print("\nvariants: per-point rates for perfect / all matchings at r=11:")
for kind in ("perfect", "all"):
    lam = growth_factor(11, kind)
    print(f"  {kind:8s} {lam:12d} {float(lam) ** (1 / 11):.4f}")
