"""The zigzag-chain counting recursion and its growth constant.

Three sequences count down-free matchings of zigzag chains by size parity
and kind, read off the 2-chain with corners; an algebraic generating
function pins the growth rate to (9 + sqrt(93))/2 per two points, about
3.0532 per point.  The same recursion with Motzkin arc tails counts all
matchings instead and tops out near 3.1022.
"""

from ncmatch import (
    closed_form_coeffs,
    growth_constant,
    zigzag_series,
)

zz = zigzag_series(10)
print("k, odd-size even-kind, odd-size odd-kind, even-size:")
for k in range(6):
    print(f"  {k}: {zz.a[k]:6d} {zz.b[k]:6d} {zz.c[k]:6d}")

# The even-size sequence solves a quartic; reading its root off one power-series
# coefficient at a time gives the same numbers with no recursion in sight.
print("\nseries coefficients equal the recursion:",
      closed_form_coeffs(40) == list(zigzag_series(40).c))

exact, per_point = growth_constant()
print(f"\ngrowth per index: {exact} ~ {exact.to_float():.6f}")
print(f"growth per point: {per_point:.6f}")

zz_long = zigzag_series(200)
ratio = zz_long.c[200] / zz_long.c[199]
print(f"consecutive ratio at k=200: {ratio:.4f} (limit {exact.to_float():.4f})")

exact_all, per_point_all = growth_constant("all")
print(f"\nall matchings instead of down-free: per point {per_point_all:.6f}")
