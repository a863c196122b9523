"""A machine-checkable certificate that corner-chain counts grow like M^k.

The upper bound M^k is one line (column sums).  For the lower bound, clipped
concave quadratic profiles form a sub-eigenvector pair: applying the
recursion to them gains at least a factor M - eps, componentwise and in
exact arithmetic.  Building one picks the peak from the squared-integer value
set in closed form (each root family's gap is affine in its index);
verifying one folds -(M - eps) into each row's own band and sign-checks the
resulting piecewise quadratic, so supports of millions of indices cost
nothing.
"""

from fractions import Fraction

from ncmatch import (
    build_certificate,
    extract_band,
    rescale,
    residual_constants,
    shift_constant,
    verify_certificate,
)
from ncmatch.spectral import certificate_from_peak

resc = rescale(extract_band(8))
print(f"eigenvalue M ~ {resc.m.to_float():.3f}")

delta = shift_constant(resc)
print(f"profile shift between the two state classes: {delta.to_float():.6f}")

qx, qy = residual_constants(resc, delta)
print(f"eigen-residual constants: {qx.to_float():.1f}, {qy.to_float():.1f}")

for eps in (Fraction(1, 10), Fraction(1, 100)):
    cert = build_certificate(resc, eps)
    ok = verify_certificate(resc, cert)
    print(
        f"eps={eps}: peak ~ {cert.p.to_float():.3e}, "
        f"support {cert.support_width()} indices, verified: {ok}"
    )

# a deliberately undersized peak value flunks the componentwise check
small = certificate_from_peak(resc, Fraction(1, 10), (1 + delta) ** 2, 1 + delta)
print("undersized peak verifies:", verify_certificate(resc, small))
