"""The curve (r, phi) = (t, e^(1/t)) and its exact forcing function.

On the flat plane the curve satisfies

    nabla_v (v ^ b / |v|^3) = k(t) (v ^ M^v) / |v|,
    M = 2 r dr dphi,

for exactly one scalar k(t) = A'(t)/B(t), where A and B are the
coefficients of the two bivectors over the (parallel) unit area
bivector.  k is astonishingly flat at 0: it vanishes faster than every
power of t, which is what lets the metric built from it close up
smoothly at the origin.
"""
import numpy as np

from confgeo import (
    accel_wedge_coeff,
    arc_length,
    flat_polar_metric,
    k_exact,
    spiral_point,
    spiral_velocity,
    t_star,
)
from confgeo.spiral import m_wedge_coeff
from confgeo.verify import forcing_residual_relative

print("=== the forcing function k = A'/B ===")
print(f"domain (0, t*) with t* = {t_star():.10f} (the root of e^(1/t) = t,")
print("where v ^ M^v changes sign and k has a pole)")
print()
print("   t        A(t)          B(t)          k(t)")
for t in (0.3, 0.5, 0.8, 1.0, 1.3):
    print(f"  {t:4}  {accel_wedge_coeff(t): .6e}  {m_wedge_coeff(t): .6e}  "
          f"{k_exact(t): .6e}")

print()
print("A' = k B against a finite-difference probe of A at t = 1:")
h = 1e-6
fd = (accel_wedge_coeff(1 - 2*h) - 8*accel_wedge_coeff(1 - h)
      + 8*accel_wedge_coeff(1 + h) - accel_wedge_coeff(1 + 2*h)) / (12*h)
print(f"  k(1) B(1)     = {k_exact(1.0) * m_wedge_coeff(1.0):.12f}")
print(f"  A'(1) stencil = {fd:.12f}")

print()
print("=== the identity holds to rounding accuracy ===")
for t in (0.3, 0.6, 1.0):
    print(f"  t = {t}: relative residual {forcing_residual_relative(t):.2e}")

print()
print("=== flatness at the origin ===")
print("k shadows its leading term -e^(-1/t)/t and dies faster than any power:")
print("   t       k(t)            e^(-1/t)/t      |k|/t^4        |k|/t^8")
for t in (0.2, 0.1, 0.05):
    lead = np.exp(-1.0 / t) / t
    print(f"  {t:4}  {k_exact(t): .6e}  {lead: .6e}  {abs(k_exact(t))/t**4:.4e}  "
          f"{abs(k_exact(t))/t**8:.4e}")
print("(note the weighted columns rise before they fall: |k|/t^n peaks at")
print(" t = 1/(n+1); only the approach to 0 is monotone)")

print()
print("=== the curve has infinite length toward t = 0 ===")
field = flat_polar_metric()
for t_low in (0.5, 0.2, 0.1):
    res = arc_length(field, lambda t: spiral_point(t, 2), (t_low, 1.0),
                     tol=1e-9, velocity=lambda t: spiral_velocity(t, 2))
    print(f"  length({t_low} -> 1) = {res.value:12.4f}  >=  log(1/t) = "
          f"{np.log(1/t_low):.4f}")
