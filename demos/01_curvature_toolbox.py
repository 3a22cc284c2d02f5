"""Curvature of user-supplied metrics, from finite differences or closed forms.

A metric field is just a chart name plus a callable returning the
matrix g_ij at a point.  Everything else (Christoffel symbols, Riemann,
Ricci, scalar and Schouten) comes out of 4th-order stencils, or out of
a closed-form jet (g and its partials) when the metric carries one, as
the 3D example metric at the end does.
"""
import numpy as np

from confgeo import (
    MetricField,
    curvature,
    example_metric,
    flat_polar_metric,
    h_profile,
    kulkarni_nomizu,
    m_covariant,
    polar_chart,
    round_sphere_metric,
)

print("=== flat plane in polar coordinates ===")
# a chart plus the matrix g_ij, with no closed-form jet: the stencil route
field = MetricField(polar_chart(), flat_polar_metric().evaluate)
for r in (0.1, 1.0, 2.0):
    bundle = curvature(field, np.array([r, 0.4]))
    print(f"r = {r:4}: max |Riemann| = {np.max(np.abs(bundle.riemann)):.2e} "
          f"(zero curvature recovered from finite differences)")

print()
print("=== unit round sphere ===")
sphere = round_sphere_metric()
x = np.array([np.pi / 3, 0.0])
bundle = curvature(sphere, x)
print("Ricci tensor (should equal the metric):")
print(bundle.ricci)
print(f"scalar curvature = {bundle.scalar:.9f}  (exactly 2 for the unit sphere)")

print()
print("convergence of the stencils (error should drop ~16x per halving):")
g = sphere(x)
for step in (0.04, 0.02, 0.01):
    err = np.max(np.abs(curvature(sphere, x, step=step).ricci - g))
    print(f"  step {step:5}: curvature error {err:.3e}")

print()
print("=== the 3D example metric ===")
field = example_metric("cylindrical")
print("On the plane z = 0 the metric is flat, yet its Ricci tensor there")
print("equals -2 h(r) M, with M the symmetric tensor 2 r dr dphi:")
for r in (0.35, 0.75):
    bundle = curvature(field, np.array([r, 0.0, 0.0]))
    expected = -2.0 * h_profile(r) * m_covariant(r, 3)
    print(f"  r = {r}: R_(r phi) = {bundle.ricci[0, 1]: .8f}, "
          f"-2 h r = {expected[0, 1]: .8f}, "
          f"difference {np.max(np.abs(bundle.ricci - expected)):.1e}")

print()
print("The full Riemann tensor there is a Kulkarni-Nomizu product:")
r = 0.5
bundle = curvature(field, np.array([r, 0.0, 0.0]))
dz2 = np.zeros((3, 3))
dz2[2, 2] = 1.0
kn = -2.0 * kulkarni_nomizu(dz2, h_profile(r) * m_covariant(r, 3))
print(f"  max |Riemann - (-2 dz^2 o hM)| = {np.max(np.abs(bundle.riemann_lowered - kn)):.2e}")
