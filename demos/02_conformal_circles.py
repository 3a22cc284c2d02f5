"""Circles are conformal geodesics of flat space.

The proper-time conformal geodesic equation is third order: a state is
(position, unit velocity, orthogonal acceleration).  Starting from
circle data, the adaptive integrator must return to the start after one
period, for any radius, and running time backward must undo the run.
"""
import numpy as np

from confgeo import circle_state, euclidean_metric, integrate

field = euclidean_metric(3)
tol = 1e-10

print("=== one full period, three radii ===")
for radius in (0.1, 1.0, 10.0):
    start = circle_state(radius)
    traj = integrate(field, start, (0.0, 2.0 * np.pi * radius), tol=tol)
    closure = np.linalg.norm(traj.final_state.x - start.x)
    radial = np.max(np.abs(np.linalg.norm(traj.positions()[:, :2], axis=1) - radius))
    print(f"R = {radius:5}: {len(traj):4d} samples, closure error {closure:.2e}, "
          f"radial wobble {radial:.2e}, length {traj.arc_length[-1]:.6f} "
          f"(expected {2*np.pi*radius:.6f})")

print()
print("=== reversibility ===")
start = circle_state(1.0)
fwd = integrate(field, start, (0.0, 2.5), tol=tol)
back = integrate(field, fwd.final_state, (fwd.s[-1], 0.0), tol=tol)
recovered = back.final_state
print(f"forward 2.5 units of proper time, then backward:")
print(f"  position error {np.max(np.abs(recovered.x - start.x)):.2e}")
print(f"  velocity error {np.max(np.abs(recovered.u - start.u)):.2e}")

print()
print("=== gauge diagnostics ===")
print("|u| = 1 and g(u, a) = 0 are conserved by the equation; the")
print("integrator tracks how much its optional per-step projection has")
print("to fix, so silent drift cannot hide an equation violation.")
traj = integrate(field, start, (0.0, 2.0 * np.pi), tol=tol)
print(f"  max gauge error (renormalization on):  {traj.max_gauge_error:.2e}")
print(f"  max projection applied per step:       {traj.max_projection:.2e}")
traj = integrate(field, start, (0.0, 2.0 * np.pi), tol=tol, renormalize=False)
print(f"  max gauge drift (renormalization off): {traj.max_gauge_error:.2e}")
