"""Acoustic tensor over directions and the 12x12 wave-structure matrix.

For each propagation direction w the acoustic tensor E(w) carries the squared
wave speeds (times density); the directional flux Jacobian of the full
first-order system has zero as an eigenvalue of geometric multiplicity six
and six propagating modes in three +- pairs.  The scan also locates the
compression at which a St. Venant-Kirchhoff material stops being strongly
elliptic.
"""

import numpy as np

from elastocons import (eigenstructure, ellipticity_loss_bisection, flux_jacobian,
                        linear_isotropic, scan_directions, st_venant_kirchhoff)

np.set_printoptions(precision=4, suppress=True)

iso = linear_isotropic(lam=2.0, mu=1.0)
report = scan_directions(iso.analytic_elasticity, np.eye(3), 1.0, n_dirs=128)
print("isotropic model, 128 + 26 directions:")
print("  strongly elliptic:", report.strongly_elliptic)
print("  min acoustic eigenvalue:", report.min_eigenvalue)
print("  sample direction", report.directions[0], "-> eigenvalues", report.eigenvalues[0],
      "speeds", report.speeds[0])

w = np.array([1.0, 0.0, 0.0])
M = flux_jacobian(iso.analytic_elasticity(np.eye(3)), 1.0, w)
es = eigenstructure(M)
lams = np.sort(es.eigenvalues[es.nonzero].real)
print("\n12x12 flux Jacobian along e1:")
print("  zero eigenvalue multiplicity:", es.zero_multiplicity)
print("  nonzero eigenvalues:", lams, " (three +- speed pairs)")
print("  independent propagating modes:", es.independent_count)

stvk = st_venant_kirchhoff(lam=2.0, mu=1.0)
s_star = ellipticity_loss_bisection(stvk.analytic_elasticity, 0.3, 1.0, n_dirs=64)
print("\nSt. Venant-Kirchhoff under uniform compression F = s * 1:")
print(f"  strong ellipticity lost below s* = {s_star:.6f}")
for s in (0.95, s_star + 0.02, s_star - 0.02, 0.4):
    rep = scan_directions(stvk.analytic_elasticity, s * np.eye(3), 1.0, n_dirs=64)
    print(f"  s = {s:.3f}: min eigenvalue {rep.min_eigenvalue:+.4f} "
          f"({'elliptic' if rep.strongly_elliptic else 'NOT elliptic'})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ss = np.linspace(0.3, 1.0, 60)
    mins = [scan_directions(stvk.analytic_elasticity, s * np.eye(3), 1.0,
                            n_dirs=32).min_eigenvalue for s in ss]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.plot(ss, mins, lw=2)
    ax.axhline(0.0, color="k", lw=0.8)
    ax.axvline(s_star, color="r", ls="--", label=f"s* = {s_star:.3f}")
    ax.set_xlabel("uniform stretch s")
    ax.set_ylabel("min acoustic eigenvalue")
    ax.set_title("Loss of strong ellipticity under compression")
    ax.legend()
    fig.tight_layout()
    fig.savefig("ellipticity_boundary.png", dpi=120)
    print("\nwrote ellipticity_boundary.png")
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
