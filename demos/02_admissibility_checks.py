"""Admissibility checks on a healthy model and on deliberately broken ones.

A constitutive model (energy, velocity, stress) is probed for the properties
that make the evolution problem well-posed: invertible velocity jacobian,
elliptic stress map, gradient identities linking all three maps, mixed
derivative symmetry, shift invariance of the velocity defect, and evenness of
the energy in momentum.
"""

import numpy as np

from elastocons import (State, classical_model, corrupted_model,
                        draw_states, find_dissipation_violation, full_report,
                        neo_hookean)

SEED = 7


def show(report):
    print(f"model: {report.model_name}")
    for name, value, tol, ok in report.rows():
        print(f"  {name:16s} value {value:12.4e}  tol {tol:8.1e}  "
              f"{'pass' if ok else 'FAIL'}")
    print(f"  overall: {'PASS' if report.passed else 'FAIL'}\n")


healthy = classical_model(1.5, neo_hookean(lam=2.0, mu=1.0))
show(full_report(healthy, n_probes=60, seed=SEED))

# break one property at a time and watch exactly that check fail
for kind in ("parity", "thermo", "galilean"):
    show(full_report(corrupted_model(kind), n_probes=40, seed=SEED))

# a thermodynamically inconsistent model admits rates that violate the
# dissipation inequality; exhibit one such direction
bad = corrupted_model("thermo")
probes = draw_states(5, np.random.default_rng(SEED))
probe = State(probes.F[3], probes.p[3])
F_rate, p_rate, amount = find_dissipation_violation(bad, probe)
print("dissipation violation witness for the scaled-stress model:")
print("  d tau/dt - S : dF/dt - v . dp/dt =", amount, "> 0 along")
print("  dF/dt =")
print(F_rate)
print("  dp/dt =", p_rate)
