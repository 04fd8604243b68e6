"""Correctness checks on the files one CLI call writes.

Every check returns a list of problems; an empty list means the output is
correct.  References are closed forms or fixed tables kept here, never values
read back from the package under test, so a change to the package cannot
redefine what counts as correct.
"""

from __future__ import annotations

import os

import numpy as np

# Failing set of each negative control, as documented in
# elastocons.admissibility.NEGATIVE_CONTROL_EXPECTATIONS at the seed commit.
CONTROL_FAILS = {
    "normality": {"normality", "galilean"},
    "ellipticity": {"ellipticity"},
    "thermo": {"thermo"},
    "maxwell": {"maxwell", "thermo"},
    "galilean": {"galilean"},
    "parity": {"parity"},
}
CHECK_OF_ROW = {"thermo_velocity": "thermo", "thermo_stress": "thermo"}

CONSERVATION_RTOL = 1e-12   # roundoff on cell sums of F and p
INVOLUTION_TOL = 1e-12      # curl residual of F that counts as roundoff
SPEED_RTOL = 0.02           # measured wave speed against the closed form
V_TOL = 1e-6                # recovered velocity coefficient
EIG_RTOL = 1e-9             # acoustic eigenvalues and rho * speed^2
N_DIRECTIONS = 282          # 256 Fibonacci directions plus 26 cube directions


def read_csv(path: str) -> dict[str, np.ndarray]:
    """Columns of a CLI CSV file by header name; '#' lines are skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    names = lines[0].split(",")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return {name: data[:, i] for i, name in enumerate(names)}


def read_keyvalues(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for ln in fh:
            if "=" in ln and not ln.startswith("#"):
                key, _, value = ln.strip().partition("=")
                out[key] = value
    return out


def check_exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

F_COLS = [f"F{i}{j}" for i in range(3) for j in range(3)]
P_COLS = [f"p{i}" for i in range(3)]


def check_conservation(initial: dict, final: dict) -> list[str]:
    """Cell sums of every F and p component are unchanged to roundoff."""
    problems = []
    for group in (F_COLS, P_COLS):
        scale = max(1.0, sum(float(np.abs(initial[c]).sum()) for c in group))
        for c in group:
            drift = abs(float(final[c].sum() - initial[c].sum()))
            if not drift <= CONSERVATION_RTOL * scale:
                problems.append(f"sum of {c} drifted by {drift:.3e} "
                                f"(allowed {CONSERVATION_RTOL * scale:.1e})")
    return problems


def check_involution(monitors: dict) -> list[str]:
    worst = float(np.max(monitors["involution_residual"]))
    if not worst <= INVOLUTION_TOL:
        return [f"involution residual {worst:.3e} above {INVOLUTION_TOL:.0e}"]
    return []


def measured_speed(u0, u1, elapsed: float, length: float, expected: float) -> float:
    """Travel speed of a periodic profile from its cross-correlation peak.

    The peak is refined to sub-cell accuracy by a parabola; ``expected`` only
    picks the number of whole periodic wraps.
    """
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    n = u0.size
    corr = np.fft.irfft(np.fft.rfft(u1 - u1.mean()) * np.conj(np.fft.rfft(u0 - u0.mean())), n)
    k = int(np.argmax(corr))
    cm, c0, cp = corr[k - 1], corr[k], corr[(k + 1) % n]
    denom = cm - 2.0 * c0 + cp
    frac = 0.0 if denom == 0.0 else 0.5 * (cm - cp) / denom
    shift = (k + frac) * length / n
    wraps = round((expected * elapsed - shift) / length)
    return (shift + wraps * length) / elapsed


def check_wave_speed(initial: dict, final: dict, monitors: dict, column: str,
                     length: float, expected: float) -> list[str]:
    elapsed = float(monitors["t"][-1])
    speed = measured_speed(initial[column], final[column], elapsed, length, expected)
    if not abs(speed - expected) <= SPEED_RTOL * expected:
        return [f"wave speed {speed:.5f}, expected {expected} within {SPEED_RTOL:.0%}"]
    return []


def check_simulation(out_dir: str, speed: tuple | None = None) -> list[str]:
    """Conservation, involution and (1-D) wave-speed checks of one run.

    ``speed`` is (column, domain length, expected speed) or None.
    """
    initial = read_csv(os.path.join(out_dir, "snapshot_initial.csv"))
    final = read_csv(os.path.join(out_dir, "snapshot_final.csv"))
    monitors = read_csv(os.path.join(out_dir, "monitors.csv"))
    problems = check_conservation(initial, final) + check_involution(monitors)
    if speed is not None:
        problems += check_wave_speed(initial, final, monitors, *speed)
    return problems


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

def failing_checks(out_dir: str) -> set[str]:
    with open(os.path.join(out_dir, "admissibility.csv"), encoding="utf-8") as fh:
        rows = [ln.strip().split(",") for ln in fh if ln.strip() and not ln.startswith("#")]
    return {CHECK_OF_ROW.get(r[0], r[0]) for r in rows[1:] if r[3] != "true"}


def check_admissible(out_dir: str, V_expected) -> list[str]:
    """All six checks pass and the recovered V matches the model's."""
    problems = [f"check {name} failed" for name in sorted(failing_checks(out_dir))]
    kv = read_keyvalues(os.path.join(out_dir, "admissibility.txt"))
    try:
        V = np.array([[float(kv[f"representation_V_{i}{j}"]) for j in range(3)]
                      for i in range(3)])
    except KeyError:
        return problems + ["no recovered representation V in admissibility.txt"]
    err = float(np.abs(V - np.asarray(V_expected)).max())
    if not err <= V_TOL:
        problems.append(f"recovered V off by {err:.3e} (allowed {V_TOL:.0e})")
    return problems


def check_control(out_dir: str, kind: str) -> list[str]:
    """A negative control fails exactly its documented set of checks."""
    got = failing_checks(out_dir)
    want = CONTROL_FAILS[kind]
    if got != want:
        return [f"control {kind} failed {sorted(got)}, expected {sorted(want)}"]
    return []


# ---------------------------------------------------------------------------
# Hyperbolicity
# ---------------------------------------------------------------------------

def check_scan(out_dir: str, rho: float, expected_eigs=None,
               check_modes: bool = True) -> list[str]:
    """Every scanned direction has a consistent acoustic spectrum.

    Speeds satisfy rho * speed^2 = eig where eig >= 0 and are nan elsewhere.
    ``expected_eigs`` are closed-form descending eigenvalues, the same for
    every direction (isotropic response at a uniform stretch), or None to skip
    that comparison.  With ``check_modes`` every direction also has zero
    multiplicity 6 and 6 independent nonzero modes.
    """
    cols = read_csv(os.path.join(out_dir, "hyperbolicity.csv"))
    problems = []
    n = len(cols["w0"])
    if n != N_DIRECTIONS:
        problems.append(f"{n} directions, expected {N_DIRECTIONS}")
    for k in range(3):
        eig = cols[f"eig{k + 1}"]
        speed = cols[f"speed{k + 1}"]
        scale = np.maximum(1.0, np.abs(eig))
        real = eig >= 0
        defect = np.abs(rho * speed[real] ** 2 - eig[real]) / scale[real]
        if defect.size and not float(defect.max()) <= EIG_RTOL:
            problems.append(f"rho*speed{k + 1}^2 differs from eig{k + 1} "
                            f"by {float(defect.max()):.3e} (relative)")
        if not np.all(np.isnan(speed[~real])):
            problems.append(f"speed{k + 1} is not nan where eig{k + 1} < 0")
        if expected_eigs is not None:
            want = expected_eigs[k]
            err = float(np.abs(eig - want).max())
            if not err <= EIG_RTOL * max(1.0, abs(want)):
                problems.append(f"eig{k + 1} differs from {want} by {err:.3e}")
    if check_modes:
        if not np.all(cols["zero_multiplicity"] == 6):
            problems.append("zero multiplicity differs from 6")
        if not np.all(cols["independent_count"] == 6):
            problems.append("independent mode count differs from 6")
    return problems


def stvk_uniform_stretch_eigs(s: float, lam: float, mu: float) -> tuple:
    """Acoustic eigenvalues of St. Venant-Kirchhoff at F = s * identity.

    With c = (3 lam / 2 + mu)(s^2 - 1) the acoustic tensor is
    (c + mu s^2) 1 + (lam + mu) s^2 w (x) w: one longitudinal and two
    transverse eigenvalues.
    """
    c = (1.5 * lam + mu) * (s * s - 1.0)
    transverse = c + mu * s * s
    return (transverse + (lam + mu) * s * s, transverse, transverse)


def count_nan_fields(out_dir: str) -> int:
    """CSV fields written as 'nan' across every CSV file of one call."""
    total = 0
    for name in os.listdir(out_dir):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                for ln in fh:
                    if "nan" in ln and not ln.startswith("#"):
                        total += sum(f == "nan" for f in ln.rstrip("\n").split(","))
    return total


def bytes_written(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
