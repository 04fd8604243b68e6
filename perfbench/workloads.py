"""The benchmark's workloads: generated configs and the CLI calls of one pass.

Every workload is a closed loop: one client in one process calls
``elastocons.cli.main(argv)`` and starts the next call when the previous one
returns.  The workload seed is written into every generated config's
``[run] seed`` and passed as each call's ``--seed`` (which draws the
admissibility probes).  Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import checks

LAM, MU = 2.0, 1.0
PROBES = 100          # admissibility probes per call
N_DIRS = 256          # Fibonacci directions; the scan adds 26 cube directions
EVOLVE_1D_T_END = 0.025  # 41 steps; README.md says why not 0.25
EVOLVE_3D_CELLS = 16     # per axis; the per-cell S4 stack (2.65 MB) exceeds a 2 MB L2
EVOLVE_3D_T_END = 0.03   # 7 steps
INTERROGATE_RHO = 1.5  # != 1 so that Newton velocity inversion iterates
TENSOR_V = "0.8 0.1 0 0.1 0.6 0.05 0 0.05 0.7"  # symmetric, positive, non-diagonal


@dataclass
class Call:
    """One CLI call and how to judge its outputs."""

    label: str
    mode: str
    config: str
    out: str
    seed: int
    expected_exit: int
    check: Callable[[str], list]          # output directory -> problems
    cells: int = 0                        # grid cells, for simulate calls
    known_defect: str = ""                # why the program fails this check today

    def argv(self) -> list:
        return ["--config", self.config, "--mode", self.mode, "--out", self.out,
                "--seed", str(self.seed), "--quiet"]


@dataclass
class Workload:
    calls: list      # one timed pass
    warmup: list     # small calls that load every code path before timing


def write_ini(path: str, sections: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for section, entries in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in entries.items():
                fh.write(f"{key} = {value}\n")
    return path


def _no_check(out_dir: str) -> list:
    return []


# ---------------------------------------------------------------------------
# evolve_1d / evolve_3d
# ---------------------------------------------------------------------------

def _evolve_ini(seed, dims, cells, polarization, t_end, monitor_every) -> dict:
    # configs/isotropic.ini with sigma = neo_hookean, spelled out in full so
    # that an edit to the shipped config cannot change the workload
    return {
        "run": {"mode": "simulate", "seed": seed, "quiet": "true"},
        "model": {"model": "classical", "rho": 1, "sigma": "neo_hookean",
                  "lambda": LAM, "mu": MU},
        "grid": {"dims": dims, "cells": cells, "length": 1.0},
        "initial": {"kind": "sine", "polarization": polarization, "amplitude": 0.01},
        "evolve": {"cfl": 0.5, "t_end": t_end, "monitor_every": monitor_every},
    }


def _simulate_call(work, seed, label, dims, cells, polarization, t_end,
                   monitor_every, check) -> Call:
    cfg = write_ini(os.path.join(work, f"{label}.ini"),
                    _evolve_ini(seed, dims, cells, polarization, t_end, monitor_every))
    return Call(label=label, mode="simulate", config=cfg,
                out=os.path.join(work, label), seed=seed, expected_exit=0,
                check=check, cells=cells ** dims)


def evolve_1d(work: str, seed: int) -> Workload:
    # longitudinal speed sqrt((lambda + 2 mu) / rho) = 2 on a unit domain
    check = partial(checks.check_simulation, speed=("p0", 1.0, 2.0))
    return Workload(
        calls=[_simulate_call(work, seed, "nh_1d_400", 1, 400, "longitudinal",
                              EVOLVE_1D_T_END, 10, check)],
        warmup=[_simulate_call(work, seed, "warm_1d", 1, 16, "longitudinal",
                               0.02, 1, _no_check)],
    )


def evolve_3d(work: str, seed: int) -> Workload:
    return Workload(
        calls=[_simulate_call(work, seed, "nh_3d", 3, EVOLVE_3D_CELLS, "transverse",
                              EVOLVE_3D_T_END, 5, checks.check_simulation)],
        warmup=[_simulate_call(work, seed, "warm_3d", 3, 4, "transverse",
                               0.02, 1, _no_check)],
    )


# ---------------------------------------------------------------------------
# interrogate
# ---------------------------------------------------------------------------

def _classical(sigma, rho, corruption="none") -> dict:
    return {"model": "classical", "rho": rho, "sigma": sigma, "lambda": LAM,
            "mu": MU, "corruption": corruption}


def _interrogate_ini(seed, model, probes=PROBES, n_dirs=N_DIRS, f=None,
                     mode="all") -> dict:
    hyp = {"n_dirs": n_dirs}
    if f is not None:
        hyp["f"] = f
    return {"run": {"mode": mode, "seed": seed, "quiet": "true"},
            "model": model, "probes": {"count": probes}, "hyperbolicity": hyp}


def interrogate(work: str, seed: int) -> Workload:
    def call(label, mode, cfg, expected_exit, check, known_defect=""):
        return Call(label=label, mode=mode, config=cfg, out=os.path.join(work, label),
                    seed=seed, expected_exit=expected_exit, check=check,
                    known_defect=known_defect)

    def ini(name, **kw):
        return write_ini(os.path.join(work, f"{name}.ini"), _interrogate_ini(seed, **kw))

    calls = []
    rho = INTERROGATE_RHO
    for sigma in ("linear_isotropic", "stvk", "neo_hookean"):
        cfg = ini(sigma, model=_classical(sigma, rho))
        calls.append(call(f"adm_{sigma}", "admissibility", cfg, 0,
                          partial(checks.check_admissible, V_expected=np.eye(3) / rho)))
        # at F = I every registry energy has acoustic eigenvalues
        # (lambda + 2 mu, mu, mu) = (4, 1, 1) in every direction
        calls.append(call(f"hyp_{sigma}", "hyperbolicity", cfg, 0,
                          partial(checks.check_scan, rho=rho,
                                  expected_eigs=(LAM + 2 * MU, MU, MU))))

    # the --mode override is applied after validation, and validation rejects a
    # tensor model under the default mode "all", so the file names the mode
    V = np.array([float(x) for x in TENSOR_V.split()]).reshape(3, 3)
    cfg = ini("tensor_nh", mode="admissibility",
              model={"model": "tensor", "sigma": "neo_hookean", "lambda": LAM,
                     "mu": MU, "v": TENSOR_V})
    calls.append(call("adm_tensor_nh", "admissibility", cfg, 0,
                      partial(checks.check_admissible, V_expected=V)))

    # St. Venant-Kirchhoff loses strong ellipticity under uniform compression
    # below s = sqrt(4/5) ~ 0.894 (for lambda = 2, mu = 1)
    for s, code in ((0.5, 3), (0.95, 0)):
        f = " ".join(str(x) for x in (s * np.eye(3)).ravel())
        cfg = ini(f"stvk_s{s}", model=_classical("stvk", 1.0), f=f)
        calls.append(call(f"hyp_stvk_s{s}", "hyperbolicity", cfg, code,
                          partial(checks.check_scan, rho=1.0,
                                  expected_eigs=checks.stvk_uniform_stretch_eigs(s, LAM, MU),
                                  check_modes=code == 0)))

    for kind in checks.CONTROL_FAILS:
        cfg = ini(f"control_{kind}", model=_classical("linear_isotropic", 1.0, kind))
        calls.append(call(f"adm_control_{kind}", "admissibility", cfg, 2,
                          partial(checks.check_control, kind=kind)))
        if kind == "ellipticity":
            # zero stored energy: the acoustic tensor vanishes, so the paper
            # requires a hyperbolicity failure (exit 3)
            calls.append(call(f"hyp_control_{kind}", "hyperbolicity", cfg, 3, _no_check,
                              known_defect="mode_hyperbolicity scans the registry "
                                           "energy, not the built model (ROADMAP item 4)"))
        else:
            calls.append(call(f"hyp_control_{kind}", "hyperbolicity", cfg, 0,
                              partial(checks.check_scan, rho=1.0)))

    warm_cfg = ini("warm", model=_classical("neo_hookean", rho), probes=8, n_dirs=1)
    warmup = [call("warm_adm", "admissibility", warm_cfg, 0, _no_check),
              call("warm_hyp", "hyperbolicity", warm_cfg, 0, _no_check)]
    return Workload(calls=calls, warmup=warmup)


BUILDERS = {"evolve_1d": evolve_1d, "evolve_3d": evolve_3d, "interrogate": interrogate}


def build(name: str, work: str, seed: int) -> Workload:
    """Write the workload's configs under ``work`` and return its calls."""
    os.makedirs(work, exist_ok=True)
    return BUILDERS[name](work, seed)
