"""Command-line entry point.

One binary, mode-dispatched: loads a sectioned key/value configuration,
builds the requested constitutive model once, and runs admissibility checks,
a hyperbolicity direction scan, a time evolution, or all three.  Every output
file is CSV (or a flat key=value text block) with a deterministic header, so
identical configs and seeds produce byte-identical outputs.

Exit codes: 0 all checks passed, 2 admissibility failure, 3 hyperbolicity
failure, 4 simulation failure, 64 configuration error (a bad or missing flag
and a model that cannot be built included).  A library error inside a stage
fails that stage; the first failing stage sets the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .admissibility import full_report
from .config import RunConfig, load_config
from .constitutive import (ConstitutiveModel, classical_model, corrupted_model,
                           elasticity_map, stored_energy_by_name, tensor_mass_model)
from .errors import ElastoconsError
from .hyperbolicity import scan_directions
from .solver import (Field, Grid, _declared_V, affine_initial_field, rest_field, run,
                     sine_wave_field)

EXIT_OK = 0
EXIT_ADMISSIBILITY = 2
EXIT_HYPERBOLICITY = 3
EXIT_SIMULATION = 4
EXIT_CONFIG = 64

_FMT = "%.17g"
SNAPSHOT_COLUMNS = "index," + ",".join(f"F{i}{j}" for i in range(3) for j in range(3)) + ",p0,p1,p2\n"
SNAPSHOT_ROW = "%d," + ",".join([_FMT] * SNAPSHOT_COLUMNS.count(",")) + "\n"
HYP_ROW = ",".join([_FMT] * 9) + ",%d,%d\n"
MONITOR_ROW = "%d," + ",".join([_FMT] * 5) + "\n"


def _fmt(x) -> str:
    return _FMT % float(x)


def _header(cfg: RunConfig) -> str:
    digest = hashlib.sha256(cfg.raw.encode("utf-8")).hexdigest()
    return (f"# elastocons {__version__}\n"
            f"# config_sha256={digest}\n"
            f"# seed={cfg.seed}\n")


def _write(name: str, cfg: RunConfig, columns: str, lines):
    """Write the file ``name`` of the output directory: header, column line, lines."""
    with open(os.path.join(cfg.out, name), "w", encoding="utf-8") as fh:
        fh.write(_header(cfg))
        fh.write(columns)
        fh.writelines(lines)


def _say(cfg: RunConfig, msg: str):
    if not cfg.quiet:
        print(msg)


def build_model(cfg: RunConfig) -> ConstitutiveModel:
    if cfg.corruption != "none":
        return corrupted_model(cfg.corruption, lam=cfg.lam, mu=cfg.mu, rho=cfg.rho)
    se = stored_energy_by_name(cfg.sigma, lam=cfg.lam, mu=cfg.mu)
    if cfg.model == "tensor":
        return tensor_mass_model(cfg.v_tensor, se)
    return classical_model(cfg.rho, se)


# ---------------------------------------------------------------------------
# Stages: each takes the built model and returns whether it passed
# ---------------------------------------------------------------------------

def mode_admissibility(cfg: RunConfig, model: ConstitutiveModel) -> bool:
    report = full_report(model, n_probes=cfg.probe_count, seed=cfg.seed)
    _write("admissibility.csv", cfg, "check,residual,tolerance,pass\n",
           (f"{name},{_fmt(value)},{_fmt(tol)},{str(ok).lower()}\n"
            for name, value, tol, ok in report.rows()))
    _write("admissibility.txt", cfg, "", [report.as_text()])

    _say(cfg, f"admissibility: {'PASS' if report.passed else 'FAIL'} "
              f"({report.probes} probes, seed {report.seed})")
    for name, value, tol, ok in report.rows():
        if not ok:
            _say(cfg, f"  failed {name}: value {_fmt(value)} vs tolerance {_fmt(tol)}")
    return report.passed


def mode_hyperbolicity(cfg: RunConfig, model: ConstitutiveModel) -> bool:
    # a model that declares no V (only the normality and galilean controls) is scanned
    # with V = I / rho: the normality control's dv/dp vanishes at p = 0
    V = np.eye(3) / cfg.rho if model.V is None else model.V
    report = scan_directions(elasticity_map(model), cfg.hyp_F, V, n_dirs=cfg.n_dirs)
    _write("hyperbolicity.csv", cfg,
           "w0,w1,w2,eig1,eig2,eig3,speed1,speed2,speed3,zero_multiplicity,independent_count\n",
           (HYP_ROW % row for row in report.rows()))

    verdict = "strongly elliptic" if report.strongly_elliptic else "NOT strongly elliptic"
    _say(cfg, f"hyperbolicity: {verdict}; min acoustic eigenvalue "
              f"{_fmt(report.min_eigenvalue)} along direction "
              f"({', '.join(_fmt(x) for x in report.worst_direction)})")
    return report.strongly_elliptic


def _build_field(cfg: RunConfig, model: ConstitutiveModel) -> Field:
    grid = Grid(cells=cfg.cells, h=tuple(L / n for L, n in zip(cfg.lengths, cfg.cells)))
    if cfg.initial_kind == "rest":
        return rest_field(grid)
    if cfg.initial_kind == "sine":
        return sine_wave_field(model, grid, cfg.polarization, cfg.amplitude)
    x0 = cfg.affine_x0
    if x0 is None:
        x0 = np.zeros(3)
        for a in range(grid.dims):
            x0[a] = 0.5 * grid.lengths[a]
    return affine_initial_field(model, grid, cfg.affine_A, cfg.affine_B,
                                cfg.affine_a, cfg.affine_b, cfg.affine_c, x0)


def _write_snapshot(name: str, cfg: RunConfig, fld: Field):
    """F and p by C-order cell index, after a header with the grid and the time."""
    n = fld.F.size // 9
    table = np.column_stack([fld.F.reshape(n, 9), fld.p.reshape(n, 3)])
    grid = (f"# cells={' '.join(map(str, fld.grid.cells))}\n"
            f"# h={' '.join(map(_fmt, fld.grid.h))}\n# t={_fmt(fld.t)}\n")
    # row by row: one list of the whole table would raise the peak memory
    _write(name, cfg, grid + SNAPSHOT_COLUMNS,
           (SNAPSHOT_ROW % (flat, *row.tolist()) for flat, row in enumerate(table)))


def mode_simulate(cfg: RunConfig, model: ConstitutiveModel) -> bool:
    _declared_V(model)  # a model without V is refused before any file is written
    fld = _build_field(cfg, model)
    _write_snapshot("snapshot_initial.csv", cfg, fld)
    final, trace = run(model, fld, t_end=cfg.t_end, cfl=cfg.cfl,
                       monitor_every=cfg.monitor_every)
    _write("monitors.csv", cfg,
           "step,t,energy,energy_drift,involution_residual,dissipation_residual\n",
           (MONITOR_ROW % row for row in trace.rows()))
    _write_snapshot("snapshot_final.csv", cfg, final)

    _say(cfg, f"simulation: OK to t = {_fmt(final.t)} "
              f"({trace.steps[-1]} steps, energy drift {_fmt(trace.energy_drift[-1])})")
    return True


def run_all(cfg: RunConfig) -> int:
    """Build the model once and run the configured stage(s); returns the exit code.

    A model that cannot be built raises before the output directory exists.
    """
    model = build_model(cfg)
    os.makedirs(cfg.out, exist_ok=True)
    status = EXIT_OK
    # built at call time, so that replaced module attributes take effect
    for mode, label, stage, code in (
            ("admissibility", "admissibility", mode_admissibility, EXIT_ADMISSIBILITY),
            ("hyperbolicity", "hyperbolicity", mode_hyperbolicity, EXIT_HYPERBOLICITY),
            ("simulate", "simulation", mode_simulate, EXIT_SIMULATION)):
        if cfg.mode not in (mode, "all"):
            continue
        try:
            passed = stage(cfg, model)
        except ElastoconsError as exc:
            _say(cfg, f"{label}: FAIL ({exc})")
            passed = False
        if not passed and status == EXIT_OK:
            status = code
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="elastocons",
        description="Admissibility, hyperbolicity and wave-propagation analysis "
                    "of elasticity in conservation form.")
    ap.add_argument("--config", required=True, help="path to the configuration file")
    ap.add_argument("--mode", help="override the configured mode: admissibility, "
                                   "hyperbolicity, simulate or all")
    ap.add_argument("--out", help="override the output directory")
    ap.add_argument("--seed", help="override the probe seed")
    ap.add_argument("--quiet", action="store_const", const="true",
                    help="suppress progress output")
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or the usage and the error
        return EXIT_CONFIG if exc.code else EXIT_OK
    overrides = {key: value for key, value in vars(args).items() if value is not None}
    path = overrides.pop("config")

    try:
        return run_all(load_config(path, overrides))
    except ElastoconsError as exc:  # an invalid config, or a model it cannot build
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
