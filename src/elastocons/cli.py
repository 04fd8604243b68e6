"""Command-line entry point.

One binary, mode-dispatched: loads a sectioned key/value configuration,
builds the requested constitutive model, and runs admissibility checks, a
hyperbolicity direction scan, a time evolution, or all three.  Every output
file is CSV (or a flat key=value text block) with a deterministic header, so
identical configs and seeds produce byte-identical outputs.

Exit codes: 0 all checks passed, 2 admissibility failure, 3 hyperbolicity
failure, 4 simulation failure, 64 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

from . import __version__
from .admissibility import draw_states, extract_representation, full_report
from .config import MODES, RunConfig, load_config
from .constitutive import (ConstitutiveModel, State, classical_model, corrupted_model,
                           elasticity_map, stored_energy_by_name, tensor_mass_model)
from .errors import (Blowup, ConfigError, ElastoconsError, NewtonDivergence,
                     NonHyperbolicState, PreconditionFailure)
from .hyperbolicity import scan_directions
from .solver import (Field, Grid, affine_initial_field, rest_field, run,
                     sine_wave_field)

EXIT_OK = 0
EXIT_ADMISSIBILITY = 2
EXIT_HYPERBOLICITY = 3
EXIT_SIMULATION = 4
EXIT_CONFIG = 64

_FMT = "%.17g"
SNAPSHOT_COLUMNS = ("index,x0,x1,x2," + ",".join(f"F{i}{j}" for i in range(3) for j in range(3))
                    + ",p0,p1,p2,v0,v1,v2,energy\n")


def _fmt(x) -> str:
    return _FMT % float(x)


def _header(cfg: RunConfig) -> str:
    digest = hashlib.sha256(cfg.raw.encode("utf-8")).hexdigest()
    return (f"# elastocons {__version__}\n"
            f"# config_sha256={digest}\n"
            f"# seed={cfg.seed}\n")


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
# Modes
# ---------------------------------------------------------------------------

def mode_admissibility(cfg: RunConfig, out_dir: str) -> int:
    model = build_model(cfg)
    report = full_report(model, n_probes=cfg.probe_count, seed=cfg.seed)

    with open(os.path.join(out_dir, "admissibility.csv"), "w", encoding="utf-8") as fh:
        fh.write(_header(cfg))
        fh.write("check,residual,tolerance,pass\n")
        for name, value, tol, ok in report.rows():
            fh.write(f"{name},{_fmt(value)},{_fmt(tol)},{str(ok).lower()}\n")

    text = report.as_text()
    if report.passed:
        try:
            probes = draw_states(cfg.probe_count, np.random.default_rng(cfg.seed))
            rep = extract_representation(model, probes)
            lines = []
            for i in range(3):
                for j in range(3):
                    lines.append(f"representation_V_{i}{j}={_fmt(rep.V_fit[i, j])}")
            lines.append(f"representation_symmetry_residual={_fmt(rep.symmetry_residual)}")
            lines.append(f"representation_linearity_residual={_fmt(rep.linearity_residual)}")
            lines.append(f"representation_split_residual={_fmt(rep.split_residual)}")
            lines.append(f"representation_split_pass={str(rep.split_pass).lower()}")
            text += "\n".join(lines) + "\n"
        except (PreconditionFailure, NewtonDivergence) as exc:
            text += f"representation_error={exc}\n"
    with open(os.path.join(out_dir, "admissibility.txt"), "w", encoding="utf-8") as fh:
        fh.write(_header(cfg))
        fh.write(text)

    _say(cfg, f"admissibility: {'PASS' if report.passed else 'FAIL'} "
              f"({report.probes} probes, seed {report.seed})")
    if not report.passed:
        for name, value, tol, ok in report.rows():
            if not ok:
                _say(cfg, f"  failed {name}: value {_fmt(value)} vs tolerance {_fmt(tol)}")
    return EXIT_OK if report.passed else EXIT_ADMISSIBILITY


def mode_hyperbolicity(cfg: RunConfig, out_dir: str) -> int:
    report = scan_directions(elasticity_map(build_model(cfg)), cfg.hyp_F, cfg.rho,
                             n_dirs=cfg.n_dirs)

    with open(os.path.join(out_dir, "hyperbolicity.csv"), "w", encoding="utf-8") as fh:
        fh.write(_header(cfg))
        fh.write("w0,w1,w2,eig1,eig2,eig3,speed1,speed2,speed3,"
                 "zero_multiplicity,independent_count\n")
        for row in report.rows():
            vals = [_fmt(x) for x in row[:9]] + [str(row[9]), str(row[10])]
            fh.write(",".join(vals) + "\n")

    verdict = "strongly elliptic" if report.strongly_elliptic else "NOT strongly elliptic"
    _say(cfg, f"hyperbolicity: {verdict}; min acoustic eigenvalue "
              f"{_fmt(report.min_eigenvalue)} along direction "
              f"({', '.join(_fmt(x) for x in report.worst_direction)})")
    return EXIT_OK if report.strongly_elliptic else EXIT_HYPERBOLICITY


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


def _write_snapshot(path: str, cfg: RunConfig, model: ConstitutiveModel, fld: Field):
    st = State(fld.F, fld.p)
    n = fld.F.size // 9
    table = np.column_stack([fld.grid.positions().reshape(n, 3), fld.F.reshape(n, 9),
                             fld.p.reshape(n, 3), model.velocity(st).reshape(n, 3),
                             model.energy(st).reshape(n)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header(cfg))
        fh.write(SNAPSHOT_COLUMNS)
        for flat, vals in enumerate(table):
            fh.write(f"{flat}," + ",".join(map(_FMT.__mod__, vals)) + "\n")


def mode_simulate(cfg: RunConfig, out_dir: str) -> int:
    model = build_model(cfg)
    try:
        fld = _build_field(cfg, model)
        _write_snapshot(os.path.join(out_dir, "snapshot_initial.csv"), cfg, model, fld)
        final, trace = run(model, fld, t_end=cfg.t_end, cfl=cfg.cfl,
                           monitor_every=cfg.monitor_every)
    except (Blowup, NonHyperbolicState, NewtonDivergence, PreconditionFailure) as exc:
        _say(cfg, f"simulation: FAIL ({exc})")
        return EXIT_SIMULATION

    with open(os.path.join(out_dir, "monitors.csv"), "w", encoding="utf-8") as fh:
        fh.write(_header(cfg))
        fh.write("step,t,energy,energy_drift,involution_residual,dissipation_residual\n")
        for row in trace.rows():
            fh.write(str(row[0]) + "," + ",".join(_fmt(x) for x in row[1:]) + "\n")
    _write_snapshot(os.path.join(out_dir, "snapshot_final.csv"), cfg, model, final)

    _say(cfg, f"simulation: OK to t = {_fmt(final.t)} "
              f"({trace.steps[-1]} steps, energy drift {_fmt(trace.energy_drift[-1])})")
    return EXIT_OK


def run_all(cfg: RunConfig) -> int:
    """Dispatch the configured mode(s); returns the process exit code."""
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    if cfg.mode == "admissibility":
        return mode_admissibility(cfg, out_dir)
    if cfg.mode == "hyperbolicity":
        return mode_hyperbolicity(cfg, out_dir)
    if cfg.mode == "simulate":
        return mode_simulate(cfg, out_dir)
    status = EXIT_OK
    for fn in (mode_admissibility, mode_hyperbolicity, mode_simulate):
        code = fn(cfg, out_dir)
        if code != EXIT_OK and status == EXIT_OK:
            status = code
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="elastocons",
        description="Admissibility, hyperbolicity and wave-propagation analysis "
                    "of elasticity in conservation form.")
    ap.add_argument("--config", required=True, help="path to the configuration file")
    ap.add_argument("--mode", choices=MODES, help="override the configured mode")
    ap.add_argument("--out", help="override the output directory")
    ap.add_argument("--seed", type=int, help="override the probe seed")
    ap.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = ap.parse_args(argv)
    overrides = {key: str(value) for key, value in
                 (("mode", args.mode), ("out", args.out), ("seed", args.seed)) if value is not None}
    if args.quiet:
        overrides["quiet"] = "true"

    try:
        cfg = load_config(args.config, overrides)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        return run_all(cfg)
    except ElastoconsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION if cfg.mode in ("simulate", "all") else EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
