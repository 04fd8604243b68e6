import configparser
import dataclasses
import io
import os
import re

import numpy as np
import pytest

from elastocons import (RunConfig, elasticity_map, load_config, parse_config,
                        scan_directions)
from elastocons.cli import build_model, main
from elastocons.config import SCHEMA
from elastocons.errors import ParseError, ValidationError

REFERENCE_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "isotropic.ini")

MINIMAL = """\
[run]
mode = admissibility
[model]
model = classical
rho = 1
sigma = linear_isotropic
lambda = 2
mu = 1
"""

FAST_ALL = """\
[run]
mode = all
seed = 97
[model]
model = classical
rho = 1
sigma = linear_isotropic
lambda = 2
mu = 1
[probes]
count = 20
[hyperbolicity]
n_dirs = 16
[grid]
cells = 32
[evolve]
cfl = 0.5
t_end = 0.03
monitor_every = 4
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.mode == "admissibility"
    assert cfg.model == "classical"
    assert cfg.rho == 1.0
    assert cfg.sigma == "linear_isotropic"
    assert cfg.lam == 2.0 and cfg.mu == 1.0
    assert cfg.probe_count == 100
    assert cfg.cells == (400,)
    assert cfg.cfl == 0.5
    assert cfg.corruption == "none"


def test_unknown_key_is_named():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "rho_typo = 3\n")
    assert "rho_typo" in str(err.value)


def test_a_default_section_is_one_unknown_section():
    # [DEFAULT] is not configparser's special section here: one problem, no key spread
    with pytest.raises(ValidationError) as err:
        parse_config("[DEFAULT]\nmode = bogus\nrho_typo = 3\n")
    assert err.value.problems == ["[DEFAULT]: unknown section"]
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "[DEFAULT]\nsigma = stvk\n")
    assert err.value.problems == ["[DEFAULT]: unknown section"]


def test_cfl_range_enforced():
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "[evolve]\ncfl = 1.5\n")
    assert "cfl" in str(err.value)


def test_all_violations_reported_together():
    bad = MINIMAL + "bad_key = 1\n[evolve]\ncfl = 1.5\nt_end = -2\n[grid]\ndims = 7\n"
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    msg = str(err.value)
    for token in ("bad_key", "cfl", "t_end", "dims"):
        assert token in msg
    assert len(err.value.problems) >= 4


def test_parse_error_carries_line_info():
    with pytest.raises(ParseError) as err:
        parse_config("[run]\nmode admissibility\n")
    assert "line" in str(err.value).lower() or "2" in str(err.value)


def test_tensor_model_requires_v():
    with pytest.raises(ValidationError) as err:
        parse_config("[model]\nmodel = tensor\n[run]\nmode = admissibility\n")
    assert "v" in str(err.value)
    cfg = parse_config("[model]\nmodel = tensor\nv = 1, 2, 3\n[run]\nmode = admissibility\n")
    assert np.allclose(cfg.v_tensor, np.diag([1.0, 2.0, 3.0]))


def _write(tmp_path, text):
    path = os.path.join(tmp_path, "cfg.ini")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def test_cli_all_happy_path(tmp_path):
    tmp = str(tmp_path)
    cfgp = _write(tmp, FAST_ALL)
    out = os.path.join(tmp, "out")
    code = main(["--config", cfgp, "--out", out, "--quiet"])
    assert code == 0
    for name in ("admissibility.csv", "admissibility.txt", "hyperbolicity.csv",
                 "monitors.csv", "snapshot_initial.csv", "snapshot_final.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "monitors.csv"), encoding="utf-8") as fh:
        head = fh.read().splitlines()
    assert head[0].startswith("# elastocons ")
    assert head[1].startswith("# config_sha256=")
    assert head[2] == "# seed=97"
    assert head[3] == "step,t,energy,energy_drift,involution_residual,dissipation_residual"
    for name in ("snapshot_initial.csv", "snapshot_final.csv"):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            assert fh.read().splitlines()[:3] == head[:3], name
    with open(os.path.join(out, "admissibility.txt"), encoding="utf-8") as fh:
        assert "representation_split_pass=true" in fh.read().splitlines()


def _admissibility_rows(out):
    """admissibility.csv of an output directory as {row: (value, tolerance, pass)}."""
    rows = {}
    with open(os.path.join(out, "admissibility.csv"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("check"):
                continue
            name, value, tol, ok = line.strip().split(",")
            rows[name] = (float(value), float(tol), ok == "true")
    return rows


def test_cli_parity_corruption_fails_admissibility(tmp_path):
    tmp = str(tmp_path)
    text = FAST_ALL.replace("sigma = linear_isotropic",
                            "sigma = linear_isotropic\ncorruption = parity")
    cfgp = _write(tmp, text)
    out = os.path.join(tmp, "out")
    code = main(["--config", cfgp, "--mode", "admissibility", "--out", out, "--quiet"])
    assert code == 2
    rows = _admissibility_rows(out)
    assert rows["parity"][2] is False
    assert rows["parity"][0] > rows["parity"][1]  # residual above tolerance
    assert rows["thermo_velocity"][2] is True


def test_cli_maxwell_control_fails_the_thermo_stress_row_alone(tmp_path, capsys):
    # a Maxwell violation forces a thermo one, through the stress residual only:
    # the velocity residual's row passes on its own flag
    tmp = str(tmp_path)
    cfgp = _write(tmp, FAST_ALL.replace("sigma = linear_isotropic",
                                        "sigma = linear_isotropic\ncorruption = maxwell"))
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", "admissibility", "--out", out]) == 2
    rows = _admissibility_rows(out)
    assert [name for name, (_, _, ok) in rows.items() if not ok] == ["thermo_stress", "maxwell"]
    res_v, tol, _ = rows["thermo_velocity"]
    assert res_v <= tol < rows["thermo_stress"][0]
    failed = [line.split(":")[0].strip() for line in capsys.readouterr().out.splitlines()
              if line.startswith("  failed")]
    assert failed == ["failed thermo_stress", "failed maxwell"]
    with open(os.path.join(out, "admissibility.txt"), encoding="utf-8") as fh:
        text = fh.read()
    assert "thermo_velocity_pass=true\n" in text and "thermo_stress_pass=false\n" in text


def test_cli_negative_shear_fails_hyperbolicity(tmp_path):
    tmp = str(tmp_path)
    cfgp = _write(tmp, FAST_ALL.replace("mu = 1", "mu = -1"))
    out = os.path.join(tmp, "out")
    code = main(["--config", cfgp, "--mode", "hyperbolicity", "--out", out, "--quiet"])
    assert code == 3
    min_eig = np.inf
    with open(os.path.join(out, "hyperbolicity.csv"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("w0"):
                continue
            vals = line.strip().split(",")
            min_eig = min(min_eig, float(vals[5]))
    assert min_eig < 0.0  # the report pins a negative acoustic eigenvalue


def test_cli_byte_identical_reruns(tmp_path):
    tmp = str(tmp_path)
    cfgp = _write(tmp, FAST_ALL)
    outs = []
    for sub in ("a", "b"):
        out = os.path.join(tmp, sub)
        assert main(["--config", cfgp, "--out", out, "--quiet"]) == 0
        outs.append(out)
    for name in sorted(os.listdir(outs[0])):
        with open(os.path.join(outs[0], name), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(outs[1], name), "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b, f"{name} differs between identical runs"


NONCUBIC_3D = """\
[run]
mode = simulate
[model]
sigma = neo_hookean
[grid]
dims = 3
cells = 5 6 7
length = 1 1.2 1.4
[initial]
kind = affine
B = 0.01 0.02 0 0 0.01 0.03 0.02 0 0.01
a = 0.6 0.8 0
b = 0.02 -0.03 0.01
[evolve]
t_end = 0.02
"""


def test_cli_snapshots_hold_the_state_and_the_grid(tmp_path):
    from elastocons.cli import _build_field, build_model
    from elastocons.config import load_config
    from elastocons.solver import run
    tmp = str(tmp_path)
    cfgp = _write(tmp, NONCUBIC_3D)
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--out", out, "--quiet"]) == 0
    cfg = load_config(cfgp)
    model = build_model(cfg)
    initial = _build_field(cfg, model)
    final, _ = run(model, initial, t_end=cfg.t_end, cfl=cfg.cfl,
                   monitor_every=cfg.monitor_every)
    assert final.t > 0.0
    columns = ("index," + ",".join(f"F{i}{j}" for i in range(3) for j in range(3))
               + ",p0,p1,p2")
    for name, fld in (("snapshot_initial.csv", initial), ("snapshot_final.csv", final)):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[3] == "# cells=5 6 7"
        assert lines[4].startswith("# h=") and lines[5].startswith("# t=")
        h = [float(x) for x in lines[4][len("# h="):].split()]
        assert h == list(fld.grid.h) and np.allclose(h, [0.2, 0.2, 0.2])
        assert float(lines[5][len("# t="):]) == fld.t
        assert lines[6] == columns
        rows = [line.split(",") for line in lines[7:]]
        assert len(rows) == 210
        index = np.array([int(r[0]) for r in rows])
        assert np.array_equal(index, np.arange(210))
        values = np.array([[float(x) for x in r[1:]] for r in rows])
        assert np.array_equal(values[:, :9], fld.F.reshape(210, 9))
        assert np.array_equal(values[:, 9:], fld.p.reshape(210, 3))
        # cell centres from the index and the header: x_a = (i_a + 1/2) h_a
        cell = np.stack(np.unravel_index(index, (5, 6, 7)), axis=-1)
        assert np.array_equal((cell + 0.5) * np.array(h), fld.grid.positions().reshape(210, 3))


def test_cli_bad_config_exit_64(tmp_path):
    tmp = str(tmp_path)
    cfgp = _write(tmp, MINIMAL + "rho_typo = 1\n")
    assert main(["--config", cfgp, "--quiet"]) == 64
    assert main(["--config", os.path.join(tmp, "missing.ini")]) == 64


def test_cli_seed_override_recorded(tmp_path):
    tmp = str(tmp_path)
    cfgp = _write(tmp, FAST_ALL)
    out = os.path.join(tmp, "out")
    code = main(["--config", cfgp, "--mode", "admissibility", "--out", out,
                 "--seed", "555", "--quiet"])
    assert code == 0
    with open(os.path.join(out, "admissibility.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[2] == "# seed=555"


def test_cli_hyperbolicity_scans_the_built_model(tmp_path):
    # the ellipticity control has zero stored energy, so its acoustic tensor
    # vanishes in every direction: the scan must fail even though the
    # configured sigma on its own is strongly elliptic
    tmp = str(tmp_path)
    text = FAST_ALL.replace("sigma = linear_isotropic",
                            "sigma = linear_isotropic\ncorruption = ellipticity")
    cfgp = _write(tmp, text)
    out = os.path.join(tmp, "out")
    code = main(["--config", cfgp, "--mode", "hyperbolicity", "--out", out, "--quiet"])
    assert code == 3


def test_cli_monitors_have_no_nan(tmp_path):
    tmp = str(tmp_path)
    cfgp = _write(tmp, FAST_ALL)
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", "simulate", "--out", out, "--quiet"]) == 0
    with open(os.path.join(out, "monitors.csv"), encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines()
                if not line.startswith("#") and not line.startswith("step")]
    # rows follow steps 0 and 4, 8, ... of monitor_every = 4, plus the final one
    assert (int(rows[-1].split(",")[0]) - 1) % 4 != 0
    assert all(np.isfinite(float(x)) for row in rows for x in row.split(","))


def test_cli_simulate_refuses_the_galilean_control(tmp_path, capsys):
    tmp = str(tmp_path)
    text = FAST_ALL.replace("sigma = linear_isotropic",
                            "sigma = linear_isotropic\ncorruption = galilean")
    cfgp = _write(tmp, text)
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", "simulate", "--out", out]) == 4
    assert "simulation: FAIL (velocity coefficient" in capsys.readouterr().out
    assert not os.path.exists(os.path.join(out, "monitors.csv"))


def test_cli_simulate_refuses_the_normality_control_at_rest(tmp_path, capsys):
    # v = |p|^2 p has dv/dp = 0 at rest: a differenced V there is truncation error only
    tmp = str(tmp_path)
    cfgp = _write(tmp, MINIMAL.replace("sigma = linear_isotropic",
                                       "sigma = linear_isotropic\ncorruption = normality")
                  + "[grid]\ncells = 16\n[initial]\nkind = rest\n[evolve]\nt_end = 0.05\n")
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", "simulate", "--out", out]) == 4
    assert "simulation: FAIL (velocity coefficient" in capsys.readouterr().out
    assert not os.path.exists(os.path.join(out, "monitors.csv"))


def test_cli_mode_override_is_validated_with_the_file(tmp_path, capsys):
    # the file alone is invalid (an unknown mode); the command-line mode
    # replaces it before validation
    tmp = str(tmp_path)
    cfgp = _write(tmp, MINIMAL.replace("mode = admissibility", "mode = bogus"))
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", "admissibility", "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "admissibility.csv"))
    assert main(["--config", cfgp, "--out", out, "--quiet"]) == 64
    assert "[run] mode = 'bogus'" in capsys.readouterr().err


V_TENSOR = np.array([[0.8, 0.1, 0.0], [0.1, 0.6, 0.05], [0.0, 0.05, 0.7]])
TENSOR_ALL = FAST_ALL.replace("n_dirs = 16", "n_dirs = 256").replace(
    "model = classical", "model = tensor\nv = " + " ".join(map(str, V_TENSOR.ravel())))


def test_cli_tensor_model_runs_every_mode(tmp_path):
    tmp = str(tmp_path)
    cfgp = _write(tmp, TENSOR_ALL)
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--out", out, "--quiet"]) == 0
    for name in ("admissibility.csv", "admissibility.txt", "hyperbolicity.csv",
                 "monitors.csv", "snapshot_initial.csv", "snapshot_final.csv"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "hyperbolicity.csv"), encoding="utf-8") as fh:
        rows = [[float(x) for x in line.split(",")] for line in fh.read().splitlines()
                if not line.startswith("#") and not line.startswith("w0")]
    assert len(rows) == 282
    for row in rows:
        # linear isotropic at F = I: E(w) = (lambda + mu) w (x) w + mu 1
        w = np.array(row[:3])
        E = 3.0 * np.outer(w, w) + np.eye(3)
        mu = np.sort(np.linalg.eigvals(V_TENSOR @ E).real)[::-1]
        assert np.abs(np.array(row[6:9]) ** 2 - mu).max() <= 1e-12
        assert row[9:] == [6, 6]


def test_cli_hyperbolicity_csv_is_the_scan(tmp_path):
    # tensor-mass St. Venant-Kirchhoff past its ellipticity boundary: NaN speeds
    tmp = str(tmp_path)
    cfgp = _write(tmp, TENSOR_ALL.replace("sigma = linear_isotropic", "sigma = stvk").replace(
        "n_dirs = 256", "n_dirs = 256\nf = 0.5 0 0 0 0.5 0 0 0 0.5"))
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", "hyperbolicity", "--out", out, "--quiet"]) == 3
    with open(os.path.join(out, "hyperbolicity.csv"), encoding="utf-8") as fh:
        table = np.array([[float(x) for x in line.split(",")] for line in fh.read().splitlines()
                          if not line.startswith("#") and not line.startswith("w0")])
    cfg = load_config(cfgp)
    m = build_model(cfg)
    assert m.name == "tensor_mass(stvk)" and np.array_equal(m.V, V_TENSOR)
    report = scan_directions(elasticity_map(m), cfg.hyp_F, m.V, n_dirs=cfg.n_dirs)
    assert np.isnan(report.speeds).any()
    expected = np.column_stack([report.directions, report.eigenvalues, report.speeds,
                                report.zero_multiplicity, report.independent_count])
    assert np.array_equal(table, expected, equal_nan=True)


def test_cli_indefinite_velocity_coefficient_fails_hyperbolicity(tmp_path, capsys):
    tmp = str(tmp_path)
    cfgp = _write(tmp, FAST_ALL.replace("model = classical", "model = tensor\nv = 1, -1, 1"))
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", "hyperbolicity", "--out", out]) == 3
    assert "not positive definite" in capsys.readouterr().out


def test_cli_default_section_exit_64(tmp_path, capsys):
    tmp = str(tmp_path)
    cfgp = _write(tmp, MINIMAL + "[DEFAULT]\nquiet = true\n")
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--out", out, "--quiet"]) == 64
    assert "[DEFAULT]: unknown section" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_negative_seed_override_exit_64(tmp_path, capsys):
    tmp = str(tmp_path)
    cfgp = _write(tmp, MINIMAL)
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--seed", "-1", "--out", out, "--quiet"]) == 64
    assert "[run] seed = -1: must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_overrides_leave_the_config_digest_alone(tmp_path):
    tmp = str(tmp_path)
    cfgp = _write(tmp, MINIMAL)
    heads = []
    for seed in ("1", "2"):
        out = os.path.join(tmp, seed)
        assert main(["--config", cfgp, "--seed", seed, "--out", out, "--quiet"]) == 0
        with open(os.path.join(out, "admissibility.csv"), encoding="utf-8") as fh:
            heads.append(fh.read().splitlines()[:3])
    assert heads[0][1] == heads[1][1]  # config_sha256 of the file text
    assert (heads[0][2], heads[1][2]) == ("# seed=1", "# seed=2")


@pytest.mark.parametrize("mode", ["hyperbolicity", "all"])
def test_cli_scan_point_outside_the_energy_domain_fails_hyperbolicity(tmp_path, capsys, mode):
    # det F = -1 is outside the neo-Hookean domain: a hyperbolicity failure (exit 3),
    # and under mode = all the simulation still runs
    tmp = str(tmp_path)
    text = FAST_ALL.replace("sigma = linear_isotropic", "sigma = neo_hookean").replace(
        "n_dirs = 16", "n_dirs = 16\nf = -1 0 0 0 1 0 0 0 1")
    cfgp = _write(tmp, text)
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", mode, "--out", out]) == 3
    stdout = capsys.readouterr().out
    assert "hyperbolicity: FAIL (neo-Hookean energy requires det F > 0" in stdout
    assert not os.path.exists(os.path.join(out, "hyperbolicity.csv"))
    assert ("simulation: OK" in stdout) == (mode == "all")


def test_non_finite_numbers_are_rejected_together():
    bad = (MINIMAL.replace("lambda = 2", "lambda = nan")
           + "[evolve]\nt_end = inf\n[hyperbolicity]\nf = 1 0 0 0 1 0 0 0 -inf\n")
    with pytest.raises(ValidationError) as err:
        parse_config(bad)
    problems = err.value.problems
    assert len(problems) == 3
    for key in ("lambda", "t_end", "f"):
        assert any(f"] {key} = " in p and "finite" in p for p in problems), key


@pytest.mark.parametrize("grid", ["cells = 10.9", "cells = 16 32 64", "length = 1 2 3",
                                  "dims = 3\ncells = 8 8"])
def test_grid_entries_are_whole_and_one_or_one_per_axis(grid):
    with pytest.raises(ValidationError) as err:
        parse_config(MINIMAL + "[grid]\n" + grid + "\n")
    assert ("cells" in str(err.value)) == ("cells" in grid)


def test_one_grid_entry_serves_every_axis():
    cfg = parse_config(MINIMAL + "[grid]\ndims = 3\ncells = 8\nlength = 1 2 3\n")
    assert (cfg.cells, cfg.lengths) == ((8, 8, 8), (1.0, 2.0, 3.0))


@pytest.mark.parametrize("v", ["1 1 1e-13", "1 0.5 0 0 1 0 0 0 1"])
@pytest.mark.parametrize("mode", ["admissibility", "hyperbolicity", "simulate", "all"])
def test_cli_model_that_cannot_be_built_exit_64(tmp_path, capsys, mode, v):
    # a singular or non-symmetric V is a configuration error in every mode
    tmp = str(tmp_path)
    cfgp = _write(tmp, FAST_ALL.replace("model = classical", "model = tensor\nv = " + v))
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", mode, "--out", out, "--quiet"]) == 64
    assert "velocity coefficient tensor V is" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_library_error_inside_a_stage_fails_that_stage(tmp_path, capsys):
    # the affine initial field has det F = -1, outside the neo-Hookean domain:
    # the simulation stage fails, after the hyperbolicity stage has failed first
    tmp = str(tmp_path)
    text = FAST_ALL.replace("model = classical", "model = tensor\nv = 1 1 -1").replace(
        "sigma = linear_isotropic", "sigma = neo_hookean").replace(
        "t_end = 0.03", "t_end = 0.01") + "[initial]\nkind = affine\nA = -1 0 0 0 1 0 0 0 1\n"
    cfgp = _write(tmp, text)
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--out", out]) == 3
    captured = capsys.readouterr()
    assert "hyperbolicity: FAIL (velocity coefficient not positive definite" in captured.out
    assert "simulation: FAIL (neo-Hookean energy requires det F > 0" in captured.out
    assert captured.err == ""


def test_cli_all_builds_the_model_once(tmp_path, monkeypatch):
    from elastocons import cli
    built = []
    build_model = cli.build_model
    monkeypatch.setattr(cli, "build_model", lambda cfg: built.append(cfg) or build_model(cfg))
    tmp = str(tmp_path)
    assert main(["--config", _write(tmp, FAST_ALL), "--out", os.path.join(tmp, "out"),
                 "--quiet"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("flags,message", [
    (["--mode", "bogus"], "[run] mode = 'bogus': expected one of"),
    (["--seed", "abc"], "[run] seed = 'abc': expected an integer"),
    (None, "the following arguments are required: --config"),
], ids=["bad-mode", "bad-seed", "missing-config"])
def test_cli_usage_error_exit_64(tmp_path, capsys, flags, message):
    # exit 2 is the admissibility-failure code, so a usage error must not use it
    tmp = str(tmp_path)
    out = os.path.join(tmp, "out")
    args = ["--config", _write(tmp, MINIMAL)] + flags if flags else []
    assert main(args + ["--out", out, "--quiet"]) == 64
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_cli_help_exit_0(capsys):
    assert main(["-h"]) == 0
    assert "--config" in capsys.readouterr().out


def test_schema_runconfig_and_reference_config_agree():
    # setattr on a misspelt attribute would silently create a new one
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert {attr for keys in SCHEMA.values() for attr, _ in keys.values()} <= fields
    # the reference config names every key, commented or not, and no other
    named, section = set(), None
    with open(REFERENCE_CONFIG, encoding="utf-8") as fh:
        for line in fh:
            header = re.match(r"\[(\w+)\]", line)
            entry = re.match(r"#?\s*(\w+)\s*=", line)
            if header:
                section = header.group(1)
            elif entry and section:
                named.add((section, entry.group(1)))
    assert named == {(section, key) for section, keys in SCHEMA.items() for key in keys}


BAD_VALUES = {
    ("run", "mode"): "bogus", ("run", "seed"): "abc", ("run", "quiet"): "maybe",
    ("model", "model"): "bogus", ("model", "rho"): "0", ("model", "sigma"): "bogus",
    ("model", "lambda"): "nan", ("model", "mu"): "x", ("model", "corruption"): "bogus",
    ("model", "v"): "1 2", ("probes", "count"): "3", ("hyperbolicity", "n_dirs"): "0",
    ("hyperbolicity", "f"): "1 0 0", ("grid", "dims"): "2", ("grid", "cells"): "10.9",
    ("grid", "length"): "-1", ("initial", "kind"): "bogus",
    ("initial", "polarization"): "bogus", ("initial", "amplitude"): "inf",
    ("initial", "A"): "1 2 3", ("initial", "B"): "x", ("initial", "a"): "1 2",
    ("initial", "b"): "1 2 3 4", ("initial", "c"): "1 inf 0", ("initial", "x0"): "",
    ("evolve", "cfl"): "1.5", ("evolve", "t_end"): "0", ("evolve", "monitor_every"): "0",
}


@pytest.mark.parametrize("section,key", [(section, key) for section, keys in SCHEMA.items()
                                         for key in keys if (section, key) != ("run", "out")])
def test_every_key_rejects_a_malformed_value(section, key):
    # [run] out is left out: any text names an output directory
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser.read_string(MINIMAL)
    parser.read_dict({section: {key: BAD_VALUES[section, key]}})
    text = io.StringIO()
    parser.write(text)
    with pytest.raises(ValidationError) as err:
        parse_config(text.getvalue())
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith(f"[{section}] {key}")
