import os

import numpy as np
import pytest

from elastocons import parse_config
from elastocons.cli import main
from elastocons.errors import ParseError, ValidationError

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


def test_tensor_model_blocked_from_hyperbolicity_mode():
    with pytest.raises(ValidationError):
        parse_config("[model]\nmodel = tensor\nv = 1,2,3\n[run]\nmode = all\n")


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
    with open(os.path.join(out, "admissibility.txt"), encoding="utf-8") as fh:
        assert "representation_split_pass=true" in fh.read().splitlines()


def test_cli_parity_corruption_fails_admissibility(tmp_path):
    tmp = str(tmp_path)
    text = FAST_ALL.replace("sigma = linear_isotropic",
                            "sigma = linear_isotropic\ncorruption = parity")
    cfgp = _write(tmp, text)
    out = os.path.join(tmp, "out")
    code = main(["--config", cfgp, "--mode", "admissibility", "--out", out, "--quiet"])
    assert code == 2
    rows = {}
    with open(os.path.join(out, "admissibility.csv"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("check"):
                continue
            name, value, tol, ok = line.strip().split(",")
            rows[name] = (float(value), float(tol), ok == "true")
    assert rows["parity"][2] is False
    assert rows["parity"][0] > rows["parity"][1]  # residual above tolerance
    assert rows["thermo_velocity"][2] is True


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


TENSOR_ALL = MINIMAL.replace("mode = admissibility", "mode = all").replace(
    "model = classical", "model = tensor\nv = 1, 2, 3") + "[probes]\ncount = 20\n"


def test_cli_mode_override_is_validated_with_the_file(tmp_path, capsys):
    # the file alone is invalid (a tensor model under mode = all); the
    # command-line mode replaces it before validation
    tmp = str(tmp_path)
    cfgp = _write(tmp, TENSOR_ALL)
    out = os.path.join(tmp, "out")
    assert main(["--config", cfgp, "--mode", "admissibility", "--out", out, "--quiet"]) == 0
    assert os.path.exists(os.path.join(out, "admissibility.csv"))
    assert main(["--config", cfgp, "--mode", "hyperbolicity", "--out", out, "--quiet"]) == 64
    assert "supports only model = classical" in capsys.readouterr().err


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
