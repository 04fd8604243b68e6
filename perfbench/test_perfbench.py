"""Self-tests of the benchmark: its checks, statistics, verdicts and tracer.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import bench
import checks
import compare
import spans
import stats
import workloads

HEADER = "# elastocons 0.1.0\n# config_sha256=0\n# seed=1\n"


def write_csv(path, columns: dict):
    names = list(columns)
    rows = zip(*(np.asarray(columns[n], dtype=float) for n in names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + ",".join(names) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % x for x in row) + "\n")


# ---------------------------------------------------------------------------
# Correctness checks reject hand-made wrong outputs
# ---------------------------------------------------------------------------

def test_wrong_exit_code_is_rejected():
    assert checks.check_exit(3, 3) == []
    assert checks.check_exit(0, 3) == ["exit code 0, expected 3"]


def _scan_columns(eigs, rho):
    n = checks.N_DIRECTIONS
    cols = {"w0": np.ones(n), "w1": np.zeros(n), "w2": np.zeros(n)}
    for k, e in enumerate(eigs):
        cols[f"eig{k + 1}"] = np.full(n, e)
        cols[f"speed{k + 1}"] = np.full(n, np.sqrt(e / rho) if e >= 0 else np.nan)
    cols["zero_multiplicity"] = np.full(n, 6)
    cols["independent_count"] = np.full(n, 6)
    return cols


def test_wrong_eigenvalue_row_is_rejected(tmp_path):
    cols = _scan_columns((4.0, 1.0, 1.0), rho=1.5)
    write_csv(tmp_path / "hyperbolicity.csv", cols)
    assert checks.check_scan(str(tmp_path), rho=1.5, expected_eigs=(4, 1, 1)) == []

    cols["eig2"][17] = 1.01
    write_csv(tmp_path / "hyperbolicity.csv", cols)
    problems = checks.check_scan(str(tmp_path), rho=1.5, expected_eigs=(4, 1, 1))
    assert any("eig2" in p for p in problems)


def test_inconsistent_speed_and_modes_are_rejected(tmp_path):
    cols = _scan_columns((4.0, 1.0, 1.0), rho=1.0)
    cols["speed1"][3] = 2.5
    cols["zero_multiplicity"][5] = 5
    write_csv(tmp_path / "hyperbolicity.csv", cols)
    problems = checks.check_scan(str(tmp_path), rho=1.0)
    assert any("speed1" in p for p in problems)
    assert any("multiplicity" in p for p in problems)


def test_stvk_closed_form_crosses_zero_at_loss_of_ellipticity():
    s_star = np.sqrt(0.8)
    _, transverse, _ = checks.stvk_uniform_stretch_eigs(s_star, 2.0, 1.0)
    assert abs(transverse) < 1e-12
    assert checks.stvk_uniform_stretch_eigs(1.0, 2.0, 1.0) == (4.0, 1.0, 1.0)


def _wave(n=400, shift_cells=0):
    x = (np.arange(n) + 0.5) / n
    return 0.01 * np.sin(2 * np.pi * (x - shift_cells / n))


def _simulation_outputs(tmp_path, final_p0, t_end=0.25):
    n = 400
    base = {f"F{i}{j}": np.full(n, float(i == j)) for i in range(3) for j in range(3)}
    base.update({"p0": _wave(n), "p1": np.zeros(n), "p2": np.zeros(n)})
    write_csv(tmp_path / "snapshot_initial.csv", base)
    final = dict(base, p0=final_p0)
    write_csv(tmp_path / "snapshot_final.csv", final)
    write_csv(tmp_path / "monitors.csv",
              {"step": [0, 405], "t": [0.0, t_end], "involution_residual": [0.0, 0.0]})


def test_broken_conservation_sum_is_rejected(tmp_path):
    # a speed-2 wave after t = 0.25 has moved half the unit domain: 200 cells
    moved = _wave(shift_cells=200)
    _simulation_outputs(tmp_path, moved)
    speed = ("p0", 1.0, 2.0)
    assert checks.check_simulation(str(tmp_path), speed=speed) == []

    broken = moved.copy()
    broken[10] += 1e-6
    _simulation_outputs(tmp_path, broken)
    problems = checks.check_simulation(str(tmp_path), speed=speed)
    assert problems and all("p0" in p for p in problems)


def test_wrong_wave_speed_is_rejected(tmp_path):
    _simulation_outputs(tmp_path, _wave(shift_cells=180))   # speed 1.8
    problems = checks.check_simulation(str(tmp_path), speed=("p0", 1.0, 2.0))
    assert len(problems) == 1 and "wave speed" in problems[0]


def _admissibility_csv(path, failing):
    rows = ["normality", "ellipticity", "thermo_velocity", "thermo_stress",
            "maxwell", "galilean", "parity"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(HEADER + "check,residual,tolerance,pass\n")
        for name in rows:
            ok = checks.CHECK_OF_ROW.get(name, name) not in failing
            fh.write(f"{name},0,1e-9,{str(ok).lower()}\n")


def test_control_with_wrong_failing_set_is_rejected(tmp_path):
    _admissibility_csv(tmp_path / "admissibility.csv", {"maxwell", "thermo"})
    assert checks.check_control(str(tmp_path), "maxwell") == []
    _admissibility_csv(tmp_path / "admissibility.csv", {"maxwell"})
    assert checks.check_control(str(tmp_path), "maxwell") != []


def test_wrong_recovered_velocity_coefficient_is_rejected(tmp_path):
    _admissibility_csv(tmp_path / "admissibility.csv", set())
    V = np.eye(3) / 1.5
    with open(tmp_path / "admissibility.txt", "w", encoding="utf-8") as fh:
        fh.write(HEADER)
        for i in range(3):
            for j in range(3):
                fh.write(f"representation_V_{i}{j}={V[i, j] + (1e-5 if i == j == 2 else 0):.17g}\n")
    problems = checks.check_admissible(str(tmp_path), V)
    assert len(problems) == 1 and "recovered V" in problems[0]


# ---------------------------------------------------------------------------
# Statistics and verdicts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (99, 75.0), (100, 90.0),
                                    (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))
    got = stats.tail_percentile(samples)
    if pct is None:
        assert got is None
        return
    assert got[0] == pct
    assert sum(s > got[1] for s in samples) >= 10


def test_verdict_flags_synthetic_regression_and_gain():
    rng = np.random.default_rng(0)
    parent = list(1.0 + 0.01 * rng.standard_normal(10))
    slower = [p * 1.2 for p in parent]
    faster = [p * 0.8 for p in parent]
    assert stats.verdict(parent, slower, "lower", 0.1) == "worse"
    assert stats.verdict(parent, faster, "lower", 0.1) == "better"
    assert stats.verdict(parent, faster, "higher", 0.1) == "worse"
    assert stats.verdict(parent, list(parent), "lower", 0.1) == "unchanged"


def test_verdict_reports_overlapping_spreads_as_unresolved():
    parent = [0.7, 1.3, 0.8, 1.2, 0.9, 1.1, 1.0, 0.75, 1.25, 1.05]
    change = [1.2, 0.8, 1.3, 0.7, 1.1, 0.9, 1.05, 1.25, 0.75, 1.0]
    assert stats.verdict(parent, change, "lower", 0.1) == "unresolved"
    assert stats.verdict(parent[:9], [p * 2 for p in parent[:9]], "lower", 0.1) == "unresolved"


def test_compare_pairs_runs_by_seed():
    def rec(seed, wall):
        return {"end_to_end": {m: {"value": wall if m == "wall_s" else None, "unit": u}
                               for m, (u, _) in bench.END_TO_END.items()}}
    parent = {"w": {s: rec(s, 1.0 + 0.001 * s) for s in range(10)}}
    change = {"w": {s: rec(s, 1.5 + 0.001 * s) for s in range(10)}}
    rows = compare.compare(parent, change, compare.bounds())
    assert [(r[1], r[-1]) for r in rows] == [("wall_s", "worse")]


# ---------------------------------------------------------------------------
# Tracer and the benchmark's declared metrics
# ---------------------------------------------------------------------------

def test_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: sum(range(20000)))
    mid = tracer.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = tracer.wrap("root", lambda: (mid(), leaf()))
    root()
    assert tracer.calls == {"root": 1, "mid": 1, "leaf": 4}
    assert tracer.edges[("mid", "leaf")] == 3 and tracer.edges[("root", "leaf")] == 1
    assert tracer.self_sum() == pytest.approx(tracer.total["root"], rel=1e-9)
    assert all(tracer.self_time[s] >= 0 for s in ("root", "mid", "leaf"))


def test_speed_probe_samples_during_a_call_and_is_subtracted():
    class Busy:
        @staticmethod
        def main(argv):
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
            return 0

    call = workloads.Call(label="busy", mode="admissibility", config="", out="", seed=0,
                          expected_exit=0, check=lambda out: [])
    with bench.SpeedProbe() as probe:
        rec = bench.time_call(Busy, call, probe)
    assert rec["problems"] == []
    assert len(probe.samples) >= 5
    assert rec["probe_s"] == pytest.approx(sum(probe.samples) / len(probe.samples))
    assert rec["seconds"] == pytest.approx(0.2, abs=0.02)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    assert e2e == {name: bench.END_TO_END[name] for name in bench.GATED}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert layers == bench.per_layer_units()
    assert {w["name"] for w in declared["workloads"]} == set(workloads.BUILDERS)


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "evolve_1d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
