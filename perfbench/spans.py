"""Timing shims installed from the benchmark around the package's layers.

Each shim replaces a public function under the name its caller looks it up
by (``cli`` imports ``sine_wave_field`` by name, so the shim goes into
``elastocons.cli``).  The model's ``energy``/``velocity``/``stress``/
``analytic_S4`` callables are wrapped through ``cli.build_model``.  Spans are
kept in memory; a span's self time is its duration minus the time of the
wrapped spans it directly contains.  Span names are the metric names, so a
later rename of a Python function keeps the same metric.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict

# (module of the caller, attribute the caller looks up, span name)
SHIMS = (
    ("cli", "load_config", "config.load_config"),
    ("cli", "mode_admissibility", "cli.mode_admissibility"),
    ("cli", "mode_hyperbolicity", "cli.mode_hyperbolicity"),
    ("cli", "mode_simulate", "cli.mode_simulate"),
    ("cli", "full_report", "admissibility.full_report"),
    ("cli", "extract_representation", "admissibility.extract_representation"),
    ("cli", "scan_directions", "hyperbolicity.scan_directions"),
    ("cli", "sine_wave_field", "solver.sine_wave_field"),
    ("cli", "run", "solver.run"),
    ("admissibility", "check_normality", "admissibility.check_normality"),
    ("admissibility", "check_ellipticity", "admissibility.check_ellipticity"),
    ("admissibility", "check_thermo", "admissibility.check_thermo"),
    ("admissibility", "check_maxwell", "admissibility.check_maxwell"),
    ("admissibility", "check_galilean", "admissibility.check_galilean"),
    ("admissibility", "check_parity", "admissibility.check_parity"),
    ("admissibility", "fd_velocity_jacobian", "constitutive.fd_velocity_jacobian"),
    ("admissibility", "momentum_from_velocity", "constitutive.momentum_from_velocity"),
    ("constitutive", "fd_velocity_jacobian", "constitutive.fd_velocity_jacobian"),
    ("solver", "fd_velocity_jacobian", "constitutive.fd_velocity_jacobian"),
    ("solver", "momentum_from_velocity", "constitutive.momentum_from_velocity"),
    ("solver", "total_energy", "solver.total_energy"),
    ("solver", "dissipation_residual", "solver.dissipation_residual"),
    ("solver", "involution_residual", "solver.involution_residual"),
    ("hyperbolicity", "acoustic_tensor", "hyperbolicity.acoustic_tensor"),
    ("hyperbolicity", "eigenstructure", "hyperbolicity.eigenstructure"),
    ("hyperbolicity", "flux_jacobian", "hyperbolicity.flux_jacobian"),
    ("hyperbolicity", "eig_sym", "tensors.eig_sym"),
    ("hyperbolicity", "eig_general", "tensors.eig_general"),
)
MODEL_SPANS = {"energy": "constitutive.energy", "velocity": "constitutive.velocity",
               "stress": "constitutive.stress", "analytic_S4": "constitutive.S4"}

SPANS = tuple(dict.fromkeys([s for _, _, s in SHIMS] + list(MODEL_SPANS.values())))

# Newton iterations: one velocity Jacobian per iteration of the inversion.
NEWTON_EDGE = ("constitutive.momentum_from_velocity", "constitutive.fd_velocity_jacobian")


class Tracer:
    """Accumulates span durations, self times, calls and parent-child counts."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.edges = Counter()    # (parent span, child span) -> calls
        self.missing = []         # shims whose attribute no longer exists
        self._stack = []          # [span name, time covered by child spans]
        self._undo = []

    def wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        def shim(*args, **kwargs):
            self.edges[(stack[-1][0] if stack else None, name)] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self.total[name] += dt
                self.self_time[name] += dt - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += dt
        return shim

    def _patch(self, module, attr, replacement):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _present(self, module, attr, mod_name) -> bool:
        if hasattr(module, attr):
            return True
        if f"{mod_name}.{attr}" not in self.missing:
            self.missing.append(f"{mod_name}.{attr}")
        return False

    def install(self, package) -> None:
        """Put every shim in place; ``package`` is the imported elastocons."""
        for mod_name, attr, span in SHIMS:
            module = getattr(package, mod_name, None)
            if self._present(module, attr, mod_name):
                self._patch(module, attr, self.wrap(span, getattr(module, attr)))

        cli = package.cli
        if not (self._present(cli, "build_model", "cli")
                and self._present(cli, "elasticity_map", "cli")):
            return
        build_model = cli.build_model

        def traced_build_model(cfg):
            model = build_model(cfg)
            return dataclasses.replace(model, **{
                field: self.wrap(span, getattr(model, field))
                for field, span in MODEL_SPANS.items()
                if getattr(model, field) is not None})
        self._patch(cli, "build_model", traced_build_model)

        # the hyperbolicity mode takes S4 from the stored energy, not the model
        elasticity_map = cli.elasticity_map
        self._patch(cli, "elasticity_map",
                    lambda obj: self.wrap(MODEL_SPANS["analytic_S4"], elasticity_map(obj)))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def self_sum(self) -> float:
        return sum(self.self_time.values())
