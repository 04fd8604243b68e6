"""Sectioned key/value run configuration.

The format is INI-style: sections in brackets, ``key = value`` lines.  All
validation problems are collected and reported together; unknown sections or
keys are errors, not warnings, so a typo can never silently fall back to a
default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .constitutive import CORRUPTION_KINDS
from .errors import ParseError, ValidationError

MODES = ("admissibility", "hyperbolicity", "simulate", "all")
MODELS = ("classical", "tensor")
SIGMAS = ("linear_isotropic", "stvk", "neo_hookean")
INITIAL_KINDS = ("rest", "sine", "affine")
POLARIZATIONS = ("longitudinal", "transverse")

KNOWN_KEYS = {
    "run": {"mode", "seed", "out", "quiet"},
    "model": {"model", "rho", "sigma", "lambda", "mu", "v", "corruption"},
    "probes": {"count"},
    "hyperbolicity": {"n_dirs", "f"},
    "grid": {"dims", "cells", "length"},
    "initial": {"kind", "polarization", "amplitude", "A", "B", "a", "b", "c", "x0"},
    "evolve": {"cfl", "t_end", "monitor_every"},
}


@dataclass
class RunConfig:
    mode: str = "all"
    seed: int = 12345
    out: str = "out"
    quiet: bool = False

    model: str = "classical"
    rho: float = 1.0
    sigma: str = "linear_isotropic"
    lam: float = 2.0
    mu: float = 1.0
    v_tensor: np.ndarray | None = None
    corruption: str = "none"

    probe_count: int = 100

    n_dirs: int = 256
    hyp_F: np.ndarray = field(default_factory=lambda: np.eye(3))

    dims: int = 1
    cells: tuple = (400,)
    lengths: tuple = (1.0,)

    initial_kind: str = "sine"
    polarization: str = "longitudinal"
    amplitude: float = 0.01
    affine_A: np.ndarray = field(default_factory=lambda: np.eye(3))
    affine_B: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    affine_a: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0, 0.0]))
    affine_b: np.ndarray = field(default_factory=lambda: np.array([0.1, 0.0, 0.0]))
    affine_c: np.ndarray = field(default_factory=lambda: np.zeros(3))
    affine_x0: np.ndarray | None = None  # None = domain center

    cfl: float = 0.5
    t_end: float = 0.25
    monitor_every: int = 10

    raw: str = ""


class _Collector:
    """Typed value extraction that records problems instead of raising."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.problems: list[str] = []

    def has(self, section, key):
        return self.parser.has_section(section) and self.parser.has_option(section, key)

    def _get(self, section, key):
        return self.parser.get(section, key).strip()

    def string(self, section, key, default, choices=None):
        if not self.has(section, key):
            return default
        val = self._get(section, key)
        if choices is not None and val not in choices:
            self.problems.append(
                f"[{section}] {key} = {val!r}: expected one of {', '.join(choices)}")
            return default
        return val

    def boolean(self, section, key, default):
        if not self.has(section, key):
            return default
        val = self._get(section, key).lower()
        if val in ("true", "yes", "1", "on"):
            return True
        if val in ("false", "no", "0", "off"):
            return False
        self.problems.append(f"[{section}] {key} = {val!r}: expected a boolean")
        return default

    def integer(self, section, key, default, minimum=None):
        if not self.has(section, key):
            return default
        val = self._get(section, key)
        try:
            num = int(val)
        except ValueError:
            self.problems.append(f"[{section}] {key} = {val!r}: expected an integer")
            return default
        if minimum is not None and num < minimum:
            self.problems.append(f"[{section}] {key} = {num}: must be >= {minimum}")
            return default
        return num

    def number(self, section, key, default, positive=False):
        if not self.has(section, key):
            return default
        val = self._get(section, key)
        try:
            num = float(val)
        except ValueError:
            self.problems.append(f"[{section}] {key} = {val!r}: expected a number")
            return default
        if positive and not num > 0:
            self.problems.append(f"[{section}] {key} = {num}: must be positive")
            return default
        return num

    def vector(self, section, key, default, sizes=(3,)):
        if not self.has(section, key):
            return default
        val = self._get(section, key)
        try:
            entries = [float(x) for x in val.replace(",", " ").split()]
        except ValueError:
            self.problems.append(f"[{section}] {key} = {val!r}: expected numbers")
            return default
        if len(entries) not in sizes:
            self.problems.append(
                f"[{section}] {key}: expected {' or '.join(map(str, sizes))} entries, "
                f"got {len(entries)}")
            return default
        return np.array(entries)


def parse_config(text: str, run_overrides: dict | None = None) -> RunConfig:
    """Parse and validate configuration text.

    ``run_overrides`` (key -> value text) replaces keys of the [run] section
    before validation, so that they meet the same rules as the file; ``raw``
    stays the text.  Raises ParseError on malformed text (with line numbers as
    reported by the parser) and ValidationError listing every invalid
    section, key or value.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # affine keys A and a differ by case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    if run_overrides:
        if not parser.has_section("run"):
            parser.add_section("run")
        for key, value in run_overrides.items():
            parser.set("run", key, value)

    col = _Collector(parser)
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            col.problems.append(f"[{section}]: unknown section")
            continue
        for key in parser.options(section):
            if key not in KNOWN_KEYS[section]:
                col.problems.append(f"[{section}] {key}: unknown key")

    cfg = RunConfig(raw=text)
    cfg.mode = col.string("run", "mode", cfg.mode, MODES)
    cfg.seed = col.integer("run", "seed", cfg.seed, minimum=0)
    cfg.out = col.string("run", "out", cfg.out)
    cfg.quiet = col.boolean("run", "quiet", cfg.quiet)

    cfg.model = col.string("model", "model", cfg.model, MODELS)
    cfg.rho = col.number("model", "rho", cfg.rho, positive=True)
    cfg.sigma = col.string("model", "sigma", cfg.sigma, SIGMAS)
    cfg.lam = col.number("model", "lambda", cfg.lam)
    cfg.mu = col.number("model", "mu", cfg.mu)
    cfg.corruption = col.string("model", "corruption", cfg.corruption,
                                ("none",) + CORRUPTION_KINDS)
    v_entries = col.vector("model", "v", None, sizes=(3, 9))
    if v_entries is not None:
        cfg.v_tensor = (np.diag(v_entries) if v_entries.size == 3
                        else v_entries.reshape(3, 3))
    elif cfg.model == "tensor":
        col.problems.append("[model] v: required when model = tensor")

    cfg.probe_count = col.integer("probes", "count", cfg.probe_count, minimum=4)

    cfg.n_dirs = col.integer("hyperbolicity", "n_dirs", cfg.n_dirs, minimum=1)
    hyp_F = col.vector("hyperbolicity", "f", None, sizes=(9,))
    if hyp_F is not None:
        cfg.hyp_F = hyp_F.reshape(3, 3)
    if cfg.model == "tensor" and cfg.mode in ("hyperbolicity", "all"):
        col.problems.append(
            "[run] mode: hyperbolicity analysis supports only model = classical "
            "(scalar mass density)")

    cfg.dims = col.integer("grid", "dims", cfg.dims)
    if cfg.dims not in (1, 3):
        col.problems.append(f"[grid] dims = {cfg.dims}: must be 1 or 3")
        cfg.dims = 1
    cells = col.vector("grid", "cells", None, sizes=(1, 3))
    lengths = col.vector("grid", "length", None, sizes=(1, 3))
    if cells is None:
        cfg.cells = (400,) if cfg.dims == 1 else (16, 16, 16)
    else:
        vals = [int(x) for x in cells]
        cfg.cells = tuple(vals) if len(vals) == cfg.dims else tuple(vals[:1] * cfg.dims)
        if any(c < 4 for c in cfg.cells):
            col.problems.append(f"[grid] cells = {cfg.cells}: need >= 4 per axis")
    if lengths is None:
        cfg.lengths = (1.0,) * cfg.dims
    else:
        vals = list(lengths)
        cfg.lengths = tuple(vals) if len(vals) == cfg.dims else tuple(vals[:1] * cfg.dims)
        if any(x <= 0 for x in cfg.lengths):
            col.problems.append(f"[grid] length = {cfg.lengths}: must be positive")

    cfg.initial_kind = col.string("initial", "kind", cfg.initial_kind, INITIAL_KINDS)
    cfg.polarization = col.string("initial", "polarization", cfg.polarization,
                                  POLARIZATIONS)
    cfg.amplitude = col.number("initial", "amplitude", cfg.amplitude)
    A = col.vector("initial", "A", None, sizes=(9,))
    if A is not None:
        cfg.affine_A = A.reshape(3, 3)
    B = col.vector("initial", "B", None, sizes=(9,))
    if B is not None:
        cfg.affine_B = B.reshape(3, 3)
    for key in ("a", "b", "c"):
        vec = col.vector("initial", key, None, sizes=(3,))
        if vec is not None:
            setattr(cfg, f"affine_{key}", vec)
    x0 = col.vector("initial", "x0", None, sizes=(3,))
    if x0 is not None:
        cfg.affine_x0 = x0

    cfg.cfl = col.number("evolve", "cfl", cfg.cfl)
    if not 0.0 < cfg.cfl <= 1.0:
        col.problems.append(f"[evolve] cfl = {cfg.cfl}: must be in (0, 1]")
    cfg.t_end = col.number("evolve", "t_end", cfg.t_end, positive=True)
    cfg.monitor_every = col.integer("evolve", "monitor_every", cfg.monitor_every,
                                    minimum=1)

    if col.problems:
        raise ValidationError(col.problems)
    return cfg


def load_config(path: str, run_overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), run_overrides)
