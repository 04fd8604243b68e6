"""Sectioned key/value run configuration.

The format is INI-style: sections in brackets, ``key = value`` lines.
``SCHEMA`` maps every section and key to its ``RunConfig`` attribute (the
defaults) and its parser, which returns the value of the stripped text or
raises ValueError carrying the problem's tail after ``[section] key``.  All
problems are reported together; unknown sections or keys are errors, not
warnings, so a typo can never silently fall back to a default.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .constitutive import CORRUPTION_KINDS
from .errors import ParseError, ValidationError


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


def choice(*options):
    def parse(val):
        if val not in options:
            raise ValueError(f" = {val!r}: expected one of {', '.join(options)}")
        return val
    return parse


def boolean(val):
    val = val.lower()
    if val not in configparser.ConfigParser.BOOLEAN_STATES:  # true/false, yes/no, 1/0, on/off
        raise ValueError(f" = {val!r}: expected a boolean")
    return configparser.ConfigParser.BOOLEAN_STATES[val]


def _convert(convert, val, expected):
    try:
        return convert(val)
    except ValueError:
        raise ValueError(f" = {val!r}: expected {expected}") from None


def integer(minimum=None):
    def parse(val):
        num = _convert(int, val, "an integer")
        if minimum is not None and num < minimum:
            raise ValueError(f" = {num}: must be >= {minimum}")
        return num
    return parse


def _finite(val, nums, subject):
    """``inf`` and ``nan`` parse as floats, but no key takes them."""
    if not np.isfinite(nums).all():
        raise ValueError(f" = {val!r}: {subject} be finite")


def number(positive=False):
    def parse(val):
        num = _convert(float, val, "a number")
        _finite(val, num, "must")
        if positive and not num > 0:
            raise ValueError(f" = {num}: must be positive")
        return num
    return parse


def vector(*sizes):
    """Entries separated by spaces or commas, as many as one of ``sizes``; nine
    entries are a 3x3 matrix, row-major."""
    def parse(val):
        entries = _convert(lambda text: [float(x) for x in text.replace(",", " ").split()],
                           val, "numbers")
        if len(entries) not in sizes:
            raise ValueError(f": expected {' or '.join(map(str, sizes))} entries, "
                             f"got {len(entries)}")
        _finite(val, entries, "entries must")
        return np.reshape(entries, (3, 3) if len(entries) == 9 else -1)
    return parse


def velocity_tensor(val):
    """V row-major, or its three diagonal entries."""
    entries = vector(3, 9)(val)
    return np.diag(entries) if entries.size == 3 else entries


SCHEMA = {
    "run": {"mode": ("mode", choice("admissibility", "hyperbolicity", "simulate", "all")),
            "seed": ("seed", integer(minimum=0)),
            "out": ("out", str),
            "quiet": ("quiet", boolean)},
    "model": {"model": ("model", choice("classical", "tensor")),
              "rho": ("rho", number(positive=True)),
              "sigma": ("sigma", choice("linear_isotropic", "stvk", "neo_hookean")),
              "lambda": ("lam", number()),
              "mu": ("mu", number()),
              "corruption": ("corruption", choice("none", *CORRUPTION_KINDS)),
              "v": ("v_tensor", velocity_tensor)},
    "probes": {"count": ("probe_count", integer(minimum=4))},
    "hyperbolicity": {"n_dirs": ("n_dirs", integer(minimum=1)),
                      "f": ("hyp_F", vector(9))},
    # None: the entry count of cells and length depends on dims, so the grid
    # rule of parse_config parses them
    "grid": {"dims": ("dims", integer()),
             "cells": ("cells", None),
             "length": ("lengths", None)},
    "initial": {"kind": ("initial_kind", choice("rest", "sine", "affine")),
                "polarization": ("polarization", choice("longitudinal", "transverse")),
                "amplitude": ("amplitude", number()),
                "A": ("affine_A", vector(9)),
                "B": ("affine_B", vector(9)),
                "a": ("affine_a", vector(3)),
                "b": ("affine_b", vector(3)),
                "c": ("affine_c", vector(3)),
                "x0": ("affine_x0", vector(3))},
    "evolve": {"cfl": ("cfl", number()),
               "t_end": ("t_end", number(positive=True)),
               "monitor_every": ("monitor_every", integer(minimum=1))},
}


def parse_config(text: str, run_overrides: dict | None = None) -> RunConfig:
    """Parse and validate configuration text.

    ``run_overrides`` (key -> value text) replaces keys of the [run] section
    before validation, so that they meet the same rules as the file; ``raw``
    stays the text.  Raises ParseError on malformed text (with line numbers as
    reported by the parser) and ValidationError listing every invalid
    section, key or value.
    """
    # no header names the empty section, so [DEFAULT] is an ordinary, unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    parser.optionxform = str  # affine keys A and a differ by case
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc
    if run_overrides:
        parser.read_dict({"run": run_overrides})

    problems = []
    for section in parser.sections():
        if section not in SCHEMA:
            problems.append(f"[{section}]: unknown section")
            continue
        problems.extend(f"[{section}] {key}: unknown key"
                        for key in parser.options(section) if key not in SCHEMA[section])

    def read(section, key, parse):
        """The value of a given key; None if it is absent or its problem is recorded."""
        if not parser.has_option(section, key):
            return None
        try:
            return parse(parser.get(section, key).strip())
        except ValueError as exc:
            problems.append(f"[{section}] {key}{exc}")
            return None

    cfg = RunConfig(raw=text)
    for section, keys in SCHEMA.items():
        for key, (attr, parse) in keys.items():
            value = read(section, key, parse) if parse else None
            if value is not None:
                setattr(cfg, attr, value)

    if cfg.model == "tensor" and cfg.v_tensor is None:
        problems.append("[model] v: required when model = tensor")
    if cfg.dims not in (1, 3):
        problems.append(f"[grid] dims = {cfg.dims}: must be 1 or 3")
        cfg.dims = 1
    axis_sizes = (1,) if cfg.dims == 1 else (1, 3)  # one entry serves every axis
    cells, lengths = (read("grid", key, vector(*axis_sizes)) for key in ("cells", "length"))
    if cells is not None and (cells != np.floor(cells)).any():
        problems.append(f"[grid] cells = {cells.tolist()}: expected whole numbers")
    else:
        cells = [400 if cfg.dims == 1 else 16] if cells is None else cells
        cfg.cells = tuple(int(x) for x in np.broadcast_to(cells, cfg.dims))
        if any(c < 4 for c in cfg.cells):
            problems.append(f"[grid] cells = {cfg.cells}: need >= 4 per axis")
    cfg.lengths = tuple(np.broadcast_to([1.0] if lengths is None else lengths, cfg.dims).tolist())
    if any(x <= 0 for x in cfg.lengths):
        problems.append(f"[grid] length = {cfg.lengths}: must be positive")
    if not 0.0 < cfg.cfl <= 1.0:
        problems.append(f"[evolve] cfl = {cfg.cfl}: must be in (0, 1]")

    if problems:
        raise ValidationError(problems)
    return cfg


def load_config(path: str, run_overrides: dict | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), run_overrides)
