"""Experiment-config validation and construction of domain objects.

Configs are plain JSON objects.  Validation is strict: unknown keys are
rejected, missing required keys are reported, and every error carries the
dotted path of the offending entry so a failing run points at the exact
field.  Validation returns a fully defaulted dict; ``config_digest`` hashes
that dict (minus output paths) so artifacts can be matched to the
experiment that produced them independently of where they were written.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from .errors import ConfigError

_MISSING = object()


@dataclass
class Field:
    check: Callable
    default: Any = _MISSING

    @property
    def required(self) -> bool:
        return self.default is _MISSING


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def integer(lo: int | None = None, hi: int | None = None):
    def check(v, path):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError("expected an integer", path)
        if lo is not None and v < lo:
            raise ConfigError(f"must be >= {lo}", path)
        if hi is not None and v > hi:
            raise ConfigError(f"must be <= {hi}", path)
        return v
    return check


def number(lo: float | None = None, hi: float | None = None,
           allow_inf: bool = False):
    def check(v, path):
        if allow_inf and v == "inf":
            return math.inf
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError("expected a number", path)
        try:
            v = float(v)
        except OverflowError:
            raise ConfigError("outside the float range", path) from None
        if math.isnan(v):
            raise ConfigError("NaN is not a value", path)
        if math.isinf(v) and not allow_inf:
            raise ConfigError("must be finite", path)
        if lo is not None and v < lo:
            raise ConfigError(f"must be >= {lo}", path)
        if hi is not None and v > hi:
            raise ConfigError(f"must be <= {hi}", path)
        return v
    return check


def increasing(check: Callable):
    """``check`` for an array, then refuse entries that do not increase."""
    def wrapped(v, path):
        out = check(v, path)
        if any(b <= a for a, b in zip(out, out[1:])):
            raise ConfigError("must be strictly increasing", path)
        return out
    return wrapped


def string(choices: tuple | None = None):
    def check(v, path):
        if not isinstance(v, str):
            raise ConfigError("expected a string", path)
        if choices is not None and v not in choices:
            raise ConfigError(
                f"must be one of {', '.join(choices)} (got {v!r})", path)
        return v
    return check


def array(item: Callable, min_len: int = 0, max_len: int | None = None):
    def check(v, path):
        if not isinstance(v, list):
            raise ConfigError("expected an array", path)
        if len(v) < min_len:
            raise ConfigError(f"needs at least {min_len} entries", path)
        if max_len is not None and len(v) > max_len:
            raise ConfigError(f"needs at most {max_len} entries", path)
        return [item(x, f"{path}[{i}]") for i, x in enumerate(v)]
    return check


def table(fields: dict):
    def check(v, path):
        if not isinstance(v, dict):
            raise ConfigError("expected an object", path)
        unknown = sorted(set(v) - set(fields))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r}",
                              _join(path, unknown[0]))
        out = {}
        for name, f in fields.items():
            sub = _join(path, name)
            if name in v:
                out[name] = f.check(v[name], sub)
            elif f.required:
                raise ConfigError("missing required key", sub)
            else:
                out[name] = f.default
        return out
    return check


def validate(cfg: dict, fields: dict, path: str = "") -> dict:
    return table(fields)(cfg, path)


# ---------------------------------------------------------------------------
# shared descriptor schemas

# Lattice._box enumerates a d-axis grid and numpy broadcasts at most 32
# axes (so 3^d ball counts stay int64); _rng.site_keys packs coordinates
# (and so base points, shifts and kernel offsets) with |x| < 2^20
_DIMENSION = integer(lo=1, hi=32)
_SITE = integer(lo=1 - (1 << 20), hi=(1 << 20) - 1)

SPACE = table({
    "kind": Field(string(("lattice", "f2"))),
    "d": Field(_DIMENSION, 1),
    "p": Field(number(lo=1.0, allow_inf=True), 2.0),
    "base": Field(array(_SITE, min_len=1), None),
})

HOPPING = table({
    "kind": Field(string(("adjacency", "laplacian", "kernel", "none"))),
    "offsets": Field(array(array(_SITE, min_len=1)), None),
    "amplitudes": Field(array(number()), None),
})

POTENTIAL = table({
    "kind": Field(string(("zero", "periodic", "iid_uniform"))),
    "values": Field(array(number(), min_len=1), None),
    "low": Field(number(), 0.0),
    "high": Field(number(), 1.0),
    "seed": Field(integer(lo=0), 0),
})

HAMILTONIAN = table({
    "hopping": Field(HOPPING),
    "potential": Field(POTENTIAL, {"kind": "zero", "values": None, "low": 0.0,
                                   "high": 1.0, "seed": 0}),
})

FN = table({
    "kind": Field(string(("gaussian", "bump", "polynomial", "one"))),
    "center": Field(number(), 0.0),
    "sigma": Field(number(lo=0.0), 1.0),
    "halfwidth": Field(number(lo=0.0), 1.0),
    "coeffs": Field(array(number(), min_len=1), None),
})

WEIGHT = table({
    "kind": Field(string(("default", "lattice_power")), "default"),
})

TOLERANCE = table({
    "relative_gap": Field(number(lo=0.0), 0.1),
    "condition_c": Field(number(lo=0.0), 0.01),
})

FOLNER = table({
    "shape": Field(string(("cube", "ball", "lacunary"))),
    "d": Field(_DIMENSION, 1),
    "schedule": Field(array(integer(lo=0), min_len=1)),
})

_OUT = Field(string(), None)

SCHEMAS = {
    "space-ladder": {
        "space": Field(SPACE),
        "kmax": Field(integer(lo=1), None),
        "radius": Field(number(lo=0.0), None),
        "out": _OUT,
    },
    "space-check-c": {
        "space": Field(SPACE),
        "kmax": Field(integer(lo=10), 100),
        "threshold": Field(number(lo=0.0), 0.01),
        "tail_fraction": Field(number(lo=0.0, hi=1.0), 0.2),
        "out": _OUT,
    },
    "percolate": {
        "d": Field(integer(lo=1, hi=3), 2),
        "L": Field(integer(lo=2)),
        "p": Field(number(lo=0.0, hi=1.0)),
        "seed": Field(integer(lo=0), 0),
        "tmax": Field(integer(lo=2), None),
        "threshold": Field(number(lo=0.0), 0.05),
        "out": _OUT,
        "growth_out": _OUT,
        "sample_out": _OUT,
    },
    "dos": {
        "space": Field(SPACE),
        "hamiltonian": Field(HAMILTONIAN),
        "g": Field(FN),
        "radii": Field(increasing(array(number(lo=0.0), min_len=1))),
        "margin": Field(number(lo=0.0), 50.0),
        "out": _OUT,
    },
    "ids": {
        "space": Field(SPACE),
        "hamiltonian": Field(HAMILTONIAN),
        "radius": Field(number(lo=0.0)),
        "out": _OUT,
    },
    "dixmier": {
        "space": Field(SPACE),
        "hamiltonian": Field(HAMILTONIAN),
        "g": Field(FN),
        "weight": Field(WEIGHT, {"kind": "default"}),
        "r_outer": Field(number(lo=1.0)),
        "window": Field(array(integer(lo=1), min_len=2, max_len=2), None),
        "out": _OUT,
    },
    "theorem-check": {
        "space": Field(SPACE),
        "hamiltonian": Field(HAMILTONIAN),
        "g": Field(FN),
        "weight": Field(WEIGHT, {"kind": "default"}),
        "r_outer": Field(number(lo=1.0)),
        "margin": Field(number(lo=0.0), 50.0),
        "window": Field(array(integer(lo=1), min_len=2, max_len=2), None),
        "tolerance": Field(TOLERANCE, {"relative_gap": 0.1,
                                       "condition_c": 0.01}),
        "out": _OUT,
    },
    "counterexample": {
        "mmax": Field(integer(lo=0, hi=14), 12),
        "out": _OUT,
    },
    "vp-trace": {
        "d": Field(_DIMENSION, 1),
        "p": Field(number(lo=1.0, allow_inf=True), 2.0),
        "radius": Field(number(lo=1.0)),
        "out": _OUT,
    },
    "equivariance": {
        "space": Field(SPACE),
        "hamiltonian": Field(HAMILTONIAN),
        "g": Field(FN),
        "shift": Field(array(_SITE, min_len=1)),
        "radii": Field(increasing(array(number(lo=0.0), min_len=1))),
        "margin": Field(number(lo=0.0), 50.0),
        "out": _OUT,
    },
    "ergodic": {
        "space": Field(SPACE),
        "hamiltonian": Field(HAMILTONIAN),
        "g": Field(FN),
        "folner": Field(FOLNER),
        "realizations": Field(integer(lo=2)),
        "seed": Field(integer(lo=0), 0),
        "margin": Field(number(lo=1.0), 50.0),
        "index": Field(integer(), -1),
        "out": _OUT,
        "csv_out": _OUT,
    },
    "folner": {
        "folner": Field(FOLNER),
        "nmax": Field(integer(lo=3), None),
        "out": _OUT,
    },
}

_OUTPUT_KEYS = ("out", "growth_out", "sample_out", "csv_out")


def jsonable(x):
    """``x`` with numpy values, tuples, fractions and non-finite floats
    turned into plain JSON values."""
    import numpy as np
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return float(x)
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float) and not math.isfinite(x):
        return repr(x)
    return x


def config_digest(cfg: dict) -> str:
    """sha256 of the defaulted config, output paths excluded."""
    pruned = {k: v for k, v in cfg.items() if k not in _OUTPUT_KEYS}
    blob = json.dumps(jsonable(pruned), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# domain-object construction; wraps domain validation errors with the path


def _wrap(path: str, builder: Callable):
    try:
        return builder()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc), path) from exc


def space_from(cfg: dict, path: str = "space"):
    from .spaces import CayleyF2, Lattice
    if cfg["kind"] == "f2":
        return CayleyF2()
    return _wrap(path, lambda: Lattice(cfg["d"], cfg["p"], base=cfg["base"]))


def hamiltonian_from(cfg: dict, path: str = "hamiltonian"):
    from .hamiltonians import HamiltonianSpec, Hopping, Potential
    hop_cfg, pot_cfg = cfg["hopping"], cfg["potential"]
    hop = _wrap(_join(path, "hopping"), lambda: Hopping(
        hop_cfg["kind"],
        tuple(tuple(o) for o in (hop_cfg["offsets"] or ())),
        tuple(hop_cfg["amplitudes"] or ())))
    pot = _wrap(_join(path, "potential"), lambda: Potential(
        pot_cfg["kind"],
        values=tuple(pot_cfg["values"] or ()),
        period=(len(pot_cfg["values"]),) if pot_cfg["values"] else (),
        low=pot_cfg["low"], high=pot_cfg["high"], seed=pot_cfg["seed"]))
    return HamiltonianSpec(hop, pot)


def fn_from(cfg: dict, path: str = "g"):
    from . import spectral
    kind = cfg["kind"]
    if kind == "gaussian":
        return _wrap(path, lambda: spectral.gaussian(cfg["center"],
                                                     cfg["sigma"]))
    if kind == "bump":
        return _wrap(path, lambda: spectral.bump(cfg["center"],
                                                 cfg["halfwidth"]))
    if kind == "polynomial":
        if cfg["coeffs"] is None:
            raise ConfigError("missing required key", _join(path, "coeffs"))
        return spectral.polynomial(cfg["coeffs"])
    return spectral.constant_one()


def weight_from(cfg: dict, space, ladder, path: str = "weight"):
    from .hamiltonians import default_weight, lattice_weight
    if cfg["kind"] == "lattice_power":
        return _wrap(path, lambda: lattice_weight(space, ladder))
    return default_weight(ladder)


def folner_from(cfg: dict, path: str = "folner"):
    from . import ergodic
    return _wrap(path, lambda: ergodic.FolnerSequence(
        cfg["shape"], cfg["d"], tuple(cfg["schedule"])))
