"""Experiment-config validation and construction of domain objects.

Configs are plain JSON objects.  Validation is strict: unknown keys are
rejected, missing required keys are reported, and every error carries the
dotted path of the offending entry so a failing run points at the exact
field.  The ``kind`` of an object in ``KINDS`` picks its other keys: the
keyword parameters of the one constructor (``_makers``) that builds it.
The command schemas in ``SCHEMAS`` are built from shared fields, each
stated once (the operator, its profile ``g``, the radii with their
margin, the weighted trace, the fit window), and every schema ends with
the output path ``out``.
Validation returns a fully defaulted dict; ``config_digest`` hashes
that dict minus its output paths, the keys whose field is an output path
in some schema, so artifacts can be matched to the experiment that
produced them independently of where they were written.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from . import FOLNER_SHAPES
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


def grid(item: Callable, max_depth: int):
    """A rectangular nested array of ``item`` values, 1 to ``max_depth``
    arrays deep.  The first entry down each level fixes the shape, read
    in a loop that stops past ``max_depth``, so no input nests deep enough
    to exhaust the stack; an array off that shape is refused at its
    indexed path."""
    def check(v, path):
        shape, first = [], v
        while isinstance(first, list) and first and len(shape) <= max_depth:
            shape.append(len(first))
            first = first[0]
        if len(shape) > max_depth:
            raise ConfigError(f"nests deeper than {max_depth} arrays", path)
        each = item
        for n in reversed(shape or [1]):
            each = array(each, min_len=n, max_len=n)
        return each(v, path)
    return check


def table(fields: dict | None = None, kinds: dict | None = None):
    """An object with exactly the keys of ``fields``, or of ``kinds[kind]``
    besides the required ``kind``."""
    def check(v, path):
        if not isinstance(v, dict):
            raise ConfigError("expected an object", path)
        own = fields
        if kinds is not None:
            if "kind" not in v:
                raise ConfigError("missing required key", _join(path, "kind"))
            pick = string(tuple(kinds))
            own = {"kind": Field(pick),
                   **kinds[pick(v["kind"], _join(path, "kind"))]}
        unknown = sorted(set(v) - set(own))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r}",
                              _join(path, unknown[0]))
        out = {}
        for name, f in own.items():
            sub = _join(path, name)
            if name in v:
                out[name] = f.check(v[name], sub)
            elif f.required:
                raise ConfigError("missing required key", sub)
            else:
                out[name] = f.default
        return out
    return check


def validate(cfg: dict, fields: dict) -> dict:
    return table(fields)(cfg, "")


# ---------------------------------------------------------------------------
# shared descriptor schemas

# Lattice._box enumerates a d-axis grid and numpy broadcasts at most 32
# axes (so 3^d ball counts stay int64); a periodic potential has one axis
# per lattice dimension; _rng.site_keys packs coordinates (and so base
# points, shifts and kernel offsets) with |x| < 2^20
_AXES = 32
_DIMENSION = integer(lo=1, hi=_AXES)
_SITE = integer(lo=1 - (1 << 20), hi=(1 << 20) - 1)

_CENTER, _WIDTH = Field(number(), 0.0), Field(number(lo=0.0), 1.0)

# by config path: each kind's keys, the keyword parameters of its maker
KINDS = {
    "space": {
        "lattice": {"d": Field(_DIMENSION, 1),
                    "p": Field(number(lo=1.0, allow_inf=True), 2.0),
                    "base": Field(array(_SITE, min_len=1), None)},
        "f2": {},
    },
    "hamiltonian.hopping": {
        "adjacency": {}, "laplacian": {},
        "kernel": {"offsets": Field(array(array(_SITE, min_len=1))),
                   "amplitudes": Field(array(number()))},
        "none": {},
    },
    "hamiltonian.potential": {
        "zero": {},
        "periodic": {"values": Field(grid(number(), _AXES))},
        "iid_uniform": {"low": Field(number(), 0.0),
                        "high": Field(number(), 1.0),
                        "seed": Field(integer(lo=0), 0)},
    },
    "g": {
        "gaussian": {"center": _CENTER, "sigma": _WIDTH},
        "bump": {"center": _CENTER, "halfwidth": _WIDTH},
        "polynomial": {"coeffs": Field(array(number(), min_len=1))},
        "one": {},
    },
}

SPACE = table(kinds=KINDS["space"])

HAMILTONIAN = table({
    "hopping": Field(table(kinds=KINDS["hamiltonian.hopping"])),
    "potential": Field(table(kinds=KINDS["hamiltonian.potential"]),
                       {"kind": "zero"}),
})

FN = table(kinds=KINDS["g"])

WEIGHT = table({
    "kind": Field(string(("default", "lattice_power")), "default"),
})

TOLERANCE = table({
    "relative_gap": Field(number(lo=0.0), 0.1),
    "condition_c": Field(number(lo=0.0), 0.01),
})

FOLNER = table({
    "shape": Field(string(FOLNER_SHAPES)),
    "d": Field(_DIMENSION, 1),
    "schedule": Field(array(integer(lo=0), min_len=1)),
})

# the fields several commands share, each stated once
_SPACE_FIELDS = {"space": Field(SPACE)}
_OPERATOR = {**_SPACE_FIELDS, "hamiltonian": Field(HAMILTONIAN)}
_PROFILE = {**_OPERATOR, "g": Field(FN)}
_MARGIN = Field(number(lo=0.0), 50.0)
_RADII = {"radii": Field(increasing(array(number(lo=0.0), min_len=1))),
          "margin": _MARGIN}
_WEIGHTED = {**_PROFILE,
             "weight": Field(WEIGHT, {"kind": "default"}),
             "r_outer": Field(number(lo=1.0))}
_WINDOW = Field(array(integer(lo=1), min_len=2, max_len=2), None)
_OUT = Field(string(), None)

# each command's fields, followed by the output path ``out``
SCHEMAS = {name: {**fields, "out": _OUT} for name, fields in {
    "space-ladder": {
        **_SPACE_FIELDS,
        "kmax": Field(integer(lo=1), None),
        "radius": Field(number(lo=0.0), None),
    },
    "space-check-c": {
        **_SPACE_FIELDS,
        "kmax": Field(integer(lo=10), 100),
        "threshold": Field(number(lo=0.0), 0.01),
        "tail_fraction": Field(number(lo=0.0, hi=1.0), 0.2),
    },
    "percolate": {
        "d": Field(integer(lo=1, hi=3), 2),
        "L": Field(integer(lo=2)),
        "p": Field(number(lo=0.0, hi=1.0)),
        "seed": Field(integer(lo=0), 0),
        "tmax": Field(integer(lo=2), None),
        "threshold": Field(number(lo=0.0), 0.05),
        "growth_out": _OUT,
        "sample_out": _OUT,
    },
    "dos": {**_PROFILE, **_RADII},
    "ids": {**_OPERATOR, "radius": Field(number(lo=0.0))},
    "dixmier": {**_WEIGHTED, "window": _WINDOW},
    "theorem-check": {
        **_WEIGHTED,
        "margin": _MARGIN,
        "window": _WINDOW,
        "tolerance": Field(TOLERANCE, {"relative_gap": 0.1,
                                       "condition_c": 0.01}),
    },
    "counterexample": {"mmax": Field(integer(lo=0, hi=14), 12)},
    "vp-trace": {
        "d": Field(_DIMENSION, 1),
        "p": Field(number(lo=1.0, allow_inf=True), 2.0),
        "radius": Field(number(lo=1.0)),
    },
    "equivariance": {
        **_PROFILE,
        "shift": Field(array(_SITE, min_len=1)),
        **_RADII,
    },
    "ergodic": {
        **_PROFILE,
        "folner": Field(FOLNER),
        "realizations": Field(integer(lo=2)),
        "seed": Field(integer(lo=0), 0),
        "margin": Field(number(lo=1.0), 50.0),
        "index": Field(integer(), -1),
        "csv_out": _OUT,
    },
    "folner": {
        "folner": Field(FOLNER),
        "nmax": Field(integer(lo=3), None),
    },
}.items()}

_OUTPUT_KEYS = frozenset(key for fields in SCHEMAS.values()
                         for key, f in fields.items() if f is _OUT)


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


def _makers() -> dict:
    """The library constructor of each kind in ``KINDS``."""
    from . import hamiltonians as h, spaces, spectral as s
    return {"space": {"lattice": spaces.Lattice, "f2": spaces.CayleyF2},
            "hamiltonian.hopping": {"adjacency": h.adjacency,
                                    "laplacian": h.laplacian,
                                    "kernel": h.kernel,
                                    "none": h.diagonal_spec},
            "hamiltonian.potential": {"zero": lambda: h.Potential("zero"),
                                      "periodic": h.periodic_potential,
                                      "iid_uniform": h.iid_potential},
            "g": {"gaussian": s.gaussian, "bump": s.bump,
                  "polynomial": s.polynomial, "one": s.constant_one}}


def _make(path: str, cfg: dict, **extra):
    """The maker of ``cfg["kind"]`` at ``path``, called with the other keys."""
    maker = _makers()[path][cfg["kind"]]
    args = {k: v for k, v in cfg.items() if k != "kind"}
    return _wrap(path, lambda: maker(**args, **extra))


def space_from(cfg: dict):
    return _make("space", cfg)


def hamiltonian_from(cfg: dict, space):
    """The spec of ``cfg``, refused unless it fits the built ``space``."""
    from .hamiltonians import check_fit
    spec = _make("hamiltonian.hopping", cfg["hopping"], potential=_make(
        "hamiltonian.potential", cfg["potential"]))
    _wrap("hamiltonian", lambda: check_fit(space, spec))
    return spec


def fn_from(cfg: dict):
    return _make("g", cfg)


def weight_from(cfg: dict, space, ladder):
    from .hamiltonians import default_weight, lattice_weight
    if cfg["kind"] == "lattice_power":
        return _wrap("weight", lambda: lattice_weight(space, ladder))
    return default_weight(ladder)


def folner_from(cfg: dict):
    from . import ergodic
    return _wrap("folner", lambda: ergodic.FolnerSequence(
        cfg["shape"], cfg["d"], tuple(cfg["schedule"])))
