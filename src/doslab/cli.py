"""Command-line surface: configs in, CSV/JSON artifacts out.

Each command validates one config schema.  ``--config FILE`` supplies the
config as a JSON object.  ``--threads`` and ``--budget`` are process-wide:
``main`` writes them into the environment (the BLAS thread variables and
``DOSLAB_BUDGET``) before any handler runs.  Every other flag is one row of
the command's table in ``_COMMANDS`` and sets one dotted config key on top
of the file (``--d`` on ``folner`` sets ``folner.d`` and keeps the rest of
the file's ``folner`` object).

Exit codes: 0 success (verdicts of any kind count as success), 2 a
theorem-check ran fine but missed its tolerance, 1 anything that stopped
the run (bad config, budget, failed precondition).  A stopped run prints
one ``doslab: error:`` line, each distinct library warning one
``doslab: warning:`` line.

Thread caps have to land in the environment before numpy loads its BLAS,
so nothing numerical is imported at module level; handlers import what
they need after ``main`` has applied ``--threads``.  The point budget is
read where points are charged, so handlers take the config alone.

Artifacts are deterministic for a fixed config and seed: JSON is written
with sorted keys, CSVs are RFC 4180 (CRLF, header row) with shortest
round-trip float formatting, and every artifact carries the tool version
and the config digest.  CSVs get the metadata as a ``<name>.meta.json``
sidecar since the format has no comment channel.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import warnings
from fractions import Fraction

from . import FOLNER_SHAPES, __version__
from .budget import ENV_VAR
from .config import (KINDS, SCHEMAS, config_digest, fn_from, folner_from,
                     hamiltonian_from, jsonable, space_from, validate,
                     weight_from)
from .errors import (BudgetExceeded, ConfigError, NotEstablished,
                     PreconditionFailed)

_PROCESS_FLAGS = (
    ("threads", ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS")),
    ("budget", (ENV_VAR,)))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; reserve 2 for tolerance failures."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _p_norm(text: str):
    if text == "inf":
        return "inf"
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number or 'inf', got {text!r}") from None


def _int_list(text: str):
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _apply_process_flags(args) -> None:
    """Write ``--threads`` and ``--budget`` into the environment, where the
    BLAS and :func:`doslab.budget.point_budget` read them."""
    for flag, env_vars in _PROCESS_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if value < 1:
            raise ConfigError("must be >= 1", flag)
        for var in env_vars:
            os.environ[var] = str(value)


# ---------------------------------------------------------------------------
# artifact plumbing


def _meta(cfg: dict) -> dict:
    return {"tool": "doslab", "version": __version__,
            "config_sha256": config_digest(cfg)}


def _dump_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(path: str | None, cfg: dict, payload: dict) -> None:
    """``payload`` plus the config metadata at ``path``; no path, no file."""
    if path:
        _dump_json(path, {**_meta(cfg), **payload})
        print(f"wrote {path}")


def _cell(v) -> str:
    if isinstance(v, float):
        # plain-float repr: numpy scalars are float subclasses whose repr
        # carries the dtype wrapper
        return repr(float(v))
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _write_csv(path: str | None, header, rows, cfg: dict,
               extra: dict | None = None) -> None:
    """The table at ``path`` and the metadata plus ``extra`` in its
    ``.meta.json`` sidecar; no path, no files."""
    if not path:
        return
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
            count += 1
    _dump_json(path + ".meta.json", {**_meta(cfg), **(extra or {})})
    print(f"wrote {path} ({count} rows)")


def _set_key(raw: dict, key: str, value) -> None:
    """Set the dotted ``key`` in ``raw``, keeping the rest of each object
    on the way."""
    *parents, leaf = key.split(".")
    for i, name in enumerate(parents):
        raw = raw.setdefault(name, {})
        if not isinstance(raw, dict):
            raise ConfigError("expected an object", ".".join(parents[:i + 1]))
    raw[leaf] = value


def _load_config(args) -> dict:
    raw = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", args.config) from None
        except OSError as exc:
            raise ConfigError(str(exc), args.config) from None
        if not isinstance(raw, dict):
            raise ConfigError("top level must be an object", args.config)
    for key in args.keys:
        if getattr(args, key) is not None:
            _set_key(raw, key, getattr(args, key))
    if args.schema.startswith("space-"):
        space = raw.setdefault("space", {})
        if isinstance(space, dict):
            space.setdefault("kind", "lattice")
    return validate(raw, SCHEMAS[args.schema])


def _operator(cfg: dict, radius: float, path: str):
    """The config's space, Hamiltonian spec and g (None without a ``g``
    key), refusing an operator radius the space cannot reach."""
    from .spaces import CayleyF2
    space = space_from(cfg["space"])
    if (isinstance(space, CayleyF2)
            and space.key_limit(radius) > space.MAX_RADIUS):
        raise ConfigError(f"needs a free-group ball of radius {radius:g}, "
                          f"above the maximum {space.MAX_RADIUS}", path)
    g = fn_from(cfg["g"]) if "g" in cfg else None
    return space, hamiltonian_from(cfg["hamiltonian"], space), g


def _weighted(cfg: dict):
    """Operator arguments (space, spec, g, w, r_outer), the ladder and the
    fit window of the weighted-trace commands."""
    space, spec, g = _operator(cfg, cfg["r_outer"], "r_outer")
    ladder = space.ladder_to_radius(cfg["r_outer"])
    w = weight_from(cfg["weight"], space, ladder)
    window = tuple(cfg["window"]) if cfg["window"] else None
    return (space, spec, g, w, cfg["r_outer"]), ladder, window


def _fields(obj, *names) -> dict:
    """Artifact entries named after the result fields they hold."""
    return {name: getattr(obj, name) for name in names}


def _measurability_dict(est) -> dict:
    return {**_fields(est.measurability, "verdict", "slope_drift",
                      "drift_tol", "residual_growth", "residual_tol"),
            **_fields(est, "half_slopes")}


# ---------------------------------------------------------------------------
# handlers: validated config in, exit code out


def _cmd_space_ladder(cfg) -> int:
    space = space_from(cfg["space"])
    if cfg["kmax"] is None and cfg["radius"] is None:
        raise ConfigError("either kmax or radius is required", "kmax")
    if cfg["kmax"] is not None and cfg["radius"] is not None:
        raise ConfigError("kmax and radius are exclusive; set one", "radius")
    if cfg["kmax"] is not None:
        ladder = space.radii_ladder(cfg["kmax"])
    else:
        ladder = space.ladder_to_radius(cfg["radius"])
    print(f"{len(ladder)} levels, {int(ladder.counts[-1])} points within "
          f"r={ladder.radii[-1]:g}")
    _write_csv(cfg["out"], ("k", "r_k", "ball_count", "shell_count", "ratio"),
               ladder.to_rows(), cfg)
    return 0


def _cmd_space_check_c(cfg) -> int:
    from .spaces import condition_c_report
    ladder = space_from(cfg["space"]).radii_ladder(cfg["kmax"])
    report = condition_c_report(ladder, threshold=cfg["threshold"],
                                tail_fraction=cfg["tail_fraction"])
    print(f"verdict: {report.verdict} (tail mean ratio "
          f"{report.tail_mean_ratio:.4f}, max tail deviation "
          f"{report.max_tail_deviation:.4g})")
    _write_json(cfg["out"], cfg, {
        **_fields(report, "verdict", "threshold", "tail_fraction",
                  "max_tail_deviation", "min_tail_deviation",
                  "tail_mean_ratio", "trend_maxima"),
        "levels": len(ladder)})
    return 0


def _cmd_percolate(cfg) -> int:
    from . import percolation
    from .spaces import condition_c_report
    sample = percolation.percolate_bonds(cfg["d"], cfg["L"], cfg["p"],
                                         cfg["seed"])
    cluster = percolation.largest_cluster(sample)
    report = {
        "d": cfg["d"], "L": cfg["L"], "p": cfg["p"], "seed": cfg["seed"],
        "sites": cfg["L"] ** cfg["d"],
        "open_fraction": sample.open_fraction(),
        "cluster_size": cluster.n_nodes,
        "cluster_fraction": cluster.n_nodes / cfg["L"] ** cfg["d"],
        "sample_sha256": percolation.sample_digest(sample),
    }
    if cfg["tmax"] is not None:
        growth = percolation.chemical_ball_growth(cluster, cfg["tmax"])
        plateau = _fields(growth, "plateau_stat", "plateau_window")
        ladder = cluster.radii_ladder(cfg["tmax"])
        c_rep = condition_c_report(ladder, threshold=cfg["threshold"])
        report.update(plateau, condition_c=_fields(
            c_rep, "verdict", "threshold", "max_tail_deviation",
            "tail_mean_ratio"))
        _write_csv(cfg["growth_out"], ("t", "ball_count", "normalized"),
                   zip(growth.t.tolist(), growth.ball_counts.tolist(),
                       growth.normalized.tolist()), cfg, extra=plateau)
        print(f"plateau {growth.plateau_stat:.4f}, condition-C "
              f"{c_rep.verdict}")
    print(f"cluster {cluster.n_nodes} of {report['sites']} sites "
          f"({report['cluster_fraction']:.4f})")
    if cfg["sample_out"]:
        percolation.save_sample(sample, cfg["sample_out"])
        print(f"wrote {cfg['sample_out']}")
    _write_json(cfg["out"], cfg, report)
    return 0


def _cmd_dos(cfg) -> int:
    from .dos import dos_approximant
    space, spec, g = _operator(cfg, cfg["radii"][-1] + cfg["margin"], "radii")
    est = dos_approximant(space, spec, g, cfg["radii"], margin=cfg["margin"])
    print(f"tail mean {est.tail_mean:.6f}, tail spread {est.tail_spread:.2e}"
          f"{' (diverged)' if est.diverged else ''}")
    _write_csv(cfg["out"], ("r", "ball_count", "average"), est.rows(), cfg,
               extra=_fields(est, "tail_mean", "tail_spread", "diverged",
                             "margin", "outer_radius", "solvers",
                             "diagonal_routes"))
    return 0


def _cmd_ids(cfg) -> int:
    from .dos import ids_histogram
    space, spec, _ = _operator(cfg, cfg["radius"], "radius")
    hist = ids_histogram(space, spec, cfg["radius"])
    print(f"{hist.n} eigenvalues in [{hist.energies[0]:.4f}, "
          f"{hist.energies[-1]:.4f}]")
    _write_csv(cfg["out"], ("energy", "fraction"),
               zip(hist.energies.tolist(), hist.fractions.tolist()), cfg,
               extra={**_fields(hist, "radius", "solvers"), "count": hist.n})
    return 0


def _cmd_dixmier(cfg) -> int:
    from .dos import dixmier_lhs
    operator, _, window = _weighted(cfg)
    est = dixmier_lhs(*operator, window=window)
    print(f"slope {est.value:.6f} ({est.measurability.verdict})")
    _write_json(cfg["out"], cfg, {
        **_fields(est, "lam_counts", "lam_values", "solvers", "product_rank"),
        **_fields(est.fit, "window"), "slope": est.value,
        "measurability": _measurability_dict(est)})
    return 0


def _cmd_theorem_check(cfg) -> int:
    from .dos import main_theorem_check
    operator, ladder, window = _weighted(cfg)
    check = main_theorem_check(
        *operator, margin=cfg["margin"], ladder=ladder,
        c_threshold=cfg["tolerance"]["condition_c"], window=window)
    tol = cfg["tolerance"]["relative_gap"]
    ok = check.passed(tol)
    print(f"lhs slope {check.lhs_value:.6f}")
    print(f"weight slope {check.weight_fit.slope:.6f} x DOS limit "
          f"{check.rhs_limit:.6f} = {check.product:.6f}")
    print(f"relative gap {check.relative_gap:.4f} (tolerance {tol:g}), "
          f"modulated slope {check.modulated_gap_slope:.4g} "
          f"{'ok' if check.modulated_ok else 'too large'}")
    print(f"measurability: {check.lhs.measurability.verdict}")
    _write_json(cfg["out"], cfg, {
        **_fields(check, "relative_gap", "product", "modulated_gap_slope",
                  "modulated_scale", "modulated_ok", "margin"),
        **_fields(check.lhs, "solvers", "product_rank"),
        "passed": ok, "tolerance": tol,
        "lhs_slope": check.lhs_value,
        "weight_slope": check.weight_fit.slope,
        "dos_tail_mean": check.rhs_limit,
        "condition_c_verdict": check.condition_c.verdict,
        "measurability": _measurability_dict(check.lhs),
        "r_outer": check.R_outer})
    return 0 if ok else 2


def _cmd_counterexample(cfg) -> int:
    from .reference import block_means_report
    report = block_means_report(cfg["mmax"])
    last = report.rows[-1]
    print(f"{len(report.rows)} checkpoints up to n={last.n}; "
          f"log-Cesaro there {last.log_cesaro:.6f}")
    _write_csv(cfg["out"], ("m", "n", "cesaro", "log_cesaro"),
               ((r.m, r.n, r.cesaro, r.log_cesaro) for r in report.rows),
               cfg, extra={"mmax": cfg["mmax"]})
    return 0


def _cmd_vp_trace(cfg) -> int:
    from .dos import weight_dixmier_trace
    from .hamiltonians import lattice_weight
    from .reference import lp_ball_volume
    from .spaces import Lattice
    space = Lattice(cfg["d"], cfg["p"])
    ladder = space.ladder_to_radius(cfg["radius"])
    fit = weight_dixmier_trace(lattice_weight(space, ladder))
    target = lp_ball_volume(cfg["d"], cfg["p"])
    rel = abs(fit.slope - target) / target
    print(f"slope {fit.slope:.6f}, ball-volume constant {target:.6f}, "
          f"relative error {rel:.4f}")
    _write_json(cfg["out"], cfg, {
        "d": cfg["d"], "p": cfg["p"], "radius": cfg["radius"],
        **_fields(fit, "slope"), "ball_volume": target, "relative_error": rel,
        "terms": int(ladder.counts[-1])})
    return 0


def _cmd_equivariance(cfg) -> int:
    from .ergodic import equivariance_check
    space, spec, g = _operator(cfg, cfg["radii"][-1] + cfg["margin"], "radii")
    rep = equivariance_check(space, spec, cfg["shift"], g, cfg["radii"],
                             margin=cfg["margin"])
    print(f"max diff {rep.max_diff:.3e}, tail diff {rep.tail_diff:.3e}, "
          f"nonincreasing {rep.nonincreasing}")
    _write_csv(cfg["out"], ("r", "average", "shifted_average", "abs_diff"),
               zip(rep.radii.tolist(), rep.values.tolist(),
                   rep.shifted_values.tolist(), rep.diffs.tolist()), cfg,
               extra=_fields(rep, "shift", "max_diff", "tail_diff",
                             "nonincreasing"))
    return 0


def _cmd_ergodic(cfg) -> int:
    from .ergodic import ergodic_average
    space = space_from(cfg["space"])
    rep = ergodic_average(space, hamiltonian_from(cfg["hamiltonian"], space),
                          fn_from(cfg["g"]), folner_from(cfg["folner"]),
                          cfg["realizations"], cfg["seed"],
                          margin=cfg["margin"], index=cfg["index"])
    print(f"mean {rep.mean:.6f}, std {rep.std:.3e}, sem {rep.sem:.3e}, "
          f"{rep.n_within_3std}/{rep.n_realizations} within 3 std")
    _write_csv(cfg["csv_out"], ("realization", "seed", "average", "z_score"),
               ((j, rep.seeds[j], float(rep.averages[j]),
                 float(rep.z_scores[j])) for j in range(rep.n_realizations)),
               cfg)
    _write_json(cfg["out"], cfg, {
        **_fields(rep, "mean", "std", "sem", "n_within_3std", "window_size",
                  "seeds", "solvers", "diagonal_routes"),
        "realizations": rep.n_realizations})
    return 0


def _cmd_folner(cfg) -> int:
    from .ergodic import folner_tempered_check
    rep = folner_tempered_check(folner_from(cfg["folner"]), n_max=cfg["nmax"])
    print(f"{rep.shape} schedule of {len(rep.cardinalities)}: "
          f"temperedness C = {rep.c_estimate:.4f}, last deviation "
          f"{rep.deviations[-1].max():.4g}")
    rows = ((n, int(rep.cardinalities[i]), float(rep.deviations[i].max()),
             "" if i == 0 else repr(float(rep.tempered_ratios[i - 1])))
            for i, n in enumerate(rep.schedule))
    _write_csv(cfg["out"], ("n", "cardinality", "deviation_max",
                            "tempered_ratio"), rows, cfg,
               extra=_fields(rep, "c_estimate", "shape"))
    return 0


# ---------------------------------------------------------------------------
# command table: schema name -> (help, handler, flags); each flag is
# (flag, dotted config key, argparse type or tuple of choices)

_SPACE_FLAGS = (("--space", "space.kind", tuple(KINDS["space"])),
                ("--d", "space.d", int), ("--p", "space.p", _p_norm))

_COMMANDS = {
    "space-ladder": ("radii ladder CSV", _cmd_space_ladder, _SPACE_FLAGS + (
        ("--kmax", "kmax", int), ("--radius", "radius", float))),
    "space-check-c": ("ball-ratio condition verdict", _cmd_space_check_c,
                      _SPACE_FLAGS + (("--kmax", "kmax", int),
                                      ("--threshold", "threshold", float))),
    "percolate": ("bond percolation sample and cluster growth",
                  _cmd_percolate, (
                      ("--d", "d", int), ("--L", "L", int),
                      ("--p", "p", float), ("--seed", "seed", int),
                      ("--tmax", "tmax", int),
                      ("--growth-out", "growth_out", str),
                      ("--sample-out", "sample_out", str))),
    "dos": ("ball averages of diag g(H)", _cmd_dos, ()),
    "ids": ("empirical integrated density of states", _cmd_ids, ()),
    "dixmier": ("trace slope of g(H) M_w", _cmd_dixmier, ()),
    "theorem-check": ("compare trace slope with weight slope x DOS limit",
                      _cmd_theorem_check, ()),
    "counterexample": ("dyadic-block running means table",
                       _cmd_counterexample, (("--mmax", "mmax", int),)),
    "vp-trace": ("weight trace slope vs the ball-volume constant",
                 _cmd_vp_trace, (("--d", "d", int), ("--p", "p", _p_norm),
                                 ("--radius", "radius", float))),
    "equivariance": ("ball averages around two base points",
                     _cmd_equivariance, ()),
    "ergodic": ("disorder-averaged window means", _cmd_ergodic,
                (("--seed", "seed", int),)),
    "folner": ("deviation and temperedness tables", _cmd_folner, (
        ("--shape", "folner.shape", FOLNER_SHAPES),
        ("--d", "folner.d", int), ("--schedule", "folner.schedule", _int_list),
        ("--nmax", "nmax", int))),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="doslab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"doslab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON experiment config")
    common.add_argument("--threads", type=int,
                        help="cap BLAS/worker threads (default: leave as is)")
    common.add_argument("--budget", type=int,
                        help="point budget; sets DOSLAB_BUDGET for the run")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    space = sub.add_parser("space", help="metric-space tables")
    ssub = space.add_subparsers(metavar="SUBCOMMAND")
    for schema, (text, handler, flags) in _COMMANDS.items():
        group, name = ((ssub, schema[len("space-"):])
                       if schema.startswith("space-") else (sub, schema))
        cmd = group.add_parser(name, parents=[common], help=text)
        flags = (("--out", "out", str),) + flags
        for flag, key, kind in flags:
            cmd.add_argument(flag, dest=key, **(
                {"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
        cmd.set_defaults(handler=handler, schema=schema,
                         keys=tuple(key for _, key, _ in flags))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if "handler" not in args:
        print("usage: doslab space {ladder,check-c} [options]",
              file=sys.stderr)
        return 1
    try:
        _apply_process_flags(args)
        with warnings.catch_warnings(record=True) as caught:
            try:
                return args.handler(_load_config(args))
            finally:
                for text in dict.fromkeys(str(w.message) for w in caught):
                    print(f"doslab: warning: {text}", file=sys.stderr)
    except (ValueError, BudgetExceeded, PreconditionFailed, NotEstablished,
            OSError) as exc:
        # ValueError covers ConfigError, GraphParseError and the domain
        # checks that need the built objects (too few eigenvalues for the
        # slope window, a window beyond the series)
        print(f"doslab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
