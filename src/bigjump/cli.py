"""Command-line surface: flat key=value configs, runnable experiments,
append-only result logs.

Subcommands: ``simulate``, ``m1``, ``measure``, ``ldp``, ``check``.
Every run needs an explicit root seed; nothing defaults to the clock.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .clusters import write_clusters_csv
from .errors import ConfigurationError
from .events import format_event, parse_event
from .harness import (
    ExperimentConfig,
    centering_curve,
    check_assumption6,
    check_remainder,
    check_tail_equivalence,
    draw_clusters,
    ldp_ratio,
    replication_path,
)
from .laws import PARETO, JointMarkSpec, TailLaw, WaitLaw
from .m1 import m1_distance_bracket
from .measures import measure_for_model, mu_bar_tail, mu_sharp, mu_tail
from .paths import read_path_csv, write_path_csv
from .streams import substream

WORKERS_ENV = "BIGJUMP_WORKERS"

_DEFAULTS = {
    "mark_family": "pareto",
    "dependence": "independent_light_k",
    "k_param": "0.0",
    "phi_fertility": "0.0",
    "wait_family": "exponential",
    "wait_scale": "1.0",
    "wait_conditional": "0",
    "k_order": "0",
    "delta_split": "0.5",
    "grid_n": "1024",
    "cluster_cap": "1000000",
    "n_centering": "200000",
    "n_pbig": "400000",
    "n_strata": "4000",
    "estimator": "splitting",
}

_REQUIRED = [
    "model",
    "lambda_rate",
    "T_horizon",
    "eta_exponent",
    "mark_scale",
    "event",
    "n_reps",
    "seed_root",
]

_OPTIONAL = {"mark_alpha", "k_alpha", "wait_alpha"}

_EXTRAS = {
    "check_T_grid": "25,50,100,200",
    "check_epsilon": "0.1",
    "check_quantiles": "0.999",
    "check_n_accept": "4000",
    "mu_y": "1.0",
}

_KNOWN = set(_DEFAULTS) | set(_REQUIRED) | _OPTIONAL | set(_EXTRAS)


def _parse_items(text: str) -> dict[str, str]:
    items: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KNOWN:
            raise ConfigurationError(f"unknown config key {key!r}")
        if key in items:
            raise ConfigurationError(f"duplicate config key {key!r}")
        items[key] = value
    return items


def _parse_float(key: str, text: str, positive: bool = False) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: not a number ({text!r})") from exc
    if not np.isfinite(value):
        raise ConfigurationError(f"key {key!r}: must be finite, got {text!r}")
    if positive and not value > 0.0:
        raise ConfigurationError(f"key {key!r}: must be > 0, got {text!r}")
    return value


def _get_float(items, key) -> float:
    return _parse_float(key, items[key])


def _get_int(items, key) -> int:
    try:
        return int(items[key])
    except ValueError as exc:
        raise ConfigurationError(f"key {key!r}: not an integer ({items[key]!r})") from exc


def _law_from(items, prefix: str) -> TailLaw:
    family = items[f"{prefix}_family"]
    scale = _get_float(items, f"{prefix}_scale")
    alpha = None
    if family == PARETO:
        if f"{prefix}_alpha" not in items:
            raise ConfigurationError(f"missing key {prefix}_alpha (required for pareto)")
        alpha = _get_float(items, f"{prefix}_alpha")
    return TailLaw(family, scale, alpha)


def parse_config(text: str) -> ExperimentConfig:
    """Validated experiment config from the documented key=value format."""
    items = _parse_items(text)
    for key in _REQUIRED:
        if key not in items:
            raise ConfigurationError(f"missing required config key {key!r}")
    merged = dict(_DEFAULTS)
    merged.update(items)
    if "wait_family" in merged and merged["wait_family"] == PARETO and "wait_alpha" not in merged:
        raise ConfigurationError("missing key wait_alpha (required for pareto waits)")
    x_law = _law_from(merged, "mark")
    k_alpha = _get_float(merged, "k_alpha") if "k_alpha" in merged else None
    spec = JointMarkSpec(
        x_law=x_law,
        dependence=merged["dependence"],
        k_param=_get_float(merged, "k_param"),
        phi=_get_float(merged, "phi_fertility"),
        k_alpha=k_alpha,
    )
    wait = WaitLaw(_law_from(merged, "wait"), conditional_on_mark=bool(_get_int(merged, "wait_conditional")))
    return ExperimentConfig(
        model=merged["model"],
        lam=_get_float(merged, "lambda_rate"),
        T=_get_float(merged, "T_horizon"),
        eta=_get_float(merged, "eta_exponent"),
        spec=spec,
        wait=wait,
        k=_get_int(merged, "k_order"),
        event=parse_event(merged["event"]),
        n_reps=_get_int(merged, "n_reps"),
        seed=_get_int(merged, "seed_root"),
        delta=_get_float(merged, "delta_split"),
        grid_n=_get_int(merged, "grid_n"),
        cap=_get_int(merged, "cluster_cap"),
        n_centering=_get_int(merged, "n_centering"),
        n_pbig=_get_int(merged, "n_pbig"),
        n_strata=_get_int(merged, "n_strata"),
        estimator=merged["estimator"],
    )


def parse_extras(text: str) -> dict[str, str]:
    merged = dict(_EXTRAS)
    merged.update({k: v for k, v in _parse_items(text).items() if k in _EXTRAS})
    return merged


def emit_config(config: ExperimentConfig) -> str:
    """Canonical key=value emission (sorted keys; config-hash input)."""
    spec, wait = config.spec, config.wait
    items = {
        "model": config.model,
        "lambda_rate": repr(config.lam),
        "T_horizon": repr(config.T),
        "eta_exponent": repr(config.eta),
        "mark_family": spec.x_law.family,
        "mark_scale": repr(spec.x_law.scale),
        "dependence": spec.dependence,
        "k_param": repr(spec.k_param),
        "phi_fertility": repr(spec.phi),
        "wait_family": wait.law.family,
        "wait_scale": repr(wait.law.scale),
        "wait_conditional": str(int(wait.conditional_on_mark)),
        "k_order": str(config.k),
        "event": format_event(config.event),
        "n_reps": str(config.n_reps),
        "seed_root": str(config.seed),
        "delta_split": repr(config.delta),
        "grid_n": str(config.grid_n),
        "cluster_cap": str(config.cap),
        "n_centering": str(config.n_centering),
        "n_pbig": str(config.n_pbig),
        "n_strata": str(config.n_strata),
        "estimator": config.estimator,
    }
    if spec.x_law.alpha is not None:
        items["mark_alpha"] = repr(spec.x_law.alpha)
    if spec.k_alpha is not None:
        items["k_alpha"] = repr(spec.k_alpha)
    if wait.law.alpha is not None:
        items["wait_alpha"] = repr(wait.law.alpha)
    return "\n".join(f"{k} = {items[k]}" for k in sorted(items)) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(emit_config(config).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class RunRecord:
    config_hash: str
    timestamp: str
    version: str
    outputs: tuple[str, ...]
    seed: int


def _atomic_write(path: str, content: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _append_csv(path: str, header: list[str], row: list[str]) -> None:
    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if new:
            writer.writerow(header)
        writer.writerow(row)
        fh.flush()


def _record(config: ExperimentConfig, outputs: list[str]) -> RunRecord:
    return RunRecord(
        config_hash=config_hash(config),
        timestamp=datetime.now(timezone.utc).isoformat(),
        version=__version__,
        outputs=tuple(outputs),
        seed=config.seed,
    )


def _write_record(record: RunRecord, out_dir: str, name: str) -> str:
    path = os.path.join(out_dir, f"record_{name}_{record.config_hash}.json")
    _atomic_write(path, json.dumps(record.__dict__, indent=2) + "\n")
    return path


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def _load_extras(path: str) -> dict[str, str]:
    with open(path) as fh:
        return parse_extras(fh.read())


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    os.makedirs(args.out, exist_ok=True)
    _, gammas, batch = draw_clusters(config, 1, substream(config.seed, "simulate"))
    path = replication_path(config, gammas, batch, centering_curve(config))
    path_file = os.path.join(args.out, "path.csv")
    buf = io.StringIO()
    write_path_csv(path, buf)
    _atomic_write(path_file, buf.getvalue())
    clusters_file = os.path.join(args.out, "clusters.csv")
    write_clusters_csv(clusters_file, batch)
    record = _write_record(_record(config, [path_file, clusters_file]), args.out, "simulate")
    print(f"simulate: {batch.n} clusters, {path.n_nodes} path nodes -> {path_file}")
    print(f"record: {record}")
    return 0


def _cmd_m1(args) -> int:
    with open(args.path1) as fh:
        p1 = read_path_csv(fh)
    with open(args.path2) as fh:
        p2 = read_path_csv(fh)
    lo, hi = m1_distance_bracket(p1, p2, args.tol)
    print(f"m1_distance = {0.5 * (lo + hi)!r}")
    print(f"bracket = [{lo!r}, {hi!r}]")
    return 0


def _cmd_measure(args) -> int:
    config = _load_config(args.config)
    extras = _load_extras(args.config)
    measure = measure_for_model(config.model, config.spec)
    y = float(extras["mu_y"])
    if not 0.0 < y < np.inf:
        raise ConfigurationError(f"mu_y must be positive and finite, got {y!r}")
    c = y if getattr(config.event, "c", None) is None else config.event.c
    try:
        sharp = mu_sharp(measure, config.lam, config.k, config.event)
    except ValueError as exc:
        raise ConfigurationError(f"event {format_event(config.event)} at k={config.k}: {exc}") from None
    bar = mu_bar_tail(measure, config.lam, config.k, c)  # an event's own c passed in mu_sharp
    out = {
        "model": measure.model,
        "alpha": measure.alpha,
        "constant": measure.constant,
        "mu_tail": mu_tail(measure, y),
        "mu_tail_at": y,
        "mu_bar_tail": bar,
        "mu_bar_at": c,
        "mu_sharp": sharp,
        "event": format_event(config.event),
        "k": config.k,
    }
    for key, val in out.items():
        print(f"{key} = {val}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _atomic_write(os.path.join(args.out, "measure.json"), json.dumps(out, indent=2) + "\n")
    return 0


_LDP_HEADER = [
    "config_hash",
    "T",
    "eta",
    "k",
    "event",
    "estimate",
    "stderr",
    "limit_value",
    "ratio",
    "n_reps",
    "wall_seconds",
    "seed",
]


def _cmd_ldp(args) -> int:
    config = replace(_load_config(args.config), workers=args.workers)
    t0 = time.perf_counter()
    ratio_est, limit_value = ldp_ratio(config)
    wall = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)  # only once there is a row: a refused run leaves none
    prob = ratio_est.detail["probability"]
    prob_se = ratio_est.detail["probability_se"]
    row = [
        config_hash(config),
        repr(config.T),
        repr(config.eta),
        str(config.k),
        format_event(config.event),
        repr(float(prob)),
        repr(float(prob_se)),
        repr(float(limit_value)),
        repr(float(ratio_est.value)),
        str(config.n_reps),
        repr(float(wall)),
        str(config.seed),
    ]
    log = os.path.join(args.out, "results.csv")
    _append_csv(log, _LDP_HEADER, row)
    summary = {
        "config_hash": config_hash(config),
        "estimator": config.estimator,
        "probability": float(prob),
        "probability_stderr": float(prob_se),
        "ratio": float(ratio_est.value),
        "ratio_stderr": float(ratio_est.stderr),
        "ratio_ci95": list(ratio_est.ci95),
        "limit_value": float(limit_value),
        "n": ratio_est.n,
        "seed_lineage": ratio_est.seed_lineage,
        "wall_seconds": wall,
        "detail": _jsonable(ratio_est.detail),
    }
    summary_path = os.path.join(args.out, f"ldp_{config_hash(config)}.json")
    _atomic_write(summary_path, json.dumps(summary, indent=2) + "\n")
    _write_record(_record(config, [log, summary_path]), args.out, "ldp")
    print(
        f"ldp: P={prob:.6g} (se {prob_se:.2g}), ratio={ratio_est.value:.4g} "
        f"vs limit {limit_value:.6g} -> {log}"
    )
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


def _cmd_check(args) -> int:
    config = _load_config(args.config)
    extras = _load_extras(args.config)
    grid = [_parse_float("check_T_grid", x, positive=True) for x in extras["check_T_grid"].split(",")]
    epsilon = _parse_float("check_epsilon", extras["check_epsilon"], positive=True)
    n_accept = _get_int(extras, "check_n_accept")
    if n_accept < 1:
        raise ConfigurationError(f"key 'check_n_accept': must be >= 1, got {n_accept}")
    if not 0.0 < args.band < np.inf:
        raise ConfigurationError(f"--band must be finite and > 0, got {args.band}")
    os.makedirs(args.out, exist_ok=True)
    ok = False
    if args.which == "remainder":
        rows = check_remainder(config, grid, n_accept_target=n_accept)
        ests = [r["estimate"] for r in rows]
        from scipy.stats import spearmanr

        rho = float(spearmanr(grid, ests).statistic) if len(grid) > 2 else np.nan
        ok = bool(rho <= -0.9 and ests[-1] < 0.05 and not any(r["low_confidence"] for r in rows))
        verdict = {"check": "remainder", "spearman": rho, "final": ests[-1], "pass": ok}
        _write_table(os.path.join(args.out, "remainder.csv"), rows)
    elif args.which == "assumption6":
        rows, word = check_assumption6(config.wait, config.eta, epsilon, grid)
        ok = word == "holds"
        verdict = {"check": "assumption6", "verdict": word, "pass": ok}
        _write_table(os.path.join(args.out, "assumption6.csv"), rows)
    elif args.which == "tails":
        levels = [float(x) for x in extras["check_quantiles"].split(",")]
        rows = check_tail_equivalence(config, levels)
        last = rows[-1]
        ok = bool(abs(last["mark_over_d"] - last["mark_over_d_limit"]) <= args.band * last["mark_over_d_limit"])
        verdict = {
            "check": "tails",
            "mark_over_d": last["mark_over_d"],
            "mark_over_d_limit": last["mark_over_d_limit"],
            "band": args.band,
            "pass": ok,
        }
        _write_table(os.path.join(args.out, "tails.csv"), rows)
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigurationError(f"unknown check {args.which!r}")
    verdict_path = os.path.join(args.out, f"check_{args.which}.json")
    _atomic_write(verdict_path, json.dumps(_jsonable(verdict), indent=2) + "\n")
    _write_record(_record(config, [verdict_path]), args.out, f"check_{args.which}")
    print(json.dumps(_jsonable(verdict)))
    return 0 if ok else 1


def _write_table(path: str, rows: list[dict]) -> None:
    if not rows:
        _atomic_write(path, "")
        return
    header = list(rows[0].keys())
    lines = [",".join(header)]
    for r in rows:
        lines.append(",".join(repr(r[k]) if isinstance(r[k], float) else str(r[k]) for k in header))
    _atomic_write(path, "\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bigjump",
        description="Heavy-tailed cluster-process simulation and rare-event path estimators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one replication; writes path and cluster CSVs")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("m1", help="M1 distance between two path CSVs")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=_cmd_m1)

    p = sub.add_parser("measure", help="limit-measure values for a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_measure)

    p = sub.add_parser("ldp", help="rare-event estimate and limit ratio")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_ldp)

    p = sub.add_parser("check", help="empirical assumption checks")
    p.add_argument("which", choices=["remainder", "assumption6", "tails"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band", type=float, default=0.3)
    p.set_defaults(fn=_cmd_check)
    return parser


def _resolve_workers(args) -> int:
    env = os.environ.get(WORKERS_ENV)
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigurationError(f"{WORKERS_ENV} must be an integer, got {env!r}") from None
    if getattr(args, "workers", None):
        return max(1, args.workers)
    return 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if hasattr(args, "workers"):
            args.workers = _resolve_workers(args)
        return args.fn(args)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
