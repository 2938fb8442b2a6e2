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
from collections import defaultdict
from dataclasses import replace
from datetime import datetime, timezone
from operator import attrgetter

import numpy as np

from . import __version__
from .clusters import write_clusters_csv
from .errors import ConfigurationError
from .events import PathEvent, format_event, parse_event
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
from .paths import ScalingRule, read_path_csv, write_path_csv
from .streams import substream

# experiment key -> (ExperimentConfig attribute path, kind): the one
# definition of the config format, read by parse_config and emit_config
_KEYS = {
    "model": ("model", str),
    "lambda_rate": ("lam", float),
    "T_horizon": ("T", float),
    "eta_exponent": ("eta", float),
    "mark_family": ("spec.x_law.family", str),
    "mark_scale": ("spec.x_law.scale", float),
    "mark_alpha": ("spec.x_law.alpha", float),
    "dependence": ("spec.dependence", str),
    "k_param": ("spec.k_param", float),
    "phi_fertility": ("spec.phi", float),
    "k_alpha": ("spec.k_alpha", float),
    "wait_family": ("wait.law.family", str),
    "wait_scale": ("wait.law.scale", float),
    "wait_alpha": ("wait.law.alpha", float),
    "wait_conditional": ("wait.conditional_on_mark", bool),
    "k_order": ("k", int),
    "event": ("event", PathEvent),
    "n_reps": ("n_reps", int),
    "seed_root": ("seed", int),
    "delta_split": ("delta", float),
    "grid_n": ("grid_n", int),
    "cluster_cap": ("cap", int),
    "n_centering": ("n_centering", int),
    "n_pbig": ("n_pbig", int),
    "n_strata": ("n_strata", int),
    "estimator": ("estimator", str),
}

# defaults of the keys whose objects have none of their own; any other key
# left out takes its dataclass default
_DEFAULTS = {
    "mark_family": "pareto",
    "wait_family": "exponential",
    "wait_scale": "1.0",
    "k_order": "0",
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

_EXTRAS = {
    "check_T_grid": "25,50,100,200",
    "check_epsilon": "0.1",
    "check_quantiles": "0.999",
    "check_n_accept": "4000",
    "mu_y": "1.0",
}

_KNOWN = set(_KEYS) | set(_EXTRAS)


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


def _parse_number(key: str, text: str, kind=int):
    """``kind(text)``; the digit separator ``_`` and the non-ASCII digits
    that Python's number syntax takes are refused."""
    try:
        if "_" in text or not text.isascii():
            raise ValueError(text)
        return kind(text)
    except ValueError as exc:
        what = "a number" if kind is float else "an integer"
        raise ConfigurationError(f"key {key!r}: not {what} ({text!r})") from exc


def _parse_float(key: str, text: str, positive: bool = False) -> float:
    value = _parse_number(key, text, float)
    if not np.isfinite(value):
        raise ConfigurationError(f"key {key!r}: must be finite, got {text!r}")
    if positive and not value > 0.0:
        raise ConfigurationError(f"key {key!r}: must be > 0, got {text!r}")
    return value


def _parse_value(key: str, kind, text: str):
    if kind is float:
        return _parse_float(key, text)
    if kind is int or kind is bool:
        value = _parse_number(key, text)
        if kind is bool and text not in ("0", "1"):
            raise ConfigurationError(f"key {key!r}: must be 0 or 1, got {text!r}")
        return kind(value)
    return parse_event(text) if kind is PathEvent else text


def _format_value(kind, value) -> str:
    if kind is float:
        return repr(value)
    if kind is bool:
        return str(int(value))
    return format_event(value) if kind is PathEvent else str(value)


def parse_config(text: str) -> ExperimentConfig:
    """Validated experiment config from the documented key=value format."""
    items = _parse_items(text)
    for key in _REQUIRED:
        if key not in items:
            raise ConfigurationError(f"missing required config key {key!r}")
    items = {**_DEFAULTS, **items}
    for prefix, law in (("wait", "pareto waits"), ("mark", "pareto")):
        if items[f"{prefix}_family"] != PARETO:
            items.pop(f"{prefix}_alpha", None)  # only a Pareto law reads its alpha
        elif f"{prefix}_alpha" not in items:
            raise ConfigurationError(f"missing key {prefix}_alpha (required for {law})")
    fields = defaultdict(dict)  # owner's attribute path -> {field name: parsed value}
    for key, (path, kind) in _KEYS.items():
        if key in items:
            owner, _, name = path.rpartition(".")
            fields[owner][name] = _parse_value(key, kind, items[key])
    spec = JointMarkSpec(TailLaw(**fields["spec.x_law"]), **fields["spec"])
    wait = WaitLaw(TailLaw(**fields["wait.law"]), **fields["wait"])
    return ExperimentConfig(spec=spec, wait=wait, **fields[""])


def parse_extras(text: str) -> dict[str, str]:
    merged = dict(_EXTRAS)
    merged.update({k: v for k, v in _parse_items(text).items() if k in _EXTRAS})
    return merged


def emit_config(config: ExperimentConfig) -> str:
    """Canonical key=value emission (sorted keys; config-hash input)."""
    lines = []
    for key, (path, kind) in sorted(_KEYS.items()):
        value = attrgetter(path)(config)
        if value is not None:
            lines.append(f"{key} = {_format_value(kind, value)}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(emit_config(config).encode()).hexdigest()[:16]


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


def _write_record(config: ExperimentConfig, outputs: list[str], out_dir: str, name: str) -> str:
    record = {
        "config_hash": config_hash(config),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "outputs": outputs,
        "seed": config.seed,
    }
    path = os.path.join(out_dir, f"record_{name}_{record['config_hash']}.json")
    _atomic_write(path, _json(record, indent=2) + "\n")
    return path


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    config = parse_config(_read(args.config))
    _, gammas, batch = draw_clusters(config, 1, substream(config.seed, "simulate"), lineage=True)
    path = replication_path(config, gammas, batch, centering_curve(config))
    os.makedirs(args.out, exist_ok=True)  # only once there is a path: a refused run leaves none
    path_file = os.path.join(args.out, "path.csv")
    buf = io.StringIO()
    write_path_csv(path, buf)
    _atomic_write(path_file, buf.getvalue())
    clusters_file = os.path.join(args.out, "clusters.csv")
    buf = io.StringIO()
    write_clusters_csv(batch, buf)
    _atomic_write(clusters_file, buf.getvalue())
    record = _write_record(config, [path_file, clusters_file], args.out, "simulate")
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
    text = _read(args.config)
    config = parse_config(text)
    extras = parse_extras(text)
    measure = measure_for_model(config.model, config.spec)
    y = _parse_float("mu_y", extras["mu_y"], positive=True)
    c = y if getattr(config.event, "c", None) is None else config.event.c
    try:
        sharp = mu_sharp(measure, config.lam, config.k, config.event)
    except ValueError as exc:
        raise ConfigurationError(f"event {format_event(config.event)} at k={config.k}: {exc}") from None
    try:  # an event's own c passed in mu_sharp, so what fails here is mu_y
        tail, bar = mu_tail(measure, y), mu_bar_tail(measure, config.lam, config.k, c)
    except ValueError as exc:
        raise ConfigurationError(f"key 'mu_y': {exc}") from None
    out = {
        "model": measure.model,
        "alpha": measure.alpha,
        "constant": measure.constant,
        "mu_tail": tail,
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
        _atomic_write(os.path.join(args.out, "measure.json"), _json(out, indent=2) + "\n")
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
    if args.workers < 1:
        raise ConfigurationError(f"--workers must be >= 1, got {args.workers}")
    config = replace(parse_config(_read(args.config)), workers=args.workers)
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
        "detail": ratio_est.detail,
    }
    summary_path = os.path.join(args.out, f"ldp_{config_hash(config)}.json")
    _atomic_write(summary_path, _json(summary, indent=2) + "\n")
    _write_record(config, [log, summary_path], args.out, "ldp")
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
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


def _json(obj, indent=None) -> str:
    """Strict JSON, which has no NaN or Infinity: non-finite floats are null."""
    return json.dumps(_jsonable(obj), indent=indent, allow_nan=False)


def _spearman(x, y) -> float:
    """scipy.stats.spearmanr's statistic: Pearson's r of the average ranks, nan on NaN or constant input."""
    a = np.column_stack((x, y)).astype(float)
    if np.isnan(a).any() or (a == a[0]).all(axis=0).any():
        return np.nan
    s = np.sort(a, axis=0)  # each tie's average rank is the mean of its first and last
    ranks = [np.searchsorted(s[:, i], a[:, i]) + 1 + np.searchsorted(s[:, i], a[:, i], "right") for i in (0, 1)]
    return float(np.corrcoef(0.5 * np.column_stack(ranks), rowvar=False)[1, 0])


def _cmd_check(args) -> int:
    text = _read(args.config)
    config = parse_config(text)
    extras = parse_extras(text)
    grid = [_parse_float("check_T_grid", x, positive=True) for x in extras["check_T_grid"].split(",")]
    for T in grid:  # every check takes x_T at each horizon
        try:
            ScalingRule(config.eta, T).x_T
        except ConfigurationError as exc:
            raise ConfigurationError(f"key 'check_T_grid': {exc}") from None
    epsilon = _parse_float("check_epsilon", extras["check_epsilon"], positive=True)
    n_accept = _parse_number("check_n_accept", extras["check_n_accept"])
    if n_accept < 1:
        raise ConfigurationError(f"key 'check_n_accept': must be >= 1, got {n_accept}")
    levels = [_parse_float("check_quantiles", x) for x in extras["check_quantiles"].split(",")]
    if not all(0.9 < q < 1.0 for q in levels):
        raise ConfigurationError(f"key 'check_quantiles': levels must lie in (0.9, 1), got {levels}")
    if not 0.0 < args.band < np.inf:
        raise ConfigurationError(f"--band must be finite and > 0, got {args.band}")
    if args.which == "remainder":
        rows = check_remainder(config, grid, n_accept_target=n_accept)
        ests = [r["estimate"] for r in rows]
        rho = _spearman(grid, ests) if len(grid) > 2 else np.nan
        ok = bool(rho <= -0.9 and ests[-1] < 0.05 and not any(r["low_confidence"] for r in rows))
        verdict = {"check": "remainder", "spearman": rho, "final": ests[-1], "pass": ok}
    elif args.which == "assumption6":
        rows, word = check_assumption6(config.wait, config.eta, epsilon, grid)
        ok = word == "holds"
        verdict = {"check": "assumption6", "verdict": word, "pass": ok}
    elif args.which == "tails":
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
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigurationError(f"unknown check {args.which!r}")
    os.makedirs(args.out, exist_ok=True)  # only once there is a verdict: a refused check leaves none
    _write_table(os.path.join(args.out, f"{args.which}.csv"), rows)
    verdict_path = os.path.join(args.out, f"check_{args.which}.json")
    _atomic_write(verdict_path, _json(verdict, indent=2) + "\n")
    _write_record(config, [verdict_path], args.out, f"check_{args.which}")
    print(_json(verdict))
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
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_ldp)

    p = sub.add_parser("check", help="empirical assumption checks")
    p.add_argument("which", choices=["remainder", "assumption6", "tails"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--band", type=float, default=0.3)
    p.set_defaults(fn=_cmd_check)
    return parser


# glibc mallopt(3) parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Have glibc keep freed heap for reuse rather than return it to the
    kernel, which zero-fills the pages again when the next estimator chunk
    allocates them.  Blocks up to 32 MiB (glibc's 64-bit maximum) come from
    the heap, which is trimmed only past 256 MiB free at its top.  Setting
    either threshold switches off glibc's dynamic one, so both are set: the
    trim threshold alone leaves large blocks to fresh mmaps, which fault
    more.  Forked workers inherit the setting.  A no-op where libc has no
    mallopt."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    except (OSError, AttributeError, TypeError):
        pass


def main(argv=None) -> int:
    _keep_freed_heap()
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
