"""End-to-end benchmark of the ``bigjump`` CLI, with a traced run per layer.

    python3 perfbench/run.py --workload mb-split --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Every workload input is generated here from ``--seed``.

``--trace 0`` times fresh ``bigjump`` processes: ``setup_s`` is the median
of several fresh interpreters importing ``bigjump.cli``; the workload is then
repeated until ``--seconds`` have passed (at least twice), and ``wall_s``,
``cpu_s`` and ``peak_rss_mb`` are medians over the repeats.  ``--trace 1``
makes one traced run (``trace_run.py``) between two untraced ones and
reports per-layer metrics from the spans and the trace targets found
absent; spans covering less than ``MIN_COVERAGE`` of the CLI time fail the
traced run.  Every output is checked; a non-zero exit, a timeout or a
failed check counts as a failed run.  The last line printed is the JSON
result; a record of the run, with the machine, the inputs, the result
fingerprint and every sample, goes to ``.bench_runs/``.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import m1_reference
import trace_run

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_SAMPLES = 2  # timed repeats per invocation, however long each takes
RUN_TIMEOUT_S = 100.0  # one CLI process; killed and counted as failed beyond this
RUN_BUDGET_S = 140.0  # no repeat starts that would end later than this into a run
STARTED = time.perf_counter()
Z_BAND = 6.0
MIN_COVERAGE = 0.85  # share of the traced CLI time that layer spans must cover
M1_TOL = 1e-9
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

LDP_CONFIGS = {
    # the acceptance suite's c4 config at T=200
    "mb": """model = mb
lambda_rate = 1.0
T_horizon = 200.0
eta_exponent = 0.8
mark_family = pareto
mark_alpha = 1.5
mark_scale = 1.0
dependence = independent_light_k
k_param = 2.0
wait_family = exponential
wait_scale = 1.0
k_order = 0
event = terminal_exceed:1.0
n_reps = 20000
seed_root = {seed}
delta_split = 0.5
grid_n = 8192
n_pbig = 400000
n_strata = 4000
estimator = splitting
""",
    # branching model with mean fertility phi * E[X] = 0.5
    "hawkes": """model = hawkes
lambda_rate = 1.0
T_horizon = 200.0
eta_exponent = 0.8
mark_family = pareto
mark_alpha = 1.5
mark_scale = 1.0
dependence = independent_light_k
k_param = 0.0
phi_fertility = 0.16666666666666666
wait_family = exponential
wait_scale = 1.0
k_order = 0
event = sup_exceed:1.0
n_reps = 20000
seed_root = {seed}
grid_n = 1024
n_centering = 200000
estimator = crude
""",
}

WORKLOADS = {
    "mb-split": {"config": "mb", "workers": 1},
    "mb-split-w2": {"config": "mb", "workers": 2, "twin": "mb-split"},
    "hawkes-crude": {"config": "hawkes", "workers": 1},
    "m1-pair": {},
}


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    """Environment of every child: the checkout's package, one BLAS thread,
    and no BIGJUMP_WORKERS (the CLI lets it override --workers)."""
    env = {k: v for k, v in os.environ.items() if k != "BIGJUMP_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update({k: "1" for k in THREAD_VARS})
    return env


def _group_gone(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def spawn(args: list[str], log_prefix: Path, timeout: float) -> dict:
    """Run ``python3 args`` in its own session; time it from spawn to exit.

    Returns wall time, user+sys time and peak RSS of the process tree (from
    ``wait4``), the exit code and whether the timeout killed it.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, f"{log_prefix}.out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{log_prefix}.err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], child_env(),
                         file_actions=actions, setsid=True)
    killed = threading.Event()

    def kill():
        killed.set()
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    if killed.is_set() or not _group_gone(pid):
        kill()
        for _ in range(500):  # wait for orphaned workers to die
            if _group_gone(pid):
                break
            time.sleep(0.01)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": killed.is_set(),
        "stdout": Path(f"{log_prefix}.out").read_text(),
    }


# ---------------------------------------------------------------------------
# inputs and output checks


def write_inputs(name: str, seed: int, run_dir: Path) -> dict:
    """Workload inputs from the seed; returns their description."""
    spec = WORKLOADS[name]
    if "config" in spec:
        text = LDP_CONFIGS[spec["config"]].format(seed=seed)
        cfg = run_dir / "exp.cfg"
        cfg.write_text(text)
        return {"config": str(cfg), "config_sha256": hashlib.sha256(text.encode()).hexdigest()[:16]}
    pair = m1_reference.make_pair(seed)
    files = [run_dir / "a.csv", run_dir / "b.csv"]
    for table, f in zip(pair, files):
        m1_reference.write_csv(table, str(f))
    return {
        "paths": [str(f) for f in files],
        "nodes": [len(t[0]) for t in pair],
        "graph_vertices": [len(m1_reference.completed_graph(*t)) for t in pair],
        "csv_sha256": [hashlib.sha256(f.read_bytes()).hexdigest()[:16] for f in files],
    }


def cli_args(name: str, inputs: dict, out_dir: Path) -> list[str]:
    spec = WORKLOADS[name]
    if "config" in spec:
        return ["ldp", "--config", inputs["config"], "--out", str(out_dir), "--workers", str(spec["workers"])]
    return ["m1", *inputs["paths"], "--tol", repr(M1_TOL)]


def read_result(name: str, sample: dict, out_dir: Path) -> dict:
    """The run's output: the results.csv row for ldp, the bracket for m1."""
    if "config" not in WORKLOADS[name]:
        lines = dict(ln.split(" = ", 1) for ln in sample["stdout"].strip().splitlines())
        lo, hi = json.loads(lines["bracket"])
        return {"lo": lo, "hi": hi, "distance": float(lines["m1_distance"]), "text": sample["stdout"]}
    with open(out_dir / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"expected one results row, found {len(rows)}")
    return rows[0]


def ldp_closed_forms(text: str) -> tuple[float, float]:
    """(limit value, v'(x_T)) for k = 0 and a terminal or sup event, from the
    config text alone: C * lam * c^-alpha with the model's constant C."""
    items = dict(ln.split(" = ", 1) for ln in text.strip().splitlines())
    alpha, scale = float(items["mark_alpha"]), float(items["mark_scale"])
    lam, T, eta = float(items["lambda_rate"]), float(items["T_horizon"]), float(items["eta_exponent"])
    c = float(items["event"].split(":")[1])
    if items["model"] == "mb":
        const = 1.0 + float(items["k_param"])
    else:
        m = float(items["phi_fertility"]) * alpha * scale / (alpha - 1.0)
        const = (1.0 + m / (1.0 - m)) ** alpha / (1.0 - m)
    x_T = T**eta
    return lam * const * c ** (-alpha), (x_T / scale) ** alpha / T


def reference(name: str) -> dict:
    """The seed code's estimate for an ldp workload, from ``reference.json``."""
    return json.loads((HERE / "reference.json").read_text())[WORKLOADS[name]["config"]]


def check_result(name: str, result: dict, inputs: dict) -> list[str]:
    """Problems with one output; empty when it is correct."""
    problems = []
    if "config" not in WORKLOADS[name]:
        lo, hi = result["lo"], result["hi"]
        if not (0.0 <= lo <= hi and hi - lo <= M1_TOL):
            problems.append(f"bracket [{lo!r}, {hi!r}] is not ordered or wider than {M1_TOL}")
        graphs = [m1_reference.completed_graph(*m1_reference.read_csv(p)) for p in inputs["paths"]]
        if not m1_reference.decide(*graphs, hi) or m1_reference.decide(*graphs, lo):
            problems.append("the reference decision puts the distance outside the bracket")
        return problems
    text = Path(inputs["config"]).read_text()
    limit, v_prime = ldp_closed_forms(text)
    est, se = float(result["estimate"]), float(result["stderr"])
    value, ratio = float(result["limit_value"]), float(result["ratio"])
    if not (0.0 < est <= 1.0 and 0.0 < se < math.inf):
        problems.append(f"estimate {est} with stderr {se}")
    if not math.isclose(value, limit, rel_tol=1e-12):
        problems.append(f"limit_value {value!r} differs from the closed form {limit!r}")
    if not math.isclose(ratio, v_prime * est / limit, rel_tol=1e-9):
        problems.append(f"ratio {ratio!r} differs from v' * estimate / limit")
    # the band uses the seed-to-seed spread where it exceeds the reported
    # stderr: the crude estimator's stderr omits its Monte Carlo centering
    # error.  It is checked on both sides, so a centering sample that pulls
    # a branching estimate far down fails the run.
    ref = reference(name)
    z = (est - ref["estimate"]) / math.hypot(max(se, ref["seed_spread"]), ref["stderr"])
    if abs(z) > Z_BAND:
        problems.append(f"estimate {est!r} is {z:.2f} standard errors from the reference {ref['estimate']!r}")
    return problems


def without_wall(result: dict) -> dict:
    return {k: v for k, v in result.items() if k != "wall_seconds"}


def fingerprint(name: str, result: dict) -> dict:
    if "config" not in WORKLOADS[name]:
        return {"lo": result["lo"], "hi": result["hi"]}
    keys = ("config_hash", "estimate", "stderr", "limit_value", "ratio")
    return {k: result[k] for k in keys}


# ---------------------------------------------------------------------------
# runs


class Run:
    """One benchmark invocation: its inputs, samples and failures."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name, self.seed, self.dir = name, seed, run_dir
        self.inputs = write_inputs(name, seed, run_dir)
        self.samples: list[dict] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.result: dict | None = None  # first output; every later one must equal it
        self.result_problems: list[str] = []
        self.absent: list[str] = []  # trace targets the package no longer has

    def execute(self, label: str, args: list[str], out_dir: Path, workload: str | None = None) -> dict:
        """One CLI process with its checks; ``workload`` names the spec whose
        output it must match (a twin run uses another worker count)."""
        workload = workload or self.name
        self.attempted += 1
        sample = spawn(args, self.dir / label, RUN_TIMEOUT_S)
        sample["label"] = label
        problems = []
        if sample["timed_out"]:
            problems.append(f"killed after {RUN_TIMEOUT_S} s")
        elif sample["exit"] != 0:
            err = Path(self.dir / f"{label}.err").read_text().strip().splitlines()
            problems.append(f"exit code {sample['exit']}: {err[-1] if err else ''}")
        else:
            try:
                result = read_result(workload, sample, out_dir)
                sample["result"] = result
                if self.result is None:
                    self.result = result
                    self.result_problems = check_result(workload, result, self.inputs)
                elif without_wall(result) != without_wall(self.result):
                    problems.append("output differs from the first run of this invocation")
                problems += self.result_problems
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]
        sample["problems"] = problems
        self.samples.append(sample)
        return sample

    def fail(self, sample: dict, problem: str) -> None:
        """Fail a sample on a later check; a sample counts as failed once."""
        if not sample["problems"]:
            self.failed += 1
        sample["problems"].append(problem)
        self.problems.append(f"{sample['label']}: {problem}")

    def workload(self, label: str, workload: str | None = None) -> dict:
        out_dir = self.dir / f"out-{label}"
        args = ["-m", "bigjump", *cli_args(workload or self.name, self.inputs, out_dir)]
        return self.execute(label, args, out_dir, workload)


def measure_setup(run: Run) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        run.attempted += 1
        s = spawn(["-c", "import bigjump.cli"], run.dir / f"setup-{i}", RUN_TIMEOUT_S)
        if s["exit"] != 0 or s["timed_out"]:
            run.failed += 1
            run.problems.append(f"setup-{i}: importing bigjump.cli failed")
        times.append(s["wall_s"])
    return times


def timed_metrics(run: Run, seconds: float) -> dict:
    setup = measure_setup(run)
    twin = WORKLOADS[run.name].get("twin")
    if twin:  # the same config at another worker count must give the same row
        run.workload("twin", twin)
    started = time.perf_counter()
    timed = []
    while len(timed) < MIN_SAMPLES or time.perf_counter() - started < seconds:
        if timed and time.perf_counter() - STARTED + timed[-1]["wall_s"] > RUN_BUDGET_S:
            break
        timed.append(run.workload(f"run-{len(timed)}"))
    med = {k: statistics.median(s[k] for s in timed) for k in ("wall_s", "cpu_s", "peak_rss_mb")}
    # time until the stderr is 1% of the probability, taken from the reference
    # rather than this run's estimate: a Monte Carlo centering sample can pull
    # one branching estimate far down, and dividing by it makes the metric as
    # heavy-tailed as the estimate.  The m1 bracket is exact to its tolerance
    # in one run, so there the metric is the run's wall time.
    to_1pct = med["wall_s"]
    if run.result is not None and "estimate" in run.result:
        rel = float(run.result["stderr"]) / (0.01 * reference(run.name)["estimate"])
        to_1pct = med["wall_s"] * rel**2
    return {
        "wall_s": (med["wall_s"], "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (med["cpu_s"], "s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
        "time_to_1pct_s": (to_1pct, "s"),
    }


# ---------------------------------------------------------------------------
# traced run


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def load_spans(path: Path) -> tuple[list[dict], list[str]]:
    data = json.loads(path.read_text())
    rows = list(data["spans"])
    for extra in sorted(path.parent.glob(path.name + ".*.jsonl")):
        for line in extra.read_text().splitlines():
            rows += json.loads(line)
    keys = ("id", "parent", "name", "t0", "t1", "counts")
    return [dict(zip(keys, r)) for r in rows], data["absent"]


def layer_metrics(spans: list[dict], absent_targets: list[str], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from the spans of one traced run."""
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    for s in spans:
        inner = [(max(a, s["t0"]), min(b, s["t1"])) for a, b in children.get(s["id"], [])]
        s["self"] = (s["t1"] - s["t0"]) - _union_length([iv for iv in inner if iv[1] > iv[0]])

    def under(span: dict, name: str) -> bool:
        p = by_id.get(span["parent"])
        while p is not None:
            if p["name"] == name:
                return True
            p = by_id.get(p["parent"])
        return False

    def total(name: str, key: str | None = None) -> float:
        return sum(s["self"] if key is None else s["counts"].get(key, 0) for s in spans if s["name"] == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    def drawn_under(name: str) -> int:
        return sum(s["counts"].get("clusters", 0) for s in spans if s["name"] == "clusters.simulate_batch" and under(s, name))

    def rate(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    cli = [s for s in spans if s["name"] == "cli"]
    cli_dur = sum(s["t1"] - s["t0"] for s in cli)
    sb, dec, pool = "clusters.simulate_batch", "m1.decision", "harness.conditioned_pool"
    values = {
        "laws.sample.calls": (calls("laws.sample"), "count"),
        "laws.sample.self_s": (total("laws.sample"), "s"),
        f"{sb}.calls": (calls(sb), "count"),
        f"{sb}.self_s": (total(sb), "s"),
        f"{sb}.clusters": (total(sb, "clusters"), "count"),
        f"{sb}.events": (total(sb, "events"), "count"),
        f"{sb}.clusters_per_s": (rate(total(sb, "clusters"), total(sb)), "1/s"),
        f"{pool}.self_s": (total(pool), "s"),
        f"{pool}.drawn": (drawn_under(pool), "count"),
        f"{pool}.accepted": (total(pool, "accepted"), "count"),
        f"{pool}.accept_ratio": (rate(total(pool, "accepted"), drawn_under(pool)), "ratio"),
        "harness.p_big.self_s": (total("harness.p_big"), "s"),
        "harness.p_big.drawn": (drawn_under("harness.p_big"), "count"),
        "harness.jump_arrays.self_s": (total("harness.jump_arrays"), "s"),
        "harness.event_eval.self_s": (total("harness.event_eval"), "s"),
        "harness.event_eval.reps": (total("harness.event_eval", "reps"), "count"),
        "harness.event_eval.jumps": (total("harness.event_eval", "jumps"), "count"),
        "harness.task.self_s": (total("harness.task"), "s"),
        "harness.fan_out.self_s": (total("harness.fan_out"), "s"),
        "harness.estimate.self_s": (total("harness.estimate"), "s"),
        "paths.centering.self_s": (total("paths.centering"), "s"),
        "paths.centering.clusters": (drawn_under("paths.centering"), "count"),
        "measures.mu_sharp.self_s": (total("measures.mu_sharp"), "s"),
        "events.self_s": (total("events"), "s"),
        "streams.substream.calls": (calls("streams.substream"), "count"),
        "m1.bracket.self_s": (total("m1.bracket"), "s"),
        f"{dec}.calls": (calls(dec), "count"),
        f"{dec}.self_s": (total(dec), "s"),
        f"{dec}.cells": (total(dec, "cells"), "count"),
        f"{dec}.cells_per_s": (rate(total(dec, "cells"), total(dec)), "1/s"),
        "cli.self_s": (total("cli"), "s"),
        "trace.coverage_frac": (rate(cli_dur - total("cli"), cli_dur), "ratio"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0, "ratio"),
        "trace.spans": (len(spans), "count"),
    }
    # a layer whose every wrapped target is gone reports as absent
    gone = {name for name, targets in trace_run.LAYERS.items() if set(targets) <= set(absent_targets)}
    return {k: v for k, v in values.items() if not any(k.startswith(g + ".") for g in gone)}


def traced_metrics(run: Run) -> dict:
    """Per-layer metrics of one traced run.  Two untraced runs bracket it;
    their mean wall time is the base of ``trace.overhead_frac``."""
    before = run.workload("untraced-0")
    out_dir = run.dir / "out-traced"
    spans_file = run.dir / "spans.json"
    args = [str(HERE / "trace_run.py"), str(spans_file), "--", *cli_args(run.name, run.inputs, out_dir)]
    traced = run.execute("traced", args, out_dir)
    after = run.workload("untraced-1")
    if not spans_file.exists():
        run.fail(traced, "no spans written")
        return {}
    spans, run.absent = load_spans(spans_file)
    metrics = layer_metrics(spans, run.absent, traced["wall_s"], 0.5 * (before["wall_s"] + after["wall_s"]))
    coverage = metrics["trace.coverage_frac"][0]
    if coverage < MIN_COVERAGE:
        run.fail(traced, f"layer spans cover {coverage:.3f} of the CLI time, less than {MIN_COVERAGE}")
    return metrics


# ---------------------------------------------------------------------------


def machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "loadavg_before": list(os.getloadavg()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "bigjump" / "cli.py").is_file():
        print(f"error: no bigjump sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    info = machine()
    run_dir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    run = Run(args.workload, args.seed, run_dir)
    metrics = traced_metrics(run) if args.trace else timed_metrics(run, args.seconds)
    info["loadavg_after"] = list(os.getloadavg())

    correct = run.failed == 0 and run.result is not None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "inputs": run.inputs,
        "fingerprint": fingerprint(args.workload, run.result) if run.result else None,
        "absent": run.absent,
        "problems": run.problems,
        "samples": [{k: v for k, v in s.items() if k != "stdout"} for s in run.samples],
        "metrics": metrics,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"machine: {json.dumps(info)}")
    print(f"fingerprint: {json.dumps(record['fingerprint'])}")
    if args.trace:
        print(f"absent: {json.dumps(run.absent)}")
    for p in run.problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
