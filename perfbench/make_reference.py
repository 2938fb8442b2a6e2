"""Write ``reference.json``: ldp estimates of the current code over fixed seeds.

    python3 perfbench/make_reference.py

The benchmark accepts an ldp estimate when it lies within ``Z_BAND``
standard deviations of the mean recorded here, taking the larger of the
run's reported stderr and the seed-to-seed spread recorded here.  Regenerate only when a
change is meant to alter the estimator's law, and say so.
"""
from __future__ import annotations

import csv
import json
import statistics
import tempfile
from pathlib import Path

import run

# the branching estimate carries heavy-tailed Monte Carlo centering error,
# so its spread needs more seeds
SEEDS = {"mb": range(1000, 1016), "hawkes": range(1000, 1048)}


def main() -> None:
    scratch = run.ROOT / ".bench_runs"
    scratch.mkdir(exist_ok=True)
    reference = {}
    for key, template in run.LDP_CONFIGS.items():
        estimates, stderrs = [], []
        for seed in SEEDS[key]:
            d = Path(tempfile.mkdtemp(prefix=f"reference-{key}-{seed}-", dir=scratch))
            (d / "exp.cfg").write_text(template.format(seed=seed))
            args = ["-m", "bigjump", "ldp", "--config", str(d / "exp.cfg"), "--out", str(d / "out")]
            sample = run.spawn(args, d / "log", run.RUN_TIMEOUT_S)
            if sample["exit"] != 0:
                raise SystemExit(f"{key} seed {seed}: exit code {sample['exit']}")
            with open(d / "out" / "results.csv") as fh:
                row = next(csv.DictReader(fh))
            estimates.append(float(row["estimate"]))
            stderrs.append(float(row["stderr"]))
        spread = statistics.stdev(estimates)
        reference[key] = {
            "estimate": statistics.fmean(estimates),
            "stderr": spread / len(estimates) ** 0.5,
            "seed_spread": spread,
            "mean_reported_stderr": statistics.fmean(stderrs),
            "seeds": list(SEEDS[key]),
            "estimates": estimates,
        }
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
