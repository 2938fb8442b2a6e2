"""Start-up stays lean: no run of `m1`, `ldp` or `simulate` loads scipy, and
no serial run loads the process pool.

Each case runs in a fresh interpreter, because the test session itself has
scipy and the pool loaded already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bigjump

from .test_cli import BASE, _write

SRC = str(Path(bigjump.__file__).resolve().parents[1])

SCRIPT = """
import json, sys
argv, roots = json.loads(sys.argv[1]), json.loads(sys.argv[2])
if argv:
    from bigjump.cli import main
    rc = main(argv)
else:
    import bigjump.cli
    rc = 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] in roots)]))
"""


POOL = ("concurrent", "multiprocessing")


def _modules(argv, roots=("scipy",)) -> set[str]:
    """Modules under the top-level packages ``roots`` loaded by running
    ``bigjump`` with ``argv``, or by importing the CLI when it is empty."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv), json.dumps(roots)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == 0, proc.stderr
    return set(modules)


def test_import_cli_loads_no_scipy():
    assert _modules([]) == set()


def _m1_argv(tmp_path) -> list[str]:
    files = []
    for name, right in (("a.csv", "1.0"), ("b.csv", "2.0")):
        p = tmp_path / name
        p.write_text(f"t,left,right\n0.0,0.0,0.0\n0.5,0.0,{right}\n1.0,{right},{right}\n")
        files.append(str(p))
    return ["m1", *files, "--tol", "1e-6"]


def test_m1_loads_no_scipy(tmp_path):
    assert _modules(_m1_argv(tmp_path)) == set()


HAWKES = BASE.replace("model = mb", "model = hawkes").replace(
    "k_param = 0.0", "k_param = 0.0\nphi_fertility = 0.16666666666666666"
)


def test_hawkes_crude_ldp_loads_no_scipy(tmp_path):
    cfg = _write(tmp_path, HAWKES.replace("n_reps = 2000", "n_reps = 200"))
    assert _modules(["ldp", "--config", cfg, "--out", str(tmp_path / "out")]) == set()


SPLITTING = {
    # nu = 2 also builds the superset sampler's Poisson count table
    "mb-nu0": BASE,
    "mb-nu2": BASE.replace("k_param = 0.0", "k_param = 2.0"),
    # the comonotone limit constant and centering take a Hurwitz zeta
    "comonotone": BASE.replace("independent_light_k\nk_param = 0.0", "comonotone\nk_param = 0.5"),
    # ceil(k_param u) = 23 counts below u = 11.4, and branching clusters:
    # P(D > u) by sums of lattice powers
    "comonotone-23": BASE.replace("independent_light_k\nk_param = 0.0", "comonotone\nk_param = 2.0"),
    "hawkes": HAWKES,
}


@pytest.mark.parametrize("case", sorted(SPLITTING))
def test_splitting_ldp_loads_no_scipy(tmp_path, case):
    cfg = _write(tmp_path, SPLITTING[case].replace("estimator = crude", "estimator = splitting"))
    assert _modules(["ldp", "--config", cfg, "--out", str(tmp_path / "out")]) == set()


def test_heavy_k_centering_loads_no_scipy(tmp_path):
    # ldp refuses heavy-count offspring (no closed-form limit constant), so
    # `simulate` reaches their mean count, a Hurwitz zeta, via the centering
    text = BASE.replace("independent_light_k\nk_param = 0.0", "heavy_k_light_x\nk_param = 1.0\nk_alpha = 2.5")
    assert _modules(["simulate", "--config", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == set()


def _crude_ldp_argv(tmp_path, workers: int) -> list[str]:
    cfg = _write(tmp_path, BASE)  # 2,000 replications: two tasks to fan out
    return ["ldp", "--config", cfg, "--out", str(tmp_path / "out"), "--workers", str(workers)]


def test_serial_runs_load_no_process_pool(tmp_path):
    # concurrent.futures and multiprocessing load only when a run fans out
    assert _modules([], POOL) == set()
    assert _modules(_m1_argv(tmp_path), POOL) == set()
    assert _modules(_crude_ldp_argv(tmp_path, 1), POOL) == set()


def test_fanned_out_ldp_loads_process_pool(tmp_path):
    # the probe sees the pool when a run does load it
    assert "concurrent.futures.process" in _modules(_crude_ldp_argv(tmp_path, 2), POOL)
