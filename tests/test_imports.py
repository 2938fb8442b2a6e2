"""Start-up stays numpy-only: each command loads scipy only where it needs it.

Each case runs in a fresh interpreter, because the test session itself has
scipy loaded already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import bigjump

from .test_cli import BASE, _write

SRC = str(Path(bigjump.__file__).resolve().parents[1])

SCRIPT = """
import json, sys
argv = json.loads(sys.argv[1])
if argv:
    from bigjump.cli import main
    rc = main(argv)
else:
    import bigjump.cli
    rc = 0
print(json.dumps([rc, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _scipy_modules(argv) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("BIGJUMP_WORKERS", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    rc, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rc == 0, proc.stderr
    return set(modules)


def test_import_cli_loads_no_scipy():
    assert _scipy_modules([]) == set()


def test_m1_loads_no_scipy(tmp_path):
    files = []
    for name, right in (("a.csv", "1.0"), ("b.csv", "2.0")):
        p = tmp_path / name
        p.write_text(f"t,left,right\n0.0,0.0,0.0\n0.5,0.0,{right}\n1.0,{right},{right}\n")
        files.append(str(p))
    assert _scipy_modules(["m1", *files, "--tol", "1e-6"]) == set()


def test_hawkes_crude_ldp_loads_no_scipy(tmp_path):
    text = BASE.replace("model = mb", "model = hawkes").replace(
        "k_param = 0.0", "k_param = 0.0\nphi_fertility = 0.16666666666666666"
    )
    cfg = _write(tmp_path, text.replace("n_reps = 2000", "n_reps = 200"))
    assert _scipy_modules(["ldp", "--config", cfg, "--out", str(tmp_path / "out")]) == set()


def test_mb_splitting_ldp_loads_only_scipy_special(tmp_path):
    cfg = _write(tmp_path, BASE.replace("estimator = crude", "estimator = splitting"))
    modules = _scipy_modules(["ldp", "--config", cfg, "--out", str(tmp_path / "out")])
    assert "scipy.special" in modules
    assert not {"scipy.stats", "scipy.signal"} & modules

