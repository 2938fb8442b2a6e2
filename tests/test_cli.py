import csv
import ctypes
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

import bigjump
from bigjump.cli import (
    _spearman,
    config_hash,
    emit_config,
    main,
    parse_config,
    parse_extras,
)
from bigjump.errors import ConfigurationError
from bigjump.events import TerminalExceed
from bigjump.paths import read_path_csv

from .test_acceptance import CFG_TEXT

BASE = """
model = mb
lambda_rate = 1.0
T_horizon = 50.0
eta_exponent = 0.8
mark_family = pareto
mark_alpha = 1.5
mark_scale = 1.0
dependence = independent_light_k
k_param = 0.0
event = terminal_exceed:1.0
n_reps = 2000
seed_root = 4242
n_strata = 800
n_pbig = 60000
grid_n = 256
estimator = crude
"""


def test_parse_round_trip():
    cfg = parse_config(BASE)
    assert cfg.T == 50.0 and cfg.seed == 4242
    assert cfg.event == TerminalExceed(1.0)
    again = parse_config(emit_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_parse_round_trip_fuzzed():
    rng = np.random.default_rng(0)
    for _ in range(100):
        alpha = float(rng.uniform(1.1, 3.0))
        eta = float(rng.uniform(max(1.0 / alpha, 0.5) + 0.02, 0.99))
        nu = float(rng.uniform(0.0, 3.0))
        lines = BASE.replace("mark_alpha = 1.5", f"mark_alpha = {alpha!r}")
        lines = lines.replace("eta_exponent = 0.8", f"eta_exponent = {eta!r}")
        lines = lines.replace("k_param = 0.0", f"k_param = {nu!r}")
        cfg = parse_config(lines)
        assert parse_config(emit_config(cfg)) == cfg


def test_parse_rejects_eta_below_bound():
    with pytest.raises(ConfigurationError, match="eta"):
        parse_config(BASE.replace("eta_exponent = 0.8", "eta_exponent = 0.6"))


def test_parse_rejects_supercritical():
    # phi*E[X] = 0.4 * 3 = 1.2 >= 1
    bad = BASE.replace("k_param = 0.0", "k_param = 0.0\nphi_fertility = 0.4")
    with pytest.raises(ConfigurationError, match="supercritical"):
        parse_config(bad)


def test_parse_names_offending_key():
    with pytest.raises(ConfigurationError, match="mystery_key"):
        parse_config(BASE + "\nmystery_key = 3")
    with pytest.raises(ConfigurationError, match="seed_root"):
        parse_config(BASE.replace("seed_root = 4242", ""))
    with pytest.raises(ConfigurationError, match="lambda_rate"):
        parse_config(BASE.replace("lambda_rate = 1.0", "lambda_rate = abc"))
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config(BASE + "\nmodel = mb")


def test_extras_defaults():
    extras = parse_extras(BASE)
    assert extras["check_T_grid"] == "25,50,100,200"
    extras = parse_extras(BASE + "\ncheck_T_grid = 10,20")
    assert extras["check_T_grid"] == "10,20"


def _write(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cli_simulate_zero_rate(tmp_path):
    cfg = _write(tmp_path, BASE.replace("lambda_rate = 1.0", "lambda_rate = 0.0"))
    out = str(tmp_path / "out")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "path.csv")) as fh:
        path = read_path_csv(fh)
    assert path.n_nodes == 2
    assert np.all(path.right == 0.0) and np.all(path.left == 0.0)
    assert os.path.exists(os.path.join(out, "clusters.csv"))


def test_cli_measure_closed_form(tmp_path, capsys):
    text = BASE.replace("event = terminal_exceed:1.0", "event = terminal_exceed:4.0")
    cfg = _write(tmp_path, text)
    assert main(["measure", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "mu_bar_tail = 0.125" in out


def test_cli_measure_out_holds_printed_values(tmp_path, capsys):
    cfg = _write(tmp_path, BASE.replace("event = terminal_exceed:1.0", "event = value_at:0.5,2.0\nk_order = 1"))
    out = tmp_path / "m"
    assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
    printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.strip().splitlines())
    stored = json.loads((out / "measure.json").read_text())
    assert {key: str(value) for key, value in stored.items()} == printed


def test_cli_measure_rejects_zero_level(tmp_path, capsys):
    # sup_exceed:0.0 was read as "no level" and fell back to mu_y; its limit
    # mass then failed with a bare "c must be positive"
    cfg = _write(tmp_path, BASE.replace("event = terminal_exceed:1.0", "event = sup_exceed:0.0"))
    assert main(["measure", "--config", cfg]) == 2
    line = _single_error_line(capsys)
    assert "sup_exceed:0.0" in line and "k=0" in line


def test_cli_measure_names_mu_y_when_it_is_refused(tmp_path, capsys):
    # jump_count has no level of its own, so mu_bar_tail runs at mu_y; a bad
    # mu_y is reported as such, not as a fault of the event
    for y in ("0.0", "nan", "abc", "1_0"):
        text = BASE.replace("event = terminal_exceed:1.0", "event = jump_count:2,0.5") + f"mu_y = {y}\n"
        assert main(["measure", "--config", _write(tmp_path, text)]) == 2
        line = _single_error_line(capsys)
        assert "mu_y" in line and "jump_count" not in line


def _m1_argv(tmp_path) -> list[str]:
    from bigjump.paths import build_jump_path, write_path_csv

    p1 = build_jump_path(np.array([0.5]), np.array([1.0]))
    p2 = build_jump_path(np.array([0.5]), np.array([2.0]))
    f1, f2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    for f, p in ((f1, p1), (f2, p2)):
        with open(f, "w") as fh:
            write_path_csv(p, fh)
    return ["m1", f1, f2, "--tol", "1e-9"]


def test_cli_m1_subcommand(tmp_path, capsys):
    assert main(_m1_argv(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "m1_distance = 1.0" in out
    assert "bracket" in out


def test_cli_keeps_freed_heap(tmp_path, monkeypatch, capsys):
    # main sets glibc's mmap threshold (-3) to 32 MiB and trim threshold (-1)
    # to 256 MiB; importing the module opens no library
    calls = []
    libc = SimpleNamespace(mallopt=lambda *args: calls.append(args))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: calls.append(name) or libc)
    monkeypatch.delitem(sys.modules, "bigjump.cli")
    monkeypatch.setattr(bigjump, "cli", bigjump.cli)
    fresh = importlib.import_module("bigjump.cli")
    assert calls == []
    assert fresh.main(_m1_argv(tmp_path)) == 0
    assert calls == [None, (-3, 32 << 20), (-1, 256 << 20)]
    assert "m1_distance = 1.0" in capsys.readouterr().out


@pytest.mark.parametrize("libc", ["raises", "no_mallopt"])
def test_cli_runs_without_mallopt(tmp_path, monkeypatch, capsys, libc):
    argv = _m1_argv(tmp_path)
    assert main(argv) == 0
    expected = capsys.readouterr().out

    def cdll(name):
        if libc == "raises":
            raise OSError("no libc")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_cli_ldp_rows_identical_across_workers(tmp_path):
    cfg = _write(tmp_path, BASE)
    rows = []
    for i, workers in enumerate((1, 2)):
        out = str(tmp_path / f"out{i}")
        assert main(["ldp", "--config", cfg, "--out", out, "--workers", str(workers)]) == 0
        with open(os.path.join(out, "results.csv")) as fh:
            header, row = fh.read().strip().split("\n")
        cols = dict(zip(header.split(","), row.split(",")))
        cols.pop("wall_seconds")  # timing is the one nondeterministic column
        rows.append(cols)
    assert rows[0] == rows[1]


def test_cli_ldp_row_quotes_multi_parameter_event(tmp_path):
    # the comma inside value_at:0.5,0.5 used to split the row into 13 fields
    cfg = _write(tmp_path, BASE.replace("event = terminal_exceed:1.0", "event = value_at:0.5,0.5"))
    out = str(tmp_path / "out")
    assert main(["ldp", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "results.csv"), newline="") as fh:
        header, row = list(csv.reader(fh))
    assert len(header) == len(row) == 12
    cols = dict(zip(header, row))
    assert cols["event"] == "value_at:0.5,0.5" and cols["seed"] == "4242"


def test_cli_ldp_json_reports_pools(tmp_path):
    text = BASE.replace("estimator = crude", "estimator = splitting")
    cfg = _write(tmp_path, text)
    out = str(tmp_path / "out")
    assert main(["ldp", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, f"ldp_{config_hash(parse_config(text))}.json")) as fh:
        summary = json.load(fh)
    pools = summary["detail"]["pools"]
    assert pools["big"]["accepted"] == summary["detail"]["m_max"] * 800
    assert pools["small"]["drawn"] >= pools["small"]["accepted"] > 0
    assert 0.0 <= summary["ratio_ci95"][0] < summary["ratio"] < summary["ratio_ci95"][1]
    cv = summary["detail"]["control_variates"]
    assert cv["applied"] and len(cv["means"]) == len(cv["beta"][0]) == 7
    assert cv["variance_ratio"] > 1.0


def test_cli_check_assumption6(tmp_path):
    cfg = _write(tmp_path, BASE)
    out = str(tmp_path / "chk")
    assert main(["check", "assumption6", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "check_assumption6.json")) as fh:
        verdict = json.load(fh)
    assert verdict["verdict"] == "holds" and verdict["pass"]


def test_cli_check_violated_exit_code(tmp_path):
    text = BASE + "wait_family = pareto\nwait_alpha = 0.5\nwait_scale = 1.0\n"
    cfg = _write(tmp_path, text, name="heavy_wait.cfg")
    out = str(tmp_path / "chk2")
    assert main(["check", "assumption6", "--config", cfg, "--out", out]) == 1
    with open(os.path.join(out, "check_assumption6.json")) as fh:
        verdict = json.load(fh)
    assert verdict["verdict"] == "violated" and not verdict["pass"]


@pytest.mark.parametrize("band, code", [("100", 0), ("1e-12", 1)])
def test_cli_check_tails_exit_code_matches_verdict(tmp_path, capsys, band, code):
    # nu = 2: the sampled mark-over-mass ratio misses its limit by more than
    # 1e-12 of it, and by less than 100 times it
    cfg = _write(tmp_path, BASE.replace("k_param = 0.0", "k_param = 2.0") + "check_quantiles = 0.99\n")
    out = tmp_path / "chk"
    assert main(["check", "tails", "--config", cfg, "--out", str(out), "--band", band]) == code
    verdict = json.loads((out / "check_tails.json").read_text())
    assert set(verdict) == {"check", "mark_over_d", "mark_over_d_limit", "band", "pass"}
    assert verdict["check"] == "tails" and verdict["pass"] == (code == 0) and verdict["band"] == float(band)
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1]) == verdict
    header = (out / "tails.csv").read_text().splitlines()[0]
    assert header == "level,x,p_d,k_over_d,k_over_d_limit,mark_over_d,mark_over_d_limit,truncated_clusters"


def test_cli_error_exit_code(tmp_path):
    cfg = _write(tmp_path, BASE.replace("eta_exponent = 0.8", "eta_exponent = 0.2"))
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", cfg, "--out", out]) == 2
    assert not os.path.exists(out)


def test_cli_simulate_branching_model(tmp_path):
    text = BASE.replace("model = mb", "model = hawkes").replace(
        "k_param = 0.0", "k_param = 0.0\nphi_fertility = 0.16666666666666666"
    ).replace("n_centering = 200000", "")
    text += "n_centering = 20000\n"
    cfg = _write(tmp_path, text, name="hawkes.cfg")
    out = str(tmp_path / "hout")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "clusters.csv")) as fh:
        header = fh.readline().strip()
    assert header == "cluster_id,event_id,parent_id,generation,offset,mark"


def test_cli_simulate_clusters_csv_structure(tmp_path):
    text = BASE.replace("k_param = 0.0", "k_param = 0.0\nphi_fertility = 0.16666666666666666")
    cfg = _write(tmp_path, text.replace("model = mb", "model = hawkes") + "n_centering = 20000\n")
    out = str(tmp_path / "sout")
    assert main(["simulate", "--config", cfg, "--out", out]) == 0
    rows = np.loadtxt(os.path.join(out, "clusters.csv"), delimiter=",", skiprows=1, ndmin=2)
    cid, eid, pid, gen = rows[:, :4].astype(int).T
    assert gen.max() >= 2
    first = eid == 0
    assert np.array_equal(np.flatnonzero(first), np.searchsorted(cid, np.unique(cid)))
    assert np.all(pid[first] == 0) and np.all(gen[first] == 0)
    assert np.all(np.diff(cid) >= 0) and np.all(eid[~first] == eid[np.flatnonzero(~first) - 1] + 1)
    parent_row = np.flatnonzero(~first) - eid[~first] + pid[~first]
    assert np.all(pid[~first] < eid[~first])
    assert np.array_equal(gen[parent_row] + 1, gen[~first])
    assert np.all(rows[parent_row, 4] < rows[~first, 4])


def test_cli_simulate_failed_clusters_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    # the rows reach the writer, then the write fails: clusters.csv appears
    # only by a rename of a finished temporary file, so there is none
    import bigjump.cli

    real = bigjump.cli.write_clusters_csv

    def fail_after_rows(batch, file):
        real(batch, file)
        raise OSError("No space left on device")

    monkeypatch.setattr(bigjump.cli, "write_clusters_csv", fail_after_rows)
    out = tmp_path / "out"
    assert main(["simulate", "--config", _write(tmp_path, BASE), "--out", str(out)]) == 2
    assert "No space left on device" in _single_error_line(capsys)
    assert sorted(os.listdir(out)) == ["path.csv"]


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_cli_m1_rejects_nonfinite_csv(tmp_path, capsys):
    # a nan left value made the bracket loop run forever; a nan right value
    # gave a silent distance of 0
    good = str(tmp_path / "good.csv")
    with open(good, "w") as fh:
        fh.write("t,left,right\n0.0,0.0,0.0\n0.5,0.0,1.0\n1.0,1.0,1.0\n")
    for node in ("0.5,nan,1.0", "0.5,0.0,nan"):
        bad = str(tmp_path / "bad.csv")
        with open(bad, "w") as fh:
            fh.write(f"t,left,right\n0.0,0.0,0.0\n{node}\n1.0,1.0,1.0\n")
        assert main(["m1", good, bad]) == 2
        assert "finite" in _single_error_line(capsys)


def test_cli_m1_refuses_values_near_float_max(tmp_path):
    # two finite paths at +/-1e308 overflowed to three RuntimeWarnings and a
    # bracket of [inf, inf] with exit 0; a fresh interpreter shows the whole stderr
    files = []
    for name, value in (("up.csv", "1e308"), ("down.csv", "-1e308")):
        p = tmp_path / name
        p.write_text(f"t,left,right\n0.0,0.0,0.0\n0.5,0.0,{value}\n1.0,{value},{value}\n")
        files.append(str(p))
    env = dict(os.environ, PYTHONPATH=str(Path(bigjump.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "bigjump", "m1", *files], capture_output=True, text=True, env=env, timeout=120
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: path values must lie within +/-4.4942e+307, a quarter of the largest float\n"
    )


def test_cli_m1_rejects_header_only_csv(tmp_path, capsys):
    good, empty = str(tmp_path / "good.csv"), str(tmp_path / "empty.csv")
    with open(good, "w") as fh:
        fh.write("t,left,right\n0.0,0.0,0.0\n1.0,0.0,0.0\n")
    with open(empty, "w") as fh:
        fh.write("t,left,right\n")
    assert main(["m1", empty, good]) == 2
    assert "no nodes" in _single_error_line(capsys)


@pytest.mark.parametrize(
    "node, message",
    [("0.5,1.0", "expected 3 fields, got 2"), ("abc,0.0,1.0", "could not convert string to float: 'abc'")],
)
def test_cli_m1_names_file_and_row_of_a_bad_node(tmp_path, capsys, node, message):
    good, bad = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    with open(good, "w") as fh:
        fh.write("t,left,right\n0.0,0.0,0.0\n1.0,0.0,0.0\n")
    with open(bad, "w") as fh:
        fh.write(f"t,left,right\n0.0,0.0,0.0\n{node}\n1.0,1.0,1.0\n")
    assert main(["m1", good, bad]) == 2
    assert _single_error_line(capsys) == f"error: {bad} row 3: {message}"


def test_cli_ldp_rejects_workers_below_one(tmp_path, capsys):
    # 0 and -3 ran silently with one worker
    cfg = _write(tmp_path, BASE)
    for workers in ("0", "-3"):
        out = str(tmp_path / f"never{workers}")
        assert main(["ldp", "--config", cfg, "--out", out, "--workers", workers]) == 2
        line = _single_error_line(capsys)
        assert "--workers" in line and workers in line
        assert not os.path.exists(out)


def test_cli_m1_rejects_nonfinite_tol(tmp_path, capsys):
    # a nan or inf tol skipped the bisection: distance 0.5, bracket [0, 1]
    good = str(tmp_path / "good.csv")
    with open(good, "w") as fh:
        fh.write("t,left,right\n0.0,0.0,0.0\n0.5,0.0,1.0\n1.0,1.0,1.0\n")
    for tol in ("nan", "inf"):
        assert main(["m1", good, good, "--tol", tol]) == 2
        assert "tol" in _single_error_line(capsys)


def test_cli_simulate_rejects_cluster_cap_below_one(tmp_path, capsys):
    # a cap of 0 cut every branching cluster to its immigrant and exited 0
    text = BASE.replace("model = mb", "model = hawkes").replace(
        "k_param = 0.0", "k_param = 0.0\nphi_fertility = 0.16666666666666666"
    )
    for cap in ("0", "-5"):
        cfg = _write(tmp_path, text + f"n_centering = 20000\ncluster_cap = {cap}\n")
        out = str(tmp_path / f"never{cap}")
        assert main(["simulate", "--config", cfg, "--out", out]) == 2
        assert "cluster_cap" in _single_error_line(capsys)
        assert not os.path.exists(out)


def test_cli_simulate_rejects_grid_n_below_two(tmp_path, capsys):
    # refused by the centering only after --out was made, which stayed empty
    cfg = _write(tmp_path, BASE.replace("grid_n = 256", "grid_n = 1"))
    out = str(tmp_path / "never")
    assert main(["simulate", "--config", cfg, "--out", out]) == 2
    assert "grid_n" in _single_error_line(capsys)
    assert not os.path.exists(out)


def test_cli_rejects_nonfinite_event(tmp_path, capsys):
    # a nan threshold ran to exit 0 with estimate 0.0 and ratio nan
    cfg = _write(tmp_path, BASE.replace("event = terminal_exceed:1.0", "event = terminal_exceed:nan"))
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", cfg, "--out", out]) == 2
    assert "finite" in _single_error_line(capsys)
    assert not os.path.exists(out)
    assert main(["measure", "--config", cfg]) == 2
    assert "finite" in _single_error_line(capsys)


def _with_key(text, key, value):
    kept = [ln for ln in text.splitlines() if ln.partition("=")[0].strip() != key]
    return "\n".join(kept + [f"{key} = {value}", ""])


@pytest.mark.parametrize(
    "key, value",
    [
        ("lambda_rate", "nan"),
        ("lambda_rate", "inf"),
        ("T_horizon", "nan"),
        ("T_horizon", "inf"),
        ("wait_scale", "nan"),
        ("wait_scale", "inf"),
        ("mark_scale", "nan"),
    ],
)
def test_cli_rejects_nonfinite_float_key(tmp_path, capsys, key, value):
    # these were read as floats and failed later, with "path values must be
    # finite" or, for mark_scale, "supercritical fertility: phi*E[X] = nan"
    cfg = _write(tmp_path, _with_key(BASE, key, value))
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", cfg, "--out", out]) == 2
    line = _single_error_line(capsys)
    assert key in line and "finite" in line
    assert not os.path.exists(out)


def test_cli_splitting_rejects_n_pbig_below_one(tmp_path, capsys):
    # n_pbig = 0 drew no p_big sample and was reported as "no cluster reached
    # the splitting threshold"
    for n_pbig in ("0", "-3"):
        text = _with_key(BASE.replace("estimator = crude", "estimator = splitting"), "n_pbig", n_pbig)
        out = str(tmp_path / f"never{n_pbig}")
        assert main(["ldp", "--config", _write(tmp_path, text), "--out", out]) == 2
        assert "n_pbig" in _single_error_line(capsys)
        assert not os.path.exists(out)


@pytest.mark.parametrize("counts", ["independent_light_k", "comonotone"])
def test_cli_splitting_refuses_threshold_beyond_reach(tmp_path, capsys, counts):
    # at T = 1e300 the threshold is about 1e239 and no mass shows above it
    text = BASE.replace("estimator = crude", "estimator = splitting").replace("T_horizon = 50.0", "T_horizon = 1e300")
    text = _with_key(_with_key(text, "dependence", counts), "k_param", "2.0")
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", _write(tmp_path, text), "--out", out]) == 2
    assert "refusing" in _single_error_line(capsys)


HAWKES_SUP = _with_key(
    _with_key(BASE.replace("model = mb", "model = hawkes"), "phi_fertility", "0.16666666666666666"),
    "event",
    "sup_exceed:1.0",
)


@pytest.mark.parametrize(
    "text, key, value, message",
    [
        (HAWKES_SUP, "grid_n", "1", "grid_n"),
        (HAWKES_SUP, "lambda_rate", "0", "zero limit mass"),
        (HAWKES_SUP, "n_reps", "0", "n_reps"),
        (BASE.replace("estimator = crude", "estimator = splitting"), "T_horizon", "1e300", "refusing"),
    ],
    ids=["grid-one", "zero-rate", "no-replications", "splitting-beyond-reach"],
)
def test_cli_ldp_refused_during_estimation_leaves_no_out_dir(tmp_path, capsys, text, key, value, message):
    # the output directory was created before estimation and left empty
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", _write(tmp_path, _with_key(text, key, value)), "--out", out]) == 2
    assert message in _single_error_line(capsys)
    assert not os.path.exists(out)


@pytest.mark.parametrize("estimator", ["crude", "splitting"])
def test_cli_refuses_mark_tail_underflow(tmp_path, capsys, estimator):
    # at mark_alpha = 300, P(X > x_T) = 22.9^-300 underflows to 0: the run
    # went through the whole estimate and died in ScalingRule.speed with a
    # ZeroDivisionError traceback; 22.9^-200 is still a double
    text = BASE.replace("estimator = crude", f"estimator = {estimator}")
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", _write(tmp_path, _with_key(text, "mark_alpha", "300")), "--out", out]) == 2
    assert "mark_alpha" in _single_error_line(capsys)
    assert not os.path.exists(out)
    ok = str(tmp_path / "ok")
    assert main(["ldp", "--config", _write(tmp_path, _with_key(text, "mark_alpha", "200")), "--out", ok]) == 0


@pytest.mark.parametrize("estimator", ["crude", "splitting"])
@pytest.mark.parametrize("rate", ["1e308", "1e20"])
def test_cli_refuses_cluster_count_mean_beyond_poisson_range(tmp_path, capsys, estimator, rate):
    # lambda T = inf ended in "cannot convert float NaN to integer" or "path
    # values must be finite", and 5e21 in numpy's "lam value too large"
    text = _with_key(BASE.replace("estimator = crude", f"estimator = {estimator}"), "lambda_rate", rate)
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", _write(tmp_path, text), "--out", out]) == 2
    line = _single_error_line(capsys)
    assert "lambda_rate" in line and "T_horizon" in line
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "command, text, key, value, size_key",
    [
        ("ldp", BASE, "lambda_rate", "1e7", "k_param"),
        ("ldp", BASE, "k_param", "1e9", "k_param"),
        ("ldp", BASE.replace("estimator = crude", "estimator = splitting"), "lambda_rate", "1e7", "k_param"),
        ("ldp", HAWKES_SUP, "lambda_rate", "1e7", "phi_fertility"),
        ("simulate", BASE, "lambda_rate", "1e7", "k_param"),
    ],
    ids=["crude-rate", "crude-counts", "splitting-rate", "branching-rate", "simulate-rate"],
)
def test_cli_refuses_oversized_runs_before_sampling(tmp_path, capsys, monkeypatch, command, text, key, value, size_key):
    # a crude run tried to allocate 3.7 TiB (lambda_rate = 1e7) or 371 TiB
    # (k_param = 1e9) and ended in a numpy _ArrayMemoryError traceback; the
    # splitting run grew until the kernel killed it.  Every sampler fails
    # the test here, so a refusal that came late would allocate nothing
    from bigjump import harness

    def never(*args, **kwargs):
        raise AssertionError("sampled before the refusal")

    for name in ("substream", "simulate_batch", "superset_batch"):
        monkeypatch.setattr(harness, name, never)
    out = str(tmp_path / "never")
    assert main([command, "--config", _write(tmp_path, _with_key(text, key, value)), "--out", out]) == 2
    line = _single_error_line(capsys)
    assert "expecting" in line and "lambda_rate * T_horizon" in line and size_key in line
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["measure", "ldp"])
@pytest.mark.parametrize("rate, k", [("1.0", 171), ("1e10", 39)])
def test_cli_refuses_overflowing_order_prefactor(tmp_path, capsys, command, rate, k):
    # lambda^(k+1)/(k+1)! left a float (172! or 1e10^40) and the run died
    # with an OverflowError traceback
    text = _with_key(_with_key(BASE, "k_order", k), "event", f"jump_count:{k + 1},0.5")
    text = _with_key(text, "lambda_rate", rate)
    out = str(tmp_path / "never")
    argv = [command, "--config", _write(tmp_path, text)] + (["--out", out] if command == "ldp" else [])
    assert main(argv) == 2
    assert _single_error_line(capsys).endswith(f"overflows a float at k={k}")
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["measure", "ldp"])
def test_cli_refuses_overflowing_pinned_jump_count(tmp_path, capsys, command):
    # (C r^-alpha)^(k+1) left a float (1e330) and the run died with an
    # OverflowError traceback
    text = _with_key(_with_key(BASE, "k_order", 1), "event", "jump_count:2,1e-110")
    out = str(tmp_path / "never")
    argv = [command, "--config", _write(tmp_path, text)] + (["--out", out] if command == "ldp" else [])
    assert main(argv) == 2
    assert _single_error_line(capsys).endswith("overflows a float at y=1e-110")
    assert not os.path.exists(out)


def test_cli_measure_value_at_builds_one_transform(tmp_path, capsys, monkeypatch):
    # mu_bar_tail at the event's own level is mu_sharp's mass of k+1 jumps,
    # which measure built a second transform for; the printed values stay
    from bigjump import laws

    calls = []
    real = laws._tilted_transforms
    monkeypatch.setattr(laws, "_tilted_transforms", lambda *a: calls.append(a) or real(*a))
    text = _with_key(_with_key(BASE, "k_order", 3), "event", "value_at:0.5,6.0")
    assert main(["measure", "--config", _write(tmp_path, text)]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert len(calls) == 1
    assert (out["mu_sharp"], out["mu_bar_tail"]) == ("0.011260159720061048", "0.03411832482912322")


@pytest.mark.parametrize(
    "command, edits, key",
    [
        # x_T = T^eta
        *[(c, {"eta_exponent": "1e308"}, "eta_exponent") for c in ("measure", "ldp", "simulate")],
        *[
            (c, {"eta_exponent": "2.0", "check_T_grid": "25,1e300"}, "check_T_grid")
            for c in ("check assumption6", "check remainder")
        ],
        # C * c^-alpha
        *[
            (c, {"event": e}, e)
            for c in ("measure", "ldp")
            for e in ("terminal_exceed:1e-300", "jump_count:1,1e-300", "value_at:0.5,1e-300")
        ],
        ("measure", {"event": "jump_count:2,0.5", "mu_y": "1e-300"}, "mu_y"),
    ],
    ids=lambda v: v.replace(" ", "-") if isinstance(v, str) else "-".join(v.values()),
)
def test_cli_refuses_overflowing_floats(tmp_path, capsys, command, edits, key):
    # each left a float and ended in an OverflowError traceback with exit 1;
    # value_at:0.5,1e-300 ran against the y0-truncated limit 1.5
    text = BASE
    for name, value in edits.items():
        text = _with_key(text, name, value)
    out = str(tmp_path / "never")
    argv = [*command.split(), "--config", _write(tmp_path, text)] + ([] if command == "measure" else ["--out", out])
    assert main(argv) == 2
    assert key in _single_error_line(capsys)
    assert not os.path.exists(out)


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=refuse)


def test_cli_writes_strict_json(tmp_path, capsys):
    # check remainder on two horizons wrote "spearman": NaN, which strict
    # parsers refuse
    cfg = _write(tmp_path, BASE + "check_T_grid = 25,50\ncheck_n_accept = 200\n")
    out = tmp_path / "out"
    assert main(["measure", "--config", cfg, "--out", str(out)]) == 0
    assert main(["ldp", "--config", cfg, "--out", str(out)]) == 0
    for which in ("remainder", "assumption6", "tails"):
        assert main(["check", which, "--config", cfg, "--out", str(out)]) in (0, 1)
    printed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert len(printed) == 3
    verdict = [_strict_json(ln) for ln in printed][0]
    assert verdict["check"] == "remainder" and verdict["spearman"] is None
    written = sorted(out.glob("*.json"))
    assert len(written) == 9  # measure, and ldp and the three checks each with its record
    for path in written:
        _strict_json(path.read_text())


@pytest.mark.parametrize("k", [4, 6])
def test_cli_measure_value_at_beyond_k3(tmp_path, capsys, k):
    # the nested quadrature asked for 256^k points (about 34 GB at k = 4)
    text = _with_key(_with_key(BASE, "k_order", k), "event", "value_at:0.5,8.0")
    assert main(["measure", "--config", _write(tmp_path, text)]) == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert 0.0 < float(out["mu_sharp"]) < float(out["mu_bar_tail"]) and out["k"] == str(k)


def test_spearman_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(26)
    cases = [(np.arange(5.0), np.arange(5.0)[::-1]), (np.ones(4), np.arange(4.0)), (np.arange(4.0), np.full(4, 2.5))]
    for n in rng.integers(3, 40, 400).tolist():
        x = rng.integers(0, 4, n).astype(float) if n % 2 else rng.normal(size=n)  # ties, or none
        cases.append((x, rng.integers(0, 6, n).astype(float)))
        cases.append((rng.normal(size=n), rng.exponential(size=n)))
    y = rng.normal(size=6)
    cases += [(np.r_[1.0, np.nan, 3.0, 4.0, 0.5, 2.0], y), (y, np.full(6, np.nan)), (y, np.r_[y[:5], np.inf])]
    for x, y in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", stats.ConstantInputWarning)
            want = stats.spearmanr(x, y).statistic
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _spearman(x, y)
        assert got == want or (np.isnan(got) and np.isnan(want)), (x, y, got, want)
    assert np.isnan(_spearman(np.ones(5), np.arange(5.0))) and np.isnan(_spearman(y, np.full(6, np.nan)))


def test_cli_rejects_negative_seed(tmp_path, capsys):
    # numpy refused it later with "expected non-negative integer", naming no key
    cfg = _write(tmp_path, BASE.replace("seed_root = 4242", "seed_root = -1"))
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", cfg, "--out", out]) == 2
    line = _single_error_line(capsys)
    assert "seed_root" in line and "-1" in line
    assert not os.path.exists(out)


def test_cli_check_has_no_workers_flag(tmp_path):
    # no check fans out, so the flag was accepted and did nothing
    cfg = _write(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["check", "assumption6", "--config", cfg, "--out", str(tmp_path / "chk"), "--workers", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "which, extra, argv, key",
    [
        # (-5) ** eta is complex: a TypeError traceback
        ("assumption6", "check_T_grid = 25,-5", [], "check_T_grid"),
        # a Spearman correlation of NaN
        ("remainder", "check_T_grid = 25,-5\ncheck_n_accept = 200", [], "check_T_grid"),
        # "holds", exit 0
        ("assumption6", "check_T_grid = 0", [], "check_T_grid"),
        # "violated" on a grid or an epsilon that means nothing
        ("assumption6", "check_T_grid = inf", [], "check_T_grid"),
        ("assumption6", "check_epsilon = nan", [], "check_epsilon"),
        # final: NaN
        ("remainder", "check_n_accept = 0", [], "check_n_accept"),
        # the whole check ran, then failed against the band
        ("tails", "", ["--band", "-1"], "--band"),
        ("tails", "", ["--band", "nan"], "--band"),
        # "could not convert string to float", naming no key; an empty --out left behind
        ("tails", "check_quantiles = 0.999,x", [], "check_quantiles"),
        # refused by the check itself, after --out was made
        ("tails", "check_quantiles = 0.5", [], "check_quantiles"),
        # Python's digit separators, which float() and int() take
        ("tails", "check_quantiles = 0.99_9", [], "check_quantiles"),
        ("assumption6", "check_T_grid = 2_5,50", [], "check_T_grid"),
        ("remainder", "check_n_accept = 2_00", [], "check_n_accept"),
    ],
    ids=["grid-negative", "grid-negative-remainder", "grid-zero", "grid-inf", "epsilon-nan",
         "n-accept-zero", "band-negative", "band-nan", "quantile-not-a-number", "quantile-below-range",
         "quantile-separator", "grid-separator", "n-accept-separator"],
)
def test_cli_check_rejects_bad_inputs(tmp_path, capsys, which, extra, argv, key):
    cfg = _write(tmp_path, BASE + extra + "\n")
    out = str(tmp_path / "never")
    assert main(["check", which, "--config", cfg, "--out", out, *argv]) == 2
    assert key in _single_error_line(capsys)
    assert not os.path.exists(out)


def test_cli_check_remainder_comonotone_light_marks(tmp_path, capsys):
    # the comonotone tilt divided by the exponential law's alpha = None
    text = BASE.replace("mark_family = pareto", "mark_family = exponential").replace(
        "dependence = independent_light_k\nk_param = 0.0", "dependence = comonotone\nk_param = 1.0"
    )
    cfg = _write(tmp_path, text + "check_T_grid = 2,4,8\ncheck_n_accept = 200\n")
    code = main(["check", "remainder", "--config", cfg, "--out", str(tmp_path / "chk")])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "Traceback" not in captured.err
    verdict = json.loads(captured.out.strip().splitlines()[-1])
    assert verdict["check"] == "remainder" and verdict["pass"] == (code == 0)


# A config that names every experiment key, so that removing any one of them
# either falls back to a default or is a fault of its own.
FULL = """
model = mb
lambda_rate = 1.0
T_horizon = 50.0
eta_exponent = 0.8
mark_family = pareto
mark_scale = 1.0
mark_alpha = 1.5
dependence = independent_light_k
k_param = 2.0
phi_fertility = 0.1
k_alpha = 1.5
wait_family = pareto
wait_scale = 1.0
wait_alpha = 2.5
wait_conditional = 0
k_order = 0
event = terminal_exceed:1.0
n_reps = 2000
seed_root = 4242
delta_split = 0.5
grid_n = 256
cluster_cap = 1000
n_centering = 20000
n_pbig = 60000
n_strata = 800
estimator = crude
"""

# perfbench's two ldp configs at seed 7
PERFBENCH_MB = """model = mb
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
seed_root = 7
delta_split = 0.5
grid_n = 8192
n_pbig = 400000
n_strata = 4000
estimator = splitting
"""

PERFBENCH_HAWKES = """model = hawkes
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
seed_root = 7
grid_n = 1024
n_centering = 200000
estimator = crude
"""


def _format_cases() -> dict[str, str]:
    cases = {
        "base": BASE,
        "hawkes-sup": HAWKES_SUP,
        "c8": CFG_TEXT,
        "full": FULL,
        "perfbench-mb": PERFBENCH_MB,
        "perfbench-hawkes": PERFBENCH_HAWKES,
        "heavy-wait": BASE + "wait_family = pareto\nwait_alpha = 0.5\nwait_scale = 1.0\n",
        "comonotone-light": BASE.replace("mark_family = pareto", "mark_family = exponential").replace(
            "dependence = independent_light_k\nk_param = 0.0", "dependence = comonotone\nk_param = 1.0"
        ),
        "conditional-wait": _with_key(_with_key(FULL, "wait_family", "exponential"), "wait_conditional", "1"),
        # a bool is 0 or 1, and no number takes Python's digit separator _
        "wait_conditional-2": _with_key(FULL, "wait_conditional", "2"),
        "wait_conditional-minus-3": _with_key(FULL, "wait_conditional", "-3"),
        "wait_conditional-01": _with_key(FULL, "wait_conditional", "01"),
        "T_horizon-separator": _with_key(FULL, "T_horizon", "1_50.0"),
        "n_reps-separator": _with_key(FULL, "n_reps", "2_000"),
        "event-separator": _with_key(FULL, "event", "terminal_exceed:1_0"),
        # nor the non-ASCII digits that Python's int and float take
        "n_reps-fullwidth": _with_key(FULL, "n_reps", "\uff12\uff10\uff10\uff10"),
        "T_horizon-fullwidth": _with_key(FULL, "T_horizon", "\uff15\uff10.0"),
        "event-fullwidth": _with_key(FULL, "event", "terminal_exceed:\uff11.0"),
        # an event parameter that is not a number names the kind and parameter
        "event-parameter-abc": _with_key(FULL, "event", "terminal_exceed:abc"),
        "event-count-non-integer": _with_key(FULL, "event", "jump_count:1.5,0.5"),
        # an alpha is read only for a Pareto law
        "light-marks-alpha-inf": _with_key(_with_key(FULL, "mark_family", "exponential"), "mark_alpha", "inf"),
        "light-waits-alpha-nan": _with_key(_with_key(FULL, "wait_family", "exponential"), "wait_alpha", "nan"),
        "pareto-waits-no-alpha": BASE + "wait_family = pareto\n",
        "pareto-marks-no-alpha": BASE.replace("mark_alpha = 1.5\n", ""),
    }
    for ln in FULL.strip().splitlines():
        key = ln.partition("=")[0].strip()
        cases[f"{key}-removed"] = "\n".join(x for x in FULL.splitlines() if x != ln) + "\n"
        for label, value in (("abc", "abc"), ("non-integer", "1.5"), ("inf", "inf"), ("nan", "nan")):
            cases[f"{key}-{label}"] = _with_key(FULL, key, value)
    return cases


_FORMAT_CASES = _format_cases()

# config_hash of each valid case, and the one error line of each refused one,
# recorded before the config format was read from a single key table
CONFIG_FORMAT = {
    'T_horizon-abc': "error: key 'T_horizon': not a number ('abc')",
    'T_horizon-inf': "error: key 'T_horizon': must be finite, got 'inf'",
    'T_horizon-nan': "error: key 'T_horizon': must be finite, got 'nan'",
    'T_horizon-non-integer': '1e8f566c9b602b51',
    'T_horizon-removed': "error: missing required config key 'T_horizon'",
    'base': '64a6c07c4d7d03a5',
    'c8': '051606de2e070445',
    'cluster_cap-abc': "error: key 'cluster_cap': not an integer ('abc')",
    'cluster_cap-inf': "error: key 'cluster_cap': not an integer ('inf')",
    'cluster_cap-nan': "error: key 'cluster_cap': not an integer ('nan')",
    'cluster_cap-non-integer': "error: key 'cluster_cap': not an integer ('1.5')",
    'cluster_cap-removed': '852b3ce46ce5def6',
    'comonotone-light': 'ab87c0b67e16b205',
    'conditional-wait': 'bd7fb0bade006c5e',
    'delta_split-abc': "error: key 'delta_split': not a number ('abc')",
    'delta_split-inf': "error: key 'delta_split': must be finite, got 'inf'",
    'delta_split-nan': "error: key 'delta_split': must be finite, got 'nan'",
    'delta_split-non-integer': 'error: delta must lie in (0, 1], got 1.5',
    'delta_split-removed': '4a682b0d477984c7',
    'dependence-abc': "error: unknown dependence 'abc'",
    'dependence-inf': "error: unknown dependence 'inf'",
    'dependence-nan': "error: unknown dependence 'nan'",
    'dependence-non-integer': "error: unknown dependence '1.5'",
    'dependence-removed': '4a682b0d477984c7',
    'estimator-abc': "error: unknown estimator 'abc'",
    'estimator-inf': "error: unknown estimator 'inf'",
    'estimator-nan': "error: unknown estimator 'nan'",
    'estimator-non-integer': "error: unknown estimator '1.5'",
    'estimator-removed': '910f6a72716233d7',
    'eta_exponent-abc': "error: key 'eta_exponent': not a number ('abc')",
    'eta_exponent-inf': "error: key 'eta_exponent': must be finite, got 'inf'",
    'eta_exponent-nan': "error: key 'eta_exponent': must be finite, got 'nan'",
    'eta_exponent-non-integer': 'c4540e3bcd89d3f9',
    'eta_exponent-removed': "error: missing required config key 'eta_exponent'",
    'event-abc': "error: unknown event kind 'abc'; choices: ['dk_proxy', 'jump_count', 'sup_exceed', 'terminal_exceed', 'value_at']",
    'event-inf': "error: unknown event kind 'inf'; choices: ['dk_proxy', 'jump_count', 'sup_exceed', 'terminal_exceed', 'value_at']",
    'event-nan': "error: unknown event kind 'nan'; choices: ['dk_proxy', 'jump_count', 'sup_exceed', 'terminal_exceed', 'value_at']",
    'event-non-integer': "error: unknown event kind '1.5'; choices: ['dk_proxy', 'jump_count', 'sup_exceed', 'terminal_exceed', 'value_at']",
    'event-removed': "error: missing required config key 'event'",
    'full': '4a682b0d477984c7',
    'grid_n-abc': "error: key 'grid_n': not an integer ('abc')",
    'grid_n-inf': "error: key 'grid_n': not an integer ('inf')",
    'grid_n-nan': "error: key 'grid_n': not an integer ('nan')",
    'grid_n-non-integer': "error: key 'grid_n': not an integer ('1.5')",
    'grid_n-removed': '4b5eefb62c2e7ca6',
    'hawkes-sup': '079fa2909055e88a',
    'heavy-wait': 'bed2d0e96871fe04',
    'k_alpha-abc': "error: key 'k_alpha': not a number ('abc')",
    'k_alpha-inf': "error: key 'k_alpha': must be finite, got 'inf'",
    'k_alpha-nan': "error: key 'k_alpha': must be finite, got 'nan'",
    'k_alpha-non-integer': '4a682b0d477984c7',
    'k_alpha-removed': '2d706895082dc6a3',
    'k_order-abc': "error: key 'k_order': not an integer ('abc')",
    'k_order-inf': "error: key 'k_order': not an integer ('inf')",
    'k_order-nan': "error: key 'k_order': not an integer ('nan')",
    'k_order-non-integer': "error: key 'k_order': not an integer ('1.5')",
    'k_order-removed': '4a682b0d477984c7',
    'k_param-abc': "error: key 'k_param': not a number ('abc')",
    'k_param-inf': "error: key 'k_param': must be finite, got 'inf'",
    'k_param-nan': "error: key 'k_param': must be finite, got 'nan'",
    'k_param-non-integer': 'e98a73ba87595dc9',
    'k_param-removed': 'e96f507b9f343ba0',
    'lambda_rate-abc': "error: key 'lambda_rate': not a number ('abc')",
    'lambda_rate-inf': "error: key 'lambda_rate': must be finite, got 'inf'",
    'lambda_rate-nan': "error: key 'lambda_rate': must be finite, got 'nan'",
    'lambda_rate-non-integer': '797d9cba02c35138',
    'lambda_rate-removed': "error: missing required config key 'lambda_rate'",
    'light-marks-alpha-inf': 'ca63592c5eaf7944',
    'light-waits-alpha-nan': '7abd57ab4e2a2ff3',
    'mark_alpha-abc': "error: key 'mark_alpha': not a number ('abc')",
    'mark_alpha-inf': "error: key 'mark_alpha': must be finite, got 'inf'",
    'mark_alpha-nan': "error: key 'mark_alpha': must be finite, got 'nan'",
    'mark_alpha-non-integer': '4a682b0d477984c7',
    'mark_alpha-removed': 'error: missing key mark_alpha (required for pareto)',
    'mark_family-abc': "error: unknown law family 'abc'",
    'mark_family-inf': "error: unknown law family 'inf'",
    'mark_family-nan': "error: unknown law family 'nan'",
    'mark_family-non-integer': "error: unknown law family '1.5'",
    'mark_family-removed': '4a682b0d477984c7',
    'mark_scale-abc': "error: key 'mark_scale': not a number ('abc')",
    'mark_scale-inf': "error: key 'mark_scale': must be finite, got 'inf'",
    'mark_scale-nan': "error: key 'mark_scale': must be finite, got 'nan'",
    'mark_scale-non-integer': '2a4dfb2d5ef88a9a',
    'mark_scale-removed': "error: missing required config key 'mark_scale'",
    'model-abc': "error: unknown model 'abc'",
    'model-inf': "error: unknown model 'inf'",
    'model-nan': "error: unknown model 'nan'",
    'model-non-integer': "error: unknown model '1.5'",
    'model-removed': "error: missing required config key 'model'",
    'n_centering-abc': "error: key 'n_centering': not an integer ('abc')",
    'n_centering-inf': "error: key 'n_centering': not an integer ('inf')",
    'n_centering-nan': "error: key 'n_centering': not an integer ('nan')",
    'n_centering-non-integer': "error: key 'n_centering': not an integer ('1.5')",
    'n_centering-removed': 'c7bc964b4c71509d',
    'n_pbig-abc': "error: key 'n_pbig': not an integer ('abc')",
    'n_pbig-inf': "error: key 'n_pbig': not an integer ('inf')",
    'n_pbig-nan': "error: key 'n_pbig': not an integer ('nan')",
    'n_pbig-non-integer': "error: key 'n_pbig': not an integer ('1.5')",
    'n_pbig-removed': 'a2c3bde9c252f96e',
    'n_reps-abc': "error: key 'n_reps': not an integer ('abc')",
    'n_reps-inf': "error: key 'n_reps': not an integer ('inf')",
    'n_reps-nan': "error: key 'n_reps': not an integer ('nan')",
    'n_reps-non-integer': "error: key 'n_reps': not an integer ('1.5')",
    'n_reps-removed': "error: missing required config key 'n_reps'",
    'n_strata-abc': "error: key 'n_strata': not an integer ('abc')",
    'n_strata-inf': "error: key 'n_strata': not an integer ('inf')",
    'n_strata-nan': "error: key 'n_strata': not an integer ('nan')",
    'n_strata-non-integer': "error: key 'n_strata': not an integer ('1.5')",
    'n_strata-removed': 'ca0a2982ab54f140',
    'pareto-marks-no-alpha': 'error: missing key mark_alpha (required for pareto)',
    'pareto-waits-no-alpha': 'error: missing key wait_alpha (required for pareto waits)',
    'perfbench-hawkes': 'dc1c1dddfc356d45',
    'perfbench-mb': '0f16ba4fcc21b448',
    'phi_fertility-abc': "error: key 'phi_fertility': not a number ('abc')",
    'phi_fertility-inf': "error: key 'phi_fertility': must be finite, got 'inf'",
    'phi_fertility-nan': "error: key 'phi_fertility': must be finite, got 'nan'",
    'phi_fertility-non-integer': 'error: supercritical fertility: phi*E[X] = 4.5 >= 1',
    'phi_fertility-removed': 'b3df72d33f3b23e0',
    'seed_root-abc': "error: key 'seed_root': not an integer ('abc')",
    'seed_root-inf': "error: key 'seed_root': not an integer ('inf')",
    'seed_root-nan': "error: key 'seed_root': not an integer ('nan')",
    'seed_root-non-integer': "error: key 'seed_root': not an integer ('1.5')",
    'seed_root-removed': "error: missing required config key 'seed_root'",
    'wait_alpha-abc': "error: key 'wait_alpha': not a number ('abc')",
    'wait_alpha-inf': "error: key 'wait_alpha': must be finite, got 'inf'",
    'wait_alpha-nan': "error: key 'wait_alpha': must be finite, got 'nan'",
    'wait_alpha-non-integer': '34eba8f7c363766d',
    'wait_alpha-removed': 'error: missing key wait_alpha (required for pareto waits)',
    'wait_conditional-abc': "error: key 'wait_conditional': not an integer ('abc')",
    'wait_conditional-inf': "error: key 'wait_conditional': not an integer ('inf')",
    'wait_conditional-nan': "error: key 'wait_conditional': not an integer ('nan')",
    'wait_conditional-non-integer': "error: key 'wait_conditional': not an integer ('1.5')",
    'wait_conditional-removed': '4a682b0d477984c7',
    'wait_family-abc': "error: unknown law family 'abc'",
    'wait_family-inf': "error: unknown law family 'inf'",
    'wait_family-nan': "error: unknown law family 'nan'",
    'wait_family-non-integer': "error: unknown law family '1.5'",
    'wait_family-removed': '7abd57ab4e2a2ff3',
    'wait_scale-abc': "error: key 'wait_scale': not a number ('abc')",
    'wait_scale-inf': "error: key 'wait_scale': must be finite, got 'inf'",
    'wait_scale-nan': "error: key 'wait_scale': must be finite, got 'nan'",
    'wait_scale-non-integer': '57e892ac7edba939',
    'wait_scale-removed': '4a682b0d477984c7',
    # faults refused since bools take 0 or 1 only and numbers take no _
    'T_horizon-separator': "error: key 'T_horizon': not a number ('1_50.0')",
    'event-separator': "error: event 'terminal_exceed': parameters take no '_', got '1_0'",
    'n_reps-separator': "error: key 'n_reps': not an integer ('2_000')",
    'wait_conditional-01': "error: key 'wait_conditional': must be 0 or 1, got '01'",
    'wait_conditional-2': "error: key 'wait_conditional': must be 0 or 1, got '2'",
    'wait_conditional-minus-3': "error: key 'wait_conditional': must be 0 or 1, got '-3'",
    # faults refused since numbers take ASCII digits only and event parameters
    # name their event and parameter
    'T_horizon-fullwidth': "error: key 'T_horizon': not a number ('\uff15\uff10.0')",
    'event-count-non-integer': "error: event 'jump_count': parameter 'm' is not an integer ('1.5')",
    'event-fullwidth': "error: event 'terminal_exceed': parameter 'c' is not a number ('\uff11.0')",
    'event-parameter-abc': "error: event 'terminal_exceed': parameter 'c' is not a number ('abc')",
    'n_reps-fullwidth': "error: key 'n_reps': not an integer ('\uff12\uff10\uff10\uff10')",
}


@pytest.mark.parametrize("case", sorted(_FORMAT_CASES))
def test_config_format_is_pinned(tmp_path, capsys, case):
    expected = CONFIG_FORMAT[case]
    text = _FORMAT_CASES[case]
    if not expected.startswith("error: "):
        assert config_hash(parse_config(text)) == expected
        return
    out = str(tmp_path / "never")
    assert main(["ldp", "--config", _write(tmp_path, text), "--out", out]) == 2
    assert _single_error_line(capsys) == expected
    assert not os.path.exists(out)
