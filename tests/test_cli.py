import csv
import json
import re
import shlex
from pathlib import Path

import pytest

import spinmaps.cli as cli
from spinmaps.cli import main


def run_cli(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_run_dir(stdout: str) -> Path:
    return Path(stdout.strip().splitlines()[-1])


def readme_commands():
    """Every line of a README command block that starts with `spinmaps `."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("spinmaps ")]


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    cli._check_fields(cli._config(args))


def test_readme_covers_every_command():
    assert {line.split()[1] for line in readme_commands()} == set(
        cli.build_parser().commands)


@pytest.mark.parametrize("line, config, field", [
    ("maps --t-max-tj inf", None, "t_max_tj"),
    ("steady --horizon-tj inf", None, "horizon_tj"),
    ("quench --t-eval-tj inf", None, "t_eval_tj"),
    ("disorder --steps 0", None, "steps"),
    ("maps --points-per-tj 0", None, "points_per_tj"),
    ("measure --scatter-samples -5", None, "scatter_samples"),
    ("disorder", {"steps": 0}, "steps"),  # checked after --config is merged
])
def test_out_of_range_grid_or_count_exits_2(tmp_path, capsys, line, config, field):
    argv = line.split() + ["--outdir", str(tmp_path / "runs")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    rc, out, err = run_cli(argv, capsys)
    assert rc == 2
    assert err.startswith(f"config error: {field}: ")
    assert out == "" and not (tmp_path / "runs").exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc, _, err = run_cli(["maps", "--config", str(cfg),
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2
    assert "config.bogus" in err


def test_invalid_json_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    rc, _, err = run_cli(["maps", "--config", str(cfg),
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2
    assert "invalid JSON" in err


@pytest.mark.parametrize("command, data", [
    ("maps", {"n": [1]}),
    ("maps", {"n": True}),
    ("maps", {"n": 3.5}),
    ("maps", {"n": None}),
    ("maps", {"j_par": {"x": 1}}),
    ("maps", {"z_list": [0.1, "x", 0.3]}),
    ("maps", {"outdir": 3}),
    ("measure", {"overlay": "no"}),
])
def test_wrong_json_type_config_exits_2(tmp_path, capsys, command, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    rc, _, err = run_cli([command, "--config", str(cfg),
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2
    assert f"config error: config.{next(iter(data))}: expected" in err


def test_json_typed_config_values_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3, "h": None, "j_par": 1, "state": "custom",
                               "z_list": [0.5, -0.25, 1], "t_max_tj": 0.5}))
    rc, out, _ = run_cli(["maps", "--config", str(cfg),
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    manifest = json.loads((last_run_dir(out) / "manifest.json").read_text())
    assert manifest["config"]["z_list"] == [0.5, -0.25, 1]


def test_state_preset_errors_exit_2(tmp_path, capsys):
    rc, _, err = run_cli(["quench", "--state", "custom",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2 and "z_list" in err
    rc, _, err = run_cli(["steady", "--state", "custom",
                          "--z-list", "1,0.5",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2 and "expected 3 values" in err
    rc, _, err = run_cli(["steady", "--state", "custom",
                          "--z-list", "1,0.5,2",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2 and "|z| must be <= 1" in err


def test_missing_steady_table_exits_4(tmp_path, capsys):
    rc, _, err = run_cli(["steady", "--topology", "complete", "--n", "7",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 4
    assert "no steady table" in err
    rc, _, err = run_cli(["steady", "--topology", "ring", "--n", "5",
                          "--j-par", "0.3",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 4
    assert "isotropic" in err


def test_steady_short_horizon_exits_3(tmp_path, capsys):
    # 2.3 t_J is far from converged, so a tight tolerance must trip
    rc, out, err = run_cli(["steady", "--horizon-tj", "2.3", "--tol", "1e-6",
                            "--outdir", str(tmp_path)], capsys)
    assert rc == 3
    assert "horizon too short" in err
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    assert diag["pass"] is False


def test_steady_default_passes(tmp_path, capsys):
    rc, out, _ = run_cli(["steady", "--horizon-tj", "50",
                          "--points-per-tj", "8",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    assert diag["pass"] is True and diag["constraint_ok"] is True
    assert diag["exact"]["lambda3_fraction"] == "5/9"
    assert diag["exact"]["tau3_fraction"] == "8/27"


def test_maps_run_artifacts(tmp_path, capsys):
    rc, out, _ = run_cli(["maps", "--t-max-tj", "1.0",
                          "--points-per-tj", "5",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    run = last_run_dir(out)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "maps"
    assert manifest["seed"] == 0
    assert manifest["config"]["topology"] == "ring"
    assert "created" in manifest and "tool_version" in manifest
    with open(run / "data.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_over_tj", "site", "lambda1", "theta",
                       "lambda3", "tau3", "residual"]
    assert len(rows) == 1 + 6 * 4  # grid points x (sites + network avg)
    assert sum(1 for r in rows[1:] if r[1] == "avg") == 6
    diag = json.loads((run / "diagnostics.json").read_text())
    assert diag["phase_covariant"] is True
    assert diag["analytic_check"]["max_abs_err"] < 1e-9


def test_run_dir_collision_gets_counter(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt: "20260101T000000")
    # an existence check that loses the race to a concurrent run must not
    # matter: the name is claimed by the exclusive mkdir alone
    monkeypatch.setattr(Path, "exists", lambda self: False)
    cfg = {"outdir": str(tmp_path / "runs"), "seed": 0}
    names = [cli._start_run(cfg, "maps").name for _ in range(3)]
    assert names == ["maps-20260101T000000", "maps-20260101T000000-01",
                     "maps-20260101T000000-02"]


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    import numpy as np
    import spinmaps.network

    def non_hermitian(spec):
        h = np.zeros((2**spec.n, 2**spec.n))
        h[0, 1] = 1.0
        return h

    monkeypatch.setattr(spinmaps.network, "build_hamiltonian", non_hermitian)
    rc, _, err = run_cli(["maps", "--t-max-tj", "1", "--outdir", str(tmp_path)], capsys)
    assert rc == 3
    assert "not Hermitian" in err


def test_volume_rerun_is_byte_identical(tmp_path, capsys):
    bodies = []
    for sub in ("a", "b"):
        rc, out, _ = run_cli(["volume", "--samples", "100000", "--seed", "7",
                              "--outdir", str(tmp_path / sub)], capsys)
        assert rc == 0
        bodies.append((last_run_dir(out) / "data.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_disorder_gaussian_quick(tmp_path, capsys):
    rc, out, _ = run_cli(["disorder", "--steps", "3", "--n-samples", "300",
                          "--t-max", "1.5",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    run = last_run_dir(out)
    diag = json.loads((run / "diagnostics.json").read_text())
    assert diag["flagged"] == []
    assert diag["phi_dist"] == "gaussian"
    with open(run / "data.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "component", "mc_mean", "mc_stderr", "closed_form"]
    assert len(rows) == 1 + 3 * 4  # steps x tracked components


def test_disorder_trunc_tanh_headroom(tmp_path, capsys):
    rc, out, _ = run_cli(["disorder", "--phi-dist", "trunc_tanh",
                          "--a-phi", "0.001", "--steps", "2",
                          "--n-samples", "300", "--t-max", "1.0",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    assert abs(diag["max_tau3_ceiling"] - 0.8039645) < 1e-6
    assert "mc_sin2_phi" in diag and "mc_sin2_phi_stderr" in diag


def test_disorder_trunc_tanh_needs_a_phi(tmp_path, capsys):
    rc, _, err = run_cli(["disorder", "--phi-dist", "trunc_tanh",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2 and "a_phi" in err


def test_measure_quick_with_scatter(tmp_path, capsys):
    rc, out, _ = run_cli(["measure", "--steps", "12", "--t-max-tj", "5",
                          "--points-per-tj", "4", "--scatter-samples", "50",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    run = last_run_dir(out)
    diag = json.loads((run / "diagnostics.json").read_text())
    assert diag["all_cp"] is True
    assert diag["sigma_last"] < diag["sigma_first"]
    with open(run / "data.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["t_over_tref", "lambda3", "tau3", "lambda1"]
    assert "lambda3_timeavg" in rows[0]  # overlay on by default
    assert len(rows) == 13
    with open(run / "eigenvalues.csv") as fh:
        scat = list(csv.reader(fh))
    assert scat[0] == ["family", "which", "re", "im"]
    assert len(scat) == 1 + 50 * 6
    families = {r[1] for r in scat[1:]}
    assert families == {"rot+", "rot-", "mu+", "mu-", "l3"}


def test_quench_quick_random_schedule(tmp_path, capsys):
    rc, out, _ = run_cli(["quench", "--n-cl", "40", "--window-tj", "10",
                          "--t-eval-tj", "20", "--points-per-tj", "4",
                          "--schedule", "random", "--seed", "3",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    run = last_run_dir(out)
    diag = json.loads((run / "diagnostics.json").read_text())
    assert diag["schedule"] == "random"
    assert diag["n_cl"] == 40
    assert 0.0 <= diag["max_abs_diff"] < 1.0
    with open(run / "data.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row", "col", "cluster_avg", "time_avg", "abs_diff"]
    assert len(rows) == 17


def test_config_file_merge_order(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"j_par": 0.5, "t_max_tj": 1.0,
                               "points_per_tj": 4.0}))
    rc, out, _ = run_cli(["maps", "--config", str(cfg), "--j-par", "0.25",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    manifest = json.loads((last_run_dir(out) / "manifest.json").read_text())
    assert manifest["config"]["j_par"] == 0.25  # flag beats config file
    assert manifest["config"]["t_max_tj"] == 1.0  # config beats default


def test_fluct_quick(tmp_path, capsys):
    rc, out, _ = run_cli(["fluct", "--n", "4", "--horizon-tj", "60",
                          "--points-per-tj", "6",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    run = last_run_dir(out)
    diag = json.loads((run / "diagnostics.json").read_text())
    assert 0.1 < diag["c_lambda3"] < 10.0
    assert diag["converged"]
    assert diag["rel_change"] < diag["rtol"] and diag["sup_gap"] < diag["rtol"]
    assert diag["sup_points_per_tj"] >= 6
    with open(run / "data.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t_over_tj", "delta_lambda3", "delta_tau3"]
    assert len(rows) == 60 * 6 + 2


def test_threads_warns_once_numpy_is_loaded(tmp_path, capsys, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)  # restores what main sets
    rc, _, err = run_cli(["volume", "--samples", "100000", "--threads", "1",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    assert "warning: --threads has no effect" in err
