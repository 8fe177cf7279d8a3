import ast
import csv
import io
import itertools
import json
import math
import os
import re
import shlex
import struct
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import spinmaps
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
    parser = cli.build_parser()
    args = parser.parse_args(shlex.split(line)[1:])
    cli._check_fields(cli._config(args), args.command)


def test_readme_covers_every_command():
    assert {line.split()[1] for line in readme_commands()} == set(
        cli.build_parser().commands)


def readme_ranges():
    """(option names, text) of each item of the README's range list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"in the order of\s+this list.*?:\n\n((?:- [^\n]*\n)+)", text, flags=re.S)
    items = [line[2:] for line in block.group(1).splitlines()]
    return [(set(re.findall(r"`(\w+)`", names)), rest)
            for names, _, rest in (item.partition(": ") for item in items)]


def test_readme_range_list_is_the_table():
    # every range of the table, in checking order, with the options it
    # checks; and no range the table does not have
    documented = readme_ranges()
    assert len(documented) == len(cli.RANGES)
    for (names, text), rng in zip(documented, cli.RANGES):
        assert names == {opt.dest for opt in cli.OPTIONS if rng in opt.checks}, text
        assert text.startswith(rng.requirement), (names, text)


def test_each_flag_is_declared_once():
    src = Path(spinmaps.__file__).parent
    literals = [flag for path in sorted(src.glob("*.py"))
                for flag in re.findall(r'"(--[a-z0-9-]+)"', path.read_text())]
    assert len(literals) == len(set(literals))
    parsed = {flag for sp in cli.build_parser().commands.values() for action in sp._actions
              for flag in action.option_strings}
    assert set(literals) == parsed - {"-h", "--help", "--no-overlay"}


def test_readme_library_example_runs(capsys):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
    for name in spinmaps.__all__:
        assert getattr(spinmaps, name) is not None, name


@pytest.mark.parametrize("line, config, field", [
    ("maps --t-max-tj inf", None, "t_max_tj"),
    ("steady --horizon-tj inf", None, "horizon_tj"),
    ("quench --t-eval-tj inf", None, "t_eval_tj"),
    ("disorder --steps 0", None, "steps"),
    ("maps --points-per-tj 0", None, "points_per_tj"),
    ("measure --scatter-samples -5", None, "scatter_samples"),
    ("disorder", {"steps": 0}, "steps"),  # checked after --config is merged
    # every float option must be finite
    ("maps --state uniform --z nan", None, "z"),
    ("maps --state custom --z-list 0.1,nan,0.2", None, "z_list"),
    ("measure --c inf --no-overlay --steps 5", None, "c"),
    ("disorder --sigma-h nan --steps 2 --n-samples 200", None, "sigma_h"),
    ("steady --tol nan", None, "tol"),
    ("disorder --b inf", None, "b"),
    # an integer too large for a float is not finite either
    ("maps", {"h": 10**400}, "h"),
    ("disorder", {"t_max": 10**400}, "t_max"),
    # register size: checked before any state or matrix is built
    ("maps", {"n": 10**400}, "n"),
    ("quench", {"n": 10**400}, "n"),
    ("maps --n 17", None, "n"),
    # a tolerance must be positive, an onset is a horizon, a seed a Philox key
    ("steady --tol -1", None, "tol"),
    ("steady --tol 0", None, "tol"),
    ("fluct --onset-tj -5", None, "onset_tj"),
    ("disorder --seed -1", None, "seed"),
    # sample counts under the option's name, not the library argument's
    ("volume --samples 0", None, "samples"),
    ("disorder --n-samples 5", None, "n_samples"),
    # measure's range errors name its options, not MeasureSpec's fields
    ("measure --t-max-tj 0.05", None, "t_max_tj"),
    ("measure --c 0", None, "c"),
    # phase-law widths whose arithmetic fails: varphi^2 underflows to 0, and
    # the trunc_tanh acceptance ceiling leaves the normal floats
    ("disorder --varphi 1e-170", None, "varphi"),
    ("disorder --phi-dist trunc_tanh --a-phi 1e-170", None, "a_phi"),
    # the library's own checks, named by the option that fails them
    ("disorder --z2 2", None, "z2"),
    ("steady --horizon-tj 0", None, "horizon_tj"),
    ("fluct --horizon-tj 0", None, "horizon_tj"),
    ("fluct --onset-tj 300 --horizon-tj 100", None, "onset_tj"),
    # the partner of an XX pair is (x2, y2, z2); state is not read there
    ("maps --topology xx_pairs --x2 0.9 --y2 0.9", None, "x2"),
    # a norm within 1 + 1e-12 by hypot, whose square x^2 + y^2 + z^2 is not
    ("maps --topology xx_pairs --x2 1.0000000000008", None, "x2"),
    # register sizes and topologies that describe no network
    ("maps --n 1", None, "n"),
    ("fluct --n 1", None, "n"),
    ("quench --n 1", None, "n"),
    ("measure --n 1", None, "n"),
    ("steady --topology ring --n 2", None, "n"),
    ("measure --preset ring --n 2", None, "n"),
    ("steady --topology xx_pairs", None, "topology"),
    ("fluct --topology xx_pairs", None, "topology"),
    # seeds that no Philox key holds, where one keys the streams
    ("disorder --seed 340282366920938463463374607431768211456", None, "seed"),
    ("measure --seed 340282366920938463463374607431768211456 --no-overlay", None, "seed"),
    # grids and counts larger than any array (an overflowing count included)
    ("maps --points-per-tj 1e300", None, "t_max_tj * points_per_tj"),
    ("maps --t-max-tj 1e300 --points-per-tj 1e300", None, "t_max_tj * points_per_tj"),
    ("steady --horizon-tj 1e300", None, "horizon_tj * points_per_tj"),
    ("disorder --steps 100000000000000000000", None, "steps"),
    ("measure --steps 100000000000000000000 --no-overlay", None, "steps"),
    ("quench --n-cl 100000000000000000000", None, "n_cl"),
    ("quench --n-cl 100000000000000000000 --schedule random", None, "n_cl"),
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


@pytest.mark.parametrize("line, field", [
    # the disorder envelope's rate sigma_omega^2 + 4 sigma_h^2 overflows
    ("disorder --sigma-h 1e300", "sigma_h"),
    ("disorder --sigma-omega 1.5e154", "sigma_omega"),
    ("disorder --sigma-h 1e154", "sigma_h"),
    # t_J = 2 pi/|J| is inf at a coupling this small
    ("fluct --j-perp 5e-324", "j_perp"),
    ("steady --j-perp 1e-310", "j_perp"),
    ("quench --j 5e-324", "j"),
    ("measure --j-perp=-1e-310 --no-overlay --steps 5", "j_perp"),
    # t_J is finite, but the longest span times t_J is not
    ("steady --j-perp 1e-307", "j_perp"),
    ("fluct --j-perp 1e-307", "j_perp"),
    ("maps --j-perp 1e-307", "j_perp"),
    ("quench --j 1e-307", "j"),
    # the measure's width sigma(t) = (c/n)/t overflows at t = 0.1 t_J, or
    # underflows to 0: at every t, or only at the grid's last time
    ("measure --c 1e308 --steps 3", "c"),
    ("measure --c 5e-324 --steps 3", "c"),
    ("measure --c 1e-300 --t-max-tj 1e300 --steps 3", "c"),
])
def test_float_arithmetic_limits_exit_2(tmp_path, capsys, line, field):
    small = ["--steps", "2", "--n-samples", "200"] if line.startswith("disorder") else []
    argv = line.split() + small
    rc, out, err = run_cli(argv + ["--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 2
    assert err.startswith(f"config error: {field}: must ") and err.count("\n") == 1
    assert out == "" and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("line", [
    # measure turns no time in t_J into an absolute one without its overlay
    "measure --j-perp 1e-307 --no-overlay --steps 5",
    # the quench cluster's t_J is 2 pi/|2j|: its 100 t_J is 1.6e308 here
    "quench --j 2e-306 --n-cl 20",
])
def test_small_coupling_with_finite_times_runs(tmp_path, capsys, line):
    rc, _, err = run_cli(line.split() + ["--outdir", str(tmp_path)], capsys)
    assert rc == 0 and err == ""


@pytest.mark.parametrize("line", ["maps --j-perp 0", "maps --topology xx_pairs --j 0",
                                  "quench --j 0"])
def test_zero_coupling_is_no_float_limit(tmp_path, capsys, line):
    # no exchange, so no t_J: refused naming the coupling's option (steady,
    # fluct and measure exit 4 first)
    field = "j_perp" if "--j-perp" in line else "j"
    rc, out, err = run_cli(line.split() + ["--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 2
    assert err == f"config error: {field}: must be nonzero (t_J is undefined without exchange)\n"
    assert out == "" and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("line, field", [
    # ranges in their table order, each over the command's options in
    # --help order: horizons before the spans inside them, counts before
    # the seed, every float's finiteness before the float-arithmetic limits
    ("quench --window-tj -1 --t-eval-tj -1", "t_eval_tj"),
    ("fluct --onset-tj -1 --horizon-tj -1", "horizon_tj"),
    ("measure --seed -1 --scatter-samples -1", "scatter_samples"),
    ("maps --n 17 --t-max-tj -1", "t_max_tj"),
    ("maps --h nan --z2 2", "z2"),
    ("disorder --varphi 1e-170 --b nan", "b"),
    ("maps --topology xx_pairs --h nan", "h"),
])
def test_first_field_out_of_range_is_reported(tmp_path, capsys, line, field):
    rc, _, err = run_cli(line.split() + ["--outdir", str(tmp_path)], capsys)
    assert rc == 2 and err.startswith(f"config error: {field}: ")


CHOICE_CASES = [("maps", "topology"), ("steady", "state"), ("disorder", "phi_dist"),
                ("measure", "preset"), ("measure", "tau3_rule"), ("quench", "schedule")]


@pytest.mark.parametrize("command, key", CHOICE_CASES)
def test_config_choice_outside_its_list_exits_2(tmp_path, capsys, command, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "bogus"}))
    rc, out, err = run_cli([command, "--config", str(cfg), "--outdir", str(tmp_path / "runs")],
                           capsys)
    choices = next(a.choices for a in cli.build_parser().commands[command]._actions
                   if a.dest == key)
    assert rc == 2
    assert err == (f"config error: config.{key}: expected one of "
                   f"{', '.join(json.dumps(c) for c in choices)}, got \"bogus\"\n")
    assert out == "" and not (tmp_path / "runs").exists()
    assert {k for _, k in CHOICE_CASES} == {opt.dest for opt in cli.OPTIONS if opt.choices}


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
    rc, _, err = run_cli(["steady", "--topology", "ring", "--n", "6",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 4
    assert "no steady table" in err
    rc, _, err = run_cli(["steady", "--topology", "ring", "--n", "5",
                          "--j-par", "0.3",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 4
    assert "isotropic" in err


def test_closed_forms_and_tables_cover_what_the_cli_runs(tmp_path, capsys):
    # analytic.closed_form raises exactly where maps runs numeric-only (with
    # its message), and ensemble.steady_table exactly where steady exits 4
    networks = [(topology, n, j_par) for topology, sizes in (("complete", range(2, 9)),
                                                             ("ring", range(3, 7)))
                for n in sizes for j_par in (1.0, 0.6)]
    for topology, n, j_par in networks:
        spec = spinmaps.NetworkSpec(topology, n, h=0.37, j_perp=1.0, j_par=j_par)
        flags = ["--topology", topology, "--n", str(n), "--j-par", str(j_par), "--h", "0.37",
                 "--state", "uniform", "--z", "0.5", "--outdir", str(tmp_path)]
        try:
            spinmaps.closed_form(spec, 0, [(0.0, 0.0, 0.5)] * (n - 1), 1.0)
            numeric_only = None
        except spinmaps.ensemble.UnsupportedNetwork as exc:
            numeric_only = f"warning: running numeric-only ({exc})"
        rc, _, err = run_cli(["maps", "--t-max-tj", "0.05"] + flags, capsys)
        assert rc == 0
        assert (numeric_only in err) if numeric_only else ("numeric-only" not in err)
        try:
            spinmaps.ensemble.steady_table(spec)
            has_table = True
        except spinmaps.ensemble.UnsupportedNetwork:
            has_table = False
        rc, _, _ = run_cli(["steady", "--horizon-tj", "0.1", "--tol", "1"] + flags, capsys)
        assert (rc == 4) != has_table, (topology, n, j_par, rc)
        # the complete graph has both at every N
        assert topology == "ring" or (has_table and numeric_only is None), (n, j_par)
    rc, _, err = run_cli(["maps", "--topology", "xx_pairs", "--x2", "0.3", "--t-max-tj", "0.1",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0 and "numeric-only" not in err


@pytest.mark.parametrize("argv", [["steady", "--n", "1"],
                                  ["steady", "--topology", "ring", "--n", "2"],
                                  ["steady", "--topology", "xx_pairs"],
                                  ["fluct", "--topology", "xx_pairs"],
                                  ["measure", "--n", "0", "--c", "1e308"]])
def test_non_network_exits_2_without_run_dir(tmp_path, capsys, argv):
    rc, out, err = run_cli(argv + ["--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 2 and err.startswith("config error") and out == ""
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv", [["steady", "--n", "4"],
                                  ["fluct"],
                                  ["measure", "--no-overlay", "--steps", "5"]])
def test_no_exchange_has_no_steady_table(tmp_path, capsys, argv):
    # at J_perp = 0 nothing relaxes: exit 4 before any run directory
    rc, out, err = run_cli(argv + ["--j-perp", "0", "--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 4 and "without exchange" in err and out == ""
    assert not (tmp_path / "runs").exists()


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
    # fixed point of the steady channel: a* = tau3 / (1 - lambda3) = 2/3
    fixed = diag["fixed_point"]
    assert abs(fixed["a_star"] - 2.0 / 3.0) < 1e-15
    assert abs(fixed["beta_star"] - math.log(6.0)) < 1e-12
    assert fixed["degenerate"] is False


def test_steady_fixed_point_of_polarized_state_has_no_temperature(tmp_path, capsys):
    # all sites up: tau3 + lambda3 = 1, so a* = 1 and beta* is infinite
    rc, out, _ = run_cli(["steady", "--state", "uniform", "--z", "1",
                          "--horizon-tj", "5", "--points-per-tj", "4", "--tol", "1",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    assert diag["fixed_point"] == {"a_star": 1.0, "beta_star": None, "degenerate": False}


def written_table_value(table: dict, z) -> Fraction:
    """A written {orbit: coefficient} table at z, each orbit read as the set of
    its distinct subsets: all k-subsets for a key k, else the images of the
    key's sites under the ring's rotations and reflections."""
    n, total = len(z), Fraction(0)
    for key, coeff in table.items():
        orbit = ast.literal_eval(key)
        if isinstance(orbit, int):
            subsets = set(itertools.combinations(range(n), orbit))
        else:
            subsets = {tuple(sorted((r + s * i) % n for i in orbit))
                       for r in range(n) for s in (1, -1)}
        mean = Fraction(sum(math.prod(z[i] for i in subset) for subset in subsets), len(subsets))
        total += Fraction(coeff) * mean
    return total


@pytest.mark.parametrize("topology, n", [("complete", n) for n in range(2, 9)]
                         + [("ring", 4), ("ring", 5)])
def test_written_steady_tables_reproduce_the_written_fractions(tmp_path, capsys, topology, n):
    # diagnostics.json's coeffs and tau3_coeffs describe the channel the run checks
    rng = np.random.default_rng(n)
    picks = [int(k) for k in rng.integers(-100, 101, n)]
    states = [(["--state", "hierarchy"], cli.preset_state(n, "hierarchy")),
              (["--state", "custom", "--z-list=" + ",".join(str(k / 100) for k in picks)],
               [Fraction(k, 100) for k in picks])]
    for flags, z in states:
        rc, out, _ = run_cli(["steady", "--topology", topology, "--n", str(n), *flags,
                              "--horizon-tj", "0.1", "--tol", "1",
                              "--outdir", str(tmp_path)], capsys)
        assert rc == 0
        exact = json.loads((last_run_dir(out) / "diagnostics.json").read_text())["exact"]
        assert str(written_table_value(exact["coeffs"], z)) == exact["lambda3_fraction"]
        assert str(written_table_value(exact["tau3_coeffs"], z)) == exact["tau3_fraction"]


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


def test_maps_assembles_one_unitary_per_time(tmp_path, capsys, monkeypatch):
    # every site asks for U(t) in turn and the evolver assembles it once per
    # time; the output is that of an assembly per request
    assemble = spinmaps.qlinalg.HermitianEvolver.unitary
    returned = []

    def counted(self, t):
        returned.append(assemble(self, t))
        return returned[-1]

    def uncached(self, t):
        self._last = (None, None)  # forget the kept matrix
        return assemble(self, t)

    csvs = []
    for unitary in (counted, uncached):
        monkeypatch.setattr(spinmaps.qlinalg.HermitianEvolver, "unitary", unitary)
        rc, out, _ = run_cli(["maps", "--topology", "complete", "--n", "3", "--t-max-tj", "0.5",
                              "--outdir", str(tmp_path / unitary.__name__)], capsys)
        assert rc == 0
        csvs.append((last_run_dir(out) / "data.csv").read_bytes())
    assert len(returned) == 3 * 11
    assert len({id(u) for u in returned}) == 11
    assert csvs[0] == csvs[1]


def test_manifest_echoes_defaults_with_their_literal_types(tmp_path, capsys):
    rc, out, _ = run_cli(["steady", "--horizon-tj", "0.5", "--tol", "1",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    config = json.loads((last_run_dir(out) / "manifest.json").read_text())["config"]
    assert config["points_per_tj"] == 20 and type(config["points_per_tj"]) is int
    assert type(config["horizon_tj"]) is float and type(config["n"]) is int


def test_manifest_records_package_version(tmp_path, capsys):
    rc, out, _ = run_cli(["maps", "--t-max-tj", "0.5", "--points-per-tj", "2",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    manifest = json.loads((last_run_dir(out) / "manifest.json").read_text())
    assert manifest["tool_version"] == spinmaps.__version__


def test_run_dir_collision_gets_counter(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.time, "strftime", lambda fmt, *args: "20260101T000000")
    # an existence check that loses the race to a concurrent run must not
    # matter: the name is claimed by the exclusive mkdir alone
    monkeypatch.setattr(Path, "exists", lambda self: False)
    cfg = {"outdir": str(tmp_path / "runs"), "seed": 0}
    names = [cli._start_run(cfg, "maps").name for _ in range(3)]
    assert names == ["maps-20260101T000000", "maps-20260101T000000-01",
                     "maps-20260101T000000-02"]


def test_run_dir_is_stamped_in_utc(tmp_path, monkeypatch):
    # a zone 5 hours behind UTC all year: a local stamp would differ
    monkeypatch.setenv("TZ", "EST+05")
    time.tzset()
    try:
        before = time.gmtime()
        path = cli._start_run({"outdir": str(tmp_path), "seed": 0}, "maps")
        after = time.gmtime()
    finally:
        monkeypatch.undo()
        time.tzset()
    stamps = {time.strftime("%Y%m%dT%H%M%S", t) for t in (before, after)}
    created = json.loads((path / "manifest.json").read_text())["created"]
    assert path.name.removeprefix("maps-") in stamps
    assert created == path.name.removeprefix("maps-")


def test_numerical_failure_exits_3(tmp_path, capsys, monkeypatch):
    import spinmaps.network

    def non_hermitian(spec):
        h = np.zeros((2**spec.n, 2**spec.n))
        h[0, 1] = 1.0
        return h

    monkeypatch.setattr(spinmaps.network, "build_hamiltonian", non_hermitian)
    rc, _, err = run_cli(["maps", "--t-max-tj", "1", "--outdir", str(tmp_path)], capsys)
    assert rc == 3
    assert "not Hermitian" in err


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    import spinmaps.disorder

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.2 TiB for an array")

    monkeypatch.setattr(spinmaps.disorder, "mc_disorder_map", no_memory)
    rc, out, err = run_cli(["disorder", "--steps", "1", "--outdir", str(tmp_path / "runs")],
                           capsys)
    assert rc == 2
    assert err == "config error: out of memory: Unable to allocate 1.2 TiB for an array\n"
    assert out == "" and not (tmp_path / "runs").exists()


def test_measure_non_cp_trajectory_exits_3(tmp_path, capsys, monkeypatch):
    import spinmaps.measure

    monkeypatch.setattr(spinmaps.measure, "cp_contains", lambda *args: False)
    rc, out, err = run_cli(["measure", "--no-overlay", "--steps", "5",
                            "--scatter-samples", "0", "--outdir", str(tmp_path / "runs")],
                           capsys)
    assert rc == 3
    assert "non-CP triple" in err
    assert out == "" and not (tmp_path / "runs").exists()


def test_measure_broken_margin_contradicted_by_choi_exits_3(tmp_path, capsys, monkeypatch):
    import spinmaps.measure

    monkeypatch.setattr(spinmaps.measure, "broken_cp_margin", lambda *args: 1.0)
    rc, out, err = run_cli(["measure", "--no-overlay", "--steps", "5",
                            "--scatter-samples", "20", "--outdir", str(tmp_path / "runs")],
                           capsys)
    assert rc == 3
    assert err.startswith("numerical failure: Choi test rejects a broken candidate")
    assert out == "" and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("bad, where", [
    ({(2, 3)}, "t=0.600 t_J, site 2"),
    ({(1, 3), (2, 3)}, "t=0.600 t_J, site 1"),  # sites in order within a time
    ({(0, 3), (1, 3), (2, 2)}, "t=0.400 t_J, site 2"),  # the earliest time first
])
def test_maps_cp_violation_exits_3(tmp_path, capsys, monkeypatch, bad, where):
    import spinmaps.reduced

    extract = spinmaps.reduced.MapExtractor.transfer
    calls = {}

    def transfer(self, t):
        # (site, k): the k-th map of that site, which is the one at times[k]
        k = calls[self.site] = calls.get(self.site, -1) + 1
        if (self.site, k) in bad:
            return spinmaps.reduced.PCParams(0.0, 0.0, 1.0, 0.5).transfer()
        return extract(self, t)

    monkeypatch.setattr(spinmaps.reduced.MapExtractor, "transfer", transfer)
    rc, out, err = run_cli(["maps", "--t-max-tj", "1", "--points-per-tj", "5",
                            "--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 3
    assert f"CP violation at {where}: (l1=0.0, tau3=0.5, l3=1.0)" in err
    assert out == "" and not (tmp_path / "runs").exists()


def test_maps_cp_violation_of_the_average_exits_3(tmp_path, capsys, monkeypatch):
    import spinmaps.ensemble

    bad = spinmaps.reduced.PCParams(0.0, 0.0, 1.0, 0.5).transfer()
    monkeypatch.setattr(spinmaps.ensemble, "network_average",
                        lambda maps: np.broadcast_to(bad, np.shape(maps)[1:]))
    rc, out, err = run_cli(["maps", "--t-max-tj", "1", "--outdir", str(tmp_path / "runs")],
                           capsys)
    assert rc == 3
    assert err.endswith("CP violation in network average at t=0.000 t_J\n")
    assert out == "" and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("line, options", [
    # the field's phases: 2.3e-9 and 3.6e-6 from the closed form, exit 0 before
    ("maps --h 1e5", "h, j_perp, j_par"),
    ("maps --h 1e8", "h, j_perp, j_par"),
    # J_par/J_perp astronomical: a warning and exit 3 inside the numerics before
    ("maps --j-perp 5e-307", "h, j_perp, j_par"),
    ("maps --j-perp 1e-300", "h, j_perp, j_par"),
    ("maps --topology xx_pairs --h1 1e9", "h1, h2, j"),
])
def test_maps_beyond_its_roundoff_budget_exits_4(tmp_path, capsys, line, options):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(line.split() + ["--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 4 and not caught
    assert re.fullmatch(rf"unsupported: roundoff budget eps max\|E\| t_max = \S+, set by "
                        rf"{options} and t_max_tj, is not below 2.5e-10: maps cannot hold "
                        rf"1e-09 here\n", err)
    assert out == "" and not (tmp_path / "runs").exists()


STEADY_TOL = "tol/4 = 0.00125: steady cannot hold its tol 0.005"


@pytest.mark.parametrize("line, tol", [
    # eps ||H|| t_max is 4e291: exit 3, "horizon too short", before
    ("steady --j-perp 1e-305 --horizon-tj 20", STEADY_TOL),
    # E t overflows: a warning and exit 3, "numerical failure", before
    ("steady --h 1e300 --j-perp 1e-300", STEADY_TOL),
    # a warning and exit 3, "doubling change nan", before
    ("fluct --j-perp 3e-306 --horizon-tj 40", "rtol/4 = 0.0025: fluct cannot hold its rtol 0.01"),
])
def test_steady_and_fluct_beyond_their_roundoff_budget_exit_4(tmp_path, capsys, line, tol):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run_cli(line.split() + ["--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 4 and not caught
    assert re.fullmatch(rf"unsupported: roundoff budget eps \|\|H\|\| t_max = \S+, set by n, h, "
                        rf"j_perp, j_par and horizon_tj, is not below {re.escape(tol)} here\n", err)
    assert out == "" and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("line", [
    # cos(2Bt) keeps no correct digit: exit 3, closed-form/MC disagreements, before
    "disorder --b 1e300",
    "disorder --omega=-1e300 --phi-dist trunc_tanh --a-phi 1e-3",
    "disorder --sigma-omega 1e20",
    "disorder --t-max 1e13",
])
def test_disorder_beyond_its_roundoff_budget_exits_4(tmp_path, capsys, line):
    rc, out, err = run_cli(line.split() + ["--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 4
    assert re.fullmatch(r"unsupported: roundoff budget eps \(2\|b\| \+ \|omega\| \+ 4 sigma_h \+ "
                        r"sigma_omega\) t_max = \S+, set by b, omega, sigma_h, sigma_omega and "
                        r"t_max, is not below 0.0001: disorder's phases 2ht and omega t keep "
                        r"fewer than four correct digits here\n", err)
    assert out == "" and not (tmp_path / "runs").exists()


def test_disorder_budget_runs_after_the_range_checks_and_below_its_limit(tmp_path, capsys):
    # a field out of range is still a configuration error
    rc, _, err = run_cli(["disorder", "--b", "1e300", "--sigma-h", "1e300",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2 and err.startswith("config error: sigma_h:")
    # eps (2e11 + 6) 2 = 8.9e-5 is below the limit: the run goes ahead
    rc, _, _ = run_cli(["disorder", "--b", "1e11", "--n-samples", "100", "--steps", "3",
                        "--outdir", str(tmp_path)], capsys)
    assert rc == 0


def test_maps_records_its_roundoff_budget(tmp_path, capsys):
    rc, out, _ = run_cli(["maps", "--h", "1e3", "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    spec = spinmaps.NetworkSpec(topology="ring", n=3, h=1e3, j_perp=1.0, j_par=1.0)
    energies = np.linalg.eigvalsh(spinmaps.network.build_hamiltonian(spec))
    expected = np.finfo(float).eps * np.abs(energies).max() * 10.0 * diag["t_j"]
    assert diag["roundoff_budget"] == pytest.approx(expected, rel=1e-12)
    assert diag["roundoff_budget"] < spinmaps.analytic.ROUNDOFF_LIMIT
    # the budget bounds the measured gap, within 4x where the gap is above roundoff
    err = diag["analytic_check"]["max_abs_err"]
    assert diag["roundoff_budget"] / 4 < err <= diag["roundoff_budget"]


def test_maps_oracle_disagreement_exits_3(tmp_path, capsys, monkeypatch):
    # a sign flipped in the complete graph's gaps: J_par enters as -J_par
    import spinmaps.analytic

    cc_params = spinmaps.analytic.cc_params
    monkeypatch.setattr(spinmaps.analytic, "cc_params",
                        lambda n, t, j_perp, j_par, h, env: cc_params(n, t, j_perp, -j_par, h, env))
    rc, out, err = run_cli(["maps", "--t-max-tj", "1", "--outdir", str(tmp_path)], capsys)
    assert rc == 3
    assert re.fullmatch(r"error: closed form and numeric maps disagree: max_abs_err \S+ > 1e-09\n",
                        err)
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    assert diag["analytic_check"]["max_abs_err"] > 1e-9


def test_maps_oracle_fails_on_a_nan_closed_form(tmp_path, capsys, monkeypatch):
    # every family gives every entry, so a NaN is a failed check, not an open entry
    import spinmaps.analytic

    closed_form = spinmaps.analytic.closed_form

    def one_nan(spec, site, env, t):
        out = closed_form(spec, site, env, t)
        out[-1, 1, 1] = np.nan
        return out

    monkeypatch.setattr(spinmaps.analytic, "closed_form", one_nan)
    rc, out, err = run_cli(["maps", "--t-max-tj", "1", "--outdir", str(tmp_path)], capsys)
    assert rc == 3
    assert err == "error: closed form and numeric maps disagree: max_abs_err nan > 1e-09\n"
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    assert math.isnan(diag["analytic_check"]["max_abs_err"])


def test_volume_rerun_is_byte_identical(tmp_path, capsys):
    bodies = []
    for sub in ("a", "b"):
        rc, out, _ = run_cli(["volume", "--samples", "100000", "--seed", "7",
                              "--outdir", str(tmp_path / sub)], capsys)
        assert rc == 0
        bodies.append((last_run_dir(out) / "data.csv").read_bytes())
    assert bodies[0] == bodies[1]


def test_volume_failed_pull_is_advisory(tmp_path, capsys, monkeypatch):
    # the pull verdict lands in diagnostics.json; the run still exits 0
    planted = dict(spinmaps.measure.VOLUME_EXACT, negative=math.pi / 7.0)
    monkeypatch.setattr(spinmaps.measure, "VOLUME_EXACT", planted)
    rc, out, err = run_cli(["volume", "--samples", "100000", "--seed", "0",
                            "--outdir", str(tmp_path)], capsys)
    assert rc == 0 and err == ""
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    assert diag["pass"] is False


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


def test_disorder_width_of_the_other_family_is_not_checked(tmp_path, capsys):
    # each family reads one width; the other one is not range-checked
    for line in ("--varphi 1e-170 --phi-dist trunc_tanh --a-phi 1", "--a-phi 1e-170"):
        rc, _, err = run_cli(["disorder"] + line.split() + ["--steps", "2", "--n-samples", "200",
                                                            "--outdir", str(tmp_path)], capsys)
        assert rc == 0, err


def test_disorder_trunc_tanh_needs_a_phi(tmp_path, capsys):
    rc, _, err = run_cli(["disorder", "--phi-dist", "trunc_tanh",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 2 and "a_phi" in err


def test_measure_quick_with_scatter(tmp_path, capsys):
    rc, out, _ = run_cli(["measure", "--steps", "12", "--t-max-tj", "5",
                          "--scatter-samples", "50",
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


def test_measure_overlay_is_the_exact_running_average(tmp_path, capsys):
    # the grid of the README measure line, whose first trajectory time is 0.1 t_J
    rc, out, _ = run_cli(["measure", "--steps", "60", "--t-max-tj", "30", "--seed", "0",
                          "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    with open(last_run_dir(out) / "data.csv") as fh:
        first = next(csv.DictReader(fh))
    # trapezoid running average at 4,000 points per t_J up to that time
    t_j = spinmaps.t_scale(1.0)
    t1 = float(first["t_over_tref"]) * t_j
    spec = spinmaps.NetworkSpec("complete", 3, h=spinmaps.GENERIC_H_RATIO, j_perp=1.0, j_par=0.0)
    grid = np.linspace(0.0, t1, int(round(4000 * t1 / t_j)) + 1)
    want = spinmaps.time_average(grid, spinmaps.network_series(spec, [1.0, 1 / 3, 2 / 3], grid))[-1]
    assert abs(float(first["lambda3_timeavg"]) - want[3, 3]) < 1e-6
    assert abs(float(first["tau3_timeavg"]) - want[3, 0]) < 1e-6


def test_grid_density_is_no_option_of_measure_or_quench(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--points-per-tj", "4", "--outdir", str(tmp_path / "runs")])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points_per_tj": 4}))
    rc, out, err = run_cli(["quench", "--config", str(cfg), "--outdir", str(tmp_path / "runs")],
                           capsys)
    assert rc == 2 and "config.points_per_tj: unknown field" in err
    assert out == "" and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("line, field", [
    ("--topology xx_pairs --n 4", "n"),
    ("--topology xx_pairs --h 0.3", "h"),
    ("--topology xx_pairs --j-perp 2", "j_perp"),
    ("--topology xx_pairs --j-par 0.5", "j_par"),
    ("--topology xx_pairs --state neel", "state"),
    ("--topology xx_pairs --z 0.5", "z"),
    ("--topology xx_pairs --z-list 0.1,0.2", "z_list"),
    ("--topology ring --n 4 --h1 7 --x2 0.3", "h1"),
    ("--topology ring --h2 0.1", "h2"),
    ("--topology complete --j 2", "j"),
    ("--topology ring --x2 0.3", "x2"),
    ("--topology ring --y2 0.3", "y2"),
    ("--topology complete --z2 0.5", "z2"),
])
def test_maps_refuses_flags_of_the_other_setup(tmp_path, capsys, line, field):
    rc, out, err = run_cli(["maps"] + line.split() + ["--outdir", str(tmp_path / "runs")],
                           capsys)
    assert rc == 2
    assert err.startswith(f"config error: {field}: ")
    assert out == "" and not (tmp_path / "runs").exists()


def test_quench_builds_one_engine(tmp_path, capsys, monkeypatch):
    built = []

    class Counted(spinmaps.ensemble.SpectralAverage):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(spinmaps.ensemble, "SpectralAverage", Counted)
    rc, _, _ = run_cli(["quench", "--n-cl", "20", "--window-tj", "5", "--t-eval-tj", "10",
                        "--outdir", str(tmp_path)], capsys)
    assert rc == 0
    assert len(built) == 1


def test_quench_quick_random_schedule(tmp_path, capsys):
    rc, out, _ = run_cli(["quench", "--n-cl", "40", "--window-tj", "10",
                          "--t-eval-tj", "20",
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


def test_quench_narrow_window_warns_without_a_python_warning(tmp_path):
    # a fresh process under Python's default warning filters, as a user runs it
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "spinmaps.cli", "quench", "--window-tj", "0.5",
                           "--n-cl", "5", "--outdir", str(tmp_path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("warning: switch-on times span less than one t_J")
    assert proc.stderr.count("\n") == 1
    assert "UserWarning" not in proc.stderr and ".py" not in proc.stderr


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


@pytest.mark.parametrize("line", [
    "--topology ring --n 4 --state neel",
    "--topology complete --n 3 --state custom --z-list 0.5,-0.5,0 --horizon-tj 40",
])
def test_fluct_converges_where_a_deviation_vanishes(tmp_path, capsys, line):
    # tau3 stays at its steady value 0 up to roundoff: the sup bound of its
    # deviation must see the eigenpairs at equal gaps cancel
    rc, out, err = run_cli(["fluct"] + line.split() + ["--outdir", str(tmp_path)], capsys)
    assert rc == 0, err
    diag = json.loads((last_run_dir(out) / "diagnostics.json").read_text())
    assert diag["converged"] and not diag["tau3_normalized"]
    assert diag["c_tau3"] < 1e-9


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1.0 / 3.0]


def float_bits(x: float) -> bytes:
    return struct.pack("<d", x)


def check_csv(text: str, header, float_columns) -> list:
    """Rows of an RFC 4180 table with CRLF ends read back by csv.reader;
    every field of the float columns reads as a double that prints as itself."""
    lines = text.split("\r\n")
    assert lines[-1] == "" and not any("\r" in line or "\n" in line for line in lines)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == list(header)
    assert all(len(row) == len(header) for row in rows)
    for row in rows[1:]:
        for k in float_columns:
            assert row[k] == format(float(row[k]), ".17g"), row[k]
    return rows[1:]


def test_render_csv_round_trips_every_double():
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=5000, dtype=np.uint64).view(np.float64)
    values = [v if not math.isnan(v) else math.nan for v in bits.tolist()]  # NaN: one payload
    values += rng.standard_normal(2000).tolist() + SPECIAL_FLOATS
    labels = [f"site{k % 7}" for k in range(len(values))]
    header = ("label", "x", "x_reversed")
    text = cli.render_csv(header, [labels, values, values[::-1]])
    rows = check_csv(text, header, (1, 2))
    assert len(rows) == len(values)
    for row, label, v, w in zip(rows, labels, values, values[::-1]):
        assert row[0] == label
        assert float_bits(float(row[1])) == float_bits(v)
        assert float_bits(float(row[2])) == float_bits(w)


@pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
def test_render_csv_refuses_a_field_that_needs_quoting(char):
    with pytest.raises(cli.InvariantError, match="would need quoting"):
        cli.render_csv(("t", "site"), [[0.0, 1.0], ["0", f"a{char}b"]])
    with pytest.raises(cli.InvariantError, match="would need quoting"):
        cli.render_csv(("t", f"si{char}te"), [[0.0], ["0"]])


def test_render_csv_keeps_a_column_to_one_kind():
    with pytest.raises(TypeError):
        cli.render_csv(("t",), [[0.5, "x"]])
    with pytest.raises(TypeError):
        cli.render_csv(("t",), [["x", 0.5]])


@pytest.mark.parametrize("argv, float_columns", [
    (["maps", "--t-max-tj", "1", "--points-per-tj", "5"], (0, 2, 3, 4, 5, 6)),
    # the closed_form column of a family without one is empty text
    (["disorder", "--phi-dist", "trunc_tanh", "--a-phi", "1e-3", "--steps", "3",
      "--n-samples", "200"], (0, 2, 3)),
    (["quench", "--n-cl", "5"], (2, 3, 4)),
])
def test_written_tables_are_rfc4180_with_exact_doubles(tmp_path, capsys, argv, float_columns):
    rc, out, _ = run_cli(argv + ["--outdir", str(tmp_path)], capsys)
    assert rc == 0
    text = (last_run_dir(out) / "data.csv").read_bytes().decode()
    rows = check_csv(text, text.split("\r\n", 1)[0].split(","), float_columns)
    if argv[0] == "disorder":
        assert {row[4] for row in rows} == {""}


def test_reused_parser_keeps_its_built_in_defaults(tmp_path, capsys):
    # one parser serves every main call of the process: a --config file's
    # values are its defaults for that call only, even one that argparse refuses
    def help_text():
        with pytest.raises(SystemExit):
            main(["maps", "--help"])
        return capsys.readouterr().out

    def manifest_config(argv):
        rc, out, err = run_cli(argv + ["--t-max-tj", "0.5", "--outdir", str(tmp_path)], capsys)
        assert rc == 0, err
        return json.loads((last_run_dir(out) / "manifest.json").read_text())["config"]

    built_in = {opt.dest: opt.defaults["maps"] for opt in cli.OPTIONS
                if "maps" in opt.defaults and opt.dest != "config"}
    built_in.update(t_max_tj=0.5, outdir=str(tmp_path))
    before = help_text()
    assert manifest_config(["maps"]) == built_in
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"n": 4, "j_par": 0.5}))
    bad.write_text(json.dumps({"n": "four", "j_par": 0.5}))  # argparse's int() refuses it
    config = manifest_config(["maps", "--config", str(good)])
    assert (config["n"], config["j_par"]) == (4, 0.5)
    assert manifest_config(["maps"]) == built_in
    with pytest.raises(SystemExit):
        main(["maps", "--config", str(bad), "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert manifest_config(["maps"]) == built_in
    assert help_text() == before
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("line", [
    # no Philox stream takes the seed here
    "volume --samples 100000 --seed 340282366920938463463374607431768211456",
    "quench --n-cl 5 --schedule random --seed 340282366920938463463374607431768211456",
])
def test_any_seed_runs_where_no_stream_is_keyed(tmp_path, capsys, line):
    rc, out, err = run_cli(line.split() + ["--outdir", str(tmp_path)], capsys)
    assert rc == 0 and err == "" and last_run_dir(out).is_dir()


def test_a_grid_an_array_can_hold_but_memory_cannot_is_out_of_memory(tmp_path, capsys):
    # 2e17 points: below the array limit, so the allocation itself fails
    rc, out, err = run_cli(["steady", "--horizon-tj", "1e16",
                            "--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 2 and err.startswith("config error: out of memory: ")
    assert out == "" and not (tmp_path / "runs").exists()


def test_a_cp_violation_stops_maps_without_a_run_directory(tmp_path, capsys, monkeypatch):
    # the numeric-only warning of a ring above the oracle's cap keeps its
    # place ahead of the stop
    monkeypatch.setattr(spinmaps.reduced.MapExtractor, "transfer",
                        lambda self, t: np.diag([1.0, 1.5, 1.5, 1.0]))
    rc, out, err = run_cli(["maps", "--topology", "ring", "--n", "9", "--t-max-tj", "0.1",
                            "--outdir", str(tmp_path / "runs")], capsys)
    assert rc == 3
    warning, stop = err.splitlines()
    assert warning == ("warning: running numeric-only (no closed form for (ring, N=9): "
                       "the ring oracle covers 3 <= N <= 8)")
    assert stop.startswith("invariant violation: CP violation at t=0.000 t_J, site 0: (l1=1.5")
    assert out == "" and not (tmp_path / "runs").exists()
