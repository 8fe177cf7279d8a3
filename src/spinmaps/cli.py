"""Run driver: each pipeline as a reproducible command emitting CSV/JSON.

Subcommands: maps, steady, fluct, disorder, measure, volume, quench. Each
cmd_* only computes and returns a RunOutput; main then claims
<outdir>/<command>-<timestamp>[-NN]/ and writes manifest.json (full config
echo, seed, tool version), the command's CSV files (RFC-4180, 17
significant digits) and diagnostics.json, and prints the directory. A run
that raises writes nothing; a failed verdict exits 3 after its files are
written. Bodies are byte-identical under a fixed (config, seed); only the
manifest carries the timestamp.

Config resolution: built-in defaults < JSON file (--config) < flags; the
merged horizons, grid densities, counts, tolerance and seed are then
checked once (_FIELD_CHECKS), and every float option must be finite. Exit
codes: 0 success, 2 config error (a run too large for memory included), 3
invariant violation or internal numerical failure, 4 unsupported
combination.

Times in data files are in units of t_J except the disorder command, whose
absolute t shares units with 1/B, 1/Omega (no exchange scale there).
Only maps, steady and fluct sample a time grid (--points-per-tj).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, analytic, disorder, ensemble, measure, network, qlinalg, reduced

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_UNSUPPORTED = 4

_STATES = ("hierarchy", "neel", "uniform", "custom")


class ConfigError(ValueError):
    pass


class InvariantError(RuntimeError):
    pass


def preset_state(n: int, state: str, z=None, z_list=None):
    """Initial z polarizations as exact Fractions: hierarchy (1, 1/n, ...,
    (n-1)/n), neel alternating +-1, uniform z, or a custom list. Given values
    are read through their decimal repr, so --z 0.2 is 1/5 and float() of it 0.2."""
    if state == "hierarchy":
        vals = [Fraction(1)] + [Fraction(k, n) for k in range(1, n)]
    elif state == "neel":
        vals = [Fraction(1 if k % 2 == 0 else -1) for k in range(n)]
    elif state == "uniform":
        if z is None:
            raise ConfigError("state.z: uniform preset needs --z")
        vals = [Fraction(str(z))] * n
    elif state == "custom":
        if z_list is None:
            raise ConfigError("state.z_list: custom preset needs --z-list")
        vals = [Fraction(str(v)) for v in z_list]
        if len(vals) != n:
            raise ConfigError(f"state.z_list: expected {n} values, got {len(vals)}")
    else:
        raise ConfigError(f"state: unknown preset {state!r} (choose from {_STATES})")
    for k, v in enumerate(vals):
        if abs(v) > 1:
            raise ConfigError(f"state.z[{k}]: |z| must be <= 1, got {float(v)}")
    return tuple(vals)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _start_run(cfg: dict, command: str) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = Path(cfg["outdir"]) / f"{command}-{stamp}"
    base.parent.mkdir(parents=True, exist_ok=True)
    path, k = base, 0
    while True:
        try:
            path.mkdir()  # exclusive: a concurrent run cannot claim the same name
            break
        except FileExistsError:
            k += 1
            path = Path(f"{base}-{k:02d}")
    _write_json(path / "manifest.json", {
        "command": command,
        "created": stamp,
        "seed": cfg.get("seed"),
        "config": cfg,
        "tool_version": __version__,
    })
    return path


def _read_config(path) -> dict:
    """The JSON object of a --config file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")
    return data


class RunOutput(NamedTuple):
    """What a command computed, for main to write: CSV tables by file name as
    (header, rows), the diagnostics.json object, and the failed verdict, if
    any, that exits 3 once the files are written."""

    tables: dict
    diagnostics: dict
    failure: str | None = None


def _uniform_grid(t_j: float, t_max_tj: float, points_per_tj: float):
    n_pts = int(round(t_max_tj * points_per_tj)) + 1
    return np.linspace(0.0, t_max_tj * t_j, n_pts)


def _horizon_grid(cfg: dict, t_j: float):
    """The grid to horizon_tj that steady and fluct average over: 2 points at least."""
    times = _uniform_grid(t_j, cfg["horizon_tj"], cfg["points_per_tj"])
    if times.size < 2:
        raise ConfigError(f"horizon_tj: must exceed half a grid step, got {cfg['horizon_tj']}")
    return times


def _network(cfg: dict, topology: str | None = None) -> network.NetworkSpec:
    """The NetworkSpec of the run's XXZ network.

    topology defaults to the run's --topology. quench has no XXZ couplings:
    its cluster is the complete graph with J_perp = J_par = 2j, the isotropic
    coupling j per pair, and its default field keeps the sign of j. Callers
    take t_J = t_scale(spec.j_perp) after any table check, so a command that
    needs a steady table exits 4 at J_perp = 0, where no network has one.
    """
    if "j_perp" in cfg:
        j_perp, j_par, scale = cfg["j_perp"], cfg["j_par"], abs(cfg["j_perp"])
    else:
        j_perp = j_par = scale = 2.0 * cfg["j"]
        topology = "complete"
    h = ensemble.GENERIC_H_RATIO * scale if cfg["h"] is None else cfg["h"]
    return network.NetworkSpec(topology=topology or cfg["topology"], n=int(cfg["n"]), h=h,
                               j_perp=j_perp, j_par=j_par)


def _steady(cfg: dict, spec: network.NetworkSpec):
    """(initial z, exact steady channel) of the run. A network without a
    table raises UnsupportedNetwork before the state is checked."""
    ensemble.steady_table(spec)
    z = preset_state(spec.n, cfg["state"], cfg["z"], cfg["z_list"])
    return z, ensemble.steady_channel(spec, z)


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def cmd_maps(cfg: dict, defaults: dict) -> RunOutput:
    # what only the other setup reads keeps its built-in (not --config) default
    pair = cfg["topology"] == "xx_pairs"
    unread = ("n", "h", "j_perp", "j_par", "state", "z", "z_list") if pair else (
        "h1", "h2", "j", "x2", "y2", "z2")
    for name in unread:
        if cfg[name] != defaults[name]:
            raise ConfigError(f"{name}: not read with --topology {cfg['topology']}")
    if pair:
        if cfg["z2"] is None:
            # longest partner vector consistent with the transverse components
            planar = cfg["x2"] ** 2 + cfg["y2"] ** 2
            cfg["z2"] = math.sqrt(max(1.0 - planar, 0.0))
        partner = (cfg["x2"], cfg["y2"], cfg["z2"])
        if math.hypot(math.hypot(*partner[:2]), partner[2]) > 1.0 + 1e-12:
            raise ConfigError("x2: partner Bloch vector (x2, y2, z2) longer than 1")
        spec = network.NetworkSpec(
            topology="xx_pairs", n=2,
            pairs=(network.PairSpec(h1=cfg["h1"], h2=cfg["h2"], j=cfg["j"]),))
        t_j = network.t_scale(cfg["j"])
        envs = {0: [partner]}  # site 0 is focal; the partner is its environment
    else:
        spec = _network(cfg)
        z = [float(v) for v in preset_state(spec.n, cfg["state"], cfg["z"], cfg["z_list"])]
        t_j = network.t_scale(spec.j_perp)
        envs = {s: [(0.0, 0.0, z[k]) for k in range(spec.n) if k != s] for s in range(spec.n)}

    times = _uniform_grid(t_j, cfg["t_max_tj"], cfg["points_per_tj"])
    evolver = qlinalg.HermitianEvolver(network.build_hamiltonian(spec))
    extractors = [reduced.MapExtractor(evolver, s, env) for s, env in envs.items()]
    try:
        oracle = np.stack([analytic.closed_form(spec, s, env, times) for s, env in envs.items()])
        analytic_reason = None
    except ensemble.UnsupportedNetwork as exc:
        oracle, analytic_reason = None, str(exc)
        print(f"warning: running numeric-only ({analytic_reason})", file=sys.stderr)

    # maps[i, k]: site i at times[k]; the last row is their network average
    maps = np.empty((len(extractors) + 1, times.size, 4, 4))
    for k, t in enumerate(times):
        for i, extractor in enumerate(extractors):
            maps[i, k] = extractor.transfer(t)
    maps[-1] = ensemble.network_average(maps[:-1])
    p = reduced.fit_pc(maps)
    labels = [str(s) for s in envs] + ["avg"]
    bad = np.argwhere(~reduced.cp_ok(p.lambda1, p.tau3, p.lambda3, tol=1e-9).T)
    if bad.size:  # the first failure in row order: by time, sites before the average
        k, i = bad[0]
        at = f"t={times[k] / t_j:.3f} t_J"
        if labels[i] == "avg":
            raise InvariantError(f"CP violation in network average at {at}")
        raise InvariantError(
            f"CP violation at {at}, site {labels[i]}: (l1={float(p.lambda1[i, k])}, "
            f"tau3={float(p.tau3[i, k])}, l3={float(p.lambda3[i, k])})")

    columns = [c.T.tolist() for c in (p.lambda1, p.theta, p.lambda3, p.tau3, p.residual)]
    rows = [(_fmt(t / t_j), label, *(_fmt(c[k][i]) for c in columns))
            for k, t in enumerate(times) for i, label in enumerate(labels)]
    max_resid = float(p.residual[:-1].max())
    analytic_check = None if oracle is None else {
        "max_abs_err": float(np.nanmax(np.abs(oracle - maps[:-1])))}

    header = ("t_over_tj", "site", "lambda1", "theta", "lambda3", "tau3", "residual")
    return RunOutput({"data.csv": (header, rows)}, {
        "phase_covariant": bool(max_resid < 1e-8),
        "max_residual": max_resid,
        "analytic_check": analytic_check,
        "analytic_skip_reason": analytic_reason,
        "t_j": t_j,
    })


# ---------------------------------------------------------------------------
# steady
# ---------------------------------------------------------------------------

def cmd_steady(cfg: dict) -> RunOutput:
    spec = _network(cfg)
    z, steady = _steady(cfg, spec)
    fixed = reduced.fixed_point(reduced.PCParams(0.0, 0.0, steady.lambda3, steady.tau3))
    t_j = network.t_scale(spec.j_perp)
    times = _horizon_grid(cfg, t_j)
    series = ensemble.network_series(spec, z, times)
    running = reduced.fit_pc(ensemble.time_average(times, series))
    l3s, t3s, l1s = running.lambda3.tolist(), running.tau3.tolist(), running.lambda1.tolist()

    num_l3, num_t3, num_l1 = l3s[-1], t3s[-1], l1s[-1]
    diff_l3 = abs(num_l3 - steady.lambda3)
    diff_t3 = abs(num_t3 - steady.tau3)

    rows = [(_fmt(t / t_j), _fmt(l3), _fmt(t3), _fmt(l1))
            for t, l3, t3, l1 in zip(times, l3s, t3s, l1s)]
    diagnostics = {
        "exact": {
            "lambda3": steady.lambda3, "tau3": steady.tau3,
            "lambda3_fraction": str(steady.lambda3_exact),
            "tau3_fraction": str(steady.tau3_exact),
            "coeffs": {str(k): str(v) for k, v in steady.coeffs.items()},
        },
        "numeric": {"lambda3": num_l3, "tau3": num_t3, "lambda1": num_l1},
        "abs_diff": {"lambda3": diff_l3, "tau3": diff_t3},
        "constraint_ok": steady.constraint_ok(),
        # late-time invariant Bloch z and inverse temperature (null: infinite)
        "fixed_point": {"a_star": fixed.a_star, "degenerate": fixed.degenerate,
                        "beta_star": None if math.isinf(fixed.beta_star) else fixed.beta_star},
        "horizon_tj": cfg["horizon_tj"],
        "tol": cfg["tol"],
        "pass": bool(diff_l3 < cfg["tol"] and diff_t3 < cfg["tol"]),
    }
    header = ("t_over_tj", "lambda3_avg", "tau3_avg", "lambda1_avg")
    return RunOutput({"data.csv": (header, rows)}, diagnostics,
                     None if diagnostics["pass"] else
                     f"horizon too short: |diff| = ({diff_l3:.2e}, {diff_t3:.2e}) "
                     f"> tol {cfg['tol']}")


# ---------------------------------------------------------------------------
# fluct
# ---------------------------------------------------------------------------

def cmd_fluct(cfg: dict) -> RunOutput:
    spec = _network(cfg)
    z, steady = _steady(cfg, spec)
    t_j = network.t_scale(spec.j_perp)
    times = _horizon_grid(cfg, t_j)
    if not np.any(times / t_j > cfg["onset_tj"]):  # converged_fluctuations' own test
        raise ConfigError(f"onset_tj: must be below horizon_tj, got {cfg['onset_tj']}")
    series = ensemble.converged_fluctuations(ensemble.SpectralAverage(spec, z), steady, t_j,
                                             times, onset=cfg["onset_tj"])
    rtol = ensemble.FLUCT_RTOL
    converged = bool(series.rel_change < rtol and series.sup_gap < rtol)

    rows = [(_fmt(series.t_over_tj[k]), _fmt(series.delta_lambda3[k]),
             _fmt(series.delta_tau3[k]))
            for k in range(series.t_over_tj.size)]
    diagnostics = {
        "c_lambda3": series.c_lambda3,
        "c_tau3": series.c_tau3,
        "lambda3_normalized": series.lambda3_normalized,
        "tau3_normalized": series.tau3_normalized,
        "onset_tj": series.onset,
        "n": series.n,
        "steady": {"lambda3": steady.lambda3, "tau3": steady.tau3},
        "sup_points_per_tj": series.points_per_tj,
        "rel_change": series.rel_change,
        "sup_gap": series.sup_gap,
        "rtol": rtol,
        "converged": converged,
    }
    header = ("t_over_tj", "delta_lambda3", "delta_tau3")
    return RunOutput({"data.csv": (header, rows)}, diagnostics,
                     None if converged else
                     f"fluctuation constants not converged: doubling change "
                     f"{series.rel_change:.2e}, sup gap {series.sup_gap:.2e} "
                     f"(rtol {rtol}); start finer with --points-per-tj")


# ---------------------------------------------------------------------------
# disorder
# ---------------------------------------------------------------------------

def _check_width(cfg: dict, name: str, least: float):
    # checked with the family that reads it: the other family's width is unread
    if not cfg[name] >= least:
        raise ConfigError(f"{name}: must be at least {least}, got {cfg[name]}")


def _disorder_spec(cfg):
    common = dict(B=cfg["b"], Omega=cfg["omega"],
                  sigma_h=cfg["sigma_h"], sigma_omega=cfg["sigma_omega"])
    if cfg["phi_dist"] == "gaussian":
        _check_width(cfg, "varphi", disorder.MIN_VARPHI)
        return disorder.DisorderSpec.from_varphi(varphi=cfg["varphi"], **common)
    if cfg["phi_dist"] == "trunc_tanh":
        if cfg["a_phi"] is None:
            raise ConfigError("a_phi: trunc_tanh family needs --a-phi")
        _check_width(cfg, "a_phi", disorder.MIN_A_PHI)
        return disorder.DisorderSpec(phi_dist="trunc_tanh", a_phi=cfg["a_phi"], **common)
    raise ConfigError(f"phi_dist: unknown family {cfg['phi_dist']!r}")


def cmd_disorder(cfg: dict) -> RunOutput:
    spec = _disorder_spec(cfg)
    n_samples, seed, z2 = int(cfg["n_samples"]), int(cfg["seed"]), float(cfg["z2"])
    rows = []
    flagged = []
    for t in np.linspace(0.0, cfg["t_max"], int(cfg["steps"])):
        for c in disorder.disorder_components(spec, float(t), z2, n_samples, seed):
            cf = "" if c.closed_form is None else _fmt(c.closed_form)
            rows.append((_fmt(t), c.name, _fmt(c.mc_mean), _fmt(c.mc_stderr), cf))
            if c.flagged:
                flagged.append({"t": float(t), "component": c.name,
                                "closed_form": c.closed_form,
                                "mc_mean": c.mc_mean, "mc_stderr": c.mc_stderr})

    diagnostics = {"flagged": flagged, "phi_dist": spec.phi_dist}
    if spec.phi_dist != "gaussian":
        diagnostics.update(disorder.sin2_phi_headroom(spec, n_samples, seed))

    header = ("t", "component", "mc_mean", "mc_stderr", "closed_form")
    return RunOutput({"data.csv": (header, rows)}, diagnostics,
                     f"{len(flagged)} closed-form/MC disagreements beyond "
                     f"{disorder.PULL_LIMIT:g} stderr (see diagnostics.json)" if flagged else None)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def cmd_measure(cfg: dict) -> RunOutput:
    topology = {"cc": "complete", "ring": "ring"}.get(cfg["preset"])
    if topology is None:
        raise ConfigError(f"preset: unknown preset {cfg['preset']!r} (cc or ring)")
    spec = _network(cfg, topology)
    z, steady = _steady(cfg, spec)

    if cfg["t_max_tj"] <= measure.T_FIRST:
        raise ConfigError(f"t_max_tj: must exceed {measure.T_FIRST}, got {cfg['t_max_tj']}")
    times_tj = measure.time_grid(cfg["t_max_tj"], int(cfg["steps"]))
    mspec = measure.MeasureSpec.from_steady(steady, times=tuple(times_tj),
                                            C=cfg["c"], tau3_rule=cfg["tau3_rule"])
    traj = measure.trajectory_sample(mspec, int(cfg["seed"]))  # refuses non-CP triples itself

    header = ["t_over_tref", "lambda3", "tau3", "lambda1"]
    columns = [[_fmt(t) for t in times_tj],
               [_fmt(p.lambda3) for p in traj],
               [_fmt(p.tau3) for p in traj],
               [_fmt(p.lambda1) for p in traj]]
    if cfg["overlay"]:
        # the exact running average at the trajectory's own times
        running = ensemble.SpectralAverage(spec, z)(times_tj * network.t_scale(spec.j_perp))
        header += ["lambda3_timeavg", "tau3_timeavg"]
        columns += [[_fmt(v) for v in running[:, 3, 3]], [_fmt(v) for v in running[:, 3, 0]]]
    tables = {"data.csv": (header, list(zip(*columns)))}

    if int(cfg["scatter_samples"]) > 0:
        rng = np.random.default_rng(int(cfg["seed"]))
        scatter = []
        for _ in range(int(cfg["scatter_samples"])):
            evs = measure.eigenvalues_pc(measure.uniform_sample(rng))
            for which, ev in zip(("rot+", "rot-", "l3"), evs[1:]):
                scatter.append(("pc", which, _fmt(ev.real), _fmt(ev.imag)))
            evb = measure.eigenvalues_broken(measure.broken_uniform_sample(rng))
            for which, ev in zip(("mu+", "mu-", "l3"), evb[1:]):
                scatter.append(("broken", which, _fmt(ev.real), _fmt(ev.imag)))
        tables["eigenvalues.csv"] = (("family", "which", "re", "im"), scatter)
    return RunOutput(tables, {
        "mu_lambda3": mspec.mu_lambda3, "mu_tau3": mspec.mu_tau3,
        "sigma_first": mspec.sigma(times_tj[0]),
        "sigma_last": mspec.sigma(times_tj[-1]),
        "all_cp": True,
    })


# ---------------------------------------------------------------------------
# volume
# ---------------------------------------------------------------------------

def cmd_volume(cfg: dict) -> RunOutput:
    v = measure.volume_mc(int(cfg["samples"]), int(cfg["seed"]))
    exact = {"total": 16.0 / 9.0, "negative": math.pi / 6.0,
             "positive": 16.0 / 9.0 - math.pi / 6.0}
    rows = []
    pulls = {}
    for region in ("total", "negative", "positive"):
        est = getattr(v, region)
        err = getattr(v, region + "_err")
        pulls[region] = (est - exact[region]) / err if err > 0 else 0.0
        rows.append((region, _fmt(est), _fmt(err), _fmt(exact[region]),
                     _fmt(pulls[region])))
    header = ("region", "estimate", "stderr", "exact", "pull")
    return RunOutput({"data.csv": (header, rows)}, {
        "estimate": v.as_dict(),
        "pulls": pulls,
        "pass": bool(all(abs(p) < 3.0 for p in pulls.values())),
    })


# ---------------------------------------------------------------------------
# quench
# ---------------------------------------------------------------------------

def cmd_quench(cfg: dict) -> RunOutput:
    spec = _network(cfg)
    z = preset_state(spec.n, cfg["state"], cfg["z"], cfg["z_list"])
    t_j = network.t_scale(spec.j_perp)
    n_cl = int(cfg["n_cl"])
    if cfg["schedule"] == "staggered":
        schedule = np.linspace(0.0, cfg["window_tj"] * t_j, n_cl)
    elif cfg["schedule"] == "random":
        rng = np.random.default_rng(int(cfg["seed"]))
        schedule = rng.uniform(0.0, cfg["window_tj"] * t_j, n_cl)
    else:
        raise ConfigError("schedule: expected 'staggered' or 'random'")
    t_eval = cfg["t_eval_tj"] * t_j
    average = ensemble.SpectralAverage(spec, z, sites=(0,))
    cluster_avg = ensemble.quench_demo(average, schedule, t_eval, t_j)
    # reference: the exact running average of site 0 in one always-coupled cluster
    reference = average([t_eval])[0]

    diff = np.abs(cluster_avg - reference)
    rows = [(str(i), str(jj), _fmt(cluster_avg[i, jj]), _fmt(reference[i, jj]),
             _fmt(diff[i, jj])) for i in range(4) for jj in range(4)]
    header = ("row", "col", "cluster_avg", "time_avg", "abs_diff")
    return RunOutput({"data.csv": (header, rows)}, {
        "max_abs_diff": float(diff.max()),
        "n_cl": n_cl, "window_tj": cfg["window_tj"], "t_eval_tj": cfg["t_eval_tj"],
        "schedule": cfg["schedule"], "t_j": t_j,
    })


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",")]


def _add_command(sub, name: str, func, help: str):
    """Subparser for one command, with the options every command shares."""
    sp = sub.add_parser(name, help=help)
    sp.add_argument("--config", help="JSON config file; flags override it")
    sp.add_argument("--outdir", default="runs", help="output root (default runs/)")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=func)
    return sp


def _add_network_flags(sp, n: int, state: str, z=None, topology=None,
                       j_par=1.0, xxz=True):
    """--n, the field --h and the initial state; --topology when it has a
    default here, and the XXZ couplings --j-perp/--j-par when xxz is set."""
    if topology is not None:
        sp.add_argument("--topology", choices=("complete", "ring", "xx_pairs"),
                        default=topology)
    sp.add_argument("--n", type=int, default=n)
    sp.add_argument("--h", type=float, help="uniform field (default: generic)")
    if xxz:
        sp.add_argument("--j-perp", dest="j_perp", type=float, default=1.0)
        sp.add_argument("--j-par", dest="j_par", type=float, default=j_par)
    sp.add_argument("--state", choices=_STATES, default=state)
    sp.add_argument("--z", type=float, default=z)
    sp.add_argument("--z-list", dest="z_list", type=_float_list)



def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinmaps",
        description="ensembles of reduced qubit maps from small spin networks")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for --config
    # Defaults keep their literal types (points_per_tj 20, not 20.0): the
    # manifest echoes the configuration as parsed.

    # ring + J_par = J_perp is the reference figure setup; the 3-ring is the
    # 3-clique, so the N=3 default reproduces the complete-graph series too.
    sp = _add_command(sub, "maps", None, "per-site map parameter time series")
    _add_network_flags(sp, n=3, state="hierarchy", topology="ring")
    sp.add_argument("--h1", type=float, default=1.0)
    sp.add_argument("--h2", type=float, default=0.5)
    sp.add_argument("--j", type=float, default=1.0)
    sp.add_argument("--x2", type=float, default=0.0)
    sp.add_argument("--y2", type=float, default=0.0)
    sp.add_argument("--z2", type=float)
    sp.add_argument("--t-max-tj", dest="t_max_tj", type=float, default=10.0)
    sp.add_argument("--points-per-tj", dest="points_per_tj", type=float, default=20)
    # the built-in defaults, read before a --config file replaces the parser's own
    builtin = {action.dest: action.default for action in sp._actions}
    sp.set_defaults(func=lambda cfg: cmd_maps(cfg, builtin))

    sp = _add_command(sub, "steady", cmd_steady, "long-time averages vs exact tables")
    _add_network_flags(sp, n=3, state="hierarchy", topology="complete")
    sp.add_argument("--horizon-tj", dest="horizon_tj", type=float, default=200.0)
    sp.add_argument("--points-per-tj", dest="points_per_tj", type=float, default=20)
    sp.add_argument("--tol", type=float, default=5e-3)

    sp = _add_command(sub, "fluct", cmd_fluct, "running-average fluctuation constants")
    _add_network_flags(sp, n=4, state="uniform", z=0.2, topology="complete")
    sp.add_argument("--horizon-tj", dest="horizon_tj", type=float, default=200.0)
    sp.add_argument("--points-per-tj", dest="points_per_tj", type=float, default=20)
    sp.add_argument("--onset-tj", dest="onset_tj", type=float, default=20.0)

    sp = _add_command(sub, "disorder", cmd_disorder,
                      "disorder-averaged pair maps, MC vs closed form")
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--sigma-h", dest="sigma_h", type=float, default=1.0)
    sp.add_argument("--sigma-omega", dest="sigma_omega", type=float, default=1.0)
    sp.add_argument("--phi-dist", dest="phi_dist", choices=("gaussian", "trunc_tanh"),
                    default="gaussian")
    sp.add_argument("--varphi", type=float, default=3.0)
    sp.add_argument("--a-phi", dest="a_phi", type=float)
    sp.add_argument("--z2", type=float, default=1.0)
    sp.add_argument("--t-max", dest="t_max", type=float, default=2.0)
    sp.add_argument("--steps", type=int, default=21)
    sp.add_argument("--n-samples", dest="n_samples", type=int, default=10000)

    sp = _add_command(sub, "measure", cmd_measure,
                      "trajectory measure over CP channel params")
    _add_network_flags(sp, n=3, state="hierarchy", j_par=0.0)
    sp.add_argument("--preset", choices=("cc", "ring"), default="cc")
    sp.add_argument("--c", type=float, default=1.0)
    sp.add_argument("--t-max-tj", dest="t_max_tj", type=float, default=60.0)
    sp.add_argument("--steps", type=int, default=120)
    sp.add_argument("--tau3-rule", dest="tau3_rule", choices=("symmetric", "signed"),
                    default="symmetric")
    sp.add_argument("--overlay", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--scatter-samples", dest="scatter_samples", type=int, default=0)

    sp = _add_command(sub, "volume", cmd_volume, "MC volume of the CP region")
    sp.add_argument("--samples", type=int, default=10**6)

    sp = _add_command(sub, "quench", cmd_quench, "staggered-quench cluster average demo")
    _add_network_flags(sp, n=3, state="uniform", z=1.0, xxz=False)
    sp.add_argument("--n-cl", dest="n_cl", type=int, default=400)
    sp.add_argument("--j", type=float, default=1.0)
    sp.add_argument("--window-tj", dest="window_tj", type=float, default=50.0)
    sp.add_argument("--t-eval-tj", dest="t_eval_tj", type=float, default=100.0)
    # staggered: evenly spaced over the window; random: iid uniform over it
    sp.add_argument("--schedule", choices=("staggered", "random"), default="staggered")
    return parser


# namespace entries that are not part of a run's configuration
_NOT_CONFIG = ("command", "func", "config")


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}


def _finite(v) -> bool:
    """math.isfinite, False for an integer too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


# ranges shared by every command that has the field: (fields, check, requirement)
_FIELD_CHECKS = (
    (("t_max_tj", "horizon_tj", "t_eval_tj", "t_max", "window_tj", "onset_tj"),
     lambda v: _finite(v) and v >= 0, "must be finite and >= 0"),
    (("points_per_tj", "tol", "c"), lambda v: _finite(v) and v > 0, "must be finite and > 0"),
    (("steps", "n_cl"), lambda v: v >= 1, "must be at least 1"),
    # one dense 2^16 register matrix is already 64 GiB
    (("n",), lambda v: v <= 16, "must be at most 16"),
    (("scatter_samples", "seed"), lambda v: v >= 0, "must be >= 0"),
    # a partner's polarization, with the 1e-12 slack of analytic.xx_reduced_map's norm test
    (("z2",), lambda v: v is None or v * v <= 1.0 + 1e-12, "must be in [-1, 1]"),
    (("samples",), lambda v: v >= measure.MIN_VOLUME_SAMPLES,
     f"must be at least {measure.MIN_VOLUME_SAMPLES}"),
    (("n_samples",), lambda v: v >= disorder.MIN_SAMPLES,
     f"must be at least {disorder.MIN_SAMPLES}"),
)


def _check_fields(cfg: dict, command: argparse.ArgumentParser):
    """ConfigError for the first value out of range: the _FIELD_CHECKS, then
    any float option (or float list) of the command that is set but not finite."""
    for fields, ok, requirement in _FIELD_CHECKS:
        for name in fields:
            if name in cfg and not ok(cfg[name]):
                raise ConfigError(f"{name}: {requirement}, got {cfg[name]}")
    for action in command._actions:
        value = cfg.get(action.dest)
        if value is None or action.type not in (float, _float_list):
            continue
        if not all(map(_finite, value if action.type is _float_list else [value])):
            raise ConfigError(f"{action.dest}: must be finite, got {value}")


def _config_type_error(action: argparse.Action, value):
    """Why a --config value does not fit its option, or None if it does.

    A string goes through the option's converter, like the text of a flag;
    null stands for an option that has no default. Any other value must
    already have the JSON type the option parses to.
    """
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if isinstance(action, argparse.BooleanOptionalAction):
        want, ok = "true or false", isinstance(value, bool)
    elif isinstance(value, str) or (value is None and action.default is None):
        return None
    elif action.type is int:
        want, ok = "an integer", number(value) and isinstance(value, int)
    elif action.type is float:
        want, ok = "a number", number(value)
    elif action.type is _float_list:
        want, ok = "a list of numbers", isinstance(value, list) and all(map(number, value))
    else:
        want, ok = "a string", False
    return None if ok else f"expected {want}, got {json.dumps(value)}"


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # built-in defaults < file < flags: the file's values become the
            # command's defaults and argv is parsed again over them
            data = _read_config(args.config)
            fields = _config(args)
            command = parser.commands[args.command]
            actions = {action.dest: action for action in command._actions}
            for key, value in data.items():
                if key not in fields:
                    raise ConfigError(f"config.{key}: unknown field for this command")
                problem = _config_type_error(actions[key], value)
                if problem is not None:
                    raise ConfigError(f"config.{key}: {problem}")
            command.set_defaults(**data)
            args = parser.parse_args(argv)
        cfg = _config(args)
        _check_fields(cfg, parser.commands[args.command])
        result = args.func(cfg)
        out = _start_run(cfg, args.command)  # after the command: cfg holds what it set
        for name, (header, rows) in result.tables.items():
            with open(out / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        _write_json(out / "diagnostics.json", result.diagnostics)
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ensemble.UnsupportedNetwork as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except qlinalg.NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:  # ConfigError, invalid JSON and the library's input checks
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(out)
    if result.failure is not None:
        print(f"error: {result.failure}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
