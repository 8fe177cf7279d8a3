"""Run driver: each pipeline as a reproducible command emitting CSV/JSON.

Subcommands: maps, steady, fluct, disorder, measure, volume, quench. Each
cmd_* only computes and returns a RunOutput whose tables are columns:
floats, or text labels. main renders every table, then claims
<outdir>/<command>-<timestamp>[-NN]/ and writes manifest.json (full config
echo, seed, tool version), the command's CSV files and diagnostics.json,
and prints the directory. One renderer writes every CSV: a per-row
%-template, "%.17g" for a float (format(x, ".17g"), enough digits to read
the same double back) and "%s" for a label, CRLF line ends, one write per
file. Labels never need RFC 4180 quoting; one that would is refused. A run
that raises writes nothing; a failed verdict exits 3 after its files are
written. Bodies are byte-identical under a fixed (config, seed); only the
manifest carries the timestamp.

Every option is declared once, in OPTIONS: its flag, type, default per
command, range checks, choices, the `maps` setup that reads it and its help.
The parser, the --config type checks and the range checks all read it. The
parser is built on the first main call and reused by every later call in
the process; a --config file's defaults are set on it for one call only.

Config resolution: built-in defaults < JSON file (--config) < flags; the
merged values are then checked once, range by range in RANGES order. Exit
codes: 0 success, 2 config error (a run too large for memory included), 3
invariant violation or internal numerical failure, 4 unsupported
combination.

Times in data files are in units of t_J except the disorder command, whose
absolute t shares units with 1/B, 1/Omega (no exchange scale there).
Only maps, steady and fluct sample a time grid (--points-per-tj).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import shutil
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

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


# a text field with any of these would need RFC 4180 quoting
_NEEDS_QUOTES = (",", '"', "\r", "\n")


def render_csv(header, columns) -> str:
    """One CSV table as text: the header, then a row per index of the
    columns, each row one %-template with CRLF line ends.

    A column whose first field is a str is text ("%s") and every field of
    it must be a str; any other column holds floats ("%.17g", the bytes of
    format(x, ".17g")). A text field that would need RFC 4180 quoting raises
    InvariantError: no label the commands write holds a delimiter, a quote
    or a line break.
    """
    kinds = ["%s" if len(col) and isinstance(col[0], str) else "%.17g" for col in columns]
    for col in [header] + [col for col, kind in zip(columns, kinds) if kind == "%s"]:
        joined = "".join(col)  # TypeError for a field that is not a str
        if any(c in joined for c in _NEEDS_QUOTES):
            field = next(v for v in col if any(c in v for c in _NEEDS_QUOTES))
            raise InvariantError(f"CSV field {field!r} would need quoting")
    template = ",".join(kinds) + "\r\n"
    return ",".join(header) + "\r\n" + "".join([template % row for row in zip(*columns)])


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _start_run(cfg: dict, command: str) -> Path:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
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
    (header, columns) for render_csv, the diagnostics.json object, and the
    failed verdict, if any, that exits 3 once the files are written."""

    tables: dict
    diagnostics: dict
    failure: str | None = None


def _uniform_grid(t_j: float, t_max_tj: float, points_per_tj: float):
    n_pts = int(round(t_max_tj * points_per_tj)) + 1
    return np.linspace(0.0, t_max_tj * t_j, n_pts)


def _horizon_grid(cfg: dict, t_j: float):
    """The grid to horizon_tj that steady and fluct average over: 2 points at
    least, and for fluct a point past onset_tj (converged_fluctuations' own test)."""
    times = _uniform_grid(t_j, cfg["horizon_tj"], cfg["points_per_tj"])
    if times.size < 2:
        raise ConfigError(f"horizon_tj: must exceed half a grid step, got {cfg['horizon_tj']}")
    if "onset_tj" in cfg and not np.any(times / t_j > cfg["onset_tj"]):
        raise ConfigError(f"onset_tj: must be below horizon_tj, got {cfg['onset_tj']}")
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


def _steady_run(cfg: dict, tol: float, name: str, command: str):
    """(spec, z, exact steady channel, t_J, averaging grid) of a steady or
    fluct run; UnsupportedNetwork where the roundoff budget eps ||H|| t_max of
    the phases e^{-iEt} is not below tol/4, a 4x margin under the command's
    tolerance `name`. ||H|| <= N|h| + sum over bonds of |J_perp| + |J_par|/2,
    in Python floats: an overflow gives inf, without a warning."""
    spec = _network(cfg)
    z, steady = _steady(cfg, spec)
    t_j = network.t_scale(spec.j_perp)
    times = _horizon_grid(cfg, t_j)
    norm = spec.n * abs(spec.h) + sum(abs(jp) + abs(jz) / 2 for _, _, jp, jz in spec.bonds)
    budget = sys.float_info.epsilon * norm * float(times[-1])
    if not budget < tol / 4:
        raise ensemble.UnsupportedNetwork(
            f"roundoff budget eps ||H|| t_max = {budget:.2e}, set by n, h, j_perp, j_par and "
            f"horizon_tj, is not below {name}/4 = {tol / 4:g}: {command} cannot hold its "
            f"{name} {tol:g} here")
    return spec, z, steady, t_j, times


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

ORACLE_TOL = 1e-9  # how far maps may be from their closed form
# the roundoff budget eps max|E| t_max below which ORACLE_TOL holds with a 4x margin
ROUNDOFF_LIMIT = 2.5e-10


def cmd_maps(cfg: dict) -> RunOutput:
    # what only the other setup reads keeps its built-in (not --config) default
    setup = "pair" if cfg["topology"] == "xx_pairs" else "network"
    for opt in _BY_COMMAND["maps"]:
        if opt.setup not in (None, setup) and cfg[opt.dest] != opt.defaults["maps"]:
            raise ConfigError(f"{opt.dest}: not read with --topology {cfg['topology']}")
    if setup == "pair":
        if cfg["z2"] is None:
            # longest partner vector consistent with the transverse components
            planar = cfg["x2"] ** 2 + cfg["y2"] ** 2
            cfg["z2"] = math.sqrt(max(1.0 - planar, 0.0))
        try:
            partner = qlinalg.bloch_vector((cfg["x2"], cfg["y2"], cfg["z2"]))
        except ValueError:
            raise ConfigError("x2: partner Bloch vector (x2, y2, z2) longer than 1") from None
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
    # the phases e^{-iEt} of both sides carry an absolute error of about eps |E| t
    budget = sys.float_info.epsilon * float(np.abs(evolver.energies).max()) * float(times[-1])
    if not budget < ROUNDOFF_LIMIT:
        options = "h1, h2, j" if setup == "pair" else "h, j_perp, j_par"
        raise ensemble.UnsupportedNetwork(
            f"roundoff budget eps max|E| t_max = {budget:.2e}, set by {options} and t_max_tj, "
            f"is not below {ROUNDOFF_LIMIT:g}: maps cannot hold {ORACLE_TOL:g} here")
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

    # rows by time, then by label
    columns = [np.repeat(times / t_j, len(labels)).tolist(), labels * times.size]
    columns += [c.T.ravel().tolist() for c in (p.lambda1, p.theta, p.lambda3, p.tau3, p.residual)]
    max_resid = float(p.residual[:-1].max())
    analytic_check = None if oracle is None else {
        "max_abs_err": float(np.max(np.abs(oracle - maps[:-1])))}

    header = ("t_over_tj", "site", "lambda1", "theta", "lambda3", "tau3", "residual")
    return RunOutput({"data.csv": (header, columns)}, {
        "phase_covariant": bool(max_resid < 1e-8),
        "max_residual": max_resid,
        "analytic_check": analytic_check,
        "analytic_skip_reason": analytic_reason,
        "roundoff_budget": budget,
        "t_j": t_j,
    }, None if analytic_check is None or analytic_check["max_abs_err"] <= ORACLE_TOL else
        f"closed form and numeric maps disagree: max_abs_err "
        f"{analytic_check['max_abs_err']:.2e} > {ORACLE_TOL:g}")


# ---------------------------------------------------------------------------
# steady
# ---------------------------------------------------------------------------

def cmd_steady(cfg: dict) -> RunOutput:
    spec, z, steady, t_j, times = _steady_run(cfg, cfg["tol"], "tol", "steady")
    fixed = reduced.fixed_point(reduced.PCParams(0.0, 0.0, steady.lambda3, steady.tau3))
    series = ensemble.network_series(spec, z, times)
    running = reduced.fit_pc(ensemble.time_average(times, series))
    l3s, t3s, l1s = running.lambda3.tolist(), running.tau3.tolist(), running.lambda1.tolist()

    num_l3, num_t3, num_l1 = l3s[-1], t3s[-1], l1s[-1]
    diff_l3 = abs(num_l3 - steady.lambda3)
    diff_t3 = abs(num_t3 - steady.tau3)

    columns = [(times / t_j).tolist(), l3s, t3s, l1s]
    diagnostics = {
        "exact": {
            "lambda3": steady.lambda3, "tau3": steady.tau3,
            "lambda3_fraction": str(steady.lambda3_exact),
            "tau3_fraction": str(steady.tau3_exact),
            "coeffs": {str(k): str(v) for k, v in steady.coeffs.items()},
            "tau3_coeffs": {str(k): str(v) for k, v in steady.tau3_coeffs.items()},
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
    return RunOutput({"data.csv": (header, columns)}, diagnostics,
                     None if diagnostics["pass"] else
                     f"horizon too short: |diff| = ({diff_l3:.2e}, {diff_t3:.2e}) "
                     f"> tol {cfg['tol']}")


# ---------------------------------------------------------------------------
# fluct
# ---------------------------------------------------------------------------

def cmd_fluct(cfg: dict) -> RunOutput:
    spec, z, steady, t_j, times = _steady_run(cfg, ensemble.FLUCT_RTOL, "rtol", "fluct")
    series = ensemble.converged_fluctuations(ensemble.SpectralAverage(spec, z), steady, t_j,
                                             times, onset=cfg["onset_tj"])
    rtol = ensemble.FLUCT_RTOL
    converged = bool(series.rel_change < rtol and series.sup_gap < rtol)

    columns = [series.t_over_tj.tolist(), series.delta_lambda3.tolist(),
               series.delta_tau3.tolist()]
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
    return RunOutput({"data.csv": (header, columns)}, diagnostics,
                     None if converged else
                     f"fluctuation constants not converged: doubling change "
                     f"{series.rel_change:.2e}, sup gap {series.sup_gap:.2e} "
                     f"(rtol {rtol}); start finer with --points-per-tj")


# ---------------------------------------------------------------------------
# disorder
# ---------------------------------------------------------------------------

def _disorder_spec(cfg):
    common = dict(B=cfg["b"], Omega=cfg["omega"],
                  sigma_h=cfg["sigma_h"], sigma_omega=cfg["sigma_omega"])
    if cfg["phi_dist"] == "gaussian":
        return disorder.DisorderSpec.from_varphi(varphi=cfg["varphi"], **common)
    if cfg["a_phi"] is None:
        raise ConfigError("a_phi: trunc_tanh family needs --a-phi")
    return disorder.DisorderSpec(phi_dist="trunc_tanh", a_phi=cfg["a_phi"], **common)


# the roundoff budget eps (2|B| + |Omega| + 4 sigma_h + sigma_omega) t_max
# below which the phases 2ht and omega t keep four correct digits: more than
# 10x under the standard error of a 200,000-sample run, and four decades
# under the smallest budget (1.4) at which the closed form and Monte Carlo
# were seen to disagree
DISORDER_ROUNDOFF_LIMIT = 1e-4


def cmd_disorder(cfg: dict) -> RunOutput:
    spec = _disorder_spec(cfg)
    # the phases carry an absolute error of about eps times the largest
    # |2h| and |omega| drawn (two sigma out) at t_max, in Python floats:
    # an overflow gives inf, without a warning
    rate = 2.0 * abs(spec.B) + abs(spec.Omega) + 4.0 * spec.sigma_h + spec.sigma_omega
    budget = sys.float_info.epsilon * rate * cfg["t_max"]
    if not budget < DISORDER_ROUNDOFF_LIMIT:
        raise ensemble.UnsupportedNetwork(
            f"roundoff budget eps (2|b| + |omega| + 4 sigma_h + sigma_omega) t_max = "
            f"{budget:.2e}, set by b, omega, sigma_h, sigma_omega and t_max, is not below "
            f"{DISORDER_ROUNDOFF_LIMIT:g}: disorder's phases 2ht and omega t keep fewer than four "
            f"correct digits here")
    n_samples, seed, z2 = int(cfg["n_samples"]), int(cfg["seed"]), float(cfg["z2"])
    rows = []
    flagged = []
    for t in np.linspace(0.0, cfg["t_max"], int(cfg["steps"])).tolist():
        for c in disorder.disorder_components(spec, t, z2, n_samples, seed):
            # a family without a closed form leaves its column empty
            cf = "" if c.closed_form is None else c.closed_form
            rows.append((t, c.name, c.mc_mean, c.mc_stderr, cf))
            if c.flagged:
                flagged.append({"t": t, "component": c.name,
                                "closed_form": c.closed_form,
                                "mc_mean": c.mc_mean, "mc_stderr": c.mc_stderr})

    diagnostics = {"flagged": flagged, "phi_dist": spec.phi_dist}
    if spec.phi_dist != "gaussian":
        diagnostics.update(disorder.sin2_phi_headroom(spec, n_samples, seed))

    header = ("t", "component", "mc_mean", "mc_stderr", "closed_form")
    return RunOutput({"data.csv": (header, list(zip(*rows)))}, diagnostics,
                     f"{len(flagged)} closed-form/MC disagreements beyond "
                     f"{disorder.PULL_LIMIT:g} stderr (see diagnostics.json)" if flagged else None)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def cmd_measure(cfg: dict) -> RunOutput:
    spec = _network(cfg, {"cc": "complete", "ring": "ring"}[cfg["preset"]])
    z, steady = _steady(cfg, spec)

    if cfg["t_max_tj"] <= measure.T_FIRST:
        raise ConfigError(f"t_max_tj: must exceed {measure.T_FIRST}, got {cfg['t_max_tj']}")
    times_tj = measure.time_grid(cfg["t_max_tj"], int(cfg["steps"]))
    mspec = measure.MeasureSpec.from_steady(steady, times=tuple(times_tj),
                                            C=cfg["c"], tau3_rule=cfg["tau3_rule"])
    traj = measure.trajectory_sample(mspec, int(cfg["seed"]))  # refuses non-CP triples itself

    header = ["t_over_tref", "lambda3", "tau3", "lambda1"]
    columns = [times_tj.tolist(), [p.lambda3 for p in traj], [p.tau3 for p in traj],
               [p.lambda1 for p in traj]]
    if cfg["overlay"]:
        # the exact running average at the trajectory's own times
        running = ensemble.SpectralAverage(spec, z)(times_tj * network.t_scale(spec.j_perp))
        header += ["lambda3_timeavg", "tau3_timeavg"]
        columns += [running[:, 3, 3].tolist(), running[:, 3, 0].tolist()]
    tables = {"data.csv": (header, columns)}

    draws = int(cfg["scatter_samples"])
    if draws > 0:
        rng = np.random.default_rng(int(cfg["seed"]))
        evs = []  # per draw: the phase-covariant triple, then the broken one
        for _ in range(draws):
            evs += measure.eigenvalues_pc(measure.uniform_sample(rng))[1:].tolist()
            evs += measure.eigenvalues_broken(measure.broken_uniform_sample(rng))[1:].tolist()
        tables["eigenvalues.csv"] = (("family", "which", "re", "im"), [
            (["pc"] * 3 + ["broken"] * 3) * draws,
            ["rot+", "rot-", "l3", "mu+", "mu-", "l3"] * draws,
            [ev.real for ev in evs], [ev.imag for ev in evs]])
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
    regions = ("total", "negative", "positive")
    est = [getattr(v, region) for region in regions]
    err = [getattr(v, region + "_err") for region in regions]
    pulls = {region: (e - exact[region]) / s if s > 0 else 0.0
             for region, e, s in zip(regions, est, err)}
    columns = [list(regions), est, err, [exact[r] for r in regions], list(pulls.values())]
    header = ("region", "estimate", "stderr", "exact", "pull")
    return RunOutput({"data.csv": (header, columns)}, {
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
    else:
        rng = np.random.default_rng(int(cfg["seed"]))
        schedule = rng.uniform(0.0, cfg["window_tj"] * t_j, n_cl)
    t_eval = cfg["t_eval_tj"] * t_j
    average = ensemble.SpectralAverage(spec, z, sites=(0,))
    cluster_avg = ensemble.quench_demo(average, schedule, t_eval, t_j)
    # reference: the exact running average of site 0 in one always-coupled cluster
    reference = average([t_eval])[0]

    diff = np.abs(cluster_avg - reference)
    columns = [[str(i) for i in range(4) for _ in range(4)], [str(jj) for jj in range(4)] * 4]
    columns += [m.ravel().tolist() for m in (cluster_avg, reference, diff)]
    header = ("row", "col", "cluster_avg", "time_avg", "abs_diff")
    return RunOutput({"data.csv": (header, columns)}, {
        "max_abs_diff": float(diff.max()),
        "n_cl": n_cl, "window_tj": cfg["window_tj"], "t_eval_tj": cfg["t_eval_tj"],
        "schedule": cfg["schedule"], "t_j": t_j,
    })


# ---------------------------------------------------------------------------
# options / entry point
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list:
    return [float(v) for v in text.split(",")]


def _finite(v) -> bool:
    """math.isfinite, False for an integer too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


@dataclass(frozen=True, eq=False)
class Range:
    """A check on an option's value, ok(value, cfg), and the requirement a
    ConfigError states when it fails."""

    ok: Callable
    requirement: str


# Ranges are checked in this order, each over a command's options in table
# order, and the first failure is reported: horizons before the spans inside
# them and counts before the seed keep that first field. _FINITE holds for
# every float option, and the limits after it, where the float arithmetic of
# a formula stops holding, only see finite values.
_HORIZON = Range(lambda v, cfg: _finite(v) and v >= 0, "must be finite and >= 0")
_SPAN = Range(lambda v, cfg: _finite(v) and v >= 0, "must be finite and >= 0")
_POSITIVE = Range(lambda v, cfg: _finite(v) and v > 0, "must be finite and > 0")
_AT_LEAST_ONE = Range(lambda v, cfg: v >= 1, "must be at least 1")
# one dense 2^16 register matrix is already 64 GiB
_REGISTER = Range(lambda v, cfg: v <= 16, "must be at most 16")
_COUNT = Range(lambda v, cfg: v >= 0, "must be >= 0")
_SEED = Range(lambda v, cfg: v >= 0, "must be >= 0")
# a partner's polarization, with the 1e-12 slack of analytic.xx_reduced_map's norm test
_POLARIZATION = Range(lambda v, cfg: v * v <= 1.0 + 1e-12, "must be in [-1, 1]")
_VOLUME_SAMPLES = Range(lambda v, cfg: v >= measure.MIN_VOLUME_SAMPLES,
                        f"must be at least {measure.MIN_VOLUME_SAMPLES}")
_DISORDER_SAMPLES = Range(lambda v, cfg: v >= disorder.MIN_SAMPLES,
                          f"must be at least {disorder.MIN_SAMPLES}")
_FINITE = Range(lambda v, cfg: all(map(_finite, v if isinstance(v, list) else [v])),
                "must be finite")
# each phase law's width is checked with the family that reads it
_VARPHI = Range(lambda v, cfg: cfg["phi_dist"] != "gaussian" or v >= disorder.MIN_VARPHI,
                f"must be at least {disorder.MIN_VARPHI}")
_A_PHI = Range(lambda v, cfg: cfg["phi_dist"] != "trunc_tanh" or v >= disorder.MIN_A_PHI,
               f"must be at least {disorder.MIN_A_PHI}")
_TIMES_TJ = ("t_max_tj", "horizon_tj", "t_eval_tj", "window_tj")


def _longest_time_finite(j: float, cfg: dict) -> bool:
    """Whether t_J of coupling j, times the longest horizon or span in t_J
    that the command turns into a time (and at least 1), is finite. quench's
    cluster, the one network without j_perp, has J_perp = 2j; measure turns
    t_max_tj into a time only for its overlay."""
    t_j = network.t_scale(j if "j_perp" in cfg else 2.0 * j)
    spans = [] if cfg.get("overlay") is False else [cfg[k] for k in _TIMES_TJ if k in cfg]
    return _finite(t_j * max([1.0] + spans))


_COUPLING = Range(lambda v, cfg: v == 0 or _longest_time_finite(v, cfg),
                  "must be 0 or of a magnitude whose t_J, times the longest horizon or span "
                  "in t_J, is finite")
# the disorder envelope's rate, in float products that give inf on overflow:
# sigma_h's own term first, then the sum, which names sigma_omega
_ENVELOPE_H = Range(lambda v, cfg: _finite(4.0 * v * v),
                    "must keep sigma_omega^2 + 4 sigma_h^2 finite")
_ENVELOPE_OMEGA = Range(lambda v, cfg: _finite(v * v + 4.0 * cfg["sigma_h"] * cfg["sigma_h"]),
                        _ENVELOPE_H.requirement)
RANGES = (_HORIZON, _SPAN, _POSITIVE, _AT_LEAST_ONE, _REGISTER, _COUNT, _SEED, _POLARIZATION,
          _VOLUME_SAMPLES, _DISORDER_SAMPLES, _FINITE, _VARPHI, _A_PHI, _COUPLING,
          _ENVELOPE_H, _ENVELOPE_OMEGA)

# name -> (function, help), in the order of `spinmaps --help`
_COMMANDS = {
    "maps": (cmd_maps, "per-site map parameter time series"),
    "steady": (cmd_steady, "long-time averages vs exact tables"),
    "fluct": (cmd_fluct, "running-average fluctuation constants"),
    "disorder": (cmd_disorder, "disorder-averaged pair maps, MC vs closed form"),
    "measure": (cmd_measure, "trajectory measure over CP channel params"),
    "volume": (cmd_volume, "MC volume of the CP region"),
    "quench": (cmd_quench, "staggered-quench cluster average demo"),
}
_XXZ = ("maps", "steady", "fluct", "measure")  # the commands with XXZ couplings
_GRID = ("maps", "steady", "fluct")  # the commands that sample a time grid


class Option(NamedTuple):
    """One command-line option of every command that reads it.

    type is bool for a --flag/--no-flag pair and str for text. defaults maps
    each command that reads the option to its built-in default, which keeps
    its literal type (points_per_tj 20, not 20.0): the manifest echoes the
    configuration as parsed. checks are the option's Ranges besides the
    finiteness of every float option. setup is the `maps` setup that reads
    it, "network" or "pair"; the other setup refuses it away from its default.
    """

    flag: str
    type: type
    defaults: dict
    checks: tuple = ()
    choices: tuple | None = None
    setup: str | None = None
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


# In the order of every command's --help.
OPTIONS = (
    Option("--config", str, dict.fromkeys(_COMMANDS), help="JSON config file; flags override it"),
    Option("--outdir", str, dict.fromkeys(_COMMANDS, "runs"), help="output root (default runs/)"),
    Option("--seed", int, dict.fromkeys(_COMMANDS, 0), (_SEED,)),
    # ring + J_par = J_perp is the reference figure setup; the 3-ring is the
    # 3-clique, so the N=3 default reproduces the complete-graph series too.
    Option("--topology", str, {"maps": "ring", "steady": "complete", "fluct": "complete"},
           choices=("complete", "ring", "xx_pairs")),
    Option("--n", int, {"maps": 3, "steady": 3, "fluct": 4, "measure": 3, "quench": 3},
           (_REGISTER,), setup="network"),
    Option("--h", float, dict.fromkeys(_XXZ + ("quench",)), setup="network",
           help="uniform field (default: generic)"),
    Option("--j-perp", float, dict.fromkeys(_XXZ, 1.0), (_COUPLING,), setup="network"),
    Option("--j-par", float, {"maps": 1.0, "steady": 1.0, "fluct": 1.0, "measure": 0.0},
           setup="network"),
    Option("--state", str, {"maps": "hierarchy", "steady": "hierarchy", "fluct": "uniform",
                            "measure": "hierarchy", "quench": "uniform"},
           choices=_STATES, setup="network"),
    Option("--z", float, {"maps": None, "steady": None, "fluct": 0.2, "measure": None,
                          "quench": 1.0}, setup="network"),
    Option("--z-list", _float_list, dict.fromkeys(_XXZ + ("quench",)), setup="network"),
    Option("--b", float, {"disorder": 1.0}),
    Option("--omega", float, {"disorder": 1.0}),
    Option("--sigma-h", float, {"disorder": 1.0}, (_ENVELOPE_H,)),
    Option("--sigma-omega", float, {"disorder": 1.0}, (_ENVELOPE_OMEGA,)),
    Option("--phi-dist", str, {"disorder": "gaussian"}, choices=("gaussian", "trunc_tanh")),
    Option("--varphi", float, {"disorder": 3.0}, (_VARPHI,)),
    Option("--a-phi", float, {"disorder": None}, (_A_PHI,)),
    Option("--preset", str, {"measure": "cc"}, choices=("cc", "ring")),
    Option("--c", float, {"measure": 1.0}, (_POSITIVE,)),
    Option("--h1", float, {"maps": 1.0}, setup="pair"),
    Option("--h2", float, {"maps": 0.5}, setup="pair"),
    Option("--n-cl", int, {"quench": 400}, (_AT_LEAST_ONE,)),
    Option("--j", float, {"maps": 1.0, "quench": 1.0}, (_COUPLING,), setup="pair"),
    Option("--x2", float, {"maps": 0.0}, setup="pair"),
    Option("--y2", float, {"maps": 0.0}, setup="pair"),
    Option("--z2", float, {"maps": None, "disorder": 1.0}, (_POLARIZATION,), setup="pair"),
    Option("--t-max", float, {"disorder": 2.0}, (_HORIZON,)),
    Option("--t-max-tj", float, {"maps": 10.0, "measure": 60.0}, (_HORIZON,)),
    Option("--horizon-tj", float, {"steady": 200.0, "fluct": 200.0}, (_HORIZON,)),
    Option("--points-per-tj", float, dict.fromkeys(_GRID, 20), (_POSITIVE,)),
    Option("--tol", float, {"steady": 5e-3}, (_POSITIVE,)),
    Option("--onset-tj", float, {"fluct": 20.0}, (_SPAN,)),
    Option("--steps", int, {"disorder": 21, "measure": 120}, (_AT_LEAST_ONE,)),
    Option("--n-samples", int, {"disorder": 10000}, (_DISORDER_SAMPLES,)),
    Option("--tau3-rule", str, {"measure": "symmetric"}, choices=("symmetric", "signed")),
    Option("--overlay", bool, {"measure": True}),
    Option("--scatter-samples", int, {"measure": 0}, (_COUNT,)),
    Option("--samples", int, {"volume": 10**6}, (_VOLUME_SAMPLES,)),
    Option("--window-tj", float, {"quench": 50.0}, (_SPAN,)),
    Option("--t-eval-tj", float, {"quench": 100.0}, (_HORIZON,)),
    # staggered: evenly spaced over the window; random: iid uniform over it
    Option("--schedule", str, {"quench": "staggered"}, choices=("staggered", "random")),
)
_BY_COMMAND = {name: [opt for opt in OPTIONS if name in opt.defaults] for name in _COMMANDS}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call. Callers must
    leave its defaults as they found them (main restores what --config sets)."""
    # add_argument checks each option with a fresh help formatter, which asks
    # for the terminal size: one query per parser gives every one its width
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="spinmaps", formatter_class=formatter,
        description="ensembles of reduced qubit maps from small spin networks")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for --config
    for name, (func, summary) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary, formatter_class=formatter)
        for opt in _BY_COMMAND[name]:
            kwargs = {"default": opt.defaults[name], "help": opt.help}
            if opt.type is bool:
                kwargs["action"] = argparse.BooleanOptionalAction
            else:
                kwargs.update(type=None if opt.type is str else opt.type, choices=opt.choices)
            sp.add_argument(opt.flag, **kwargs)
        sp.set_defaults(func=func)
    return parser


# namespace entries that are not part of a run's configuration
_NOT_CONFIG = ("command", "func", "config")


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}


@functools.cache
def _check_plan(command: str) -> tuple:
    """The (range, option) pairs _check_fields runs for the command, by
    range in RANGES order, then by option in table order."""
    return tuple((rng, opt) for rng in RANGES for opt in _BY_COMMAND[command]
                 if rng in opt.checks or (rng is _FINITE and opt.type in (float, _float_list)))


def _check_fields(cfg: dict, command: str):
    """ConfigError for the first value of the command out of range, in
    RANGES order. A value that is not set (None) is not checked."""
    for rng, opt in _check_plan(command):
        value = cfg.get(opt.dest)
        if value is not None and not rng.ok(value, cfg):
            raise ConfigError(f"{opt.dest}: {rng.requirement}, got {value}")


def _config_type_error(opt: Option, command: str, value):
    """Why a --config value does not fit the command's option, or None if it does.

    A string goes through the option's converter, like the text of a flag,
    and must be one of its choices if it has them; null stands for an option
    that has no default. Any other value must already have the JSON type the
    option parses to.
    """
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if opt.type is bool:
        want, ok = "true or false", isinstance(value, bool)
    elif isinstance(value, str) and opt.choices:
        want, ok = "one of " + ", ".join(map(json.dumps, opt.choices)), value in opt.choices
    elif isinstance(value, str) or (value is None and opt.defaults[command] is None):
        return None
    elif opt.type is int:
        want, ok = "an integer", number(value) and isinstance(value, int)
    elif opt.type is float:
        want, ok = "a number", number(value)
    elif opt.type is _float_list:
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
            options = {opt.dest: opt for opt in _BY_COMMAND[args.command]}
            for key, value in data.items():
                if key not in options or key in _NOT_CONFIG:
                    raise ConfigError(f"config.{key}: unknown field for this command")
                problem = _config_type_error(options[key], args.command, value)
                if problem is not None:
                    raise ConfigError(f"config.{key}: {problem}")
            sub = parser.commands[args.command]
            built_in = {key: sub.get_default(key) for key in data}
            sub.set_defaults(**data)
            try:
                args = parser.parse_args(argv)
            finally:  # the parser is the process's: the next call sees the built-in defaults
                sub.set_defaults(**built_in)
        cfg = _config(args)
        _check_fields(cfg, args.command)
        result = args.func(cfg)
        texts = {name: render_csv(*table) for name, table in result.tables.items()}
        out = _start_run(cfg, args.command)  # after the command: cfg holds what it set
        for name, text in texts.items():
            with open(out / name, "w", newline="") as fh:
                fh.write(text)
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
