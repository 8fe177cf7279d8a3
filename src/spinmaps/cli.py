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
merged horizons, grid densities and counts are then checked once
(_FIELD_CHECKS). Exit codes: 0 success, 2 config error, 3 invariant
violation or internal numerical failure, 4 unsupported combination.

Times in data files are in units of t_J except the disorder command, whose
absolute t shares units with 1/B, 1/Omega (no exchange scale there).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_UNSUPPORTED = 4

_STATES = ("hierarchy", "neel", "uniform", "custom")


class ConfigError(ValueError):
    pass


class UnsupportedError(ValueError):
    pass


class InvariantError(RuntimeError):
    pass


def preset_state(n: int, state: str, z=None, z_list=None):
    """Initial z polarizations: hierarchy (1, 1/n, ..., (n-1)/n), neel
    alternating +-1, uniform z, or a custom list."""
    if state == "hierarchy":
        vals = [1.0] + [k / n for k in range(1, n)]
    elif state == "neel":
        vals = [1.0 if k % 2 == 0 else -1.0 for k in range(n)]
    elif state == "uniform":
        if z is None:
            raise ConfigError("state.z: uniform preset needs --z")
        vals = [float(z)] * n
    elif state == "custom":
        if z_list is None:
            raise ConfigError("state.z_list: custom preset needs --z-list")
        vals = [float(v) for v in z_list]
        if len(vals) != n:
            raise ConfigError(f"state.z_list: expected {n} values, got {len(vals)}")
    else:
        raise ConfigError(f"state: unknown preset {state!r} (choose from {_STATES})")
    for k, v in enumerate(vals):
        if abs(v) > 1.0:
            raise ConfigError(f"state.z[{k}]: |z| must be <= 1, got {v}")
    return tuple(vals)


def rational_state(n: int, state: str, z=None, z_list=None):
    """preset_state with exact rationals, for the exact steady tables.

    The presets are rational by construction; uniform/custom inputs are read
    back through their decimal repr so --z 0.2 means 1/5, not the binary
    double nearest to it.
    """
    from fractions import Fraction
    floats = preset_state(n, state, z, z_list)  # reuse the validation
    if state == "hierarchy":
        return (Fraction(1),) + tuple(Fraction(k, n) for k in range(1, n))
    if state == "neel":
        return tuple(Fraction(1 if k % 2 == 0 else -1) for k in range(n))
    return tuple(Fraction(str(v)) for v in floats)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _tool_version() -> str:
    try:
        from importlib.metadata import version
        return version("spinmaps")
    except Exception:
        return "unknown"


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
        "tool_version": _tool_version(),
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
    import numpy as np
    n_pts = int(round(t_max_tj * points_per_tj)) + 1
    return np.linspace(0.0, t_max_tj * t_j, n_pts)


def _network(cfg: dict, topology: str | None = None):
    """(NetworkSpec, t_J, initial z) of the run's XXZ network.

    topology defaults to the run's --topology. quench has no XXZ couplings:
    its cluster is the complete graph with J_perp = J_par = 2j, the isotropic
    coupling j per pair, and its default field keeps the sign of j.
    """
    from .ensemble import GENERIC_H_RATIO
    from .network import NetworkSpec, t_scale

    n = int(cfg["n"])
    if "j_perp" in cfg:
        j_perp, j_par, scale = cfg["j_perp"], cfg["j_par"], abs(cfg["j_perp"])
    else:
        j_perp = j_par = scale = 2.0 * cfg["j"]
        topology = "complete"
    h = GENERIC_H_RATIO * scale if cfg["h"] is None else cfg["h"]
    spec = NetworkSpec(topology=topology or cfg["topology"], n=n, h=h,
                       j_perp=j_perp, j_par=j_par)
    return spec, t_scale(j_perp), preset_state(n, cfg["state"], cfg["z"], cfg["z_list"])


def _steady(cfg: dict, topology: str):
    """The exact steady channel of the run's network and initial state.

    A network without a table raises UnsupportedError before the state is
    checked.
    """
    from .analytic import _anisotropic
    from .ensemble import steady_channel

    n = int(cfg["n"])
    if topology == "ring" and n == 3:
        topology = "complete"  # the 3-ring is the 3-clique
    if not ((topology == "complete" and 3 <= n <= 6) or (topology == "ring" and n in (4, 5))):
        raise UnsupportedError(f"no steady table for ({topology}, N={n})")
    if topology == "ring" and n == 5 and _anisotropic(cfg["j_perp"], cfg["j_par"]):
        raise UnsupportedError("ring N=5 steady table holds at the isotropic point only")
    return steady_channel(n, topology, rational_state(n, cfg["state"], cfg["z"], cfg["z_list"]))


# ---------------------------------------------------------------------------
# maps
# ---------------------------------------------------------------------------

def _analytic_transfer(topology, n, t, j_perp, j_par, h, z, focal, pair):
    """Closed-form transfer (NaN where unknown) if a family exists, else (None, reason)."""
    from . import analytic

    if topology == "xx_pairs":
        eig = analytic.xx_eigenparams(pair[0], pair[1], pair[2])
        return analytic.xx_reduced_map(t, eig, pair[3], which=1), None
    env_cyclic = [z[(focal + 1 + k) % n] for k in range(n - 1)]
    if topology == "complete" or (topology == "ring" and n == 3):
        if not 3 <= n <= 6:
            return None, f"no closed form for complete N={n}"
        p, _ = analytic.cc_params(n, t, j_perp, j_par, h, env_cyclic, focal)
        return p.transfer(), None
    if topology == "ring" and n in (4, 5):
        if n == 5 and analytic._anisotropic(j_perp, j_par):
            return None, "ring N=5 closed form needs J_par = J_perp"
        p, _ = analytic.ring_params(n, t, j_perp, j_par, h, env_cyclic, focal)
        return p.transfer(), None
    return None, f"no closed form for ({topology}, N={n})"


def cmd_maps(cfg: dict) -> RunOutput:
    import numpy as np
    from .network import NetworkSpec, PairSpec, build_hamiltonian, t_scale
    from .reduced import MapExtractor, fit_pc, cp_ok
    from .ensemble import network_average

    topology = cfg["topology"]
    pair = None
    if topology == "xx_pairs":
        n = 2
        if cfg["z2"] is None:
            # longest partner vector consistent with the transverse components
            planar = cfg["x2"] ** 2 + cfg["y2"] ** 2
            cfg["z2"] = math.sqrt(max(1.0 - planar, 0.0))
        env_bloch = (cfg["x2"], cfg["y2"], cfg["z2"])
        if math.hypot(math.hypot(*env_bloch[:2]), env_bloch[2]) > 1.0 + 1e-12:
            raise ConfigError("state: partner Bloch vector longer than 1")
        pair = (cfg["h1"], cfg["h2"], cfg["j"], env_bloch)
        spec = NetworkSpec(topology="xx_pairs", n=2,
                           pairs=(PairSpec(h1=cfg["h1"], h2=cfg["h2"], j=cfg["j"]),))
        h_field = (cfg["h1"] + cfg["h2"]) / 2.0  # enters analytic frame only
        t_j = t_scale(cfg["j"])
        z = (0.0, env_bloch[2])
        sites = [0]
        envs = {0: [env_bloch]}
    else:
        spec, t_j, z = _network(cfg)
        n, h_field = spec.n, spec.h
        sites = list(range(n))
        envs = {s: [(0.0, 0.0, z[k]) for k in sites if k != s] for s in sites}

    times = _uniform_grid(t_j, cfg["t_max_tj"], cfg["points_per_tj"])
    h_mat = build_hamiltonian(spec)
    extractors = {s: MapExtractor(h_mat, s, envs[s]) for s in sites}

    rows = []
    max_resid = 0.0
    analytic_err = 0.0
    analytic_reason = None
    have_analytic = True
    for t in times:
        per_site = []
        for s in sites:
            tr = extractors[s].transfer(t)
            per_site.append(tr)
            p = fit_pc(tr)
            max_resid = max(max_resid, p.residual)
            if not cp_ok(p.lambda1, p.tau3, p.lambda3, tol=1e-9):
                raise InvariantError(
                    f"CP violation at t={t/t_j:.3f} t_J, site {s}: "
                    f"(l1={p.lambda1}, tau3={p.tau3}, l3={p.lambda3})")
            rows.append((_fmt(t / t_j), str(s), _fmt(p.lambda1), _fmt(p.theta),
                         _fmt(p.lambda3), _fmt(p.tau3), _fmt(p.residual)))
            if have_analytic:
                ana, reason = _analytic_transfer(topology, n, t, cfg["j_perp"],
                                                 cfg["j_par"], h_field, z, s, pair)
                if ana is None:
                    have_analytic = False
                    analytic_reason = reason
                else:
                    mask = ~np.isnan(ana)
                    analytic_err = max(analytic_err,
                                       float(np.abs(ana - tr)[mask].max()))
        avg = network_average(per_site)
        pa = fit_pc(avg)
        if not cp_ok(pa.lambda1, pa.tau3, pa.lambda3, tol=1e-9):
            raise InvariantError(f"CP violation in network average at t={t/t_j:.3f} t_J")
        rows.append((_fmt(t / t_j), "avg", _fmt(pa.lambda1), _fmt(pa.theta),
                     _fmt(pa.lambda3), _fmt(pa.tau3), _fmt(pa.residual)))

    if not have_analytic:
        print(f"warning: running numeric-only ({analytic_reason})", file=sys.stderr)
    header = ("t_over_tj", "site", "lambda1", "theta", "lambda3", "tau3", "residual")
    return RunOutput({"data.csv": (header, rows)}, {
        "phase_covariant": bool(max_resid < 1e-8),
        "max_residual": max_resid,
        "analytic_check": {"max_abs_err": analytic_err} if have_analytic else None,
        "analytic_skip_reason": analytic_reason,
        "t_j": t_j,
    })


# ---------------------------------------------------------------------------
# steady
# ---------------------------------------------------------------------------

def cmd_steady(cfg: dict) -> RunOutput:
    import numpy as np
    from .ensemble import network_series, time_average

    steady = _steady(cfg, cfg["topology"])
    spec, t_j, z = _network(cfg)
    times = _uniform_grid(t_j, cfg["horizon_tj"], cfg["points_per_tj"])
    running = time_average(times, network_series(spec, z, times))

    num_l3 = float(running[-1, 3, 3])
    num_t3 = float(running[-1, 3, 0])
    num_l1 = float(np.hypot(running[-1, 1, 1], running[-1, 2, 1]))
    diff_l3 = abs(num_l3 - steady.lambda3)
    diff_t3 = abs(num_t3 - steady.tau3)

    rows = [(_fmt(t / t_j), _fmt(running[k, 3, 3]), _fmt(running[k, 3, 0]),
             _fmt(np.hypot(running[k, 1, 1], running[k, 2, 1])))
            for k, t in enumerate(times)]
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
    from .ensemble import FLUCT_RTOL, SpectralAverage, converged_fluctuations

    steady = _steady(cfg, cfg["topology"])
    spec, t_j, z = _network(cfg)
    times = _uniform_grid(t_j, cfg["horizon_tj"], cfg["points_per_tj"])
    series = converged_fluctuations(SpectralAverage(spec, z), steady, t_j, times,
                                    onset=cfg["onset_tj"])
    converged = bool(series.rel_change < FLUCT_RTOL and series.sup_gap < FLUCT_RTOL)

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
        "rtol": FLUCT_RTOL,
        "converged": converged,
    }
    header = ("t_over_tj", "delta_lambda3", "delta_tau3")
    return RunOutput({"data.csv": (header, rows)}, diagnostics,
                     None if converged else
                     f"fluctuation constants not converged: doubling change "
                     f"{series.rel_change:.2e}, sup gap {series.sup_gap:.2e} "
                     f"(rtol {FLUCT_RTOL}); start finer with --points-per-tj")


# ---------------------------------------------------------------------------
# disorder
# ---------------------------------------------------------------------------

def _disorder_spec(cfg):
    from .disorder import DisorderSpec
    common = dict(B=cfg["b"], Omega=cfg["omega"],
                  sigma_h=cfg["sigma_h"], sigma_omega=cfg["sigma_omega"])
    if cfg["phi_dist"] == "gaussian":
        if cfg["sigma_phi"] is not None:
            return DisorderSpec(phi_dist="gaussian", sigma_phi=cfg["sigma_phi"], **common)
        return DisorderSpec.from_varphi(varphi=cfg["varphi"], **common)
    if cfg["phi_dist"] == "trunc_tanh":
        if cfg["a_phi"] is None:
            raise ConfigError("a_phi: trunc_tanh family needs --a-phi")
        return DisorderSpec(phi_dist="trunc_tanh", a_phi=cfg["a_phi"], **common)
    raise ConfigError(f"phi_dist: unknown family {cfg['phi_dist']!r}")


def cmd_disorder(cfg: dict) -> RunOutput:
    import numpy as np
    from .disorder import (PULL_LIMIT, mc_disorder_map, closedform_disorder_components,
                           pull, sample_pair, max_tau3_trunc_tanh, _sample_rng,
                           _COMPONENT_SLOTS)

    spec = _disorder_spec(cfg)
    gaussian = spec.phi_dist == "gaussian"
    z2 = float(cfg["z2"])
    times = np.linspace(0.0, cfg["t_max"], int(cfg["steps"]))

    rows = []
    flagged = []
    for t in times:
        mean, stderr = mc_disorder_map(spec, float(t), (0.0, 0.0, z2),
                                       int(cfg["n_samples"]), int(cfg["seed"]))
        closed = closedform_disorder_components(spec, float(t)) if gaussian else None
        for name, (i, j) in _COMPONENT_SLOTS.items():
            mc, err = float(mean[i, j]), float(stderr[i, j])
            if name == "z0z":
                if z2 == 0.0:
                    continue  # partner unpolarized: the z-shift column is dark
                mc, err = mc / z2, err / abs(z2)
            cf = "" if closed is None else _fmt(closed[name])
            rows.append((_fmt(t), name, _fmt(mc), _fmt(err), cf))
            if closed is not None and abs(pull(closed[name], mc, err)) > PULL_LIMIT:
                flagged.append({"t": float(t), "component": name,
                                "closed_form": closed[name],
                                "mc_mean": mc, "mc_stderr": err})

    diagnostics = {"flagged": flagged, "phi_dist": spec.phi_dist}
    if not gaussian:
        # headroom report: how close this a_phi gets to the tau3 ceiling
        sin2 = np.array([math.sin(sample_pair(spec, _sample_rng(cfg["seed"], i)).phi12) ** 2
                         for i in range(int(cfg["n_samples"]))])
        diagnostics["max_tau3_ceiling"] = max_tau3_trunc_tanh()
        diagnostics["mc_sin2_phi"] = float(sin2.mean())
        diagnostics["mc_sin2_phi_stderr"] = float(sin2.std(ddof=1) / math.sqrt(sin2.size))

    header = ("t", "component", "mc_mean", "mc_stderr", "closed_form")
    return RunOutput({"data.csv": (header, rows)}, diagnostics,
                     f"{len(flagged)} closed-form/MC disagreements beyond {PULL_LIMIT:g} "
                     f"stderr (see diagnostics.json)" if flagged else None)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def cmd_measure(cfg: dict) -> RunOutput:
    import numpy as np
    from .ensemble import network_series, time_average
    from .measure import (MeasureSpec, time_grid, trajectory_sample, cp_contains,
                          uniform_sample, broken_uniform_sample,
                          eigenvalues_pc, eigenvalues_broken)

    topology = {"cc": "complete", "ring": "ring"}.get(cfg["preset"])
    if topology is None:
        raise ConfigError(f"preset: unknown preset {cfg['preset']!r} (cc or ring)")
    steady = _steady(cfg, topology)

    times_tj = time_grid(1.0, cfg["t_max_tj"], int(cfg["steps"]))
    mspec = MeasureSpec.from_steady(steady, t_ref=1.0, times=tuple(times_tj),
                                    C=cfg["c"], tau3_rule=cfg["tau3_rule"])
    traj = trajectory_sample(mspec, int(cfg["seed"]))
    for p in traj:
        if not cp_contains(p.lambda1, p.tau3, p.lambda3):
            raise InvariantError("trajectory emitted a non-CP triple")

    header = ["t_over_tref", "lambda3", "tau3", "lambda1"]
    columns = [[_fmt(t) for t in times_tj],
               [_fmt(p.lambda3) for p in traj],
               [_fmt(p.tau3) for p in traj],
               [_fmt(p.lambda1) for p in traj]]
    if cfg["overlay"]:
        spec, t_j, z = _network(cfg, topology)
        grid = _uniform_grid(t_j, cfg["t_max_tj"], cfg["points_per_tj"])
        running = time_average(grid, network_series(spec, z, grid))
        l3 = np.interp(times_tj * t_j, grid, running[:, 3, 3])
        t3 = np.interp(times_tj * t_j, grid, running[:, 3, 0])
        header += ["lambda3_timeavg", "tau3_timeavg"]
        columns += [[_fmt(v) for v in l3], [_fmt(v) for v in t3]]
    tables = {"data.csv": (header, list(zip(*columns)))}

    if int(cfg["scatter_samples"]) > 0:
        rng = np.random.default_rng(int(cfg["seed"]))
        scatter = []
        for _ in range(int(cfg["scatter_samples"])):
            evs = eigenvalues_pc(uniform_sample(rng))
            for which, ev in zip(("rot+", "rot-", "l3"), evs[1:]):
                scatter.append(("pc", which, _fmt(ev.real), _fmt(ev.imag)))
            evb = eigenvalues_broken(broken_uniform_sample(rng))
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
    from .measure import volume_mc

    v = volume_mc(int(cfg["samples"]), int(cfg["seed"]))
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
    import numpy as np
    from .ensemble import network_series, quench_demo, time_average

    spec, t_j, z = _network(cfg)
    n_cl = int(cfg["n_cl"])
    if cfg["schedule"] == "staggered":
        schedule = np.linspace(0.0, cfg["window_tj"] * t_j, n_cl)
    elif cfg["schedule"] == "random":
        rng = np.random.default_rng(int(cfg["seed"]))
        schedule = rng.uniform(0.0, cfg["window_tj"] * t_j, n_cl)
    else:
        raise ConfigError("schedule: expected 'staggered' or 'random'")
    cluster_avg = quench_demo(n_cl, n=spec.n, schedule=schedule,
                              t_eval=cfg["t_eval_tj"] * t_j, h=spec.h, j=cfg["j"],
                              env_z=z[1:])  # focal is site 0

    # reference: running time average of one always-coupled cluster
    grid = _uniform_grid(t_j, cfg["t_eval_tj"], cfg["points_per_tj"])
    reference = time_average(grid, network_series(spec, z, grid, sites=(0,)))[-1]

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
    sp.add_argument("--threads", type=int, help="cap BLAS worker threads")
    sp.set_defaults(func=func)
    return sp


def _add_network_flags(sp, n: int, state: str, z=None, topology=None,
                       j_par=1.0, xxz=True):
    """--n, the field --h, the initial state and the time-grid density
    --points-per-tj; --topology when it has a default here, and the XXZ
    couplings --j-perp/--j-par when xxz is set."""
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
    sp.add_argument("--points-per-tj", dest="points_per_tj", type=float, default=20)


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
    sp = _add_command(sub, "maps", cmd_maps, "per-site map parameter time series")
    _add_network_flags(sp, n=3, state="hierarchy", topology="ring")
    sp.add_argument("--h1", type=float, default=1.0)
    sp.add_argument("--h2", type=float, default=0.5)
    sp.add_argument("--j", type=float, default=1.0)
    sp.add_argument("--x2", type=float, default=0.0)
    sp.add_argument("--y2", type=float, default=0.0)
    sp.add_argument("--z2", type=float)
    sp.add_argument("--t-max-tj", dest="t_max_tj", type=float, default=10.0)

    sp = _add_command(sub, "steady", cmd_steady, "long-time averages vs exact tables")
    _add_network_flags(sp, n=3, state="hierarchy", topology="complete")
    sp.add_argument("--horizon-tj", dest="horizon_tj", type=float, default=200.0)
    sp.add_argument("--tol", type=float, default=5e-3)

    sp = _add_command(sub, "fluct", cmd_fluct, "running-average fluctuation constants")
    _add_network_flags(sp, n=4, state="uniform", z=0.2, topology="complete")
    sp.add_argument("--horizon-tj", dest="horizon_tj", type=float, default=200.0)
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
    sp.add_argument("--sigma-phi", dest="sigma_phi", type=float)
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
_NOT_CONFIG = ("command", "func", "config", "threads")


def _config(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}


# ranges shared by every command that has the field: (fields, check, requirement)
_FIELD_CHECKS = (
    (("t_max_tj", "horizon_tj", "t_eval_tj", "t_max", "window_tj"),
     lambda v: math.isfinite(v) and v >= 0, "must be finite and >= 0"),
    (("points_per_tj",), lambda v: math.isfinite(v) and v > 0, "must be finite and > 0"),
    (("steps", "n_cl"), lambda v: v >= 1, "must be at least 1"),
    (("scatter_samples",), lambda v: v >= 0, "must be >= 0"),
)


def _check_fields(cfg: dict):
    for fields, ok, requirement in _FIELD_CHECKS:
        for name in fields:
            if name in cfg and not ok(cfg[name]):
                raise ConfigError(f"{name}: {requirement}, got {cfg[name]}")


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
    if args.threads:
        if "numpy" in sys.modules:
            print("warning: --threads has no effect: numpy is already loaded "
                  "in this process", file=sys.stderr)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
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
        _check_fields(cfg)
        result = args.func(cfg)
        out = _start_run(cfg, args.command)  # after the command: cfg holds what it set
        for name, (header, rows) in result.tables.items():
            with open(out / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(header)
                writer.writerows(rows)
        _write_json(out / "diagnostics.json", result.diagnostics)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except ValueError as exc:
        from .qlinalg import NumericalError  # deferred like every library import
        if isinstance(exc, NumericalError):
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_INVARIANT
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(out)
    if result.failure is not None:
        print(f"error: {result.failure}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
