"""Run driver: the command-line shell over the library's pipelines.

Subcommands: maps, steady, fluct, disorder, measure, volume, quench. Each is
one library function with its thresholds and verdict, returning a
qlinalg.Result: CSV tables as columns, diagnostics, and the failed verdict,
if any. The shell owns the rest: the option table and its range checks,
state presets, --config, each command's mapping from options to its library
call, run directories, the one CSV renderer (render_csv), and the mapping
from error or verdict to exit code. main renders every table, then claims
<outdir>/<command>-<timestamp>[-NN]/ and writes manifest.json (full config
echo, seed, tool version), the CSV files and diagnostics.json, and prints
the directory. A run that raises writes nothing; a failed verdict exits 3
after its files are written. Bodies are byte-identical under a fixed
(config, seed); only the manifest carries the timestamp.

Every option is declared once, in OPTIONS: its flag, type, default per
command, range checks, choices, the `maps` setup that reads it and its help.
The parser, the --config type checks and the range checks all read it. The
parser is built on the first main call and reused by every later call in
the process; a --config file's defaults are set on it for one call only.

Config resolution: built-in defaults < JSON file (--config) < flags; the
merged values are then checked once, range by range in RANGES order. Exit
codes: 0 success, 2 config error (any ValueError, a run too large for
memory included), 3 invariant violation, numerical failure or failed
verdict, 4 unsupported combination.
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

from . import __version__, analytic, disorder, ensemble, measure, network, qlinalg

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_UNSUPPORTED = 4

_STATES = ("hierarchy", "neel", "uniform", "custom")


class ConfigError(ValueError):
    pass


InvariantError = qlinalg.InvariantError  # render_csv's refusal, as a run's stop


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


def _steady(cfg: dict, topology: str | None = None):
    """(spec, initial z, exact steady channel) of the run. A network without a
    table raises UnsupportedNetwork before the state is checked."""
    spec = _network(cfg, topology)
    ensemble.steady_table(spec)
    z = preset_state(spec.n, cfg["state"], cfg["z"], cfg["z_list"])
    return spec, z, ensemble.steady_channel(spec, z)


def cmd_maps(cfg: dict) -> qlinalg.Result:
    # what only the other setup reads keeps its built-in (not --config) default
    setup = "pair" if cfg["topology"] == "xx_pairs" else "network"
    for opt in _BY_COMMAND["maps"]:
        if opt.setup not in (None, setup) and cfg[opt.dest] != opt.defaults["maps"]:
            raise ConfigError(f"{opt.dest}: not read with --topology {cfg['topology']}")
    coupling = "j" if setup == "pair" else "j_perp"
    if cfg[coupling] == 0:
        raise ConfigError(f"{coupling}: must be nonzero (t_J is undefined without exchange)")
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
    return analytic.map_series(
        spec, envs, t_j, cfg["t_max_tj"], cfg["points_per_tj"],
        warn=lambda why: print(f"warning: running numeric-only ({why})", file=sys.stderr))


def cmd_steady(cfg: dict) -> qlinalg.Result:
    return ensemble.steady_series(*_steady(cfg), cfg["horizon_tj"], cfg["points_per_tj"],
                                  cfg["tol"])


def cmd_fluct(cfg: dict) -> qlinalg.Result:
    return ensemble.fluct_series(*_steady(cfg), cfg["horizon_tj"], cfg["points_per_tj"],
                                 cfg["onset_tj"])


def cmd_disorder(cfg: dict) -> qlinalg.Result:
    common = dict(B=cfg["b"], Omega=cfg["omega"],
                  sigma_h=cfg["sigma_h"], sigma_omega=cfg["sigma_omega"])
    if cfg["phi_dist"] == "gaussian":
        spec = disorder.DisorderSpec.from_varphi(varphi=cfg["varphi"], **common)
    elif cfg["a_phi"] is None:
        raise ConfigError("a_phi: trunc_tanh family needs --a-phi")
    else:
        spec = disorder.DisorderSpec(phi_dist="trunc_tanh", a_phi=cfg["a_phi"], **common)
    return disorder.disorder_series(spec, cfg["z2"], cfg["t_max"], cfg["steps"],
                                    cfg["n_samples"], cfg["seed"])


def cmd_measure(cfg: dict) -> qlinalg.Result:
    preset = {"cc": "complete", "ring": "ring"}[cfg["preset"]]
    return measure.measure_series(*_steady(cfg, preset), cfg["t_max_tj"], cfg["steps"], cfg["c"],
                                  cfg["tau3_rule"], cfg["seed"], cfg["scatter_samples"],
                                  cfg["overlay"])


def cmd_volume(cfg: dict) -> qlinalg.Result:
    return measure.volume_check(cfg["samples"], cfg["seed"])


def cmd_quench(cfg: dict) -> qlinalg.Result:
    if cfg["j"] == 0:
        raise ConfigError("j: must be nonzero (t_J is undefined without exchange)")
    spec = _network(cfg)
    z = preset_state(spec.n, cfg["state"], cfg["z"], cfg["z_list"])
    return ensemble.quench_series(spec, z, cfg["n_cl"], cfg["window_tj"], cfg["t_eval_tj"],
                                  cfg["schedule"], cfg["seed"],
                                  warn=lambda why: print(f"warning: {why}", file=sys.stderr))


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


def _sigma_in_range(c: float, cfg: dict) -> bool:
    """Whether measure's sigma(t) = (c/n)/t is finite at the grid's first
    time and above 0 at its last, t_max_tj. A register size below 1 is left
    to NetworkSpec, which names n."""
    n = cfg["n"]
    if n < 1:
        return True
    last = max(cfg["t_max_tj"], measure.T_FIRST)
    return (_finite(measure.trajectory_sigma(c, n, measure.T_FIRST))
            and measure.trajectory_sigma(c, n, last) > 0.0)


_SIGMA = Range(_sigma_in_range,
               "must keep sigma(t) = (c/n)/t finite and > 0 on the trajectory grid")


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
          _VOLUME_SAMPLES, _DISORDER_SAMPLES, _FINITE, _VARPHI, _A_PHI, _SIGMA, _COUPLING,
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
    Option("--c", float, {"measure": 1.0}, (_POSITIVE, _SIGMA)),
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
    except qlinalg.InvariantError as exc:
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
