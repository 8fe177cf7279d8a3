"""The benchmark's workloads: README commands at sizes of about one second.

Each workload is a fixed list of `spinmaps` commands (one pass) whose inputs
come from a variant index. There are VARIANTS variants, all with reference
outputs recorded at the seed commit; a run's seed puts them in an order
and the run cycles through them in it. Dense ED cost does not depend on the
variant, but rejection-sampler cost does (the number of candidates
channel-body draws depends on the seed it passes, by up to 13% either way),
and cycling through every variant keeps that out of the run-to-run spread:
a seed that picked a subset would pick its cost too.

Sizing: a pass must fit about twenty times into one timed run so that the
reported medians are steady. The README sizes do not fit: for example
`disorder --phi-dist trunc_tanh --n-samples 200000` takes 419 s on a 2-core
Xeon. ed-steady runs the shape of the Tier-1 fixture `hier_running`
(200 t_J) at 4 t_J and 10 points per t_J; ring N=5 is the slowest of its
networks to converge and passes the 5e-3 steady tolerance there for every
variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

VARIANTS = 16

# Gate tolerances, the ones the repository's own acceptance criteria use.
ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the work it does.

    work: the workload's work units (maps, sample-time evaluations or
    accepted channel draws); times: ED time points, for unitary calls per
    time; samples: Monte Carlo samples, for sample_pair calls per sample.
    """

    argv: tuple
    work: int
    times: int = 0
    samples: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    build: object  # (rng, variant) -> list[Command]

    def commands(self, variant: int) -> list:
        return self.build(random.Random(f"{self.name}/{variant}"), variant)

    def cycle(self, seed: int) -> list:
        """The command lists of every variant, in the order a run with this
        seed cycles through them."""
        variants = random.Random(seed).sample(range(VARIANTS), VARIANTS)
        return [(v, self.commands(v)) for v in variants]


def _grid_points(t_max_tj: float, points_per_tj: float) -> int:
    # the CLI's _uniform_grid: round(t_max * points) + 1 samples
    return int(round(t_max_tj * points_per_tj)) + 1


STEADY_NETWORKS = (("complete", 3), ("complete", 4), ("complete", 5),
                   ("complete", 6), ("ring", 4), ("ring", 5))
STEADY_HORIZON_TJ, STEADY_POINTS_PER_TJ = 4, 10


def _ed_steady(rng, variant):
    """Steady tables for every supported network. Variant 0 is the
    hierarchy state of the Tier-1 fixture; the others draw partner
    polarizations in quarters, which the exact tables read as rationals."""
    times = _grid_points(STEADY_HORIZON_TJ, STEADY_POINTS_PER_TJ)
    cmds = []
    for topology, n in STEADY_NETWORKS:
        if variant == 0:
            state = ("--state", "hierarchy")
        else:
            z = [str(rng.randint(-4, 4) / 4) for _ in range(n)]
            state = ("--state", "custom", "--z-list=" + ",".join(z))
        argv = ("steady", "--topology", topology, "--n", str(n),
                "--horizon-tj", str(STEADY_HORIZON_TJ),
                "--points-per-tj", str(STEADY_POINTS_PER_TJ)) + state
        cmds.append(Command(argv, work=times * n, times=times))
    return cmds


MAPS_NETWORKS = (("complete", 3, 1.0), ("complete", 6, 0.6),
                 ("ring", 4, 0.6), ("ring", 5, 1.0))
MAPS_T_MAX_TJ, MAPS_POINTS_PER_TJ = 4, 20


def _ed_maps(rng, variant):
    """Per-site map series with the closed-form oracle at every (site, t),
    as in acceptance criterion 01; partner polarizations from the seed."""
    times = _grid_points(MAPS_T_MAX_TJ, MAPS_POINTS_PER_TJ)
    cmds = []
    for topology, n, j_par in MAPS_NETWORKS:
        z = [f"{rng.uniform(-1.0, 1.0):.3f}" for _ in range(n)]
        argv = ("maps", "--topology", topology, "--n", str(n), "--j-par", str(j_par),
                "--t-max-tj", str(MAPS_T_MAX_TJ), "--points-per-tj", str(MAPS_POINTS_PER_TJ),
                "--state", "custom", "--z-list=" + ",".join(z))
        cmds.append(Command(argv, work=times * n, times=times))
    return cmds


DISORDER_STEPS = 21  # the CLI default grid
DISORDER_RUNS = ((("--phi-dist", "gaussian", "--varphi", "3"), 300),
                 (("--phi-dist", "trunc_tanh", "--a-phi", "1e-3"), 150))


def _disorder_mc(rng, variant):
    """Both phase families; the truncated-tanh run adds its rejection
    sampler and the headroom report, which draws every sample once more."""
    cmds = []
    for family, n_samples in DISORDER_RUNS:
        argv = ("disorder",) + family + ("--steps", str(DISORDER_STEPS),
                                         "--n-samples", str(n_samples),
                                         "--seed", str(rng.randrange(2**31)))
        cmds.append(Command(argv, work=n_samples * DISORDER_STEPS, samples=n_samples))
    return cmds


MEASURE_STEPS, SCATTER_SAMPLES, VOLUME_SAMPLES = 120, 400, 10**6


def _channel_body(rng, variant):
    """Trajectory measure with the eigenvalue scatter of both sampled
    families, plus the vectorised CP-volume estimate (the memory peak)."""
    measure = ("measure", "--no-overlay", "--steps", str(MEASURE_STEPS),
               "--t-max-tj", "60", "--scatter-samples", str(SCATTER_SAMPLES),
               "--seed", str(rng.randrange(2**31)))
    volume = ("volume", "--samples", str(VOLUME_SAMPLES), "--seed", str(rng.randrange(2**31)))
    return [Command(measure, work=2 * SCATTER_SAMPLES + MEASURE_STEPS),
            Command(volume, work=0)]


WORKLOADS = {w.name: w for w in (
    Workload("ed-steady",
             "steady tables over complete N=3-6 and ring N=4,5: one unitary per time, "
             "environment inputs rebuilt per site (kron_all hot)",
             "maps extracted", _ed_steady),
    Workload("ed-maps",
             "per-site maps with the 1e-9 closed-form oracle: cached inputs, one "
             "unitary per site and time (partial traces hot)",
             "maps extracted", _ed_maps),
    Workload("disorder-mc",
             "Monte Carlo disorder averages, Gaussian and truncated tanh: no ED, "
             "identical samples redrawn at every time step",
             "sample-time evaluations", _disorder_mc),
    Workload("channel-body",
             "channel-body measures: Choi-certified rejection sampling and the "
             "1e6-point CP volume (memory peak)",
             "accepted channel draws", _channel_body),
)}


def gate_failures(diagnostics: dict, command: str) -> list:
    """The command's own correctness verdicts, read from diagnostics.json."""
    d = diagnostics
    if command == "maps":
        check = d.get("analytic_check")
        out = [] if d.get("phase_covariant") else ["maps: phase_covariant is false"]
        if check is None:
            out.append(f"maps: no closed-form check ({d.get('analytic_skip_reason')})")
        elif not check["max_abs_err"] <= ORACLE_TOL:
            out.append(f"maps: analytic max_abs_err {check['max_abs_err']:.3e} > {ORACLE_TOL}")
        return out
    if command == "steady":
        return [f"steady: {key} is false" for key in ("pass", "constraint_ok") if not d.get(key)]
    if command == "disorder":
        return [] if d.get("flagged") == [] else [f"disorder: flagged {d.get('flagged')}"]
    if command == "measure":
        return [] if d.get("all_cp") is True else ["measure: all_cp is not true"]
    if command == "volume":
        return [] if d.get("pass") is True else ["volume: pass is not true"]
    return [f"{command}: no gate defined"]
