"""spinmaps benchmark: README commands in a closed loop, outputs checked.

    python3 bench/run.py --workload ed-maps --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

One client runs a workload's `spinmaps` commands in-process through
`spinmaps.cli.main(argv)`; each command starts when the previous one has
returned and its outputs have been checked. Every command is checked on
every pass: exit code 0, the command's own gates in diagnostics.json, and
each CSV against the reference outputs recorded at the seed commit. A
failed check counts against pass_frac; it does not stop the run.

--trace 0 reports the end-to-end metrics; --trace 1 spends half the time
untraced and half with spans on every traced layer, and reports the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object {correct, attempted, failed, metrics}.

BLAS is pinned to one thread before numpy loads: the plain single-threaded
baseline. Setting the variable after numpy has loaded has no effect, so
the thread count in effect is read back from the loaded OpenBLAS.

Times are scaled to a reference host speed: a fixed calibration kernel
(hostspeed.py) is timed just before and just after every command and every
set-up sample, and each time is multiplied by REFERENCE_S / the mean of the
two kernel times around it. The raw medians are printed too.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed
import references
import tracing
from workloads import WORKLOADS, gate_failures

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
RUNS = WORK / "runs"
MODULES = ("qlinalg", "network", "reduced", "analytic", "ensemble", "disorder",
           "measure", "cli")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
# A fresh interpreter imports everything, then prints the monotonic clock,
# which is shared by all processes on the machine.
SETUP_CODE = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import numpy, scipy; "
              + "; ".join(f"import spinmaps.{m}" for m in MODULES)
              + "; print(time.perf_counter())")
COMMAND_SPAN = "cli.command"

END_TO_END = {  # name: unit
    "setup_s": "s", "wall_s": "s", "work_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "pass_frac": "frac",
}


def per_layer_units(names) -> dict:
    units = {}
    for name in names:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_frac"] = "frac"
    units.update({
        "cli.self_s": "s", "cli.self_frac": "frac", "cli.csv_bytes": "bytes",
        "qlinalg.HermitianEvolver.unitary.calls_per_time": "ratio",
        "disorder.sample_pair.calls_per_sample": "ratio",
        "measure.uniform_sample.accept_ratio": "ratio",
        "measure.broken_uniform_sample.accept_ratio": "ratio",
        "trace_overhead_frac": "frac",
    })
    return units


def load_spinmaps() -> dict:
    """Pin BLAS to one thread, then import numpy and every spinmaps module."""
    os.environ.update({var: "1" for var in BLAS_VARS})
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"spinmaps.{name}") for name in MODULES}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter()
    return None


def environment() -> dict:
    import numpy
    import scipy
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor(), "blas_threads": blas_threads()}


@dataclass
class Result:
    wall: float
    cpu: float
    problems: list
    scale: float = 1.0  # REFERENCE_S / mean kernel seconds around the command
    identical: int = 0
    csv_files: int = 0
    csv_bytes: int = 0
    outdir: Path | None = None


def remove_run_dir(path):
    shutil.rmtree(path, ignore_errors=True)


def run_command(cmd, refs, keep=False, tracer=None) -> Result:
    """Run one command through cli.main and check everything it wrote.

    refs None skips the reference comparison (used while recording them).
    """
    from spinmaps import cli

    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(COMMAND_SPAN) if tracer else nullcontext()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err), span:
            rc = cli.main(list(cmd.argv) + ["--outdir", str(RUNS)])
    except SystemExit as exc:  # argparse exits on a flag it rejects
        rc = exc.code
    except Exception:  # a crashed command is a failed command, not a failed run
        rc = None
        err.write(traceback.format_exc())
    result = Result(wall=time.perf_counter() - wall0, cpu=time.process_time() - cpu0,
                    problems=[])
    lines = out.getvalue().splitlines()
    outdir = Path(lines[-1]) if lines and Path(lines[-1]).is_dir() else None
    if rc != 0:
        last = err.getvalue().strip().splitlines()[-1:] or [""]
        result.problems.append(f"exit {rc}: {last[0]}")
    elif outdir is None:
        result.problems.append("no run directory printed")
    else:
        try:
            result.problems += check_outputs(cmd, outdir, refs, result)
        except (OSError, ValueError, LookupError, TypeError) as exc:  # malformed output
            result.problems.append(f"unreadable output: {exc!r}")
    if keep:
        result.outdir = outdir
    elif outdir is not None:
        remove_run_dir(outdir)
    return result


def check_outputs(cmd, outdir, refs, result) -> list:
    problems = gate_failures(json.loads((outdir / "diagnostics.json").read_text()), cmd.argv[0])
    csvs = {path.name: path.read_bytes() for path in sorted(outdir.glob("*.csv"))}
    result.csv_files = len(csvs)
    result.csv_bytes = sum(len(data) for data in csvs.values())
    if refs is None:
        return problems
    expected = refs.get(references.command_key(cmd.argv))
    if expected is None:
        return problems + ["no reference outputs for this command"]
    if set(expected) != set(csvs):
        problems.append(f"wrote {sorted(csvs)}, reference has {sorted(expected)}")
    for name in set(expected) & set(csvs):
        identical, diffs = references.compare(csvs[name], expected[name])
        result.identical += identical
        problems += [f"{name}: {d}" for d in diffs[:3]]
    return problems


@dataclass
class Tally:
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    identical: int = 0
    csv_files: int = 0
    problems: list = field(default_factory=list)

    def add(self, cmd, result: Result):
        self.attempted += 1
        self.failed += bool(result.problems)
        self.identical += result.identical
        self.csv_files += result.csv_files
        if result.problems and len(self.problems) < 10:
            self.problems.append(f"{' '.join(cmd.argv)}: {'; '.join(result.problems)}")


def run_pass(commands, refs, tally, tracer=None, calibrator=None) -> list:
    """One pass through the commands: their Results. With a calibrator, the
    kernel is timed before the first command and after each one, and each
    Result's scale comes from the two samples around it."""
    tally.passes += 1
    results = []
    kernel = calibrator.sample() if calibrator is not None else None
    for cmd in commands:
        if tracer is not None:
            tracer.request = tally.attempted
        result = run_command(cmd, refs, tracer=tracer)
        if calibrator is not None:
            previous, kernel = kernel, calibrator.sample()
            result.scale = hostspeed.REFERENCE_S / ((previous + kernel) / 2)
        tally.add(cmd, result)
        results.append(result)
    return results


@dataclass
class Passes:
    """Per-pass times, over the commands only (not the checks and kernels
    between them), scaled to the reference host speed, and raw."""
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    raw_walls: list = field(default_factory=list)
    csv_bytes: int = 0


def timed_passes(cycle, refs, tally, seconds, calibrator, tracer=None) -> Passes:
    """Passes until `seconds` have gone, each on the next variant of the cycle."""
    out = Passes()
    deadline = time.perf_counter() + seconds
    while not out.walls or time.perf_counter() < deadline:
        _, commands = cycle[tally.passes % len(cycle)]
        results = run_pass(commands, refs, tally, tracer, calibrator)
        out.walls.append(sum(r.wall * r.scale for r in results))
        out.cpus.append(sum(r.cpu * r.scale for r in results))
        out.raw_walls.append(sum(r.wall for r in results))
        out.csv_bytes = sum(r.csv_bytes for r in results)
    return out


def setup_seconds(calibrator) -> float:
    """Median time from process start to every spinmaps module, numpy and
    scipy imported, over fresh interpreters, each scaled by the kernels
    timed just before and after it. The interpreters inherit the BLAS pin
    that load_spinmaps put in the environment."""
    samples = []
    kernel = calibrator.sample()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              check=True, timeout=120, capture_output=True, text=True)
        seconds = float(proc.stdout) - start
        previous, kernel = kernel, calibrator.sample()
        samples.append(seconds * hostspeed.REFERENCE_S / ((previous + kernel) / 2))
    return statistics.median(samples)


def end_to_end(commands, walls, cpus, setup_s, tally) -> dict:
    wall = statistics.median(walls)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "work_per_s": sum(c.work for c in commands) / wall,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(commands, spans, passes, names, csv_bytes, overhead) -> tuple:
    """(metrics, breakdown rows) from the spans of `passes` traced passes."""
    summary = tracing.summarize(spans)
    command = summary[COMMAND_SPAN]
    command_ns = sum(command["durations_ns"])
    empty = {"calls": 0, "self_ns": 0, "durations_ns": []}

    def calls(name):
        return summary.get(name, empty)["calls"] / passes

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    rows = []
    for name in names + [COMMAND_SPAN]:
        entry = summary.get(name, empty)
        label = "cli" if name == COMMAND_SPAN else name
        if name != COMMAND_SPAN:
            values[f"{name}.calls"] = calls(name)
        values[f"{label}.self_frac"] = entry["self_ns"] / command_ns
        rows.append((label, calls(name), entry["self_ns"] / passes / 1e9,
                     entry["self_ns"] / command_ns,
                     tracing.percentile_us(entry["durations_ns"], 50),
                     tracing.percentile_us(entry["durations_ns"], 99)))
    values.update({
        "cli.self_s": command["self_ns"] / passes / 1e9,
        "cli.csv_bytes": csv_bytes,
        "qlinalg.HermitianEvolver.unitary.calls_per_time": ratio(
            calls("qlinalg.HermitianEvolver.unitary"), sum(c.times for c in commands)),
        "disorder.sample_pair.calls_per_sample": ratio(
            calls("disorder.sample_pair"), sum(c.samples for c in commands)),
        "measure.uniform_sample.accept_ratio": ratio(
            summary.get("measure.uniform_sample", empty)["calls"],
            tracing.count_children(spans, "measure.cp_contains", "measure.uniform_sample")),
        "measure.broken_uniform_sample.accept_ratio": ratio(
            summary.get("measure.broken_uniform_sample", empty)["calls"],
            tracing.count_children(spans, "reduced.choi_check", "measure.broken_uniform_sample")),
        "trace_overhead_frac": overhead,
    })
    units = per_layer_units(names)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, rows


def _us(value) -> str:
    return "-" if value is None else f"{value:.1f}"


def print_breakdown(rows):
    print(f"{'layer':42s} {'calls/pass':>11s} {'self_s/pass':>12s} {'self_frac':>9s} "
          f"{'p50_us':>9s} {'p99_us':>9s}")
    for label, calls, self_s, frac, p50, p99 in sorted(rows, key=lambda r: -r[2]):
        if calls or label == "cli":
            print(f"{label:42s} {calls:11.1f} {self_s:12.6f} {frac:9.4f} "
                  f"{_us(p50):>9s} {_us(p99):>9s}")


def run_workload(args) -> int:
    if not (SRC / "spinmaps" / "cli.py").is_file():
        print(f"error: no spinmaps source at {SRC}", file=sys.stderr)
        return 2
    try:
        refs = references.load()
    except OSError as exc:
        print(f"error: cannot read reference outputs: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    cycle = workload.cycle(args.seed)
    commands = cycle[0][1]  # every variant does the same work
    mods = load_spinmaps()
    print("env " + json.dumps(environment(), sort_keys=True))
    calibrator = hostspeed.Calibrator()
    setup_s = setup_seconds(calibrator) if not args.trace else None

    remove_run_dir(RUNS)
    tally = Tally()
    run_pass(commands, refs, tally, calibrator=calibrator)  # warm-up: lazy imports
    if not args.trace:
        passes = timed_passes(cycle, refs, tally, args.seconds, calibrator)
        metrics = end_to_end(commands, passes.walls, passes.cpus, setup_s, tally)
        rows = None
    else:
        passes = timed_passes(cycle, refs, tally, args.seconds / 2, calibrator)
        tracer = tracing.Tracer()
        targets = tracing.trace_targets(mods)
        tracer.install(targets)
        try:
            traced = timed_passes(cycle, refs, tally, args.seconds / 2, calibrator, tracer)
        finally:
            tracer.uninstall()
        overhead = statistics.median(traced.walls) / statistics.median(passes.walls) - 1.0
        metrics, rows = per_layer(commands, tracer.spans, len(traced.walls),
                                  tracing.traced_names(targets), traced.csv_bytes, overhead)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"trace-{workload.name}-seed{args.seed}.jsonl.gz")
    remove_run_dir(RUNS)

    print(f"workload {workload.name} variants {[v for v, _ in cycle]}: {len(commands)} commands, "
          f"{len(passes.walls)} timed passes, work {sum(c.work for c in commands)} "
          f"{workload.work_unit}/pass; csv byte-identical {tally.identical}/{tally.csv_files}")
    print(f"host speed: calibration kernel median {statistics.median(calibrator.samples):.4f} s "
          f"(reference {hostspeed.REFERENCE_S} s); raw median pass "
          f"{statistics.median(passes.raw_walls):.4f} s")
    for problem in tally.problems:
        print("FAILED " + problem, file=sys.stderr)
    if rows is not None:
        print_breakdown(rows)
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table and one object."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = results[name] = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    first = next(iter(results.values()))["metrics"]
    print(f"== all workloads\n{'metric':48s} {'unit':6s} " + " ".join(f"{n:>13s}" for n in results))
    for metric, entry in first.items():
        print(f"{metric:48s} {entry['unit']:6s} "
              + " ".join(f"{r['metrics'][metric]['value']:13.6g}" for r in results.values()))
    print(json.dumps(merged))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
