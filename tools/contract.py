"""Compare the CLI outputs of this tree against another git revision.

    python3 tools/contract.py --against <rev> [--full]

Unpacks <rev> with `git archive <rev> | tar -x` into a temporary directory
(nothing under .git is written, and nothing is left to clean up), then runs
every `spinmaps` line of the README's command blocks, read as
tests/test_cli.py's readme_commands reads them, and every line of
EDGE_LINES and HELP_LINES, once against each tree's src/. Each run is a fresh process with
BLAS at 1 thread and its own output directory. `disorder` lines run at
--n-samples 2000 unless --full runs them at the sample counts they give
(several minutes for the README's 200,000-sample line), and each `measure`
line runs once more with --no-overlay.

Prints one row per line and file (data.csv, eigenvalues.csv,
diagnostics.json, and stdout for a help line): "identical", or the largest
absolute difference per CSV column or JSON entry, with theta columns
compared modulo 2 pi, or the count of help lines that differ. A change of
exit code or of stderr gets its own row. Exits 1 when anything differs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = ("data.csv", "eigenvalues.csv", "diagnostics.json")
DISORDER_SAMPLES = "2000"
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}

# Lines the README does not run, each pinning an exit code: inputs that
# describe no network, fields out of range and flags of the other `maps`
# setup (exit 2), a steady horizon too short for its tolerance (exit 3),
# networks without a steady table or without exchange (exit 4), a complete
# N=7 steady line whose table is derived (exit 0), and the two
# `fluct` states whose equal-gap amplitudes cancel (exit 3 until
# `curvature()` summed them, exit 0 since), and two `measure` lines that
# take trunc_gauss_sample to both ends of its sigma range (exit 0), two
# `steady` lines whose pure partners give steady's map kernel the weight
# rows [1, 0] and [0, 1] exactly, with a signed zero among them (exit 0),
# and three `maps` lines (exit 0): pure partners, whose square roots scale
# columns of the U(t) that every site shares by zero, a grid of the single
# time t = 0 on ring N=6 (numeric-only until the ring oracle took every
# (charge, momentum) block to eigh), and complete N=7, whose closed form is
# derived from collective spin. The next nine are
# float-arithmetic limits (exit 2, naming the option): disorder widths whose
# envelope rate sigma_omega^2 + 4 sigma_h^2 overflows (1e300 raised
# OverflowError and 1e154 wrote a NaN closed form before the limit),
# couplings so small that t_J = 2 pi/|J| is inf, and couplings whose t_J is
# finite but whose longest span in t_J times t_J is not. The last four are
# `maps` lines whose roundoff budget eps max|E| t_max is at or above 2.5e-10,
# where the 1e-9 closed-form check cannot hold (exit 4; before the budget a
# large field exited 0 with max_abs_err 2.3e-9 and 3.6e-6, and a tiny j_perp
# exited 3 as a map that is not Hermiticity-preserving or a CP violation).
# Then five ring `maps` lines (exit 0) that hold the closed form derived
# from the (charge, momentum) blocks to the engine: ring N=4 as the XX ring
# (J_par = 0) and at J_par < 0 with pure partners and a signed zero, and
# ring N=5, which ran numeric-only away from J_par = J_perp before the
# derivation, at J_par = 0.37 in a strong field, as the XX ring, and at
# J_par < 0 with pure partners and a signed zero. Then three
# `steady` and `fluct` lines whose roundoff budget eps ||H|| t_max is at or
# above a quarter of their tolerance (exit 4; before the budget they exited
# 3 as a horizon too short, a numerical failure and a NaN doubling change).
# Then a `disorder` line whose roundoff budget
# eps (2|B| + |Omega| + 4 sigma_h + sigma_omega) t_max is at or above 1e-4
# (exit 4; before the budget it exited 3 as closed-form/MC disagreements).
# Then an `xx_pairs` partner whose norm passes a hypot test but not
# bloch_vector's x^2 + y^2 + z^2 <= 1 + 1e-12 (exit 2, naming x2; before,
# the message named no option). Then register sizes and topologies that
# describe no network (exit 2, naming n or topology; before, the message
# named neither), seeds of 2**128 and above, which no Philox stream takes
# (exit 2 naming seed for disorder and measure, exit 0 for volume and
# quench, which do not key a Philox stream), and grids and counts larger
# than any array (exit 2, naming the option; before, numpy's "Maximum
# allowed size exceeded", and a traceback where the point count overflowed).
# Then a `quench` window under one t_J (exit 0, with a `warning: ...` line on
# stderr; before, a raw UserWarning with its source path and line). Then the
# ring oracle's ends: ring N=8, the largest it serves (exit 0 with an
# analytic_check; numeric-only before it diagonalised each (charge, momentum)
# block with eigh), ring N=9, the first above that cap (exit 0, numeric-only,
# the cap in the warning), and an `xx_pairs` pair without exchange (exit 2
# naming j; `maps --j-perp 0` and `quench --j 0` above name j_perp and j
# too, where all three named the function t_scale before). Last, a measure
# width constant c whose sigma(t) = (c/n)/t leaves the double range: sigma
# at t = 0.1 t_J overflows, or c/n underflows to 0 (exit 2 naming c; before,
# exit 3 for a "non-CP triple" and exit 2 with a message naming no option).
EDGE_LINES = (
    "spinmaps steady --n 1",
    "spinmaps steady --topology ring --n 2",
    "spinmaps fluct --topology xx_pairs",
    "spinmaps measure --n 1",
    "spinmaps maps --topology xx_pairs --n 4",
    "spinmaps maps --j-perp 0",
    "spinmaps quench --j 0",
    "spinmaps disorder --varphi 1e-170",
    "spinmaps disorder --phi-dist trunc_tanh --a-phi 1e-170",
    "spinmaps measure --t-max-tj 0.05",
    "spinmaps measure --c 0",
    "spinmaps steady --topology complete --n 3 --horizon-tj 1.3",
    "spinmaps steady --j-perp 0",
    "spinmaps fluct --j-perp 0",
    "spinmaps measure --j-perp 0",
    "spinmaps steady --topology ring --n 5 --j-par 0.6",
    "spinmaps steady --topology complete --n 7 --horizon-tj 1",
    "spinmaps steady --topology ring --n 6 --horizon-tj 1",
    "spinmaps fluct --topology ring --n 4 --state neel",
    "spinmaps fluct --topology complete --n 3 --state custom --z-list 0.5,-0.5,0 --horizon-tj 40",
    "spinmaps measure --c 20 --steps 200 --t-max-tj 600 --seed 3",
    "spinmaps measure --c 0.05 --steps 200 --t-max-tj 600 --seed 4 --tau3-rule signed",
    "spinmaps steady --topology ring --n 4 --state custom --z-list=1,-1,0,-0.0 --horizon-tj 40",
    "spinmaps steady --topology complete --n 6 --state custom --z-list=1,-1,1,-1,0.5,-0.0 "
    "--horizon-tj 40",
    "spinmaps maps --topology complete --n 4 --state custom --z-list=1,-1,0,-0.0 --t-max-tj 2",
    "spinmaps maps --topology ring --n 6 --state neel --t-max-tj 0",
    "spinmaps maps --topology complete --n 7 --t-max-tj 1",
    "spinmaps disorder --sigma-h 1e300",
    "spinmaps disorder --sigma-h 1e154",
    "spinmaps fluct --j-perp 5e-324",
    "spinmaps steady --j-perp 1e-310",
    "spinmaps quench --j 5e-324",
    "spinmaps steady --j-perp 1e-307",
    "spinmaps fluct --j-perp 1e-307",
    "spinmaps maps --j-perp 1e-307",
    "spinmaps quench --j 1e-307",
    "spinmaps maps --h 1e5",
    "spinmaps maps --h 1e8",
    "spinmaps maps --j-perp 5e-307",
    "spinmaps maps --j-perp 1e-300",
    "spinmaps maps --topology ring --n 4 --j-par 0 --t-max-tj 2",
    "spinmaps maps --topology ring --n 4 --j-par -0.6 --state custom --z-list=1,-1,0,-0.0 "
    "--t-max-tj 2",
    "spinmaps maps --topology ring --n 5 --j-par 0.37 --h 1.3 --t-max-tj 2",
    "spinmaps maps --topology ring --n 5 --j-par 0 --t-max-tj 2",
    "spinmaps maps --topology ring --n 5 --j-par -0.6 --state custom --z-list=1,-1,0,-0.0,0.5 "
    "--t-max-tj 2",
    "spinmaps steady --j-perp 1e-305 --horizon-tj 20",
    "spinmaps steady --h 1e300 --j-perp 1e-300",
    "spinmaps fluct --j-perp 3e-306 --horizon-tj 40",
    "spinmaps disorder --b 1e300",
    "spinmaps maps --topology xx_pairs --x2 1.0000000000008",
    "spinmaps maps --n 1",
    "spinmaps fluct --n 1",
    "spinmaps quench --n 1",
    "spinmaps measure --preset ring --n 2",
    "spinmaps steady --topology xx_pairs",
    "spinmaps disorder --seed 340282366920938463463374607431768211456",
    "spinmaps measure --seed 340282366920938463463374607431768211456",
    "spinmaps volume --samples 100000 --seed 340282366920938463463374607431768211456",
    "spinmaps quench --n-cl 25 --schedule random --seed 340282366920938463463374607431768211456",
    "spinmaps maps --points-per-tj 1e300",
    "spinmaps maps --t-max-tj 1e300 --points-per-tj 1e300",
    "spinmaps steady --horizon-tj 1e300",
    "spinmaps disorder --steps 100000000000000000000",
    "spinmaps measure --steps 100000000000000000000 --no-overlay",
    "spinmaps quench --n-cl 100000000000000000000",
    "spinmaps quench --n-cl 100000000000000000000 --schedule random",
    "spinmaps quench --window-tj 0.5 --n-cl 5",
    "spinmaps maps --topology ring --n 8 --t-max-tj 1",
    "spinmaps maps --topology ring --n 9 --t-max-tj 0",
    "spinmaps maps --topology xx_pairs --j 0",
    "spinmaps measure --c 1e308 --steps 3",
    "spinmaps measure --c 5e-324 --steps 3",
)

# The help page of the program and of every command, compared on stdout.
HELP_LINES = ("spinmaps --help",) + tuple(
    f"spinmaps {name} --help"
    for name in ("maps", "steady", "fluct", "disorder", "measure", "volume", "quench"))


def readme_commands(readme: Path) -> list:
    """Every line of a README command block that starts with `spinmaps `."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("spinmaps ")]


def variants(lines, full: bool = False) -> list:
    """argv lists to run: each `measure` line also without overlay, and
    `disorder` at DISORDER_SAMPLES unless full (a cap shrinks only the
    sample count, never a grid, a horizon or a seed)."""
    out = []
    for line in lines:
        argv = shlex.split(line)[1:]
        if argv[0] == "disorder" and not full:
            if "--n-samples" in argv:
                argv[argv.index("--n-samples") + 1] = DISORDER_SAMPLES
            else:
                argv += ["--n-samples", DISORDER_SAMPLES]
        out.append(argv)
        if argv[0] == "measure":
            out.append(argv + ["--no-overlay"])
    return out


def run(tree: Path, argv: list, outdir: Path) -> dict:
    """Exit code, stderr (tree path masked) and output files of one CLI run;
    for a help line, its stdout and no files."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    help_page = "--help" in argv
    proc = subprocess.run([sys.executable, "-m", "spinmaps.cli", *argv]
                          + ([] if help_page else ["--outdir", str(outdir)]),
                          cwd=outdir.parent, env=env, capture_output=True, text=True)
    files = {}
    # a failed verdict (exit 3) prints its run directory too
    if proc.stdout.strip() and not help_page:
        run_dir = Path(proc.stdout.strip().splitlines()[-1])
        files = {name: (run_dir / name).read_bytes() for name in FILES
                 if (run_dir / name).exists()}
    return {"exit": proc.returncode, "stderr": proc.stderr.replace(str(tree), "<tree>"),
            "stdout": proc.stdout if help_page else "", "files": files}


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _gap(name: str, a, b) -> float:
    """|a - b|, modulo 2 pi for theta columns; inf where exactly one is NaN."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:
        return 0.0
    d = abs(a - b)
    if "theta" in name:
        d = math.fmod(d, 2.0 * math.pi)
        d = min(d, 2.0 * math.pi - d)
    return d


def _columns(rows_a, rows_b, names) -> dict:
    """Largest difference per column; non-numeric cells count as differing."""
    out = {}
    for k, name in enumerate(names):
        worst = 0.0
        for ra, rb in zip(rows_a, rows_b):
            a, b = _number(ra[k]), _number(rb[k])
            if a is None or b is None:
                worst = max(worst, 0.0 if ra[k] == rb[k] else math.inf)
            else:
                worst = max(worst, _gap(name, a, b))
        if worst:
            out[name] = worst
    return out


def compare_csv(old: bytes, new: bytes) -> str:
    a = list(csv.reader(io.StringIO(old.decode())))
    b = list(csv.reader(io.StringIO(new.decode())))
    if a[0] != b[0] or len(a) != len(b):
        return f"header or row count changed ({a[0]} x {len(a) - 1} -> {b[0]} x {len(b) - 1})"
    diffs = _columns(a[1:], b[1:], a[0])
    return ", ".join(f"{k} {v:.3g}" for k, v in diffs.items()) or "identical values"


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}.{key}" if prefix else key)
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}[{k}]")
    else:
        yield prefix, obj


def compare_json(old: bytes, new: bytes) -> str:
    a, b = dict(_flatten(json.loads(old))), dict(_flatten(json.loads(new)))
    rows = [f"{key} only on one side" for key in sorted(a.keys() ^ b.keys())]
    for key in a.keys() & b.keys():
        x, y = a[key], b[key]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if numeric and x != y:
            rows.append(f"{key} {_gap(key, float(x), float(y)):.3g}")
        elif not numeric and x != y:
            rows.append(f"{key} {x!r} -> {y!r}")
    return ", ".join(sorted(rows)) or "identical values"


def compare_text(old: str, new: str) -> str:
    a, b = old.splitlines(), new.splitlines()
    changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return f"{changed} of {max(len(a), len(b))} lines differ" if changed else "identical"


def compare(old: dict, new: dict) -> list:
    """(file, verdict) rows for one line; the verdict of an unchanged
    file, or of a run that wrote none on either side, is "identical"."""
    rows = []
    if old["exit"] != new["exit"]:
        rows.append(("exit", f"{old['exit']} -> {new['exit']}"))
    if old["stderr"] != new["stderr"]:
        rows.append(("stderr", f"{old['stderr'].strip()!r} -> {new['stderr'].strip()!r}"))
    if old.get("stdout") or new.get("stdout"):
        rows.append(("stdout", compare_text(old.get("stdout", ""), new.get("stdout", ""))))
    for name in FILES:
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None and b is None:
            continue
        if a is None or b is None:
            rows.append((name, "only in " + ("the change" if a is None else "the revision")))
        elif a == b:
            rows.append((name, "identical"))
        else:
            rows.append((name, (compare_json if name.endswith(".json") else compare_csv)(a, b)))
    return rows or [(f"exit {new['exit']}, no files", "identical")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--full", action="store_true",
                        help="run disorder at the README sample counts, not at "
                             f"--n-samples {DISORDER_SAMPLES}")
    args = parser.parse_args(argv)
    lines = variants(readme_commands(ROOT / "README.md") + list(EDGE_LINES), args.full)
    lines += [shlex.split(line)[1:] for line in HELP_LINES]
    changed = False
    with tempfile.TemporaryDirectory(prefix="spinmaps-contract-") as tmp:
        base = Path(tmp) / "tree"
        base.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.against],
                                 check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        for k, argv_k in enumerate(lines):
            results = []
            for side, tree in (("rev", base), ("new", ROOT)):
                outdir = Path(tmp) / f"{side}-{k}" / "out"
                outdir.parent.mkdir()
                results.append(run(tree, argv_k, outdir))
            for name, verdict in compare(*results):
                changed |= verdict != "identical"
                print(f"spinmaps {shlex.join(argv_k)} | {name} | {verdict}", flush=True)
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
