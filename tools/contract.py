"""Compare the CLI outputs of this tree against another git revision.

    python3 tools/contract.py --against <rev> [--full]

Checks <rev> out with `git worktree add` into a temporary directory (and
removes the worktree when done), then runs every `spinmaps` line of the
README's command blocks, read as tests/test_cli.py's readme_commands reads
them, and every line of EDGE_LINES, once against each tree's src/. Each run is a fresh process with BLAS
at 1 thread and its own output directory. `disorder` lines run at
--n-samples 2000 unless --full runs them at the sample counts they give
(several minutes for the README's 200,000-sample line), and each `measure`
line runs once more with --no-overlay.

Prints one row per line and file (data.csv, eigenvalues.csv,
diagnostics.json): "identical", or the largest absolute difference per CSV
column or JSON entry, with theta columns compared modulo 2 pi. A change of
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
# networks without a steady table or without exchange (exit 4), and the two
# `fluct` states whose equal-gap amplitudes cancel (exit 3 until
# `curvature()` summed them, exit 0 since), and two `measure` lines that
# take trunc_gauss_sample to both ends of its sigma range (exit 0), and two
# `steady` lines whose pure partners give steady's map kernel the weight
# rows [1, 0] and [0, 1] exactly, with a signed zero among them (exit 0).
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
    "spinmaps fluct --topology ring --n 4 --state neel",
    "spinmaps fluct --topology complete --n 3 --state custom --z-list 0.5,-0.5,0 --horizon-tj 40",
    "spinmaps measure --c 20 --steps 200 --t-max-tj 600 --seed 3",
    "spinmaps measure --c 0.05 --steps 200 --t-max-tj 600 --seed 4 --tau3-rule signed",
    "spinmaps steady --topology ring --n 4 --state custom --z-list=1,-1,0,-0.0 --horizon-tj 40",
    "spinmaps steady --topology complete --n 6 --state custom --z-list=1,-1,1,-1,0.5,-0.0 "
    "--horizon-tj 40",
)


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
    """Exit code, stderr (tree path masked) and output files of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **ONE_THREAD)
    proc = subprocess.run([sys.executable, "-m", "spinmaps.cli", *argv, "--outdir", str(outdir)],
                          cwd=outdir.parent, env=env, capture_output=True, text=True)
    files = {}
    if proc.stdout.strip():  # a failed verdict (exit 3) prints its run directory too
        run_dir = Path(proc.stdout.strip().splitlines()[-1])
        files = {name: (run_dir / name).read_bytes() for name in FILES
                 if (run_dir / name).exists()}
    return {"exit": proc.returncode, "stderr": proc.stderr.replace(str(tree), "<tree>"),
            "files": files}


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


def compare(old: dict, new: dict) -> list:
    """(file, verdict) rows for one line; the verdict of an unchanged
    file, or of a run that wrote none on either side, is "identical"."""
    rows = []
    if old["exit"] != new["exit"]:
        rows.append(("exit", f"{old['exit']} -> {new['exit']}"))
    if old["stderr"] != new["stderr"]:
        rows.append(("stderr", f"{old['stderr'].strip()!r} -> {new['stderr'].strip()!r}"))
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
    changed = False
    with tempfile.TemporaryDirectory(prefix="spinmaps-contract-") as tmp:
        base = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(base), args.against], check=True)
        try:
            for k, argv_k in enumerate(lines):
                results = []
                for side, tree in (("rev", base), ("new", ROOT)):
                    outdir = Path(tmp) / f"{side}-{k}" / "out"
                    outdir.parent.mkdir()
                    results.append(run(tree, argv_k, outdir))
                for name, verdict in compare(*results):
                    changed |= verdict != "identical"
                    print(f"spinmaps {shlex.join(argv_k)} | {name} | {verdict}", flush=True)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                           check=True)
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
