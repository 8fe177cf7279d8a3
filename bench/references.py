"""Reference outputs recorded at the seed commit, and the comparison.

For each command of every variant the store keeps, per CSV file the run
writes: its sha256, header, row count, and up to SAMPLE_ROWS rows spread
evenly from first to last. A run's CSV agrees when header and row count
match and every sampled field is within TOL of the reference (text fields
exactly). Byte identity is reported as a count, not as a failure.

Record with `python3 bench/references.py` from the repository root; it
refuses to write if any command fails its own gates.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

STORE = Path(__file__).resolve().parent / "references.json.gz"
SAMPLE_ROWS = 32
TOL = 1e-9


def command_key(argv) -> str:
    return " ".join(argv)


def _sample_indices(rows: int) -> list:
    if rows <= SAMPLE_ROWS:
        return list(range(rows))
    return sorted({round(k * (rows - 1) / (SAMPLE_ROWS - 1)) for k in range(SAMPLE_ROWS)})


def fingerprint(data: bytes) -> dict:
    table = list(csv.reader(io.StringIO(data.decode())))
    header, body = table[0], table[1:]
    return {"sha256": hashlib.sha256(data).hexdigest(), "header": header,
            "rows": len(body), "sample": [[i, body[i]] for i in _sample_indices(len(body))]}


def _field_agrees(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= TOL


def compare(data: bytes, ref: dict):
    """(byte_identical, problems) for one CSV against its reference."""
    if hashlib.sha256(data).hexdigest() == ref["sha256"]:
        return True, []
    table = list(csv.reader(io.StringIO(data.decode())))
    header, body = table[0], table[1:]
    if header != ref["header"]:
        return False, [f"header {header} != {ref['header']}"]
    if len(body) != ref["rows"]:
        return False, [f"{len(body)} rows, reference has {ref['rows']}"]
    problems = []
    for index, want in ref["sample"]:
        got = body[index]
        if len(got) != len(want) or not all(map(_field_agrees, got, want)):
            problems.append(f"row {index}: {got} != {want} (tol {TOL})")
    return False, problems


def load() -> dict:
    with gzip.open(STORE, "rt") as fh:
        return json.load(fh)


def record():
    """Run every variant once and store the fingerprints of its CSVs."""
    import run  # the harness: pins BLAS threads and imports spinmaps
    from workloads import VARIANTS, WORKLOADS

    run.load_spinmaps()
    store = {}
    for workload in WORKLOADS.values():
        for variant in range(VARIANTS):
            for cmd in workload.commands(variant):
                result = run.run_command(cmd, refs=None, keep=True)
                if result.problems:
                    raise SystemExit(f"not recording: {command_key(cmd.argv)}: {result.problems}")
                store[command_key(cmd.argv)] = {
                    path.name: fingerprint(path.read_bytes())
                    for path in sorted(result.outdir.glob("*.csv"))}
                run.remove_run_dir(result.outdir)
                print(f"{workload.name}/{variant}: {command_key(cmd.argv)}")
    with open(STORE, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write((json.dumps(store, sort_keys=True, indent=0) + "\n").encode())


if __name__ == "__main__":
    record()
