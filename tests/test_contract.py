"""Fast checks of tools/contract.py's comparisons and edge lines; none
checks a revision out."""

import importlib.util
import json
import math
import shlex
from pathlib import Path

import pytest

from spinmaps import cli

CONTRACT = Path(__file__).resolve().parents[1] / "tools" / "contract.py"
_spec = importlib.util.spec_from_file_location("contract", CONTRACT)
contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract)


def csv_bytes(header, *rows) -> bytes:
    return "\n".join(",".join(map(str, r)) for r in (header, *rows)).encode() + b"\n"


def test_theta_columns_wrap_modulo_two_pi():
    old = csv_bytes(("t", "theta", "phase"), (0, math.pi - 1e-12, math.pi - 1e-12))
    new = csv_bytes(("t", "theta", "phase"), (0, -math.pi + 1e-12, -math.pi + 1e-12))
    verdict = contract.compare_csv(old, new)
    theta, phase = verdict.split(", ")
    assert theta.startswith("theta ") and float(theta.split()[1]) < 1e-11
    assert phase.startswith("phase ") and float(phase.split()[1]) > 6.0


def test_nan_on_one_side_differs_and_on_both_does_not():
    both = csv_bytes(("t", "x"), (0, "nan"), (1, 0.5))
    one = csv_bytes(("t", "x"), (0, 0.25), (1, 0.5))
    assert contract.compare_csv(both, both) == "identical values"
    assert contract.compare_csv(both, one) == "x inf"
    assert contract.compare_csv(one, both) == "x inf"


def test_equal_values_in_other_bytes_are_identical_values():
    assert contract.compare_csv(csv_bytes(("t", "x"), (0, "0.5")),
                                csv_bytes(("t", "x"), (0, "5e-1"))) == "identical values"


@pytest.mark.parametrize("new", [csv_bytes(("t", "y"), (0, 0.5), (1, 0.5)),
                                 csv_bytes(("t", "x"), (0, 0.5)),
                                 csv_bytes(("t", "x"), (0, 0.5), (1, 0.5), (2, 0.5))])
def test_header_or_row_count_change_is_named(new):
    old = csv_bytes(("t", "x"), (0, 0.5), (1, 0.5))
    assert contract.compare_csv(old, new).startswith("header or row count changed")


def test_json_key_on_one_side_and_value_changes():
    old = json.dumps({"a": 1.0, "b": {"c": True}, "gone": 3, "s": "x"}).encode()
    new = json.dumps({"a": 1.5, "b": {"c": False}, "new": [1], "s": "x"}).encode()
    assert contract.compare_json(old, new) == ", ".join(sorted([
        "a 0.5", "b.c True -> False", "gone only on one side", "new[0] only on one side"]))
    assert contract.compare_json(old, old) == "identical values"


def test_changed_exit_code_gets_its_own_row():
    old = {"exit": 3, "stderr": "e", "files": {}}
    new = {"exit": 0, "stderr": "e", "files": {"data.csv": b"t\n0\n"}}
    assert contract.compare(old, new) == [("exit", "3 -> 0"),
                                          ("data.csv", "only in the change")]


def test_failed_verdict_keeps_its_files(tmp_path):
    # exit 3 writes its files before it reports, so they are compared too
    outdir = tmp_path / "out"
    outdir.mkdir()
    got = contract.run(contract.ROOT, ["steady", "--topology", "complete", "--n", "3",
                                       "--horizon-tj", "1.3"], outdir)
    assert got["exit"] == 3 and "horizon too short" in got["stderr"]
    assert set(got["files"]) == {"data.csv", "diagnostics.json"}


@pytest.mark.parametrize("line", contract.EDGE_LINES)
def test_edge_lines_parse(line):
    # an edge line must reach the command's own checks, not argparse's exit 2
    assert line.startswith("spinmaps ")
    cli.build_parser().parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize("full", [False, True], ids=["capped", "full"])
def test_variants_cap_disorder_samples_unless_full(full):
    lines = ["spinmaps disorder --phi-dist trunc_tanh --a-phi 1e-3 --n-samples 200000",
             "spinmaps disorder --varphi 3 --seed 0",
             "spinmaps measure --c 0.5",
             "spinmaps steady --n 4"]
    capped = contract.DISORDER_SAMPLES
    assert contract.variants(lines, full) == [
        ["disorder", "--phi-dist", "trunc_tanh", "--a-phi", "1e-3", "--n-samples",
         "200000" if full else capped],
        ["disorder", "--varphi", "3", "--seed", "0"] + ([] if full else ["--n-samples", capped]),
        ["measure", "--c", "0.5"],
        ["measure", "--c", "0.5", "--no-overlay"],
        ["steady", "--n", "4"],
    ]
