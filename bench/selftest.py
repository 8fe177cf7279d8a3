"""Fast checks of the benchmark itself, at tiny sizes (a few seconds).

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import types
import unittest

import hostspeed
import references
import run
import tracing
from workloads import WORKLOADS, Command


def traced_calls(argv_list) -> dict:
    """Run commands with every layer traced; span name -> calls."""
    tracer = tracing.Tracer()
    tracer.install(tracing.trace_targets(run.load_spinmaps()))
    try:
        results = [run.run_command(Command(tuple(argv), work=0), refs=None, tracer=tracer)
                   for argv in argv_list]
    finally:
        tracer.uninstall()
    for result in results:
        assert not result.problems, result.problems
    return {name: entry["calls"] for name, entry in tracing.summarize(tracer.spans).items()}


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [("a", 0, 100, -1, 0), ("b", 10, 40, 0, 0), ("c", 20, 30, 1, 0),
                 ("d", 50, 70, 0, 0)]
        self.assertEqual(tracing.self_times_ns(spans), [50, 20, 10, 20])

    def test_overlapping_children_count_once(self):
        self.assertEqual(tracing.covered_ns(0, 100, [(30, 60), (10, 40), (90, 120)]), 60)

    def test_tracer_records_parents_and_requests(self):
        calls = []
        mod = types.SimpleNamespace(inner=lambda: calls.append(1))
        mod.outer = lambda: mod.inner()
        tracer = tracing.Tracer()
        tracer.install([(mod, "outer", "m.outer"), (mod, "inner", "m.inner")])
        tracer.request = 7
        with tracer.span("cmd"):
            mod.outer()
        tracer.uninstall()
        names = [(name, parent, request) for name, _, _, parent, request in tracer.spans]
        self.assertEqual(names, [("cmd", -1, 7), ("m.outer", 0, 7), ("m.inner", 1, 7)])
        self.assertEqual(calls, [1])
        self.assertNotIn("traced", mod.outer.__qualname__)


class Routing(unittest.TestCase):
    """The routing facts the per-layer metrics rest on, as exact counts."""

    def test_maps_extracts_through_map_extractor(self):
        calls = traced_calls([["maps", "--topology", "complete", "--n", "3",
                               "--t-max-tj", "0.5", "--state", "hierarchy"]])
        self.assertEqual(calls.get("reduced.transfer_from_unitary", 0), 0)
        self.assertEqual(calls["reduced.MapExtractor.transfer"], 3 * 11)
        self.assertEqual(calls["qlinalg.HermitianEvolver.unitary"], 3 * 11)

    def test_steady_extracts_through_transfer_from_unitary(self):
        calls = traced_calls([["steady", "--topology", "complete", "--n", "3",
                               "--horizon-tj", "0.5"]])
        self.assertEqual(calls.get("reduced.MapExtractor.transfer", 0), 0)
        self.assertEqual(calls["reduced.transfer_from_unitary"], 3 * 11)
        self.assertEqual(calls["qlinalg.HermitianEvolver.unitary"], 11)
        # bound in reduced by `from .qlinalg import kron_all`: 4 inputs per map
        self.assertGreaterEqual(calls["qlinalg.kron_all"], 4 * 3 * 11)

    def test_disorder_redraws_samples_at_every_step(self):
        steps, n = 3, 100
        common = ["--steps", str(steps), "--n-samples", str(n), "--seed", "5"]
        gauss = traced_calls([["disorder", "--phi-dist", "gaussian", "--varphi", "3"] + common])
        tanh = traced_calls([["disorder", "--phi-dist", "trunc_tanh", "--a-phi", "1e-3"] + common])
        self.assertEqual(gauss["disorder.sample_pair"], steps * n)
        self.assertEqual(tanh["disorder.sample_pair"], steps * n + n)  # + headroom report
        self.assertEqual(gauss["analytic.xx_reduced_map"], steps * n)

    def test_broken_sampler_certifies_through_choi_check(self):
        calls = traced_calls([["measure", "--no-overlay", "--steps", "5",
                               "--scatter-samples", "20", "--seed", "1"]])
        self.assertEqual(calls["measure.broken_uniform_sample"], 20)
        self.assertGreaterEqual(calls["reduced.choi_check"], 20)


class Failures(unittest.TestCase):
    def test_bad_config_counts_as_failure(self):
        run.load_spinmaps()
        good = Command(("steady", "--topology", "complete", "--n", "3", "--horizon-tj", "0.5"), 0)
        missing = Command(("maps", "--state", "custom"), 0)  # exit 2: no --z-list
        unknown = Command(("maps", "--no-such-flag"), 0)  # argparse exits 2
        tally = run.Tally()
        run.run_pass([good, missing, unknown], None, tally)
        self.assertEqual((tally.attempted, tally.failed), (3, 2))
        self.assertTrue(all(p.split(": ", 1)[1].startswith("exit 2") for p in tally.problems))

    def test_reference_tolerance(self):
        data = b"t,x\n0,0.5\n1,0.25\n"
        ref = references.fingerprint(data)
        self.assertEqual(references.compare(data, ref), (True, []))
        self.assertEqual(references.compare(b"t,x\n0,0.5000000000001\n1,0.25\n", ref), (False, []))
        self.assertFalse(references.compare(b"t,x\n0,0.5000001\n1,0.25\n", ref)[1] == [])
        self.assertFalse(references.compare(b"t,x\n0,0.5\n", ref)[1] == [])


class HalfSpeedHost:
    """A calibrator whose kernel always takes twice the reference time."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(2 * hostspeed.REFERENCE_S)
        return self.samples[-1]


class HostSpeed(unittest.TestCase):
    def test_pass_times_are_scaled_by_the_kernel_time(self):
        run.load_spinmaps()
        slow_host = HalfSpeedHost()
        cmd = Command(("steady", "--topology", "complete", "--n", "3", "--horizon-tj", "0.5"), 0)
        passes = run.timed_passes([(0, [cmd, cmd])], None, run.Tally(), 0, slow_host)
        self.assertEqual(len(passes.walls), 1)
        self.assertAlmostEqual(passes.walls[0], passes.raw_walls[0] / 2)
        self.assertEqual(len(slow_host.samples), 3)  # one before each command, one after the last

    def test_calibrator_keeps_its_samples(self):
        run.load_spinmaps()
        calibrator = hostspeed.Calibrator()
        seconds = calibrator.sample()
        self.assertGreater(seconds, 0)
        self.assertEqual(calibrator.samples, [seconds])


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        with open(run.ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        mods = run.load_spinmaps()
        units = run.per_layer_units(tracing.traced_names(tracing.trace_targets(mods)))
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, units)


if __name__ == "__main__":
    unittest.main()
