"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced, checks that the result line
carries exactly the metric names and units ``BENCHMARK.json`` declares
and that the output checks pass, that one seed repeats its F-measure,
and that a corrupted ``/match`` response counts as a failed op.  The file
name keeps it out of the repository's pytest collection; it takes about
a minute on two cores.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-match", "register-hubs", "batch-wide")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    """(detail line, result line) of one tiny run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}:\n"
                             f"{out.stderr}")
    *_, detail, result = out.stdout.strip().splitlines()
    return json.loads(detail)["perfbench"], json.loads(result)


class RunOutputTest(unittest.TestCase):

    def assert_result(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(
            {name: metric["unit"]
             for name, metric in result["metrics"].items()},
            {metric["name"]: metric["unit"] for metric in declared})
        for metric in result["metrics"].values():
            self.assertIsInstance(metric["value"], (int, float))

    def test_untraced_runs_print_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail, result = run(workload, trace=0)
                self.assert_result(result, SPEC["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
                (phase,) = detail["phases"]
                self.assertEqual(len(phase["setup_s"]), 3)
                self.assertEqual(len(phase["setup_probe_ms"]), 3)
                self.assertGreater(phase["probes"], 0)
                self.assertGreater(phase["slowdown"], 0)
                self.assertEqual(phase["op_p90_ms"]["n"], phase["ops"])

    def test_traced_runs_print_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail, result = run(workload, trace=1)
                self.assert_result(result, SPEC["per_layer"])
                self.assertEqual([p["traced"] for p in detail["phases"]],
                                 [False, True])
                self.assertTrue(detail["self_ms"])

    def test_one_seed_repeats_its_f_measure(self):
        first, second = (run("serve-match", trace=0)[1] for _ in range(2))
        self.assertEqual(first["metrics"]["f_measure"],
                         second["metrics"]["f_measure"])


class CorruptedResponseTest(unittest.TestCase):

    def test_corrupted_response_counts_as_failed_op(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        from repro import MatchEngine
        from repro.context.serialize import result_to_dict

        import serve_match
        from harness import Op
        from shared import config

        inputs = serve_match.make_inputs(7, "tiny", 0.1, HERE)
        engine = MatchEngine(config())
        prepared = engine.prepare(inputs.target)

        def reference(index: int) -> dict:
            return result_to_dict(engine.match(inputs.sources[index],
                                               prepared))

        answers = {index: {"result": reference(index)} for index in (1, 2, 3)}
        # Source 2 is in the re-matched sample: an extra match fails it.
        answers[2]["result"]["matches"].append(
            {"source": {}, "target": {}, "condition": {}, "score": 1.0,
             "confidence": 1.0})
        bodies = {index: json.dumps(answer).encode()
                  for index, answer in answers.items()}
        bodies[3] = bodies[3][:len(bodies[3]) // 2]
        records = [serve_match.Record(Op(index, 0.0, 1.0, 1), 200, body)
                   for index, body in sorted(bodies.items())]
        records.append(serve_match.Record(Op(4, 0.0, 1.0, 1), 500, b"{}"))
        serve_match.check(records, inputs, reference)
        self.assertEqual([r.op.ok for r in records],
                         [True, False, False, False])


if __name__ == "__main__":
    unittest.main()
