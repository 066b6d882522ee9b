"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py

Checks the traced run's partition arithmetic on synthetic spans, runs every
workload at a tiny scale (untraced and traced) through the real command and
checks the printed result against ``BENCHMARK.json``, and checks that the
command refuses to run where there is no program to build.  Not collected
by the repo's pytest run (the file name does not match ``test_*.py``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import (  # noqa: E402
    Tracer,
    encoder_levels,
    level_error,
    self_times,
    top_level,
)

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [
            sys.executable,
            str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


class PartitionArithmetic(unittest.TestCase):
    def setUp(self):
        # One encoder call [0, 10] with two blocks, and kernel sections with
        # one section nested inside another.
        self.spans = [
            ["encoder", 0.0, 10.0, -1],
            ["block0.attn", 1.0, 4.0, 0],
            ["block0.ffn", 4.0, 6.0, 0],
            ["block1.attn", 6.0, 8.5, 0],
            ["block1.ffn", 8.5, 9.5, 0],
        ]
        self.sections = [
            ("query_proj", 1.0, 2.0),
            ("aggregate", 2.0, 3.5),
            ("gather", 2.5, 3.0),  # nested in aggregate: counted once
            ("ffn", 4.5, 5.5),
            ("norm", 6.5, 7.0),
        ]

    def test_top_level_drops_nested_sections(self):
        names = [name for name, _, _ in top_level(self.sections)]
        self.assertEqual(names, ["query_proj", "aggregate", "ffn", "norm"])

    def test_self_times(self):
        times = self_times(self.spans)
        self.assertAlmostEqual(times["encoder"]["wall"], 10.0)
        self.assertAlmostEqual(times["encoder"]["self"], 1.5)

    def test_levels_add_up_to_wall(self):
        levels = encoder_levels(self.spans, self.sections, num_blocks=2)
        encoder, kernel = levels["encoder"], levels["kernel"]
        self.assertAlmostEqual(encoder["glue"], 1.5)
        self.assertAlmostEqual(kernel["wall"], 8.5)
        self.assertAlmostEqual(kernel["unattributed"], 8.5 - 4.0)
        self.assertAlmostEqual(kernel["gather"], 0.0)
        for level in levels.values():
            self.assertLess(level_error(level), 1e-12)

    def test_reentrant_call_is_one_span(self):
        class Stage:
            def run(self, depth):
                return self.run(depth - 1) if depth else 0

        stage, tracer = Stage(), Tracer()
        tracer.wrap(stage, "run", "stage")
        stage.run(3)
        tracer.unwrap_all()
        self.assertEqual([s[0] for s in tracer.spans], ["stage"])
        self.assertNotIn("run", vars(stage))


class TinyWorkloads(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in CONTRACT[kind]}
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        self.assertEqual(got, expected)
        if not trace:
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0.0, name)

    def test_encode_paper(self):
        self.check("encode_paper", 0)
        self.check("encode_paper", 1)

    def test_serve_mixed(self):
        self.check("serve_mixed", 0)
        self.check("serve_mixed", 1)

    def test_stream_video(self):
        self.check("stream_video", 0)
        self.check("stream_video", 1)


class RefusesWithoutProgram(unittest.TestCase):
    def test_no_program_no_result(self):
        build_dir = ROOT / ".bench_build" / "perfbench"
        build_dir.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in CONTRACT["paths"]:
                shutil.copytree(
                    ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__")
                )
            proc = run_bench("serve_mixed", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
