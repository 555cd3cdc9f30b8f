"""Tests of the benchmark itself, at tiny input sizes.

    python3 perfbench/selftest.py

Not collected by the package's pytest suite (the file name does not match
test_*.py); standard library only.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

from run import OUT, REFERENCE, ROOT, TARGETS, import_package
from workloads import WORKLOADS, HashSink, error_rate

cs = import_package()
from collatz_stopping import cli  # noqa: E402
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
REF = json.loads(REFERENCE.read_text())
RUN = Path(__file__).resolve().parent / "run.py"


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_each_workload_reports_every_end_to_end_metric(self):
        expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                proc = bench("--workload", name, "--seed", "5", "--seconds", "0.2",
                             "--trace", "0", "--size", "tiny")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_run_reports_every_per_layer_metric(self):
        expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        proc = bench("--workload", "structure", "--seed", "5", "--seconds", "0.2",
                     "--trace", "1", "--size", "tiny")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = result_of(proc)
        self.assertTrue(result["correct"])
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        counts = {k: v["value"] for k, v in result["metrics"].items()}
        tiny = REF["tiny"]
        self.assertEqual(counts["ptree.tuples"], tiny["cli-tuples"]["tuples"])
        self.assertEqual(counts["cli.bytes_out"], tiny["cli-tuples"]["bytes"])
        self.assertEqual(counts["verify.sieve_survivors"], tiny["sieve-deep"]["survivors"])
        self.assertEqual(counts["diophantine.member_ratio"], tiny["cli-tuples"]["member_ratio"])

    def test_without_the_package_the_run_fails_without_a_result(self):
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(RUN.parent, Path(tmp) / RUN.parent.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, str(Path(tmp) / RUN.parent.name / "run.py"), "--workload",
                 "structure", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=170,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CorruptedOutput(unittest.TestCase):
    """One changed residue, record, count or output byte must fail the check,
    which raises error_rate above 0."""

    def workload(self, name):
        return WORKLOADS[name](cs, "tiny", 5, REF)

    def assert_caught(self, wl, out):
        bad = wl.check(out)
        self.assertTrue(bad)
        self.assertGreater(error_rate(int(bool(bad)), 1), 0)

    def test_clean_outputs_pass(self):
        for name in WORKLOADS:
            wl = self.workload(name)
            self.assertEqual(wl.check(wl.run(0)), [], name)

    def test_structure_one_residue_changed(self):
        wl = self.workload("structure")
        table, hist = wl.run(0)
        block = table[-1]
        residues = (block.residues[0] + 2,) + block.residues[1:]
        table[-1] = dataclasses.replace(block, residues=residues)
        self.assert_caught(wl, (table, hist))

    def test_sieve_one_record_changed(self):
        wl = self.workload("sieve-deep")
        records = wl.run(0)
        records[3] = dataclasses.replace(records[3], q=records[3].q + 1)
        self.assert_caught(wl, records)

    def test_verify_one_count_changed(self):
        wl = self.workload("verify-window")
        report = wl.run(0)
        counts = dict(report.counts)
        counts[max(counts)] += 1
        self.assert_caught(wl, dataclasses.replace(report, counts=counts))

    def test_cli_one_output_byte_changed(self):
        wl = self.workload("cli-tuples")
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(["tuples", str(wl.param)])
        text = buf.getvalue()
        i = text.index("member=") + len("member=")
        corrupted = text[:i] + ("x" if text[i] != "x" else "y") + text[i + 1:]
        sink = HashSink()
        stream = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
        stream.write(corrupted)
        stream.flush()
        self.assertEqual(code, 0)
        self.assert_caught(wl, (code, sink))


class Definitions(unittest.TestCase):
    def test_benchmark_and_targets_agree(self):
        targets = json.loads(TARGETS.read_text())
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        self.assertEqual(list(targets["workloads"]), list(WORKLOADS))
        self.assertEqual([m["name"] for m in BENCHMARK["per_layer"]], list(targets["per_layer"]))
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(m["unit"], targets["per_layer"][m["name"]]["unit"])


if __name__ == "__main__":
    unittest.main()
