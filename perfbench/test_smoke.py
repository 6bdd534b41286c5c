"""Smoke tests of the benchmark itself: tiny inputs, every workload, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

They check the printed result line against BENCHMARK.json (metric names
and units), the traced run's own checks, the input generators, and that the
benchmark fails cleanly where the package source is missing.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = list(SPEC["workloads"])  # a superset of BENCHMARK.json's
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(BENCH["workloads"]) <= 8
    listed = [w["name"] for w in BENCH["workloads"]]
    assert set(listed) <= set(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + listed
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names)
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert all(UNIT_RE.match(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    report = json.loads(report_line)["report"]
    if trace:
        checks = report["checks"]
        assert checks["outputs_equal_untraced"]
        assert checks["predicted_spans_present"], checks["missing_spans"]
        assert not checks["unwrapped_targets"]
        assert (ROOT / report["spans_file"]).is_file()
    else:
        assert report["metrics"]["fail_ratio"]["value"] == 0
        assert len(report["slowdown"]) == len(report["rounds"]) and min(report["slowdown"]) > 0


def test_fails_without_package_source():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, "--workload", "sweep", "--seed", "1", "--seconds", "1",
                         "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_are_seeded_and_package_free():
    code = ("import sys, inputs\n"
            "a = inputs.sweep(5, 40) + inputs.wide(5, 12) + inputs.deep(5, 20)\n"
            "b = inputs.queries(5, 8)\n"
            "print('pretzellinks' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr
    assert inputs.wide(7, 12) == inputs.wide(7, 12) != inputs.wide(8, 12)
    assert inputs.queries(7, 6) == inputs.queries(7, 6)
    for gen in (inputs.sweep, inputs.wide, inputs.deep):
        for text in gen(9, 24):
            assert inputs.is_realizable(*inputs.parse_text(text))
    for i, size in enumerate(inputs.seifert_size(*inputs.parse_text(t))
                             for t in inputs.deep(9, 40)):
        assert size == inputs.DEEP_SIZES[i % len(inputs.DEEP_SIZES)]
    for a, b, variant in inputs.queries(9, 12):
        ka, kb = inputs.parse_text(a)[0], inputs.parse_text(b)[0]
        assert len(ka) == len(kb) and inputs.components(ka) == inputs.components(kb)
