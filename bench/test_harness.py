"""Self-tests of the benchmark harness; each runs a few small svir invocations.

    python3 -m pytest -q bench/test_harness.py

Run from the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402

SMALL = bench.Invocation(
    "test/rep-fuzz",
    ("rep-fuzz", "--family", "SA", "--radius", "1/2", "--vector-radius", "1"),
    bench._session_config(0), 0, 240, 0)


def small_plan():
    return bench.Plan("test", (SMALL,), SMALL)


@pytest.fixture(scope="module")
def digest():
    outcome = bench.Harness(ROOT, {}).run(SMALL)
    assert outcome.exit == 0 and outcome.report is not None
    return bench.hashlib.sha256(outcome.report).hexdigest()


def test_recorded_digest_passes(digest):
    harness = bench.Harness(ROOT, {SMALL.key: digest})
    harness.measure(small_plan(), 0)
    assert harness.attempted >= bench.MIN_SETUPS
    assert harness.failed == 0 and not harness.problems


def test_wrong_digest_raises_failed_share(digest):
    harness = bench.Harness(ROOT, {SMALL.key: "0" * 64})
    harness.measure(small_plan(), 0)
    assert harness.failed == harness.attempted
    assert "digest" in harness.problems[0]


def test_wrong_count_raises_failed_share(digest):
    wrong = bench.Invocation(SMALL.key, SMALL.argv, SMALL.config, 0, 241, 0)
    harness = bench.Harness(ROOT, {SMALL.key: digest})
    harness.attempt(wrong)
    assert harness.failed == 1
    assert "241" in harness.problems[0]


def test_jacobi_exit_0_is_a_failure():
    inv = bench.plan("jacobi", 0).round[0]
    report = json.dumps({"results": [{"triples": inv.checks, "failures": []}]})
    outcome = bench.Outcome(0, 1.0, 1.0, report.encode(), "", None)
    problems = bench.Harness(ROOT, {}).verify(inv, outcome)
    assert any("exit code 0" in p for p in problems)
    assert any("nonzero" in p for p in problems)


def fake_checkout(root, main_source):
    package = root / "src" / "svir"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("")
    (package / "__main__.py").write_text(main_source)
    return bench.Harness(root, {SMALL.key: "0" * 64})


def test_crashing_invocation_counts_as_failed(tmp_path):
    harness = fake_checkout(tmp_path, "raise RuntimeError('boom')\n")
    harness.attempt(SMALL)
    assert harness.failed == 1
    assert "traceback" in harness.problems[0]


def test_hung_invocation_is_killed_and_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "INVOCATION_TIMEOUT_S", 1)
    harness = fake_checkout(tmp_path, "import time\ntime.sleep(60)\n")
    start = bench.time.perf_counter()
    outcome = harness.attempt(SMALL)
    assert bench.time.perf_counter() - start < 20
    assert outcome.exit == -9
    assert harness.failed == 1


def test_traced_reports_match_untraced_and_counts_repeat(digest):
    harness = bench.Harness(ROOT, {SMALL.key: digest})
    plain = harness.attempt(SMALL)
    first = harness.attempt(SMALL, traced=True)
    second = harness.attempt(SMALL, traced=True)
    assert harness.failed == 0, harness.problems
    assert first.report == plain.report == second.report
    units = {name: unit for name, unit, _ in bench.PER_LAYER}
    a = bench.layer_metrics([first])
    b = bench.layer_metrics([second])
    counts = [n for n in a if units[n] != "s"]
    assert {n: a[n] for n in counts} == {n: b[n] for n in counts}
    assert a["repmod.rep_residual.calls"] == SMALL.checks
    assert a["scalar.poly_gcd.calls"] == 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(n, u) for n, u, _ in bench.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, u) for n, u, _ in bench.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)


def test_every_variant_has_a_recorded_digest():
    expected = json.loads(bench.EXPECTED_PATH.read_text())
    for workload in bench.WORKLOADS:
        for seed in range(bench.VARIANTS):
            p = bench.plan(workload, seed)
            for inv in (*p.round, p.setup):
                assert inv.key in expected
    for inv, _, _ in bench.roadmap_invocations():
        assert inv.key in expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "jacobi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
