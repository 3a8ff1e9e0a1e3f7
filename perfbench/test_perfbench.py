"""Tests of the benchmark itself.

    python -m pytest -q perfbench/test_perfbench.py

Run from the root of a source checkout.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import jobs
import layers
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The metrics the benchmark is specified to emit, by mode.
END_TO_END = {"setup_s", "wall_s", "cpu_s", "report_p50_s", "report_tail_s",
              "peak_rss_mb"}
PER_LAYER = {
    "setup.interpreter_s", "setup.import_numpy_s", "setup.import_stratikit_s",
    "cli.self_s", "jsonio.load_s", "jsonio.dump_s", "jsonio.report_bytes",
    "order.from_pairs_s", "order.init_s", "order.elements", "order.quotient_poset_s",
    "topology.from_preorder_s", "topology.opens_enumerated", "topology.validate_s",
    "topology.specialization_s", "topology.product_s",
    "decomposition.analyze_s", "decomposition.quotient_s",
    "decomposition.label_subsets", "decomposition.validate_s",
    "decomposition.product_s",
    "feasibility.solve_s", "feasibility.solve_calls", "feasibility.feasible_share",
    "arrangement.enumerate_s", "arrangement.faces", "arrangement.solves_per_face",
    "arrangement.face_poset_s", "arrangement.oracle_s", "arrangement.oracle_calls",
    "homology.order_complex_s", "homology.simplices", "homology.betti_s",
    "homology.betti_calls", "homology.boundary_check_s",
    "category.build_s", "category.hom_preorder_s", "category.stratify_s",
    "category.yoneda_s", "category.compose_calls",
    "corpus.run_case_s", "trace.overhead_ratio",
}


def _input_files(workload, seed, directory):
    paths = run.write_inputs(jobs.jobs(workload, seed), directory)
    return {p.name: p.read_bytes() for p in paths if p}


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_writes_identical_inputs(workload, tmp_path):
    first = _input_files(workload, 7, tmp_path / "a")
    assert first == _input_files(workload, 7, tmp_path / "b")
    assert first != _input_files(workload, 8, tmp_path / "c")


def test_expected_covers_exactly_the_pool():
    expected = json.loads(run.EXPECTED.read_text())
    ids = [job.id for w in jobs.WORKLOADS for job in jobs.pool(w)]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(expected)


def test_digest_reads_results_only():
    report = {"command": "c", "results": {"a": [1, 2]},
              "checks": [{"name": "n", "pass": True}]}
    digest = run.results_digest(json.dumps(report))
    report["checks"][0]["pass"] = False
    assert run.results_digest(json.dumps(report)) == digest
    report["results"]["a"] = [1, 3]
    assert run.results_digest(json.dumps(report)) != digest


def test_gate_fails_a_corrupted_result(tmp_path):
    job_list = [j for j in jobs.jobs("reports", 1) if j.args[0] == "topology"][:2]
    paths = run.write_inputs(job_list, tmp_path / "in")
    expected = {k: tuple(v) for k, v in json.loads(run.EXPECTED.read_text()).items()}
    assert run.reference_pass(job_list, paths, expected, tmp_path / "ok") == []
    bad = job_list[1].id
    expected[bad] = (expected[bad][0], "0" * 64)
    assert run.reference_pass(job_list, paths, expected, tmp_path / "bad") == [bad]


def test_timeout_counts_as_failure(monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT", 0.2)
    code, elapsed, _ = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"])
    assert code is None and elapsed < 10


def test_tracer_rebinds_imported_names_and_restores():
    run.import_stratikit()
    from stratikit import arrangement, feasibility, order
    original = feasibility.solve
    init = order.Preorder.__dict__["__init__"]
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert arrangement.solve is feasibility.solve is not original
        order.Preorder.from_pairs(["a", "b"], [("a", "b")])
    finally:
        tracer.uninstall()
    assert arrangement.solve is feasibility.solve is original
    assert order.Preorder.__dict__["__init__"] is init
    names = [span[0] for span in tracer.spans]
    assert names == ["order.from_pairs", "order.init"]
    assert tracer.spans[1][1] == 0  # init ran inside from_pairs
    assert tracer.counts["order.elements"] == 2


def test_self_time_subtracts_children():
    tracer = layers.Tracer()
    tracer.spans = [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("a", 1, 2.0, 3.0)]
    assert tracer.self_times() == {"a": 8.0, "b": 2.0}
    assert tracer.under("a", "b") == 1


def test_benchmark_json_lists_every_metric():
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"] for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(jobs.WORKLOADS)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace, monkeypatch):
    full = jobs.jobs
    monkeypatch.setattr(jobs, "jobs", lambda w, seed: full(w, seed)[:2])
    monkeypatch.setattr(run, "SETUP_PER_PASS", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", trace]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed}
    if trace == "0":
        assert any(line.split()[:1] == ["fail_share"] for line in lines)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reports", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
