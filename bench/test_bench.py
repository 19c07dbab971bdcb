"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((BENCH / "layer_map.json").read_text())["metrics"]

# small shapes keep the tests quick; the leakage sweep keeps its shape so
# its statistical output checks hold
SMALL = {
    "audit_wide_index": replace(workloads.WIDE_INDEX, n_docs=64, n_other=16,
                                queries_per_account=2, setups=2),
    "audit_long_ledger": replace(workloads.LONG_LEDGER, accounts=8, queries_per_account=3,
                                 coalition=3, setups=2),
    "leakage_sweep": workloads.LEAKAGE,
}


def _episode(workload, out_dir, tracer=None, seed=7, episode=1):
    fn, _ = workloads.WORKLOADS[workload]
    return fn(SMALL[workload], seed, episode, tracer=tracer, mutate=True, out_dir=str(out_dir))


def _traced(workload, out_dir):
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        return tracer, _episode(workload, out_dir, tracer)
    finally:
        restore()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_byte_identical(workload, tmp_path):
    plain = _episode(workload, tmp_path / "plain")
    _, traced = _traced(workload, tmp_path / "traced")
    assert plain.failed == 0 and traced.failed == 0, plain.errors + traced.errors
    assert plain.artifacts and plain.artifacts == traced.artifacts


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_mapped_layer_metric_is_traced_on_its_workload(workload, tmp_path):
    tracer, ep = _traced(workload, tmp_path)
    values = run.per_layer(tracer, [ep], overhead_s=0.5)
    missing = [name for name, entry in LAYER_MAP.items()
               if entry["workload"] == workload and not values.get(name)]
    assert missing == []


def test_layer_map_matches_benchmark_spec():
    listed = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(listed) == sorted(LAYER_MAP)
    gated = {m["name"] for m in SPEC["end_to_end"]}
    workload_names = {w["name"] for w in SPEC["workloads"]}
    for entry in LAYER_MAP.values():
        assert set(entry["moves"]) <= gated
        assert entry["workload"] in workload_names
        assert set(entry["no_change_on"]) <= workload_names


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        _episode("audit_wide_index", "unused", tracer)
    finally:
        restore()
    summary = tracer.summary()
    verify = summary["audit.verify_record"]
    assert 0 < verify["self_s"] < verify["s"]
    # the namespace-bound copies in audit are wrapped too
    assert summary["harness.derive_noise_block"]["calls"] == 8 * 4
    # of the repeated set-ups only the one that serves is traced
    assert summary["ledger.commit_phase_a"]["calls"] == 1
    for _, start, end, parent, episode in tracer.spans:
        assert end >= start and episode == "7/1"
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]


def test_install_restores_every_binding():
    from collusion_audit import audit, encoding, harness, ledger

    before = (audit.topk_retrieve, harness.topk_retrieve, ledger.sha256, encoding.sha256,
              ledger.MerkleLedger.append)
    restore = spans.install(spans.Tracer())
    assert audit.topk_retrieve is not before[0] and ledger.sha256 is not before[2]
    restore()
    assert (audit.topk_retrieve, harness.topk_retrieve, ledger.sha256, encoding.sha256,
            ledger.MerkleLedger.append) == before


def test_every_setup_is_timed(tmp_path):
    for workload, shape in SMALL.items():
        ep = _episode(workload, tmp_path / workload)
        assert len(ep.setup_s) == shape.setups and min(ep.setup_s) > 0


def test_cli_setup_keeps_the_imported_modules():
    from collusion_audit import cli, ledger

    assert workloads.cli_setup_s() > 0
    assert sys.modules["collusion_audit.cli"] is cli
    assert sys.modules["collusion_audit.ledger"] is ledger


def test_coalition_check_rejects_a_spurious_cluster():
    shape = SMALL["audit_wide_index"]
    inputs = workloads.audit_inputs(shape, 7, 1)
    assert workloads._coalition_found(inputs, shape)
    (first, vector), (second, _) = inputs["queries"][:2]
    inputs["queries"][1] = (second, vector)     # a second account repeats a query
    assert first != second and not workloads._coalition_found(inputs, shape)


def test_coalition_check_rejects_a_missing_coalition():
    shape = SMALL["audit_long_ledger"]
    assert workloads._coalition_found(workloads.audit_inputs(shape, 7, 1), shape)
    honest = workloads.audit_inputs(replace(shape, coalition=0), 7, 1)
    assert not workloads._coalition_found(honest, shape)


@pytest.mark.parametrize("shape", [workloads.WIDE_INDEX, workloads.LONG_LEDGER])
def test_seed_determines_audit_inputs(shape):
    a, again, b = (workloads.audit_inputs(shape, s, 1) for s in (1, 1, 2))
    assert np.array_equal(a["victim"], again["victim"])
    assert a["window_seed"] == again["window_seed"]
    assert not np.array_equal(a["victim"], b["victim"])
    assert not np.array_equal(a["queries"][0][1], b["queries"][0][1])
    assert a["window_seed"] != b["window_seed"]


def test_seed_determines_sweep_configs(tmp_path):
    a, again, b = (workloads.sweep_configs(workloads.LEAKAGE, s, 1, str(tmp_path))
                   for s in (1, 1, 2))
    assert a == again
    assert all(x["seed"] != y["seed"] for x, y in zip(a, b))


def test_blocked_p90_keeps_the_slow_level_and_drops_short_bursts():
    bursts = [3.0] * 20 + [1.0] * 80          # bursts in two of ten blocks
    assert run.blocked_p90(bursts) == 1.0
    slow_in_every_block = [1.0, 1.0, 1.0, 1.0, 1.8] * 20
    assert run.blocked_p90(slow_in_every_block) == pytest.approx(1.8)
    assert run.blocked_p90([2.0]) == 2.0


def test_topk_trend_check_rejects_a_falling_auc():
    def rows(aucs):
        return [{"k": k, "eps_acc": "16", "auc": a, "delong_se": 0.02}
                for k, a in zip((1, 2, 5, 10, 20), aucs)]

    assert workloads._topk_trend_ok(rows([0.60, 0.62, 0.68, 0.72, 0.81]))
    assert not workloads._topk_trend_ok(rows([0.81, 0.72, 0.68, 0.62, 0.60]))


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_contract_json(trace, section):
    done = _run_cli(ROOT, "--workload", "audit_long_ledger", "--seed", "3",
                    "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_cli(tmp_path, "--workload", "leakage_sweep", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
