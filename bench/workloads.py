"""The benchmark workloads.

Each workload turns (seed, episode) into inputs with its own generator,
hands only those inputs to the program, times the program's calls from
outside, and checks the outputs in untimed code. An episode is one
complete unit of work; a run repeats episodes until its time is spent.

* ``audit_wide_index``: a provider with a large victim index serves a
  short window that a full-plan audit re-executes; per-record work scales
  with the index size (noise derivation, tenant-index commitment).
* ``audit_long_ledger``: a tiny index and a long window with a jittered
  probe coalition, audited under a sampled plan; the work is Merkle
  hashing (append, receipt proofs) and coalition estimation.
* ``leakage_sweep``: the researcher path through ``cli.run`` (top-K grid,
  estimator calibration, scalar sweep); no ledger or audit work.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from collusion_audit import accounting, audit, cli, defaults, estimator, harness, ledger

PACKAGE = "collusion_audit"
SEED_SPACE = 2**32


@dataclass
class Episode:
    """What one episode measured and checked."""

    setup_s: list = field(default_factory=list)    # set-up samples
    op_s: list = field(default_factory=list)       # per-operation latencies
    ops: int = 0                                    # work units behind op_s
    batch_s: float = 0.0
    wall_s: float = 0.0                             # the traceable work, set-up samples aside
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)   # name -> bytes, for equality tests
    ledger_records: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def _timed(tracer, episode_id):
    return tracer.active(episode_id) if tracer else contextlib.nullcontext()


def _unit_rows(rng, n: int, d: int) -> np.ndarray:
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# --- audit workloads ------------------------------------------------------

@dataclass(frozen=True)
class AuditShape:
    n_docs: int                 # victim index size N
    d: int
    n_other: int                # second tenant's index size (0 = none)
    accounts: int
    queries_per_account: int
    coalition: int              # leading accounts that send jittered copies of one probe
    jitter: float
    theta: float                # estimator cosine threshold
    sample: tuple | None        # (beta, eta) for a sampled plan, None = full plan
    mutation: str               # "record" or "receipt"
    setups: int                 # timed set-up samples per episode
    setup_builds: int           # service builds per set-up sample


WIDE_INDEX = AuditShape(n_docs=2000, d=64, n_other=500, accounts=4, queries_per_account=5,
                        coalition=0, jitter=0.0, theta=0.80, sample=None, mutation="record",
                        setups=6, setup_builds=1)
LONG_LEDGER = AuditShape(n_docs=32, d=16, n_other=0, accounts=20, queries_per_account=20,
                         coalition=5, jitter=0.10, theta=0.95, sample=(0.05, 0.01),
                         mutation="receipt", setups=8, setup_builds=10)


def audit_inputs(shape: AuditShape, seed: int, episode: int) -> dict:
    """Indices, queries in serving order (round-robin over accounts) and
    the provider's secrets, all drawn from (seed, episode)."""
    rng = np.random.default_rng([seed % SEED_SPACE, episode])
    victim = _unit_rows(rng, shape.n_docs, shape.d)
    other = _unit_rows(rng, shape.n_other, shape.d) if shape.n_other else None
    probe = _unit_rows(rng, 1, shape.d)[0]
    queries = []
    for _ in range(shape.queries_per_account):
        for a in range(shape.accounts):
            v = _unit_rows(rng, 1, shape.d)[0]
            if a < shape.coalition:
                v = probe + shape.jitter * v
                v /= np.linalg.norm(v)
            queries.append((f"acct{a:02d}", v))
    return {
        "victim": victim, "other": other, "queries": queries,
        "window_seed": rng.bytes(32), "signing_seed": rng.bytes(32),
        "audit_seed": int(rng.integers(SEED_SPACE)),
        "mutate_at": int(rng.integers(len(queries))),
    }


def _policy(shape: AuditShape, episode: int):
    return accounting.PolicyParams.calibrated(
        eps_acc=1.0, delta_acc=defaults.DELTA_ACC, n_queries=shape.queries_per_account,
        k_max=10, delta_policy=1e-5, window_id=f"W-bench-{episode}",
    )


def _plan(shape: AuditShape):
    if shape.sample is None:
        return audit.VerificationPlan(mode="full")
    return audit.sample_plan(*shape.sample)


def _build_service(shape: AuditShape, inputs: dict, episode: int):
    policy = _policy(shape, episode)
    indices = [harness.TenantIndex("victim", inputs["victim"])]
    if inputs["other"] is not None:
        indices.append(harness.TenantIndex("other", inputs["other"]))
    service = audit.AuditService(policy, indices, inputs["window_seed"],
                                 signing_seed=inputs["signing_seed"])
    return policy, service


def _run_audit(log, service, policy, receipts, shape, inputs):
    return audit.run_audit(
        log, service.commitments, policy, receipts,
        estimator.EstimatorParams(theta=shape.theta), _plan(shape),
        seed=inputs["audit_seed"],
    )


def _coalition_found(inputs, shape) -> bool:
    """The estimator must find the planted coalition, and no cluster
    across accounts in a window without one."""
    queries = [(account, vector, t) for t, (account, vector) in enumerate(inputs["queries"], 1)]
    found = estimator.estimate(queries, estimator.EstimatorParams(theta=shape.theta))
    if shape.coalition == 0:
        return found.largest_cluster_accounts == 1
    return found.largest_cluster_accounts >= shape.coalition


def _mutation_verdict(service, policy, receipts, shape, inputs):
    """Audit one mutated record or receipt; returns (verdict, expected check)."""
    at = inputs["mutate_at"]
    if shape.mutation == "record":
        # the provider publishes a top-K digest its attested retrieval
        # does not reproduce
        records = list(service.ledger.records)
        records[at] = replace(records[at], topk_digest=hashlib.sha256(b"forged top-K").digest())
        forged = ledger.MerkleLedger()
        for rec in records:
            forged.append(rec)
        return _run_audit(forged, service, policy, receipts, shape, inputs), "noise_then_select"
    # the provider signs a receipt against a root that is no prefix snapshot
    receipt, pk = receipts[at]
    record = service.ledger.records[receipt.leaf_position]
    forked = ledger.issue_receipt(record, receipt.leaf_position,
                                  hashlib.sha256(b"forked ledger root").digest(),
                                  service.signing_key)
    mutated = list(receipts)
    mutated[at] = (forked, pk)
    return _run_audit(service.ledger, service, policy, mutated, shape, inputs), "receipt_consistency"


def audit_episode(shape: AuditShape, seed: int, episode: int, tracer=None,
                  mutate: bool = False, **_) -> Episode:
    ep = Episode()
    episode_id = f"{seed}/{episode}"
    inputs = audit_inputs(shape, seed, episode)

    # Set-up is timed in several samples per episode, each the mean of a
    # block of builds, so that its percentile is steady even where one
    # build takes well under a millisecond. The service that serves is
    # built once more, and only that build is traced.
    for _ in range(shape.setups):
        t0 = time.perf_counter()
        for _ in range(shape.setup_builds):
            _build_service(shape, inputs, episode)
        ep.setup_s.append((time.perf_counter() - t0) / shape.setup_builds)
    with _timed(tracer, episode_id):
        t0 = time.perf_counter()
        policy, service = _build_service(shape, inputs, episode)
        built_s = time.perf_counter() - t0

    receipts = []
    for account, vector in inputs["queries"]:
        ep.attempted += 1
        try:
            with _timed(tracer, episode_id):
                t0 = time.perf_counter()
                _, receipt = audit.attest_query(service, vector, account, "victim")
                dt = time.perf_counter() - t0
        except Exception as exc:  # a failed query counts against error_rate
            ep.failed += 1
            ep.errors.append(f"attest_query: {exc!r}")
            continue
        ep.op_s.append(dt)
        receipts.append((receipt, service.public_key))
    ep.ops = len(ep.op_s)
    ep.ledger_records = len(service.ledger)

    try:
        with _timed(tracer, episode_id):
            t0 = time.perf_counter()
            verdict = _run_audit(service.ledger, service, policy, receipts, shape, inputs)
            ep.batch_s = time.perf_counter() - t0
    except Exception as exc:
        ep.check(False, f"run_audit: {exc!r}")
        return ep
    ep.wall_s = built_s + sum(ep.op_s) + ep.batch_s
    ep.artifacts["verdict.json"] = json.dumps(verdict.to_json_dict(), sort_keys=True).encode()
    full, _ = accounting.epsilon_audit(policy)
    headline, _ = accounting.epsilon_audit(policy, headline=True)
    ep.check(verdict.status == "PASS"
             and verdict.eps_audit_full == full and verdict.eps_audit_headline == headline
             and _coalition_found(inputs, shape),
             f"honest window: {verdict.to_json_dict()}")

    if mutate:
        try:
            bad, expected = _mutation_verdict(service, policy, receipts, shape, inputs)
        except Exception as exc:
            ep.check(False, f"mutated audit raised {exc!r}")
            return ep
        ep.artifacts["mutated_verdict.json"] = json.dumps(bad.to_json_dict(), sort_keys=True).encode()
        ep.check(bad.status == "FAIL" and bool(bad.witnesses)
                 and bad.witnesses[0]["check"] == expected,
                 f"mutated {shape.mutation} should FAIL {expected}: {bad.to_json_dict()}")
    return ep


# --- leakage sweep --------------------------------------------------------

@dataclass(frozen=True)
class SweepShape:
    topk_trials: int
    calibration_trials: int
    setups: int                 # CLI start-ups timed per episode


LEAKAGE = SweepShape(topk_trials=30, calibration_trials=5, setups=16)
TOPK_EPS = 16.0


def sweep_configs(shape: SweepShape, seed: int, episode: int, out_dir: str) -> list:
    """CLI configs at each experiment's shipped seed offset by the workload
    seed (and the episode)."""
    offset = (seed % SEED_SPACE) * 100_000 + episode
    trials = {"topk_sweep": shape.topk_trials,
              "estimator_calibration": shape.calibration_trials}
    configs = []
    for exp in ("scalar_sweep", "topk_sweep", "estimator_calibration"):
        overrides = {"experiment": exp, "out": os.path.join(out_dir, exp),
                     "seed": defaults.EXPERIMENT_SEEDS[exp] + offset, "profile": "paper",
                     "trials": trials.get(exp)}
        configs.append(cli.load_config(None, overrides))
    return configs


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _topk_trend_ok(rows) -> bool:
    """Weighted least-squares slope of AUC on sqrt(k) at eps=16 must not be
    negative by more than 2 standard errors (propagated from DeLong SEs)."""
    cells = [(math.sqrt(int(r["k"])), float(r["auc"]), float(r["delong_se"]))
             for r in rows if float(r["eps_acc"]) == TOPK_EPS]
    if len(cells) < 3:
        return False
    w = np.array([1.0 / se**2 for _, _, se in cells])
    x = np.array([c[0] for c in cells])
    y = np.array([c[1] for c in cells])
    xc = x - np.sum(w * x) / np.sum(w)
    sxx = float(np.sum(w * xc**2))
    slope = float(np.sum(w * xc * y)) / sxx
    return slope >= -2.0 / math.sqrt(sxx)


def _check_sweep_outputs(exp: str, out: str) -> bool:
    if exp == "scalar_sweep":
        with open(os.path.join(out, "gates.json")) as fh:
            return json.load(fh)["p1_pass"] is True
    if exp == "topk_sweep":
        return _topk_trend_ok(_read_csv(os.path.join(out, "topk_sweep.csv")))
    with open(os.path.join(out, "operating_theta.json")) as fh:
        theta = json.load(fh)["operating_theta"]
    fpr = [float(r["null_fpr"]) for r in _read_csv(os.path.join(out, "estimator_calibration.csv"))
           if r["null_fpr"] != "" and float(r["theta"]) == theta]
    return len(fpr) == 1 and fpr[0] <= 0.05


def sweep_episode(shape: SweepShape, seed: int, episode: int, out_dir: str, tracer=None,
                  **_) -> Episode:
    ep = Episode()
    episode_id = f"{seed}/{episode}"
    ep.setup_s = [cli_setup_s() for _ in range(shape.setups)]
    for config in sweep_configs(shape, seed, episode, out_dir):
        exp = config["experiment"]
        try:
            with _timed(tracer, episode_id):
                t0 = time.perf_counter()
                paths, code = cli.run(config)
                dt = time.perf_counter() - t0
            ok = code == 0 and _check_sweep_outputs(exp, config["out"])
        except Exception as exc:
            ep.check(False, f"{exp}: {exc!r}")
            continue
        ep.check(ok, f"{exp}: output check failed in {config['out']}")
        ep.wall_s += dt
        for path in paths:
            with open(path, "rb") as fh:
                ep.artifacts[f"{exp}/{os.path.basename(path)}"] = fh.read()
        if exp == "topk_sweep":
            ep.op_s.append(dt)
            ep.ops += len(cli.TOPK_GRID) * config["trials"]
        elif exp == "estimator_calibration":
            ep.batch_s = dt
    return ep


def cli_setup_s() -> float:
    """CLI start-up: a fresh import of the package (its dependencies stay
    loaded) and the config load of each experiment. The fresh modules are
    dropped afterwards, so the benchmark keeps running (and tracing) the
    modules it imported first."""
    ours = [name for name in sys.modules if name.split(".")[0] == PACKAGE]
    saved = {name: sys.modules.pop(name) for name in ours}
    try:
        t0 = time.perf_counter()
        fresh = importlib.import_module(PACKAGE + ".cli")
        for exp in ("scalar_sweep", "topk_sweep", "estimator_calibration"):
            fresh.load_config(None, {"experiment": exp, "out": "unused"})
        return time.perf_counter() - t0
    finally:
        for name in [name for name in sys.modules if name.split(".")[0] == PACKAGE]:
            del sys.modules[name]
        sys.modules.update(saved)


# What "op" and "batch" in the metric names stand for on each workload.
_AUDIT_TERMS = {"op": "one attest_query (closed loop, one client)", "batch": "one run_audit",
                "ops": "attested queries"}
TERMS = {
    "audit_wide_index": _AUDIT_TERMS,
    "audit_long_ledger": _AUDIT_TERMS,
    "leakage_sweep": {"op": "one cli.run topk_sweep over TOPK_GRID",
                      "batch": "one cli.run estimator_calibration",
                      "ops": "paired top-K trials"},
}

WORKLOADS = {
    "audit_wide_index": (audit_episode, WIDE_INDEX),
    "audit_long_ledger": (audit_episode, LONG_LEDGER),
    "leakage_sweep": (sweep_episode, LEAKAGE),
}


def median(values) -> float:
    return float(statistics.median(values))
