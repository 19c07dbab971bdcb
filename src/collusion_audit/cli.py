"""Experiment runner CLI.

One subcommand per experiment; each writes CSV/JSON artifacts plus a run
manifest (seed, config digest, package, Python, numpy and scipy versions)
into the output directory. Exit codes: 0 success / audit PASS, 1 audit
FAIL, 2 invalid configuration or protocol error.

Each artifact is written as a new file (``encoding.create_file``): an
existing file, symlink or hard link at its path is replaced, not
truncated or written through, because truncating the previous run's
just-written file waited 35-68 ms on ext4 where creating one takes 0.01 ms.
Only the audit runners import the verifier half (``audit``, ``ledger``,
``cryptography``), so the simulator experiments start without loading it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__, accounting, attacks, defaults, estimator
from .attacks import SCALAR_GRID, TOPK_GRID, CoalitionConfig
from .encoding import create_file, hash_fields
from .estimator import EstimatorParams
from .harness import TenantIndex, random_unit_vectors

# figure -> the results columns it reads
FIGURES = {
    "fig1a": {"k", "eps_acc", "auc", "delong_se", "predicted_auc"},
    "fig1b": {"k", "eps_acc", "auc", "delong_se", "mode"},
    "fig3a": {"theta", "null_fpr"},
    "fig3b": {"theta", "pattern", "k_true", "mean_khat"},
    "figA1": {"k", "eps_acc", "delta_auc", "combined_se"},
}

_COMMON_KEYS = {"experiment", "out", "seed", "profile"}
# the fewest trials each runner accepts: a sweep's AUC and DeLong SE need
# two, the estimator calibration one
_MIN_TRIALS = {"estimator_calibration": 1}


# config key -> (check, the rule it enforces), run on the config merged
# with the flags; trials has its own rule
_KEY_RULES = {
    "seed": (lambda value: type(value) is int and value >= 0, "an integer >= 0"),
    "out": (lambda value: type(value) is str and value != "", "a non-empty string"),
    "khat_curve": (lambda value: type(value) is bool, "true or false"),
}


class ConfigError(Exception):
    pass


def load_config(path: str | None, overrides: dict) -> dict:
    config = {}
    if path:
        try:
            with open(path) as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: {exc}")
        if not isinstance(config, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
    config.update({k: v for k, v in overrides.items() if v is not None})
    exp = config.get("experiment")
    if exp not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {exp!r}")
    allowed = _COMMON_KEYS | EXPERIMENTS[exp][1]
    unknown = sorted(set(config) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown config key(s) {unknown} for experiment {exp!r}; "
            f"allowed: {sorted(allowed)}"
        )
    if "trials" in config:
        trials, least = config["trials"], _MIN_TRIALS.get(exp, 2)
        if type(trials) is not int or trials < least:
            raise ConfigError(f"trials must be an integer >= {least} for experiment "
                              f"{exp!r}, got {trials!r}")
    for key, (check, rule) in _KEY_RULES.items():
        if key in config and not check(config[key]):
            raise ConfigError(f"{key} must be {rule}, got {config[key]!r}")
    config.setdefault("seed", defaults.EXPERIMENT_SEEDS[exp])
    config.setdefault("profile", "paper")
    config.setdefault("out", "out")
    if config["profile"] not in ("paper", "smoke"):
        raise ConfigError(f"unknown profile {config['profile']!r}")
    return config


def _write_csv(path: str, header: list, rows: list) -> None:
    with create_file(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.10g}" if isinstance(v, float) else v for v in row])


def _write_manifest(out_dir: str, config: dict) -> str:
    # the output directory is not part of the run identity
    digested = {k: v for k, v in config.items() if k != "out"}
    blob = json.dumps(digested, sort_keys=True).encode()
    manifest = {
        "version": __version__,
        "seed": config.get("seed"),
        "profile": config.get("profile"),
        "config_digest": hash_fields("config", blob).hex(),
        # the numbers depend on these (numpy's random streams, scipy's ndtr)
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    path = os.path.join(out_dir, "manifest.json")
    with create_file(path) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _sweep_rows(res) -> list:
    rows = []
    for k, e in sorted(res.auc):
        rows.append([
            k, e, res.mode, res.adversary, res.auc[(k, e)], res.delong_se[(k, e)],
            res.trials, res.predicted.get((k, e), float("nan")),
        ])
    return rows


_SWEEP_HEADER = ["k", "eps_acc", "mode", "adversary", "auc", "delong_se",
                 "trials", "predicted_auc"]


def _run_scalar_sweep(config: dict, out_dir: str) -> tuple[list, int]:
    trials = config.get("trials", 100 if config["profile"] == "smoke" else defaults.SCALAR_TRIALS)
    cfg = CoalitionConfig(k=1, n_per_account=defaults.SCALAR_N, adversary="pooled_mean")
    res = attacks.run_sweep(SCALAR_GRID, cfg, trials, "sufficient_stat", config["seed"])
    path = os.path.join(out_dir, "scalar_sweep.csv")
    _write_csv(path, _SWEEP_HEADER, _sweep_rows(res))
    gates = attacks.check_gates(res)
    gpath = os.path.join(out_dir, "gates.json")
    with create_file(gpath) as fh:
        json.dump(dataclasses.asdict(gates), fh, indent=2, sort_keys=True)
    return [path, gpath], 0


def _run_topk_sweep(config: dict, out_dir: str) -> tuple[list, int]:
    trials = config.get("trials", 50 if config["profile"] == "smoke" else defaults.TOPK_TRIALS)
    cfg = CoalitionConfig(k=1, n_per_account=defaults.TOPK_N, adversary="topk_hit")
    grid = TOPK_GRID if config["profile"] == "paper" else [(1, 16.0), (20, 16.0)]
    res = attacks.run_sweep(grid, cfg, trials, "sufficient_stat", config["seed"])
    path = os.path.join(out_dir, "topk_sweep.csv")
    _write_csv(path, _SWEEP_HEADER, _sweep_rows(res))
    return [path], 0


def _run_estimator_calibration(config: dict, out_dir: str) -> tuple[list, int]:
    smoke = config["profile"] == "smoke"
    trials = config.get("trials", 20 if smoke else 200)
    report = estimator.calibrate(trials=trials, seed=config["seed"],
                                 khat_curve=config.get("khat_curve", False),
                                 khat_curve_trials=2 if smoke else 20)
    rows = []
    for th in report.theta_grid:
        rows.append([th, report.null_fpr[th], "", "", "", ""])
    for (pattern, k, th), mk in sorted(report.khat_by_pattern.items()):
        rows.append([th, "", pattern, k, mk, report.tpr.get((pattern, k), "")])
    path = os.path.join(out_dir, "estimator_calibration.csv")
    _write_csv(path, ["theta", "null_fpr", "pattern", "k_true", "mean_khat", "tpr"], rows)
    jpath = os.path.join(out_dir, "operating_theta.json")
    with create_file(jpath) as fh:
        json.dump({"operating_theta": report.operating_theta}, fh)
    return [path, jpath], 0


def _run_external_vs_same(config: dict, out_dir: str) -> tuple[list, int]:
    trials = config.get("trials", 50 if config["profile"] == "smoke" else defaults.TOPK_TRIALS)
    grid = TOPK_GRID if config["profile"] == "paper" else [(1, 16.0), (20, 16.0)]
    cfg = CoalitionConfig(k=1, n_per_account=defaults.TOPK_N, adversary="topk_hit")
    rows = attacks.external_vs_same(grid, trials, config["seed"], cfg)
    path = os.path.join(out_dir, "external_vs_same.csv")
    _write_csv(path, ["k", "eps_acc", "auc_same", "se_same", "auc_external",
                      "se_external", "delta_auc", "combined_se"], list(map(list, rows)))
    return [path], 0


def _run_alt_adversaries(config: dict, out_dir: str) -> tuple[list, int]:
    trials = config.get("trials", 100 if config["profile"] == "smoke" else 2000)
    rows = []
    # Bayes LR vs pooled mean on the scalar grid (shared cell seeds, so the
    # monotone-transform equality is exact)
    for adversary in ("pooled_mean", "bayes_lr"):
        cfg = CoalitionConfig(k=1, n_per_account=defaults.SCALAR_N, adversary=adversary)
        res = attacks.run_sweep(SCALAR_GRID, cfg, trials, "sufficient_stat", config["seed"])
        rows.extend(_sweep_rows(res))
    for rho in (0.5, 0.25):
        cfg = CoalitionConfig(k=1, n_per_account=defaults.SCALAR_N,
                              adversary="diversified", rho=rho)
        res = attacks.run_sweep([(20, 4.0)], cfg, trials, "sufficient_stat", config["seed"])
        for row in _sweep_rows(res):
            row[3] = f"diversified(rho={rho})"
            rows.append(row)
    path = os.path.join(out_dir, "alt_adversaries.csv")
    _write_csv(path, _SWEEP_HEADER, rows)
    return [path], 0


def _run_epsilon_table(_config: dict, out_dir: str) -> tuple[list, int]:
    rows = []
    for k_max, eps in ((10, 1.0), (50, 1.0), (50, 2.0), (100, 1.0)):
        policy = accounting.PolicyParams.calibrated(
            eps_acc=eps, delta_acc=defaults.DELTA_ACC, n_queries=10_000,
            k_max=k_max, delta_policy=max(1e-3, 2 * k_max * defaults.DELTA_ACC),
        )
        headline, _ = accounting.epsilon_audit(policy, headline=True)
        full, _ = accounting.epsilon_audit(policy)
        rows.append([k_max, eps, round(headline, 2), full])
    path = os.path.join(out_dir, "epsilon_table.csv")
    _write_csv(path, ["k_max", "eps_acc", "eps_audit_headline", "eps_audit_full"], rows)
    return [path], 0


def _run_cost_table(_config: dict, out_dir: str) -> tuple[list, int]:
    from . import audit
    rows = []
    for mode in ("optimized", "naive"):
        for N in (10**3, 10**4, 10**5, 10**6):
            c = audit.zk_cost(mode, N)
            rows.append([mode, N, c.constraints, c.prove_seconds,
                         c.setup_seconds, c.verify_ms])
    path = os.path.join(out_dir, "cost_table.csv")
    _write_csv(path, ["mode", "index_size", "constraints", "prove_seconds",
                      "setup_seconds", "verify_ms"], rows)
    return [path], 0


def _run_audit_e2e(config: dict, out_dir: str) -> tuple[list, int]:
    from . import audit
    rng = np.random.default_rng(config["seed"])
    n_accounts, n_queries = 3, 5
    policy = accounting.PolicyParams.calibrated(
        eps_acc=1.0, delta_acc=defaults.DELTA_ACC, n_queries=n_queries,
        k_max=10, delta_policy=1e-5, window_id="W-e2e",
    )
    d = 16
    indices = [
        TenantIndex("victim", random_unit_vectors(rng, 12, d)),
        TenantIndex("other", random_unit_vectors(rng, 8, d)),
    ]
    service = audit.AuditService(policy, indices, bytes(rng.integers(0, 256, 32,
                                                                     dtype=np.uint8)))
    receipts = []
    for a in range(n_accounts):
        for _ in range(n_queries):
            q = random_unit_vectors(rng, 1, d)[0]
            _, receipt = audit.attest_query(service, q, f"acct{a}", "victim")
            receipts.append((receipt, service.public_key))
    verdict = audit.run_audit(
        service.ledger, service.commitments, policy, receipts,
        EstimatorParams(theta=0.80), audit.VerificationPlan(mode="full"),
        seed=config["seed"],
    )
    path = os.path.join(out_dir, "verdict.json")
    with create_file(path) as fh:
        json.dump(verdict.to_json_dict(), fh, indent=2, sort_keys=True)
    return [path], (0 if verdict.status == "PASS" else 1)


# experiment name -> (runner, config keys it takes beyond the common ones);
# a runner returns (paths written, exit code)
EXPERIMENTS = {
    "scalar_sweep": (_run_scalar_sweep, {"trials"}),
    "topk_sweep": (_run_topk_sweep, {"trials"}),
    "estimator_calibration": (_run_estimator_calibration, {"trials", "khat_curve"}),
    "external_vs_same": (_run_external_vs_same, {"trials"}),
    "alt_adversaries": (_run_alt_adversaries, {"trials"}),
    "epsilon_table": (_run_epsilon_table, set()),
    "cost_table": (_run_cost_table, set()),
    "audit_e2e": (_run_audit_e2e, set()),
}


def run(config: dict) -> tuple[list, int]:
    """Dispatch one experiment; returns (paths written, exit code)."""
    out_dir = config["out"]
    os.makedirs(out_dir, exist_ok=True)
    runner, _ = EXPERIMENTS[config["experiment"]]
    paths, exit_code = runner(config, out_dir)
    paths.append(_write_manifest(out_dir, config))
    return paths, exit_code


def _coalition_size(text: str) -> int:
    k = int(text)
    if k < 1:
        raise ValueError(k)
    return k


_READ_AS = {float: "a number", _coalition_size: "a coalition size (an integer >= 1)"}


def _cell(path: str, row_no: int, row: dict, column: str, convert=float):
    """``convert(row[column])``, or a ConfigError naming the data row and
    the column."""
    try:
        return convert(row[column])
    except (TypeError, ValueError):
        raise ConfigError(
            f"{path}: data row {row_no}, column {column!r}: cannot read "
            f"{row[column]!r} as {_READ_AS[convert]}"
        ) from None


def regen_figure_data(results_csv: str, figure: str, out_path: str) -> str:
    """Turn an experiment CSV into a plot-ready (x, y, y_err, series) CSV."""
    if figure not in FIGURES:
        raise ConfigError(f"unknown figure {figure!r}")
    try:
        with open(results_csv, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = FIGURES[figure] - set(reader.fieldnames or ())
            records = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"{results_csv}: {exc}")
    if missing:
        raise ConfigError(f"{results_csv}: missing columns {sorted(missing)} for {figure}")
    rows = []
    for n, r in enumerate(records, 1):
        num = functools.partial(_cell, results_csv, n, r)
        if figure in ("fig1a", "fig1b"):
            k, e = num("k", _coalition_size), num("eps_acc")
            auc, se = num("auc"), num("delong_se")
            if figure == "fig1a":
                rows.append([k, auc, se, f"eps{e:g}"])
                if r["predicted_auc"] not in ("", "nan"):
                    rows.append([k, num("predicted_auc"), 0.0, f"pred-eps{e:g}"])
            else:
                rows.append([math.sqrt(k) * e, 2 * (auc - 0.5), 2 * se, r["mode"]])
        elif figure == "fig3a":
            if r["null_fpr"] != "":
                rows.append([num("theta"), num("null_fpr"), 0.0, "null_fpr"])
        elif figure == "fig3b":
            if r["pattern"]:
                rows.append([num("theta"), num("mean_khat"), 0.0,
                             f"{r['pattern']}-k{r['k_true']}"])
        else:  # figA1
            rows.append([num("k", _coalition_size), num("delta_auc"), 2 * num("combined_se"),
                         f"eps{num('eps_acc'):g}"])
    _write_csv(out_path, ["x", "y", "y_err", "series"], rows)
    return out_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="collusion-audit",
        description="Reproduce the coalition-leakage tables/figures and run audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for exp in EXPERIMENTS:
        p = sub.add_parser(exp)
        p.add_argument("--config")
        p.add_argument("--out")
        p.add_argument("--seed", type=int)
        p.add_argument("--profile", choices=["paper", "smoke"])
    fig = sub.add_parser("regen-figure")
    fig.add_argument("--results", required=True)
    fig.add_argument("--figure", required=True, choices=FIGURES)
    fig.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        if args.command == "regen-figure":
            regen_figure_data(args.results, args.figure, args.out)
            return 0
        config = load_config(args.config, {
            "experiment": args.command, "out": args.out,
            "seed": args.seed, "profile": args.profile,
        })
        paths, code = run(config)
        for p in paths:
            print(p)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # exit 1 is an audit FAIL
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
