"""Default master seeds and shared experiment configuration.

Each experiment derives per-cell seeds from its own master seed, so
experiments are independently reproducible; the defaults below are the
seeds the shipped results and acceptance checks were produced with.
"""

EXPERIMENT_SEEDS = {
    "scalar_sweep": 9,
    "topk_sweep": 2,
    "estimator_calibration": 2,
    "external_vs_same": 4,
    "alt_adversaries": 2,
    "epsilon_table": 0,
    "cost_table": 0,
    "audit_e2e": 1,
}

DELTA_ACC = 1e-6
POLICY_TEMPLATE = {"delta_acc": DELTA_ACC, "k_max": 100, "delta_policy": 1e-3}

SCALAR_N = 10_000
SCALAR_TRIALS = 10_000
TOPK_N = 200
TOPK_TRIALS = 2_000
