"""Closed-form privacy accounting for coalition leakage.

Everything here is a pure function of its arguments: Gaussian noise
calibration, the coalition bounds (advanced-composition and Renyi
routes), a grid-based Renyi accountant, the AUC prediction for the
pooled-mean attack, and the audit epsilon issued on a PASS verdict.

All logarithms are natural. The standard normal CDF is evaluated through
erfc, accurate to ~1e-15 relative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

__all__ = [
    "PolicyParams",
    "RdpState",
    "JointBound",
    "normal_cdf",
    "calibrate_sigma",
    "rdp_route_sigma",
    "joint_epsilon_upper",
    "joint_epsilon_rdp",
    "rdp_accumulate",
    "rdp_to_dp",
    "auc_prediction",
    "epsilon_audit",
]

DEFAULT_ALPHA_GRID = tuple(range(2, 65))


def normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc (no table lookup)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _check_delta(name: str, value: float) -> None:
    # a subnormal delta overflows 1/delta, so ln(1/delta) would be inf
    if not sys.float_info.min <= value < 1.0:
        raise ValueError(
            f"{name} must lie in [{sys.float_info.min}, 1), got {value}")


@dataclass(frozen=True)
class PolicyParams:
    """The audited privacy contract for one window.

    ``sigma`` is the per-coordinate noise std in score units. Policies
    built through :meth:`calibrated` carry the noise scale implied by the
    per-query Gaussian calibration; free-form construction takes any
    positive finite sigma. ``top_k`` is the K every query is served at.
    """

    eps_acc: float
    delta_acc: float
    n_queries: int
    sigma: float
    k_max: int
    delta_policy: float
    window_id: str = "W0"
    top_k: int = 5

    def __post_init__(self):
        if type(self.eps_acc) is bool or not 0.0 < self.eps_acc < math.inf:
            raise ValueError("eps_acc must be positive and finite")
        _check_delta("delta_acc", self.delta_acc)
        _check_delta("delta_policy", self.delta_policy)
        if type(self.sigma) is bool or not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        # k_max = 10.0 == 10 would commit to another c_policy digest
        for name in ("n_queries", "k_max", "top_k"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        # epsilon_audit composes with this slack, so it must pass _check_delta
        if not self.delta_policy - self.k_max * self.delta_acc >= sys.float_info.min:
            raise ValueError(
                "policy ill-formed: delta_policy must exceed k_max * delta_acc"
                f" by at least {sys.float_info.min}"
            )

    @classmethod
    def calibrated(
        cls,
        eps_acc: float,
        delta_acc: float,
        n_queries: int,
        k_max: int,
        delta_policy: float,
        window_id: str = "W0",
        top_k: int = 5,
    ) -> "PolicyParams":
        sigma = calibrate_sigma(eps_acc, delta_acc, n_queries)
        return cls(
            eps_acc=eps_acc,
            delta_acc=delta_acc,
            n_queries=n_queries,
            sigma=sigma,
            k_max=k_max,
            delta_policy=delta_policy,
            window_id=window_id,
            top_k=top_k,
        )


@dataclass(frozen=True)
class JointBound:
    """A coalition (epsilon, delta) bound with its leading/residual split."""

    leading: float
    residual: float
    delta: float

    @property
    def epsilon(self) -> float:
        return self.leading + self.residual


@dataclass(frozen=True)
class RdpState:
    """Accumulated Renyi divergence on a fixed order grid (value type)."""

    alpha_grid: tuple = DEFAULT_ALPHA_GRID
    rho: dict = field(default_factory=dict)
    query_count: int = 0

    def rho_at(self, alpha: float) -> float:
        return self.rho.get(alpha, 0.0)


def calibrate_sigma(eps_acc: float, delta_acc: float, n_queries: int) -> float:
    """Gaussian noise scale saturating the per-account budget for a score
    gap of 1 (unit-norm documents and queries).

    Combines the classical Gaussian-mechanism calibration at the per-query
    budget with the advanced-composition split over n queries.
    """
    if eps_acc <= 0:
        raise ValueError("eps_acc must be positive")
    _check_delta("delta_acc", delta_acc)
    n = n_queries
    delta_q = delta_acc / n
    return (
        math.sqrt(2.0 * n * math.log(1.0 / delta_acc) * 2.0 * math.log(1.25 / delta_q))
        / eps_acc
    )


def rdp_route_sigma(eps_acc: float, delta_acc: float, n_queries: int) -> float:
    """Noise scale, for a score gap of 1, under which the Renyi accountant
    of n per-query Gaussian releases converts back to exactly the
    per-account budget (no 1.25/delta_q factor)."""
    if eps_acc <= 0:
        raise ValueError("eps_acc must be positive")
    _check_delta("delta_acc", delta_acc)
    return math.sqrt(2.0 * n_queries * math.log(1.0 / delta_acc)) / eps_acc


def joint_epsilon_upper(
    policy: PolicyParams, k: int, delta_slack: float | None = None
) -> JointBound:
    """Coalition bound via advanced composition of k*n per-query releases.

    Leading term sqrt(k) eps_acc sqrt(ln(1/delta)/ln(1/delta_acc)) for any
    normal (not subnormal) composition slack delta in (0, 1), delta_acc by
    default; the residual is the explicit second-order composition term
    2 k n eps_q^2 = k eps_acc^2 / ln(1/delta_acc), never silently dropped.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    delta = policy.delta_acc if delta_slack is None else delta_slack
    _check_delta("delta_slack", delta)
    log_acc = math.log(1.0 / policy.delta_acc)
    leading = math.sqrt(k) * policy.eps_acc * math.sqrt(math.log(1.0 / delta) / log_acc)
    residual = k * policy.eps_acc**2 / log_acc
    return JointBound(leading=leading, residual=residual, delta=delta + k * policy.delta_acc)


def joint_epsilon_rdp(
    policy: PolicyParams, k: int, delta: float | None = None
) -> JointBound:
    """Coalition bound via the Renyi route: identical leading term, residual
    exactly one quarter of the advanced-composition residual."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = policy.delta_acc if delta is None else delta
    _check_delta("delta", d)
    log_acc = math.log(1.0 / policy.delta_acc)
    leading = math.sqrt(k) * policy.eps_acc * math.sqrt(math.log(1.0 / d) / log_acc)
    residual = k * policy.eps_acc**2 / (4.0 * log_acc)
    return JointBound(leading=leading, residual=residual, delta=d)


def rdp_accumulate(state: RdpState, delta_gap: float, sigma: float) -> RdpState:
    """Fold one Gaussian release (sensitivity delta_gap, scale sigma) into
    the accountant; composition is additive per order."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    step = delta_gap**2 / (2.0 * sigma**2)
    rho = dict(state.rho)
    for alpha in state.alpha_grid:
        rho[alpha] = rho.get(alpha, 0.0) + alpha * step
    return replace(state, rho=rho, query_count=state.query_count + 1)


def rdp_to_dp(state: RdpState, delta: float) -> float:
    """Best (eps, delta)-DP conversion over the order grid."""
    _check_delta("delta", delta)
    if not state.alpha_grid:
        raise ValueError("alpha grid is empty")
    log_term = math.log(1.0 / delta)
    return min(
        state.rho_at(alpha) + log_term / (alpha - 1.0) for alpha in state.alpha_grid
    )


def auc_prediction(policy: PolicyParams, k: int) -> float:
    """Closed-form Mann-Whitney AUC of the pooled-mean attack at coalition
    size k under the calibrated noise scale."""
    if k < 0:
        raise ValueError("k must be >= 0")
    delta_q = policy.delta_acc / policy.n_queries
    z = (
        math.sqrt(k)
        * policy.eps_acc
        / (
            2.0
            * math.sqrt(2.0)
            * math.sqrt(math.log(1.0 / policy.delta_acc) * math.log(1.25 / delta_q))
        )
    )
    return normal_cdf(z)


def epsilon_audit(
    policy: PolicyParams, headline: bool = False
) -> tuple[float, float]:
    """Audit epsilon issued with a PASS verdict, at the policy's declared
    coalition cap.

    Full mode is ``joint_epsilon_upper`` at k_max with the composition
    slack delta_comp = delta_policy - k_max delta_acc, so the final joint
    failure probability is exactly delta_policy. Headline mode drops the
    log ratio and residual, reporting sqrt(k_max) * eps_acc.
    """
    if headline:
        return math.sqrt(policy.k_max) * policy.eps_acc, policy.delta_policy
    # positive: PolicyParams refuses delta_policy <= k_max * delta_acc
    delta_comp = policy.delta_policy - policy.k_max * policy.delta_acc
    return joint_epsilon_upper(policy, policy.k_max, delta_comp).epsilon, policy.delta_policy
