"""Diagnostics for the lag-order growth conditions behind sieve inference.

Valid sieve asymptotics need the fitted order p to grow with the sample
size T slowly enough that p^3 / T vanishes, yet fast enough that the
scaled coefficient tail sqrt(T) * sum_{i>p} ||A_i||_F vanishes too. These
helpers quantify both sides for a concrete (p, T) and translate the growth
rates into the sample-size increases they demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Diagnostic convention only: flag p <= LOG_RULE_CONSTANT * log(T) as a
# plausible logarithmic growth calibration. The theory pins the constant
# to the (unknown) decay rate alpha, handled separately when alpha is given.
LOG_RULE_CONSTANT = 3.0


@dataclass(frozen=True)
class AssumptionReport:
    """Growth-condition diagnostics for a fitted order p at sample size T."""

    p: int
    t: int
    ratio_p3_t: float
    log_rule_ok: bool
    alpha: float | None = None
    min_log_coefficient: float | None = None
    alpha_rule_ok: bool | None = None


def assumption_ratios(p: int, t: int, alpha: float | None = None) -> AssumptionReport:
    """p^3 / T plus logarithmic growth-rule flags.

    ``log_rule_ok`` checks p <= 3 log(T), a documented convention. With a
    decay rate ``alpha`` the exact lower-bound coefficient -1 / (2 log alpha)
    is evaluated too: p must be at least that multiple of log(T) for the
    coefficient tail condition to hold along p = c log(T).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if t < 2:
        raise ValueError("t must be >= 2")
    ratio = p**3 / t
    log_ok = p <= LOG_RULE_CONSTANT * math.log(t)
    min_c = None
    alpha_ok = None
    if alpha is not None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        min_c = -1.0 / (2.0 * math.log(alpha))
        alpha_ok = p >= min_c * math.log(t)
    return AssumptionReport(
        p=p,
        t=t,
        ratio_p3_t=ratio,
        log_rule_ok=log_ok,
        alpha=alpha,
        min_log_coefficient=min_c,
        alpha_rule_ok=alpha_ok,
    )


def tail_norm(
    p: int,
    t: int,
    ar_true: np.ndarray | None = None,
    c: float | None = None,
    alpha: float | None = None,
) -> float:
    """sqrt(T) times the Frobenius-norm tail of the AR coefficients beyond p.

    Either pass the true coefficients A_1..A_n as an (n, K, K) array (the
    sum truncates at n) or a geometric decay envelope ||A_i||_F =
    c * alpha^i, for which the closed tail c * alpha^(p+1) / (1 - alpha) is
    used.
    """
    if p < 0:
        raise ValueError("p must be nonnegative")
    if t < 1:
        raise ValueError("t must be >= 1")
    if (ar_true is None) == (c is None or alpha is None):
        raise ValueError("pass exactly one of ar_true or the (c, alpha) pair")
    if ar_true is not None:
        mats = np.asarray(ar_true, dtype=float)
        tail = sum(
            float(np.linalg.norm(mats[i - 1], ord="fro"))
            for i in range(p + 1, len(mats) + 1)
        )
    else:
        if alpha >= 1.0:
            raise ValueError("alpha must be < 1: geometric tail diverges")
        if alpha < 0.0 or c < 0.0:
            raise ValueError("c and alpha must be nonnegative")
        tail = c * alpha ** (p + 1) / (1.0 - alpha)
    return math.sqrt(t) * tail


def sample_growth(p_from: int, p_to: int, rule: str) -> float:
    """Percent sample-size growth required by a shift from p_from to p_to.

    The cubic rule follows T proportional to p^3; the exponential rule
    follows T proportional to exp(p).
    """
    if p_from < 1 or p_to <= p_from:
        raise ValueError("need p_to > p_from >= 1")
    if rule == "cubic":
        factor = (p_to / p_from) ** 3
    elif rule == "exponential":
        factor = math.exp(p_to - p_from)
    else:
        raise ValueError(f"unknown rule {rule!r}; use 'cubic' or 'exponential'")
    return (factor - 1.0) * 100.0
