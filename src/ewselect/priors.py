"""Sparsity priors over support size and the sampler configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

NEG_INF = float("-inf")


@dataclass(frozen=True)
class PosteriorConfig:
    """Parameters of the exponential-weights pseudo-posterior over supports.

    lam
        Sparsity exponent (> 0); each active variable costs exp(-lam).
    max_support
        Hard cap on |J|; supports above the cap get zero prior mass.
    sigma2
        Noise variance; the likelihood temperature is fixed at 2*sigma2.
    prior
        "combinatorial" for weights 1/C(p,|J|) * exp(-lam*|J|), or
        "independence" for omega^|J| * (1-omega)^(p-|J|).
    omega
        Inclusion probability for the independence prior (0 < omega < 1).
    """

    lam: float
    max_support: int
    sigma2: float
    prior: str = "combinatorial"
    omega: float | None = None

    def __post_init__(self):
        if not (self.lam > 0) or not math.isfinite(self.lam):
            raise DomainError(f"lam must be positive and finite, got {self.lam}")
        if self.max_support < 1:
            raise DomainError(f"max_support must be >= 1, got {self.max_support}")
        if not (self.sigma2 > 0) or not math.isfinite(self.sigma2):
            raise DomainError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if self.prior not in ("combinatorial", "independence"):
            raise DomainError(f"unknown prior kind {self.prior!r}")
        if self.prior == "independence":
            if self.omega is None or not (0.0 < self.omega < 1.0):
                raise DomainError("independence prior requires 0 < omega < 1")


def support_cap(n: int, cap: int | None = None) -> int:
    """`cap`, or by default max(n // 2, 1) for an n-row design."""
    return cap if cap is not None else max(n // 2, 1)


def log_binomial(p: int, s: int) -> float:
    """log C(p, s) via log-gamma; exact enough for p up to 1e6."""
    return (
        math.lgamma(p + 1) - math.lgamma(s + 1) - math.lgamma(p - s + 1)
    )


def log_prior(s: int, p: int, cfg: PosteriorConfig) -> float:
    """Unnormalized log prior mass of a support of size s among p columns."""
    if s < 0 or s > p:
        raise DomainError(f"support size {s} outside [0, {p}]")
    if s > cfg.max_support:
        return NEG_INF
    if cfg.prior == "combinatorial":
        return -log_binomial(p, s) - cfg.lam * s
    return s * math.log(cfg.omega) + (p - s) * math.log1p(-cfg.omega)


@lru_cache(maxsize=64)
def log_prior_table(p: int, cfg: PosteriorConfig) -> np.ndarray:
    """log_prior for every size 0..p as a read-only array."""
    table = np.array([log_prior(s, p, cfg) for s in range(p + 1)])
    table.setflags(write=False)
    return table


def practical_lambda(p: int, kappa: float = 4.0) -> float:
    """Default sparsity exponent kappa * log(p) used in experiments."""
    if p < 2:
        raise DomainError("need p >= 2")
    return kappa * math.log(p)


def prediction_lambda(p: int, c: float = 1.0) -> float:
    """Conservative preset (62 + 12c) * log(p) under which the in-sample
    prediction error of the refitted best visited support is provably small."""
    if p < 2 or c <= 0:
        raise DomainError("need p >= 2 and c > 0")
    return (62.0 + 12.0 * c) * math.log(p)


def support_lambda(p: int, c: float = 1.0, eps: float = 0.5) -> float:
    """Preset ((1+eps)/eps) * (23 + 5c) * log(p) under which the posterior
    concentrates on the true support once its coefficients are large enough."""
    if p < 2 or c <= 0 or eps <= 0:
        raise DomainError("need p >= 2, c > 0 and eps > 0")
    return (1.0 + eps) / eps * (23.0 + 5.0 * c) * math.log(p)
