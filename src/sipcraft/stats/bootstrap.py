"""Bias-corrected and accelerated (BCa) bootstrap for the mean difference.

One generator, ``numpy.random.default_rng(seed)``, draws the whole (B, n)
index matrix in a single ``integers(0, n, size=(B, n))`` call; row r holds
the indices of resample r. The interval is therefore a pure function of the
sample, B, alpha and the seed. Efron (1987) describes the BCa method.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InsufficientDataError
from .paired import PairedSample
from .special import normal_cdf, normal_ppf, quantile_sorted

__all__ = ["BootstrapCI", "bootstrap_bca"]

MIN_RESAMPLES = 1000


@dataclass(frozen=True)
class BootstrapCI:
    point_estimate: float
    lower: float
    upper: float
    resamples: int
    seed: int
    alpha: float
    z0: float
    acceleration: float
    degenerate: bool = False


def bootstrap_bca(
    s: PairedSample,
    resamples: int = 10000,
    alpha: float = 0.05,
    seed: int = 42,
    *,
    z0_override: float | None = None,
    accel_override: float | None = None,
) -> BootstrapCI:
    """BCa interval for the mean of the paired differences.

    z0 comes from the fraction of bootstrap means strictly below the
    observed mean (clamped away from 0 and 1 by half a resample weight),
    the acceleration from jackknife-mean skewness. The override keywords
    substitute fixed values for z0 / a, which is useful for diagnostics:
    forcing both to zero reduces BCa to the plain percentile interval.
    """
    import numpy as np  # deferred: validate/simulate/--version never load numpy

    if s.n < 3:
        raise InsufficientDataError(f"BCa bootstrap needs n >= 3, got n={s.n}")
    if resamples < MIN_RESAMPLES:
        raise ValueError(f"resamples must be >= {MIN_RESAMPLES}, got {resamples}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    diffs = np.asarray(s.diffs, dtype=np.float64)
    theta = float(diffs.mean())
    if np.all(diffs == diffs[0]):
        return BootstrapCI(point_estimate=theta, lower=theta, upper=theta,
                           resamples=resamples, seed=seed, alpha=alpha,
                           z0=0.0, acceleration=0.0, degenerate=True)

    n = diffs.shape[0]
    idx = np.random.default_rng(seed).integers(0, n, size=(resamples, n))
    boot = diffs[idx].mean(axis=1)

    if z0_override is not None:
        z0 = float(z0_override)
    else:
        frac = int((boot < theta).sum()) / resamples
        frac = min(max(frac, 0.5 / resamples), 1.0 - 0.5 / resamples)
        z0 = normal_ppf(frac)

    if accel_override is not None:
        accel = float(accel_override)
    else:
        jack = (diffs.sum() - diffs) / (n - 1)  # leave-one-out means
        resid = jack.mean() - jack
        denom = float((resid ** 2).sum()) ** 1.5
        accel = float((resid ** 3).sum()) / (6.0 * denom) if denom > 0.0 else 0.0

    if z0 == 0.0 and accel == 0.0:
        # Phi(Phi^-1(q)) = q, so skip the round trip; this keeps the
        # percentile reduction exact instead of exact-to-rounding
        q_lo, q_hi = alpha / 2.0, 1.0 - alpha / 2.0
    else:
        z_lo = normal_ppf(alpha / 2.0)
        z_hi = normal_ppf(1.0 - alpha / 2.0)
        q_lo = normal_cdf(z0 + (z0 + z_lo) / (1.0 - accel * (z0 + z_lo)))
        q_hi = normal_cdf(z0 + (z0 + z_hi) / (1.0 - accel * (z0 + z_hi)))

    boot.sort()
    lower = quantile_sorted(boot, q_lo)
    upper = quantile_sorted(boot, q_hi)
    return BootstrapCI(point_estimate=theta, lower=lower, upper=upper,
                       resamples=resamples, seed=seed, alpha=alpha,
                       z0=z0, acceleration=accel, degenerate=False)
