"""Iterated logarithms with the standard floor, and the derived normalizers.

The base map is L(t) = log(max(t, e)), so every composition is >= 1 and
monotone nondecreasing.  Depths 1..4 are written LL, LLL, LLLL in comments
and variable names throughout the package.

``normalizers(n, d)`` derives the scale a_n = sqrt(2 LL n) and the
dimension-aware centering b = 2 LL n + (d/2) LLL n - log Gamma(d/2) of the
running-max statistic.  At d = 1 this reduces to 2 LL n + LLL n / 2 - log(pi)/2
because Gamma(1/2) = sqrt(pi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

E = math.e

_MAX_DEPTH = 4


def iterlog(t, depth: int = 1):
    """Depth-fold iterated logarithm with floor: L(t) = log(max(t, e)).

    Accepts a scalar or an ndarray; negative inputs are rejected.  The result
    is always >= 1.
    """
    if not 1 <= depth <= _MAX_DEPTH:
        raise ValueError(f"depth must be in 1..{_MAX_DEPTH}, got {depth}")
    out = _log_chain(t, depth)[-1]
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def _log_chain(t, depth: int) -> list:
    """[L t, LL t, ..., L^depth t], one floored log per level, so a caller
    that needs several depths takes each log once."""
    out = np.asarray(t, dtype=float)
    if np.any(out < 0.0):
        raise ValueError("iterlog is defined for nonnegative arguments only")
    chain = []
    for _ in range(depth):
        out = np.log(np.maximum(out, E))
        chain.append(out)
    return chain


@dataclass(frozen=True)
class NormalizerSet:
    """Scale/centering pair for the running-max statistics at horizon n."""

    n: float
    d: int
    a_n: float
    b_dn: float


@lru_cache(maxsize=64)
def normalizers(n, d: int) -> NormalizerSet:
    """Normalizers at horizon n in dimension d.

    a_n = sqrt(2 LL n);  b_dn = 2 LL n + (d/2) LLL n - log Gamma(d/2).
    n may be any real >= 1 (the formulas are evaluated pointwise).  Cached
    by (n, d), so an experiment computes its pair once, not once per
    replication.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if n < 1:
        raise ValueError(f"horizon must be >= 1, got {n}")
    ll = iterlog(n, 2)
    lll = iterlog(n, 3)
    a_n = math.sqrt(2.0 * ll)
    b_dn = 2.0 * ll + 0.5 * d * lll - math.lgamma(0.5 * d)
    return NormalizerSet(n=float(n), d=d, a_n=a_n, b_dn=b_dn)
