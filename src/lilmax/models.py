"""Increment-law catalogue: samplers and analytic truncated second moments.

Every catalogued family is centered with identity covariance, and every one
is isotropic enough that the truncated second moment is a scalar multiple of
the identity:

    A(t)^2 := E[ X X^T 1{|X| <= t} ] = a(t) * I,

by sign-flip and exchange symmetry (product families) or by radius/direction
independence (the atom ladders).  The scalar radial profile a(t) is computed
analytically per family below, and callers work with that scalar.

Families
--------
* ``gaussian_iso``: standard normal coordinates.
* ``rademacher_product``: independent +-1 coordinates (|X| = sqrt(d) a.s.).
* ``uniform_cube``: independent uniform[-sqrt(3), sqrt(3)] coordinates.
* ``atom_ladder(c, k0)``: bounded uniform-radius core plus symmetric atoms at
  radii t_k = exp(exp(k)), k >= k0, with pair weight p_k chosen so that
  t_k^2 p_k = c (1/k - 1/(k+1)).  Then E[|X|^2 1{|X| >= t_k}] * LL(t_k) = c
  exactly on every rung: the slowest admissible square-integrable tail.
* ``atom_ladder_fat(k0)``: same ladder shape with t_k^2 p_k = 1/sqrt(k) -
  1/sqrt(k+1), so the tail functional times LL(t) grows like sqrt(k): square
  integrable but too heavy for the compound-iterated-log tail condition.

The sampler truncates a ladder at the last rung whose weight is >= 1e-300
(k = 5 in double precision); analytic profiles use the ideal infinite ladder.
The discrepancy is below any observable probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .iterlog import iterlog
from .psdmat import MAX_DIM

# Special functions load on first use: scipy.special costs every process
# about 0.2 s at import, and the classical statistic never calls it.  Each
# function below that needs one imports it in its body.

FAMILIES = (
    "gaussian_iso",
    "rademacher_product",
    "uniform_cube",
    "atom_ladder",
    "atom_ladder_fat",
)

DIRECTION_MODES = ("sphere", "axes")

_CUBE_HALF = math.sqrt(3.0)  # uniform half-width giving unit variance
_LADDER_WEIGHT_FLOOR = 1.0e-300


@dataclass(frozen=True)
class IncrementLaw:
    """One catalogued increment distribution (immutable, hashable)."""

    family: str
    d: int
    c: float = 0.0
    k0: int = 0
    direction_mode: str = "sphere"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 1 <= self.d <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {self.d}")
        if self.family in ("atom_ladder", "atom_ladder_fat"):
            if self.direction_mode not in DIRECTION_MODES:
                raise ValueError(f"direction_mode must be one of {DIRECTION_MODES}")
            if self.k0 < 1:
                raise ValueError(f"k0 must be >= 1, got {self.k0}")
            if self.family == "atom_ladder":
                if not self.c > 0.0:
                    raise ValueError("atom_ladder needs c > 0")
                if self.c / self.k0 >= self.d:
                    raise ValueError("atom_ladder needs c/k0 < d to leave core variance")
            else:
                if 1.0 / math.sqrt(self.k0) >= self.d:
                    raise ValueError("atom_ladder_fat needs 1/sqrt(k0) < d")


def gaussian_iso(d: int = 1) -> IncrementLaw:
    return IncrementLaw(family="gaussian_iso", d=d)


def rademacher_product(d: int = 1) -> IncrementLaw:
    return IncrementLaw(family="rademacher_product", d=d)


def uniform_cube(d: int = 1) -> IncrementLaw:
    return IncrementLaw(family="uniform_cube", d=d)


def atom_ladder(c: float = 0.5, k0: int = 2, d: int = 1, direction_mode: str = "sphere") -> IncrementLaw:
    return IncrementLaw(family="atom_ladder", d=d, c=c, k0=k0, direction_mode=direction_mode)


def atom_ladder_fat(k0: int = 2, d: int = 1, direction_mode: str = "sphere") -> IncrementLaw:
    return IncrementLaw(family="atom_ladder_fat", d=d, k0=k0, direction_mode=direction_mode)


def law_id(law: IncrementLaw) -> str:
    """Stable compact identifier used in records, filenames, and configs."""
    if law.family == "atom_ladder":
        return f"atom_ladder-d{law.d}-c{law.c:g}-k0{law.k0}-{law.direction_mode}"
    if law.family == "atom_ladder_fat":
        return f"atom_ladder_fat-d{law.d}-k0{law.k0}-{law.direction_mode}"
    return f"{law.family}-d{law.d}"


# ---------------------------------------------------------------------------
# atom ladder internals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Ladder:
    """Sampler-side data for a (truncated) atom ladder."""

    levels: np.ndarray      # rung radii t_k, k = k0..k_max
    weights: np.ndarray     # pair weights p_k (total probability of rung k)
    p_core: float           # probability of the bounded core
    core_halfwidth: float   # u: core radius ~ uniform[0, u]
    k0: int
    tail_total: float       # E[|X|^2 over the ideal full ladder] = sum t_k^2 p_k


def _ladder_rung_second_moment(law: IncrementLaw, k: np.ndarray) -> np.ndarray:
    """t_k^2 p_k for the ideal ladder, exact in closed form."""
    k = np.asarray(k, dtype=float)
    if law.family == "atom_ladder":
        return law.c * (1.0 / k - 1.0 / (k + 1.0))
    return 1.0 / np.sqrt(k) - 1.0 / np.sqrt(k + 1.0)


def _ladder_tail_from(law: IncrementLaw, k):
    """sum_{j >= k} t_j^2 p_j for the ideal ladder (telescoping, exact).

    Accepts a scalar or an array of starting indices.
    """
    if law.family == "atom_ladder":
        return law.c / np.asarray(k, dtype=float)
    return 1.0 / np.sqrt(np.asarray(k, dtype=float))


@lru_cache(maxsize=None)
def _ladder_data(law: IncrementLaw) -> _Ladder:
    k0 = law.k0
    levels = []
    weights = []
    k = k0
    while True:
        log_t = math.exp(k)               # log t_k = e^k
        if log_t > 700.0:                 # t_k overflows double
            break
        t = math.exp(log_t)
        p = float(_ladder_rung_second_moment(law, np.array([k]))[0]) / (t * t)
        if p < _LADDER_WEIGHT_FLOOR:
            break
        levels.append(t)
        weights.append(p)
        k += 1
    levels = np.asarray(levels)
    weights = np.asarray(weights)
    p_core = 1.0 - float(weights.sum())
    tail_total = float(_ladder_tail_from(law, k0))
    core_second_moment = law.d - tail_total
    # core radius uniform[0, u]: E R^2 = p_core * u^2 / 3
    u = math.sqrt(3.0 * core_second_moment / p_core)
    return _Ladder(
        levels=levels, weights=weights, p_core=p_core,
        core_halfwidth=u, k0=k0, tail_total=tail_total,
    )


def _ladder_radius_trunc(law: IncrementLaw, t: np.ndarray) -> np.ndarray:
    """E[R^2 1{R <= t}] for the ideal ladder law (inclusive at rungs)."""
    lad = _ladder_data(law)
    t = np.asarray(t, dtype=float)
    u = lad.core_halfwidth
    core = (law.d - lad.tail_total) * np.clip(t / u, 0.0, 1.0) ** 3
    # rungs <= t: count via the representable rung radii; the first
    # unrepresentable rung exceeds every double, so the search is complete.
    idx = np.searchsorted(lad.levels, t, side="right")  # rungs k0..k0+idx-1 included
    below = np.where(
        idx > 0,
        _ladder_tail_from(law, lad.k0) - _ladder_tail_from(law, lad.k0 + idx),
        0.0,
    )
    return core + below


def _ladder_radius_tail_geq(law: IncrementLaw, t: np.ndarray) -> np.ndarray:
    """E[R^2 1{R >= t}] for the ideal ladder law (inclusive at rungs)."""
    lad = _ladder_data(law)
    t = np.asarray(t, dtype=float)
    u = lad.core_halfwidth
    core = (law.d - lad.tail_total) * (1.0 - np.clip(t / u, 0.0, 1.0) ** 3)
    idx = np.searchsorted(lad.levels, t, side="left")   # rungs >= t start at idx
    above = _ladder_tail_from(law, lad.k0 + idx)
    return core + above


def _ladder_prob_tail(law: IncrementLaw, t: np.ndarray) -> np.ndarray:
    """P{|X| > t} (strict) for the truncated sampler ladder."""
    lad = _ladder_data(law)
    t = np.asarray(t, dtype=float)
    core = lad.p_core * (1.0 - np.clip(t / lad.core_halfwidth, 0.0, 1.0))
    idx = np.searchsorted(lad.levels, t, side="right")
    csum = np.concatenate([[0.0], np.cumsum(lad.weights)])
    above = csum[-1] - csum[idx]
    return core + above


# ---------------------------------------------------------------------------
# uniform cube internals
# ---------------------------------------------------------------------------


def _cube_clamp(d: int, t: np.ndarray) -> np.ndarray:
    """Radii capped at twice the corner radius sqrt(3d), which keeps t^2 finite.

    The profile is exactly 1 and the tail exactly 0 from the corner on, so the
    cap changes no value.
    """
    return np.minimum(t, 2.0 * _CUBE_HALF * math.sqrt(d))


def _cube_sq_cdf_1(s: np.ndarray) -> np.ndarray:
    """P{X^2 <= s} for X ~ uniform[-a, a], a = sqrt(3)."""
    s = np.asarray(s, dtype=float)
    return np.clip(np.sqrt(np.clip(s, 0.0, None)) / _CUBE_HALF, 0.0, 1.0)


def _cube_sq_cdf_2(s: np.ndarray) -> np.ndarray:
    """P{X1^2 + X2^2 <= s}: disk/square intersection area, closed form."""
    s = np.asarray(s, dtype=float)
    q = _CUBE_HALF * _CUBE_HALF
    out = np.empty_like(s)
    lo = s <= q
    hi = s >= 2.0 * q
    mid = ~(lo | hi)
    out[lo] = math.pi * s[lo] / (4.0 * q)
    out[hi] = 1.0
    if np.any(mid):
        sm = s[mid]
        r = np.sqrt(sm)
        seg = sm * np.arccos(_CUBE_HALF / r) - _CUBE_HALF * np.sqrt(sm - q)
        out[mid] = (math.pi * sm - 4.0 * seg) / (4.0 * q)
    return np.clip(out, 0.0, 1.0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gl_integrate(fn, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Vectorized fixed-order Gauss-Legendre of fn over per-element [lo, hi]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = fn(nodes)
    return half * (vals @ _GL_WEIGHTS)


@lru_cache(maxsize=None)
def _cube_sq_cdf_spline(m: int):
    """PCHIP spline of P{sum of m squared uniform coordinates <= s} on [0, 3m].

    Built recursively from the closed m <= 2 forms; each level integrates the
    previous one with fixed-order Gauss-Legendre after the smoothing
    substitution X^2 = v^2.  Monotone by construction of PCHIP.
    """
    # deferred: loading scipy.interpolate costs every process a third of a
    # second, and only cube laws with d >= 4 get here
    from scipy.interpolate import PchipInterpolator

    if m <= 2:
        raise ValueError("closed forms cover m <= 2")
    prev = _cube_sq_cdf(m - 1)
    grid = np.linspace(0.0, 3.0 * m, 4097)
    ub = np.minimum(np.sqrt(grid), _CUBE_HALF)
    vals = _gl_integrate(lambda v: prev(grid[:, None] - v * v), np.zeros_like(grid), ub) / _CUBE_HALF
    vals = np.clip(vals, 0.0, 1.0)
    spline = PchipInterpolator(grid, vals, extrapolate=False)

    def cdf(s):
        s = np.asarray(s, dtype=float)
        out = np.where(s >= 3.0 * m, 1.0, 0.0)
        inside = (s > 0.0) & (s < 3.0 * m)
        if np.any(inside):
            out = np.where(inside, spline(np.clip(s, 0.0, 3.0 * m)), out)
        return out

    return cdf


def _cube_sq_cdf(m: int):
    if m == 1:
        return _cube_sq_cdf_1
    if m == 2:
        return _cube_sq_cdf_2
    return _cube_sq_cdf_spline(m)


def _v2_sqrt_antideriv(v: float, t: float) -> float:
    """Antiderivative of v^2 sqrt(t^2 - v^2):  t^4 (theta/8 - sin(4 theta)/32)."""
    theta = math.asin(min(max(v / t, -1.0), 1.0))
    return t ** 4 * (theta / 8.0 - math.sin(4.0 * theta) / 32.0)


def _cube_trunc_1(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, _CUBE_HALF)
    return tc ** 3 / (3.0 * _CUBE_HALF)


def _cube_trunc_2(t: np.ndarray) -> np.ndarray:
    """E[X1^2 1{|X| <= t}] in d = 2, closed form (verified against quadrature)."""
    t = np.asarray(t, dtype=float)
    q = _CUBE_HALF * _CUBE_HALF
    out = np.empty_like(t)
    lo = t <= _CUBE_HALF
    hi = t * t >= 2.0 * q
    mid = ~(lo | hi)
    out[lo] = math.pi * np.clip(t[lo], 0.0, None) ** 4 / (16.0 * q)
    out[hi] = 1.0
    for i in np.nonzero(mid)[0]:
        ti = float(t[i])
        ell = math.sqrt(ti * ti - q)
        out[i] = ell ** 3 / (3.0 * _CUBE_HALF) + (
            _v2_sqrt_antideriv(_CUBE_HALF, ti) - _v2_sqrt_antideriv(ell, ti)
        ) / q
    return out


def _cube_last_coord(d: int, t: np.ndarray, moment: bool) -> np.ndarray:
    """(1/sqrt 3) integral_0^{min(t, sqrt 3)} w(v) F_{d-1}(t^2 - v^2) dv.

    The last coordinate X_d = +-v integrated against the exact (d-1)-coordinate
    squared-norm CDF F_{d-1}: w(v) = v^2 gives E[X_d^2 1{|X| <= t}] and
    w(v) = 1 gives P{|X| <= t}.  Clipped to [0, 1].
    """
    prev = _cube_sq_cdf(d - 1)
    ub = np.minimum(np.clip(t, 0.0, None), _CUBE_HALF)

    def integrand(v):
        cdf = prev(t[..., None] ** 2 - v * v)
        return v * v * cdf if moment else cdf

    return np.clip(_gl_integrate(integrand, np.zeros_like(t), ub) / _CUBE_HALF, 0.0, 1.0)


def _cube_trunc_array(d: int, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if d == 1:
        return _cube_trunc_1(t)
    if d == 2:
        return _cube_trunc_2(t)
    return np.where(t * t >= 3.0 * d, 1.0, _cube_last_coord(d, t, moment=True))


def _cube_prob_tail(d: int, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if d <= 2:
        return 1.0 - _cube_sq_cdf(d)(t * t)
    return np.where(t * t >= 3.0 * d, 0.0, 1.0 - _cube_last_coord(d, t, moment=False))


# ---------------------------------------------------------------------------
# gaussian internals
# ---------------------------------------------------------------------------


def _gauss_trunc_array(d: int, t: np.ndarray) -> np.ndarray:
    """a(t) = P((d+2)/2, t^2/2), the regularized lower incomplete gamma."""
    # The closed erf/expm1 rearrangements for d = 1, 2 subtract two terms
    # that agree to machine precision once t < 1e-5, leaving rounding noise
    # that is not monotone in t; the incomplete gamma has no subtraction, so
    # every dimension routes through it.  t^2/2 overflowing to inf gives 1.
    from scipy.special import gammainc

    with np.errstate(over="ignore"):
        return gammainc(0.5 * (d + 2), 0.5 * t * t)


def _gauss_prob_tail(d: int, t: np.ndarray) -> np.ndarray:
    """P{|X| > t} = Q(d/2, t^2/2); d = 1 takes erfc, which is closer to the
    exact folded normal tail than Q(1/2, .) is."""
    from scipy.special import erfc, gammaincc

    if d == 1:
        return erfc(t / math.sqrt(2.0))
    with np.errstate(over="ignore"):
        return gammaincc(0.5 * d, 0.5 * t * t)


# ---------------------------------------------------------------------------
# public profile API
# ---------------------------------------------------------------------------


def radial_profile(law: IncrementLaw, t) -> np.ndarray | float:
    """Scalar radial profile a(t) with A(t)^2 = a(t) * identity.

    Inclusive at the truncation radius: a(t) = E[(X.e)^2 1{|X| <= t}] for any
    unit vector e.  Vectorized over t.
    """
    scalar = np.isscalar(t) or np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0.0):
        raise ValueError("truncation radius must be nonnegative")
    fam = law.family
    if fam == "gaussian_iso":
        out = _gauss_trunc_array(law.d, arr)
    elif fam == "rademacher_product":
        out = np.where(arr >= math.sqrt(law.d), 1.0, 0.0)
    elif fam == "uniform_cube":
        out = _cube_trunc_array(law.d, _cube_clamp(law.d, arr))
    else:
        out = _ladder_radius_trunc(law, arr) / law.d
    return float(out[0]) if scalar else out


def prob_tail(law: IncrementLaw, t) -> np.ndarray | float:
    """P{|X| > t} (strict).  Vectorized over t."""
    scalar = np.isscalar(t) or np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0.0):
        raise ValueError("radius must be nonnegative")
    fam = law.family
    if fam == "gaussian_iso":
        out = _gauss_prob_tail(law.d, arr)
    elif fam == "rademacher_product":
        out = np.where(arr < math.sqrt(law.d), 1.0, 0.0)
    elif fam == "uniform_cube":
        out = _cube_prob_tail(law.d, _cube_clamp(law.d, arr))
    else:
        out = _ladder_prob_tail(law, arr)
    return float(out[0]) if scalar else out


def tail_second_moment(law: IncrementLaw, t) -> np.ndarray | float:
    """tau(t) = E[|X|^2 1{|X| >= t}], inclusive at atoms.

    At every continuity point of the law this equals
    trace(identity - A(t)^2); on a ladder rung the atom at t is included,
    which is the version the tail conditions are stated for.
    """
    scalar = np.isscalar(t) or np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(arr < 0.0):
        raise ValueError("truncation radius must be nonnegative")
    fam = law.family
    if fam in ("atom_ladder", "atom_ladder_fat"):
        out = _ladder_radius_tail_geq(law, arr)
    elif fam == "rademacher_product":
        out = np.where(arr <= math.sqrt(law.d), float(law.d), 0.0)
    else:
        out = law.d * (1.0 - np.atleast_1d(np.asarray(radial_profile(law, arr))))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class TailProfile:
    t: float
    tau: float
    ll_t: float
    tau_times_llt: float


def tail_profile(law: IncrementLaw, t_grid) -> list[TailProfile]:
    """Tail functional tau(t) = E[|X|^2 1{|X| >= t}] with its LL(t) product."""
    t_grid = np.asarray(t_grid, dtype=float)
    taus = np.atleast_1d(np.asarray(tail_second_moment(law, t_grid)))
    lls = np.atleast_1d(iterlog(t_grid, 2))
    return [
        TailProfile(t=float(t), tau=float(tau), ll_t=float(ll), tau_times_llt=float(tau * ll))
        for t, tau, ll in zip(t_grid, taus, lls)
    ]


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _sample_directions(law: IncrementLaw, rng: np.random.Generator, m: int) -> np.ndarray:
    """Unit directions for d >= 2 (a d = 1 ladder draws its sign in ``sample``)."""
    d = law.d
    if law.direction_mode == "sphere":
        z = rng.standard_normal((m, d))
        norms = np.linalg.norm(z, axis=1, keepdims=True)
        # a zero vector has probability zero; guard anyway
        norms[norms == 0.0] = 1.0
        return z / norms
    # signed coordinate axes: E[theta theta^T] = I/d as for the sphere
    axes = rng.integers(0, d, size=m)
    signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    out = np.zeros((m, d))
    out[np.arange(m), axes] = signs
    return out


def sample(
    law: IncrementLaw, rng: np.random.Generator, size: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw `size` iid increments as a (size, d) array.

    The stream consumption pattern per call is fixed by (family, d, size), so
    a replayed generator reproduces draws exactly.  ``out``, a C-ordered
    float64 (size, d) array, receives the draws and is returned.  Filling it
    gives the bits of a call without it and leaves the generator in the same
    state: the Gaussian draws straight into it, the cube scales ``random`` in
    place (``uniform`` computes -sqrt(3) + 2 sqrt(3) U in the same two
    roundings), Rademacher's signs are exactly +-1 however they are
    converted, and the ladders write their last step into it.
    """
    d = law.d
    fam = law.family
    if out is None:
        out = np.empty((size, d))
    elif out.shape != (size, d):
        raise ValueError(f"out has shape {out.shape}, expected {(size, d)}")
    if fam == "gaussian_iso":
        return rng.standard_normal(out=out)
    if fam == "rademacher_product":
        np.multiply(rng.integers(0, 2, size=(size, d)), 2.0, out=out)
        out -= 1.0
        return out
    if fam == "uniform_cube":
        rng.random(out=out)
        out *= 2.0 * _CUBE_HALF
        out -= _CUBE_HALF
        return out
    lad = _ladder_data(law)
    # category: core below p_core, then rungs in order
    v = rng.random(size)
    radii = lad.core_halfwidth * rng.random(size)
    rung = np.flatnonzero(v >= lad.p_core)
    if rung.size:
        cuts = lad.p_core + np.cumsum(lad.weights)
        j = np.searchsorted(cuts, v[rung], side="right")  # rung k0 + j
        radii[rung] = lad.levels[np.minimum(j, len(lad.levels) - 1)]  # last-ulp gap of cuts
    if d == 1:
        out[:, 0] = np.where(rng.random(size) < 0.5, -radii, radii)
    else:
        np.multiply(radii[:, None], _sample_directions(law, rng, size), out=out)
    return out
