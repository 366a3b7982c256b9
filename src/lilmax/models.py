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
from functools import lru_cache, wraps
from typing import Optional

import numpy as np

from .psdmat import MAX_DIM

# Special functions load on first use: scipy.special costs every process
# about 0.2 s at import, and the classical statistic never calls it.  Each
# function below that needs one imports it in its body.

_CUBE_HALF = math.sqrt(3.0)  # uniform half-width giving unit variance
_LADDER_WEIGHT_FLOOR = 1.0e-300
_LADDER_LOG_LOG_MAX = math.log(700.0)  # rungs t_k = exp(e^k) past this k overflow double


@dataclass(frozen=True)
class IncrementLaw:
    """One catalogued increment distribution (immutable, hashable)."""

    family: str
    d: int
    c: float = 0.0
    k0: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 1 <= self.d <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {self.d}")
        if self.family in ("atom_ladder", "atom_ladder_fat"):
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


def atom_ladder(c: float = 0.5, k0: int = 2, d: int = 1) -> IncrementLaw:
    return IncrementLaw(family="atom_ladder", d=d, c=c, k0=k0)


def atom_ladder_fat(k0: int = 2, d: int = 1) -> IncrementLaw:
    return IncrementLaw(family="atom_ladder_fat", d=d, k0=k0)


# Each family's constructor and its parameters, the keys a config's law
# section may set besides 'family'; the defaults are the constructor's.
FAMILIES = {
    "gaussian_iso": (gaussian_iso, ("d",)),
    "rademacher_product": (rademacher_product, ("d",)),
    "uniform_cube": (uniform_cube, ("d",)),
    "atom_ladder": (atom_ladder, ("d", "c", "k0")),
    "atom_ladder_fat": (atom_ladder_fat, ("d", "k0")),
}


def law_id(law: IncrementLaw) -> str:
    """Stable compact identifier used in records, filenames, and configs; a
    ladder's ends in ``-sphere``, where its directions lie."""
    if law.family == "atom_ladder":
        return f"atom_ladder-d{law.d}-c{law.c:g}-k0{law.k0}-sphere"
    if law.family == "atom_ladder_fat":
        return f"atom_ladder_fat-d{law.d}-k0{law.k0}-sphere"
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
    while k <= _LADDER_LOG_LOG_MAX:
        t = math.exp(math.exp(k))
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
    """Vectorized fixed-order Gauss-Legendre of fn over per-element [lo, hi].

    Each element's weighted sum is reduced on its own, so its bits do not
    depend on the batch it is computed in or on the BLAS thread count (a
    matrix-vector product gives neither promise).
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[..., None] + half[..., None] * _GL_NODES
    vals = fn(nodes)
    return half * np.sum(vals * _GL_WEIGHTS, axis=-1)


# Indices per block of a streamed prefix sum: 8192 float64 terms are 64 KB,
# under glibc's 128 KB mmap threshold, so each block's temporaries reuse heap
# memory instead of faulting in fresh pages.
_PREFIX_BLOCK = 8192


def _prefix_sums(term, n: int):
    """Yield (lo, part) block by block over the indices 1..n, where part[i]
    is term(1) + ... + term(lo + i + 1).

    ``term`` maps an index array to a fresh float64 array; each block is one
    ``term(np.arange(lo + 1, hi + 1))`` call over at most _PREFIX_BLOCK
    indices, summed in place with the carried total added into its first
    term.  The accumulate adds left to right, so that add is exactly the
    one a single np.cumsum over all n terms makes there: every partial sum
    has that cumsum's bits, and no temporary is longer than a block.
    (walkstats._scan carries a Neumaier-compensated total over random draws
    instead, so its sums do not have the bits of one np.cumsum.)
    """
    carry = 0.0
    for lo in range(0, n, _PREFIX_BLOCK):
        part = term(np.arange(lo + 1, min(lo + _PREFIX_BLOCK, n) + 1))
        part[0] += carry
        np.cumsum(part, out=part)
        carry = part[-1]
        yield lo, part


@lru_cache(maxsize=None)
def _cube_sq_cdf_spline(m: int):
    """PCHIP spline of P{sum of m squared uniform coordinates <= s} on [0, 3m].

    Built recursively from the closed m <= 2 forms; each level integrates the
    previous one with fixed-order Gauss-Legendre (``_cube_last_coord``).
    Monotone by construction of PCHIP.
    """
    # deferred: loading scipy.interpolate costs every process a third of a
    # second, and only cube laws with d >= 4 get here
    from scipy.interpolate import PchipInterpolator

    grid = np.linspace(0.0, 3.0 * m, 4097)
    spline = PchipInterpolator(grid, _cube_last_coord(m, grid, moment=False), extrapolate=False)

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


def _cube_last_coord(d: int, s: np.ndarray, moment: bool) -> np.ndarray:
    """(1/sqrt 3) integral_0^{min(sqrt s, sqrt 3)} w(v) F_{d-1}(s - v^2) dv
    at squared radii s >= 0.

    The last coordinate X_d = +-v integrated against the exact (d-1)-coordinate
    squared-norm CDF F_{d-1}: w(v) = v^2 gives E[X_d^2 1{|X|^2 <= s}] and
    w(v) = 1 gives P{|X|^2 <= s}.  Clipped to [0, 1], and exactly 1 from the
    corner s = 3d on, where only the radii inside it are integrated.
    """
    prev = _cube_sq_cdf(d - 1)
    out = np.ones_like(s)
    inside = s < 3.0 * d
    s = s[inside]

    def integrand(v):
        cdf = prev(s[:, None] - v * v)
        return v * v * cdf if moment else cdf

    ub = np.minimum(np.sqrt(s), _CUBE_HALF)
    out[inside] = np.clip(_gl_integrate(integrand, np.zeros_like(s), ub) / _CUBE_HALF, 0.0, 1.0)
    return out


def _cube_trunc_array(d: int, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if d == 1:
        return _cube_trunc_1(t)
    if d == 2:
        return _cube_trunc_2(t)
    return _cube_last_coord(d, t * t, moment=True)


def _cube_prob_tail(d: int, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if d <= 2:
        return 1.0 - _cube_sq_cdf(d)(t * t)
    return 1.0 - _cube_last_coord(d, t * t, moment=False)


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


def _per_radius(fn):
    """Run ``fn(law, t)`` on the radii t as a 1-D float array: reject a
    negative radius, and return a float for a scalar t."""
    @wraps(fn)
    def at_radii(law: IncrementLaw, t):
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        if np.any(arr < 0.0):
            raise ValueError("radius must be nonnegative")
        out = fn(law, arr)
        return float(out[0]) if np.ndim(t) == 0 else out

    return at_radii


@_per_radius
def radial_profile(law: IncrementLaw, t) -> np.ndarray | float:
    """Scalar radial profile a(t) with A(t)^2 = a(t) * identity.

    Inclusive at the truncation radius: a(t) = E[(X.e)^2 1{|X| <= t}] for any
    unit vector e.  Vectorized over t.
    """
    fam = law.family
    if fam == "gaussian_iso":
        return _gauss_trunc_array(law.d, t)
    if fam == "rademacher_product":
        return np.where(t >= math.sqrt(law.d), 1.0, 0.0)
    if fam == "uniform_cube":
        return _cube_trunc_array(law.d, _cube_clamp(law.d, t))
    return _ladder_radius_trunc(law, t) / law.d


@_per_radius
def prob_tail(law: IncrementLaw, t) -> np.ndarray | float:
    """P{|X| > t} (strict).  Vectorized over t."""
    fam = law.family
    if fam == "gaussian_iso":
        return _gauss_prob_tail(law.d, t)
    if fam == "rademacher_product":
        return np.where(t < math.sqrt(law.d), 1.0, 0.0)
    if fam == "uniform_cube":
        return _cube_prob_tail(law.d, _cube_clamp(law.d, t))
    return _ladder_prob_tail(law, t)


@_per_radius
def tail_second_moment(law: IncrementLaw, t) -> np.ndarray | float:
    """tau(t) = E[|X|^2 1{|X| >= t}], inclusive at atoms.

    At every continuity point of the law this equals
    trace(identity - A(t)^2); on a ladder rung the atom at t is included,
    which is the version the tail conditions are stated for.
    """
    fam = law.family
    if fam in ("atom_ladder", "atom_ladder_fat"):
        return _ladder_radius_tail_geq(law, t)
    if fam == "rademacher_product":
        return np.where(t <= math.sqrt(law.d), float(law.d), 0.0)
    return law.d * (1.0 - radial_profile(law, t))


def tail_llt_limit(law: IncrementLaw) -> float:
    """lim tau(t) * LL(t) as t -> infinity, exactly.

    0 for the sign and cube laws, whose tau vanishes past their largest
    radius, and for the Gaussian, whose tau falls like exp(-t^2/2).  On the
    atom ladder tau(t) * LL(t) is c at every rung and within c/(k+1) of it
    between rungs k and k+1, so the limit is c; on the fat ladder it is
    sqrt(k) at rung k, so the limit is infinite.
    """
    if law.family == "atom_ladder":
        return law.c
    if law.family == "atom_ladder_fat":
        return math.inf
    return 0.0


def rung_radii(law: IncrementLaw) -> np.ndarray:
    """A ladder's rung radii t_k for k = k0.. up to the sampler's last rung;
    an empty array for a law without rungs."""
    if law.family in ("atom_ladder", "atom_ladder_fat"):
        return _ladder_data(law).levels
    return np.empty(0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (m, d) array; bit-identical to
    ``np.linalg.norm(x, axis=1)`` in the order it adds the squares.

    d = 1 returns |x|, which equals sqrt(x*x) unless x*x under- or overflows.
    """
    d = x.shape[1]
    if d == 1:
        return np.abs(x[:, 0])
    if d == MAX_DIM:
        return np.linalg.norm(x, axis=1)
    acc = x[:, 0] * x[:, 0]
    for j in range(1, d):
        acc += x[:, j] * x[:, j]
    return np.sqrt(acc, out=acc)


def _sample_directions(law: IncrementLaw, rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform unit directions for d >= 2 (a d = 1 ladder draws its sign in
    ``sample``)."""
    z = rng.standard_normal((m, law.d))
    norms = _row_norm(z)
    # a zero vector has probability zero; guard anyway
    norms[norms == 0.0] = 1.0
    return z / norms[:, None]


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
