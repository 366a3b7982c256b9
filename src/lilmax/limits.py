"""Closed-form limit laws, tail inequalities, and the series classifier.

Everything here is deterministic: the Gumbel limit family, the slow-growth
boundary family phi(t) = sqrt(2 LLt + a LLLt + b LLLLt), chi-norm tails with
their t^{d-2} exp(-t^2/2) envelope, sub-Gaussian norm tail bounds, the
density-ratio bound for a two-dimensional Gaussian with one shrunk axis,
and a convergence classifier for the boundary series

    sum_n phi^d(n) exp(-phi^2(n)/2) / n

backed by a numerical probe that never uses the classifier's threshold rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .iterlog import iterlog
from .models import gaussian_iso, prob_tail

__all__ = [
    "GumbelLaw",
    "PhiFamily",
    "chi_norm_tail",
    "ChiTailEnvelope",
    "chi_tail_envelope",
    "GaussianTailBounds",
    "gaussian_norm_tail_bound",
    "DensityRatioReport",
    "aniso_chisq_density_ratio",
    "integral_test_classify",
    "integral_test_term",
    "IntegralProbe",
    "integral_test_partial_sums",
]


# ---------------------------------------------------------------------------
# Gumbel limit family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GumbelLaw:
    """Extreme-value law with CDF exp(-exp(-(t - shift)))."""

    shift: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.exp(-np.exp(-(y - self.shift)))
        return float(out) if out.ndim == 0 else out

    def sf(self, y):
        y = np.asarray(y, dtype=float)
        out = -np.expm1(-np.exp(-(y - self.shift)))
        return float(out) if out.ndim == 0 else out

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if np.any((p <= 0.0) | (p >= 1.0)):
            raise ValueError("quantile needs p strictly inside (0, 1)")
        out = self.shift - np.log(-np.log(p))
        return float(out) if out.ndim == 0 else out

    def median(self) -> float:
        return self.quantile(0.5)


# ---------------------------------------------------------------------------
# boundary family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiFamily:
    """phi(t) = sqrt(2 LLt + a LLLt + b LLLLt), the boundary family whose
    series convergence the classifier decides."""

    a: float
    b: float
    d: int = 1

    def __post_init__(self):
        if not (1 <= self.d <= 8):
            raise ValueError("dimension must be in 1..8")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("coefficients must be finite")

    def squared(self, t):
        t = np.asarray(t, dtype=float)
        r = (
            2.0 * np.asarray(iterlog(t, 2), dtype=float)
            + self.a * np.asarray(iterlog(t, 3), dtype=float)
            + self.b * np.asarray(iterlog(t, 4), dtype=float)
        )
        if np.any(r < 0.0):
            bad = np.asarray(t)[np.asarray(r) < 0.0]
            raise ValueError(
                f"phi^2 is negative at t = {float(np.min(bad))}: "
                f"a = {self.a}, b = {self.b} are too negative there"
            )
        return float(r) if r.ndim == 0 else r

    def __call__(self, t):
        return np.sqrt(self.squared(t))

    def label(self) -> str:
        return f"phi(a={self.a:g},b={self.b:g},d={self.d})"


# ---------------------------------------------------------------------------
# chi-norm tails and their envelope
# ---------------------------------------------------------------------------


def chi_norm_tail(d: int, t):
    """P{|N(0, I_d)| >= t} = Q(d/2, t^2/2).

    d = 2 is exact (exponential norm-square); d = 1 folds the normal tail.
    """
    if not (1 <= int(d) <= 8) or int(d) != d:
        raise ValueError("dimension must be an integer in 1..8")
    d = int(d)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("level must be nonnegative")
    if d == 2:
        out = np.exp(-0.5 * t * t)
        return float(out) if out.ndim == 0 else out
    return prob_tail(gaussian_iso(d), t)


@dataclass(frozen=True)
class ChiTailEnvelope:
    """Empirical min/max of chi_norm_tail(d, t) / (t^{d-2} exp(-t^2/2))."""

    d: int
    t_grid: np.ndarray
    ratios: np.ndarray
    c1_hat: float
    c2_hat: float


def chi_tail_envelope(d: int, t_grid) -> ChiTailEnvelope:
    """Envelope constants of the norm tail against t^{d-2} exp(-t^2/2).

    The comparison shape holds for t >= 2d, and both sides underflow past
    t ~ 12, so the grid must sit inside [2d, 12].
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("need a 1-d grid with at least 2 points")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    if t[0] < 2.0 * d - 1e-12 or t[-1] > 12.0 + 1e-12:
        raise ValueError(f"grid must lie within [{2 * d}, 12]")
    ratios = chi_norm_tail(d, t) / (t ** (d - 2) * np.exp(-0.5 * t * t))
    c1 = float(np.min(ratios))
    c2 = float(np.max(ratios))
    if not (0.0 < c1 <= c2 < math.inf):
        raise ArithmeticError("envelope degenerated; grid out of usable range")
    return ChiTailEnvelope(d=d, t_grid=t, ratios=ratios, c1_hat=c1, c2_hat=c2)


# ---------------------------------------------------------------------------
# sub-Gaussian norm tail bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianTailBounds:
    """Two upper bounds for P{|Y| >= x}, Y centered Gaussian.

    bound_sigma uses the largest eigenvalue and is valid only on
    x >= 2 E|Y|^2 (sigma_applicable); bound_trace holds for every x >= 0 at
    the cost of the factor 2.
    """

    x: np.ndarray
    trace: float
    sigma2_max: float
    bound_sigma: np.ndarray
    sigma_applicable: np.ndarray
    bound_trace: np.ndarray


def gaussian_norm_tail_bound(x, trace: float, sigma2_max: float) -> GaussianTailBounds:
    if trace <= 0.0 or sigma2_max <= 0.0:
        raise ValueError("trace and largest eigenvalue must be positive")
    if sigma2_max > trace * (1.0 + 1e-12):
        raise ValueError("largest eigenvalue cannot exceed the trace")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("levels must be nonnegative")
    bound_sigma = np.exp(-(x * x) / (8.0 * sigma2_max))
    bound_trace = 2.0 * np.exp(-(x * x) / (8.0 * trace))
    return GaussianTailBounds(
        x=x,
        trace=float(trace),
        sigma2_max=float(sigma2_max),
        bound_sigma=bound_sigma,
        sigma_applicable=x >= 2.0 * trace,
        bound_trace=bound_trace,
    )


# ---------------------------------------------------------------------------
# density-ratio bound for a 2-d Gaussian with axes (1, sigma)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityRatioReport:
    """Max over a z grid of h(z)/h1(z), where h is the density of
    R1 + sigma^2 R2 (independent chi-square(1) variables R1, R2) and h1 the
    chi-square(1) density; the analytic bound is 2/sqrt(1 - sigma^2)."""

    sigma: float
    z_grid: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    argmax_z: float
    bound: float


def _ratio_integrand_factory(half_beta_z: float):
    def f(theta: float) -> float:
        s = math.sin(theta)
        return math.exp(-half_beta_z * s * s)

    return f


def aniso_chisq_density_ratio(sigma: float, z_grid) -> DensityRatioReport:
    """Evaluate h(z)/h1(z) by quadrature of the defining convolution.

    Substituting y = z sin^2(theta) removes both inverse-square-root
    endpoint singularities, leaving the smooth integrand
    exp(-beta z sin^2(theta) / 2) with beta = sigma^{-2} - 1:

        ratio(z) = (2 sqrt(z) / (sigma sqrt(2 pi)))
                   * integral_0^{pi/2} exp(-beta z sin^2 theta / 2) dtheta.

    The prefactor is fixed by normalization: integral ratio * h1 = 1, and
    ratio -> 1 pointwise as sigma -> 0.
    """
    if not (0.0 < sigma < 1.0):
        raise ValueError("sigma must be inside (0, 1)")
    z = np.asarray(z_grid, dtype=float)
    if z.ndim != 1 or len(z) == 0 or np.any(z <= 0.0):
        raise ValueError("need a 1-d grid of positive z values")
    beta = 1.0 / (sigma * sigma) - 1.0
    pref = 2.0 / (sigma * math.sqrt(2.0 * math.pi))
    ratios = np.empty(len(z))
    for i, zi in enumerate(z):
        res = quad(
            _ratio_integrand_factory(0.5 * beta * zi),
            0.0,
            0.5 * math.pi,
            epsabs=1e-13,
            epsrel=1e-11,
            limit=200,
            full_output=1,
        )
        val, err = res[0], res[1]
        if len(res) > 3 or err > 1e-9 * max(abs(val), 1e-300):
            raise ArithmeticError(
                f"quadrature did not converge at z = {zi}: error {err:g}"
            )
        ratios[i] = pref * math.sqrt(zi) * val
    i = int(np.argmax(ratios))
    return DensityRatioReport(
        sigma=float(sigma),
        z_grid=z,
        ratios=ratios,
        max_ratio=float(ratios[i]),
        argmax_z=float(z[i]),
        bound=2.0 / math.sqrt(1.0 - sigma * sigma),
    )


# ---------------------------------------------------------------------------
# series classifier and its numerical probe
# ---------------------------------------------------------------------------


def integral_test_classify(phi: PhiFamily) -> str:
    """Analytic verdict for sum_n phi^d(n) exp(-phi^2(n)/2) / n.

    The term behaves like n^{-1} (Ln)^{-1} (LLn)^{(d-a)/2} (LLLn)^{-b/2}
    up to constants, so in u = LLn the series compares to
    integral u^{(d-a)/2} (log u)^{-b/2} du: finite iff a > d + 2, or
    a = d + 2 with b > 2 (the b = 2 boundary is a triple-log harmonic
    series, divergent).
    """
    if phi.a > phi.d + 2:
        return "convergent"
    if phi.a == phi.d + 2 and phi.b > 2:
        return "convergent"
    return "divergent"


def integral_test_term(phi: PhiFamily, ns):
    """Series term phi^d(n) exp(-phi^2(n)/2) / n, vectorized."""
    ns = np.asarray(ns, dtype=float)
    if np.any(ns < 1.0):
        raise ValueError("indices must be >= 1")
    p2 = np.asarray(phi.squared(ns), dtype=float)
    return p2 ** (phi.d / 2.0) * np.exp(-0.5 * p2) / ns


_EXACT_SUM_LIMIT = 1_000_000
# LLL kink: LL(n) crosses e here, releasing the third-log floor
_LLL_RELEASE = math.exp(math.exp(math.e))
_GL_T, _GL_W = np.polynomial.legendre.leggauss(64)


def _gl_segment(fn, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.sum(_GL_W * fn(mid + half * _GL_T)))


def _em_segment_sum(phi: PhiFamily, n0: float, n1: float) -> float:
    """Euler-Maclaurin estimate of sum_{n0 < n <= n1} term(n): the integral
    in t = log(n) split at the third-log release kink, plus the trapezoid
    boundary correction."""

    def g(t):
        x = np.exp(t)
        return integral_test_term(phi, x) * x

    cuts = [math.log(n0), math.log(n1)]
    kink = math.log(_LLL_RELEASE)
    if cuts[0] < kink < cuts[1]:
        cuts.insert(1, kink)
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        pieces = max(1, math.ceil((hi - lo) / 2.0))
        grid = np.linspace(lo, hi, pieces + 1)
        for a, b in zip(grid[:-1], grid[1:]):
            total += _gl_segment(g, a, b)
    f0 = float(integral_test_term(phi, n0))
    f1 = float(integral_test_term(phi, n1))
    return total + 0.5 * (f1 - f0)


def _log_h(phi: PhiFamily, w: np.ndarray) -> np.ndarray:
    """log of the u-integrand pushed to w = log(u), u = LL(n).

    In this regime the term sum equals integral H(w) dw with
    log H(w) = (d/2) log(phi^2) - phi^2/2 + u + w and
    phi^2 = 2u + a w + b log(max(w, e)); the e^u factors cancel exactly,
    which keeps everything finite for w up to 1e5.
    """
    w = np.asarray(w, dtype=float)
    lmw = np.log(np.maximum(w, math.e))
    lin = phi.a * w + phi.b * lmw
    # log(phi^2) = w + log 2 + log1p(lin / (2 e^w)), with the log1p term
    # underflowing to 0 once w is moderately large
    corr = np.where(w < 45.0, np.log1p(lin / (2.0 * np.exp(np.minimum(w, 45.0)))), 0.0)
    log_phi2 = w + math.log(2.0) + corr
    return (phi.d / 2.0) * log_phi2 + (1.0 - phi.a / 2.0) * w - (phi.b / 2.0) * lmw


def _log_block_integral(phi: PhiFamily, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid + half * _GL_T
    logs = _log_h(phi, nodes) + np.log(half * _GL_W)
    m = float(np.max(logs))
    return m + math.log(float(np.sum(np.exp(logs - m))))


@dataclass(frozen=True)
class IntegralProbe:
    """Numerical evidence about the boundary series, independent of the
    analytic threshold rule.

    ns / partial_sums are honest partial sums at geometric checkpoints
    (exact summation up to 10^6, Euler-Maclaurin blocks beyond, the two
    validated against each other on the overlap).  The verdict comes from
    growth slopes of the continued integral in w = log(LL n): block
    integrals grow like exp(w (d + 2 - a) / 2) with a power-of-w profile
    w^{1 - b/2} on the a = d + 2 critical line, so the linear slope decides
    off-critical cells and the log-log slope decides the critical line.
    """

    phi: PhiFamily
    ns: np.ndarray
    partial_sums: np.ndarray
    em_validation_rel: float
    w_mid: np.ndarray
    log_increments: np.ndarray
    slope_linear: float
    slope_loglog: float
    tail_increment: float
    verdict: str


def integral_test_partial_sums(phi: PhiFamily, n_max: int = 10**9) -> IntegralProbe:
    if not (10**4 <= n_max <= 10**9):
        raise ValueError("n_max must be between 1e4 and 1e9")

    # exact partial sums at geometric checkpoints
    n_exact = min(n_max, _EXACT_SUM_LIMIT)
    all_n = np.arange(1, n_exact + 1)
    cumulative = np.cumsum(integral_test_term(phi, all_n))
    checkpoints = [int(round(10 ** (j / 2.0))) for j in range(2, 19)]
    checkpoints = sorted({c for c in checkpoints if c <= n_max})
    ns, sums = [], []
    for c in checkpoints:
        if c <= n_exact:
            ns.append(c)
            sums.append(float(cumulative[c - 1]))
        else:
            ns.append(c)
            sums.append(float(cumulative[-1]) + _em_segment_sum(phi, n_exact, c))

    # validate the Euler-Maclaurin leg against exact summation on an overlap
    exact_seg = float(cumulative[-1] - cumulative[10**5 - 1])
    em_seg = _em_segment_sum(phi, 10**5, n_exact)
    em_rel = abs(em_seg - exact_seg) / max(abs(exact_seg), 1e-300)

    # continued-integral growth diagnostics in w = log(LL n)
    edges = 10.0 * (10.0 ** (np.arange(17) / 4.0))
    log_inc = np.array(
        [_log_block_integral(phi, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    )
    w_mid = 0.5 * (edges[:-1] + edges[1:])
    slope_linear = float(np.polyfit(w_mid, log_inc, 1)[0])
    slope_loglog = float(np.polyfit(np.log(w_mid), log_inc, 1)[0])
    if slope_linear > 0.05:
        verdict = "divergent"
    elif slope_linear < -0.05:
        verdict = "convergent"
    else:
        verdict = "divergent" if slope_loglog > -0.25 else "convergent"
    try:
        tail_increment = math.exp(log_inc[-1])
    except OverflowError:
        tail_increment = math.inf

    return IntegralProbe(
        phi=phi,
        ns=np.asarray(ns),
        partial_sums=np.asarray(sums),
        em_validation_rel=float(em_rel),
        w_mid=w_mid,
        log_increments=log_inc,
        slope_linear=slope_linear,
        slope_loglog=slope_loglog,
        tail_increment=float(tail_increment),
        verdict=verdict,
    )
