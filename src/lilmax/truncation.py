"""Truncation-level schemes, normalizing-matrix sequences, and validators.

A truncation scheme assigns to each time index n a level c_n that grows like
sqrt(n) up to slowly varying corrections.  The normalizing matrices are the
PSD square roots

    Gamma_n = psd_sqrt( E[X X^T 1{|X| <= c_n}] ),

computed from the analytic law (population quantity), never from the sample:
the self-normalized statistic is defined through the law of X, and plugging
in sampling noise would corrupt it.  An empirical plug-in overlay exists as
a diagnostic only (``empirical_sample`` argument) and is excluded from
acceptance runs.

Index floors
------------
Two floors compose, both instances of the replace-c_n-by-c_{n v n0} device:

* ``TruncationScheme.n0`` repairs monotonicity.  With iterated logs floored
  at 1, a level sqrt(n)/(LLn)^p dips on a finite initial range (the floor
  releases at n = 16 while the derivative turns positive only once
  log(n) * LL(n) >= 2p).  The family constructors default n0 to the first
  index past the dip, so every built-in scheme is nondecreasing from n = 1.
* ``GammaSequence.n0`` keeps the matrices well-conditioned and the early
  terms of the max statistic undistorted: the smallest n with
  lambda_min(Gamma_n) >= 0.1 whose suffix keeps the jump-visibility profile
  psi_k = k * P{|X| > c_k} at or below 0.01 throughout the early window
  k <= 4096.  Early is the operative word: a term at small k inflates by
  1/lambda_k on the ~psi_k fraction of trajectories whose first k steps
  contain an increment past c_k, and those single-term bumps are what
  distorts the distribution of the max.  At large k the same profile is
  part of the law's genuine extreme-value behavior (atom families cross
  rung scales where psi peaks by design), so the rule never floors past
  the window; the full-horizon sup is recorded as ``jump_horizon_sup``
  for diagnostics instead.  When even the window clause is unsatisfiable
  (e.g. a constant table level below the bulk of the law), the eigenvalue
  clause alone decides and the window residual is recorded, never hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .iterlog import iterlog
from .models import IncrementLaw, law_id, prob_tail, radial_profile, tail_profile
from .psdmat import NearSingularError, SymPSD, eigen, inverse, psd_sqrt

SCHEME_FAMILIES = ("sqrt_n", "sqrt_n_invLL5", "sqrt_n_polylog", "table")

LAMBDA_FLOOR = 0.1       # smallest admissible eigenvalue of Gamma_n
JUMP_BUDGET = 0.01       # admissible sup of k * P{|X| > c_k} on the early window
JUMP_WINDOW = 4096       # early-term window the budget clause scans
EXACT_LIMIT = 10_000     # per-index cache below, checkpoints above
CHECKPOINT_RATIO = 1.001


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationScheme:
    """Level sequence c_n; ``n0`` floors the index (levels use n v n0)."""

    family: str
    q: float = 0.0
    levels: tuple = ()
    n0: int = 1

    def __post_init__(self):
        if self.family not in SCHEME_FAMILIES:
            raise ValueError(f"unknown scheme family {self.family!r}")
        if self.n0 < 1:
            raise ValueError("n0 must be a positive index")
        if self.family == "table":
            arr = np.asarray(self.levels, dtype=float)
            if arr.size == 0:
                raise ValueError("table scheme needs at least one level")
            if np.any(arr <= 0.0):
                raise ValueError("table levels must be positive")
            if np.any(np.diff(arr) < 0.0):
                raise ValueError("table levels must be nondecreasing")
        elif self.family == "sqrt_n_polylog" and abs(self.q) > 20.0:
            raise ValueError("polylog exponent out of the supported range [-20, 20]")


def _monotone_floor(p: float) -> int:
    """Smallest index from which sqrt(n)/(LLn)^p is nondecreasing.

    The level decreases exactly while log(n) * LL(n) < 2p (and only past the
    iterated-log floor release at n = 16), so the repair floor is the first
    integer n >= 16 satisfying log(n) * LL(n) >= 2p; below threshold 1.4 the
    dip never opens.
    """
    if p <= 1.4:
        return 1
    lo, hi = 16, 16
    while math.log(hi) * float(iterlog(hi, 2)) < 2.0 * p:
        hi *= 4
    while lo < hi:
        mid = (lo + hi) // 2
        if math.log(mid) * float(iterlog(mid, 2)) >= 2.0 * p:
            hi = mid
        else:
            lo = mid + 1
    return lo


def sqrt_n(n0: int = 1) -> TruncationScheme:
    return TruncationScheme(family="sqrt_n", n0=n0)


def sqrt_n_invLL5(n0: Optional[int] = None) -> TruncationScheme:
    if n0 is None:
        n0 = _monotone_floor(5.0)
    return TruncationScheme(family="sqrt_n_invLL5", n0=n0)


def sqrt_n_polylog(q: float, n0: Optional[int] = None) -> TruncationScheme:
    if n0 is None:
        n0 = _monotone_floor(-q) if q < 0 else 1
    return TruncationScheme(family="sqrt_n_polylog", q=float(q), n0=n0)


def table_scheme(levels, n0: int = 1) -> TruncationScheme:
    return TruncationScheme(family="table", levels=tuple(float(v) for v in levels), n0=n0)


def scheme_id(scheme: TruncationScheme) -> str:
    if scheme.family == "sqrt_n_polylog":
        return f"sqrt_n_polylog(q={scheme.q:g})-n0{scheme.n0}"
    if scheme.family == "table":
        return f"table[{len(scheme.levels)}]-n0{scheme.n0}"
    return f"{scheme.family}-n0{scheme.n0}"


def c_levels(scheme: TruncationScheme, ns) -> np.ndarray:
    """Vectorized truncation levels c_{n v n0} for an array of indices."""
    ns = np.asarray(ns)
    if np.any(ns < 1):
        raise ValueError("indices must be >= 1")
    m = np.maximum(ns.astype(float), float(scheme.n0))
    if scheme.family == "table":
        if np.any(m > len(scheme.levels)):
            raise ValueError(
                f"index beyond table length {len(scheme.levels)}"
            )
        return np.asarray(scheme.levels, dtype=float)[m.astype(int) - 1]
    root = np.sqrt(m)
    if scheme.family == "sqrt_n":
        return root
    ll = np.asarray(iterlog(m, 2), dtype=float)
    if scheme.family == "sqrt_n_invLL5":
        return root / ll**5
    return root * ll**scheme.q


def c_level(scheme: TruncationScheme, n: int) -> float:
    """Truncation level c_{n v n0} at a single index n >= 1."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    return float(c_levels(scheme, np.asarray([n]))[0])


def scheme_from_mapping(m: dict) -> TruncationScheme:
    fam = m.get("family", "sqrt_n")
    n0 = m.get("n0")
    if fam == "sqrt_n":
        return sqrt_n(int(n0)) if n0 is not None else sqrt_n()
    if fam == "sqrt_n_invLL5":
        return sqrt_n_invLL5(int(n0) if n0 is not None else None)
    if fam == "sqrt_n_polylog":
        return sqrt_n_polylog(float(m.get("q", 0.0)), int(n0) if n0 is not None else None)
    if fam == "table":
        levels = [float(v) for v in str(m.get("levels", "")).split(",") if v.strip()]
        return table_scheme(levels, int(n0) if n0 is not None else 1)
    raise ValueError(f"unknown scheme family {fam!r}")


def scheme_to_mapping(scheme: TruncationScheme) -> dict:
    out = {"family": scheme.family, "n0": str(scheme.n0)}
    if scheme.family == "sqrt_n_polylog":
        out["q"] = repr(scheme.q)
    if scheme.family == "table":
        out["levels"] = ",".join(repr(v) for v in scheme.levels)
    return out


# ---------------------------------------------------------------------------
# Gamma sequence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaView:
    """Normalizer data at one index: Gamma_n, its inverse, extreme eigenvalues."""

    n: int
    gamma: SymPSD
    gamma_inv: SymPSD
    lambda_min: float
    lambda_max: float


def _checkpoint_indices(n_max: int) -> np.ndarray:
    exact = np.arange(1, min(n_max, EXACT_LIMIT) + 1)
    if n_max <= EXACT_LIMIT:
        return exact
    pts = [EXACT_LIMIT]
    while pts[-1] < n_max:
        nxt = max(pts[-1] + 1, int(math.ceil(pts[-1] * CHECKPOINT_RATIO)))
        pts.append(min(nxt, n_max))
    return np.concatenate([exact, np.asarray(pts[1:], dtype=np.int64)])


def _jump_candidates(law: IncrementLaw, scheme: TruncationScheme, n_max: int) -> np.ndarray:
    """Indices where psi_k = k P{|X| > c_k} must be probed.

    Dense through 4096, geometric past, plus the indices straddling each
    atom-rung crossing c_k = t_j, which is where psi peaks for ladder laws.
    """
    ks = list(range(1, min(n_max, 4096) + 1))
    k = 4096
    while k < n_max:
        k = max(k + 1, int(k * 1.01))
        ks.append(min(k, n_max))
    if law.family in ("atom_ladder", "atom_ladder_fat"):
        from .models import _ladder_data

        for t_j in _ladder_data(law).levels:
            if c_level(scheme, n_max) < t_j:
                continue
            lo, hi = 1, n_max
            while lo < hi:  # smallest k with c_k >= t_j
                mid = (lo + hi) // 2
                if c_level(scheme, mid) >= t_j:
                    hi = mid
                else:
                    lo = mid + 1
            for kk in (lo - 1, lo, lo + 1):
                if 1 <= kk <= n_max:
                    ks.append(kk)
    return np.unique(np.asarray(ks, dtype=np.int64))


class GammaSequence:
    """Read-only cache of Gamma_n = psd_sqrt(A(c_{n v n0})^2) over 1..n_max.

    Exact per index through 10^4, geometric checkpoints (ratio 1.001, value
    held piecewise constant) beyond.  Built once, then shared across worker
    threads without locking; so is Feller's B_k, lazily, in ``feller_bn``.
    """

    def __init__(
        self,
        law: IncrementLaw,
        scheme: TruncationScheme,
        n_max: int,
        *,
        n0: Optional[int] = None,
        empirical_sample: Optional[np.ndarray] = None,
        lambda_floor: float = LAMBDA_FLOOR,
        jump_budget: float = JUMP_BUDGET,
    ):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        self.law = law
        self.scheme = scheme
        self.n_max = int(n_max)
        self.lambda_floor = float(lambda_floor)
        self.jump_budget = float(jump_budget)
        self.empirical = empirical_sample is not None

        if n0 is None:
            self.n0 = self._default_n0()
        else:
            if n0 < 1:
                raise ValueError("n0 must be >= 1")
            self.n0 = int(n0)
        self.jump_residual = self._jump_sup(self.n0, min(self.n_max, JUMP_WINDOW))
        self.jump_horizon_sup = self._jump_sup(self.n0, self.n_max, with_rungs=True)

        self._ns = _checkpoint_indices(self.n_max)
        floored = np.maximum(self._ns, self.n0)
        self._c = c_levels(scheme, floored)

        if self.empirical:
            self._build_empirical(np.asarray(empirical_sample, dtype=float))
        else:
            # every catalogue law is isotropic: A(c)^2 = a(c) * I
            self._a = np.clip(np.asarray(radial_profile(law, self._c)), 0.0, None)
            self._scale = np.sqrt(self._a)
            bad = self._scale < self.lambda_floor * (1.0 - 1e-12)
            if bad.any():
                first = int(self._ns[np.argmax(bad)])
                raise NearSingularError(
                    f"Gamma_{first} has eigenvalue {self._scale[bad][0]:.3g} below "
                    f"the floor {self.lambda_floor}; n0 = {self.n0} is misconfigured"
                )

    # -- construction helpers ------------------------------------------------

    def _default_n0(self) -> int:
        law, scheme = self.law, self.scheme
        # eigenvalue clause: lambda_min = sqrt(a(c_n)) for isotropic laws
        n_eig = 1
        while n_eig <= self.n_max:
            a = float(radial_profile(law, c_level(scheme, n_eig)))
            if math.sqrt(max(a, 0.0)) >= self.lambda_floor:
                break
            n_eig += 1
        else:
            raise NearSingularError(
                f"no index up to {self.n_max} reaches the eigenvalue floor "
                f"{self.lambda_floor} for {law_id(law)}"
            )
        # jump-visibility clause on the early window
        w = min(self.n_max, JUMP_WINDOW)
        ks = np.arange(1, w + 1)
        psi = ks * np.asarray(prob_tail(law, c_levels(scheme, ks)))
        suffix = np.maximum.accumulate(psi[::-1])[::-1]
        ok = suffix <= self.jump_budget
        if ok.any():
            return max(n_eig, int(ks[np.argmax(ok)]))
        return n_eig  # window clause unsatisfiable: eigenvalue clause decides

    def _jump_sup(self, n0: int, upto: int, with_rungs: bool = False) -> float:
        """sup of psi_k = k P{|X| > c_k} over candidate k in [n0, upto]."""
        if with_rungs:
            ks = _jump_candidates(self.law, self.scheme, upto)
        else:
            ks = np.arange(1, upto + 1)
        ks = ks[ks >= min(n0, upto)]
        if ks.size == 0:
            return 0.0
        psi = ks * np.asarray(prob_tail(self.law, c_levels(self.scheme, ks)))
        return float(psi.max())

    def _build_empirical(self, sample: np.ndarray) -> None:
        if sample.ndim != 2 or sample.shape[1] != self.law.d:
            raise ValueError(f"empirical sample must have shape (N, {self.law.d})")
        r = np.linalg.norm(sample, axis=1)
        order = np.argsort(r, kind="stable")
        xs = sample[order]
        rs = r[order]
        outer = xs[:, :, None] * xs[:, None, :]
        prefix = np.concatenate(
            [np.zeros((1, self.law.d, self.law.d)), np.cumsum(outer, axis=0)], axis=0
        )
        counts = np.searchsorted(rs, self._c, side="right")
        mats = prefix[counts] / len(xs)
        self._gammas = []
        self._gamma_invs = []
        lam_min = np.empty(len(self._ns))
        lam_max = np.empty(len(self._ns))
        for i, m in enumerate(mats):
            g = psd_sqrt(SymPSD.from_array(m))
            pair = eigen(g)
            self._gammas.append(g)
            self._gamma_invs.append(inverse(g))
            lam_min[i] = pair.lambda_min
            lam_max[i] = pair.lambda_max
        self._lam_min = lam_min
        self._lam_max = lam_max

    # -- lookups ---------------------------------------------------------------

    @property
    def isotropic(self) -> bool:
        return not self.empirical

    def _index_of(self, n: int) -> int:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"index {n} outside 1..{self.n_max}")
        if n <= EXACT_LIMIT:
            return n - 1
        return int(np.searchsorted(self._ns, n, side="right")) - 1

    def gamma_at(self, n: int) -> GammaView:
        i = self._index_of(n)
        if self.empirical:
            g = self._gammas[i]
            return GammaView(
                n=n, gamma=g, gamma_inv=self._gamma_invs[i],
                lambda_min=float(self._lam_min[i]), lambda_max=float(self._lam_max[i]),
            )
        s = float(self._scale[i])
        if s <= 1e-8:
            raise NearSingularError(f"Gamma_{n} is numerically singular (scale {s:.3g})")
        d = self.law.d
        return GammaView(
            n=n,
            gamma=SymPSD.scaled_identity(d, s),
            gamma_inv=SymPSD.scaled_identity(d, 1.0 / s),
            lambda_min=s,
            lambda_max=s,
        )

    def inv_scale(self, ns) -> np.ndarray:
        """Vectorized 1/lambda(Gamma_n) for isotropic laws (hot path)."""
        if self.empirical:
            raise ValueError("inv_scale is only defined for the isotropic analytic path")
        ns = np.asarray(ns)
        if np.any(ns < 1) or np.any(ns > self.n_max):
            raise ValueError(f"indices outside 1..{self.n_max}")
        idx = np.where(
            ns <= EXACT_LIMIT, ns - 1, np.searchsorted(self._ns, ns, side="right") - 1
        )
        return 1.0 / self._scale[idx]

    def inv_apply(self, ns, rows: np.ndarray) -> np.ndarray:
        """Rows Gamma_n^{-1} x for per-row indices ns; shape (m, d) -> (m, d).

        Isotropic laws scale each row; the empirical overlay gathers the
        per-checkpoint inverse matrices and applies them batched.
        """
        rows = np.asarray(rows, dtype=float)
        if not self.empirical:
            return rows * self.inv_scale(ns)[:, None]
        ns = np.asarray(ns)
        if np.any(ns < 1) or np.any(ns > self.n_max):
            raise ValueError(f"indices outside 1..{self.n_max}")
        idx = np.where(
            ns <= EXACT_LIMIT, ns - 1, np.searchsorted(self._ns, ns, side="right") - 1
        )
        mats = np.stack([self._gamma_invs[i].entries for i in np.unique(idx)])
        remap = np.searchsorted(np.unique(idx), idx)
        return np.einsum("kij,kj->ki", mats[remap], rows)

    @cached_property
    def feller_bn(self) -> np.ndarray:
        """Read-only B_1..B_{n_max} from ``feller_bn_prefix``, built on first use.

        Levels floor at the scheme's n0, not at this sequence's ``n0``: a
        higher floor would change the statistic.  Threads racing on the first
        access build identical arrays.
        """
        bn = feller_bn_prefix(self.law, self.scheme, self.n_max)
        bn.setflags(write=False)
        return bn

    def checkpoint_view(self) -> tuple[np.ndarray, np.ndarray]:
        """(indices, levels) of the cache; read-only diagnostics."""
        return self._ns.copy(), self._c.copy()


# ---------------------------------------------------------------------------
# Feller running variance
# ---------------------------------------------------------------------------


def feller_bn_prefix(law: IncrementLaw, scheme: TruncationScheme, n: int) -> np.ndarray:
    """B_1..B_n with B_k = sum_{j<=k} E[X^2 1{|X| <= c_{j v n0}}]; line only."""
    if law.d != 1:
        raise ValueError("the Feller running variance is defined for d = 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.empty(0)
    js = np.arange(1, n + 1)
    sig2 = np.asarray(radial_profile(law, c_levels(scheme, js)))
    return np.cumsum(sig2)


def feller_bn(law: IncrementLaw, scheme: TruncationScheme, n: int) -> float:
    """B_n = sum_{j=1..n} sigma_j^2; B_0 = 0 (empty sum)."""
    if n == 0:
        if law.d != 1:
            raise ValueError("the Feller running variance is defined for d = 1")
        return 0.0
    return float(feller_bn_prefix(law, scheme, n)[-1])


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthWindowReport:
    scheme: str
    n_grid: tuple
    eps_hat: tuple
    tail_slope: float
    verdict: str
    analytic: bool


def _validate_grid(grid, minimum: float) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.size < 2:
        raise ValueError("grid needs at least two points")
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly ascending")
    if g[0] < minimum:
        raise ValueError(f"grid minimum must be >= {minimum}")
    return g


def validate_growth_window(scheme: TruncationScheme, n_grid) -> GrowthWindowReport:
    """Diagnose whether c_n stays inside the sqrt(n) growth window.

    The window requires |log(c_n / sqrt(n))| <= (log n)^(eps_n) with
    eps_n -> 0.  The operational exponent estimate is

        eps_hat(n) = log( max(|log(c_n / sqrt n)|, 1) ) / LL(n),

    reported along the grid with an ordinary least-squares slope of eps_hat
    against LL(n) over the tail half.  Built-in families carry exact analytic
    verdicts (their log ratio is a multiple of LLL(n), which grows slower
    than any (log n)^eps); the numeric trend decides only for tables.
    """
    g = _validate_grid(n_grid, 16.0)
    c = c_levels(scheme, g)
    ratio = np.abs(np.log(c / np.sqrt(g)))
    lls = np.asarray(iterlog(g, 2), dtype=float)
    eps_hat = np.log(np.maximum(ratio, 1.0)) / lls

    tail = eps_hat[len(eps_hat) // 2 :]
    x = lls[len(eps_hat) // 2 :]
    slope = float(np.polyfit(x, tail, 1)[0]) if len(tail) >= 2 else 0.0

    if scheme.family in ("sqrt_n", "sqrt_n_invLL5", "sqrt_n_polylog"):
        verdict, analytic = "PASS", True
    else:
        analytic = False
        if float(tail.max()) < 0.05:
            verdict = "PASS"
        elif slope < -0.02 and tail[-1] < 0.8 * tail[0]:
            verdict = "PASS"
        elif float(tail.min()) > 0.15 and slope > -0.005:
            verdict = "FAIL"
        else:
            verdict = "INCONCLUSIVE"

    return GrowthWindowReport(
        scheme=scheme_id(scheme),
        n_grid=tuple(float(v) for v in g),
        eps_hat=tuple(float(v) for v in eps_hat),
        tail_slope=slope,
        verdict=verdict,
        analytic=analytic,
    )


@dataclass(frozen=True)
class TailConditionReport:
    law: str
    which: str
    rows: tuple
    limit_estimate: float
    verdict: str
    analytic: bool


_SMALL_O_VERDICT = {
    "gaussian_iso": "PASS",
    "rademacher_product": "PASS",
    "uniform_cube": "PASS",
    "atom_ladder": "FAIL",      # tau(t) * LLt -> c > 0
    "atom_ladder_fat": "FAIL",  # tau(t) * LLt -> infinity
}
_BIG_O_VERDICT = {
    "gaussian_iso": "PASS",
    "rademacher_product": "PASS",
    "uniform_cube": "PASS",
    "atom_ladder": "PASS",      # bounded: limit exactly c
    "atom_ladder_fat": "FAIL",
}


def validate_tail_condition(law: IncrementLaw, which: str, t_grid) -> TailConditionReport:
    """Check the compound tail condition tau(t) * LL(t) -> 0 (small_o) or O(1) (big_O).

    Catalogued families get exact analytic verdicts; the grid rows document
    the trend that a finite-data diagnostic would see.
    """
    if which not in ("small_o", "big_O"):
        raise ValueError("which must be 'small_o' or 'big_O'")
    g = _validate_grid(t_grid, 1.0)
    rows = tuple(tail_profile(law, g))
    vals = np.asarray([r.tau_times_llt for r in rows])
    limit = float(np.median(vals[len(vals) // 2 :]))
    verdict = (_SMALL_O_VERDICT if which == "small_o" else _BIG_O_VERDICT)[law.family]
    return TailConditionReport(
        law=law_id(law),
        which=which,
        rows=rows,
        limit_estimate=limit,
        verdict=verdict,
        analytic=True,
    )


# ---------------------------------------------------------------------------
# triple split
# ---------------------------------------------------------------------------

SPLIT_LABELS = ("prime", "double_prime", "triple_prime")


def split_thresholds(n: int) -> tuple[float, float]:
    """(lower, upper) = (sqrt(n)/(LLn)^5, sqrt(n * LLn)); ordered for all n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ll = float(iterlog(n, 2))
    return math.sqrt(n) / ll**5, math.sqrt(n * ll)


def triple_split(x, n: int) -> str:
    """Classify an increment at time n by magnitude band.

    prime: |x| <= sqrt(n)/(LLn)^5; double_prime: up to and including
    sqrt(n * LLn); triple_prime: beyond.
    """
    lo, hi = split_thresholds(n)
    r = float(np.linalg.norm(np.atleast_1d(np.asarray(x, dtype=float))))
    if r <= lo:
        return "prime"
    if r <= hi:
        return "double_prime"
    return "triple_prime"
