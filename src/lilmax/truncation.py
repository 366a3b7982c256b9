"""Truncation-level schemes, normalizing-matrix sequences, and validators.

A truncation scheme assigns to each time index n a level c_n that grows like
sqrt(n) up to slowly varying corrections.  The normalizing matrices are the
PSD square roots

    Gamma_n = psd_sqrt( E[X X^T 1{|X| <= c_n}] ),

computed from the analytic law (population quantity), never from the sample:
the self-normalized statistic is defined through the law of X, and plugging
in sampling noise would corrupt it.

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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .iterlog import iterlog
from .models import IncrementLaw, law_id, prob_tail, radial_profile, tail_profile
from .psdmat import NearSingularError

SCHEME_FAMILIES = ("sqrt_n", "sqrt_n_invLL5", "sqrt_n_polylog", "table")

LAMBDA_FLOOR = 0.1       # smallest admissible eigenvalue of Gamma_n
JUMP_BUDGET = 0.01       # admissible sup of k * P{|X| > c_k} on the early window
JUMP_WINDOW = 4096       # early-term window the budget clause scans
EXACT_LIMIT = 10_000     # per-index cache below, checkpoints above
CHECKPOINT_RATIO = 1.001
_PREFIX_BLOCK = 8192     # indices per block of the streamed B_k build


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
            arr = self._level_table
            if arr.size == 0:
                raise ValueError("table scheme needs at least one level")
            if not np.all(np.isfinite(arr)):
                raise ValueError("table levels must be finite")
            if np.any(arr <= 0.0):
                raise ValueError("table levels must be positive")
            if np.any(np.diff(arr) < 0.0):
                raise ValueError("table levels must be nondecreasing")
        elif self.family == "sqrt_n_polylog" and not abs(self.q) <= 20.0:
            # written so that a NaN exponent fails too
            raise ValueError("polylog exponent out of the supported range [-20, 20]")

    @cached_property
    def _level_table(self) -> np.ndarray:
        """``levels`` as a read-only float array, converted once: a table
        build calls ``c_levels`` block by block."""
        arr = np.asarray(self.levels, dtype=float)
        arr.setflags(write=False)
        return arr


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
        # out of range, q is rejected below; the floor search would not end at -inf
        n0 = _monotone_floor(-q) if -20.0 <= q < 0 else 1
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
        return scheme._level_table[m.astype(int) - 1]
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


# ---------------------------------------------------------------------------
# Gamma sequence
# ---------------------------------------------------------------------------


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


def _eigenvalue_floor_index(law: IncrementLaw, scheme: TruncationScheme, n_max: int) -> int:
    """Smallest n <= n_max with lambda_min(Gamma_n) = sqrt(a(c_n)) >= LAMBDA_FLOOR
    (isotropic laws).

    Scanned in blocks of 1, 2, 4, ... indices, so a floor met at n = 1
    costs one profile call and a floor never met about log2(n_max) calls.
    """
    lo, size = 1, 1
    while lo <= n_max:
        ks = np.arange(lo, min(lo + size, n_max + 1))
        a = radial_profile(law, c_levels(scheme, ks))
        ok = np.sqrt(np.maximum(a, 0.0)) >= LAMBDA_FLOOR
        if ok.any():
            return lo + int(np.argmax(ok))
        lo, size = lo + size, 2 * size
    raise NearSingularError(
        f"no index up to {n_max} reaches the eigenvalue floor "
        f"{LAMBDA_FLOOR} for {law_id(law)}"
    )


class GammaSequence:
    """Read-only cache of Gamma_n = psd_sqrt(A(c_{n v n0})^2) over 1..n_max.

    Exact per index through 10^4, geometric checkpoints (ratio 1.001, value
    held piecewise constant) beyond.  Construction runs the n0 rule, both
    jump diagnostics and the eigenvalue-floor check on the checkpoints, and
    keeps 1/lambda(Gamma_n) as spans: a first index and a value for each run
    of equal held values (one span for uniform_cube under ``sqrt_n``, at
    most one per checkpoint).  Self_normalized mode reads them through
    ``inv_apply`` and, for its pruning bound, ``inv_sup_from``, and needs no
    n_max-long table.  The feller denominators ``sqrt_feller_bn`` are the
    one table, built on first use; ``harness.build_normalizer`` builds it
    before any replication, so worker threads share it without locking.
    """

    def __init__(self, law: IncrementLaw, scheme: TruncationScheme, n_max: int):
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        self.law = law
        self.scheme = scheme
        self.n_max = int(n_max)

        # psi_k = k P{|X| > c_k} on the early window
        w = min(self.n_max, JUMP_WINDOW)
        ks = np.arange(1, w + 1)
        psi = ks * np.asarray(prob_tail(law, c_levels(scheme, ks)))
        self.n0 = self._default_n0(psi)
        self.jump_residual = float(psi[min(self.n0, w) - 1 :].max())
        ks = _jump_candidates(law, scheme, self.n_max)
        ks = ks[ks >= min(self.n0, self.n_max)]
        self.jump_horizon_sup = float(
            (ks * np.asarray(prob_tail(law, c_levels(scheme, ks)))).max()
        )

        ns = _checkpoint_indices(self.n_max)
        c = c_levels(scheme, np.maximum(ns, self.n0))
        # every catalogue law is isotropic: A(c)^2 = a(c) * I
        scale = np.sqrt(np.clip(np.asarray(radial_profile(law, c)), 0.0, None))
        bad = scale < LAMBDA_FLOOR * (1.0 - 1e-12)
        if bad.any():
            raise NearSingularError(
                f"Gamma_{int(ns[np.argmax(bad)])} has eigenvalue {scale[bad][0]:.3g} "
                f"below the floor {LAMBDA_FLOOR}; n0 = {self.n0} is misconfigured"
            )
        # each checkpoint's value is held up to the next checkpoint; a span
        # starts where the held value changes.  The first indices are a list
        # for bisect, which is several times faster than a scalar searchsorted
        inv = 1.0 / scale
        first = np.flatnonzero(np.r_[True, inv[1:] != inv[:-1]])
        self._span_start, self._span_inv = ns[first].tolist(), inv[first]
        # the largest value from each span on: the span's own value wherever
        # the values never rise, and still a bound where they do
        self._span_sup = np.maximum.accumulate(self._span_inv[::-1])[::-1]

    def _default_n0(self, psi: np.ndarray) -> int:
        n_eig = _eigenvalue_floor_index(self.law, self.scheme, self.n_max)
        # jump-visibility clause on the early window
        suffix = np.maximum.accumulate(psi[::-1])[::-1]
        ok = suffix <= JUMP_BUDGET
        if ok.any():
            return max(n_eig, int(np.argmax(ok)) + 1)
        return n_eig  # window clause unsatisfiable: eigenvalue clause decides

    def inv_at(self, k: int) -> float:
        """1/lambda(Gamma_k), the value of the span holding index k."""
        return float(self._span_inv[bisect_right(self._span_start, k) - 1])

    def inv_sup_from(self, k: int) -> float:
        """max of 1/lambda(Gamma_j) over k <= j <= n_max: ``inv_at(k)`` unless
        a later value is larger, which needs a scheme whose levels fall."""
        return float(self._span_sup[bisect_right(self._span_start, k) - 1])

    def _inv_over(self, ks: range) -> np.ndarray:
        """1/lambda(Gamma_k) for k in ``ks``, expanded from the spans it covers."""
        i = bisect_right(self._span_start, ks.start) - 1
        j = bisect_right(self._span_start, ks.stop - 1)
        ends = [ks.start, *self._span_start[i + 1 : j], ks.stop]
        return np.repeat(self._span_inv[i:j], np.diff(ends))

    def inv_apply(self, ks: range, rows: np.ndarray) -> np.ndarray:
        """Rows Gamma_k^{-1} x for the unit-step index range ``ks``; (m, d) -> (m, d).

        Gamma_k is a scalar multiple of the identity, so each column is scaled
        by the range's values, expanded from only the spans it covers (a
        broadcast over rows of length d is slower).  The same call scales a
        column of norms |x| to |Gamma_k^{-1} x|, given as an (m, 1) array:
        this is how the reducer uses it.
        """
        if not isinstance(ks, range) or ks.step != 1:
            raise ValueError("indices must be a unit-step range")
        if ks.start < 1 or ks.stop > self.n_max + 1:
            raise ValueError(f"indices outside 1..{self.n_max}")
        inv = self._inv_over(ks)
        rows = np.asarray(rows, dtype=float)
        out = np.empty_like(rows)
        for j in range(rows.shape[1]):
            np.multiply(rows[:, j], inv, out=out[:, j])
        return out

    @property
    def inv_scales(self) -> np.ndarray:
        """Read-only 1/lambda(Gamma_k) for k = 1..n_max, every span expanded;
        no run path builds it."""
        inv = self._inv_over(range(1, self.n_max + 1))
        inv.setflags(write=False)
        return inv

    @cached_property
    def sqrt_feller_bn(self) -> np.ndarray:
        """Read-only sqrt(B_k) for k = 1..n_max, the feller denominators.

        B_k comes from ``feller_bn_prefix``, whose levels floor at the
        scheme's n0, not at this sequence's ``n0``: a higher floor would
        change the statistic.  The root is taken in place, so the build
        holds one n_max-long array, and the elementwise root has the bits of
        the root of any slice.  Threads racing on the first access build
        identical arrays.
        """
        den = feller_bn_prefix(self.law, self.scheme, self.n_max)
        np.sqrt(den, out=den)
        den.setflags(write=False)
        return den


# ---------------------------------------------------------------------------
# Feller running variance
# ---------------------------------------------------------------------------


def feller_bn_prefix(law: IncrementLaw, scheme: TruncationScheme, n: int) -> np.ndarray:
    """B_1..B_n with B_k = sum_{j<=k} E[X^2 1{|X| <= c_{j v n0}}]; line only.

    Streamed into the one output array in blocks of _PREFIX_BLOCK indices:
    a block's levels, its profile, then its partial sums in place with the
    carried total added into its first term.  Levels and profile are
    elementwise, and the accumulate adds left to right, so that add is
    exactly the one a single np.cumsum over all n terms makes there: the
    result has its bits, and every temporary is block-sized.
    """
    if law.d != 1:
        raise ValueError("the Feller running variance is defined for d = 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty(n)
    carry = 0.0
    for lo in range(0, n, _PREFIX_BLOCK):
        part = out[lo : lo + _PREFIX_BLOCK]
        part[:] = radial_profile(law, c_levels(scheme, np.arange(lo + 1, lo + len(part) + 1)))
        part[0] += carry
        np.cumsum(part, out=part)
        carry = part[-1]
    return out


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
