"""Truncation-level schemes, normalizing-matrix sequences, and validators.

A truncation scheme assigns to each time index n a level c_n that grows like
sqrt(n) up to slowly varying corrections.  The normalizing matrices are the
PSD square roots of E[X X^T 1{|X| <= c_n}] = a(c_n) I.  Every catalogue law
is isotropic, so Gamma_n = lambda_n I with lambda_n = sqrt(a(c_n)), and no
run takes a matrix root; ``psdmat.psd_sqrt`` serves criterion 04.  Gamma_n
comes from the analytic law (population quantity), never from the sample:
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

The rule runs on the two passes that build the sequence.  The window clause
and both jump diagnostics read one tail pass over the jump candidates, whose
first entries are the window itself.  The eigenvalue clause reads one
profile pass over the checkpoints, each at its own level.  lambda_n is a
nondecreasing function of c_n, and every accepted level sequence is either a
nondecreasing table or a family that rises to n = 15, falls to one minimum
and rises again.  Past the per-index region (n > 10^4) lambda therefore
first meets the floor where the levels rise, so one more profile call over
the gap below the first checkpoint that meets it finds the exact index.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .iterlog import iterlog
from .models import (
    IncrementLaw, _prefix_sums, law_id, prob_tail, radial_profile, rung_radii,
    tail_llt_limit, tail_second_moment,
)
from .psdmat import NearSingularError

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
    """Level sequence c_n; ``n0`` floors the index (levels use n v n0).

    A table's levels are held once, as the bytes of a float64 array, so
    schemes compare and hash by value; ``_level_table`` reads them in place.
    """

    family: str
    q: float = 0.0
    levels: bytes = b""
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
            if np.any(arr[1:] < arr[:-1]):
                raise ValueError("table levels must be nondecreasing")
        elif self.family == "sqrt_n_polylog" and not abs(self.q) <= 20.0:
            # written so that a NaN exponent fails too
            raise ValueError("polylog exponent out of the supported range [-20, 20]")

    @cached_property
    def _level_table(self) -> np.ndarray:
        """The table's levels, a read-only float64 view of ``levels``."""
        return np.frombuffer(self.levels, dtype=np.float64)

    @property
    def n_levels(self) -> int:
        """The number of levels a table holds; 0 for the other families."""
        return self._level_table.size


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


def sqrt_n_polylog(q: float = 0.0, n0: Optional[int] = None) -> TruncationScheme:
    if n0 is None:
        # out of range, q is rejected below; the floor search would not end at -inf
        n0 = _monotone_floor(-q) if -20.0 <= q < 0 else 1
    return TruncationScheme(family="sqrt_n_polylog", q=float(q), n0=n0)


def table_scheme(levels=(), n0: int = 1) -> TruncationScheme:
    arr = np.asarray(levels, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("table levels must be a one-dimensional sequence")
    return TruncationScheme(family="table", levels=arr.tobytes(), n0=n0)


# Each family's constructor and its parameters, the keys a config's scheme
# section may set besides 'family'; the defaults are the constructor's.
SCHEME_FAMILIES = {
    "sqrt_n": (sqrt_n, ("n0",)),
    "sqrt_n_invLL5": (sqrt_n_invLL5, ("n0",)),
    "sqrt_n_polylog": (sqrt_n_polylog, ("q", "n0")),
    "table": (table_scheme, ("levels", "n0")),
}


def scheme_id(scheme: TruncationScheme) -> str:
    if scheme.family == "sqrt_n_polylog":
        return f"sqrt_n_polylog(q={scheme.q:g})-n0{scheme.n0}"
    if scheme.family == "table":
        return f"table[{scheme.n_levels}]-n0{scheme.n0}"
    return f"{scheme.family}-n0{scheme.n0}"


def c_levels(scheme: TruncationScheme, ns) -> np.ndarray:
    """Vectorized truncation levels c_{n v n0} for an array of indices."""
    ns = np.asarray(ns)
    if np.any(ns < 1):
        raise ValueError("indices must be >= 1")
    m = np.maximum(ns.astype(float), float(scheme.n0))
    if scheme.family == "table":
        if np.any(m > scheme.n_levels):
            raise ValueError(f"index beyond table length {scheme.n_levels}")
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

    Dense through JUMP_WINDOW, geometric past, plus the indices straddling
    each atom-rung crossing c_k = t_j, which is where psi peaks for ladder
    laws.  Sorted and unique, so the first min(n_max, JUMP_WINDOW) entries
    are exactly the early window 1, 2, ...
    """
    ks = list(range(1, min(n_max, JUMP_WINDOW) + 1))
    k = JUMP_WINDOW
    while k < n_max:
        k = max(k + 1, int(k * 1.01))
        ks.append(min(k, n_max))
    for t_j in rung_radii(law):
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


def _eigenvalues(law: IncrementLaw, scheme: TruncationScheme, ks) -> np.ndarray:
    """lambda(Gamma_k) = sqrt(a(c_{k v n0})) at the indices ``ks``; every
    catalogue law is isotropic, so Gamma_k = lambda(Gamma_k) * I."""
    return np.sqrt(np.clip(np.asarray(radial_profile(law, c_levels(scheme, ks))), 0.0, None))


class GammaSequence:
    """Read-only cache of Gamma_n = psd_sqrt(A(c_{n v n0})^2) over 1..n_max.

    Exact per index through 10^4, geometric checkpoints (ratio 1.001, value
    held piecewise constant) beyond.  Construction runs the n0 rule (see
    Index floors), both jump diagnostics and the eigenvalue-floor check on
    one profile pass over the checkpoints and one tail pass over the jump
    candidates, plus a profile call over one checkpoint gap when the floor
    is first met past 10^4 and one at c_{n0}, the value held below n0.  It
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

        # window clause on psi_k = k P{|X| > c_k}, whose first w entries are
        # the early window 1..w; when it cannot be met, the eigenvalue clause
        # alone decides
        ks = _jump_candidates(law, scheme, self.n_max)
        psi = ks * np.asarray(prob_tail(law, c_levels(scheme, ks)))
        w = min(self.n_max, JUMP_WINDOW)
        ok = np.maximum.accumulate(psi[w - 1 :: -1])[::-1] <= JUMP_BUDGET
        n_window = int(np.argmax(ok)) + 1 if ok.any() else 1

        # eigenvalue clause: the first index with lambda(Gamma_n) >= LAMBDA_FLOOR
        ns = _checkpoint_indices(self.n_max)
        lam = _eigenvalues(law, scheme, ns)
        met = np.flatnonzero(lam >= LAMBDA_FLOOR)
        if not met.size:
            raise NearSingularError(
                f"no index up to {self.n_max} reaches the eigenvalue floor "
                f"{LAMBDA_FLOOR} for {law_id(law)}"
            )
        n_eig = int(ns[met[0]])
        if n_eig > EXACT_LIMIT:
            # lambda first meets the floor where the levels rise (see Index
            # floors), so inside the gap after the previous checkpoint
            gap = np.arange(ns[met[0] - 1] + 1, n_eig)
            hit = np.flatnonzero(_eigenvalues(law, scheme, gap) >= LAMBDA_FLOOR)
            if hit.size:
                n_eig = int(gap[hit[0]])

        self.n0 = max(n_eig, n_window)
        self.jump_residual = float(psi[min(self.n0, w) - 1 : w].max())
        self.jump_horizon_sup = float(psi[ks >= self.n0].max())

        # the checkpoints below n0 hold lambda at c_{n0}
        if self.n0 > 1:
            lam[ns < self.n0] = _eigenvalues(law, scheme, np.asarray([self.n0]))
        bad = lam < LAMBDA_FLOOR * (1.0 - 1e-12)
        if bad.any():
            low = lam[bad][0]  # in the fewest digits, at least 3, that read below the floor
            shown = next(t for p in range(3, 18) if float(t := f"{low:.{p}g}") < LAMBDA_FLOOR)
            raise NearSingularError(
                f"Gamma_{int(ns[np.argmax(bad)])} has eigenvalue {shown} "
                f"below the floor {LAMBDA_FLOOR}; n0 = {self.n0} is misconfigured"
            )
        # each checkpoint's value is held up to the next checkpoint; a span
        # starts where the held value changes.  The first indices are a list
        # for bisect, which is several times faster than a scalar searchsorted
        inv = 1.0 / lam
        first = np.flatnonzero(np.r_[True, inv[1:] != inv[:-1]])
        self._span_start, self._span_inv = ns[first].tolist(), inv[first]
        # the largest value from each span on: the span's own value wherever
        # the values never rise, and still a bound where they do
        self._span_sup = np.maximum.accumulate(self._span_inv[::-1])[::-1]

    def inv_sup_from(self, k: int) -> float:
        """max of 1/lambda(Gamma_j) over k <= j <= n_max: 1/lambda(Gamma_k)
        unless a later value is larger, which needs a scheme whose levels fall."""
        return float(self._span_sup[bisect_right(self._span_start, k) - 1])

    def _inv_over(self, ks: range) -> np.ndarray:
        """1/lambda(Gamma_k) for k in ``ks``, expanded from the spans it covers."""
        i = bisect_right(self._span_start, ks.start) - 1
        j = bisect_right(self._span_start, ks.stop - 1)
        ends = [ks.start, *self._span_start[i + 1 : j], ks.stop]
        return np.repeat(self._span_inv[i:j], np.diff(ends))

    def inv_apply(self, ks: range, norms: np.ndarray) -> np.ndarray:
        """Norms |Gamma_k^{-1} x| = |x| / lambda(Gamma_k) for the unit-step
        index range ``ks``, given the 1-D array of norms |x|, one per index.

        Gamma_k is a scalar multiple of the identity, so this is ``norms``
        times the range's 1/lambda values, expanded from only the spans the
        range covers.
        """
        if not isinstance(ks, range) or ks.step != 1:
            raise ValueError("indices must be a unit-step range")
        if ks.start < 1 or ks.stop > self.n_max + 1:
            raise ValueError(f"indices outside 1..{self.n_max}")
        return norms * self._inv_over(ks)

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

    Each block of ``models._prefix_sums`` (levels, then profile, then its
    partial sums) is copied into the one output array, so the result has
    the bits of one np.cumsum over all n terms and every temporary is
    block-sized.
    """
    if law.d != 1:
        raise ValueError("the Feller running variance is defined for d = 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    out = np.empty(n)
    for lo, part in _prefix_sums(lambda ks: radial_profile(law, c_levels(scheme, ks)), n):
        out[lo : lo + len(part)] = part
    return out


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthWindowReport:
    eps_hat: tuple
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

    reported along the grid.  Built-in families carry exact analytic
    verdicts (their log ratio is a multiple of LLL(n), which grows slower
    than any (log n)^eps).  Only for tables does the numeric trend decide:
    the tail half of eps_hat and its ordinary least-squares slope against
    LL(n).
    """
    g = _validate_grid(n_grid, 16.0)
    c = c_levels(scheme, g)
    ratio = np.abs(np.log(c / np.sqrt(g)))
    lls = np.asarray(iterlog(g, 2), dtype=float)
    eps_hat = np.log(np.maximum(ratio, 1.0)) / lls

    if scheme.family in ("sqrt_n", "sqrt_n_invLL5", "sqrt_n_polylog"):
        verdict, analytic = "PASS", True
    else:
        analytic = False
        tail = eps_hat[len(eps_hat) // 2 :]
        x = lls[len(eps_hat) // 2 :]
        slope = float(np.polyfit(x, tail, 1)[0]) if len(tail) >= 2 else 0.0
        if float(tail.max()) < 0.05:
            verdict = "PASS"
        elif slope < -0.02 and tail[-1] < 0.8 * tail[0]:
            verdict = "PASS"
        elif float(tail.min()) > 0.15 and slope > -0.005:
            verdict = "FAIL"
        else:
            verdict = "INCONCLUSIVE"

    return GrowthWindowReport(
        eps_hat=tuple(float(v) for v in eps_hat),
        verdict=verdict,
        analytic=analytic,
    )


@dataclass(frozen=True)
class TailConditionReport:
    law: str
    limit_estimate: float
    verdict: str


def validate_tail_condition(law: IncrementLaw, which: str, t_grid) -> TailConditionReport:
    """Check the compound tail condition tau(t) * LL(t) -> 0 (small_o) or O(1) (big_O).

    The verdict is exact: small_o passes iff the law's ``tail_llt_limit`` is
    0 and big_O iff it is finite.  The limit estimate, the median of
    tau(t) * LL(t) over the grid's tail half, shows the trend that a
    finite-data diagnostic would see.
    """
    if which not in ("small_o", "big_O"):
        raise ValueError("which must be 'small_o' or 'big_O'")
    g = _validate_grid(t_grid, 1.0)
    vals = tail_second_moment(law, g) * iterlog(g, 2)
    limit = tail_llt_limit(law)
    held = limit == 0.0 if which == "small_o" else math.isfinite(limit)
    return TailConditionReport(
        law=law_id(law),
        limit_estimate=float(np.median(vals[len(vals) // 2 :])),
        verdict="PASS" if held else "FAIL",
    )
