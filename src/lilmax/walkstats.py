"""Streaming trajectory statistics for normalized random-walk maxima.

Every statistic is a small reducer over one scan, ``_scan``, which consumes
a trajectory once, in fixed-size blocks: partial sums within a block come
from a vectorized cumulative sum, and the running total carried across
blocks uses Neumaier-compensated summation so the drift at horizons up to
10^7 stays orders of magnitude below the statistic resolution.  For any
horizon that fits in a single block (n <= 32768) the streamed partial sums
are bit-identical to materializing the whole walk.

Each block is cumulatively summed once.  For d >= 2 the block total fed to
the carry is the cumsum's last row: numpy reduces a C-ordered (m, d) array
over axis 0 row by row, so that row has the bits of ``block.sum(axis=0)``
without a second strided pass.  A single column keeps ``block.sum``, whose
pairwise order differs.  Row norms go through ``_row_norm``, which adds the
squared columns in the order ``np.linalg.norm(x, axis=1)`` does (left to
right below d = 8) without its temporaries.  Output bytes therefore depend
on numpy's reduction order as well as its generator streams; tests pin
both assumptions.

Statistic modes
---------------
* ``classical``:        a_n * max_{1<=k<=n} |S_k| / sqrt(k)            - b_{d,n}
* ``self_normalized``:  a_n * max_{1<=k<=n} |Gamma_k^{-1} S_k|/sqrt(k) - b_{d,n}
* ``feller`` (d = 1):   a_n * max_{1<=k<=n} |S_k| / sqrt(B_k)          - b_{1,n}

with the max always over the full range k = 1..n: the index floor n0 acts
through the levels c_{k v n0} (every Gamma_k is invertible), not by
excluding early terms, which keeps the classical and self-normalized modes
exactly identical whenever Gamma_k is the identity.  Self_normalized floors
at ``GammaSequence.n0``; feller reads B_k from ``GammaSequence.feller_bn``,
which floors at the scheme's n0 (1 for ``sqrt_n``): a higher floor would
change the statistic.

The slower-growing supremum statistic over k >= n and the boundary-crossing
counter complete the set.  Ties in any argmax resolve to the smallest index
for replay determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .iterlog import iterlog, lil_sup_normalizer, normalizers
# radial_profile and c_levels stay imported: perfbench/tracing.py patches them here.
from .models import IncrementLaw, law_id, radial_profile, sample  # noqa: F401
from .psdmat import MAX_DIM
from .truncation import GammaSequence, c_levels, scheme_id  # noqa: F401

BLOCK = 32768

MODES = ("classical", "self_normalized", "feller")


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A replayable random walk: law + horizon + seed, or explicit increments."""

    law: IncrementLaw
    n: int
    seed: Optional[object] = None
    seed_label: str = ""
    increments: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("horizon must be >= 1")
        if (self.seed is None) == (self.increments is None):
            raise ValueError("exactly one of seed or increments must be given")
        if self.increments is not None:
            x = np.asarray(self.increments, dtype=float)
            if x.ndim != 2 or x.shape != (self.n, self.law.d):
                raise ValueError(f"increments must have shape ({self.n}, {self.law.d})")


def trajectory(law: IncrementLaw, n: int, seed) -> Trajectory:
    """Seeded trajectory; the same seed replays the same walk."""
    label = _seed_label(seed)
    return Trajectory(law=law, n=n, seed=seed, seed_label=label)


def from_increments(law: IncrementLaw, increments) -> Trajectory:
    """Deterministic trajectory from an explicit (n, d) increment array."""
    x = np.asarray(increments, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    return Trajectory(
        law=law, n=len(x), increments=x, seed_label="increments"
    )


def _seed_label(seed) -> str:
    if isinstance(seed, np.random.SeedSequence):
        key = ",".join(str(v) for v in seed.spawn_key)
        ent = seed.entropy
        return f"ss({ent};{key})" if key else f"ss({ent})"
    return str(seed)


def _scan(traj: Trajectory, lo: int = 1, hi: Optional[int] = None):
    """Yield (ks, S_rows) for the indices k in [lo, hi], block by block.

    Blocks are drawn in the horizon-fixed pattern whatever the window, so a
    seed replays the same walk; drawing stops once a block starts past hi.
    S_rows is a view of the block's one cumulative sum with the
    Neumaier-compensated total carried from earlier blocks added in place.
    """
    hi = traj.n if hi is None else hi
    rng = None if traj.increments is not None else np.random.default_rng(traj.seed)
    total = np.zeros(traj.law.d)
    comp = np.zeros(traj.law.d)
    for off in range(0, traj.n, BLOCK):
        if off >= hi:
            return
        m = min(BLOCK, traj.n - off)
        block = sample(traj.law, rng, m) if rng is not None else traj.increments[off : off + m]
        rows = np.cumsum(block, axis=0)
        block_sum = _block_sum(block, rows)
        del block  # only the cumsum buffer stays alive while the reducer runs
        if off + m >= lo:
            a, b = max(lo - off, 1), min(hi - off, m)
            s_rows = rows[a - 1 : b]
            # column by column: a broadcast over rows of length d is several times slower
            for j, c in enumerate(total + comp):
                s_rows[:, j] += c
            yield np.arange(off + a, off + b + 1), s_rows
        t = total + block_sum
        big = np.abs(total) >= np.abs(block_sum)
        comp += np.where(big, (total - t) + block_sum, (block_sum - t) + total)
        total = t


def _block_sum(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``block.sum(axis=0)`` bit for bit, given ``rows = np.cumsum(block, axis=0)``.

    numpy sums a C-ordered (m, d >= 2) array over axis 0 row by row, which is
    exactly the cumulative sum's last row.  A single column, or a block in
    any other layout, is summed pairwise instead, so it is summed again.
    """
    if block.shape[1] > 1 and block.flags.c_contiguous:
        return rows[-1].copy()
    return block.sum(axis=0)


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


def _running_max(traj: Trajectory, ratio, lo: int = 1, hi: Optional[int] = None):
    """(max, argmax k) of ratio(ks, S_rows) over k in [lo, hi]; ties go to the smallest k."""
    best = -np.inf
    best_k = lo
    for ks, s_rows in _scan(traj, lo, hi):
        ratios = ratio(ks, s_rows)
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best = float(ratios[i])
            best_k = int(ks[i])
    return best, best_k


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatRecord:
    """One evaluated statistic; rows of these serialize to the output CSV."""

    mode: str
    value: float
    n: int
    argmax_k: int
    d: int
    law: str
    scheme: str
    seed: str
    max_ratio: float
    horizon_cap: Optional[int] = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"statistic value is not finite: {self.value}")


@dataclass(frozen=True)
class CrossingRecord:
    """Boundary-crossing count over an index range."""

    count: int
    last_k: Optional[int]
    first_k: Optional[int]
    n_lo: int
    n_hi: int
    law: str
    seed: str


# ---------------------------------------------------------------------------
# the running-max statistics
# ---------------------------------------------------------------------------


def _check_gs(traj: Trajectory, gs: GammaSequence) -> None:
    if gs.law != traj.law:
        raise ValueError(
            f"normalizer sequence is for {law_id(gs.law)}, trajectory is {law_id(traj.law)}"
        )
    if gs.n_max < traj.n:
        raise ValueError(f"normalizer cache horizon {gs.n_max} < trajectory horizon {traj.n}")


def de_statistic(
    traj: Trajectory, gs: Optional[GammaSequence], mode: str
) -> StatRecord:
    """Centered running-max statistic a_n * max_k(ratio_k) - b_{d,n}.

    Single pass, memory bounded by the block size; ties in the argmax go to
    the smallest k.  ``gs`` may be None in classical mode, where no
    normalization is applied.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    d = traj.law.d
    if mode == "classical":
        if gs is not None:
            _check_gs(traj, gs)
    else:
        if gs is None:
            raise ValueError(f"mode {mode!r} requires a normalizer sequence")
        _check_gs(traj, gs)
        if mode == "feller":
            if d != 1:
                raise ValueError("feller mode is defined for d = 1")
            if gs.feller_bn[0] <= 0.0:
                raise ValueError("running variance is 0: truncation level below all mass")

    def ratio(ks, s_rows):
        if mode == "classical":
            return _row_norm(s_rows) / np.sqrt(ks)
        if mode == "self_normalized":
            return _row_norm(gs.inv_apply(ks, s_rows)) / np.sqrt(ks)
        return np.abs(s_rows[:, 0]) / np.sqrt(gs.feller_bn[ks[0] - 1 : ks[-1]])

    best, best_k = _running_max(traj, ratio)
    norm = normalizers(traj.n, d)
    return StatRecord(
        mode=mode,
        value=norm.a_n * best - norm.b_dn,
        n=traj.n,
        argmax_k=best_k,
        d=d,
        law=law_id(traj.law),
        scheme=scheme_id(gs.scheme) if gs is not None else "none",
        seed=traj.seed_label,
        max_ratio=best,
    )


def lil_sup_statistic(
    traj: Trajectory,
    gs: Optional[GammaSequence],
    n_start: int,
    horizon_cap: Optional[int] = None,
) -> StatRecord:
    """Centered slow-growth supremum over k in [n_start, cap].

    Evaluates 2LL(n) * (max_k |S_k| / (sqrt(2 k LLk) sigma_k) - 1) minus the
    slow centering 1.5 LLL(n) - LLLL(n) - log(3/sqrt(8)).  With gs given,
    sigma_k is the scalar scale of Gamma_k (d = 1); without it sigma_k = 1.
    The true statistic takes a supremum over all k >= n_start; the cap makes
    this a finite-horizon approximation and is recorded on the result rather
    than hidden.
    """
    if traj.law.d != 1:
        raise ValueError("the supremum statistic is defined for d = 1")
    cap = traj.n if horizon_cap is None else int(horizon_cap)
    if cap < n_start:
        raise ValueError(f"horizon cap {cap} is below the start index {n_start}")
    if cap > traj.n:
        raise ValueError(f"horizon cap {cap} exceeds the trajectory horizon {traj.n}")
    if n_start < 1:
        raise ValueError("start index must be >= 1")
    if gs is not None:
        _check_gs(traj, gs)

    def ratio(ks, s_rows):
        denom = np.sqrt(2.0 * ks * np.asarray(iterlog(ks, 2), dtype=float))
        if gs is not None:
            denom = denom / gs.inv_scale(ks)
        return np.abs(s_rows[:, 0]) / denom

    best, best_k = _running_max(traj, ratio, n_start, cap)
    norm = lil_sup_normalizer(n_start)
    return StatRecord(
        mode="lil_sup",
        value=norm.scale * (best - 1.0) - norm.center,
        n=n_start,
        argmax_k=best_k,
        d=1,
        law=law_id(traj.law),
        scheme=scheme_id(gs.scheme) if gs is not None else "unit",
        seed=traj.seed_label,
        max_ratio=best,
        horizon_cap=cap,
    )


def lil_crossings(
    traj: Trajectory,
    gs: Optional[GammaSequence],
    phi: Callable[[np.ndarray], np.ndarray],
    n_lo: int,
    n_hi: int,
) -> CrossingRecord:
    """Count indices k in [n_lo, n_hi] with |Gamma_k^{-1} S_k| > sqrt(k) phi(k).

    ``phi`` is evaluated vectorized; it must raise on indices where its
    square would be negative (the boundary family does).  With gs = None the
    normalization is the identity.
    """
    if n_lo < 3:
        raise ValueError("crossing range must start at n_lo >= 3")
    if n_hi < n_lo:
        raise ValueError("empty crossing range")
    if n_hi > traj.n:
        raise ValueError(f"range end {n_hi} exceeds trajectory horizon {traj.n}")
    if gs is not None:
        _check_gs(traj, gs)

    count = 0
    first_k: Optional[int] = None
    last_k: Optional[int] = None
    for ks, rows in _scan(traj, n_lo, n_hi):
        if gs is not None:
            rows = gs.inv_apply(ks, rows)
        bound = np.sqrt(ks) * np.asarray(phi(ks), dtype=float)
        idx = np.flatnonzero(_row_norm(rows) > bound)
        if idx.size:
            count += int(idx.size)
            if first_k is None:
                first_k = int(ks[idx[0]])
            last_k = int(ks[idx[-1]])

    return CrossingRecord(
        count=count,
        last_k=last_k,
        first_k=first_k,
        n_lo=n_lo,
        n_hi=n_hi,
        law=law_id(traj.law),
        seed=traj.seed_label,
    )
