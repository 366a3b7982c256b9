"""Streaming trajectory statistics for normalized random-walk maxima.

The statistic is a small reducer over one scan, ``_scan``, which consumes
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

Ties in the argmax resolve to the smallest index for replay determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .iterlog import normalizers
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
            # stored C-ordered float64: numpy sums other layouts in another order
            x = np.ascontiguousarray(self.increments, dtype=float)
            if x.ndim != 2 or x.shape != (self.n, self.law.d):
                raise ValueError(f"increments must have shape ({self.n}, {self.law.d})")
            object.__setattr__(self, "increments", x)


def trajectory(law: IncrementLaw, n: int, seed) -> Trajectory:
    """Seeded trajectory; the same seed replays the same walk."""
    label = _seed_label(seed)
    return Trajectory(law=law, n=n, seed=seed, seed_label=label)


def from_increments(law: IncrementLaw, increments) -> Trajectory:
    """Deterministic trajectory from an explicit (n, d) increment array."""
    x = np.asarray(increments)
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


def _scan(traj: Trajectory):
    """Yield (ks, S_rows) for k = 1..n, block by block.

    S_rows is the block's one cumulative sum with the Neumaier-compensated
    total carried from earlier blocks added in place.
    """
    rng = None if traj.increments is not None else np.random.default_rng(traj.seed)
    total = np.zeros(traj.law.d)
    comp = np.zeros(traj.law.d)
    for off in range(0, traj.n, BLOCK):
        m = min(BLOCK, traj.n - off)
        block = sample(traj.law, rng, m) if rng is not None else traj.increments[off : off + m]
        rows = np.cumsum(block, axis=0)
        block_sum = _block_sum(block, rows)
        del block  # only the cumsum buffer stays alive while the reducer runs
        # column by column: a broadcast over rows of length d is several times slower
        for j, c in enumerate(total + comp):
            rows[:, j] += c
        yield np.arange(off + 1, off + m + 1), rows
        t = total + block_sum
        big = np.abs(total) >= np.abs(block_sum)
        comp += np.where(big, (total - t) + block_sum, (block_sum - t) + total)
        total = t


def _block_sum(block: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``block.sum(axis=0)`` bit for bit, given ``rows = np.cumsum(block, axis=0)``.

    Every block is C-ordered (``Trajectory`` stores its increments so, and
    ``sample`` draws so), and numpy sums a C-ordered (m, d >= 2) array over
    axis 0 row by row, which is exactly the cumulative sum's last row.  A
    single column is summed pairwise instead, so it is summed again.
    """
    if block.shape[1] > 1:
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


def _running_max(traj: Trajectory, ratio):
    """(max, argmax k) of ratio(ks, S_rows) over k = 1..n; ties go to the smallest k."""
    best = -np.inf
    best_k = 1
    for ks, s_rows in _scan(traj):
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

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"statistic value is not finite: {self.value}")


# ---------------------------------------------------------------------------
# the running-max statistic
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
