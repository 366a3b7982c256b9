"""Streaming trajectory statistics for normalized random-walk maxima.

The statistic is one reducer, ``_running_max``, over one scan, ``_scan``,
which consumes a trajectory once, in fixed-size blocks and yields each
block's offset with its partial sums.  Partial sums within a block come
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

The scan allocates nothing per block.  ``sample`` draws into a (BLOCK, d)
buffer and the cumulative sum goes to a second one; the pair is checked out
of a per-thread pool for the life of the scan and returned when it ends, so
replications reuse warm pages and two scans open in one thread never share
a buffer.  For d >= 2 the cumulative sum and the carry add run over adjacent
column pairs viewed as complex128 (an odd last column stays a float
column).  A complex add is two independent IEEE adds, and an accumulation
is sequential along axis 0 whatever the layout, so every partial sum keeps
the bits of ``np.cumsum(block, axis=0)`` plus the carry column by column;
pairing only lets the two columns' dependency chains overlap.

Statistic modes
---------------
* ``classical``:        a_n * max_{1<=k<=n} |S_k| / sqrt(k)            - b_{d,n}
* ``self_normalized``:  a_n * max_{1<=k<=n} |Gamma_k^{-1} S_k|/sqrt(k) - b_{d,n}
* ``feller`` (d = 1):   a_n * max_{1<=k<=n} |S_k| / sqrt(B_k)          - b_{1,n}

with the max always over the full range k = 1..n: the index floor n0 acts
through the levels c_{k v n0} (every Gamma_k is invertible), not by
excluding early terms, which keeps the classical and self-normalized modes
exactly identical whenever Gamma_k is the identity.  Self_normalized floors
at ``GammaSequence.n0``; feller divides by sqrt(B_k) from
``GammaSequence.sqrt_feller_bn``, whose levels floor at the scheme's n0 (1 for
``sqrt_n``): a higher floor would change the statistic.

Ties in the argmax resolve to the smallest index for replay determinism.

Denominators
------------
The reducer divides by a read-only table built once per horizon and read
as slice views: sqrt(k) from ``_sqrt_k(n)`` (cached by n, so a call without
a normalizer sequence needs nothing else) or sqrt(B_k) from
``GammaSequence.sqrt_feller_bn``.  Every catalogue law is isotropic, so
Gamma_k = lambda_k I and |Gamma_k^{-1} S_k| = |S_k| / lambda_k: the
reducer works on row norms in every mode.  Self-normalized mode scales a
chunk's norms, as one column, by ``GammaSequence.inv_apply`` with the
chunk's indices as a ``range``, which expands only the spans of
1/lambda_k that the range covers, and its pruning bound reads one span's
value through ``GammaSequence.inv_sup_from``.  Elementwise square roots and
products have the same bits however the arrays are sliced or expanded.
Each table is written once, in place, into its own 8n-byte output:
``_sqrt_k`` takes the root of a float ``arange`` in place, and sqrt(B_k) is
summed in blocks and rooted in place.  So every mode holds one n-long
table: sqrt(k) in classical and self-normalized mode, sqrt(B_k) in feller
mode.

Chunk pruning
-------------
Write fl for correctly rounded IEEE arithmetic, N_k = ``_row_norm``(S_k),
den_k for the denominator and inv_k for 1/lambda_k (1 outside
self-normalized mode, ``GammaSequence.inv_at(k)`` in it), and U_k for the
largest inv_j over j >= k (``GammaSequence.inv_sup_from(k)``, 1 outside
self-normalized mode).  Row k's ratio is fl(fl(N_k * inv_k) / den_k), the
product left out when inv_k is 1.  Each block is cut into chunks of
``CHUNK`` rows.  For a chunk whose first row is k = a + 1 (0-based a), let
T be the largest N_k in the chunk (every norm is computed anyway) and

    bound = fl(fl(T * U_{a+1}) / den_{a+1}).

The chunk is skipped when bound <= best so far; every other chunk is
evaluated with the same elementwise operations as a reducer that evaluates
every row, and the update stays a strict ``>``.  The skip is exact: fl is
monotone, every N_k <= T, every inv_k in the chunk is <= U_{a+1} and den_k
is nondecreasing (sqrt(k), and B_k is a sum of nonnegative terms), so every
ratio in the chunk is <= bound and none can beat the best.  U_{a+1} is
inv_{a+1} itself unless 1/lambda rises later, which needs levels that fall
(a family scheme whose n0 is set below its dip) or a rounding wobble in a
profile.  This holds in every mode and dimension, for subnormal and huge
norms alike.  A NaN bound compares false, so its chunk is evaluated.  Because argmaxes are taken per
chunk rather than per block, a walk with NaN partial sums (non-finite
increments) skips only the NaN's chunk where a per-block reducer skipped
its whole block; every finite walk gives the same (max_ratio, argmax_k) bit
for bit.  Tests check this against a reducer that evaluates every row,
including walks whose best row beats the running best by one ulp.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .iterlog import normalizers
# radial_profile and c_levels stay imported: perfbench/tracing.py patches them here.
from .models import IncrementLaw, law_id, radial_profile, sample  # noqa: F401
from .psdmat import MAX_DIM
from .truncation import GammaSequence, c_levels, scheme_id  # noqa: F401

BLOCK = 32768
CHUNK = 4096  # rows per pruning bound

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
    """Yield (off, S_rows) block by block, where row i of S_rows is S_{off+i+1}.

    S_rows is the block's one cumulative sum with the Neumaier-compensated
    total carried from earlier blocks added in place.  The draws and the
    sums go to a buffer pair checked out of this thread's pool for the life
    of the scan, so S_rows is valid only until the next block is drawn.
    """
    d = traj.law.d
    rng = None if traj.increments is not None else np.random.default_rng(traj.seed)
    total = np.zeros(d)
    comp = np.zeros(d)
    free = _buffers.free.setdefault(d, [])
    draws, sums = free.pop() if free else (np.empty((BLOCK, d)), np.empty((BLOCK, d)))
    try:
        for off in range(0, traj.n, BLOCK):
            m = min(BLOCK, traj.n - off)
            if rng is None:
                block = traj.increments[off : off + m]
            else:
                block = sample(traj.law, rng, m, out=draws[:m])
            rows = sums[:m]
            views = _column_pairs(rows)
            for src, dst in zip(_column_pairs(block), views):
                np.cumsum(src, axis=0, out=dst)
            block_sum = _block_sum(block, rows)
            # column by column: a broadcast over rows of length d is several times slower
            for dst, c in zip(views, _column_pairs((total + comp)[None, :])):
                for j, z in enumerate(c[0]):
                    dst[:, j] += z
            yield off, rows
            t = total + block_sum
            big = np.abs(total) >= np.abs(block_sum)
            comp += np.where(big, (total - t) + block_sum, (block_sum - t) + total)
            total = t
    finally:
        free.append((draws, sums))


class _BufferPool(threading.local):
    """This thread's free (draws, sums) pairs of (BLOCK, d) arrays, by d.  A
    scan pops a pair and pushes it back when it ends, so scans open at the
    same time in one thread never share one."""

    def __init__(self):
        self.free: dict[int, list] = {}


_buffers = _BufferPool()


def _column_pairs(x: np.ndarray) -> list:
    """Views that cover the columns of a float64 (m, d) array whose rows are
    contiguous: a lone column as itself, otherwise adjacent column pairs as
    one complex128 column each, plus an odd last column.

    A complex add is two independent IEEE adds, so a cumulative sum or an
    added constant over a paired view has the bits of the same operation
    column by column, while the two columns' dependency chains overlap.
    """
    d = x.shape[1]
    if d == 1:
        return [x]
    views = [x[:, : d - d % 2].view(np.complex128)]
    if d % 2:
        views.append(x[:, d - 1 :])
    return views


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


@lru_cache(maxsize=4)
def _sqrt_k(n: int) -> np.ndarray:
    """Read-only sqrt(k) for k = 1..n: the classical and self-normalized
    denominators, built once per horizon (the last four are kept)."""
    den = np.arange(1.0, n + 1.0)
    np.sqrt(den, out=den)
    den.setflags(write=False)
    return den


def _running_max(traj: Trajectory, den: np.ndarray, gs: Optional[GammaSequence] = None):
    """(max, argmax k) of |S_k| / lambda_k / den[k - 1] over k = 1..n, where
    Gamma_k = lambda_k I, and lambda_k = 1 when ``gs`` is None; ties go to the
    smallest k.

    A chunk whose bound cannot beat the best so far is skipped (see "Chunk
    pruning" above); every row of every other chunk is evaluated.
    """
    best = -np.inf
    best_k = 1
    for off, rows in _scan(traj):
        norms = _row_norm(rows)
        starts = range(0, len(rows), CHUNK)
        for c, top in zip(starts, np.maximum.reduceat(norms, starts).tolist()):
            a = off + c  # row c holds S_{a+1}
            if gs is not None:
                top *= gs.inv_sup_from(a + 1)
            if top / den[a] <= best:
                continue
            e = min(c + CHUNK, len(rows))
            num = norms[c:e]
            if gs is not None:
                num = gs.inv_apply(range(a + 1, off + e + 1), num[:, None])[:, 0]
            ratios = num / den[a : off + e]
            i = int(np.argmax(ratios))
            if ratios[i] > best:
                best = float(ratios[i])
                best_k = a + i + 1
        # drop this block's norms, and num, which may view them, before
        # _row_norm builds the next block's (a pruned block binds no num)
        norms = num = None
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
            if gs.sqrt_feller_bn[0] <= 0.0:
                raise ValueError("running variance is 0: truncation level below all mass")

    if mode == "feller":
        best, best_k = _running_max(traj, gs.sqrt_feller_bn)
    else:
        best, best_k = _running_max(
            traj, _sqrt_k(traj.n), gs if mode == "self_normalized" else None
        )
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
