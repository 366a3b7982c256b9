"""Tests for the streaming trajectory statistics.

Frozen reference values were computed with mpmath at 40 digits from the
normalizer formulas; identity checks (mode identity, scaling covariance,
streaming vs two-pass) are asserted bit-exact because both sides share
every floating-point operation.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilmax.iterlog import iterlog, normalizers
from lilmax.models import (
    atom_ladder,
    gaussian_iso,
    law_id,
    rademacher_product,
    sample,
    uniform_cube,
)
from lilmax.truncation import (
    GammaSequence,
    feller_bn_prefix,
    scheme_id,
    sqrt_n,
    sqrt_n_invLL5,
    table_scheme,
)
from lilmax import truncation, walkstats
from lilmax.walkstats import (
    BLOCK,
    StatRecord,
    Trajectory,
    de_statistic,
    from_increments,
    trajectory,
)

# mpmath 40-digit: b_{1,1} = 2 + 1/2 - log(sqrt(pi)) = 1.9276350570752999129
NEG_B_1_1 = -1.9276350570752998
# mpmath: sqrt(2) - b_{1,2}  (LL(2) floors to 1, so b_{1,2} = b_{1,1})
TOY_TWO_STEP = -0.5134214947022049


class _ScaledGamma:
    """Duck-typed stand-in whose Gamma_k is lam * identity for every k."""

    def __init__(self, law, n_max, lam=1.0):
        self.law = law
        self.n_max = n_max
        self.scheme = sqrt_n()
        self._lam = lam

    def inv_apply(self, ns, rows):
        return np.asarray(rows, dtype=float) / self._lam

    def inv_at(self, k):
        return 1.0 / self._lam

    inv_sup_from = inv_at

    @property
    def inv_scales(self):
        return np.full(self.n_max, 1.0 / self._lam)

    @property
    def sqrt_feller_bn(self):
        return np.sqrt(feller_bn_prefix(self.law, self.scheme, self.n_max))


# ---------------------------------------------------------------------------
# de_statistic: frozen toys
# ---------------------------------------------------------------------------


def test_zero_walk_classical_value():
    traj = from_increments(gaussian_iso(1), np.zeros((1, 1)))
    rec = de_statistic(traj, None, "classical")
    assert rec.value == pytest.approx(NEG_B_1_1, abs=1e-9)
    assert rec.argmax_k == 1
    assert rec.max_ratio == 0.0
    assert rec.mode == "classical"
    assert rec.scheme == "none"


def test_toy_two_step_value():
    traj = from_increments(gaussian_iso(1), np.array([[1.0], [0.0]]))
    rec = de_statistic(traj, None, "classical")
    # S_1 = 1, S_2 = 1: max(1, 1/sqrt(2)) = 1 at k = 1
    assert rec.max_ratio == 1.0
    assert rec.argmax_k == 1
    assert rec.value == pytest.approx(TOY_TWO_STEP, abs=1e-9)


def test_value_formula_consistency():
    law = gaussian_iso(2)
    traj = trajectory(law, 300, 7)
    gs = GammaSequence(law, sqrt_n(), 300)
    rec = de_statistic(traj, gs, "self_normalized")
    norm = normalizers(300, 2)
    assert rec.value == norm.a_n * rec.max_ratio - norm.b_dn
    assert 1 <= rec.argmax_k <= 300
    assert math.isfinite(rec.value)
    assert rec.d == 2 and rec.n == 300


# ---------------------------------------------------------------------------
# de_statistic: invariants
# ---------------------------------------------------------------------------


def test_normalizers_cached_per_horizon_and_dimension():
    """Replications of one experiment share one (a_n, b_dn) pair, computed
    once per (n, d) with the bits of the formulas."""
    for n, d in ((100_000, 2), (10**7, 1), (3, 8)):
        got = normalizers(n, d)
        assert normalizers(n, d) is got
        ll, lll = iterlog(n, 2), iterlog(n, 3)
        assert got.a_n == math.sqrt(2.0 * ll)
        assert got.b_dn == 2.0 * ll + 0.5 * d * lll - math.lgamma(0.5 * d)


@pytest.mark.parametrize("d", [1, 2])
def test_mode_identity_rademacher(d):
    """Gamma_k is the identity for rademacher + sqrt_n, so the two modes
    must agree bit for bit."""
    law = rademacher_product(d)
    gs = GammaSequence(law, sqrt_n(), 4000)
    traj = trajectory(law, 4000, 20260819 + d)
    a = de_statistic(traj, gs, "self_normalized")
    b = de_statistic(traj, gs, "classical")
    assert a.value == b.value
    assert a.argmax_k == b.argmax_k
    assert a.max_ratio == b.max_ratio


def test_scaling_covariance_power_of_two():
    law = rademacher_product(1)
    rng = np.random.default_rng(5)
    x = sample(law, rng, 2000)
    base = de_statistic(
        from_increments(law, x), _ScaledGamma(law, 2000, 1.0), "self_normalized"
    )
    lam = 2.0
    scaled = de_statistic(
        from_increments(law, lam * x),
        _ScaledGamma(law, 2000, lam),
        "self_normalized",
    )
    assert scaled.value == base.value
    assert scaled.argmax_k == base.argmax_k


def test_scaling_covariance_general():
    law = rademacher_product(1)
    rng = np.random.default_rng(6)
    x = sample(law, rng, 1500)
    base = de_statistic(
        from_increments(law, x), _ScaledGamma(law, 1500, 1.0), "self_normalized"
    )
    lam = 3.0
    scaled = de_statistic(
        from_increments(law, lam * x),
        _ScaledGamma(law, 1500, lam),
        "self_normalized",
    )
    assert scaled.value == pytest.approx(base.value, rel=1e-12)
    assert scaled.argmax_k == base.argmax_k


@pytest.mark.parametrize("mode", ["classical", "self_normalized"])
def test_streaming_matches_two_pass(mode):
    """One block covers n = 10^4, so streaming must equal a two-pass
    store-all reference exactly."""
    law = gaussian_iso(2)
    n = 10_000
    seed = 99
    rng = np.random.default_rng(seed)
    x = sample(law, rng, n)
    gs = GammaSequence(law, sqrt_n(), n)

    s = np.cumsum(x, axis=0)
    ks = np.arange(1, n + 1)
    if mode == "classical":
        ratios = np.linalg.norm(s, axis=1) / np.sqrt(ks)
        gs_arg = None
    else:
        ratios = np.linalg.norm(gs.inv_apply(range(1, n + 1), s), axis=1) / np.sqrt(ks)
        gs_arg = gs
    i = int(np.argmax(ratios))
    norm = normalizers(n, 2)
    expected_value = norm.a_n * float(ratios[i]) - norm.b_dn

    rec = de_statistic(trajectory(law, n, seed), gs_arg, mode)
    assert rec.value == expected_value
    assert rec.argmax_k == i + 1
    assert rec.max_ratio == float(ratios[i])


# Frozen (value, argmax_k, max_ratio).  At n = 2 * BLOCK + 10 the seeds put
# each argmax in the second block, so the carried first-block total feeds the
# winning partial sum.  The Neumaier compensation rounds away until it has
# built up over many blocks: the n = 10^6 walk has its argmax in block 11,
# where dropping the compensation moves all three fields.
MULTIBLOCK_ORACLE = [
    ("self_normalized", uniform_cube(2), 11, 1.0064026748921657, 63986, 3.1083016745538776, 2 * BLOCK + 10),
    ("self_normalized", gaussian_iso(3), 18, -0.9045618663103028, 53193, 2.5201623904156403, 2 * BLOCK + 10),
    ("classical", gaussian_iso(1), 1, 0.32622335036936434, 58735, 2.3093912197853905, 2 * BLOCK + 10),
    ("classical", gaussian_iso(8), 47, 1.3637418866082944, 41700, 3.8219829477060525, 2 * BLOCK + 10),
    ("classical", gaussian_iso(1), 9, 0.5203460500679604, 335033, 2.487118940384478, 10**6),
]


@pytest.mark.parametrize("mode,law,seed,value,argmax_k,max_ratio,n", MULTIBLOCK_ORACLE)
def test_multiblock_frozen_oracle(mode, law, seed, value, argmax_k, max_ratio, n):
    gs = GammaSequence(law, sqrt_n(), n) if mode == "self_normalized" else None
    rec = de_statistic(trajectory(law, n, seed), gs, mode)
    assert rec.argmax_k > BLOCK
    assert rec.value == value
    assert rec.argmax_k == argmax_k
    assert rec.max_ratio == max_ratio


# ---------------------------------------------------------------------------
# chunk pruning: bit for bit the reducer that evaluates every row
# ---------------------------------------------------------------------------


def _every_row(traj, gs, mode):
    """(max_ratio, argmax_k) with every row's ratio evaluated, block by block,
    from per-block index arrays and normalizers gathered independently of
    ``inv_apply`` and ``sqrt_feller_bn``."""
    best, best_k = -np.inf, 1
    bn = feller_bn_prefix(gs.law, gs.scheme, gs.n_max) if mode == "feller" else None
    for off, rows in walkstats._scan(traj):
        ks = np.arange(off + 1, off + len(rows) + 1)
        if mode == "classical":
            ratios = walkstats._row_norm(rows) / np.sqrt(ks)
        elif mode == "self_normalized":
            ratios = walkstats._row_norm(rows) * gs.inv_scales.take(ks - 1) / np.sqrt(ks)
        else:
            ratios = np.abs(rows[:, 0]) / np.sqrt(bn.take(ks - 1))
        i = int(np.argmax(ratios))
        if ratios[i] > best:
            best, best_k = float(ratios[i]), int(ks[i])
    return best, best_k


def _assert_matches_every_row(traj, mode, scheme=sqrt_n()):
    gs = None if mode == "classical" else GammaSequence(traj.law, scheme, traj.n)
    rec = de_statistic(traj, gs, mode)
    best, best_k = _every_row(traj, gs, mode)
    assert rec.argmax_k == best_k
    assert np.float64(rec.max_ratio).view(np.int64) == np.float64(best).view(np.int64)
    return rec


PRUNE_CASES = (
    [("classical", gaussian_iso(d)) for d in range(1, 9)]
    + [("self_normalized", gaussian_iso(d)) for d in range(1, 9)]
    + [("self_normalized", uniform_cube(d)) for d in range(1, 9)]
    + [("feller", gaussian_iso(1)), ("feller", uniform_cube(1))]
)


def _step_table(n: int, steps):
    """A table scheme over 1..n whose level is ``c`` from each (k, c) in ``steps`` on."""
    levels = np.empty(n)
    for k, c in steps:
        levels[k - 1 :] = c
    return table_scheme(levels)


# Self-normalized cases whose Gamma_k^{-1} has more than one span, or one
# span that is not 1.0.  The table's levels step at chunk and block edges:
# through 10^4 a span starts at its step; past it, at the first checkpoint at
# or after the step, and 7 * CHUNK = 28672 is a checkpoint at this horizon.
SPAN_CASES = (
    [("self_normalized", gaussian_iso(d), sqrt_n_invLL5()) for d in (1, 2)]
    + [("self_normalized", atom_ladder(0.5, d=d), sqrt_n()) for d in (1, 2)]
    + [
        ("self_normalized", gaussian_iso(2), _step_table(2 * BLOCK + 1234, [
            (1, 1.0), (walkstats.CHUNK, 1.25), (walkstats.CHUNK + 1, 1.5),
            (2 * walkstats.CHUNK + 1, 2.0), (7 * walkstats.CHUNK, 2.5),
            (7 * walkstats.CHUNK + 1, 3.0), (BLOCK + 1, 3.5), (2 * BLOCK + 1, 4.0),
        ]))
    ]
)


@pytest.mark.parametrize(
    "mode, law, scheme",
    [pytest.param(mode, law, sqrt_n(), id=f"{mode}-{law_id(law)}") for mode, law in PRUNE_CASES]
    + [
        pytest.param(mode, law, scheme, id=f"{mode}-{law_id(law)}-{scheme_id(scheme)}")
        for mode, law, scheme in SPAN_CASES
    ],
)
def test_pruned_reducer_matches_every_row(mode, law, scheme):
    for seed in (1, 2, 3):
        _assert_matches_every_row(trajectory(law, 2 * BLOCK + 1234, seed), mode, scheme)


@pytest.mark.parametrize(
    "mode, d", [("classical", 1), ("classical", 3), ("self_normalized", 2), ("feller", 1)]
)
def test_pruned_reducer_late_peak(mode, d):
    """A drift over one chunk of block 3 puts the max there, past chunks the
    bound skips; increments on a 2^-12 grid keep every partial sum exact."""
    law = gaussian_iso(d)
    n = 4 * BLOCK
    x = np.round(np.random.default_rng(40 + d).standard_normal((n, d)) * 4096.0) / 4096.0
    x[3 * BLOCK + 5 * walkstats.CHUNK : 3 * BLOCK + 6 * walkstats.CHUNK, 0] += 1.0
    rec = _assert_matches_every_row(from_increments(law, x), mode)
    assert rec.argmax_k > 3 * BLOCK + 5 * walkstats.CHUNK


@pytest.mark.parametrize(
    "mode, d", [("classical", 1), ("classical", 2), ("self_normalized", 2), ("feller", 1)]
)
@pytest.mark.parametrize("first", [64**2, 320**2])
def test_pruned_reducer_tie_across_chunk_boundary(mode, d, first):
    """S_K = sqrt(K) at K = 64^2 (end of the first chunk) or 320^2 (end of the
    first chunk of block 3), then S_{K+1} = fl(sqrt(K + 1)): both ratios are
    exactly 1, and the tie goes to K.  Rademacher with sqrt_n truncation has
    Gamma_k = I and B_k = k, so all three modes see the same ratios."""
    assert first % walkstats.CHUNK == 0
    law = rademacher_product(d)
    n = first + 3 * walkstats.CHUNK
    x = np.zeros((n, d))
    root = math.isqrt(first)
    x[first - 1, 0] = root
    x[first, 0] = math.sqrt(first + 1) - root
    rec = _assert_matches_every_row(from_increments(law, x), mode)
    assert rec.max_ratio == 1.0
    assert rec.argmax_k == first


@pytest.mark.parametrize(
    "mode, d",
    [
        ("classical", 2),
        ("classical", 8),
        ("self_normalized", 2),
        ("self_normalized", 3),
        ("self_normalized", 8),
        ("feller", 1),
    ],
)
def test_pruned_reducer_subnormal_squares(mode, d):
    """Increments near 1e-160 make every squared norm subnormal, where the
    relative rounding bounds behind the slack no longer hold."""
    law = gaussian_iso(d)
    for seed in (4, 5):
        x = 1e-160 * np.random.default_rng(seed).standard_normal((BLOCK + 5000, d))
        _assert_matches_every_row(from_increments(law, x), mode)


# Self-normalized walks where S_CHUNK = (s, 0) sets the first chunk's best and
# S_{CHUNK+1} = row follows it, its ratio one ulp above that best ("win") or
# equal to it ("tie").  Gamma_k^{-1} falls from about 1.8 to about 1.03 at
# k = CHUNK + 2, so the second chunk's bound must read the span of its first
# row.  Every row[0] - s is exact (Sterbenz), so S_{CHUNK+1} is row exactly.
# In the subnormal-squares walks the squared norms are 4096 m and 4097 m
# times 2^-1074, whose roots are the only ones near a ratio of sqrt(4097/4096).
ONE_ULP_WALKS = {
    "normal": {
        "win": ("0x1.746da67c5b834p-1", ("0x1.0a7d3da94ecdep-1", "0x1.043b27b61342fp-1")),
        "tie": ("0x1.746da67c5b835p-1", ("0x1.0a7d3da94ecdep-1", "0x1.043b27b61342fp-1")),
    },
    "subnormal_squares": {
        "win": ("0x1.bb67ae8584caap-531", ("0x1.48e07afd16a33p-531", "0x1.297b96fc5d484p-531")),
        "tie": ("0x1.0000000000000p-530", ("0x1.7bbf4e0796eddp-531", "0x1.5782e34b84a98p-531")),
    },
    "subnormal_norms": {
        "win": ("0x0.00e850236669fp-1022", ("0x0.00e85765ca818p-1022",)),
        "tie": ("0x0.00e85023666cbp-1022", ("0x0.00e85765ca818p-1022",)),
    },
    "above_2_480": {
        "win": ("0x1.443d5957d4f5fp+500", ("0x1.9a2c58beeba3dp+499", "0x1.f6615c1de266ap+499")),
        "tie": ("0x1.443d5957d4f60p+500", ("0x1.9a2c58beeba3dp+499", "0x1.f6615c1de266ap+499")),
    },
}


def _two_span_walk(s, row):
    """Increments putting S_CHUNK = (s, 0, ...) and S_{CHUNK+1} = ``row``,
    with Gamma_k^{-1} one value through k = CHUNK + 1 and a smaller one after."""
    c = walkstats.CHUNK
    law = gaussian_iso(len(row))
    n = 2 * c
    inc = np.zeros((n, len(row)))
    inc[c - 1, 0] = s
    inc[c] = row
    inc[c, 0] -= s
    levels = np.full(n, 1.5)
    levels[c + 1 :] = 3.0
    gs = GammaSequence(law, table_scheme(levels), n)
    assert gs.inv_at(c + 2) < gs.inv_at(c + 1) == gs.inv_at(1)
    return from_increments(law, inc), gs


@pytest.mark.parametrize("outcome", ["win", "tie"])
@pytest.mark.parametrize("walk", list(ONE_ULP_WALKS))
def test_pruned_reducer_one_ulp_from_the_best(monkeypatch, walk, outcome):
    """The bound of the second chunk is exactly its first row's ratio: one ulp
    above the best must be evaluated and win; equal to it must be skipped,
    and the tie goes to the earlier row.  Counting ``inv_apply`` calls shows
    which chunks were evaluated."""
    c = walkstats.CHUNK
    s, row = ONE_ULP_WALKS[walk][outcome]
    s, row = float.fromhex(s), [float.fromhex(h) for h in row]
    traj, gs = _two_span_walk(s, row)
    first = _every_row(from_increments(traj.law, traj.increments[:c]), gs, "self_normalized")
    starts = []
    inv_apply = GammaSequence.inv_apply

    def counted(self, ns, rows):
        starts.append(ns.start)
        return inv_apply(self, ns, rows)

    monkeypatch.setattr(GammaSequence, "inv_apply", counted)
    rec = de_statistic(traj, gs, "self_normalized")
    assert (rec.max_ratio, rec.argmax_k) == _every_row(traj, gs, "self_normalized")
    assert first[1] == c
    if outcome == "win":
        assert rec.max_ratio == np.nextafter(first[0], np.inf)
        assert rec.argmax_k == c + 1
        assert starts == [1, c + 1]
    else:
        assert (rec.max_ratio, rec.argmax_k) == first
        assert starts == [1]


def test_pruned_reducer_bound_covers_a_later_rise(monkeypatch):
    """A profile read at 4.5 - c, so that it falls where the level rises
    from 1.5 to 3.0 at k = CHUNK + 2, makes 1/lambda rise there from about
    1.03 to about 1.8 (no catalogue profile falls; a rounding wobble could).
    With S_k = (1, 0) from k = CHUNK on, the second chunk's first ratio is
    below the best but its second is above it: the bound must read the
    largest value from the chunk's first row on, so the chunk is evaluated
    and row CHUNK + 2 wins."""
    c = walkstats.CHUNK
    law = gaussian_iso(2)
    n = 2 * c
    inc = np.zeros((n, 2))
    inc[c - 1, 0] = 1.0
    levels = np.full(n, 1.5)
    levels[c + 1 :] = 3.0
    profile = truncation.radial_profile
    monkeypatch.setattr(
        truncation, "radial_profile", lambda law, t: profile(law, 4.5 - np.asarray(t))
    )
    gs = GammaSequence(law, table_scheme(levels), n)
    assert gs.inv_at(c + 2) > 1.5 * gs.inv_at(c + 1)
    traj = from_increments(law, inc)
    rec = de_statistic(traj, gs, "self_normalized")
    assert (rec.max_ratio, rec.argmax_k) == _every_row(traj, gs, "self_normalized")
    assert rec.argmax_k == c + 2


@pytest.mark.parametrize("first, argmax_k", [(32.0, 1), (128.0, walkstats.CHUNK + 1)])
def test_pruned_reducer_huge_norm_stays_finite(first, argmax_k):
    """|S_4097| = 1e154 has a finite square.  Its norm is scaled by
    Gamma^{-1} (about 1.8) after the root is taken, so no square overflows:
    the statistic is finite and matches the reducer that evaluates every
    row (scaling the row first made this walk's ratio infinite).  With
    S_1 = 1e154 / 32 the first row stays the best and the second chunk is
    skipped; with 1e154 / 128 the huge row is evaluated and wins."""
    law = gaussian_iso(2)
    n = 2 * walkstats.CHUNK
    inc = np.zeros((n, 2))
    inc[0, 0] = 1e154 / first
    inc[walkstats.CHUNK, 0] = 1e154 - 1e154 / first
    traj = from_increments(law, inc)
    gs = GammaSequence(law, table_scheme((1.5,) * n), n)
    rec = de_statistic(traj, gs, "self_normalized")
    assert math.isfinite(rec.max_ratio) and math.isfinite(rec.value)
    assert (rec.max_ratio, rec.argmax_k) == _every_row(traj, gs, "self_normalized")
    assert rec.argmax_k == argmax_k


def test_pruned_chunk_count_pinned(monkeypatch):
    """Pruning cannot silently switch off: on this walk the bound leaves
    exactly 9 of 25 chunks for ``inv_apply``, which runs once per evaluated
    chunk and receives its indices as a range."""
    starts = []
    inv_apply = GammaSequence.inv_apply

    def counted(self, ns, rows):
        starts.append(ns.start)
        return inv_apply(self, ns, rows)

    monkeypatch.setattr(GammaSequence, "inv_apply", counted)
    law = uniform_cube(2)
    n = 100_000
    rec = de_statistic(trajectory(law, n, 11), GammaSequence(law, sqrt_n(), n), "self_normalized")
    assert rec.argmax_k == 77284
    assert starts == [1 + c * walkstats.CHUNK for c in (0, 8, 9, 12, 13, 14, 15, 17, 18)]


@pytest.mark.parametrize("d", range(1, 9))
def test_row_norm_matches_linalg_norm_bitwise(d):
    """Pins numpy's order of adding squares in norm(axis=1): a numpy that
    changes it must fail here rather than move CSV bytes."""
    rng = np.random.default_rng(100 + d)
    x = rng.standard_normal((4097, d)) * np.exp(rng.uniform(-20.0, 20.0, (4097, d)))
    x[::7] = 0.0
    for arr in (x, np.asfortranarray(x)):
        got = walkstats._row_norm(arr)
        want = np.linalg.norm(arr, axis=1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("m", [BLOCK, 1001])
def test_block_sum_rule_matches_sum_bitwise(d, m):
    """Pins numpy's axis-0 reduction order for the carried block total of a
    C-ordered block, the only layout a scan sees."""
    block = np.random.default_rng(m + d).standard_normal((m, d))
    got = walkstats._block_sum(block, np.cumsum(block, axis=0))
    assert np.array_equal(got.view(np.int64), block.sum(axis=0).view(np.int64))


def _float_scan(x):
    """The scan column by column in float64: each block's ``np.cumsum(axis=0)``
    plus the Neumaier-compensated carry, and the largest compensation seen."""
    d = x.shape[1]
    total, comp, out, most = np.zeros(d), np.zeros(d), [], 0.0
    for off in range(0, len(x), BLOCK):
        block = x[off : off + BLOCK]
        rows = np.cumsum(block, axis=0)
        block_sum = block.sum(axis=0)
        for j, c in enumerate(total + comp):
            rows[:, j] += c
        out.append(rows)
        t = total + block_sum
        big = np.abs(total) >= np.abs(block_sum)
        comp += np.where(big, (total - t) + block_sum, (block_sum - t) + total)
        total = t
        most = max(most, float(np.abs(comp).max()))
    return np.concatenate(out), most


def _scanned(traj):
    return np.concatenate([rows.copy() for _, rows in walkstats._scan(traj)])


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1, 3 * BLOCK + 7])
def test_paired_scan_matches_float_path_bitwise(d, n):
    """Summing adjacent columns as complex128 keeps every partial sum's bits:
    on explicit increments of mixed magnitudes, whose carry compensation is
    nonzero past one block, and on a seeded walk, whose blocks are drawn into
    the pooled buffer."""
    rng = np.random.default_rng(1000 * d + n)
    x = rng.standard_normal((n, d)) * np.exp(rng.uniform(-30.0, 30.0, (n, d)))
    want, most = _float_scan(x)
    assert (most > 0.0) == (n > BLOCK)
    assert _scanned(from_increments(gaussian_iso(d), x)).tobytes() == want.tobytes()

    law = uniform_cube(d)
    draws = np.random.default_rng(d)
    x = np.concatenate(
        [sample(law, draws, min(BLOCK, n - off)) for off in range(0, n, BLOCK)]
    )
    assert _scanned(trajectory(law, n, d)).tobytes() == _float_scan(x)[0].tobytes()


def test_interleaved_scans_do_not_share_buffers():
    """Two scans open at once in one thread check out separate buffers, so
    stepping them in lockstep yields the rows each yields alone."""
    law = gaussian_iso(2)
    n = 2 * BLOCK + 5
    t1, t2 = trajectory(law, n, 1), trajectory(law, n, 2)
    alone1 = [(off, rows.copy()) for off, rows in walkstats._scan(t1)]
    alone2 = [(off, rows.copy()) for off, rows in walkstats._scan(t2)]
    steps = 0
    # rows are valid only until their scan's next block, so compare in the loop
    for ((o1, r1), (o2, r2)), (a1, w1), (a2, w2) in zip(
        zip(walkstats._scan(t1), walkstats._scan(t2)), alone1, alone2
    ):
        assert o1 == o2 == a1 == a2
        assert r1.tobytes() == w1.tobytes()
        assert r2.tobytes() == w2.tobytes()
        steps += 1
    assert steps == len(alone1) == len(alone2) == 3
    assert not np.array_equal(alone1[0][1], alone2[0][1])


def test_threads_scan_with_their_own_buffers():
    """Each thread draws into its own pooled buffers: with more threads than
    cores and frequent switches, every record equals the one-thread record."""
    law = uniform_cube(2)
    n = BLOCK + 10
    gs = GammaSequence(law, sqrt_n(), n)
    want = [de_statistic(trajectory(law, n, s), gs, "self_normalized") for s in range(8)]
    got = {}

    def work(t):
        for s in range(t, 8, 4):
            got[s] = de_statistic(trajectory(law, n, s), gs, "self_normalized")

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert [got[s] for s in range(8)] == want


def _warm_replication(mode):
    """Peak bytes traced by a warm seeded cube d = 2 replication at
    n = 10^5, and its record."""
    law = uniform_cube(2)
    n = 100_000
    gs = GammaSequence(law, sqrt_n(), n) if mode == "self_normalized" else None
    de_statistic(trajectory(law, n, 1), gs, mode)
    tracemalloc.start()
    try:
        rec = de_statistic(trajectory(law, n, 2), gs, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, (rec.max_ratio, rec.argmax_k)


# Gamma_k is the identity for the cube at sqrt_n, so both modes agree.
WARM_RECORD = (1.7354616515589454, 481)


def test_warm_replication_allocates_no_blocks():
    """Once a thread has scanned, a seeded d = 2 replication at n = 10^5
    reuses its pooled draw and cumsum buffers: what it traces is the
    reducer's per-block norms, not two fresh (BLOCK, 2) arrays per block
    (which took its peak to about 1.35 MB).  Each block's norms are freed
    before the next block's are built (856 KB while they outlived it)."""
    peak, rec = _warm_replication("self_normalized")
    assert peak < 720_000
    assert rec == WARM_RECORD


def test_classical_reducer_releases_each_block_norms():
    """In classical mode the chunk numerators are views of the block's
    norms; they too are dropped before the next block's norms are built
    (823 KB while the last view outlived its block, 1086 KB while the
    norms themselves did)."""
    peak, rec = _warm_replication("classical")
    assert peak < 720_000
    assert rec == WARM_RECORD


def test_sqrt_k_built_in_place():
    n = 10**6
    tracemalloc.start()
    try:
        den = walkstats._sqrt_k.__wrapped__(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 8 MB table alone; an integer arange and its root took 16 MB
    assert peak < 9_000_000, peak
    assert not den.flags.writeable
    assert np.array_equal(den, np.sqrt(np.arange(1, n + 1)))


def test_multiblock_carry_and_tie_break():
    """A ratio tie across a block boundary resolves to the smaller index,
    and the compensated carry keeps the second block's partial sums exact."""
    law = gaussian_iso(1)
    n = BLOCK + 2
    x = np.zeros((n, 1))
    x[0, 0] = 1.0
    x[BLOCK, 0] = math.sqrt(BLOCK + 1) - 1.0
    rec = de_statistic(from_increments(law, x), None, "classical")
    assert rec.max_ratio == 1.0
    assert rec.argmax_k == 1


def test_within_block_tie_break():
    # S_1 = 1 (ratio 1) and S_2 = sqrt(2) (ratio 1): tie goes to k = 1
    law = gaussian_iso(1)
    x = np.array([[1.0], [math.sqrt(2.0) - 1.0], [0.0]])
    rec = de_statistic(from_increments(law, x), None, "classical")
    assert rec.max_ratio == 1.0
    assert rec.argmax_k == 1


def test_monotone_horizon_max():
    law = gaussian_iso(1)
    rng = np.random.default_rng(11)
    x = sample(law, rng, 3000)
    prev = -np.inf
    for n in (10, 100, 1000, 3000):
        rec = de_statistic(from_increments(law, x[:n]), None, "classical")
        assert rec.max_ratio >= prev
        prev = rec.max_ratio


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_replay_determinism(seed):
    law = uniform_cube(1)
    a = de_statistic(trajectory(law, 500, seed), None, "classical")
    b = de_statistic(trajectory(law, 500, seed), None, "classical")
    assert a.value == b.value
    assert a.argmax_k == b.argmax_k
    assert a.seed == b.seed


# ---------------------------------------------------------------------------
# de_statistic: feller mode
# ---------------------------------------------------------------------------


def test_feller_equals_classical_for_unit_variance_steps():
    """Rademacher truncated at sqrt(k) keeps every step, so B_k = k and the
    feller ratio coincides with the classical one."""
    law = rademacher_product(1)
    gs = GammaSequence(law, sqrt_n(), 3000)
    traj = trajectory(law, 3000, 17)
    fe = de_statistic(traj, gs, "feller")
    cl = de_statistic(traj, gs, "classical")
    assert fe.value == cl.value
    assert fe.argmax_k == cl.argmax_k


def test_feller_across_blocks_matches_two_pass():
    """Past one block, feller mode equals |S_k| / sqrt(B_k) over the whole
    walk in one pass.  Increments sit on a 2^-12 grid, so every partial sum
    is exact and the streamed carry cannot differ from np.cumsum; the last
    5000 steps drift upward so the max lands in the second block."""
    law = gaussian_iso(1)
    n = BLOCK + 5000
    x = np.round(np.random.default_rng(1608).standard_normal((n, 1)) * 4096.0) / 4096.0
    x[BLOCK:] += 0.5
    gs = GammaSequence(law, sqrt_n(), n)
    rec = de_statistic(from_increments(law, x), gs, "feller")
    ratios = np.abs(np.cumsum(x[:, 0])) / np.sqrt(feller_bn_prefix(law, sqrt_n(), n))
    i = int(np.argmax(ratios))
    assert i >= BLOCK
    norm = normalizers(n, 1)
    assert rec.max_ratio == float(ratios[i])
    assert rec.argmax_k == i + 1
    assert rec.value == norm.a_n * float(ratios[i]) - norm.b_dn


def test_feller_zero_variance_rejected():
    law = rademacher_product(1)
    stub = _ScaledGamma(law, 10, 1.0)
    stub.scheme = table_scheme((0.5,) * 10)
    traj = from_increments(law, np.ones((10, 1)))
    with pytest.raises(ValueError, match="variance"):
        de_statistic(traj, stub, "feller")


def test_mode_and_gs_validation():
    law = gaussian_iso(2)
    traj = trajectory(law, 50, 1)
    gs = GammaSequence(law, sqrt_n(), 50)
    with pytest.raises(ValueError, match="mode"):
        de_statistic(traj, gs, "maximal")
    with pytest.raises(ValueError, match="d = 1"):
        de_statistic(traj, gs, "feller")
    with pytest.raises(ValueError, match="requires"):
        de_statistic(traj, None, "self_normalized")
    other = GammaSequence(rademacher_product(2), sqrt_n(), 50)
    with pytest.raises(ValueError, match="trajectory"):
        de_statistic(traj, other, "self_normalized")
    short = GammaSequence(law, sqrt_n(), 20)
    with pytest.raises(ValueError, match="horizon"):
        de_statistic(traj, short, "self_normalized")


def test_trajectory_validation():
    law = gaussian_iso(1)
    with pytest.raises(ValueError, match="horizon"):
        trajectory(law, 0, 1)
    with pytest.raises(ValueError, match="shape"):
        Trajectory(law=law, n=3, increments=np.zeros((2, 1)))
    with pytest.raises(ValueError, match="exactly one"):
        Trajectory(law=law, n=3)
    with pytest.raises(ValueError, match="exactly one"):
        Trajectory(law=law, n=2, seed=1, increments=np.zeros((2, 1)))


def test_from_increments_promotes_1d():
    law = gaussian_iso(1)
    traj = from_increments(law, [1.0, -1.0, 0.5])
    assert traj.increments.shape == (3, 1)
    assert traj.n == 3
    assert traj.seed_label == "increments"


@pytest.mark.parametrize("layout", ["list", "int", "fortran"])
def test_increments_stored_as_c_float(layout):
    """List, integer and Fortran-ordered increments give the record of the
    same values as a C-ordered float64 array, bit for bit, past one block."""
    law = gaussian_iso(3)
    n = 2 * BLOCK + 10
    rng = np.random.default_rng(35)
    if layout == "int":
        x = rng.integers(-3, 4, (n, 3))
        x[BLOCK + 100, 0] = 10**5
        ref = x.astype(float)
    else:
        ref = sample(law, rng, n)
        x = ref.tolist() if layout == "list" else np.asfortranarray(ref)
    want = de_statistic(from_increments(law, ref), None, "classical")
    assert want.argmax_k > BLOCK
    traj = Trajectory(law=law, n=n, increments=x, seed_label="increments")
    assert traj.increments.dtype == np.float64
    assert traj.increments.flags.c_contiguous
    for t in (traj, from_increments(law, x)):
        got = de_statistic(t, None, "classical")
        assert got.value == want.value
        assert got.argmax_k == want.argmax_k
        assert got.max_ratio == want.max_ratio


def test_record_finiteness_guard():
    with pytest.raises(ValueError, match="finite"):
        StatRecord(
            mode="classical", value=float("nan"), n=1, argmax_k=1, d=1,
            law="x", scheme="none", seed="0", max_ratio=0.0,
        )
