"""Tests for the streaming trajectory statistics.

Frozen reference values were computed with mpmath at 40 digits from the
normalizer formulas; identity checks (mode identity, scaling covariance,
streaming vs two-pass) are asserted bit-exact because both sides share
every floating-point operation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilmax.iterlog import iterlog, lil_sup_normalizer, normalizers
from lilmax.models import gaussian_iso, rademacher_product, sample, uniform_cube
from lilmax.truncation import GammaSequence, feller_bn_prefix, sqrt_n, table_scheme
from lilmax.walkstats import (
    BLOCK,
    CrossingRecord,
    StatRecord,
    Trajectory,
    de_statistic,
    from_increments,
    lil_crossings,
    lil_sup_statistic,
    trajectory,
)

# mpmath 40-digit: b_{1,1} = 2 + 1/2 - log(sqrt(pi)) = 1.9276350570752999129
NEG_B_1_1 = -1.9276350570752998
# mpmath: sqrt(2) - b_{1,2}  (LL(2) floors to 1, so b_{1,2} = b_{1,1})
TOY_TWO_STEP = -0.5134214947022049
# mpmath: -2 LL(100) - 1.5 + 1 + log(3) - 1.5 log(2)
LIL_SUP_ZERO_100 = -3.4954677337876103


class _ScaledGamma:
    """Duck-typed stand-in whose Gamma_k is lam * identity for every k."""

    def __init__(self, law, n_max, lam=1.0):
        self.law = law
        self.n_max = n_max
        self.scheme = sqrt_n()
        self._lam = lam

    def inv_apply(self, ns, rows):
        return np.asarray(rows, dtype=float) / self._lam

    @property
    def feller_bn(self):
        return feller_bn_prefix(self.law, self.scheme, self.n_max)


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
        ratios = np.linalg.norm(gs.inv_apply(ks, s), axis=1) / np.sqrt(ks)
        gs_arg = gs
    i = int(np.argmax(ratios))
    norm = normalizers(n, 2)
    expected_value = norm.a_n * float(ratios[i]) - norm.b_dn

    rec = de_statistic(trajectory(law, n, seed), gs_arg, mode)
    assert rec.value == expected_value
    assert rec.argmax_k == i + 1
    assert rec.max_ratio == float(ratios[i])


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


# ---------------------------------------------------------------------------
# slow-growth supremum statistic
# ---------------------------------------------------------------------------


def test_lil_sup_zero_walk_frozen():
    law = gaussian_iso(1)
    traj = from_increments(law, np.zeros((100, 1)))
    rec = lil_sup_statistic(traj, None, 100)
    assert rec.value == pytest.approx(LIL_SUP_ZERO_100, abs=1e-12)
    assert rec.max_ratio == 0.0
    assert rec.mode == "lil_sup"
    assert rec.horizon_cap == 100
    assert rec.n == 100


def test_lil_sup_single_point_identity():
    """With cap = start the sup has one term; an increment placed to make
    the ratio exactly 1 isolates the centering constant."""
    law = gaussian_iso(1)
    k = 50
    x = np.zeros((k, 1))
    x[0, 0] = math.sqrt(2.0 * k * iterlog(k, 2))
    rec = lil_sup_statistic(from_increments(law, x), None, k, horizon_cap=k)
    assert rec.max_ratio == 1.0
    assert rec.argmax_k == k
    assert rec.value == -lil_sup_normalizer(k).center


def test_lil_sup_unit_sigma_matches_none():
    law = rademacher_product(1)
    gs = GammaSequence(law, sqrt_n(), 2000)
    traj = trajectory(law, 2000, 23)
    with_gs = lil_sup_statistic(traj, gs, 100, horizon_cap=2000)
    without = lil_sup_statistic(traj, None, 100, horizon_cap=2000)
    assert with_gs.value == without.value
    assert with_gs.argmax_k == without.argmax_k


def test_lil_sup_spans_blocks():
    law = gaussian_iso(1)
    n = BLOCK + 500
    x = np.zeros((n, 1))
    target = BLOCK + 100
    x[0, 0] = 2.0 * math.sqrt(2.0 * target * iterlog(target, 2))
    rec = lil_sup_statistic(from_increments(law, x), None, BLOCK + 50)
    # constant walk: ratio k -> |S|/sqrt(2 k LLk) is decreasing, so the
    # argmax is the first admissible index
    assert rec.argmax_k == BLOCK + 50
    assert rec.max_ratio > 1.0


def test_lil_sup_validation():
    law = gaussian_iso(1)
    traj = from_increments(law, np.zeros((100, 1)))
    with pytest.raises(ValueError, match="cap"):
        lil_sup_statistic(traj, None, 50, horizon_cap=40)
    with pytest.raises(ValueError, match="cap"):
        lil_sup_statistic(traj, None, 50, horizon_cap=200)
    with pytest.raises(ValueError, match="start"):
        lil_sup_statistic(traj, None, 0)
    with pytest.raises(ValueError, match="d = 1"):
        lil_sup_statistic(
            from_increments(gaussian_iso(2), np.zeros((10, 2))), None, 5
        )


# ---------------------------------------------------------------------------
# boundary crossings
# ---------------------------------------------------------------------------


def _unit_boundary(ks):
    return np.ones(np.shape(ks))


def test_crossings_zero_walk():
    law = gaussian_iso(1)
    traj = from_increments(law, np.zeros((50, 1)))
    rec = lil_crossings(traj, None, _unit_boundary, 3, 50)
    assert rec.count == 0
    assert rec.first_k is None and rec.last_k is None


def test_crossings_zero_boundary_counts_everything():
    law = gaussian_iso(1)
    traj = from_increments(law, np.ones((10, 1)))
    rec = lil_crossings(traj, None, lambda ks: np.zeros(np.shape(ks)), 3, 10)
    assert rec.count == 8
    assert rec.first_k == 3
    assert rec.last_k == 10


def test_crossings_strict_inequality_at_boundary():
    # |S_k| = 2 for all k; bound sqrt(k): crossing only at k = 3, and the
    # exact tie at k = 4 (2 > 2) must NOT count
    law = gaussian_iso(1)
    x = np.zeros((10, 1))
    x[0, 0] = 2.0
    rec = lil_crossings(traj := from_increments(law, x), None, _unit_boundary, 3, 10)
    assert rec.count == 1
    assert rec.first_k == 3 and rec.last_k == 3
    assert traj.n == 10


def test_crossings_span_blocks():
    law = gaussian_iso(1)
    n = BLOCK + 5
    traj = from_increments(law, np.ones((n, 1)))
    rec = lil_crossings(traj, None, _unit_boundary, BLOCK - 2, n)
    assert rec.count == 8
    assert rec.first_k == BLOCK - 2
    assert rec.last_k == n


def test_crossings_gamma_identity_matches_none():
    law = rademacher_product(1)
    gs = GammaSequence(law, sqrt_n(), 2000)
    traj = trajectory(law, 2000, 31)
    phi = lambda ks: np.sqrt(2.0 * np.asarray(iterlog(ks, 2), dtype=float))
    a = lil_crossings(traj, gs, phi, 3, 2000)
    b = lil_crossings(traj, None, phi, 3, 2000)
    assert a.count == b.count
    assert a.last_k == b.last_k


def test_crossings_validation():
    law = gaussian_iso(1)
    traj = from_increments(law, np.ones((20, 1)))
    with pytest.raises(ValueError, match="n_lo"):
        lil_crossings(traj, None, _unit_boundary, 2, 10)
    with pytest.raises(ValueError, match="empty"):
        lil_crossings(traj, None, _unit_boundary, 5, 4)
    with pytest.raises(ValueError, match="horizon"):
        lil_crossings(traj, None, _unit_boundary, 3, 21)


@given(seed=st.integers(0, 2**31), hi=st.integers(10, 400))
@settings(max_examples=30, deadline=None)
def test_crossings_count_bounded_by_range(seed, hi):
    law = rademacher_product(1)
    traj = trajectory(law, hi, seed)
    rec = lil_crossings(traj, None, _unit_boundary, 3, hi)
    assert 0 <= rec.count <= hi - 2
    if rec.count:
        assert 3 <= rec.first_k <= rec.last_k <= hi
    else:
        assert rec.first_k is None and rec.last_k is None
    huge = lil_crossings(traj, None, lambda ks: np.full(np.shape(ks), 1e9), 3, hi)
    assert huge.count == 0


def test_record_finiteness_guard():
    with pytest.raises(ValueError, match="finite"):
        StatRecord(
            mode="classical", value=float("nan"), n=1, argmax_k=1, d=1,
            law="x", scheme="none", seed="0", max_ratio=0.0,
        )
    rec = CrossingRecord(
        count=0, last_k=None, first_k=None, n_lo=3, n_hi=5, law="x", seed="0"
    )
    assert rec.count == 0


def test_crossings_critical_boundary_finite_window():
    """Frozen Monte Carlo oracle for boundary crossings on [1e3, 1e6].

    A boundary on the divergence side of the series test is crossed
    infinitely often in the limit, but this window covers only 0.70
    doubly-iterated-log units, so most walks never touch it here: a
    100-stream oracle run found 10 crossing walks for the critical
    exponent a=3 and 3 for the convergent a=5.  Three frozen child
    streams of master seed 880000 pin exact counts: stream 0 crosses
    the a=3 boundary 127 times yet never the a=5 one, stream 5 never
    crosses, and stream 24 crosses both with ordered counts.
    """
    from lilmax.limits import PhiFamily

    law = gaussian_iso(1)
    phi3 = PhiFamily(a=3, b=0, d=1)
    phi5 = PhiFamily(a=5, b=0, d=1)

    def count(r, phi):
        ss = np.random.SeedSequence(880000, spawn_key=(r,))
        rec = lil_crossings(trajectory(law, 1_000_000, ss), None, phi, 1000, 1_000_000)
        if rec.count:
            assert 1000 <= rec.first_k <= rec.last_k <= 1_000_000
        return rec.count

    assert count(0, phi3) == 127
    assert count(0, phi5) == 0
    assert count(5, phi3) == 0
    c3, c5 = count(24, phi3), count(24, phi5)
    assert c3 == 85850 and c5 == 48337
    assert c3 > c5 > 0
