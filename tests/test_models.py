"""Tests for the increment-law catalogue.

Analytic radial profiles are pinned against values computed independently
with 40-digit mpmath (regularized incomplete gamma for the gaussian family,
adaptive quadrature and plane geometry for the cube, inscribed-ball closed
forms for the cube in d = 3..8) and cross-checked by seeded Monte Carlo.
Ladder rung identities are exact by telescoping and asserted to the last bit.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilmax import models as M
from lilmax.iterlog import iterlog
from lilmax.walkstats import BLOCK

RELTOL = 5.0e-15

ALL_LAWS = [
    M.gaussian_iso(1),
    M.gaussian_iso(3),
    M.rademacher_product(1),
    M.rademacher_product(4),
    M.uniform_cube(1),
    M.uniform_cube(2),
    M.uniform_cube(5),
    M.atom_ladder(0.5, 2, d=1),
    M.atom_ladder(0.5, 1, d=2),
    M.atom_ladder_fat(2, d=3),
]


def law_strategy():
    return st.sampled_from(ALL_LAWS)


# ---------------------------------------------------------------------------
# frozen analytic values (40-digit mpmath oracles)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "d, t, want",
    [
        (1, 1.0, 0.19874804309879919757),
        (1, 2.5, 0.89993916688060504286),
        (2, 1.5, 0.31011350686350682418),
        (3, 2.0, 0.45058404864721976739),
        (5, 2.0, 0.22022259152428407907),
    ],
)
def test_gaussian_radial_profile_frozen(d, t, want):
    got = M.radial_profile(M.gaussian_iso(d), t)
    assert got == pytest.approx(want, rel=RELTOL)


@pytest.mark.parametrize(
    "d, t, want",
    [
        (1, 1.0, 0.31731050786291410283),
        (2, 1.7, 0.23574607655586354858),
        (3, 2.0, 0.26146412994911062220),
    ],
)
def test_gaussian_prob_tail_frozen(d, t, want):
    got = M.prob_tail(M.gaussian_iso(d), t)
    assert got == pytest.approx(want, rel=RELTOL)


def test_cube_profile_frozen():
    # d = 1 low branch: t^3 / (3 sqrt 3)
    assert M.radial_profile(M.uniform_cube(1), 1.0) == pytest.approx(
        0.19245008972987525484, rel=RELTOL
    )
    # d = 2 middle branch (sqrt 3 < t < sqrt 6), mpmath quadrature oracle
    assert M.radial_profile(M.uniform_cube(2), 2.0) == pytest.approx(
        0.83019107472355405248, rel=RELTOL
    )
    # d = 2 low branch: pi t^4 / 48
    assert M.radial_profile(M.uniform_cube(2), 1.1) == pytest.approx(
        math.pi * 1.1**4 / 48.0, rel=RELTOL
    )
    assert M.prob_tail(M.uniform_cube(2), 2.0) == pytest.approx(
        0.073583880411508320106, rel=RELTOL
    )
    # saturation at the diagonal
    assert M.radial_profile(M.uniform_cube(2), math.sqrt(6.0)) == 1.0
    assert M.prob_tail(M.uniform_cube(2), math.sqrt(6.0)) == 0.0


def test_cube_profile_continuity_at_breakpoints():
    for d in (1, 2):
        law = M.uniform_cube(d)
        for brk in (math.sqrt(3.0), math.sqrt(3.0 * d)):
            lo = M.radial_profile(law, brk * (1.0 - 1e-9))
            hi = M.radial_profile(law, brk * (1.0 + 1e-9))
            assert abs(hi - lo) < 1e-7


@pytest.mark.parametrize("d", range(3, 9))
def test_cube_profile_matches_inscribed_ball(d):
    # for t <= sqrt(3) the ball of radius t lies inside the cube, where the
    # density is the constant (2 sqrt 3)^-d: closed forms independent of the
    # recursive spline and Gauss-Legendre path.  In d = 3 both integrate the
    # closed d = 2 CDF, so they are checked down to t = 0.05.
    law = M.uniform_cube(d)
    t = np.linspace(0.05 if d == 3 else 1.0, math.sqrt(3.0), 41)
    vol = (2.0 * math.sqrt(3.0)) ** d
    a = 2.0 * math.pi ** (d / 2) * t ** (d + 2) / (d * (d + 2) * math.gamma(d / 2) * vol)
    tail = 1.0 - math.pi ** (d / 2) * t**d / (math.gamma(d / 2 + 1) * vol)
    rel = 1e-13 if d == 3 else 1e-6
    tail_abs = 1e-14 if d == 3 else 1e-7
    np.testing.assert_allclose(M.radial_profile(law, t), a, rtol=rel, atol=0)
    np.testing.assert_allclose(M.prob_tail(law, t), tail, rtol=0, atol=tail_abs)


@pytest.mark.parametrize("d", range(3, 9))
def test_cube_profile_does_not_depend_on_the_batch(d):
    # each radius's quadrature is reduced on its own: a matrix-vector product
    # let the batch around a radius move its last bits
    law = M.uniform_cube(d)
    radii = np.linspace(0.0, math.sqrt(3.0 * d), 997)
    for profile in (M.radial_profile, M.prob_tail):
        single = [profile(law, float(t)) for t in radii]
        assert np.array_equal(profile(law, radii), single)


def test_rademacher_step():
    law = M.rademacher_product(3)
    s = math.sqrt(3.0)
    assert M.radial_profile(law, s * 0.999) == 0.0
    assert M.radial_profile(law, s) == 1.0
    assert M.prob_tail(law, s * 0.999) == 1.0
    assert M.prob_tail(law, s) == 0.0
    assert M.tail_second_moment(law, s) == 3.0
    assert M.tail_second_moment(law, s * 1.001) == 0.0


# ---------------------------------------------------------------------------
# ladder rung identities (exact by telescoping)
# ---------------------------------------------------------------------------


def test_ladder_rung_identity_exact():
    law = M.atom_ladder(0.5, 2, d=1)
    for k in range(2, 6):
        t_k = math.exp(math.exp(k))
        tau = M.tail_second_moment(law, t_k)
        assert tau * k == 0.5
        assert iterlog(t_k, 2) == pytest.approx(k, rel=1e-12)


def test_fat_ladder_rungs_grow_like_sqrt_k():
    law = M.atom_ladder_fat(2, d=3)
    for k in range(2, 6):
        t_k = math.exp(math.exp(k))
        tau = M.tail_second_moment(law, t_k)
        assert tau * k == pytest.approx(math.sqrt(k), rel=1e-12)


def test_tail_profile_records():
    """tau(t) * LL(t), the product the tail condition reads, is c at the rungs."""
    law = M.atom_ladder(0.5, 2, d=1)
    grid = np.asarray([math.exp(math.exp(k)) for k in range(2, 6)])
    lls = iterlog(grid, 2)
    products = M.tail_second_moment(law, grid) * lls
    for k, ll, product in zip(range(2, 6), lls, products):
        assert product == pytest.approx(0.5, rel=1e-12)
        assert ll == pytest.approx(k, rel=1e-12)


@pytest.mark.parametrize(
    "law",
    [M.atom_ladder(0.5, 2, d=1), M.atom_ladder_fat(3, d=2)],
    ids=lambda law: law.family,
)
def test_rung_radii_are_the_sampled_rungs(law):
    """rung_radii lists the radii the sampler draws past its core: t_k =
    exp(exp(k)) from k0 to the last rung whose weight it keeps."""
    radii = M.rung_radii(law)
    assert np.array_equal(radii, M._ladder_data(law).levels)
    assert radii.tolist() == [math.exp(math.exp(k)) for k in range(law.k0, law.k0 + radii.size)]
    assert radii.size == len(M._ladder_data(law).weights) >= 2


@pytest.mark.parametrize(
    "law", [M.gaussian_iso(1), M.rademacher_product(2), M.uniform_cube(3)],
    ids=lambda law: law.family,
)
def test_rung_radii_empty_without_rungs(law):
    assert M.rung_radii(law).shape == (0,)


@pytest.mark.parametrize("k0", [710, 10**6])
@pytest.mark.parametrize("family", ["atom_ladder", "atom_ladder_fat"])
def test_ladder_past_the_last_double_rung_has_none(family, k0):
    # exp(k0) overflows from k0 = 710 on; every rung lies past the doubles
    law = M.atom_ladder(0.5, k0) if family == "atom_ladder" else M.atom_ladder_fat(k0)
    assert M.rung_radii(law).shape == (0,)
    profile = M.radial_profile(law, np.array([0.0, 0.5, 1.0, 10.0, 1e300]))
    assert np.all(np.isfinite(profile)) and profile[-1] < 1.0


def test_ladder_total_second_moment_is_dimension():
    for law in [M.atom_ladder(0.5, 2, d=1), M.atom_ladder_fat(2, d=2)]:
        # ideal ladder: truncation at +inf recovers the full variance budget
        big = 1.0e308
        assert M.tail_second_moment(law, 0.0) == pytest.approx(law.d, rel=1e-12)
        got = law.d * M.radial_profile(law, big) + M._ladder_tail_from(law, 6.0)
        assert got == pytest.approx(law.d, rel=1e-12)


def test_tail_matches_trace_identity_at_continuity_points():
    # away from atoms, tau(t) = trace(I - A(t)^2)
    for law in ALL_LAWS:
        for t in (0.37, 1.234, 2.9):
            tau = M.tail_second_moment(law, t)
            trace_gap = law.d * (1.0 - M.radial_profile(law, t))
            if law.family == "rademacher_product" and t < math.sqrt(law.d):
                continue  # atom sits at sqrt(d); below it both sides equal d anyway
            assert tau == pytest.approx(trace_gap, abs=1e-12)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@given(law=law_strategy(), t=st.floats(0.0, 50.0), s=st.floats(0.0, 50.0))
@settings(max_examples=150, deadline=None)
def test_profile_monotone_and_bounded(law, t, s):
    lo, hi = sorted((t, s))
    a_lo = M.radial_profile(law, lo)
    a_hi = M.radial_profile(law, hi)
    assert 0.0 <= a_lo <= a_hi <= 1.0 + 1e-12
    p_lo = M.prob_tail(law, lo)
    p_hi = M.prob_tail(law, hi)
    assert -1e-12 <= p_hi <= p_lo <= 1.0


def test_gaussian_profile_extreme_radii_regression():
    """Profile behaviour at both ends of the floating-point range.

    Pins two past defects.  The closed-form d = 1 profile lost monotonicity
    to cancellation at subnormal radii (returning 5e-324 at a smaller t than
    an exact zero), and the continued fraction behind the tail stalled
    without converging once t^2/2 passed ~9e15, where its per-iteration
    increment drops below one ulp.
    """
    law = M.gaussian_iso(1)
    lo = M.radial_profile(law, 2.225073858507e-311)
    hi = M.radial_profile(law, 1.4973435816496454e-182)
    assert 0.0 <= lo <= hi <= 1.0
    for d in (1, 2, 3):
        g = M.gaussian_iso(d)
        assert M.radial_profile(g, 1.0e60) == 1.0
        assert M.prob_tail(g, 1.0e60) == 0.0
    # radius whose squared half overflows to infinity
    assert M.radial_profile(law, 1.0e200) == 1.0
    assert M.prob_tail(law, 1.0e200) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "make", [M.gaussian_iso, M.rademacher_product, M.uniform_cube, M.atom_ladder, M.atom_ladder_fat]
)
def test_profiles_at_huge_radius_quiet(make, d):
    """Past ~1.3e154 the square of the radius overflows; every family still
    returns finite values, no tail mass and no overflow warning."""
    law = make(d=d)
    t = np.array([1.0, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile = M.radial_profile(law, t)
        tail = M.prob_tail(law, t)
        tau = M.tail_second_moment(law, t)
    assert np.all(np.isfinite(profile)) and np.all(profile <= 1.0)
    assert np.all(np.isfinite(tail)) and tail[1] == 0.0
    assert np.all(np.isfinite(tau)) and np.all(tau >= 0.0)


@given(law=law_strategy(), t=st.floats(0.0, 50.0))
@settings(max_examples=100, deadline=None)
def test_split_second_moment_conserves_variance(law, t):
    # inclusive both sides: truncated part + tail part >= d, with equality
    # except on an atom (which both sides then count once each)
    trunc = law.d * M.radial_profile(law, t)
    tail = M.tail_second_moment(law, t)
    total = trunc + tail
    assert total >= law.d - 1e-9
    atom_mass = trunc - law.d * M.radial_profile(law, np.nextafter(t, -np.inf) if t > 0 else 0.0)
    assert total <= law.d + atom_mass + 1e-9


@given(
    law=law_strategy(),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 40),
)
@settings(max_examples=60, deadline=None)
def test_sampler_deterministic_and_shaped(law, seed, size):
    x1 = M.sample(law, np.random.default_rng(seed), size)
    x2 = M.sample(law, np.random.default_rng(seed), size)
    assert x1.shape == (size, law.d)
    assert x1.dtype == np.float64
    np.testing.assert_array_equal(x1, x2)
    assert np.all(np.isfinite(x1))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("method", ["standard_normal", "random"])
def test_rng_fill_out_matches_allocating_draw(method, d):
    """Filling a preallocated (BLOCK, d) buffer with out= gives the same bits,
    and leaves the stream where the allocating draw leaves it."""
    shape = (BLOCK, d)
    fresh = np.random.default_rng(1608)
    reused = np.random.default_rng(1608)
    buf = np.empty(shape)
    for _ in range(2):
        want = getattr(fresh, method)(shape)
        got = getattr(reused, method)(out=buf)
        assert got is buf
        assert buf.tobytes() == want.tobytes()
    assert fresh.bit_generator.state == reused.bit_generator.state


# The expression each product family drew with before it could fill a buffer.
ALLOCATING_DRAWS = {
    "gaussian_iso": lambda rng, shape: rng.standard_normal(shape),
    "uniform_cube": lambda rng, shape: rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), shape),
    "rademacher_product": lambda rng, shape: rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0,
}


@pytest.mark.parametrize("family", sorted(ALLOCATING_DRAWS))
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [BLOCK, 1696])
def test_sample_into_buffer_matches_allocating_draw(family, d, m):
    """``sample(..., out=buf)`` returns ``buf`` holding the bytes of the
    allocating call, which are those of the family's one-expression draw, and
    leaves the generator in the same state; reusing a dirty buffer is fine."""
    law = M.IncrementLaw(family=family, d=d)
    rngs = [np.random.default_rng(4549 + m) for _ in range(3)]
    buf = np.full((m, d), np.nan)
    for _ in range(2):
        want = ALLOCATING_DRAWS[family](rngs[0], (m, d))
        fresh = M.sample(law, rngs[1], m)
        got = M.sample(law, rngs[2], m, out=buf)
        assert got is buf
        assert fresh.tobytes() == want.tobytes()
        assert got.tobytes() == want.tobytes()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state == rngs[2].bit_generator.state


@pytest.mark.parametrize("law", [M.atom_ladder(k0=1), M.atom_ladder_fat(k0=1, d=2)], ids=M.law_id)
def test_ladder_sample_into_buffer(law):
    rngs = [np.random.default_rng(7) for _ in range(2)]
    buf = np.empty((40000, law.d))
    want = M.sample(law, rngs[0], 40000)
    assert M.sample(law, rngs[1], 40000, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    with pytest.raises(ValueError, match="shape"):
        M.sample(law, rngs[1], 40001, out=buf)


# (law, draws with |X| above the core radius, sha256 of the float64 bytes) for
# seeds 0, 1, 2, each drawing 40000 then 1001 rows; k0 = 1 makes rungs occur.
LADDER_DIGESTS = [
    (M.atom_ladder(), 0,
     "edf78475eb0387d2039cfcf3fdd63d1d7cc4a7ab1d7531095ff4ec521e986f4a"),
    (M.atom_ladder(k0=1), 132,
     "3db0e90eae3f3d23e17381de91d4b738c068b8a66e67ac5f6b22e7227e286e3f"),
    (M.atom_ladder_fat(), 0,
     "5cff026f093335c221712158be3617ee41f3ac055a61136d64b2f7fafd133791"),
    (M.atom_ladder(d=2), 0,
     "18cbe5cdf711a67c96f8e936326bcf173311e2fbaaea8ae2423a226cf9c9e680"),
    (M.atom_ladder(k0=1, d=2), 131,
     "61f6044c37d22fb3b80c2fdebda6b2d861f6c76d6cb9b187a1f803d92b139d24"),
    (M.atom_ladder_fat(k0=1, d=2), 154,
     "b40047677a901a409bddad81102110d4aaea2eb6cb19cd2dccf7179709d5f3e5"),
]


@pytest.mark.parametrize(
    "law, rungs, digest",
    LADDER_DIGESTS,
    ids=lambda v: M.law_id(v) if isinstance(v, M.IncrementLaw) else "",
)
def test_ladder_sampler_frozen_bytes(law, rungs, digest):
    """Every draw, its order and its size are pinned: a changed ladder stream
    would move every CSV of a ladder experiment."""
    lad = M._ladder_data(law)
    h = hashlib.sha256()
    seen = 0
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        for size in (40000, 1001):
            x = M.sample(law, rng, size)
            assert x.shape == (size, law.d) and x.dtype == np.float64
            h.update(x.tobytes())
            seen += int((np.linalg.norm(x, axis=1) > lad.core_halfwidth).sum())
    assert seen == rungs
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# Monte Carlo consistency (seeded, coarse)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "law",
    [M.gaussian_iso(2), M.uniform_cube(3), M.rademacher_product(2)],
    ids=M.law_id,
)
def test_mc_unit_covariance(law):
    rng = np.random.default_rng(2024)
    x = M.sample(law, rng, 400_000)
    cov = x.T @ x / len(x)
    np.testing.assert_allclose(cov, np.eye(law.d), atol=0.01)
    np.testing.assert_allclose(x.mean(axis=0), 0.0, atol=0.01)


@pytest.mark.parametrize(
    "law, radii",
    [
        (M.gaussian_iso(2), (0.7, 1.4, 2.5)),
        (M.uniform_cube(4), (1.0, 2.0, 3.0)),
        (M.atom_ladder(0.5, 2, d=1), (0.4, 1.0, 1.4)),
        (M.atom_ladder_fat(2, d=2), (0.5, 0.9)),
    ],
    ids=lambda v: M.law_id(v) if isinstance(v, M.IncrementLaw) else "",
)
def test_mc_radial_profile(law, radii):
    rng = np.random.default_rng(99)
    x = M.sample(law, rng, 400_000)
    r = np.linalg.norm(x, axis=1)
    for t in radii:
        mc = float(np.mean(x[:, 0] ** 2 * (r <= t)))
        assert mc == pytest.approx(M.radial_profile(law, t), abs=8e-3)
        mc_tail = float(np.mean(r > t))
        assert mc_tail == pytest.approx(M.prob_tail(law, t), abs=5e-3)


def test_ladder_core_is_bounded_and_rungs_rare():
    law = M.atom_ladder(0.5, 2, d=1)
    lad = M._ladder_data(law)
    rng = np.random.default_rng(5)
    x = M.sample(law, rng, 200_000)
    r = np.abs(x[:, 0])
    # essentially every draw lands in the bounded core ...
    assert np.mean(r <= lad.core_halfwidth + 1e-12) > 1.0 - 1e-4
    # ... whose radius is uniform: E R^2 (core) = u^2/3 scaled by core share
    assert float(np.mean(r**2)) == pytest.approx(
        lad.core_halfwidth**2 / 3.0, rel=0.02
    )


# ---------------------------------------------------------------------------
# validation and identifiers
# ---------------------------------------------------------------------------


def test_law_validation_errors():
    with pytest.raises(ValueError):
        M.IncrementLaw(family="cauchy", d=1)
    with pytest.raises(ValueError):
        M.gaussian_iso(0)
    with pytest.raises(ValueError):
        M.gaussian_iso(9)
    with pytest.raises(ValueError):
        M.atom_ladder(c=0.0, k0=2)
    with pytest.raises(ValueError):
        M.atom_ladder(c=2.5, k0=2, d=1)  # c/k0 exhausts the variance budget
    with pytest.raises(ValueError):
        M.atom_ladder_fat(k0=1, d=1)  # core variance would vanish
    with pytest.raises(ValueError):
        M.atom_ladder(c=0.5, k0=0)
    with pytest.raises(ValueError):
        M.radial_profile(M.gaussian_iso(1), -1.0)
    with pytest.raises(ValueError):
        M.prob_tail(M.gaussian_iso(1), -0.5)


@pytest.mark.parametrize(
    "law",
    [
        M.gaussian_iso(2),
        M.rademacher_product(2),
        M.uniform_cube(2),
        M.atom_ladder(0.5, 2, d=1),
        M.atom_ladder_fat(2, d=3),
    ],
    ids=lambda law: law.family,
)
def test_negative_radius_rejected_by_every_profile(law):
    """Each family rejects a negative radius in all three profiles; the
    ladders and Rademacher once returned d or 1.0 from ``tail_second_moment``."""
    for fn in (M.radial_profile, M.prob_tail, M.tail_second_moment):
        with pytest.raises(ValueError, match="must be nonnegative"):
            fn(law, -1.0)
        with pytest.raises(ValueError, match="must be nonnegative"):
            fn(law, np.array([0.5, -1e-300]))
