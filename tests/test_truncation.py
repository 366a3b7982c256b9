"""Tests for truncation schemes, Gamma sequences, and validators.

Level formulas are pinned against the iterated-log oracle, the Feller
running variance against a 40-digit incomplete-gamma sum, and the Gamma
cache against the analytic truncated second moments it must reproduce.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilmax import models as M
from lilmax import truncation as T
from lilmax.iterlog import iterlog
from lilmax.psdmat import NearSingularError, SymPSD, loewner_leq

# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------


def test_sqrt_n_levels():
    s = T.sqrt_n()
    assert T.c_level(s, 100) == 10.0
    assert T.c_level(s, 1) == 1.0
    np.testing.assert_allclose(T.c_levels(s, [4, 9, 16]), [2.0, 3.0, 4.0])


def test_invll5_level_formula():
    s = T.sqrt_n_invLL5()
    for n in (10**3, 10**6, 10**9):
        want = math.sqrt(n) / float(iterlog(n, 2)) ** 5
        assert T.c_level(s, n) == pytest.approx(want, rel=1e-14)


def test_polylog_level_formula():
    s = T.sqrt_n_polylog(2.5)
    n = 10**5
    want = math.sqrt(n) * float(iterlog(n, 2)) ** 2.5
    assert T.c_level(s, n) == pytest.approx(want, rel=1e-14)
    # negative exponent is the historical p-family
    s2 = T.sqrt_n_polylog(-5.0)
    s3 = T.sqrt_n_invLL5()
    assert T.c_level(s2, 10**6) == pytest.approx(T.c_level(s3, 10**6), rel=1e-14)


def test_table_levels_and_bounds():
    s = T.table_scheme([1.0, 2.0, 3.0])
    assert T.c_level(s, 2) == 2.0
    with pytest.raises(ValueError):
        T.c_level(s, 5)
    with pytest.raises(ValueError):
        T.c_level(s, 0)


def test_scheme_validation():
    with pytest.raises(ValueError):
        T.TruncationScheme(family="cbrt_n")
    with pytest.raises(ValueError):
        T.table_scheme([])
    with pytest.raises(ValueError):
        T.table_scheme([2.0, 1.0])
    with pytest.raises(ValueError):
        T.table_scheme([-1.0, 2.0])
    # NaN compares False against everything, so the order and sign checks
    # alone would let it through
    for levels in ([math.nan, 1.0, 2.0], [1.0, math.nan], [math.inf], [1.0, 2.0, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            T.table_scheme(levels)
    with pytest.raises(ValueError):
        T.sqrt_n_polylog(25.0)
    # abs(nan) > 20 is False, so a range check alone would let it through
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="polylog exponent"):
            T.sqrt_n_polylog(q)
        with pytest.raises(ValueError, match="polylog exponent"):
            T.TruncationScheme(family="sqrt_n_polylog", q=q)
    with pytest.raises(ValueError):
        T.TruncationScheme(family="sqrt_n", n0=0)


def test_monotone_floor_seam():
    # the invLL5 dip closes at n = 308; the default floor lands exactly there
    assert T._monotone_floor(5.0) == 308
    s = T.sqrt_n_invLL5()
    assert s.n0 == 308
    c = T.c_levels(s, np.arange(1, 3000))
    assert np.all(np.diff(c) >= -1e-12)
    # without the repair floor the raw formula does dip past the release
    raw = T.TruncationScheme(family="sqrt_n_invLL5", n0=1)
    c_raw = T.c_levels(raw, np.arange(1, 3000))
    assert np.any(np.diff(c_raw) < 0)


@given(
    scheme=st.sampled_from(
        [T.sqrt_n(), T.sqrt_n_invLL5(), T.sqrt_n_polylog(1.5), T.sqrt_n_polylog(-2.0)]
    ),
    n=st.integers(1, 10**9),
    m=st.integers(1, 10**9),
)
@settings(max_examples=120, deadline=None)
def test_builtin_levels_nondecreasing(scheme, n, m):
    lo, hi = sorted((n, m))
    assert T.c_level(scheme, lo) <= T.c_level(scheme, hi) + 1e-12


# ---------------------------------------------------------------------------
# growth-window validator
# ---------------------------------------------------------------------------

GRID = np.unique(np.geomspace(16, 10**8, 60).astype(int)).astype(float)


def test_growth_window_sqrt_n():
    rep = T.validate_growth_window(T.sqrt_n(), GRID)
    assert rep.verdict == "PASS"
    assert rep.analytic
    assert max(abs(e) for e in rep.eps_hat) == 0.0


def test_growth_window_invll5():
    rep = T.validate_growth_window(T.sqrt_n_invLL5(), GRID)
    assert rep.verdict == "PASS"
    assert rep.analytic


def test_growth_window_linear_table_fails():
    full = np.arange(1, 4001, dtype=float)  # c_n = n
    grid = np.arange(16, 4000, dtype=float)
    rep = T.validate_growth_window(T.table_scheme(full.tolist()), grid)
    assert rep.verdict == "FAIL"
    assert not rep.analytic
    # eps_hat climbs toward 1 for c_n = n
    assert rep.eps_hat[-1] > 0.5


def test_growth_window_sqrt_table_passes():
    full = np.sqrt(np.arange(1, 4001, dtype=float))  # c_n = sqrt(n)
    grid = np.arange(16, 4000, dtype=float)
    rep = T.validate_growth_window(T.table_scheme(full.tolist()), grid)
    assert rep.verdict == "PASS"


def test_growth_window_grid_validation():
    with pytest.raises(ValueError):
        T.validate_growth_window(T.sqrt_n(), [8, 32, 64])
    with pytest.raises(ValueError):
        T.validate_growth_window(T.sqrt_n(), [64, 32])
    with pytest.raises(ValueError):
        T.validate_growth_window(T.sqrt_n(), [64])


# ---------------------------------------------------------------------------
# tail-condition validator
# ---------------------------------------------------------------------------

TAIL_GRID = np.geomspace(2.0, 1e60, 40)


def test_tail_condition_verdicts():
    assert T.validate_tail_condition(M.gaussian_iso(1), "small_o", TAIL_GRID).verdict == "PASS"
    lad = M.atom_ladder(0.5, 2, d=1)
    assert T.validate_tail_condition(lad, "small_o", TAIL_GRID).verdict == "FAIL"
    big = T.validate_tail_condition(lad, "big_O", TAIL_GRID)
    assert big.verdict == "PASS"
    fat = M.atom_ladder_fat(2, d=1, direction_mode="axes")
    assert T.validate_tail_condition(fat, "big_O", TAIL_GRID).verdict == "FAIL"


def test_tail_condition_ladder_limit_estimate():
    # tau(t) * LL(t) = c between rung scale effects; median on the tail ~ c
    lad = M.atom_ladder(0.5, 2, d=1)
    rep = T.validate_tail_condition(lad, "big_O", TAIL_GRID)
    assert rep.limit_estimate == pytest.approx(0.5, rel=0.35)


def test_small_o_implies_big_o_across_catalogue():
    laws = [
        M.gaussian_iso(1), M.rademacher_product(2), M.uniform_cube(3),
        M.atom_ladder(0.5, 2, d=1), M.atom_ladder_fat(2, d=2),
    ]
    for law in laws:
        small = T.validate_tail_condition(law, "small_o", TAIL_GRID).verdict
        big = T.validate_tail_condition(law, "big_O", TAIL_GRID).verdict
        if small == "PASS":
            assert big == "PASS"


def test_tail_condition_rejects_unknown_kind():
    with pytest.raises(ValueError):
        T.validate_tail_condition(M.gaussian_iso(1), "eq7", TAIL_GRID)


# ---------------------------------------------------------------------------
# Feller running variance
# ---------------------------------------------------------------------------


def test_feller_rademacher_closed_form():
    law = M.rademacher_product(1)
    assert T.feller_bn_prefix(law, T.sqrt_n(), 50)[-1] == 50.0
    np.testing.assert_array_equal(
        T.feller_bn_prefix(law, T.sqrt_n(), 5), np.arange(1.0, 6.0)
    )


def test_feller_gaussian_frozen_oracle():
    # sum of P(3/2, j/2), j = 1..4, from 40-digit mpmath
    got = T.feller_bn_prefix(M.gaussian_iso(1), T.sqrt_n(), 4)[-1]
    assert got == pytest.approx(1.9732520324077197859, rel=1e-14)


def test_feller_bn_floors_at_scheme_n0():
    # feller levels use the scheme's n0 (1 for sqrt_n), not GammaSequence.n0
    law = M.gaussian_iso(1)
    gs = T.GammaSequence(law, T.sqrt_n(), 100)
    assert gs.n0 == 12
    assert gs.sqrt_feller_bn[0] == math.sqrt(float(M.radial_profile(law, 1.0)))
    np.testing.assert_array_equal(
        gs.sqrt_feller_bn, np.sqrt(T.feller_bn_prefix(law, T.sqrt_n(), 100))
    )
    assert not gs.sqrt_feller_bn.flags.writeable
    assert gs.sqrt_feller_bn is gs.sqrt_feller_bn


FELLER_LAWS = [M.gaussian_iso(1), M.rademacher_product(1), M.uniform_cube(1),
               M.atom_ladder(0.5, 2, d=1), M.atom_ladder_fat(2, d=1)]
FELLER_SCHEMES = [T.sqrt_n(), T.sqrt_n(12), T.sqrt_n_invLL5(),
                  T.table_scheme(0.9 * np.sqrt(np.arange(1.0, 123458.0)) + 0.05)]


@pytest.mark.parametrize("law", FELLER_LAWS, ids=M.law_id)
@pytest.mark.parametrize("scheme", FELLER_SCHEMES, ids=T.scheme_id)
def test_streamed_feller_bn_matches_one_cumsum(law, scheme):
    # one index, a block and its edges, three blocks and a tail, and GAMMA_ORACLE's horizon
    for n in (1, 8191, 8192, 8193, 3 * 8192 + 17, 123457):
        want = np.cumsum(M.radial_profile(law, T.c_levels(scheme, np.arange(1, n + 1))))
        got = T.feller_bn_prefix(law, scheme, n)
        assert got.shape == (n,)
        assert np.all(got == want), n


def test_feller_bn_prefix_streams_in_bounded_memory():
    law = M.gaussian_iso(1)
    T.feller_bn_prefix(law, T.sqrt_n(), 10)  # loads scipy.special first
    tracemalloc.start()
    try:
        T.feller_bn_prefix(law, T.sqrt_n(), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 8 MB result and block-sized temporaries; one cumsum took 32 MB
    assert peak < 9_000_000, peak


def test_feller_empty_sum_and_dimension_gate():
    assert T.feller_bn_prefix(M.gaussian_iso(1), T.sqrt_n(), 0).shape == (0,)
    with pytest.raises(ValueError):
        T.feller_bn_prefix(M.gaussian_iso(2), T.sqrt_n(), 10)
    with pytest.raises(ValueError):
        T.feller_bn_prefix(M.gaussian_iso(2), T.sqrt_n(), 0)


# ---------------------------------------------------------------------------
# Gamma sequence
# ---------------------------------------------------------------------------


def test_default_n0_values():
    cases = [
        (M.gaussian_iso(1), 12),
        (M.gaussian_iso(2), 15),
        (M.gaussian_iso(3), 18),
        (M.uniform_cube(1), 3),
        (M.uniform_cube(2), 6),
        (M.uniform_cube(3), 8),
        (M.uniform_cube(4), 10),
        (M.uniform_cube(5), 12),
        (M.uniform_cube(6), 14),
        (M.uniform_cube(7), 16),
        (M.uniform_cube(8), 17),
        (M.rademacher_product(1), 1),
        (M.rademacher_product(2), 2),
        (M.atom_ladder(0.5, 2, d=1), 3),
    ]
    for law, want in cases:
        gs = T.GammaSequence(law, T.sqrt_n(), 10**5)
        assert gs.n0 == want, M.law_id(law)
        assert gs.jump_residual <= T.JUMP_BUDGET or law.family == "atom_ladder"
    assert T.GammaSequence(M.gaussian_iso(1), T.sqrt_n_invLL5(), 10**5).n0 == 1


def _scalar_eigenvalue_floor_index(law, scheme, n_max):
    """The eigenvalue clause as one profile call per index, the reference
    for the blocked scan."""
    for n in range(1, n_max + 1):
        a = float(M.radial_profile(law, T.c_level(scheme, n)))
        if math.sqrt(max(a, 0.0)) >= T.LAMBDA_FLOOR:
            return n
    return None


_CLAUSE_LAWS = [
    M.gaussian_iso(1), M.gaussian_iso(3), M.gaussian_iso(8),
    M.rademacher_product(1), M.rademacher_product(4), M.rademacher_product(8),
    M.uniform_cube(1), M.uniform_cube(2), M.uniform_cube(8),
    M.atom_ladder(0.5, 2, d=1), M.atom_ladder(0.5, 1, d=2, direction_mode="axes"),
    M.atom_ladder_fat(2, d=1), M.atom_ladder_fat(2, d=3),
]
_CLAUSE_SCHEMES = [
    T.sqrt_n(), T.sqrt_n(7), T.sqrt_n_invLL5(), T.sqrt_n_invLL5(1),
    T.sqrt_n_polylog(1.0), T.sqrt_n_polylog(-2.5), T.sqrt_n_polylog(-20.0, 1),
]


@pytest.mark.parametrize("law", _CLAUSE_LAWS, ids=M.law_id)
def test_eigenvalue_clause_matches_scalar_loop(law):
    n_max = 3000
    for scheme in _CLAUSE_SCHEMES:
        want = _scalar_eigenvalue_floor_index(law, scheme, n_max)
        if want is None:
            with pytest.raises(NearSingularError, match="no index up to 3000"):
                T._eigenvalue_floor_index(law, scheme, n_max)
        else:
            assert T._eigenvalue_floor_index(law, scheme, n_max) == want, T.scheme_id(scheme)


def test_eigenvalue_clause_scans_in_growing_blocks(monkeypatch):
    calls = []
    profile = T.radial_profile

    def counted(law, t):
        calls.append(np.size(t))
        return profile(law, t)

    monkeypatch.setattr(T, "radial_profile", counted)
    # a floor met at n = 1 costs one call of one index
    assert T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 10**5).n0 == 12
    assert calls[0] == 1
    # a floor never met: about log2(n) calls, not one per index
    n = 10**6
    for scheme in (T.table_scheme([0.01] * n), T.sqrt_n_polylog(-20.0)):
        calls.clear()
        with pytest.raises(NearSingularError, match=f"no index up to {n} reaches"):
            T.GammaSequence(M.gaussian_iso(1), scheme, n)
        assert len(calls) <= 40 and sum(calls) == n


def test_ladder_jump_bookkeeping():
    gs = T.GammaSequence(M.atom_ladder(0.5, 2, d=1), T.sqrt_n(), 10**6)
    # early window is clean from n0 = 3 on; the horizon sup documents the
    # genuine rung visibility the walk will feel near k ~ horizon
    assert gs.n0 == 3
    p_rung2_up = 0.5 * (1 / 2 - 1 / 3) / math.exp(2 * math.e**2)
    assert gs.jump_residual == pytest.approx(T.JUMP_WINDOW * p_rung2_up, rel=1e-6)
    assert gs.jump_residual < T.JUMP_BUDGET
    assert gs.jump_horizon_sup == pytest.approx(10**6 * p_rung2_up, rel=1e-6)
    assert gs.jump_horizon_sup > T.JUMP_BUDGET
    # n0 does not depend on the horizon (never floors past a rung crossing)
    gs_big = T.GammaSequence(M.atom_ladder(0.5, 2, d=1), T.sqrt_n(), 5 * 10**6)
    assert gs_big.n0 == 3
    # past the rung-2 crossing the sup is attained just below it
    assert gs_big.jump_horizon_sup == pytest.approx(
        math.exp(2 * math.e**2) * p_rung2_up, rel=1e-3
    )


def _gamma(gs, n: int) -> SymPSD:
    """Gamma_n rebuilt from the cached 1/lambda(Gamma_n)."""
    return SymPSD.from_array(np.eye(gs.law.d) / float(gs.inv_scales[n - 1]))


def test_rademacher_gamma_is_exact_identity():
    gs = T.GammaSequence(M.rademacher_product(2), T.sqrt_n(), 1000)
    assert np.array_equal(gs.inv_scales, np.ones(1000))
    rows = np.arange(10.0).reshape(5, 2)
    assert np.array_equal(gs.inv_apply(range(1, 6), rows), rows)
    assert np.array_equal(gs.inv_apply(range(996, 1001), rows), rows)


def test_gaussian_gamma_converges_to_identity():
    gs = T.GammaSequence(M.gaussian_iso(2), T.sqrt_n(), 10**5)
    np.testing.assert_allclose(_gamma(gs, 10**5).entries, np.eye(2), atol=1e-6)


def test_gamma_squared_reproduces_truncated_moment():
    for law in [M.gaussian_iso(1), M.uniform_cube(2), M.atom_ladder(0.5, 2, d=1)]:
        gs = T.GammaSequence(law, T.sqrt_n(), 20000)
        ns = T._checkpoint_indices(gs.n_max)
        for n in (1, 7, 100, 9999, 15000, 20000):
            held = ns[np.searchsorted(ns, n, side="right") - 1]
            c_eff = T.c_level(gs.scheme, max(int(held), gs.n0))
            want = M.radial_profile(law, c_eff) * np.eye(law.d)
            g = _gamma(gs, n).entries
            np.testing.assert_allclose(g @ g, want, atol=1e-9)


def test_gamma_loewner_monotone_along_cache():
    gs = T.GammaSequence(M.gaussian_iso(2), T.sqrt_n(), 15000)
    picks = [1, 2, 5, 17, 100, 2500, 9999, 10000, 12000, 15000]
    gammas = [_gamma(gs, n) for n in picks]
    for a, b in zip(gammas, gammas[1:]):
        assert loewner_leq(a, b)


def test_gamma_checkpoint_hold_and_exact_region():
    gs = T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 10**5)
    ns = T._checkpoint_indices(gs.n_max)
    above = ns[ns > T.EXACT_LIMIT]
    ratios = above[1:] / above[:-1]
    # integer rounding adds at most one index to the geometric step
    assert ratios.max() <= T.CHECKPOINT_RATIO + 1.0 / T.EXACT_LIMIT
    # held piecewise constant between checkpoints
    n = int(above[5])
    nxt = int(above[6])
    inv = gs.inv_scales
    if nxt - n > 1:
        assert inv[n] == inv[n - 1]
    # exact region: consecutive n past the n0 floor differ
    assert inv[49] != inv[50]
    # below the floor they are constant by the c_{n v n0} device
    assert inv[0] == inv[gs.n0 - 1]


def test_checkpointed_scale_close_to_dense():
    # at n ~ 1e5 the held value perturbs the normalizer far below 1e-4
    gs = T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 10**5)
    ks = np.linspace(10**4, 10**5, 500).astype(int)
    held = 1.0 / gs.inv_scales[ks - 1]
    exact = np.sqrt(np.asarray(M.radial_profile(M.gaussian_iso(1), T.c_levels(gs.scheme, np.maximum(ks, gs.n0)))))
    assert np.max(np.abs(held - exact)) < 1e-4


@pytest.mark.parametrize("n_max", [5000, 10000, 10001, 123457])
@pytest.mark.parametrize("law", [M.gaussian_iso(2), M.uniform_cube(1), M.atom_ladder()])
@pytest.mark.parametrize("scheme", [T.sqrt_n(), T.sqrt_n_invLL5()])
def test_inv_scales_dense_matches_checkpoint_lookup(n_max, law, scheme):
    gs = T.GammaSequence(law, scheme, n_max)
    checkpoints = T._checkpoint_indices(n_max)
    c = T.c_levels(scheme, np.maximum(checkpoints, gs.n0))
    scale = np.sqrt(np.clip(np.asarray(M.radial_profile(law, c)), 0.0, None))
    ns = np.arange(1, n_max + 1)
    idx = np.where(
        ns <= T.EXACT_LIMIT, ns - 1, np.searchsorted(checkpoints, ns, side="right") - 1
    )
    want = 1.0 / scale[idx]
    assert not gs.inv_scales.flags.writeable
    assert np.array_equal(gs.inv_scales, want)
    # a unit-step range scales each column by a slice of the same table
    rows = np.random.default_rng(n_max).standard_normal((n_max - 2, 2))
    assert np.array_equal(gs.inv_apply(range(3, n_max + 1), rows), rows * want[2:, None])
    for bad in (range(0, 5), range(n_max - 1, n_max + 2), range(1, 9, 2), [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            gs.inv_apply(bad, rows[:4])


@pytest.mark.parametrize(
    "law, scheme",
    [(M.gaussian_iso(1), T.sqrt_n_invLL5()), (M.gaussian_iso(2), T.sqrt_n()),
     (M.uniform_cube(2), T.sqrt_n()), (M.atom_ladder(), T.sqrt_n())],
)
def test_inv_at_and_inv_apply_read_the_spans(law, scheme):
    """Each index's scalar and each range's expansion of the spans agree with
    ``inv_scales``, which the dense test and GAMMA_ORACLE pin independently:
    every index, and ranges that start or stop on a span's first index, just
    past it, or on the exact region's edge."""
    n_max = 123457
    gs = T.GammaSequence(law, scheme, n_max)
    inv = gs.inv_scales
    assert np.array_equal([gs.inv_at(k) for k in range(1, n_max + 1)], inv)
    starts = np.flatnonzero(np.r_[True, inv[1:] != inv[:-1]]) + 1
    rng = np.random.default_rng(7)
    picks = rng.choice(starts, size=min(len(starts), 40), replace=False)
    edges = sorted({1, 2, T.EXACT_LIMIT, T.EXACT_LIMIT + 1, n_max, n_max + 1,
                    *picks.tolist(), *(picks + 1).tolist()})
    ones = np.ones((n_max, 2))
    for lo, hi in zip(edges, edges[1:]):
        for ks in (range(lo, hi), range(lo, lo + 1), range(1, hi)):
            want = np.repeat(inv[ks.start - 1 : ks.stop - 1, None], 2, axis=1)
            assert np.array_equal(gs.inv_apply(ks, ones[: len(ks)]), want)


def test_falling_levels_keep_their_inverse_scales():
    """With n0 = 1, sqrt_n_invLL5's level falls from about 3.6 at n = 16 to
    about 1.1 near n = 300, so 1/lambda rises there by about 2x.  Each index
    keeps its own 1/sqrt(a(c_{k v n0})), the rise included, and
    ``inv_sup_from(k)`` is the largest value from k on."""
    law, scheme, n_max = M.gaussian_iso(1), T.sqrt_n_invLL5(1), 2000
    gs = T.GammaSequence(law, scheme, n_max)
    ks = np.arange(1, n_max + 1)
    a = M.radial_profile(law, T.c_levels(scheme, np.maximum(ks, gs.n0)))
    inv = gs.inv_scales
    assert np.array_equal(inv, 1.0 / np.sqrt(a))
    assert inv[:400].max() > 1.9 * inv[15]
    sup = np.maximum.accumulate(inv[::-1])[::-1]
    assert np.array_equal([gs.inv_sup_from(k) for k in ks], sup)


# Frozen before GammaSequence was trimmed to what its callers read: n0, both
# jump diagnostics by repr, and SHA-256 of the bytes of ``inv_scales`` and (for
# d = 1) ``sqrt_feller_bn`` at n_max = 123457, past the exact region and not a
# checkpoint.
GAMMA_ORACLE = [
    (M.gaussian_iso(2), T.sqrt_n(), 15, "0.008296265552217491", "0.008296265552217491",
     "a74a5b85ee122fbae62b2c0756f40c200cef1f175e1f03d8bb92920badec6570",
     None),
    (M.gaussian_iso(2), T.sqrt_n_invLL5(), 1, "1329.3955047252089", "1818.1379797314942",
     "5fa2a68995871d68551b2ac3a42290a587bab67f6dd509739c55b77d0183c9ee",
     None),
    (M.uniform_cube(2), T.sqrt_n(), 6, "0.0", "0.0",
     "24468fc8264baec1cf25d4cda354108c80375aa4608f4e05e6f87471554dbe46",
     None),
    (M.uniform_cube(2), T.sqrt_n_invLL5(), 1, "1682.6422755072927", "1804.9893177815527",
     "2426b626307173066ad86ee7f5d27294ece8124269cff7067c2b521fd9e17a17",
     None),
    (M.atom_ladder(0.5, 2, d=1), T.sqrt_n(), 3, "0.00013035452800220837", "0.0039289987704025",
     "0019d7fea9f31d7566b7a1cc17f01e3d27f521b8464bb564d5d5fbcba457c597",
     "93578cbfb079bcc937ab63964796134eb8990f4ba9070834497896473e1d1a23"),
    (M.atom_ladder(0.5, 2, d=1), T.sqrt_n_invLL5(), 4094,
     "0.00013035452800220837", "0.0039289987704025",
     "0019d7fea9f31d7566b7a1cc17f01e3d27f521b8464bb564d5d5fbcba457c597",
     "e2a8b26f8171d63ac66b8a7dde35ad582fe069d4a17c963143012969bdfc5210"),
    (M.rademacher_product(1), T.sqrt_n(), 1, "0.0", "0.0",
     "24468fc8264baec1cf25d4cda354108c80375aa4608f4e05e6f87471554dbe46",
     "9fcf98f8a2f335f8e0ef0e8056937804ed9f754cdcc9b0f65db1f3eaa080fce3"),
    (M.rademacher_product(1), T.sqrt_n_invLL5(), 1, "0.0", "0.0",
     "24468fc8264baec1cf25d4cda354108c80375aa4608f4e05e6f87471554dbe46",
     "9fcf98f8a2f335f8e0ef0e8056937804ed9f754cdcc9b0f65db1f3eaa080fce3"),
]


@pytest.mark.parametrize(
    "law, scheme, n0, jump_residual, jump_horizon_sup, inv_sha, feller_sha", GAMMA_ORACLE
)
def test_gamma_sequence_frozen_oracle(
    law, scheme, n0, jump_residual, jump_horizon_sup, inv_sha, feller_sha
):
    gs = T.GammaSequence(law, scheme, 123457)
    assert gs.n0 == n0
    assert repr(gs.jump_residual) == jump_residual
    assert repr(gs.jump_horizon_sup) == jump_horizon_sup
    assert hashlib.sha256(gs.inv_scales.tobytes()).hexdigest() == inv_sha
    if feller_sha is not None:
        assert hashlib.sha256(gs.sqrt_feller_bn.tobytes()).hexdigest() == feller_sha


@pytest.mark.parametrize("d", range(1, 9))
@pytest.mark.parametrize("value", [0.0, -1e-11, 0.3, 1.0, 7.25e5])
def test_scaled_identity_matches_from_array(d, value):
    # _gamma builds Gamma_n = value * I through from_array, which must keep
    # every entry bit for bit (tiny negative values are within TOL_PSD)
    want = value * np.eye(d)
    got = SymPSD.from_array(want)
    assert got.d == d
    assert np.array_equal(got.entries.view(np.int64), want.view(np.int64))
    assert not got.entries.flags.writeable


def test_gamma_bounds_and_errors():
    gs = T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 100)
    with pytest.raises(ValueError):
        gs.inv_apply(range(0, 1), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        gs.inv_apply(range(101, 102), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 0)
    # the (LL n)^-5 level without its monotonicity floor dips below
    # rademacher d=2's |X| = sqrt(2) at n = 58, past the default n0 = 2, so
    # Gamma_58 is singular: loud failure
    raw = T.TruncationScheme(family="sqrt_n_invLL5", n0=1)
    with pytest.raises(NearSingularError, match="Gamma_58 has eigenvalue 0 "):
        T.GammaSequence(M.rademacher_product(2), raw, 1000)


# ---------------------------------------------------------------------------
# config mappings
# ---------------------------------------------------------------------------
