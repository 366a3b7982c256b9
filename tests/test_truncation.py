"""Tests for truncation schemes, Gamma sequences, validators, and the split.

Level formulas are pinned against the iterated-log oracle, the Feller
running variance against a 40-digit incomplete-gamma sum, and the Gamma
cache against the analytic truncated second moments it must reproduce.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lilmax import models as M
from lilmax import truncation as T
from lilmax.iterlog import iterlog
from lilmax.psdmat import NearSingularError, loewner_leq

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
    with pytest.raises(ValueError):
        T.sqrt_n_polylog(25.0)
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
    assert T.feller_bn(law, T.sqrt_n(), 50) == 50.0
    np.testing.assert_array_equal(
        T.feller_bn_prefix(law, T.sqrt_n(), 5), np.arange(1.0, 6.0)
    )


def test_feller_gaussian_frozen_oracle():
    # sum of P(3/2, j/2), j = 1..4, from 40-digit mpmath
    got = T.feller_bn(M.gaussian_iso(1), T.sqrt_n(), 4)
    assert got == pytest.approx(1.9732520324077197859, rel=1e-14)


def test_feller_bn_floors_at_scheme_n0():
    # feller levels use the scheme's n0 (1 for sqrt_n), not GammaSequence.n0
    law = M.gaussian_iso(1)
    gs = T.GammaSequence(law, T.sqrt_n(), 100)
    assert gs.n0 == 12
    assert gs.feller_bn[0] == M.radial_profile(law, 1.0)
    np.testing.assert_array_equal(gs.feller_bn, T.feller_bn_prefix(law, T.sqrt_n(), 100))
    assert not gs.feller_bn.flags.writeable
    assert gs.feller_bn is gs.feller_bn


def test_feller_empty_sum_and_dimension_gate():
    assert T.feller_bn(M.gaussian_iso(1), T.sqrt_n(), 0) == 0.0
    with pytest.raises(ValueError):
        T.feller_bn(M.gaussian_iso(2), T.sqrt_n(), 10)
    with pytest.raises(ValueError):
        T.feller_bn(M.gaussian_iso(2), T.sqrt_n(), 0)


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
        (M.rademacher_product(1), 1),
        (M.rademacher_product(2), 2),
        (M.atom_ladder(0.5, 2, d=1), 3),
    ]
    for law, want in cases:
        gs = T.GammaSequence(law, T.sqrt_n(), 10**5)
        assert gs.n0 == want, M.law_id(law)
        assert gs.jump_residual <= T.JUMP_BUDGET or law.family == "atom_ladder"
    assert T.GammaSequence(M.gaussian_iso(1), T.sqrt_n_invLL5(), 10**5).n0 == 1


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


def test_rademacher_gamma_is_exact_identity():
    gs = T.GammaSequence(M.rademacher_product(2), T.sqrt_n(), 1000)
    for n in (1, 2, 3, 50, 1000):
        view = gs.gamma_at(n)
        np.testing.assert_array_equal(view.gamma.entries, np.eye(2))
        np.testing.assert_array_equal(view.gamma_inv.entries, np.eye(2))
        assert view.lambda_min == 1.0 == view.lambda_max


def test_gaussian_gamma_converges_to_identity():
    gs = T.GammaSequence(M.gaussian_iso(2), T.sqrt_n(), 10**5)
    view = gs.gamma_at(10**5)
    np.testing.assert_allclose(view.gamma.entries, np.eye(2), atol=1e-6)


def test_gamma_squared_reproduces_truncated_moment():
    for law in [M.gaussian_iso(1), M.uniform_cube(2), M.atom_ladder(0.5, 2, d=1)]:
        gs = T.GammaSequence(law, T.sqrt_n(), 20000)
        for n in (1, 7, 100, 9999, 15000, 20000):
            view = gs.gamma_at(n)
            c_eff = T.c_level(gs.scheme, max(n if n <= T.EXACT_LIMIT else gs._ns[gs._index_of(n)], gs.n0))
            want = M.truncated_second_moment(law, c_eff)
            got = view.gamma.entries @ view.gamma.entries
            np.testing.assert_allclose(got, want.entries, atol=1e-9)


def test_gamma_loewner_monotone_along_cache():
    gs = T.GammaSequence(M.gaussian_iso(2), T.sqrt_n(), 15000)
    picks = [1, 2, 5, 17, 100, 2500, 9999, 10000, 12000, 15000]
    views = [gs.gamma_at(n) for n in picks]
    for a, b in zip(views, views[1:]):
        assert loewner_leq(a.gamma, b.gamma)


def test_gamma_checkpoint_hold_and_exact_region():
    gs = T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 10**5)
    ns, _ = gs.checkpoint_view()
    above = ns[ns > T.EXACT_LIMIT]
    ratios = above[1:] / above[:-1]
    # integer rounding adds at most one index to the geometric step
    assert ratios.max() <= T.CHECKPOINT_RATIO + 1.0 / T.EXACT_LIMIT
    # held piecewise constant between checkpoints
    n = int(above[5])
    nxt = int(above[6])
    if nxt - n > 1:
        assert gs.gamma_at(n + 1).lambda_min == gs.gamma_at(n).lambda_min
    # exact region: consecutive n past the n0 floor differ
    assert gs.gamma_at(50).lambda_min != gs.gamma_at(51).lambda_min
    # below the floor they are constant by the c_{n v n0} device
    assert gs.gamma_at(1).lambda_min == gs.gamma_at(gs.n0).lambda_min


def test_checkpointed_scale_close_to_dense():
    # at n ~ 1e5 the held value perturbs the normalizer far below 1e-4
    gs = T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 10**5)
    ks = np.linspace(10**4, 10**5, 500).astype(int)
    held = 1.0 / gs.inv_scale(ks)
    exact = np.sqrt(np.asarray(M.radial_profile(M.gaussian_iso(1), T.c_levels(gs.scheme, np.maximum(ks, gs.n0)))))
    assert np.max(np.abs(held - exact)) < 1e-4


def test_inv_scale_matches_views():
    gs = T.GammaSequence(M.uniform_cube(1), T.sqrt_n(), 5000)
    ks = np.asarray([1, 2, 3, 10, 99, 4999])
    inv = gs.inv_scale(ks)
    for k, v in zip(ks, inv):
        assert v == pytest.approx(1.0 / gs.gamma_at(int(k)).lambda_min, rel=1e-12)


def test_gamma_bounds_and_errors():
    gs = T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 100)
    with pytest.raises(ValueError):
        gs.gamma_at(0)
    with pytest.raises(ValueError):
        gs.gamma_at(101)
    with pytest.raises(ValueError):
        gs.inv_scale([0])
    with pytest.raises(ValueError):
        T.GammaSequence(M.gaussian_iso(1), T.sqrt_n(), 0)
    # forcing n0 = 1 on rademacher d=2 leaves Gamma_1 singular: loud failure
    with pytest.raises(NearSingularError):
        T.GammaSequence(M.rademacher_product(2), T.sqrt_n(), 100, n0=1)


def test_empirical_overlay_close_to_analytic():
    law = M.gaussian_iso(2)
    rng = np.random.default_rng(31)
    sample = M.sample(law, rng, 200_000)
    gs_emp = T.GammaSequence(law, T.sqrt_n(), 1000, empirical_sample=sample)
    gs_ana = T.GammaSequence(law, T.sqrt_n(), 1000)
    assert gs_emp.empirical and not gs_emp.isotropic
    for n in (20, 100, 1000):
        e = gs_emp.gamma_at(n)
        a = gs_ana.gamma_at(n)
        np.testing.assert_allclose(e.gamma.entries, a.gamma.entries, atol=0.02)
        assert e.lambda_min == pytest.approx(a.lambda_min, abs=0.02)
    with pytest.raises(ValueError):
        gs_emp.inv_scale([10])
    with pytest.raises(ValueError):
        T.GammaSequence(law, T.sqrt_n(), 100, empirical_sample=sample[:, :1])


# ---------------------------------------------------------------------------
# triple split
# ---------------------------------------------------------------------------


def test_triple_split_examples():
    assert T.triple_split(0.0, 10) == "prime"
    n = 100
    hi = math.sqrt(n * float(iterlog(n, 2)))
    assert T.triple_split(hi, n) == "double_prime"  # boundary inclusive
    assert T.triple_split(2 * hi, n) == "triple_prime"
    lo = math.sqrt(n) / float(iterlog(n, 2)) ** 5
    assert T.triple_split(lo, n) == "prime"  # lower boundary inclusive
    assert T.triple_split(np.nextafter(lo, np.inf), n) == "double_prime"
    # vector input classifies by euclidean norm
    assert T.triple_split(np.asarray([3.0, 4.0]), 10**6) == "prime"


@given(n=st.integers(1, 10**9))
@settings(max_examples=200, deadline=None)
def test_split_thresholds_ordered(n):
    lo, hi = T.split_thresholds(n)
    assert 0 < lo <= hi


@given(n=st.integers(1, 10**7), r=st.floats(0, 1e6))
@settings(max_examples=200, deadline=None)
def test_split_is_a_partition(n, r):
    label = T.triple_split(r, n)
    lo, hi = T.split_thresholds(n)
    if r <= lo:
        assert label == "prime"
    elif r <= hi:
        assert label == "double_prime"
    else:
        assert label == "triple_prime"


def test_split_rejects_bad_index():
    with pytest.raises(ValueError):
        T.triple_split(1.0, 0)


# ---------------------------------------------------------------------------
# serialization round-trip
# ---------------------------------------------------------------------------


def test_scheme_mapping_roundtrip():
    schemes = [
        T.sqrt_n(), T.sqrt_n_invLL5(), T.sqrt_n_polylog(-2.5),
        T.table_scheme([1.5, 2.5, 3.5], n0=2),
    ]
    for s in schemes:
        assert T.scheme_from_mapping(T.scheme_to_mapping(s)) == s
    assert T.scheme_from_mapping({}) == T.sqrt_n()
    with pytest.raises(ValueError):
        T.scheme_from_mapping({"family": "exp_n"})
