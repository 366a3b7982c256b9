"""Tests for limit laws, tail inequalities, and the series classifier.

Frozen constants were computed with mpmath at 40 digits.  The density
ratio is computed in closed form (a modified Bessel function); its oracle is
an adaptive scipy quadrature of the defining theta-integral, which shares no
code with the closed form under test.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad

from lilmax import limits
from lilmax.iterlog import iterlog
from lilmax.limits import (
    GumbelLaw,
    PhiFamily,
    aniso_chisq_density_ratio,
    chi_norm_tail,
    chi_tail_envelope,
    gaussian_norm_tail_bound,
    integral_test_classify,
    integral_test_partial_sums,
    integral_test_term,
)
from lilmax.models import _PREFIX_BLOCK, _prefix_sums

# mpmath 40-digit frozen values
Q_HALF3_AT_2 = 0.2614641299491106  # Q(3/2, 2), the d=3, t=2 tail
Q_2_AT_3125 = 0.18123985119655560  # Q(2, 3.125), the d=4, t=2.5 tail
FOLDED_1_5 = 0.13361440253771613  # 2 (1 - Phi(1.5))
RATIO_HALF_10 = 1.1756483560256725  # density ratio at sigma=0.5, z=10
TERM_AT_EE = 0.034330941799256099  # sqrt(2) e^{-1} e^{-e}
INV_E = 0.3678794411714423


def _ratio_oracle(sigma, z):
    """(2 sqrt(z) / (sigma sqrt(2 pi))) int_0^{pi/2} exp(-beta z sin^2(theta) / 2)
    dtheta, beta = sigma^-2 - 1, by adaptive quadrature."""
    half_beta_z = 0.5 * (1.0 / sigma**2 - 1.0) * z
    val, _ = scipy_quad(
        lambda th: math.exp(-half_beta_z * math.sin(th) ** 2),
        0.0,
        0.5 * math.pi,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return 2.0 * math.sqrt(z) / (sigma * math.sqrt(2.0 * math.pi)) * val


def _ratio(sigma, z):
    return float(aniso_chisq_density_ratio(sigma, np.array([z])).ratios[0])


def _h1(z):
    return math.exp(-0.5 * z) / math.sqrt(2.0 * math.pi * z)


# ---------------------------------------------------------------------------
# Gumbel family
# ---------------------------------------------------------------------------


def test_gumbel_cdf_at_zero():
    assert GumbelLaw().cdf(0.0) == pytest.approx(INV_E, rel=1e-15)


def test_gumbel_shift_is_translation():
    base = GumbelLaw()
    shifted = GumbelLaw(shift=-1.5)
    ys = np.linspace(-4, 6, 41)
    assert np.allclose(shifted.cdf(ys), base.cdf(ys + 1.5), rtol=0, atol=0)


@given(p=st.floats(1e-9, 1.0 - 1e-9))
@settings(max_examples=100, deadline=None)
def test_gumbel_quantile_roundtrip(p):
    law = GumbelLaw(shift=0.7)
    assert law.cdf(law.quantile(p)) == pytest.approx(p, abs=1e-12)


def test_gumbel_quantile_of_inv_e_is_shift():
    law = GumbelLaw(shift=2.25)
    assert law.quantile(INV_E) == pytest.approx(2.25, abs=1e-12)


def test_gumbel_monotone_and_limits():
    law = GumbelLaw()
    ys = np.linspace(-6, 8, 200)
    cs = law.cdf(ys)
    assert np.all(np.diff(cs) > 0)
    assert law.cdf(-50.0) == 0.0  # double underflow, the correct limit
    assert law.cdf(60.0) == 1.0


def test_gumbel_validation():
    with pytest.raises(ValueError):
        GumbelLaw(shift=float("nan"))
    with pytest.raises(ValueError, match="inside"):
        GumbelLaw().quantile(0.0)
    with pytest.raises(ValueError, match="inside"):
        GumbelLaw().quantile(1.0)


# ---------------------------------------------------------------------------
# boundary family
# ---------------------------------------------------------------------------


def test_phi_matches_manual_formula():
    phi = PhiFamily(a=3.0, b=-1.0, d=1)
    for t in (16.0, 1e3, 1e6):
        expect = math.sqrt(
            2.0 * iterlog(t, 2) + 3.0 * iterlog(t, 3) - 1.0 * iterlog(t, 4)
        )
        assert phi(t) == pytest.approx(expect, rel=1e-15)
    # one log chain takes the same steps as three iterlog calls, bit for bit
    ts = np.geomspace(1.0, 1e12, 1001)
    expect = 2.0 * iterlog(ts, 2) + phi.a * iterlog(ts, 3) + phi.b * iterlog(ts, 4)
    assert np.array_equal(phi.squared(ts), expect)


def test_phi_floor_region():
    # below the double-log release every iterated log is 1
    phi = PhiFamily(a=1.0, b=2.0, d=1)
    assert phi(1.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert phi(2.0) == phi(1.0)


def test_phi_negative_radicand_rejected():
    phi = PhiFamily(a=-3.0, b=0.0, d=1)
    with pytest.raises(ValueError, match="negative"):
        phi(20.0)
    with pytest.raises(ValueError, match="negative"):
        phi(np.array([1e6, 20.0]))


# LL(t) <= e, so LLL = LLLL = log(e) = 1.0 exactly, for t below e^(e^e)
_LLL_FLOOR_END = 3_814_280.0


def _phi_squared_four_logs(phi, t):
    return 2.0 * iterlog(t, 2) + phi.a * iterlog(t, 3) + phi.b * iterlog(t, 4)


@pytest.mark.parametrize("a", [-1.0, -0.0, 0.0, 0.5, 2.75])
@pytest.mark.parametrize("b", [-0.75, 0.0, 1.5])
def test_phi_squared_floor_shortcut_is_bit_exact(a, b):
    """squared() takes each floored log once; it must keep the bits of the
    four-log formula below e^(e^e), where the outer two logs are exactly
    1.0, across the switch and above it."""
    phi = PhiFamily(a=a, b=b, d=2)
    below = np.concatenate([np.arange(1.0, 5000.0), np.geomspace(5000.0, 3_814_279.0, 997)])
    straddling = np.arange(_LLL_FLOOR_END - 40.0, _LLL_FLOOR_END + 40.0, 0.25)
    above = np.geomspace(_LLL_FLOOR_END, 1e300, 1001)
    assert iterlog(_LLL_FLOOR_END - 1.0, 2) <= math.e < iterlog(_LLL_FLOOR_END, 2)
    for ts in (below, straddling, above):
        got = phi.squared(ts)
        assert got.tobytes() == _phi_squared_four_logs(phi, ts).tobytes()
    for t in (1.0, 2.5, 16.0, 1e6, _LLL_FLOOR_END - 1.0, _LLL_FLOOR_END, 1e9):
        for arg in (t, np.float64(t), np.array(t)):
            got = phi.squared(arg)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(_phi_squared_four_logs(phi, t)).tobytes()


def test_phi_squared_negative_message_unchanged():
    phi = PhiFamily(a=-10.0, b=0.0, d=1)
    msg = "phi^2 is negative at t = 1.0: a = -10.0, b = 0.0 are too negative there"
    for arg in (1.0, np.array([1.0, 3.0, 1e7])):
        with pytest.raises(ValueError) as exc:
            phi.squared(arg)
        assert str(exc.value) == msg


def test_phi_vectorized_and_validated():
    phi = PhiFamily(a=0.0, b=0.0, d=2)
    vals = phi(np.array([10.0, 1e4, 1e8]))
    assert vals.shape == (3,)
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(ValueError, match="1..8"):
        PhiFamily(a=0.0, b=0.0, d=0)
    with pytest.raises(ValueError, match="finite"):
        PhiFamily(a=float("inf"), b=0.0)
    assert "a=1" in PhiFamily(a=1, b=0).label()


# ---------------------------------------------------------------------------
# chi-norm tails
# ---------------------------------------------------------------------------


def test_chi_tail_frozen_values():
    assert chi_norm_tail(3, 2.0) == pytest.approx(Q_HALF3_AT_2, abs=1e-12)
    assert chi_norm_tail(4, 2.5) == pytest.approx(Q_2_AT_3125, abs=1e-12)
    assert chi_norm_tail(1, 1.5) == pytest.approx(FOLDED_1_5, abs=1e-13)


def test_chi_tail_d2_exact():
    # exact identity; allow one ulp between the numpy and libm exponentials
    for t in (0.0, 0.5, 1.7, 3.0, 9.0):
        assert chi_norm_tail(2, t) == pytest.approx(math.exp(-0.5 * t * t), rel=1e-15)


def test_chi_tail_at_zero_and_monotone():
    ts = np.linspace(0.0, 8.0, 60)
    for d in (1, 2, 3, 5, 8):
        vals = chi_norm_tail(d, ts)
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(vals) < 0.0)
    # stochastic order in dimension at a fixed level
    for t in (0.5, 2.0, 5.0):
        vals = [chi_norm_tail(d, t) for d in range(1, 9)]
        assert np.all(np.diff(vals) > 0.0)


def test_chi_tail_at_huge_level_quiet():
    # t^2 overflows to inf past ~1.3e154: the tail is 0 and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d in range(1, 9):
            assert chi_norm_tail(d, 1e200) == 0.0


def test_chi_tail_mc_cross_check():
    rng = np.random.default_rng(404)
    draws = rng.chisquare(3, size=2_000_000)
    freq = float(np.mean(draws >= 4.0))
    se = math.sqrt(Q_HALF3_AT_2 * (1 - Q_HALF3_AT_2) / 2_000_000)
    assert abs(freq - chi_norm_tail(3, 2.0)) < 4.0 * se


def test_chi_tail_validation():
    with pytest.raises(ValueError, match="1..8"):
        chi_norm_tail(0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        chi_norm_tail(2, -0.5)


# ---------------------------------------------------------------------------
# tail envelope
# ---------------------------------------------------------------------------


def test_envelope_d2_ratio_is_one():
    grid = np.linspace(4.0, 12.0, 101)
    env = chi_tail_envelope(2, grid)
    assert np.all(np.abs(env.ratios - 1.0) <= 1e-14)
    assert env.c1_hat == pytest.approx(1.0, abs=1e-14)
    assert env.c2_hat == pytest.approx(1.0, abs=1e-14)


def test_envelope_d1_increases_toward_root_two_over_pi():
    env = chi_tail_envelope(1, np.linspace(2.0, 12.0, 201))
    assert np.all(np.diff(env.ratios) > 0.0)
    assert env.c2_hat < math.sqrt(2.0 / math.pi)
    # at t = 12 the ratio sits within O(1/t^2) of the limit
    assert env.c2_hat == pytest.approx(math.sqrt(2.0 / math.pi), abs=7e-3)
    assert env.c1_hat > 0.5


def test_envelope_d3_finite():
    env = chi_tail_envelope(3, np.linspace(6.0, 12.0, 61))
    assert 0.0 < env.c1_hat <= env.c2_hat < math.inf


def test_envelope_grid_validation():
    with pytest.raises(ValueError, match="within"):
        chi_tail_envelope(2, np.linspace(1.0, 12.0, 10))
    with pytest.raises(ValueError, match="within"):
        chi_tail_envelope(1, np.linspace(2.0, 13.0, 10))
    with pytest.raises(ValueError, match="increasing"):
        chi_tail_envelope(1, np.array([3.0, 3.0, 4.0]))
    with pytest.raises(ValueError, match="at least 2"):
        chi_tail_envelope(1, np.array([3.0]))


# ---------------------------------------------------------------------------
# sub-Gaussian norm tail bounds
# ---------------------------------------------------------------------------


def test_tail_bound_vacuous_at_zero():
    b = gaussian_norm_tail_bound(0.0, trace=1.0, sigma2_max=1.0)
    assert b.bound_trace == 2.0
    assert b.bound_sigma == 1.0
    assert not b.sigma_applicable


def test_tail_bound_textbook_point():
    b = gaussian_norm_tail_bound(4.0, trace=1.0, sigma2_max=1.0)
    assert b.bound_sigma == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert b.sigma_applicable
    assert b.bound_trace == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)


def test_tail_bound_mc_domination_isotropic_d2():
    rng = np.random.default_rng(77)
    y = rng.standard_normal((2_000_000, 2))
    norms = np.linalg.norm(y, axis=1)
    b = gaussian_norm_tail_bound(np.array([4.0, 5.0, 6.0]), trace=2.0, sigma2_max=1.0)
    for x, bt in zip(b.x, b.bound_trace):
        freq = float(np.mean(norms >= x))
        assert freq <= bt


def test_tail_bound_validation():
    with pytest.raises(ValueError, match="positive"):
        gaussian_norm_tail_bound(1.0, trace=0.0, sigma2_max=1.0)
    with pytest.raises(ValueError, match="exceed"):
        gaussian_norm_tail_bound(1.0, trace=1.0, sigma2_max=2.0)
    with pytest.raises(ValueError, match="nonnegative"):
        gaussian_norm_tail_bound(-1.0, trace=1.0, sigma2_max=1.0)


# ---------------------------------------------------------------------------
# density ratio
# ---------------------------------------------------------------------------


def test_density_ratio_frozen_point():
    rep = aniso_chisq_density_ratio(0.5, np.array([10.0]))
    assert rep.max_ratio == pytest.approx(RATIO_HALF_10, rel=1e-9)


def test_density_ratio_matches_quadrature():
    z = np.geomspace(0.01, 100.0, 120)
    for sigma in (0.01, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99):
        rep = aniso_chisq_density_ratio(sigma, z)
        oracle = np.array([_ratio_oracle(sigma, zi) for zi in z])
        np.testing.assert_allclose(rep.ratios, oracle, rtol=1e-12, atol=0)


def test_density_ratio_below_bound():
    z = np.geomspace(0.1, 50.0, 40)
    for sigma in (0.1, 0.3, 0.5, 0.7, 0.9):
        rep = aniso_chisq_density_ratio(sigma, z)
        assert rep.max_ratio <= rep.bound
        assert rep.bound == pytest.approx(2.0 / math.sqrt(1 - sigma**2), rel=1e-15)


def test_density_ratio_small_sigma_limit():
    rep = aniso_chisq_density_ratio(0.01, np.array([5.0]))
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-3)


def test_density_is_normalized():
    """integral ratio(z) h1(z) dz = 1 pins the convolution prefactor."""
    for sigma in (0.3, 0.8):
        total, err = scipy_quad(
            lambda z: _ratio(sigma, z) * _h1(z), 0.0, np.inf, limit=300
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_density_ratio_mc_cross_check():
    """Empirical CDF of R1 + sigma^2 R2 against the closed-form density."""
    sigma = 0.6
    rng = np.random.default_rng(9090)
    draws = rng.chisquare(1, 2_000_000) + sigma**2 * rng.chisquare(1, 2_000_000)
    z0 = 1.0
    prob, _ = scipy_quad(lambda z: _ratio(sigma, z) * _h1(z), 0.0, z0, limit=200)
    freq = float(np.mean(draws <= z0))
    se = math.sqrt(prob * (1 - prob) / 2_000_000)
    assert abs(freq - prob) < 4.0 * se


def test_density_ratio_tail_form():
    # integrated form: P{|Y| >= t} <= 2 (1-sigma^2)^{-1/2} P{chi2_1 >= t^2}
    sigma, t = 0.8, 3.0
    lhs, _ = scipy_quad(
        lambda z: _ratio(sigma, z) * _h1(z), t * t, np.inf, limit=300
    )
    rhs = 2.0 / math.sqrt(1 - sigma**2) * chi_norm_tail(1, t)
    assert lhs <= rhs


def test_density_ratio_validation():
    with pytest.raises(ValueError, match="sigma"):
        aniso_chisq_density_ratio(1.0, np.array([1.0]))
    with pytest.raises(ValueError, match="positive"):
        aniso_chisq_density_ratio(0.5, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# series classifier and probe
# ---------------------------------------------------------------------------


def test_classifier_rule_examples():
    assert integral_test_classify(PhiFamily(a=4, b=0, d=1)) == "convergent"
    assert integral_test_classify(PhiFamily(a=3, b=0, d=1)) == "divergent"
    assert integral_test_classify(PhiFamily(a=4, b=3, d=2)) == "convergent"
    assert integral_test_classify(PhiFamily(a=3, b=2, d=1)) == "divergent"
    assert integral_test_classify(PhiFamily(a=5, b=0, d=3)) == "divergent"
    assert integral_test_classify(PhiFamily(a=6, b=0, d=3)) == "convergent"


@given(
    a=st.integers(-1, 8),
    b=st.integers(-1, 6),
    d=st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_classifier_monotone_in_coefficients(a, b, d):
    # enlarging the boundary can only help convergence
    if integral_test_classify(PhiFamily(a=a, b=b, d=d)) == "convergent":
        assert integral_test_classify(PhiFamily(a=a + 1, b=b, d=d)) == "convergent"
        assert integral_test_classify(PhiFamily(a=a, b=b + 1, d=d)) == "convergent"


def test_term_frozen_value():
    n = math.exp(math.e)
    val = float(integral_test_term(PhiFamily(a=0, b=0, d=1), n))
    assert val == pytest.approx(TERM_AT_EE, rel=1e-12)


def test_term_validation_and_shape():
    phi = PhiFamily(a=0, b=0, d=2)
    vals = integral_test_term(phi, np.array([1.0, 10.0, 100.0]))
    assert vals.shape == (3,)
    assert np.all(vals > 0)
    with pytest.raises(ValueError, match=">= 1"):
        integral_test_term(phi, np.array([0.5]))


def test_probe_euler_maclaurin_validates():
    probe = integral_test_partial_sums(PhiFamily(a=3, b=1, d=2))
    assert probe.em_validation_rel < 1e-9
    assert np.all(np.diff(probe.ns) > 0)
    assert np.all(np.diff(probe.partial_sums) > 0)
    assert probe.ns[-1] == 10**9


def test_probe_convergent_case_cauchy():
    probe = integral_test_partial_sums(PhiFamily(a=4, b=0, d=1))
    assert probe.verdict == "convergent"
    assert probe.tail_increment < 1e-4
    assert probe.slope_linear < -0.05


def test_probe_divergent_slope_bounded_away():
    probe = integral_test_partial_sums(PhiFamily(a=1, b=0, d=1))
    assert probe.verdict == "divergent"
    assert probe.slope_linear > 0.4


def test_probe_critical_line_uses_loglog():
    div = integral_test_partial_sums(PhiFamily(a=3, b=2, d=1))
    assert abs(div.slope_linear) < 0.05
    assert div.slope_loglog == pytest.approx(0.0, abs=0.02)
    assert div.verdict == "divergent"
    conv = integral_test_partial_sums(PhiFamily(a=3, b=3, d=1))
    assert conv.slope_loglog == pytest.approx(-0.5, abs=0.02)
    assert conv.verdict == "convergent"


def test_probe_agrees_with_classifier_sample():
    for (a, b, d) in [(4, 0, 1), (3, 0, 1), (3, 3, 1), (4, 3, 2), (5, 4, 3), (3, 4, 3)]:
        phi = PhiFamily(a=a, b=b, d=d)
        assert integral_test_partial_sums(phi).verdict == integral_test_classify(phi)


def test_probe_n_max_validation():
    with pytest.raises(ValueError, match="n_max"):
        integral_test_partial_sums(PhiFamily(a=0, b=0, d=1), n_max=10**10)
    with pytest.raises(ValueError, match="n_max"):
        integral_test_partial_sums(PhiFamily(a=0, b=0, d=1), n_max=100)
    # below the Euler-Maclaurin validation window, which starts at 1e5
    with pytest.raises(ValueError, match="n_max"):
        integral_test_partial_sums(PhiFamily(a=0, b=0, d=1), n_max=5 * 10**4)


def test_probe_small_n_max_stays_exact():
    probe = integral_test_partial_sums(PhiFamily(a=2, b=0, d=1), n_max=10**5)
    assert probe.ns[-1] == 10**5
    # every checkpoint within the exact region: partial sums are plain sums
    phi = PhiFamily(a=2, b=0, d=1)
    direct = float(np.sum(integral_test_term(phi, np.arange(1, 1001))))
    i = int(np.where(probe.ns == 1000)[0][0])
    assert probe.partial_sums[i] == pytest.approx(direct, rel=1e-14)


# Recorded from the unstreamed probe, which summed the exact leg with one
# np.cumsum over 1..n.  Compared with ==: the streamed sum must reproduce it
# bit for bit.  n_max = 123457 is not a multiple of the block size; at 1e5
# and 123457 the partial sums are the first nine entries.  d = 3 takes the
# phi^2 ** 1.5 path.
PROBE_NS = [10, 32, 100, 316, 1000, 3162, 10000, 31623, 100000, 316228, 1000000,
            3162278, 10000000, 31622777, 100000000, 316227766, 1000000000]
PROBE_ORACLE = {
    (1, 2.0, 1.0): {
        "partial_sums": [
            0.5376052014421596, 0.7313283412410407, 0.8819221939459293,
            1.006154499278574, 1.1112758260042361, 1.2023655537621256,
            1.2829031194986054, 1.3551536363442176, 1.4207318390404635,
            1.480815522046964, 1.5362906431302843, 1.5878423651621145,
            1.6356149156230928, 1.6794673576250818, 1.7199513084801652,
            1.7575223597224938, 1.792551264447503,
        ],
        "em_validation_rel": {
            1_000_000_000: 3.9239142565033865e-12,
            100_000: 0.0,
            123_457: 1.533858709970138e-11,
        },
        "log_increments": [
            8.530508631715925, 15.157451574591988, 27.160672323693994,
            48.747398985524406, 87.36898779972697, 156.2785600897834, 279.0461151185045,
            497.58684564377114, 886.4382881482825, 1578.149343419669,
            2808.4291598138407, 4996.429906991612, 8887.442990053196,
            15806.662532279515, 28110.756818835394, 49990.65048589967,
        ],
        "slope_linear": 0.6399639520894258,
        "slope_loglog": 3627.6559642195907,
        "tail_increment": math.inf,
        "verdict": "divergent",
    },
    (2, 4.0, 3.0): {
        "partial_sums": [
            0.29284108374559453, 0.398575992978793, 0.4814859212378362,
            0.5504577692126038, 0.6092506005831053, 0.6605247117710177,
            0.7061173372327767, 0.7472265882533251, 0.7847103813540763,
            0.8191966248097043, 0.8511591790493186, 0.8809657042956153,
            0.9084715601595552, 0.9332873627399065, 0.9558317202227017,
            0.9764474446008076, 0.9954080808084584,
        ],
        "em_validation_rel": {
            1_000_000_000: 3.823822639178732e-12,
            100_000: 0.0,
            123_457: 1.4762782522945767e-11,
        },
        "log_increments": [
            -1.1506674936160244, -1.438692527612353, -1.7265157465833503,
            -2.0143388832076843, -2.30216201983194, -2.5899851564561955,
            -2.8778082930804594, -3.1656314297047636, -3.4534545663290195,
            -3.741277702953107, -4.029100839577303, -4.316923976201559,
            -4.60474711282605, -4.8925702494518895, -5.180393386076146,
            -5.468216522700402,
        ],
        "slope_linear": -4.605663214852017e-05,
        "slope_loglog": -0.5000077426182594,
        "tail_increment": 0.004218749496462822,
        "verdict": "convergent",
    },
    (3, 5.0, 2.0): {
        "partial_sums": [
            0.8785232512367833, 1.198574786906381, 1.4578285051431508,
            1.6789684108382448, 1.8711406492923777, 2.0413526273306277,
            2.1946654528296907, 2.3344293149685393, 2.4630911360369994,
            2.58246755317343, 2.6939464555815382, 2.798616840242014, 2.8956076593515365,
            2.9831078097992134, 3.0625772221825165, 3.135221678603551,
            3.2020053493855225,
        ],
        "em_validation_rel": {
            1_000_000_000: 2.7873963066664068e-12,
            100_000: 0.0,
            123_457: 1.4218495722087026e-11,
        },
        "log_increments": [
            0.4877803397288538, 0.48745898596197934, 0.4874588549681107,
            0.4874588549679868, 0.4874588549679859, 0.48745885496799035,
            0.48745885496798014, 0.487458854967906, 0.48745885496788954,
            0.4874588549681551, 0.4874588549682457, 0.4874588549684593,
            0.48745885496763997, 0.4874588549656944, 0.48745885496672914,
            0.4874588549647103,
        ],
        "slope_linear": -5.167476237947836e-10,
        "slope_loglog": -1.2323679256595068e-05,
        "tail_increment": 1.6281735335098182,
        "verdict": "divergent",
    },
}


@pytest.mark.parametrize("n_max", [10**9, 10**5, 123_457])
@pytest.mark.parametrize("cell", list(PROBE_ORACLE), ids=lambda c: "d%d-a%g-b%g" % c)
def test_probe_frozen_oracle(cell, n_max):
    d, a, b = cell
    want = PROBE_ORACLE[cell]
    probe = integral_test_partial_sums(PhiFamily(a=a, b=b, d=d), n_max=n_max)
    k = len(PROBE_NS) if n_max == 10**9 else 9
    assert probe.ns.tolist() == PROBE_NS[:k]
    assert probe.partial_sums.tolist() == want["partial_sums"][:k]
    assert probe.em_validation_rel == want["em_validation_rel"][n_max]
    assert probe.log_increments.tolist() == want["log_increments"]
    assert probe.slope_linear == want["slope_linear"]
    assert probe.slope_loglog == want["slope_loglog"]
    assert probe.tail_increment == want["tail_increment"]
    assert probe.verdict == want["verdict"]


def _streamed_sums(phi, n, at):
    """{c: S_c} for each c in `at`, read from the blocks that
    _prefix_sums streams over integral_test_term up to n."""
    sums = {}
    for lo, part in _prefix_sums(lambda ns: integral_test_term(phi, ns), n):
        sums.update((c, part[c - lo - 1]) for c in at if lo < c <= lo + len(part))
    return sums


@pytest.mark.parametrize(
    "n", [13 * _PREFIX_BLOCK, 13 * _PREFIX_BLOCK + 1, 10**6], ids=["boundary", "past", "1e6"]
)
@pytest.mark.parametrize("d", [1, 3])
def test_streamed_sum_matches_one_cumsum(n, d):
    phi = PhiFamily(a=d + 2, b=1, d=d)
    at = [int(round(10 ** (j / 2.0))) for j in range(2, 13)]
    at = [c for c in at if c <= n] + [n]
    edges = range(_PREFIX_BLOCK, n, _PREFIX_BLOCK)
    at += list(edges) + [e + 1 for e in edges]
    got = _streamed_sums(phi, n, at)
    full = np.cumsum(integral_test_term(phi, np.arange(1, n + 1)))
    assert sorted(got) == sorted(set(at))
    assert all(got[c] == full[c - 1] for c in at)


CRITERION_08_GRID = [
    (d, float(a), float(b)) for d in (1, 2, 3) for a in range(d, d + 5) for b in range(5)
]


def test_in_place_kernel_matches_one_cumsum_on_criterion_08_grid():
    """The streamed block sum against integral_test_term and one cumsum,
    by ==, at every block edge and checkpoint of a four-block range, for the
    75 cells criterion 08 probes (d = 1, 2, 3 take phi^2 ** 0.5, 1 and 1.5)."""
    n = 3 * _PREFIX_BLOCK + 17
    at = [int(round(10 ** (j / 2.0))) for j in range(2, 9)] + [1, 15, 16, 17, n]
    for e in range(_PREFIX_BLOCK, n, _PREFIX_BLOCK):
        at += [e - 1, e, e + 1]
    ns = np.arange(1, n + 1)
    for d, a, b in CRITERION_08_GRID:
        phi = PhiFamily(a=a, b=b, d=d)
        full = np.cumsum(integral_test_term(phi, ns))
        got = _streamed_sums(phi, n, at)
        assert sorted(got) == sorted(set(at))
        bad = [c for c in at if got[c] != full[c - 1]]
        assert not bad, ((d, a, b), bad)


def test_probe_negative_phi_squared_message_unchanged():
    # phi^2 = 2 + a + b at n = 1 is the smallest over the exact leg
    with pytest.raises(ValueError) as exc:
        integral_test_partial_sums(PhiFamily(a=-10.0, b=0.0, d=1))
    assert str(exc.value) == (
        "phi^2 is negative at t = 1.0: a = -10.0, b = 0.0 are too negative there"
    )
    # phi^2(1) = 0 is allowed, as it is per term
    assert integral_test_partial_sums(PhiFamily(a=-1.0, b=-1.0, d=2), n_max=10**5)


def test_exact_leg_stays_below_the_log_floor_release():
    # a range shorter than one block, read at its last index
    phi = PhiFamily(a=3.0, b=1.0, d=1)
    assert _streamed_sums(phi, 20, [20])[20] == float(
        np.cumsum(integral_test_term(phi, np.arange(1, 21)))[-1]
    )


def test_probe_holds_no_length_n_array():
    phi = PhiFamily(a=3, b=1, d=2)
    integral_test_partial_sums(phi)
    tracemalloc.start()
    try:
        probe = integral_test_partial_sums(phi)
        probe.partial_sums, probe.em_validation_rel  # run the deferred legs here
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one float64 array over n = 1..1e6 alone would be 8 MB
    assert peak < 2 * 2**20, peak


def test_probe_verdict_side_skips_the_summation_legs(monkeypatch):
    """With both summation legs made to raise, every field criterion 08 and
    the verdict read comes out, the same bits as PROBE_ORACLE where it has
    the cell."""

    def unread(*args):
        raise AssertionError("a summation leg ran for the verdict side")

    monkeypatch.setattr(limits, "_prefix_sums", unread)
    monkeypatch.setattr(limits, "_em_segment_sum", unread)
    for d, a, b in CRITERION_08_GRID:
        phi = PhiFamily(a=a, b=b, d=d)
        probe = integral_test_partial_sums(phi)
        assert probe.verdict == integral_test_classify(phi), (d, a, b)
        assert probe.ns.tolist() == PROBE_NS
        assert probe.log_increments.shape == (16,)
        assert math.isfinite(probe.slope_linear) and math.isfinite(probe.slope_loglog)
        assert probe.tail_increment >= 0.0
        want = PROBE_ORACLE.get((d, a, b))
        if want is not None:
            assert probe.log_increments.tolist() == want["log_increments"]
            assert probe.slope_linear == want["slope_linear"]
            assert probe.slope_loglog == want["slope_loglog"]
            assert probe.tail_increment == want["tail_increment"]
    with pytest.raises(AssertionError, match="summation leg"):
        probe.partial_sums


def test_probe_sums_once_on_first_read(monkeypatch):
    calls = []
    kernel = limits._prefix_sums

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(limits, "_prefix_sums", counted)
    probe = integral_test_partial_sums(PhiFamily(a=3.0, b=1.0, d=2), n_max=123_457)
    assert calls == []
    sums = probe.partial_sums
    rel = probe.em_validation_rel
    assert probe.partial_sums is sums and probe.em_validation_rel == rel
    assert calls == [123_457]
