"""Tests for the small symmetric PSD matrix layer.

Square roots are checked by squaring them back, the operator norm and the
Loewner order on matrices whose spectra are known by construction, and the
constructor on every input it must refuse.
"""

import numpy as np
import pytest

from lilmax.psdmat import (
    MatrixError,
    NotPSDError,
    SymPSD,
    loewner_leq,
    op_norm,
    psd_sqrt,
)


def _random_psd(rng, d: int, rank: int | None = None) -> np.ndarray:
    b = rng.standard_normal((d, d if rank is None else rank))
    a = b @ b.T
    return 0.5 * (a + a.T)


@pytest.mark.parametrize("d", range(1, 9))
def test_psd_sqrt_squares_back(d):
    rng = np.random.default_rng(700 + d)
    for _ in range(20):
        a = _random_psd(rng, d)
        root = psd_sqrt(SymPSD.from_array(a))
        assert isinstance(root, SymPSD)
        assert np.array_equal(root.entries, root.entries.T)
        assert not root.entries.flags.writeable
        assert op_norm(root.entries @ root.entries - a) <= 1e-12 * op_norm(a)


def test_psd_sqrt_rank_deficient():
    rng = np.random.default_rng(7001)
    a = _random_psd(rng, 6, rank=2)
    assert np.linalg.eigvalsh(a)[0] < 1e-12 * op_norm(a)
    root = psd_sqrt(SymPSD.from_array(a))
    assert op_norm(root.entries @ root.entries - a) <= 1e-12 * op_norm(a)
    # the root of a projector is itself
    p = np.diag([1.0, 1.0, 0.0])
    assert np.allclose(psd_sqrt(SymPSD.from_array(p)).entries, p, rtol=0, atol=1e-15)


def test_psd_sqrt_clamps_tiny_negative_eigenvalue():
    a = np.diag([4.0, -1e-11])
    root = psd_sqrt(SymPSD.from_array(a))
    np.testing.assert_array_equal(root.entries, np.diag([2.0, 0.0]))


def _rank_deficient_raw(rng, d: int, scale: float) -> np.ndarray:
    """q diag(lam) q^T with d - 1 eigenvalues in [0.1, 1) * scale and one
    exact zero before rounding; symmetric only up to roundoff."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    lam = np.array([scale * rng.uniform(0.1, 1) for _ in range(d - 1)] + [0.0])
    return (q * lam) @ q.T


def _rank_deficient(rng, d: int, scale: float) -> np.ndarray:
    """_rank_deficient_raw, symmetrized."""
    x = _rank_deficient_raw(rng, d, scale)
    return 0.5 * (x + x.T)


def test_psd_sqrt_accepts_every_constructed_matrix_at_large_norm():
    """The root's eigenvalues carry roundoff on the scale of its own norm, so
    judging them against the absolute TOL_PSD refused a rank-deficient
    matrix of norm 10^13 that the constructor had accepted."""
    x = _rank_deficient(np.random.default_rng(4), 8, 1e13)
    root = psd_sqrt(SymPSD.from_array(x))
    assert np.array_equal(root.entries, root.entries.T)
    assert not root.entries.flags.writeable
    assert op_norm(root.entries @ root.entries - x) <= 1e-12 * op_norm(x)
    # every dimension across norms 10^6..10^13; the root of each input the
    # constructor accepts exists
    rng = np.random.default_rng(33)
    accepted = 0
    for d in range(2, 9):
        for scale in (1e6, 1e9, 1e13):
            for _ in range(4):
                a = _rank_deficient(rng, d, scale)
                try:
                    m = SymPSD.from_array(a)
                except NotPSDError:
                    continue
                accepted += 1
                root = psd_sqrt(m)
                assert op_norm(root.entries @ root.entries - a) <= 1e-12 * op_norm(a)
    assert accepted >= 40, accepted


def test_from_array_tolerances_scale_with_the_entries():
    """Symmetry and the smallest eigenvalue are judged relative to
    max(1, largest absolute entry): a PSD-by-construction matrix of norm
    10^6..10^13 passes, raw or symmetrized, and a clearly negative
    eigenvalue is still refused at that norm."""
    rng = np.random.default_rng(1608)
    for d in range(2, 9):
        for scale in (1e6, 1e9, 1e13):
            for _ in range(20):
                x = _rank_deficient_raw(rng, d, scale)
                for a in (x, 0.5 * (x + x.T)):
                    m = SymPSD.from_array(a)
                    assert np.array_equal(m.entries, 0.5 * (a + a.T))
    with pytest.raises(NotPSDError) as err:
        SymPSD.from_array(np.diag([1e13, -1e6]))
    assert str(err.value) == "matrix has eigenvalue -1.000e+06 < -1000.0"
    with pytest.raises(MatrixError, match="not symmetric"):
        SymPSD.from_array([[1e13, 1e3], [0.0, 1e13]])


def test_op_norm_of_indefinite_matrix():
    assert op_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0, rel=1e-15)
    # a rotated copy has the same spectrum
    c, s = np.cos(0.3), np.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    assert op_norm(q @ np.diag([-3.0, 2.0]) @ q.T) == pytest.approx(3.0, rel=1e-14)
    assert op_norm(SymPSD.from_array(np.diag([0.5, 7.0]))) == 7.0


def test_loewner_leq_ordered_and_unordered():
    rng = np.random.default_rng(7002)
    a = _random_psd(rng, 4)
    b = a + _random_psd(rng, 4)
    sa, sb = SymPSD.from_array(a), SymPSD.from_array(b)
    assert loewner_leq(sa, sb)
    assert not loewner_leq(sb, sa)
    assert loewner_leq(sa, sa)
    # neither order holds: the difference is indefinite
    x = SymPSD.from_array(np.diag([2.0, 1.0]))
    y = SymPSD.from_array(np.diag([1.0, 2.0]))
    assert not loewner_leq(x, y)
    assert not loewner_leq(y, x)
    # tol admits a small negative eigenvalue of b - a, and only that
    z = SymPSD.from_array(np.diag([2.0, 1.0 - 1e-9]))
    assert not loewner_leq(x, z)
    assert loewner_leq(x, z, tol=1e-8)


def test_loewner_leq_default_tolerance_scales_with_the_entries():
    """b' = a + c c^T of norm 10^12 is ordered above a, though eig(b' - a)
    carries roundoff near 10^-3; a - c c^T is not, and an explicit tol stays
    absolute."""
    rng = np.random.default_rng(1608)
    for d in range(2, 9):
        for _ in range(20):
            x = rng.standard_normal((d, d)) * 1e6
            c = rng.standard_normal((d, 1)) * 1e3
            a = SymPSD.from_array(x @ x.T)
            above = SymPSD.from_array(a.entries + c @ c.T)
            below = SymPSD.from_array(a.entries - c @ c.T)
            assert loewner_leq(a, above)
            assert not loewner_leq(a, below)
    big = SymPSD.from_array(np.diag([1e12, 1.0]))
    assert loewner_leq(big, SymPSD.from_array(np.diag([1e12, 1.0 - 1e-3])))
    assert not loewner_leq(big, SymPSD.from_array(np.diag([1e12, 1.0 - 1e-3])), tol=1e-9)


def test_loewner_leq_dimension_mismatch():
    with pytest.raises(MatrixError, match="dimension mismatch"):
        loewner_leq(SymPSD.from_array(np.eye(2)), SymPSD.from_array(np.eye(3)))


def test_from_array_rejects_bad_shapes():
    for bad in (np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(MatrixError, match="expected a square matrix"):
            SymPSD.from_array(bad)
    for d in (0, 9):
        with pytest.raises(MatrixError, match=f"dimension must be in 1..8, got {d}"):
            SymPSD.from_array(np.eye(d))


def test_from_array_rejects_asymmetry():
    with pytest.raises(MatrixError, match="not symmetric"):
        SymPSD.from_array([[1.0, 1e-9], [0.0, 1.0]])
    # within TOL_SYM the entries are averaged into an exactly symmetric matrix
    m = SymPSD.from_array([[1.0, 1e-13], [0.0, 1.0]])
    assert m.entries[0, 1] == m.entries[1, 0] == 0.5e-13


def test_from_array_rejects_negative_eigenvalue():
    with pytest.raises(NotPSDError) as err:
        SymPSD.from_array(-0.5 * np.eye(3))
    assert str(err.value) == "matrix has eigenvalue -5.000e-01 < -1e-10"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_array_rejects_non_finite(bad):
    for m in ([[bad, 0.0], [0.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
        with pytest.raises(MatrixError, match="non-finite"):
            SymPSD.from_array(m)
