import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from conduel.env import SimulatedUser
from conduel.errors import DomainError, StructuralError
from conduel.glm import DesignMatrix, WeightGraph, get_link

mp.dps = 50

SIG = get_link("sigmoid")
CLAMP = get_link("clamped_linear")

finite_z = st.floats(min_value=-500.0, max_value=500.0, allow_nan=False)


# ---------------------------------------------------------------- links


def test_link_eval_examples():
    assert SIG.mu(0.0) == 0.5
    assert CLAMP.mu(0.5) == 0.75
    # extended-precision oracle for 1/(1+e^-2)
    oracle = float(1 / (1 + mp.e ** -2))
    assert abs(SIG.mu(2.0) - oracle) < 1e-12


def test_link_eval_stable_for_large_inputs():
    assert SIG.mu(800.0) == 1.0
    assert SIG.mu(-800.0) == 0.0
    assert 0.0 <= SIG.mu(-40.0) < 1e-15


def test_sigmoid_mean_equals_two_division_form_bitwise():
    # where(z >= 0, 1, e) / (1 + e) takes, on each branch, the one division
    # of where(z >= 0, 1 / (1 + e), e / (1 + e)) on the same operands;
    # e = exp(-|z|) underflows to 0 at |z| = 800, and the signs of zero count
    z = np.concatenate([
        [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0],
        np.random.default_rng(3).normal(scale=10.0, size=1000),
    ])
    e = np.exp(-np.abs(z))
    two = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    np.testing.assert_array_equal(SIG.mu(z).view(np.uint64), two.view(np.uint64))


def test_link_deriv_examples():
    assert SIG.slope(0.0) == 0.25
    s2 = 1 / (1 + mp.e ** -2)
    oracle = float(s2 * (1 - s2))
    assert abs(SIG.slope(2.0) - oracle) < 1e-12
    assert CLAMP.slope(2.0) == 0.0
    # boundary tie-break: inside-limit value
    assert CLAMP.slope(1.0) == 0.5
    assert CLAMP.slope(-1.0) == 0.5


def test_unknown_link_kind_rejected():
    with pytest.raises(DomainError):
        get_link("probit")


@given(finite_z)
def test_link_range_and_symmetry(z):
    for link in (SIG, CLAMP):
        p = link.mu(z)
        assert 0.0 <= p <= 1.0
        assert abs(p + link.mu(-z) - 1.0) <= 1e-12
        assert link.slope(z) >= 0.0


@given(finite_z, finite_z)
def test_link_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    for link in (SIG, CLAMP):
        assert link.mu(lo) <= link.mu(hi) + 1e-15


@given(st.floats(min_value=-2.0, max_value=2.0))
def test_sigmoid_slope_floor_on_duel_range(z):
    assert SIG.slope(z) >= SIG.kappa1 - 1e-15


def test_kappa1_constants():
    s2 = 1 / (1 + mp.e ** -2)
    assert abs(SIG.kappa1 - float(s2 * (1 - s2))) < 1e-15
    assert CLAMP.kappa1 == 0.5
    # slope ceilings: 1/4 at the sigmoid's centre, 1/2 inside the clamp
    z = np.linspace(-50.0, 50.0, 100_001)
    assert SIG.slope(z).max() <= 0.25
    assert CLAMP.slope(z).max() <= 0.5


def test_antiderivative_matches_slope():
    rng = np.random.default_rng(3)
    for link in (SIG, CLAMP):
        z = rng.uniform(-1.8, 1.8, size=64)
        h = 1e-6
        num = (link.anti(z + h) - link.anti(z - h)) / (2 * h)
        assert np.allclose(num, link.mu(z), atol=1e-6)


# ---------------------------------------------------------------- duel_prob


class _Draw:
    """Stands in for a generator whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _win_probability(user, x, y):
    """The duel's win probability for ``x``: the draw below which it wins."""
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if user.duel(x, y, _Draw(mid)):
            lo = mid
        else:
            hi = mid
    return hi


def test_duel_prob_examples():
    user = SimulatedUser(np.array([1.0, 0.0]), SIG)
    assert _win_probability(user, np.array([0.6, 0.8]), np.array([0.6, 0.8])) == 0.5
    oracle = float(1 / (1 + mp.e ** -1))
    got = _win_probability(user, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert abs(got - oracle) < 1e-12


def test_duel_prob_antisymmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = rng.normal(size=4)
        x, y = rng.normal(size=4), rng.normal(size=4)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        for link in (SIG, CLAMP):
            user = SimulatedUser(theta, link)
            p_xy, p_yx = _win_probability(user, x, y), _win_probability(user, y, x)
            assert abs(p_xy + p_yx - 1.0) < 1e-12


# ---------------------------------------------------------------- weight graph


def dense_graph(w):
    """The weight graph whose nonzero entries are those of the dense ``w``."""
    w = np.asarray(w, dtype=float)
    a, k = np.nonzero(w)
    return WeightGraph.from_triples(*w.shape, zip(a.tolist(), k.tolist(), w[a, k].tolist()))


def test_keyterm_feature_single_arm():
    x = np.array([[0.6, 0.8], [1.0, 0.0]])
    feats = dense_graph([[0.0, 1.0], [1.0, 0.0]]).keyterm_features(x)
    np.testing.assert_array_equal(feats[0], x[1])
    np.testing.assert_array_equal(feats[1], x[0])


def test_keyterm_feature_equal_weights_average():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    g = dense_graph([[0.5], [0.5]])
    np.testing.assert_allclose(g.keyterm_features(x)[0], [0.5, 0.5])


def test_keyterm_feature_weighted_mean_oracle():
    x = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    w = np.array([[0.5], [0.3], [0.2]])
    g = dense_graph(w)
    # direct summation oracle
    expect = (0.5 * x[0] + 0.3 * x[1] + 0.2 * x[2]) / 1.0
    np.testing.assert_allclose(g.keyterm_features(x)[0], expect, atol=1e-15)


def test_keyterm_without_arms_rejected():
    g = WeightGraph.from_triples(2, 2, [(0, 0, 1.0)])
    with pytest.raises(StructuralError, match="key-term 1 has no related arm"):
        g.keyterm_features(np.eye(2))


def test_keyterm_feature_column_rescale_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(5, 3))
    w = rng.uniform(0.1, 1.0, size=(5, 2))
    g1 = dense_graph(w)
    w2 = w.copy()
    w2[:, 0] *= 17.0
    g2 = dense_graph(w2)
    np.testing.assert_allclose(g1.keyterm_features(x)[0], g2.keyterm_features(x)[0], atol=1e-12)


def test_weight_graph_validation():
    g = dense_graph([[0.5, 0.5], [1.0, 0.0]])
    g.validate()
    bad = dense_graph([[0.5, 0.4]])
    with pytest.raises(StructuralError):
        bad.validate()
    with pytest.raises(StructuralError):
        WeightGraph.from_triples(1, 1, [(0, 0, -0.1)])


def test_keyterm_features_vectorized_matches_single():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 3))
    w = rng.uniform(0.0, 1.0, size=(6, 4))
    w[w < 0.3] = 0.0
    w[0, :] = [1.0, 0.5, 0.2, 0.1]  # every key-term related somewhere
    allf = dense_graph(w).keyterm_features(x)
    # the dense formula: column-normalized weights times the arm features
    np.testing.assert_allclose(allf, w.T @ x / w.sum(axis=0)[:, None], atol=1e-12)


# ---------------------------------------------------------------- design matrix


def test_design_update_identity_example():
    m = DesignMatrix(2, 1.0)
    m.update(np.array([1.0, 0.0]))
    np.testing.assert_allclose(m.m, np.diag([2.0, 1.0]))
    np.testing.assert_allclose(m.m_inv, np.diag([0.5, 1.0]))


def test_design_matrix_requires_positive_regularizer():
    with pytest.raises(DomainError):
        DesignMatrix(3, 0.0)


def test_maintained_inverse_against_fresh_inversion():
    rng = np.random.default_rng(5)
    m = DesignMatrix(4, 0.7)
    for _ in range(100):
        v = rng.normal(size=4)
        v *= 2.0 / max(np.linalg.norm(v), 1e-9)
        m.update(v)
    fresh = np.linalg.inv(m.m)
    assert np.max(np.abs(m.m_inv - fresh)) < 1e-6
    assert np.max(np.abs(m.m @ m.m_inv - np.eye(4))) < 1e-6


def test_refactorization_bounds_drift():
    rng = np.random.default_rng(17)
    m = DesignMatrix(6, 0.5)
    for _ in range(1000):
        m.update(rng.normal(size=6))
    assert np.max(np.abs(m.m @ m.m_inv - np.eye(6))) < 1e-6


def test_mahalanobis_examples_and_solve_oracle():
    m = DesignMatrix(2, 1.0)
    assert m.inv_quad_rows(np.array([[1.0, 0.0]]))[0] == 1.0

    m4 = DesignMatrix(2, 1.0)
    m4.m = np.diag([4.0, 1.0])
    m4.refactor()
    assert abs(math.sqrt(m4.inv_quad_rows(np.array([[2.0, 0.0]]))[0]) - 1.0) < 1e-12

    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        spd = a @ a.T + np.eye(5)
        dm = DesignMatrix(5, 1.0)
        dm.m = spd
        dm.refactor()
        v = rng.normal(size=5)
        oracle = math.sqrt(v @ np.linalg.solve(spd, v))
        assert abs(math.sqrt(dm.inv_quad_rows(v[None])[0]) - oracle) < 1e-9


def test_inv_quad_rows_matches_scalar():
    rng = np.random.default_rng(21)
    dm = DesignMatrix(3, 0.3)
    for _ in range(10):
        dm.update(rng.normal(size=3))
    rows = rng.normal(size=(7, 3))
    vals = dm.inv_quad_rows(rows)
    for i in range(7):
        oracle = math.sqrt(rows[i] @ np.linalg.solve(dm.m, rows[i]))
        assert abs(math.sqrt(vals[i]) - oracle) < 1e-10

