from itertools import combinations

import numpy as np
import pytest

from conduel.errors import StructuralError
from conduel.spanner import build_spanner


def unit_rows(a):
    a = np.asarray(a, dtype=float)
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def test_standard_basis_with_duplicates():
    feats = np.vstack([np.eye(3), np.eye(3)])
    s = build_spanner(feats)
    assert sorted(s.member_ids) == [0, 1, 2]
    assert abs(abs(np.linalg.det(s.basis)) - 1.0) < 1e-12


def test_coefficient_bound_small_instance():
    feats = unit_rows([[1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
    s = build_spanner(feats)
    for x in feats:
        c = np.linalg.solve(s.basis, x)
        assert np.all(np.abs(c) <= 2.0 + 1e-6)


def test_determinant_near_maximal_by_enumeration():
    # |det(basis)| >= |det(any d-subset)| / C^d on small instances
    rng = np.random.default_rng(0)
    for trial in range(5):
        k = int(rng.integers(6, 12))
        feats = unit_rows(rng.normal(size=(k, 3)))
        s = build_spanner(feats)
        got = abs(np.linalg.det(s.basis))
        best = max(
            abs(np.linalg.det(feats[list(idx)].T)) for idx in combinations(range(k), 3)
        )
        assert got >= best / 2.0 ** 3 - 1e-12


def test_rank_deficient_reports_rank():
    feats = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    with pytest.raises(StructuralError, match="rank 2 of 3"):
        build_spanner(feats)


def test_too_few_keyterms_rejected():
    with pytest.raises(StructuralError):
        build_spanner(np.eye(3)[:2])


def test_coefficients_of_members_are_indicators():
    rng = np.random.default_rng(1)
    feats = unit_rows(rng.normal(size=(9, 4)))
    s = build_spanner(feats)
    for slot, kid in enumerate(s.member_ids):
        c = np.linalg.solve(s.basis, feats[kid])
        expect = np.zeros(4)
        expect[slot] = 1.0
        np.testing.assert_allclose(c, expect, atol=1e-9)
    # linearity: sum of two members
    c = np.linalg.solve(s.basis, feats[s.member_ids[0]] + feats[s.member_ids[1]])
    expect = np.zeros(4)
    expect[[0, 1]] = 1.0
    np.testing.assert_allclose(c, expect, atol=1e-9)


def test_random_keyterm_coefficients_bounded():
    rng = np.random.default_rng(2)
    feats = unit_rows(rng.normal(size=(40, 5)))
    s = build_spanner(feats)
    for x in feats:
        assert np.all(np.abs(np.linalg.solve(s.basis, x)) <= 2.0 + 1e-6)


def test_invariant_under_appended_convex_combinations():
    rng = np.random.default_rng(3)
    feats = unit_rows(rng.normal(size=(12, 3)))
    s1 = build_spanner(feats)
    lam = rng.dirichlet(np.ones(3), size=6)
    extra = lam @ feats[list(s1.member_ids)]
    s2 = build_spanner(np.vstack([feats, extra]))
    assert s1.member_ids == s2.member_ids

