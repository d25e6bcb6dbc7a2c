"""Approximate barycentric spanner of the key-term feature set.

A size-d subset of key-terms whose features form a basis such that every
key-term feature is a linear combination of the basis with coefficients
bounded by the approximation factor C.  Queries drawn from the spanner are
regret-free exploration: they excite every direction of the feature space.

Construction is the classic determinant-swap procedure: start from a basis
found by pivoted elimination, then replace a member whenever some key-term
would grow |det| by more than a factor of C, until no swap applies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, StructuralError

__all__ = ["Spanner", "build_spanner"]

# The approximation factor C, and the pivot size relative to the first pivot
# below which the features are declared rank-deficient.
_APPROX_FACTOR = 2.0
_RANK_TOL = 1e-9


@dataclass(frozen=True)
class Spanner:
    member_ids: tuple  # d key-term ids
    basis: np.ndarray  # d x d, column i is the feature of member_ids[i]


def _pivoted_basis(features: np.ndarray) -> list:
    """Select d independent rows by modified Gram-Schmidt with pivoting.

    Pivot: largest residual norm, ties to the lowest id.  Raises if the set
    does not span, reporting the achieved rank.
    """
    n, d = features.shape
    residual = features.astype(float).copy()
    chosen: list[int] = []
    first_pivot = None
    for step in range(d):
        norms = np.linalg.norm(residual, axis=1)
        norms[chosen] = -1.0
        k = int(np.argmax(norms))
        pivot = norms[k]
        if first_pivot is None:
            first_pivot = pivot
        if pivot <= _RANK_TOL * max(first_pivot, 1.0):
            raise StructuralError(
                f"key-term features span only rank {step} of {d} dimensions"
            )
        chosen.append(k)
        u = residual[k] / pivot
        residual -= np.outer(residual @ u, u)
    return chosen


def build_spanner(keyterm_features) -> Spanner:
    """C-approximate barycentric spanner of the rows of ``keyterm_features``,
    with C = 2: every row is a combination of the members with coefficients
    in [-2, 2].

    Deterministic: candidates are scanned in id order and the lowest-id
    improving swap is taken first.  Terminates because each swap multiplies
    |det(basis)| by more than C > 1.
    """
    features = np.asarray(keyterm_features, dtype=float)
    if features.ndim != 2:
        raise StructuralError("key-term features must be a 2-d array")
    n, d = features.shape
    if n < d:
        raise StructuralError(f"need at least {d} key-terms, got {n}")

    members = _pivoted_basis(features)
    basis = features[members].T

    # Swap loop: coefficient of key-term k in slot i is (basis^-1 x_k)_i, and
    # replacing slot i by k scales det by exactly that coefficient.
    max_swaps = 64 * d * max(int(np.log2(n + 1)), 1) + 256
    for _ in range(max_swaps):
        coef = np.linalg.solve(basis, features.T)  # d x n
        over = np.abs(coef).T > _APPROX_FACTOR  # n x d, scan ids first
        hits = np.argwhere(over)
        if hits.size == 0:
            return Spanner(tuple(int(m) for m in members), basis)
        k, slot = int(hits[0, 0]), int(hits[0, 1])
        members[slot] = k
        basis = features[members].T
    raise NumericalError("spanner swap loop failed to terminate")

