"""Light-weight linear operator contract shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

__all__ = ["LinearOperator", "aslinearoperator"]


@dataclass(frozen=True)
class LinearOperator:
    """A square 'apply to vector' map of dimension ``dim``.

    Linearity is a contract of ``apply``, spot-checkable on random probes.
    Symmetry is not recorded; the caller picks a solver that suits the map.
    """

    dim: int
    apply: Callable[[np.ndarray], np.ndarray]

    def __call__(self, v):
        return self.apply(v)


def aslinearoperator(mat):
    """Wrap a dense or sparse square matrix as a LinearOperator."""
    n, m = mat.shape
    if n != m:
        raise ValueError(f"operator must be square, got {mat.shape}")
    if sp.issparse(mat):
        return LinearOperator(dim=n, apply=lambda v: mat @ v)
    arr = np.asarray(mat, dtype=float)
    return LinearOperator(dim=n, apply=lambda v: arr @ v)
