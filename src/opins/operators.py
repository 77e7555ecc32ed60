"""Light-weight linear operator contract shared by the solvers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["LinearOperator"]


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

