"""Residual metrics shared by every solver comparison.

Two scale-independent measures: the residual of x within null(B), relative
to the projected right-hand side, and the residual of the whole system
relative to its right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from ..driver import OpinsSetup, relres_full
from ..projection import Projector

__all__ = ["MetricsRecord", "relres_x", "relres_full"]


@dataclass
class MetricsRecord:
    relres_x: float
    relres_full: Optional[float]
    constraint_residual: float
    norm_x: float
    norm_y: Optional[float]
    iterations: int
    wall_time: float
    status: str

    def as_dict(self):
        return asdict(self)


def relres_x(sys, fact, x_p, x_n):
    """Relative residual of x within null(B), as ``OpinsSetup.relres_x``
    computes it over the projector from the shared factorization: 0.0 for
    the 0/0 case and inf when only the denominator vanishes.
    """
    # the tolerance behind ``fact`` is not known here; no solve reads it
    setup = OpinsSetup(sys, None, Projector(fact), np.asarray(x_p, dtype=float))
    return setup.relres_x(x_n)
