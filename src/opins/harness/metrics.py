"""Residual metrics shared by every solver comparison.

Two scale-independent measures: the residual of x within null(B), relative
to the projected right-hand side (``OpinsSetup.relres_x``), and the residual
of the whole system relative to its right-hand side (``relres_full``).
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

from ..driver import relres_full

__all__ = ["MetricsRecord", "relres_full"]


@dataclass
class MetricsRecord:
    relres_x: float
    relres_full: float
    constraint_residual: float
    norm_x: float
    norm_y: float
    iterations: int
    wall_time: float
    status: str

    def as_dict(self):
        return asdict(self)
