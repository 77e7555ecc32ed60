"""Matrix helpers shared by the driver and the tests.

Matrices are plain ``numpy`` arrays or ``scipy.sparse`` matrices; products
use ``@`` directly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["frobenius_norm"]


def frobenius_norm(mat):
    if sp.issparse(mat):
        return float(spla.norm(mat))
    return float(np.linalg.norm(np.asarray(mat)))
