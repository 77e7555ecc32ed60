"""Matrix helpers shared by the driver and the tests.

Matrices are plain ``numpy`` arrays or ``scipy.sparse`` matrices; products
use ``@`` directly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["frobenius_norm"]


def frobenius_norm(mat):
    if sp.issparse(mat):
        return float(np.linalg.norm(mat.data)) if mat.nnz else 0.0
    return float(np.linalg.norm(np.asarray(mat)))
