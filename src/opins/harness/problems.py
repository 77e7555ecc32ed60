"""Test-problem descriptions and seeded generators.

Three generator kinds are registered:

* ``random``    -- symmetric indefinite A (symmetrized Gaussian) with a dense
                   full-rank B; nonsingular KKT system.
* ``random-s``  -- A = C C^T of prescribed rank (semidefinite), dense B, and
                   f built as A x0 + B^T y0 so the system is compatible by
                   construction; singular KKT system.  ``b_rank < m``
                   duplicates constraint rows to make B rank-deficient.
* ``scaled``    -- a base system with (A, f) multiplied by sigma.

File-backed problems load Matrix Market matrices; when only A is given, B is
a seeded dense full-rank block and missing right-hand sides are generated by
multiplying the system matrix with a random vector, so they stay compatible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..driver import SaddleSystem
from .mmio import load_matrix_market, load_vector

__all__ = ["ProblemSpec", "generate_problem", "problem_from_files", "build_system"]

GENERATOR_KINDS = ("random", "random-s", "scaled")

# defaults: a generated n and m (m also sizes a file problem's B), random-s's rank of A
N, M, A_RANK = 100, 20, 50


@dataclass
class ProblemSpec:
    """A named test case: either file paths (``path_a`` with the other
    parameters of ``problem_from_files``) or a registered generator
    (``kind``, ``seed``, ``params``).  A source key nothing reads, such as
    ``m`` beside a ``path_b``, raises ``ValueError``.  ``a_symmetric`` None
    means as the source says: True for the generators, False for files."""

    name: str
    source: dict = field(default_factory=dict)
    declared_singular: bool = False
    a_symmetric: Optional[bool] = None

    def __post_init__(self):
        src, kind = self.source, self.source.get("kind")
        if "path_a" not in src and kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        read = {"kind", "seed", "params"}
        if "path_a" in src:
            read = {"path_a", "path_b", "path_f", "path_g", "seed"}
            if src.get("path_b") is None:
                read.add("m")  # m sizes a generated B
        if set(src) - read:
            raise ValueError(f"source keys nothing reads: {sorted(set(src) - read)}")


def generate_problem(kind, seed, params=None):
    """Build a SaddleSystem from a registered generator.

    ``params`` accepts ``n`` (default ``N``), ``m`` (default ``M``), plus
    per-kind extras: ``a_rank`` (default ``A_RANK``) and ``b_rank`` (default
    m) for ``random-s``; ``sigma`` and ``base`` (a nested ``(kind, params)``
    pair) for ``scaled``.
    """
    params = dict(params or {})
    if kind == "scaled":
        if "sigma" not in params:
            raise ValueError("scaled generator needs params['sigma']")
        sigma = float(params.pop("sigma"))
        base_kind, base_params = params.pop("base", ("random-s", None))
        if params:
            raise ValueError(f"unexpected params {sorted(params)}")
        base = generate_problem(base_kind, seed, base_params)
        return SaddleSystem(a=sigma * base.a, b=base.b, f=sigma * base.f,
                            g=base.g, a_symmetric=base.a_symmetric)
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    n = int(params.pop("n", N))
    m = int(params.pop("m", M))
    if kind == "random-s":
        a_rank = int(params.pop("a_rank", A_RANK))
        b_rank = int(params.pop("b_rank", m))
    if params:
        raise ValueError(f"unexpected params {sorted(params)}")
    rng = np.random.default_rng(seed)
    if kind == "random":
        raw = rng.standard_normal((n, n))
        a = (raw + raw.T) / 2.0
        b = rng.standard_normal((m, n)) / np.sqrt(n)
        return SaddleSystem(a=a, b=b, f=rng.standard_normal(n), g=rng.standard_normal(m),
                            a_symmetric=True)
    if not 0 < b_rank <= m:
        raise ValueError("b_rank must be in 1..m")
    c = rng.standard_normal((n, a_rank))
    a = c @ c.T
    b_rows = rng.standard_normal((b_rank, n)) / np.sqrt(n)
    if b_rank < m:
        copies = b_rows[rng.integers(0, b_rank, size=m - b_rank)]
        b = np.vstack([b_rows, copies])
    else:
        b = b_rows
    x0 = rng.standard_normal(n)
    f = a @ x0 + b.T @ rng.standard_normal(m)
    return SaddleSystem(a=a, b=b, f=f, g=b @ rng.standard_normal(n), a_symmetric=True)


def problem_from_files(path_a, path_b=None, path_f=None, path_g=None,
                       m=M, seed=0, a_symmetric=False):
    """Assemble a SaddleSystem from Matrix Market files.

    Missing B: a seeded dense full-rank m-by-n block.  Missing f or g:
    generated from a seeded random solution vector so the right-hand side is
    compatible.
    """
    a = load_matrix_market(path_a)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"A must be square, got {a.shape}")
    rng = np.random.default_rng(seed)
    if path_b is not None:
        b = load_matrix_market(path_b)
    else:
        b = rng.standard_normal((m, n)) / np.sqrt(n)
    if path_f is not None:
        f = load_vector(path_f)
        g = load_vector(path_g) if path_g is not None else b @ rng.standard_normal(n)
    else:
        x0 = rng.standard_normal(n)
        y0 = rng.standard_normal(b.shape[0])
        f = a @ x0 + b.T @ y0
        g = b @ x0 if path_g is None else load_vector(path_g)
    return SaddleSystem(a=a, b=b, f=f, g=g, a_symmetric=a_symmetric)


def build_system(spec):
    """Realize a ProblemSpec into a SaddleSystem, passing on only the keys
    its source holds (seed 0 stands in for a missing one), with the spec's
    ``a_symmetric`` when it is not None."""
    src = dict(spec.source)
    seed = src.pop("seed", 0)
    if "path_a" in src:
        sys = problem_from_files(**src, seed=seed)
    else:
        sys = generate_problem(src["kind"], seed, src.get("params"))
    if spec.a_symmetric is not None:
        sys.a_symmetric = spec.a_symmetric
    return sys
