"""Multi-indices, monomial moments on S^{d-1} in R^d, and Gauss-Legendre panels.

Everything here is elementary infrastructure shared by the model-operator
modules: graded-lexicographic multi-index enumeration, the classical closed
form for monomial moments over the sphere, and Gauss-Legendre panels on
intervals for the radial integrals.

Conventions
-----------
* ``d`` is always the ambient dimension, so the sphere is S^{d-1} in R^d.
* Multi-indices are tuples of non-negative integers of length ``d``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UnsupportedDimensionError

__all__ = [
    "multi_indices",
    "multi_indices_upto",
    "sphere_monomial_integral",
    "homogeneous_dimension",
    "panel_nodes",
]


def homogeneous_dimension(d: int, n: int) -> int:
    """Number of monomials of total degree ``n`` in ``d`` variables."""
    return math.comb(n + d - 1, d - 1)


@lru_cache(maxsize=None)
def multi_indices(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices in ``d`` variables of total degree exactly ``n``.

    Ordered graded-lexicographically within the fixed degree: the first
    component decreases first, i.e. (n,0,...), (n-1,1,0,...), ..., (0,...,n).
    """
    if d < 1:
        raise UnsupportedDimensionError(f"need d >= 1, got d={d}")
    if n < 0:
        return ()
    if d == 1:
        return ((n,),)
    out = []
    for first in range(n, -1, -1):
        for rest in multi_indices(d - 1, n - first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def multi_indices_upto(d: int, n_max: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices of degree 0..n_max, graded-lexicographic order."""
    out = []
    for n in range(n_max + 1):
        out.extend(multi_indices(d, n))
    return tuple(out)


@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def panel_nodes(edges, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on consecutive panels [e_k, e_{k+1}]."""
    t, w = _gauss_legendre(order)
    edges = np.asarray(edges, float)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mid[:, None] + half[:, None] * t[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def sphere_monomial_integral(alpha: tuple[int, ...]) -> float:
    """Closed form of the moment  integral_{S^{d-1}} u^alpha dS(u).

    Vanishes unless every entry of ``alpha`` is even, in which case it equals
    2 * prod Gamma((alpha_i+1)/2) / Gamma((|alpha|+d)/2).
    """
    if any(a % 2 for a in alpha):
        return 0.0
    d = len(alpha)
    num = 2.0
    for a in alpha:
        num *= math.gamma((a + 1) / 2.0)
    return num / math.gamma((sum(alpha) + d) / 2.0)
