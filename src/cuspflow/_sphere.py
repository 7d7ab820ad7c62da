"""Multi-index bookkeeping and quadrature on the unit sphere S^{d-1} in R^d.

Everything here is elementary infrastructure shared by the model-operator
modules: graded-lexicographic multi-index enumeration, product Gauss rules on
S^0, S^1 and S^2 that integrate polynomials exactly up to a requested degree,
the classical closed form for monomial moments over the sphere, and
Gauss-Legendre panels on intervals for the radial integrals.

Conventions
-----------
* ``d`` is always the ambient dimension, so the sphere is S^{d-1} in R^d.
* Quadrature weights sum to the surface measure of the sphere
  (2 for S^0, 2*pi for S^1, 4*pi for S^2).
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
    "sphere_quadrature",
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
def sphere_quadrature(d: int, maxdeg: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes and weights on S^{d-1} subset R^d.

    Exact for all polynomials on the sphere of total degree
    <= 2*maxdeg + 2 (the package-wide exactness contract for angular
    integrals of products of degree-``maxdeg`` data).

    Returns
    -------
    (nodes, weights) : nodes of shape (M, d), weights of shape (M,),
    with weights summing to the sphere's surface measure.
    """
    if maxdeg < 0:
        raise ValueError(f"maxdeg must be >= 0, got {maxdeg}")
    target = 2 * maxdeg + 2
    if d == 1:
        nodes = np.array([[1.0], [-1.0]])
        weights = np.array([1.0, 1.0])
        return nodes, weights
    if d == 2:
        m = 2 * target + 4
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(m, 2.0 * math.pi / m)
        return nodes, weights
    if d == 3:
        n_gl = target // 2 + 2
        z, wz = np.polynomial.legendre.leggauss(n_gl)
        m = 2 * target + 4
        phi = 2.0 * math.pi * np.arange(m) / m
        r = np.sqrt(1.0 - z**2)
        cz, sz = np.cos(phi), np.sin(phi)
        nodes = np.column_stack(
            [
                np.outer(r, cz).ravel(),
                np.outer(r, sz).ravel(),
                np.repeat(z, m),
            ]
        )
        weights = np.repeat(wz * (2.0 * math.pi / m), m)
        return nodes, weights
    raise UnsupportedDimensionError(
        f"sphere quadrature implemented for ambient d in {{1,2,3}}, got d={d}"
    )


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
