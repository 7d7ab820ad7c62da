"""The model operator on the transverse sphere: roots, jets, eigendistributions.

The radial model of the cusp transfers, mode by mode, to the operator

    P f = h sin(phi) d_phi f + (lambda + h d/2 + h A) cos(phi) f

on S^d, whose generalized boundary spectrum ("indicial roots") is the pair of
affine families  lambda = +-h [s - A + (d/2 + n)], n = 0, 1, 2, ...  The plus
family is spanned by Dirac-type jets at the regular pole N; the minus family
by homogeneous distributions anchored at the opposite pole S (handled by the
:mod:`cuspflow.hadamard` module).  When a plus root and a minus root of equal
parity collide, the two families merge into an index-2 Jordan block.

:class:`RootTable` is the one home of this root geometry: every module that
enumerates, locates or compares indicial roots asks it, in the normalized
variable w = lambda / h (root (sign, n) at w = sign (s - A + d/2 + n)).

An eigendistribution (:class:`DistributionRep`) is one record of two parts,
a jet functional at N and the homogeneous family at S.  A plus root has the
jet part only, a minus root the south part only; at an index-2 root the
south part is the family's finite part at its pole and the jet part a
correction, together the Jordan vector.  This module also provides a
numerical cross-check of the root structure by a finite triangular jet
matrix, and the endpoint exponents of the reduced mode-m equation
(:func:`mode_exponents`), which the resolvent solve in
:mod:`cuspflow.bcontinuation` uses.  The second, ODE-shooting cross-check
per angular mode lives with the test oracles in ``tests/_oracles.py``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from ._jets import delta_in_volume_basis, transpose_matrix_on_volume_jets
from ._sphere import homogeneous_dimension, multi_indices
from .errors import ValidationError

__all__ = [
    "ModelOperator",
    "IndicialRoot",
    "RootLocation",
    "RootTable",
    "DistributionRep",
    "indicial_roots",
    "eigendistribution",
    "numeric_roots_jet",
    "jet_matrix",
    "mode_exponents",
]

_INT_TOL = 1e-12
_COINCIDENT = 1e-10  # roots closer than this form one location


@dataclass(frozen=True)
class ModelOperator:
    """Parameters of the transverse model operator.

    d     : dimension of the sphere factor (>= 1)
    h     : the small parameter scaling the vector field (> 0, default 1)
    lam   : the spectral weight lambda (complex)
    A     : optional scalar shift (irreducible bundle case reduces to a
            scalar by Schur's lemma); 0 for the scalar problem
    """

    d: int
    h: float = 1.0
    lam: complex = 0.0
    A: complex = 0.0

    def __post_init__(self):
        if self.d < 1:
            raise ValidationError(f"need d >= 1, got d={self.d}")
        if not self.h > 0:
            raise ValidationError(f"need h > 0, got h={self.h}")


@dataclass(frozen=True)
class IndicialRoot:
    """One affine root  lambda_k(s) = a * s + b  of the model family.

    sign: branch (+1 Dirac-jet family at N, -1 homogeneous family at S)
    n:    level (polynomial degree of the angular factor)
    a:    slope, +- h
    b:    intercept, sign * h * (d/2 + n - A)
    multiplicity: dimension of degree-n homogeneous polynomials in d variables
    jordan_index: 2 exactly at an equal-parity collision of the two branches
    """

    sign: int
    n: int
    a: float
    b: complex
    multiplicity: int
    jordan_index: int

    def lambda_at(self, s: complex) -> complex:
        return self.a * s + self.b


@dataclass
class DistributionRep:
    """A generalized eigendistribution at lambda = ``lam``: a jet part at the
    pole N plus an optional south part anchored at S.

    jet_dict   : the jet part, a volume-jet functional {mu: coeff}; empty for
                 a pure south family.  It pairs exactly (no quadrature).
    k, upsilon : the south part, the degree-k homogeneous family with angular
                 polynomial ``upsilon`` (None for a pure jet); it pairs by the
                 regularized radial integral of :mod:`cuspflow.hadamard`.
    finite_part: the south part is the finite part of the family at its pole
                 ``lam``, so jet and south part together are the Jordan
                 vector of an index-2 block.

    :func:`cuspflow.hadamard.pair_distribution` pairs it with a test function.
    """

    d: int
    h: float
    lam: complex
    eigenvalue: complex
    jet_dict: dict = field(default_factory=dict)
    k: int | None = None
    upsilon: tuple | None = None
    finite_part: bool = False


# ---------------------------------------------------------------------------
# Exact root tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootLocation:
    """One point of the root table with every root (sign, n) sitting there.

    value is in w = lambda / h units (the value of the first member);
    members lists the (sign, n) pairs in table order, minus branch first.
    """

    value: complex
    members: tuple


class RootTable:
    """The indicial roots at one s: the one home of the root geometry.

    Root (sign, n) sits at  w = sign (s - A + d/2 + n)  in the normalized
    variable w = lambda / h, the unit of every contour abscissa, circle and
    residue location in :mod:`cuspflow.bcontinuation`; :meth:`root` gives the
    affine lambda-form of the displayed family.  Roots closer than 1e-10
    share one :class:`RootLocation`, since a contour sees them as one point.
    """

    def __init__(self, op: ModelOperator, s: complex):
        self.op = op
        self.base = complex(s) - complex(op.A) + op.d / 2.0
        # the branches collide at levels (n, p) exactly when n + p = level_sum
        self.level_sum = -2.0 * (complex(s) - complex(op.A)) - op.d
        if not cmath.isfinite(self.level_sum):
            raise ValidationError(
                f"the level sum -2(s - A) - d = {self.level_sum} at s={complex(s)}, "
                f"A={op.A} is not finite")

    def value(self, sign: int, n: int) -> complex:
        """Root (sign, n) in w units."""
        return sign * (self.base + n)

    def root(self, sign: int, n: int) -> IndicialRoot:
        """Root (sign, n) as lambda = a s + b, with multiplicity and Jordan index."""
        op = self.op
        return IndicialRoot(
            sign=sign,
            n=n,
            a=float(sign * op.h),
            b=complex(sign * op.h * (op.d / 2.0 + n - complex(op.A))),
            multiplicity=homogeneous_dimension(op.d, n),
            jordan_index=1 if self.partner(n) is None else 2,
        )

    def roots(self, n_max: int) -> list[IndicialRoot]:
        """Levels 0..n_max of both branches, sorted by (sign, n)."""
        return [self.root(sign, n) for sign in (-1, 1) for n in range(n_max + 1)]

    def partner(self, n: int) -> int | None:
        """Level of the opposite-branch root forming a Jordan block with level n.

        The two branches collide at level pair (n, p) exactly when
        2(s - A) + d + n + p = 0; the collision produces an index-2 block only
        when additionally n and p have equal parity (odd-gap collisions couple
        angular factors of opposite parity, whose sphere integrals vanish, and
        the block stays semisimple).
        """
        p = self.level_sum - n
        if abs(p.imag) > _INT_TOL:
            return None
        pr = round(p.real)
        if abs(p.real - pr) > _INT_TOL or pr < 0 or (n - pr) % 2 != 0:
            return None
        return int(pr)

    def collision(self, guard: float) -> int | None:
        """The even level sum n + p of an equal-parity branch collision at s.

        Equal-parity collisions need t = -2(s - A) - d to be an even integer
        >= 0.  Returns that integer when t is within ``guard`` of it (2 guard
        on the real part), else None.
        """
        t = self.level_sum
        if abs(t.imag) > guard:
            return None
        t_even = 2.0 * round(t.real / 2.0)
        if t_even < 0 or abs(t.real - t_even) >= 2.0 * guard:
            return None
        return int(t_even)

    def _levels_near(self, sign: int, x: float, spread: float) -> range:
        """Levels that can hold a root (sign, n) with |Re w - x| <= spread,
        or the nearest ones when none can, padded by one against rounding."""
        t = max(sign * x - self.base.real, 0.0)  # Re w - x = sign (n - t)
        return range(max(0, math.floor(t - spread) - 1), math.floor(t + spread) + 2)

    def nearest(self, w: complex) -> tuple:
        """(sign, n, value, distance) of the root closest to w."""
        best = None
        for sign in (-1, 1):
            t = sign * w - self.base  # |w - value| = |t - n|
            for n in self._levels_near(sign, complex(w).real, 0.5):
                dist = abs(t - n)
                if best is None or dist < best[3]:
                    best = (sign, n, self.value(sign, n), dist)
        return best

    def _locations(self, x: float, spread: float, keep) -> list[RootLocation]:
        """The roots near Re w = x whose value passes ``keep``, with roots
        closer than 1e-10 merged into one location."""
        groups: list[tuple] = []
        for sign in (-1, 1):
            for n in self._levels_near(sign, x, spread):
                val = self.value(sign, n)
                if not keep(val):
                    continue
                for head, members in groups:
                    if abs(val - head) < _COINCIDENT:
                        members.append((sign, n))
                        break
                else:
                    groups.append((val, [(sign, n)]))
        return [RootLocation(value=v, members=tuple(m)) for v, m in groups]

    def in_disc(self, w0: complex, radius: float) -> list[RootLocation]:
        """The root locations whose roots satisfy |w - w0| <= radius."""
        w0 = complex(w0)
        return self._locations(w0.real, radius, lambda w: abs(w - w0) <= radius)

    def strip(self, lo: float, hi: float) -> list[RootLocation]:
        """The root locations with lo < Re w < hi."""
        return self._locations(
            (lo + hi) / 2.0, (hi - lo) / 2.0, lambda w: lo < w.real < hi
        )

    def abscissa_gap(self, rho: float, signs=(-1, 1), beyond: float = -1.0) -> float:
        """Smallest |Re w - rho| over the roots of the branches ``signs``,
        counting only gaps larger than ``beyond`` (which must be < 1/2)."""
        best = math.inf
        for sign in signs:
            for n in self._levels_near(sign, rho, 1.0):
                gap = abs(sign * (self.base.real + n) - rho)
                if beyond < gap < best:
                    best = gap
        return best

    def visible(self) -> range:
        """Levels n whose plus root has Re w < 0 (and so minus root Re w > 0)."""
        return range(max(0, math.ceil(-self.base.real)))


def indicial_roots(op: ModelOperator, s: complex, n_max: int) -> list[IndicialRoot]:
    """The exact affine roots lambda = +-h[s - A + (d/2 + n)], n = 0..n_max.

    Returned sorted by (sign, n): the minus branch first.  multiplicity is
    the count of degree-n monomials in d variables; jordan_index is 2 exactly
    when the opposite branch collides at equal parity (RootTable.partner).
    """
    if n_max < 0:
        raise ValidationError(f"need n_max >= 0, got {n_max}")
    return RootTable(op, s).roots(n_max)


# ---------------------------------------------------------------------------
# Eigendistributions
# ---------------------------------------------------------------------------


def eigendistribution(root: IndicialRoot, op: ModelOperator, selector) -> DistributionRep:
    """A DistributionRep D with (P - hs) D = 0 weakly (or (P - hs)^2 D = 0
    at a jordan_index-2 root), hs being fixed by the root relation at op.lam.

    selector: a multi-index of degree root.n (plus branch); on the minus
    branch, a multi-index (a tuple of ints) or a coefficient vector over the
    degree-root.n monomials (anything else).
    """
    d, h, n = op.d, op.h, root.n
    south = root.sign != +1
    if south and op.A != 0:
        raise ValidationError(
            "south-branch eigendistributions are implemented for A = 0 "
            "(the scalar problem); the jet branch supports any scalar A"
        )
    mu = None
    if not south or (isinstance(selector, tuple)
                     and all(isinstance(v, (int, np.integer)) for v in selector)):
        try:
            mu = tuple(selector)
        except TypeError:
            raise ValidationError(
                f"selector {selector!r} is not a multi-index: the plus branch "
                f"needs {d} nonnegative ints summing to n={n}") from None
        if len(mu) != d or sum(mu) != n or any(v < 0 for v in mu):
            raise ValidationError(f"selector {mu} inconsistent with root level n={n} in d={d}")
    if not south:
        lam_eff = op.lam + h * op.A
        return DistributionRep(d=d, h=h, lam=op.lam, eigenvalue=lam_eff - h * (n + d / 2.0),
                               jet_dict=delta_in_volume_basis(d, h, lam_eff, mu))

    k = n
    dim = homogeneous_dimension(d, k)
    if mu is not None:
        coeffs = [0.0] * dim
        coeffs[multi_indices(d, k).index(mu)] = 1.0
        upsilon = tuple(coeffs)
    else:
        upsilon = tuple(complex(c) for c in np.atleast_1d(selector))
        if len(upsilon) != dim:
            raise ValidationError(
                f"selector length {len(upsilon)} != dim of degree-{k} "
                f"polynomials in {d} variables ({dim})"
            )
    if root.jordan_index == 2:
        from . import hadamard

        # The block sits at lam0 = h(j-k)/2, so j = 2 lam/h + k; the crossing
        # is located in w = lambda/h units.
        j = int(round((2 * op.lam / h + k).real))
        lam0 = h * (j - k) / 2.0
        if abs(op.lam - lam0) > 1e-9 * h:
            raise ValidationError(
                f"op.lam={op.lam} is not at the crossing value {lam0} "
                f"for the (j={j}, k={k}) Jordan block"
            )
        return hadamard.jordan_vector(j, k, upsilon, op)
    return DistributionRep(d=d, h=h, lam=op.lam, eigenvalue=-op.lam - h * (k + d / 2.0),
                           k=k, upsilon=upsilon)


# ---------------------------------------------------------------------------
# Numeric cross-check: the triangular jet matrix
# ---------------------------------------------------------------------------


def jet_matrix(op: ModelOperator, K: int, exact: bool = False):
    """(basis, matrix) of the transposed operator on jets of order <= K.

    Upper triangular in graded-ascending order with parity-preserving
    couplings; diagonal entries  lambda + hA - h(|mu| + d/2).
    """
    if K < 0:
        raise ValidationError(f"need K >= 0, got {K}")
    if exact:
        from fractions import Fraction

        if abs(complex(op.lam).imag) > 0 or abs(complex(op.A).imag) > 0:
            raise ValidationError("exact jet matrix requires real lambda and A")
        return transpose_matrix_on_volume_jets(
            op.d,
            Fraction(op.h).limit_denominator(10**12),
            Fraction(complex(op.lam).real).limit_denominator(10**12),
            Fraction(complex(op.A).real).limit_denominator(10**12),
            K,
        )
    return transpose_matrix_on_volume_jets(op.d, float(op.h), op.lam, op.A, K)


def numeric_roots_jet(op: ModelOperator, K: int) -> np.ndarray:
    """Eigenvalues of the finite jet matrix (values of hs hit by jets).

    The returned values must reproduce  hs = lambda + hA - h(n + d/2) for
    n = 0..K, with multiplicities.
    """
    _, M = jet_matrix(op, K, exact=False)
    eig = np.linalg.eigvals(M)
    return eig[np.lexsort((eig.imag, -eig.real))]


# ---------------------------------------------------------------------------
# Endpoint exponents of the reduced mode equation (numeric cross-check 2,
# the mode-by-mode shooting, is in tests/_oracles.py)
# ---------------------------------------------------------------------------


def mode_exponents(op: ModelOperator, s: complex, m: int, lam):
    """(c, e, a+, a-) of the reduced mode-m equation; ``lam`` may be an array.

    In x = cos(phi) the mode-m equation (P - hs) w = 0 reads
    -h (1-x^2) w' + h (c x + e) w = 0 with c = lambda/h + d/2 + m and
    e = A - s; its solution behaves like (1-x)^{a+} near x = 1 and
    (1+x)^{a-} near x = -1, with a+ = -(c + e)/2 and a- = (e - c)/2.
    """
    c = lam / op.h + op.d / 2.0 + m
    e = complex(op.A) - complex(s)
    return c, e, -(c + e) / 2.0, (e - c) / 2.0
