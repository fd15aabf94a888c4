"""Symmetric quadrature rules on the reference tetrahedron.

The reference element is the unit simplex {x >= 0, x1 + x2 + x3 <= 1}
with volume 1/6.  Rules are generated by the Grundmann-Moller recursion,
which yields fully symmetric rules of any odd polynomial degree; weights
of alternating sign are part of the construction and are harmless here
because every rule is validated against exact monomial integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

#: Degree used for all assembly in this package.  Products of three
#: velocity basis functions (each of degree <= 4, one differentiated)
#: have total degree 11, so this rule integrates every elementwise
#: integrand that couples discrete fields exactly.
DEFAULT_DEGREE = 11


@dataclass(frozen=True)
class TetRule:
    """Quadrature points (cartesian, reference simplex) and weights."""

    degree: int
    points: np.ndarray   # (n_q, 3)
    weights: np.ndarray  # (n_q,), sums to 1/6

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _compositions(total, parts):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for bars in combinations_with_replacement(range(total + 1), parts - 1):
        prev = 0
        comp = []
        for b in bars:
            comp.append(b - prev)
            prev = b
        comp.append(total - prev)
        yield tuple(comp)


def grundmann_moller(index: int) -> TetRule:
    """Grundmann-Moller rule of index s, exact to degree 2s + 1."""
    if index < 0:
        raise ValueError("rule index must be nonnegative")
    n = 3
    s = index
    d = 2 * s + 1
    pts = []
    wts = []
    for i in range(s + 1):
        denom = d + n - 2 * i
        coeff = ((-1) ** i) * 2.0 ** (-2 * s) * denom ** d / (
            math.factorial(i) * math.factorial(d + n - i))
        for k in _compositions(s - i, n + 1):
            bary = np.array([(2 * kj + 1) / denom for kj in k])
            pts.append(bary[1:])  # drop lambda_0; cartesian coords
            wts.append(coeff)
    return TetRule(degree=d, points=np.array(pts), weights=np.array(wts))


def tet_rule(degree: int = DEFAULT_DEGREE) -> TetRule:
    """Smallest Grundmann-Moller rule exact to at least `degree`."""
    s = max(0, math.ceil((degree - 1) / 2))
    return grundmann_moller(s)


def monomial_integral(p: int, q: int, r: int) -> float:
    """Exact value of the integral of x^p y^q z^r over the unit simplex."""
    return (math.factorial(p) * math.factorial(q) * math.factorial(r)
            / math.factorial(p + q + r + 3))
