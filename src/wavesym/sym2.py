"""Closed-form algebra of real symmetric 2x2 operators.

A value is stored as (t, p, q) for the matrix

    [[t/2 + p, q      ],
     [q,       t/2 - p]]

so the trace part t and the traceless part (p, q) never mix.  With the
metric (A, B) = tr(A B)/2 the traceless part has norm sqrt(p^2 + q^2) and
the eigenvalues are t/2 -+ that norm.  Everything here is exact closed
form; iterative eigensolvers appear only as oracles in the test suite.

The complex representation packs a symbol (a linear map from covectors to
traceless operators) into two complex numbers (u, w).  Rotating the
underlying plane by theta acts as u -> e^{i theta} u, w -> e^{3 i theta} w,
which is what makes winding numbers of kernel lines computable by hand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MultiplePoint

SQRT2 = math.sqrt(2.0)
# largest off-diagonal mismatch from_matrix accepts, relative to max(1, max |entry|)
SYM_TOL = 1e-12


def mod_pi(theta: float) -> float:
    """Reduce a line angle to [0, pi)."""
    out = math.fmod(theta, math.pi)
    if out < 0.0:
        out += math.pi
    return 0.0 if out == math.pi else out


@dataclass(frozen=True)
class Sym2Value:
    """Symmetric operator (t, p, q) = [[t/2 + p, q], [q, t/2 - p]]."""

    t: float
    p: float
    q: float

    def matrix(self) -> np.ndarray:
        h = self.t / 2.0
        return np.array([[h + self.p, self.q], [self.q, h - self.p]])


def from_matrix(mat: np.ndarray) -> Sym2Value:
    """Split a symmetric 2x2 matrix into trace and traceless parts."""
    m = np.asarray(mat, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    scale = max(1.0, float(np.abs(m).max()))
    if abs(m[0, 1] - m[1, 0]) > SYM_TOL * scale:
        raise ValueError("matrix is not symmetric")
    q = 0.5 * (m[0, 1] + m[1, 0])
    return Sym2Value(t=m[0, 0] + m[1, 1], p=0.5 * (m[0, 0] - m[1, 1]), q=q)


def eigenvalues(s: Sym2Value) -> tuple[float, float]:
    """Ordered eigenvalues (lam1 <= lam2) = t/2 -+ sqrt(p^2 + q^2)."""
    half = s.t / 2.0
    n = math.hypot(s.p, s.q)
    return half - n, half + n


def eigenvalues_grid(t: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized eigenvalues for arrays of (t, p, q); same closed form."""
    half = np.asarray(t, dtype=float) / 2.0
    n = np.hypot(p, q)
    return half - n, half + n


def eigenline_angles(s: Sym2Value) -> tuple[float, float]:
    """Line angles (theta1, theta2) in [0, pi) of the eigenvectors.

    theta2 = arg(p + i q)/2 is the eigenline of the larger eigenvalue;
    theta1 sits a quarter turn away.  Raises MultiplePoint when p = q = 0,
    since then every line is an eigenline.
    """
    if s.p == 0.0 and s.q == 0.0:
        raise MultiplePoint("traceless part vanishes; eigenlines undefined")
    theta2 = mod_pi(0.5 * math.atan2(s.q, s.p))
    theta1 = mod_pi(theta2 + math.pi / 2.0)
    return theta1, theta2


def rotate_conjugate(s: Sym2Value, theta: float) -> Sym2Value:
    """Conjugate by the rotation R_theta: trace fixed, (p, q) turned by 2 theta."""
    c = math.cos(2.0 * theta)
    sn = math.sin(2.0 * theta)
    return Sym2Value(t=s.t, p=c * s.p - sn * s.q, q=sn * s.p + c * s.q)


@dataclass(frozen=True)
class ComplexRep:
    """Complex pair (u, w): u carries the degree-1 part, w the degree-3 part."""

    u: complex
    w: complex


@dataclass(frozen=True)
class LinearSymbol2:
    """Coefficient matrix M with rows (a1, b1), (a2, b2).

    M maps a covector xi = (xi1, xi2) to the traceless components
    (p, q) = M xi of the operator the symbol assigns to xi.
    """

    m11: float
    m12: float
    m21: float
    m22: float

    def apply(self, xi1: float, xi2: float) -> Sym2Value:
        return Sym2Value(
            t=0.0,
            p=self.m11 * xi1 + self.m12 * xi2,
            q=self.m21 * xi1 + self.m22 * xi2,
        )

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def matrix(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])

    def frobenius(self) -> float:
        return math.sqrt(self.m11**2 + self.m12**2 + self.m21**2 + self.m22**2)


def rep_to_matrix(r: ComplexRep) -> LinearSymbol2:
    """Unpack (u, w) into the coefficient matrix.

    Column 1 (the xi1 slot) is p + i q = (u + w)/sqrt(2); column 2 is
    r + i s = i (u - w)/sqrt(2).  The 1/sqrt(2) stays explicit.
    """
    pq = (r.u + r.w) / SQRT2
    rs = 1j * (r.u - r.w) / SQRT2
    return LinearSymbol2(m11=pq.real, m12=rs.real, m21=pq.imag, m22=rs.imag)


def matrix_to_rep(m: LinearSymbol2) -> ComplexRep:
    """Inverse of rep_to_matrix."""
    pq = complex(m.m11, m.m21)
    rs = complex(m.m12, m.m22)
    return ComplexRep(u=(pq - 1j * rs) / SQRT2, w=(pq + 1j * rs) / SQRT2)


def rotate_rep(r: ComplexRep, theta: float) -> ComplexRep:
    """Rotation action on the complex pair: (u, w) -> (e^{i t} u, e^{3 i t} w)."""
    return ComplexRep(
        u=complex(math.cos(theta), math.sin(theta)) * r.u,
        w=complex(math.cos(3.0 * theta), math.sin(3.0 * theta)) * r.w,
    )


class Invertibility(NamedTuple):
    invertible: bool
    margin: float


def is_invertible(r: ComplexRep) -> Invertibility:
    """Whether the symbol is invertible, with margin |u|^2 - |w|^2.

    The margin equals twice the determinant of rep_to_matrix(r); in
    particular it vanishes exactly when the coefficient matrix is
    singular.
    """
    margin = (r.u.real**2 + r.u.imag**2) - (r.w.real**2 + r.w.imag**2)
    return Invertibility(invertible=margin != 0.0, margin=margin)
