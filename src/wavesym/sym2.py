"""Closed-form algebra of real symmetric 2x2 operators.

A value is stored as (t, p, q) for the matrix

    [[t/2 + p, q      ],
     [q,       t/2 - p]]

so the trace part t and the traceless part (p, q) never mix.  With the
metric (A, B) = tr(A B)/2 the traceless part has norm sqrt(p^2 + q^2) and
the eigenvalues are t/2 -+ that norm.  Everything here is exact closed
form; iterative eigensolvers appear only as oracles in the test suite.

The complex representation packs a symbol (a linear map from covectors to
traceless operators) into two complex numbers (u, w): the covector
xi = e^{i phi} goes to p + i q = (u xi + w conj(xi)) / sqrt(2) = M xi.
So det M = (|u|^2 - |w|^2) / 2, |M|_F^2 = |u|^2 + |w|^2, and |M xi| is
least on the line e^{2 i phi} = -conj(u) w / |u w|.  Rotating the
underlying plane by theta acts as u -> e^{i theta} u, w -> e^{3 i theta} w
and turns that line by theta, which is what makes winding numbers of
kernel lines computable by hand.
"""

from __future__ import annotations

import math

import numpy as np


def eigenvalues_grid(t: np.ndarray, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ordered eigenvalues (lam1 <= lam2) = t/2 -+ sqrt(p^2 + q^2) of arrays of (t, p, q)."""
    half = np.asarray(t, dtype=float) / 2.0
    n = np.hypot(p, q)
    return half - n, half + n


def kernel_angle(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Angle in [0, pi) of the covector line where |M xi| is least:
    half the argument of -conj(u) w, modulo pi."""
    ur, ui, wr, wi = u.real, u.imag, w.real, w.imag
    ang = np.mod(0.5 * np.arctan2(ui * wr - ur * wi, -(ur * wr + ui * wi)), math.pi)
    return np.where(ang == math.pi, 0.0, ang)
