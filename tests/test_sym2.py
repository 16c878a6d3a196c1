import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavesym.errors import MultiplePoint
from wavesym.sym2 import (
    ComplexRep,
    LinearSymbol2,
    Sym2Value,
    eigenline_angles,
    eigenvalues,
    eigenvalues_grid,
    from_matrix,
    is_invertible,
    matrix_to_rep,
    mod_pi,
    rep_to_matrix,
    rotate_conjugate,
    rotate_rep,
)

from .oracles import eig_quadratic, full_matrix, rotation

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-10.0, max_value=10.0)


def test_eigenvalues_345_triangle():
    assert eigenvalues(Sym2Value(t=0.0, p=3.0, q=4.0)) == (-5.0, 5.0)


def test_eigenvalues_scalar_operator():
    assert eigenvalues(Sym2Value(t=4.0, p=0.0, q=0.0)) == (2.0, 2.0)


@given(finite, finite, finite)
def test_eigenvalues_match_characteristic_polynomial(t, p, q):
    lam1, lam2 = eigenvalues(Sym2Value(t=t, p=p, q=q))
    o1, o2 = eig_quadratic(t, p, q)
    scale = 1.0 + max(abs(o1), abs(o2))
    assert abs(lam1 - o1) <= 1e-12 * scale
    assert abs(lam2 - o2) <= 1e-12 * scale
    assert lam1 <= lam2


def test_eigenvalues_grid_agrees_with_scalar():
    rng = np.random.default_rng(7)
    t, p, q = rng.normal(size=(3, 50))
    l1, l2 = eigenvalues_grid(t, p, q)
    for k in range(50):
        s1, s2 = eigenvalues(Sym2Value(t=t[k], p=p[k], q=q[k]))
        assert l1[k] == s1 and l2[k] == s2


def test_eigenline_angles_diagonal():
    th1, th2 = eigenline_angles(Sym2Value(t=0.0, p=1.0, q=0.0))
    assert th2 == 0.0
    assert th1 == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_eigenline_angles_offdiagonal():
    _, th2 = eigenline_angles(Sym2Value(t=0.0, p=0.0, q=1.0))
    assert th2 == pytest.approx(math.pi / 4.0, abs=1e-15)


def test_eigenline_angles_multiple_point():
    with pytest.raises(MultiplePoint):
        eigenline_angles(Sym2Value(t=3.0, p=0.0, q=0.0))


@given(finite, finite, finite)
def test_eigenvector_residual(t, p, q):
    # residual oracle: S v = lam v for v built from the returned angle
    s = Sym2Value(t=t, p=p, q=q)
    if math.hypot(p, q) < 1e-9:
        return
    th1, th2 = eigenline_angles(s)
    lam1, lam2 = eigenvalues(s)
    mat = full_matrix(t, p, q)
    scale = 1.0 + float(np.abs(mat).max())
    for th, lam in ((th1, lam1), (th2, lam2)):
        v = np.array([math.cos(th), math.sin(th)])
        assert np.linalg.norm(mat @ v - lam * v) <= 1e-12 * scale


def test_rotate_conjugate_quarter_turn():
    out = rotate_conjugate(Sym2Value(t=0.0, p=1.0, q=0.0), math.pi / 2.0)
    assert out.t == 0.0
    assert out.p == pytest.approx(-1.0, abs=1e-15)
    assert abs(out.q) <= 1e-15


def test_rotate_conjugate_eighth_turn():
    # the (p, q) pair turns by 2 theta: an eighth turn sends p to q
    out = rotate_conjugate(Sym2Value(t=0.0, p=1.0, q=0.0), math.pi / 4.0)
    assert abs(out.p) <= 1e-15
    assert out.q == pytest.approx(1.0, abs=1e-15)


@given(finite, finite, finite)
def test_rotate_conjugate_by_pi_is_identity(t, p, q):
    out = rotate_conjugate(Sym2Value(t=t, p=p, q=q), math.pi)
    scale = 1.0 + max(abs(p), abs(q))
    assert abs(out.p - p) <= 1e-12 * scale
    assert abs(out.q - q) <= 1e-12 * scale
    assert out.t == t


@given(finite, finite, finite, angles)
def test_rotate_conjugate_matches_matrix_conjugation(t, p, q, theta):
    out = rotate_conjugate(Sym2Value(t=t, p=p, q=q), theta)
    R = rotation(theta)
    expect = R @ full_matrix(t, p, q) @ R.T
    scale = 1.0 + float(np.abs(expect).max())
    assert np.allclose(out.matrix(), expect, atol=1e-12 * scale, rtol=0.0)


@given(finite, finite, finite, angles)
def test_rotate_conjugate_isospectral(t, p, q, theta):
    a = eigenvalues(Sym2Value(t=t, p=p, q=q))
    b = eigenvalues(rotate_conjugate(Sym2Value(t=t, p=p, q=q), theta))
    scale = 1.0 + max(abs(a[0]), abs(a[1]))
    assert abs(a[0] - b[0]) <= 1e-12 * scale
    assert abs(a[1] - b[1]) <= 1e-12 * scale


@given(finite, finite, finite, finite)
# cancellation: |rhs| = 39 while |pa pb| + |qa qb| = 6e6
@example(999081.9999999999, 3.0, 3.0, -999069.0)
def test_traceless_metric_identity(pa, qa, pb, qb):
    # for traceless A, B the metric tr(AB)/2 reduces to the dot product
    A = full_matrix(0.0, pa, qa)
    B = full_matrix(0.0, pb, qb)
    lhs = 0.5 * float(np.trace(A @ B))
    rhs = pa * pb + qa * qb
    exact = Fraction(pa) * Fraction(pb) + Fraction(qa) * Fraction(qb)
    # Roundoff bound, u = 2^-53: a rounded product is xy (1 + d) + e with
    # |d| <= u and |e| <= 2^-1075 (underflow), a rounded sum (x + y)(1 + d).
    # With S = |pa pb| + |qa qb| >= |exact|, rhs and each diagonal entry of
    # A @ B are off the exact dot product by at most 2u S + u^2 S + 2^-1074
    # (1 + u).  The trace adds u |sum| <= 2u S + O(u^2 S), and halving at most
    # 2^-1075, so lhs is off by at most 3u S + O(u^2 S) + 2^-1074 + 2^-1075.
    # 4u S + 2^-1073 covers both; an FMA only tightens them.
    S = abs(Fraction(pa) * Fraction(pb)) + abs(Fraction(qa) * Fraction(qb))
    bound = 4 * Fraction(1, 2**53) * S + Fraction(1, 2**1073)
    assert abs(Fraction(lhs) - exact) <= bound
    assert abs(Fraction(rhs) - exact) <= bound


def test_from_matrix_round_trip():
    s = Sym2Value(t=0.7, p=-1.2, q=0.4)
    back = from_matrix(s.matrix())
    assert back.t == pytest.approx(s.t, abs=1e-15)
    assert back.p == s.p and back.q == s.q


def test_from_matrix_rejects_asymmetric():
    with pytest.raises(ValueError):
        from_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_mod_pi_range():
    for th in (-7.0, -math.pi, 0.0, math.pi, 9.9):
        out = mod_pi(th)
        assert 0.0 <= out < math.pi


# --- complex representation ------------------------------------------------


def test_rep_to_matrix_sqrt2_unit():
    m = rep_to_matrix(ComplexRep(u=math.sqrt(2.0), w=0.0))
    # column 1 carries p + iq = (u + w)/sqrt(2) = 1
    assert (m.m11, m.m21) == pytest.approx((1.0, 0.0), abs=1e-15)
    # column 2 carries r + is = i (u - w)/sqrt(2) = i
    assert (m.m12, m.m22) == pytest.approx((0.0, 1.0), abs=1e-15)


def test_rep_to_matrix_zero():
    m = rep_to_matrix(ComplexRep(u=0.0, w=0.0))
    assert m.m11 == m.m12 == m.m21 == m.m22 == 0.0


complex_parts = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@given(complex_parts, complex_parts, complex_parts, complex_parts)
def test_matrix_rep_round_trip(a, b, c, d):
    m = LinearSymbol2(m11=a, m12=b, m21=c, m22=d)
    back = rep_to_matrix(matrix_to_rep(m))
    scale = 1.0 + m.frobenius()
    assert abs(back.m11 - a) <= 1e-14 * scale
    assert abs(back.m12 - b) <= 1e-14 * scale
    assert abs(back.m21 - c) <= 1e-14 * scale
    assert abs(back.m22 - d) <= 1e-14 * scale


@given(complex_parts, complex_parts, complex_parts, complex_parts)
def test_rep_matrix_round_trip(ur, ui, wr, wi):
    r = ComplexRep(u=complex(ur, ui), w=complex(wr, wi))
    back = matrix_to_rep(rep_to_matrix(r))
    scale = 1.0 + abs(r.u) + abs(r.w)
    assert abs(back.u - r.u) <= 1e-14 * scale
    assert abs(back.w - r.w) <= 1e-14 * scale


def test_rotate_rep_full_turn():
    out = rotate_rep(ComplexRep(u=1.0, w=1.0), 2.0 * math.pi)
    assert out.u == pytest.approx(1.0, abs=1e-14)
    assert out.w == pytest.approx(1.0, abs=1e-14)


def test_rotate_rep_quarter_turn_on_u():
    out = rotate_rep(ComplexRep(u=1.0, w=0.0), math.pi / 2.0)
    assert out.u == pytest.approx(1j, abs=1e-15)
    assert out.w == 0.0


def test_rotate_rep_third_turn_on_w():
    # e^{3 i pi/3} = e^{i pi} = -1
    out = rotate_rep(ComplexRep(u=0.0, w=1.0), math.pi / 3.0)
    assert out.u == 0.0
    assert out.w == pytest.approx(-1.0, abs=1e-15)


@given(complex_parts, complex_parts, complex_parts, complex_parts, angles, angles)
def test_rotate_rep_group_action(ur, ui, wr, wi, t1, t2):
    r = ComplexRep(u=complex(ur, ui), w=complex(wr, wi))
    once = rotate_rep(rotate_rep(r, t1), t2)
    joint = rotate_rep(r, t1 + t2)
    scale = 1.0 + abs(r.u) + abs(r.w)
    assert abs(once.u - joint.u) <= 1e-12 * scale
    assert abs(once.w - joint.w) <= 1e-12 * scale


@given(complex_parts, complex_parts, complex_parts, complex_parts, angles)
@settings(max_examples=50)
def test_rep_rotation_equivariance(ur, ui, wr, wi, theta):
    """rep rotation = conjugate values by R_theta, rotate covectors by R_theta."""
    r = ComplexRep(u=complex(ur, ui), w=complex(wr, wi))
    m = rep_to_matrix(r).matrix()
    got = rep_to_matrix(rotate_rep(r, theta)).matrix()
    expect = rotation(2.0 * theta) @ m @ rotation(-theta)
    scale = 1.0 + float(np.abs(m).max())
    assert np.allclose(got, expect, atol=1e-10 * scale, rtol=0.0)


def test_invertible_pure_u():
    out = is_invertible(ComplexRep(u=1.0, w=0.0))
    assert out.invertible is True
    assert out.margin == 1.0


def test_invertible_balanced():
    out = is_invertible(ComplexRep(u=1.0, w=1.0))
    assert out.invertible is False
    assert out.margin == 0.0


@given(complex_parts, complex_parts, complex_parts, complex_parts)
def test_margin_is_twice_determinant(ur, ui, wr, wi):
    # |u|^2 - |w|^2 = 2 det(M); the factor 2 comes from the two 1/sqrt(2)
    # column normalizations of the unpacking
    r = ComplexRep(u=complex(ur, ui), w=complex(wr, wi))
    m = rep_to_matrix(r)
    margin = is_invertible(r).margin
    # tolerance scales with the products being cancelled, not the result
    scale = 1.0 + abs(r.u) ** 2 + abs(r.w) ** 2
    assert abs(margin - 2.0 * m.det()) <= 1e-12 * scale


@given(complex_parts, complex_parts, complex_parts, complex_parts, finite, finite)
def test_linear_symbol_negation(ur, ui, wr, wi, x1, x2):
    m = rep_to_matrix(ComplexRep(u=complex(ur, ui), w=complex(wr, wi)))
    plus = m.apply(x1, x2)
    minus = m.apply(-x1, -x2)
    assert plus.p == -minus.p
    assert plus.q == -minus.q
