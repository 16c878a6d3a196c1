import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wavesym.sphere import PolyVF, SphereSymbol
from wavesym.spheremesh import rotate_pq
from wavesym.sym2 import eigenvalues_grid, kernel_angle

from .oracles import det_norm2, eig_quadratic, full_matrix, rep_to_matrix, rotate_rep, rotation

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-10.0, max_value=10.0)


def eigenvalues(t, p, q):
    """eigenvalues_grid at one operator, as floats."""
    lam1, lam2 = eigenvalues_grid(np.array([t]), np.array([p]), np.array([q]))
    return float(lam1[0]), float(lam2[0])


def test_eigenvalues_345_triangle():
    assert eigenvalues(0.0, 3.0, 4.0) == (-5.0, 5.0)


def test_eigenvalues_scalar_operator():
    assert eigenvalues(4.0, 0.0, 0.0) == (2.0, 2.0)


@given(finite, finite, finite)
def test_eigenvalues_match_characteristic_polynomial(t, p, q):
    lam1, lam2 = eigenvalues(t, p, q)
    o1, o2 = eig_quadratic(t, p, q)
    scale = 1.0 + max(abs(o1), abs(o2))
    assert abs(lam1 - o1) <= 1e-12 * scale
    assert abs(lam2 - o2) <= 1e-12 * scale
    assert lam1 <= lam2


def test_eigenvalues_grid_agrees_with_scalar():
    # one call on 50 operators and 50 calls on one operator give the same bits
    rng = np.random.default_rng(7)
    t, p, q = rng.normal(size=(3, 50))
    l1, l2 = eigenvalues_grid(t, p, q)
    for k in range(50):
        s1, s2 = eigenvalues(t[k], p[k], q[k])
        assert l1[k] == s1 and l2[k] == s2


# --- conjugation by a rotation ---------------------------------------------
# conjugating by R_theta keeps the trace and turns (p, q) by 2 theta, which
# is rotate_pq at 2 theta (transport_pq's frame change)


def test_rotate_conjugate_quarter_turn():
    p, q = rotate_pq(1.0, 0.0, 2.0 * (math.pi / 2.0))
    assert p == pytest.approx(-1.0, abs=1e-15)
    assert abs(q) <= 1e-15


def test_rotate_conjugate_eighth_turn():
    # the (p, q) pair turns by 2 theta: an eighth turn sends p to q
    p, q = rotate_pq(1.0, 0.0, 2.0 * (math.pi / 4.0))
    assert abs(p) <= 1e-15
    assert q == pytest.approx(1.0, abs=1e-15)


@given(finite, finite)
def test_rotate_conjugate_by_pi_is_identity(p, q):
    out_p, out_q = rotate_pq(p, q, 2.0 * math.pi)
    scale = 1.0 + max(abs(p), abs(q))
    assert abs(out_p - p) <= 1e-12 * scale
    assert abs(out_q - q) <= 1e-12 * scale


@given(finite, finite, finite, angles)
def test_rotate_conjugate_matches_matrix_conjugation(t, p, q, theta):
    out = full_matrix(t, *rotate_pq(p, q, 2.0 * theta))
    R = rotation(theta)
    expect = R @ full_matrix(t, p, q) @ R.T
    scale = 1.0 + float(np.abs(expect).max())
    assert np.allclose(out, expect, atol=1e-12 * scale, rtol=0.0)


@given(finite, finite, finite, angles)
def test_rotate_conjugate_isospectral(t, p, q, theta):
    a = eigenvalues(t, p, q)
    b = eigenvalues(t, *rotate_pq(p, q, 2.0 * theta))
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


# --- complex representation ------------------------------------------------


def test_rep_to_matrix_sqrt2_unit():
    m = rep_to_matrix(math.sqrt(2.0), 0.0)
    # column 1 carries p + iq = (u + w)/sqrt(2) = 1
    assert (m[0, 0], m[1, 0]) == pytest.approx((1.0, 0.0), abs=1e-15)
    # column 2 carries r + is = i (u - w)/sqrt(2) = i
    assert (m[0, 1], m[1, 1]) == pytest.approx((0.0, 1.0), abs=1e-15)


def test_rep_to_matrix_zero():
    assert not rep_to_matrix(0j, 0j).any()


complex_parts = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def test_rotate_rep_full_turn():
    u, w = rotate_rep(1.0, 1.0, 2.0 * math.pi)
    assert u == pytest.approx(1.0, abs=1e-14)
    assert w == pytest.approx(1.0, abs=1e-14)


def test_rotate_rep_quarter_turn_on_u():
    u, w = rotate_rep(1.0, 0.0, math.pi / 2.0)
    assert u == pytest.approx(1j, abs=1e-15)
    assert w == 0.0


def test_rotate_rep_third_turn_on_w():
    # e^{3 i pi/3} = e^{i pi} = -1
    u, w = rotate_rep(0.0, 1.0, math.pi / 3.0)
    assert u == 0.0
    assert w == pytest.approx(-1.0, abs=1e-15)


@given(complex_parts, complex_parts, complex_parts, complex_parts, angles, angles)
def test_rotate_rep_group_action(ur, ui, wr, wi, t1, t2):
    u, w = complex(ur, ui), complex(wr, wi)
    once = rotate_rep(*rotate_rep(u, w, t1), t2)
    joint = rotate_rep(u, w, t1 + t2)
    scale = 1.0 + abs(u) + abs(w)
    assert abs(once[0] - joint[0]) <= 1e-12 * scale
    assert abs(once[1] - joint[1]) <= 1e-12 * scale


@given(complex_parts, complex_parts, complex_parts, complex_parts, angles)
@settings(max_examples=50)
def test_rep_rotation_equivariance(ur, ui, wr, wi, theta):
    """rep rotation = conjugate values by R_theta, rotate covectors by R_theta."""
    u, w = complex(ur, ui), complex(wr, wi)
    m = rep_to_matrix(u, w)
    got = rep_to_matrix(*rotate_rep(u, w, theta))
    expect = rotation(2.0 * theta) @ m @ rotation(-theta)
    scale = 1.0 + float(np.abs(m).max())
    assert np.allclose(got, expect, atol=1e-10 * scale, rtol=0.0)


@given(complex_parts, complex_parts, complex_parts, complex_parts)
def test_margin_is_twice_determinant(ur, ui, wr, wi):
    # |u|^2 - |w|^2 = 2 det(M) for the coefficient matrix the chart field
    # packs from (u, w); the factor 2 comes from the two 1/sqrt(2) column
    # normalizations.  A constant symbol takes the value (2 v, 8 s) at z = 0.
    one = PolyVF.monomial(0)
    sym = SphereSymbol(v=PolyVF(complex(ur, ui) / 2.0, 0j, 0j),
                       factors=(PolyVF(complex(wr, wi) / 8.0, 0j, 0j), one, one))
    origin = np.zeros(1)
    u, w = (complex(a[0]) for a in sym.rep_grid(origin + 0j))
    det = float(sym.chart_field(grid=16).det_at(origin, origin)[0])
    # tolerance scales with the products being cancelled, not the result
    scale = 1.0 + abs(u) ** 2 + abs(w) ** 2
    assert abs((abs(u) ** 2 - abs(w) ** 2) - 2.0 * det) <= 1e-12 * scale


# --- closed forms in (u, w) ---------------------------------------------------

U = 2.0**-53
magnitude = st.floats(min_value=2.0**-300, max_value=1e3)
# zero or a normal magnitude whose squares and products stay normal
rep_parts = st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))


def closed_forms(u: complex, w: complex) -> tuple[float, float, float]:
    """(det, norm2, kernel angle) of one pair, as floats."""
    ua, wa = np.array([u]), np.array([w])
    det, norm2 = det_norm2(ua, wa)
    return float(det[0]), float(norm2[0]), float(kernel_angle(ua, wa)[0])


def line_gap(a: float, b: float) -> float:
    """Distance of two line angles modulo pi."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


@settings(max_examples=300)
@given(rep_parts, rep_parts, rep_parts, rep_parts)
@example(1e3, -1e3, 1e3, 1e3)
@example(3.0, 4.0, 0.0, 5.0)
def test_det_norm2_match_lapack_on_the_coefficient_matrix(ur, ui, wr, wi):
    u, w = complex(ur, ui), complex(wr, wi)
    det, norm2, _ = closed_forms(u, w)
    M = rep_to_matrix(u, w)
    ref = float(np.linalg.det(M))
    # N = |u|^2 + |w|^2 = |M|_F^2 exactly; det M = (|u|^2 - |w|^2) / 2
    N = Fraction(ur) ** 2 + Fraction(ui) ** 2 + Fraction(wr) ** 2 + Fraction(wi) ** 2
    # Roundoff bound, U = 2^-53, no underflow for these parts.  norm2 and
    # |u|^2, |w|^2 take two roundings each, a + b one more: within 3U N.
    assert abs(Fraction(norm2) - N) <= 3 * U * N * (1 + U)
    # det: |u|^2 - |w|^2 is within 2U N before and U N after the last
    # rounding, and halving is exact, so det is within 1.5U N of det M.
    # Each entry of the rounded M is within 4U of its exact value (a
    # sum, the rounded sqrt(2), a division by it), so det of the rounded M
    # is within 8U (|m11 m22| + |m12 m21|) <= 4U N of det M.  LAPACK's
    # 2x2 LU with a pivot p = max(|m11|, |m21|) rounds four times: within
    # 2U (|det| + |m12 m21|) <= 2U N.  numpy returns sign * exp(log p +
    # log |u22|), whose log, sum and exp, each within an ulp, add a
    # relative 3U (|log p| + |log |u22||) + 2U, with |log |u22|| <=
    # |log p| + |log |ref|| + U.  In all, 7.5U N plus the logarithmic term.
    logs = 2.0 * abs(math.log(max(abs(M[0, 0]), abs(M[1, 0])))) + abs(math.log(abs(ref))) if ref else 0.0
    bound = U * (8.0 * float(N) + 4.0 * abs(ref) * (1.0 + logs))
    assert abs(det - ref) <= bound


@settings(max_examples=300)
@given(st.floats(min_value=1e-3, max_value=1e3), angles, angles)
@example(1.0, 0.0, 0.0)
@example(2.5, 0.5 * math.pi, math.pi)
def test_kernel_angle_is_the_least_right_singular_vector(r, arg_u, arg_w):
    # |u| = |w| up to the rounding of cos and sin: M has a kernel, and the
    # least right singular vector of LAPACK's SVD spans it
    u = complex(r * math.cos(arg_u), r * math.sin(arg_u))
    w = complex(r * math.cos(arg_w), r * math.sin(arg_w))
    _, _, ang = closed_forms(u, w)
    assert 0.0 <= ang < math.pi
    v = np.linalg.svd(rep_to_matrix(u, w))[2][1]
    # the singular values are about sqrt(2) r and 0, a gap as wide as M:
    # both angles are backward stable, so they agree to a few U
    assert line_gap(ang, math.atan2(v[1], v[0])) <= 64 * U


@settings(max_examples=300)
@given(rep_parts, rep_parts, rep_parts, rep_parts, angles)
def test_rotation_law_turns_the_kernel_line_and_keeps_det(ur, ui, wr, wi, theta):
    # (u, w) -> (e^{i theta} u, e^{3 i theta} w) turns -conj(u) w by
    # 2 theta, so the kernel line by theta, and keeps |u| and |w|
    u, w = complex(ur, ui), complex(wr, wi)
    assume(u != 0 and w != 0)
    det, norm2, ang = closed_forms(u, w)
    det_r, _, ang_r = closed_forms(*rotate_rep(u, w, theta))
    # rotate_rep moves |u| and |w| by at most 4U of themselves, so the
    # exact det by 4U N, and each closed form adds 1.5U N: 7U N in all
    assert abs(det_r - det) <= 8 * U * norm2
    # the arguments of u and w move by 4U each and the products of
    # -conj(u) w carry 3U of |u w|; atan2 adds an ulp of at most 2 pi, and
    # reducing theta (|theta| <= 10) modulo the rounded pi about 4U more
    assert line_gap(ang_r, ang + theta) <= 64 * U
