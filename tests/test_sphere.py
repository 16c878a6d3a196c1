import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavesym import sphere
from wavesym.errors import OutOfRange
from wavesym.multiplicity import DET_TILE, ChartSymbolField, extract_singular_set, kernel_angles_along
from wavesym.sphere import (
    PolyVF,
    SphereSymbol,
    analyze_mn,
    radial_profile,
    sigma_mn,
    trace_sigma_mn,
    transversality_h,
    z_set,
)

from .oracles import (
    ALPHA,
    INV_ALPHA,
    SQRT2,
    abs2_written_out,
    alpha_root,
    chart2_symbol,
    chart_transition_angle,
    det_grid_bands,
    det_norm2,
    predicted_kernel_angle,
    rep_consistency_gap,
    rep_grid_full,
    rep_to_matrix,
    transition,
)


# --- chart transition ---------------------------------------------------------


def test_transition_angle_values():
    # frames rotate by pi - 2 arg z under the inversion
    assert chart_transition_angle(1.0 + 0j) == pytest.approx(math.pi)
    assert chart_transition_angle(1j) == pytest.approx(0.0, abs=1e-15)


# --- polynomial fields ---------------------------------------------------------


def test_polyvf_evaluate():
    f = PolyVF(a0=1.0 + 0j, a1=2.0 + 0j, a2=3.0 + 0j)
    assert f.evaluate(2.0 + 0j) == 1.0 + 4.0 + 12.0


def test_polyvf_transition_swaps_and_negates():
    f = PolyVF(a0=1.0 + 1j, a1=2.0 + 0j, a2=0.5j)
    g = transition(f)
    assert (g.a0, g.a1, g.a2) == (-f.a2, -f.a1, -f.a0)
    assert transition(transition(f)) == f


def test_monomial_range():
    assert PolyVF.monomial(2).a2 == 1.0 + 0j
    with pytest.raises(OutOfRange):
        PolyVF.monomial(3)


# --- model family -------------------------------------------------------------


def test_sigma_factor_split():
    degs = lambda sym: tuple(
        0 if f.a0 != 0 else (1 if f.a1 != 0 else 2) for f in sym.factors)
    assert degs(sigma_mn(0, 5)) == (2, 2, 1)
    assert degs(sigma_mn(0, 1)) == (1, 0, 0)
    assert degs(sigma_mn(2, 6)) == (2, 2, 2)


def test_sigma_range_validation():
    for m, n in ((3, 0), (-1, 0), (0, 7), (0, -1)):
        with pytest.raises(OutOfRange):
            sigma_mn(m, n)


def test_rep_on_unit_circle_literal():
    # on |z| = 1 the representative is (e^{im theta}, e^{in theta}) and
    # the first matrix column is (u + w)/sqrt(2)
    m, n = 1, 4
    sym = sigma_mn(m, n)
    for theta in (0.0, 0.7, 2.0, 5.5):
        z = cmath.exp(1j * theta)
        u, w = (complex(a[0]) for a in sym.rep_grid(np.array([z])))
        assert abs(u - cmath.exp(1j * m * theta)) <= 1e-14
        assert abs(w - cmath.exp(1j * n * theta)) <= 1e-14
        M = rep_to_matrix(u, w)
        col = complex(M[0, 0], M[1, 0])
        assert abs(col - (u + w) / SQRT2) <= 1e-14


def test_rep_grid_matches_one_point_calls():
    # one array call and one call per point give the same bits, in chart 1
    # and on the chart 2 polynomials
    Z = np.array([0.3 + 0.4j, -1.0 + 2.0j, 0.01j])
    for sym in (sigma_mn(2, 3), chart2_symbol(sigma_mn(2, 3))):
        u, w = sym.rep_grid(Z)
        for k, z in enumerate(Z):
            uk, wk = sym.rep_grid(np.array([z]))
            assert abs(uk[0] - u[k]) == 0.0
            assert abs(wk[0] - w[k]) == 0.0


def test_chart_consistency_random_symbols():
    # the chart 1 formula (lam v, lam^3 s) is a global section: at z it
    # describes the same operator as the chart 2 formula at 1/z once frames
    # align.  A chart 2 draw z' checks the chart 1 point 1/z'.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        c = rng.standard_normal(16)
        v = PolyVF(complex(c[0], c[1]), complex(c[2], c[3]), complex(c[4], c[5]))
        f1 = PolyVF(complex(c[6], c[7]), complex(c[8], c[9]), 0j)
        f2 = PolyVF(complex(c[10], c[11]), 0j, complex(c[12], c[13]))
        f3 = PolyVF(complex(c[14], c[15]), 0j, 0j)
        sym = type(sigma_mn(0, 0))(v=v, factors=(f1, f2, f3))
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-2:
            continue
        if rng.integers(1, 3) == 2:
            z = 1.0 / z
        worst = max(worst, rep_consistency_gap(sym, z))
    assert worst <= 1e-10


# --- fixed-order symbol kernel ------------------------------------------------

SIGMA_PAIRS = [(m, n) for m in range(3) for n in range(7)]


def kernel_points(seed, count=2000):
    """Random chart points, some on x = 0 or y = 0, and the origin.

    2000 complex values take 32 KiB, below the 256 KiB at which numpy
    elides temporaries, so the oracle multiplies in its written order.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3.0, 3.0, count)
    y = rng.uniform(-3.0, 3.0, count)
    x[:100] = 0.0
    y[100:200] = 0.0
    x[200] = y[200] = 0.0
    return x, y


def assert_kernel_matches_oracle(sym, x, y, chart):
    # chart 2 runs the kernel on the pushed-forward polynomials, whose
    # coefficients 0 and -1 take the skipped and signed branches; == counts
    # +0 and -0 as equal: skipped exact terms may flip a zero's sign
    if chart == 2:
        sym = chart2_symbol(sym)
    u, w = sym.rep_grid(x + 1j * y)
    u_ref, w_ref = rep_grid_full(sym, x + 1j * y)
    assert np.array_equal(u, u_ref) and np.array_equal(w, w_ref)
    a, b = abs2_written_out(sym, x, y)
    assert np.array_equal(sym.chart_field().det_at(x, y), 0.5 * (a - b))


@pytest.mark.parametrize("chart", (1, 2))
@pytest.mark.parametrize("m,n", SIGMA_PAIRS)
def test_sigma_kernel_matches_full_quadratic_oracle(m, n, chart):
    assert_kernel_matches_oracle(sigma_mn(m, n), *kernel_points(10 * m + n), chart)


@pytest.mark.parametrize("chart", (1, 2))
@pytest.mark.parametrize("generic", (True, False))
@pytest.mark.parametrize("seed", range(5))
def test_random_symbol_kernel_matches_full_quadratic_oracle(seed, generic, chart):
    assert_kernel_matches_oracle(random_symbol(seed, generic), *kernel_points(200 + seed), chart)


def random_symbol(seed, generic):
    """Generic coefficients take the full Horner steps; otherwise each
    coefficient is drawn from 0, 1, -1 and a generic value, so every
    skipped term and skipped product runs too."""
    rng = np.random.default_rng(100 + seed)

    def coeff():
        c = complex(*rng.standard_normal(2))
        return c if generic else (0j, 1 + 0j, -1 + 0j, c)[rng.integers(4)]

    v, *factors = (PolyVF(coeff(), coeff(), coeff()) for _ in range(4))
    return SphereSymbol(v=v, factors=tuple(factors))


@pytest.mark.parametrize("chart", (1, 2))
@pytest.mark.parametrize("case", [("sigma", m, n) for m, n in SIGMA_PAIRS]
                         + [("random", seed, generic) for seed in range(5) for generic in (True, False)])
def test_moduli_det_within_rounding_of_complex_det(case, chart):
    """det_at takes det M from |u|^2 and |w|^2 in real arithmetic; the
    complex pair gives it as (|u|^2 - |w|^2) / 2 of the full-quadratic
    (u, w).  The two agree to 16 eps (|u|^2 + |w|^2).

    To first order in u = eps / 2: both paths share lam and the polynomial
    values.  The moduli path's |w|^2 takes at most 23u (for s = z^6: the
    r2 rounding six times over, three products, and 5u in ((L2 L2) L2)),
    the complex path's at most 30u (five complex products of at most
    sqrt(5) u each, counted twice in the square, and 8u in scaling and
    squaring), |u|^2 at most 4u on either side, and a - b one rounding
    more on each: about 27u (|u|^2 + |w|^2), 13.5 eps.  The largest seen
    over these cases is 4.6 eps.
    """
    kind, p, q = case
    sym = sigma_mn(p, q) if kind == "sigma" else random_symbol(p, q)
    x, y = kernel_points(10 * p + q if kind == "sigma" else 200 + p)
    if chart == 2:
        sym = chart2_symbol(sym)
    a, b = abs2_written_out(sym, x, y)
    det_complex = det_norm2(*rep_grid_full(sym, x + 1j * y))[0]
    gap = np.abs(sym.chart_field().det_at(x, y) - det_complex)
    assert np.all(gap <= 16 * np.finfo(float).eps * (a + b))


@pytest.mark.parametrize("m,n", SIGMA_PAIRS)
def test_det_grid_rows_equal_det_at_bit_for_bit(m, n):
    # a grid-2048 band evaluates 16 x 2049 nodes at once, det_at one corner
    # of each crossing cell per call
    halfwidth = max(2.0, 1.3 * max(z_set(m, n).radii))   # as trace_sigma_mn
    fld = sigma_mn(m, n).chart_field(halfwidth=halfwidth, grid=2048)
    codes, corners = fld.det_grid()
    xs, ys = fld.nodes()
    ci, cj = np.divmod(codes, ys.size - 1)
    # det >= 0 on the whole chart of a tangential pair (n - m = 2)
    assert (codes.size == 0) == (n - m == 2)
    for k, (di, dj) in enumerate(((0, 0), (1, 0), (0, 1), (1, 1))):
        d = fld.det_at(xs[ci + di], ys[cj + dj])
        # + 0.0 turns -0.0 into 0.0, as fmt_float does
        assert (d + 0.0).tobytes() == (corners[:, k] + 0.0).tobytes(), f"corner {k}"


_SWEEP_PROBE = """
import hashlib
import sys

import numpy as np
from wavesym.sphere import sigma_mn

digest = hashlib.sha256()
for arg in sys.argv[1:]:
    m, n, halfwidth = arg.split(",")
    fld = sigma_mn(int(m), int(n)).chart_field(halfwidth=float.fromhex(halfwidth), grid=2048)
    codes, corners = fld.det_grid()
    digest.update(codes.astype(np.int64).tobytes())
    digest.update((corners + 0.0).tobytes())
    digest.update(np.array([fld.max_abs_det, fld.max_norm2]).tobytes())
print(digest.hexdigest())
"""


def test_det_grid_portable_across_cpu_dispatch():
    """The grid-2048 sweeps of five pairs, at the halfwidths trace_sigma_mn
    uses, in four child processes: default settings, numpy's AVX-512
    dispatch disabled, numpy at its baseline (AVX2 disabled too), and
    OpenBLAS forced to its Haswell kernel.  The crossing cells, their
    corner values and the tolerance scale must hash alike.

    The sweep is real +, * and / only, which round alike on every SIMD
    path.  On a 2-vCPU AVX-512 Xeon the det grid computed from the
    complex pair changed at numpy's baseline.  The sweep uses no BLAS, so
    the Haswell setting compares trivially equal, as does any setting
    that has no effect on the host (no AVX-512, say).
    """
    src = Path(sigma_mn.__code__.co_filename).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [f"{m},{n},{max(2.0, 1.3 * max(z_set(m, n).radii)).hex()}"
            for m, n in ((0, 3), (0, 6), (1, 4), (2, 5), (2, 6))]
    no_avx512 = "X86_V4 AVX512_ICL AVX512_SPR"
    digests = []
    for setting in ({}, {"NPY_DISABLE_CPU_FEATURES": no_avx512},
                    {"NPY_DISABLE_CPU_FEATURES": no_avx512 + " X86_V3"}, {"OPENBLAS_CORETYPE": "Haswell"}):
        proc = subprocess.run([sys.executable, "-c", _SWEEP_PROBE, *args], capture_output=True,
                              text=True, env={**env, **setting})
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(digests[0].strip()) == 64
    assert digests == digests[:1] * 4


# --- the certified sparse det grid --------------------------------------------


def sigma_field(m, n, grid=2048):
    halfwidth = max(2.0, 1.3 * max(z_set(m, n).radii))   # as trace_sigma_mn
    return sigma_mn(m, n).chart_field(halfwidth=halfwidth, grid=grid)


def assert_det_grid_equals_dense_sweep(fld):
    codes, corners = fld.det_grid()
    codes_ref, corners_ref = det_grid_bands(fld)
    assert codes.tobytes() == codes_ref.tobytes()
    assert corners.tobytes() == corners_ref.tobytes()


@pytest.mark.parametrize("m,n", SIGMA_PAIRS)
def test_sparse_det_grid_equals_dense_sweep(m, n):
    assert_det_grid_equals_dense_sweep(sigma_field(m, n))


@pytest.mark.parametrize("m,n", SIGMA_PAIRS)
def test_sparse_det_grid_skips_most_cells(m, n):
    # a silent fall back to evaluating every tile fails here
    fld = sigma_field(m, n)
    fld.det_grid()
    cells = fld._cache["det_cells"]
    assert sum(cells.values()) == 2048 * 2048
    assert cells["skipped"] >= 0.6 * 2048 * 2048


@pytest.mark.parametrize("shape", [(1001, 777), (130, 257)])
@pytest.mark.parametrize("sym", [sigma_mn(1, 4), sigma_mn(2, 5), random_symbol(0, True), random_symbol(3, False)],
                         ids=["sigma14", "sigma25", "random0", "random3"])
def test_sparse_det_grid_on_grids_of_part_tiles(sym, shape):
    # nx + 1 and ny + 1 node rows fill no whole number of tiles; the chart
    # is off centre
    fld = ChartSymbolField(x0=-2.3, x1=1.9, y0=-1.7, y1=2.4, nx=shape[0], ny=shape[1], rep_fn=sym.rep_grid,
                           abs2_fn=sym.abs2_grid, tile_bound_fn=sym.tile_bounds)
    assert_det_grid_equals_dense_sweep(fld)
    assert fld.det_grid()[0].size > 0


def test_det_grid_of_a_field_one_signed_on_the_whole_chart():
    """v = 1 and s = 0.1: det M = lam^2 (1 - 0.01 lam^4) / 2 > 0, since
    lam <= 2.  The bound skips every tile before the finest level."""
    one = PolyVF.monomial(0)
    fld = SphereSymbol(v=one, factors=(PolyVF(0.1 + 0j, 0j, 0j), one, one)).chart_field()
    codes, corners = fld.det_grid()
    assert codes.size == 0 and corners.shape == (0, 4)
    assert extract_singular_set(fld) == []
    assert sum(fld._cache["det_cells"].values()) == fld.nx * fld.ny


def test_scale_is_the_lattice_maximum_at_every_grid():
    """max_abs_det and max_norm2 are the maxima over 129 x 129 nodes of the
    chart, whatever its grid."""
    sym = sigma_mn(1, 5)
    x0, x1, y0, y1 = -2.3, 1.9, -1.7, 2.4
    a, b = sym.abs2_grid(np.linspace(x0, x1, 129)[:, None], np.linspace(y0, y1, 129)[None, :])
    expected = (float(np.abs(0.5 * (a - b)).max()), float((a + b).max()))
    for nx, ny in ((128, 128), (512, 512), (2048, 2048), (1001, 777)):
        fld = ChartSymbolField(x0=x0, x1=x1, y0=y0, y1=y1, nx=nx, ny=ny, rep_fn=sym.rep_grid,
                               abs2_fn=sym.abs2_grid, tile_bound_fn=sym.tile_bounds)
        assert (fld.max_abs_det, fld.max_norm2) == expected, (nx, ny)


def test_sparse_det_grid_finds_an_oval_inside_one_tile():
    """v = z - z0 and s = c: det < 0 on the small oval |z - z0| < lam^2 |c|
    of radius 2.5 cells about a tile centre, the only zero set on the chart."""
    grid, h = 512, 4.0 / 512
    k = 300 // DET_TILE * DET_TILE + DET_TILE // 2
    z0 = complex(-2.0 + k * h, -2.0 + (k - 2 * DET_TILE) * h)
    c = 2.5 * h * (1.0 + abs(z0) ** 2) ** 2 / 4.0
    one = PolyVF.monomial(0)
    sym = SphereSymbol(v=PolyVF(-z0, 1.0 + 0j, 0j), factors=(PolyVF(c + 0j, 0j, 0j), one, one))
    fld = sym.chart_field(halfwidth=2.0, grid=grid)
    assert_det_grid_equals_dense_sweep(fld)
    ci, cj = np.divmod(fld.det_grid()[0], grid)
    assert ci.size > 0 and len(set(zip((ci // DET_TILE).tolist(), (cj // DET_TILE).tolist()))) == 1
    (curve,) = extract_singular_set(fld)
    assert curve.closed and curve.length == pytest.approx(2.0 * math.pi * 2.5 * h, rel=0.05)


@pytest.mark.parametrize("m,n", SIGMA_PAIRS)
def test_tile_bounds_hold_at_points_on_the_zero_set(m, n):
    """A disc of radius 0 is a point.  Within 1e-13 of a multiplicity circle
    abs2_grid's rounding decides the sign of det M, so the bound certifies a
    sign only with its margin over that rounding."""
    sym = sigma_mn(m, n)
    rng = np.random.default_rng(10 * m + n)
    for r in z_set(m, n).radii:
        t, theta = rng.uniform(-1e-13, 1e-13, 4000), rng.uniform(0.0, 2.0 * math.pi, 4000)
        x, y = r * (1.0 + t) * np.cos(theta), r * (1.0 + t) * np.sin(theta)
        sign = sym.tile_bounds(x, y, 0.0)
        a, b = sym.abs2_grid(x, y)
        f = 0.5 * (a - b)
        assert np.all(f[sign > 0] >= 0.0) and np.all(f[sign < 0] < 0.0)


def coefficients():
    return st.one_of(st.sampled_from([0j, 1 + 0j, -1 + 0j, 0.5j]),
                     st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))


def quadratics():
    """General quadratics by coefficients, or with roots inside the chart."""
    by_roots = st.builds(lambda r1, r2, lead: PolyVF(lead * r1 * r2, -lead * (r1 + r2), lead),
                         st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
                         st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
                         st.sampled_from([1 + 0j, -0.7 + 0.2j, 2.5 + 0j]))
    return st.one_of(st.builds(PolyVF, coefficients(), coefficients(), coefficients()), by_roots,
                     st.sampled_from([PolyVF.monomial(k) for k in range(3)]))


@settings(max_examples=60, deadline=None)
@given(quadratics(), st.tuples(quadratics(), quadratics(), quadratics()),
       st.floats(min_value=0.5, max_value=4.0))
def test_tile_bounds_hold_at_every_node(v, factors, halfwidth):
    """For every tile of 1, 2 and 4 times DET_TILE cells that the bound
    calls one-signed, every computed det at its nodes has that sign; the
    sparse sweep equals the dense one."""
    sym = SphereSymbol(v=v, factors=factors)
    grid = 8 * DET_TILE
    fld = sym.chart_field(halfwidth=halfwidth, grid=grid)
    xs, ys = fld.nodes()
    a, b = fld.abs2_fn(xs[:, None], ys[None, :])
    F = 0.5 * (a - b)
    for size in (DET_TILE, 2 * DET_TILE, 4 * DET_TILE):
        ti, tj = np.divmod(np.arange((grid // size) ** 2), grid // size)
        sign = fld._tile_bounds(size, ti, tj)
        for k in np.flatnonzero(sign):
            tile = np.s_[ti[k] * size:ti[k] * size + size + 1, tj[k] * size:tj[k] * size + size + 1]
            assert np.all((F[tile] >= 0.0) == (sign[k] > 0))
    assert_det_grid_equals_dense_sweep(fld)


TRANSVERSAL_PAIRS = [(m, n) for m, n in SIGMA_PAIRS if n - m != 2]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(TRANSVERSAL_PAIRS), st.integers(min_value=128, max_value=1024))
def test_sigma_winding_is_n_minus_m_at_every_grid(pair, grid):
    """On every transversal pair and grid from 128 to 1024, every
    extracted curve is closed, certified and traced, and its kernel line
    winds n - m half turns.  max_examples=100 takes 0.8 to 1.0 s on a
    2-vCPU Xeon.  A scan of all 18 pairs at every one of the 897 grids
    (16,146 jobs, 150 s) found no exception.
    """
    m, n = pair
    rows = trace_sigma_mn(m, n, grid=grid)[3]
    assert rows
    for row in rows:
        assert row.curve.closed and row.cert.transversal and row.component is not None
        assert row.component.winding == n - m


# --- multiplicity radii ---------------------------------------------------------


def test_alpha_root_value():
    a = alpha_root()
    assert abs(((a + 1.0) * a + 3.0) * a - 1.0) <= 1e-14
    assert a == pytest.approx(ALPHA, abs=1e-15)


def test_zset_01():
    zs = z_set(0, 1)
    assert zs.radii == (ALPHA, 1.0)
    assert zs.includes_zero is False
    assert zs.includes_infinity is True


def test_zset_03():
    zs = z_set(0, 3)
    assert zs.radii == (1.0, INV_ALPHA)


def _cubic_value(coeffs, r):
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * r + c
    return acc


def _sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@pytest.mark.parametrize("radius, frozen, coeffs", [
    (sphere.ALPHA, ALPHA, (1, 1, 3, -1)),
    (sphere.INV_ALPHA, INV_ALPHA, (1, -3, -1, -1)),
], ids=["alpha", "inv_alpha"])
def test_radius_constants_are_the_doubles_nearest_their_roots(radius, frozen, coeffs):
    # one sign change: one positive root (Descartes), below which the cubic
    # is negative, as at 0, and above which it is positive.  So the root
    # lies strictly between the midpoints to the neighbouring doubles iff
    # the cubic is < 0 at the lower one and > 0 at the upper one; exact in
    # rationals
    assert radius == frozen
    assert _sign_changes(coeffs) == 1 and coeffs[-1] < 0
    below = (Fraction(radius) + Fraction(math.nextafter(radius, 0.0))) / 2
    above = (Fraction(radius) + Fraction(math.nextafter(radius, math.inf))) / 2
    assert _cubic_value(coeffs, below) < 0 < _cubic_value(coeffs, above)


def _zset_cofactor(m, n):
    """(1 + r^2)^2 r^m - 4 r^n in integers, highest degree first, with its
    factors r divided out and then r - 1 as often as it divides; returns
    the quotient and the multiplicity of r = 1."""
    low = [0] * 9
    for k, c in ((0, 1), (2, 2), (4, 1)):
        low[m + k] += c
    low[n] -= 4
    # no term cancels: 1 - 4 and 2 - 4 are nonzero
    coeffs = low[min(m, n):max(m + 4, n) + 1][::-1]
    mult = 0
    while sum(coeffs) == 0:
        quotient = [coeffs[0]]
        for c in coeffs[1:-1]:
            quotient.append(quotient[-1] + c)
        coeffs, mult = quotient, mult + 1
    return coeffs, mult


def test_zset_radii_are_every_positive_root():
    # r = 1 is simple except for the tangential n - m = 2; what remains has
    # no sign change, so no positive root, except the two cubics of ALPHA
    # and INV_ALPHA for n - m = 1 and 3
    cubics = {1: ((1, 1, 3, -1), (ALPHA, 1.0)), 3: ((1, -3, -1, -1), (1.0, INV_ALPHA))}
    for m in range(3):
        for n in range(7):
            rest, mult = _zset_cofactor(m, n)
            assert mult == (2 if n - m == 2 else 1), (m, n)
            if n - m in cubics:
                coeffs, radii = cubics[n - m]
                assert tuple(rest) == coeffs, (m, n)
            else:
                assert _sign_changes(rest) == 0, (m, n, rest)
                radii = (1.0,)
            assert z_set(m, n).radii == radii, (m, n)


def test_zset_just_unit_circle_otherwise():
    for m in range(3):
        for n in range(7):
            if n - m in (1, 3):
                continue
            assert z_set(m, n).radii == (1.0,)


def test_zset_flags():
    # the origin is a multiplicity point iff both u and w vanish there,
    # i.e. m > 0 and n > 0; at infinity the degrees complement to (2, 6)
    assert z_set(1, 1).includes_zero is True
    assert z_set(0, 1).includes_zero is False
    assert z_set(1, 0).includes_zero is False
    assert z_set(2, 6).includes_infinity is False
    assert z_set(2, 5).includes_infinity is False
    assert z_set(1, 6).includes_infinity is False
    assert z_set(1, 5).includes_infinity is True
    assert z_set(0, 0).includes_infinity is True


def test_zset_residuals():
    for m in range(3):
        for n in range(7):
            for r in z_set(m, n).radii:
                res = abs((1.0 + r * r) ** 2 * r**m - 4.0 * r**n)
                scale = max(1.0, (1.0 + r * r) ** 2 * r**m + 4.0 * r**n)
                assert res <= 1e-12 * scale, (m, n, r, res)


def test_zset_shift_rule():
    # radii depend only on n - m
    for m in range(2):
        for n in range(6):
            assert z_set(m, n).radii == z_set(m + 1, n + 1).radii


def test_radial_profile_sign_change():
    # h > 0 inside the multiplicity circle of (0, 6), < 0 outside
    assert radial_profile(0, 6, 0.9) > 0.0
    assert radial_profile(0, 6, 1.1) < 0.0
    assert abs(radial_profile(0, 6, 1.0)) <= 1e-15


# --- transversality -------------------------------------------------------------


def test_transversality_slopes():
    for m in range(3):
        for n in range(7):
            tv = transversality_h(m, n)
            assert tv.analytic_slope == 2.0 * (2.0 + m - n)
            assert tv.numeric_slope == pytest.approx(tv.analytic_slope, abs=1e-6)
            assert tv.transversal == (n - m != 2)


def test_tangential_family_slope_zero():
    tv = transversality_h(0, 2)
    assert tv.analytic_slope == 0.0
    assert abs(tv.numeric_slope) <= 1e-6
    assert tv.transversal is False


# --- kernel angle prediction ------------------------------------------------------


def test_predicted_kernel_angle_matches_field():
    for m, n in ((0, 6), (1, 4), (2, 3)):
        fld = sigma_mn(m, n).chart_field(halfwidth=2.0, grid=64)
        thetas = np.array([0.05, 1.1, 3.3, 5.9])
        got = kernel_angles_along(fld, np.column_stack([np.cos(thetas), np.sin(thetas)]))
        for theta, ang in zip(thetas, got):
            d = abs(ang - predicted_kernel_angle(m, n, theta)) % math.pi
            assert min(d, math.pi - d) <= 1e-8


# --- full pipeline ---------------------------------------------------------------


def test_analyze_01():
    rep = analyze_mn(0, 1, grid=256)
    assert rep["m"] == 0 and rep["n"] == 1
    assert rep["grid"] == 256
    assert rep["halfwidth"] == pytest.approx(2.0)
    assert rep["radii"][0] == pytest.approx(ALPHA, abs=1e-12)
    assert rep["radii"][1] == 1.0
    assert rep["includes_zero"] is False
    assert rep["includes_infinity"] is True
    assert rep["dh_dr_1"] == 2.0
    assert rep["transversal"] is True
    assert len(rep["circles"]) == 2
    for c in rep["circles"]:
        assert c["winding"] == 1
        assert c["knot"] == [2, 1]
        assert c["connected"] is True
    rs = sorted(c["r"] for c in rep["circles"])
    assert rs[0] == pytest.approx(ALPHA, abs=1e-3)
    assert rs[1] == pytest.approx(1.0, abs=1e-3)


def test_analyze_02_tangential():
    rep = analyze_mn(0, 2, grid=128)
    assert rep["transversal"] is False
    assert rep["dh_dr_1"] == 0.0
    assert rep["radii"] == [1.0]
    assert rep["circles"] == []


def test_analyze_03_halfwidth_covers_outer_circle():
    rep = analyze_mn(0, 3, grid=256)
    assert rep["halfwidth"] == pytest.approx(1.3 * INV_ALPHA)
    assert len(rep["circles"]) == 2
    assert {c["winding"] for c in rep["circles"]} == {3}
