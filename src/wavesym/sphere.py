"""Symbol fields on the round 2-sphere built from polynomial data.

A symbol field is specified by a degree <= 2 polynomial v together with
three further degree <= 2 factors whose product s has degree <= 6; in the
stereographic chart z its complex representative is

    (u, w)(z) = (lam(|z|) v(z),  lam(|z|)^3 s(z)),   lam(r) = 2 / (1 + r^2).

Those degrees make it a global section: under the inversion z -> 1/z onto
the second chart it is again of this form, with the polynomials pushed
forward (the test suite checks that consistency).  So every computation
here works in the one chart z.

The model family sigma_mn takes v = z^m and s = z^n.  Its multiplicity
circles |z| = r are the positive roots of (1 + r^2)^2 r^m = 4 r^n, which
depend only on n - m and are known in closed form (z_set): r = 1, and
ALPHA or INV_ALPHA when n - m is 1 or 3.  The kernel line winds n - m
half turns along each transversal circle.

det M = (|u|^2 - |w|^2) / 2 needs only the moduli, which
SphereSymbol.abs2_grid computes in real arithmetic; real + and * round
alike in either operand order and on every SIMD path, so the det grid's
tiles agree bit for bit with det_at at their nodes.  SphereSymbol.tile_bounds
bounds the sign of what abs2_grid computes over a disc, so that det_grid
can skip the tiles it proves one-signed.

The complex kernel of the kernel lines (PolyVF.evaluate, and
SphereSymbol.rep_grid as the chart field's rep_fn) uses one fixed
operation order at every array size.  numpy elides a temporary operand
of 256 KiB or more into an in-place ufunc, and for a commutative ufunc
it swaps the operands to do so when the temporary is on the right.  Its
SIMD complex multiply fuses one product into the sum of the imaginary
part, so a*b and b*a can differ in the last bit.  A product of two
complex arrays therefore runs as s * f of named arrays: never a
temporary on the right, never in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OutOfRange
from .multiplicity import (
    CONTOUR_REL_TOL,
    ChartSymbolField,
    MultiplicityComponent,
    RegularValueCertificate,
    SingularCurve,
    _chart_points,
    extract_singular_set,
    regular_value_check,
    trace_component,
)

M_RANGE = (0, 2)
N_RANGE = (0, 6)
# the doubles nearest the one positive root of r^3 + r^2 + 3r - 1 and of
# r^3 - 3r^2 - r - 1, its reciprocal (1.0 / ALPHA rounds one ulp above
# INV_ALPHA); the test suite proves both in exact arithmetic
ALPHA = float.fromhex("0x1.2eb12cb39d793p-2")        # 0.29559774252208476
INV_ALPHA = float.fromhex("0x1.b105599728acep+1")    # 3.3829757679062373
# half width of the central difference transversality_h takes at r = 1
TRANSVERSALITY_STEP = 1e-6
_U = 2.0**-53
# relative error of abs2_grid's |u|^2 and |w|^2 at most 47 roundings deep,
# and the error of a complex Horner step on a full quadratic (tile_bounds)
_ABS2_ROUNDING = 64 * _U
_HORNER_ROUNDING = 10 * _U
# slack of tile_bounds, relative to the size of its terms, that dwarfs any
# libm error in its logs at the tile centres
_TILE_SLACK = 1e-9
# tile_bounds certifies only where each |factor| and lam^2 lie in
# [_SAFE_MOD, 1 / _SAFE_MOD] on the disc
_SAFE_MOD = 2.0**-60


@dataclass(frozen=True)
class PolyVF(object):
    """Polynomial vector field a0 + a1 z + a2 z^2 in a chart."""

    a0: complex
    a1: complex
    a2: complex

    def evaluate(self, z):
        """(a2 z + a1) z + a0 by Horner's rule.

        Terms with coefficient exactly 0 and multiplications by exactly 1
        are skipped, and a constant polynomial returns its constant.  Both
        are exact, so only the sign of a zero can differ from the full
        quadratic; generic coefficients take the full Horner steps.
        """
        a0, a1, a2 = self.a0, self.a1, self.a2
        if a2 != 0:
            acc = z if a2 == 1 else a2 * z
            if a1 != 0:
                acc = acc + a1
            acc = acc * z
        elif a1 != 0:
            acc = z if a1 == 1 else a1 * z
        else:
            return a0
        return acc if a0 == 0 else acc + a0

    @classmethod
    def monomial(cls, k: int) -> "PolyVF":
        if k not in (0, 1, 2):
            raise OutOfRange("monomial degree must be 0, 1 or 2")
        c = [0j, 0j, 0j]
        c[k] = 1.0 + 0j
        return cls(*c)


_ONE, _Z, _Z2 = (PolyVF.monomial(k) for k in range(3))


@dataclass(frozen=True)
class SphereSymbol:
    """Global symbol field from v (degree <= 2) and three cubic-factor
    fields whose product s has degree <= 6."""

    v: PolyVF
    factors: tuple[PolyVF, PolyVF, PolyVF]

    def rep_grid(self, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Representative (u, w) arrays at complex chart coordinates Z.

        Each distinct factor is evaluated once and constant 1 factors are
        skipped.  s is multiplied left to right as s * f, out of place (see
        the module docstring).
        """
        lam = 2.0 / (1.0 + (Z.real**2 + Z.imag**2))
        u = lam * self.v.evaluate(Z)
        values = {}
        s = None
        for f in self.factors:
            if f == _ONE:
                continue
            if f not in values:
                values[f] = f.evaluate(Z)
            s = values[f] if s is None else s * values[f]
        lam3 = lam * lam * lam
        if s is None:
            return u, lam3.astype(complex)
        return u, s * lam3

    def abs2_grid(self, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(|u|^2, |w|^2) at the chart points X + i Y (arrays that broadcast),
        in real arithmetic: |u|^2 = L2 |v|^2 and |w|^2 = ((L2 L2) L2) |f1|^2
        |f2|^2 |f3|^2 left to right, with L2 = (2 / (r2 + 1))^2, |z|^2 = r2,
        |z^2|^2 = r2 r2 and constant 1 factors skipped."""
        r2 = X * X + Y * Y
        L2 = 2.0 / (r2 + 1.0)
        L2 *= L2
        mod2 = {}
        for f in {self.v, *self.factors} - {_ONE}:
            if f in (_Z, _Z2):
                mod2[f] = r2 if f == _Z else r2 * r2
            else:
                p = f.evaluate(_chart_points(X, Y))
                mod2[f] = p.real * p.real + p.imag * p.imag
        a = L2 * mod2[self.v] if self.v in mod2 else L2
        b = L2 * L2
        b *= L2
        for f in self.factors:
            if f in mod2:
                b *= mod2[f]
        return a, b

    def tile_bounds(self, cx: np.ndarray, cy: np.ndarray, rho: float) -> np.ndarray:
        """The sign of det M as abs2_grid computes it at any point within rho
        of a centre cx + i cy (arrays that broadcast): 1 where every
        computed det is >= 0, -1 where every one is < 0 and 0 where neither
        is certified.

        The sign comes from g = log|u|^2 - log|w|^2 = log|v|^2 - sum_k
        log|f_k|^2 + 4 log(1 + r^2) - log 16 in its centred form: its value
        and gradient at the centre, and the Hessian bounded on the disc.
        For a quadratic p = p(c) + p'(c) d + a2 d^2 the Hessian norm of
        log|p|^2 is 2 |p''/p - (p'/p)^2| <= 2 (2|a2| / m + (|p'(c)| + 2|a2|
        rho)^2 / m^2), with m = |p(c)| - |p'(c)| rho - |a2| rho^2 <= |p| on
        the disc, and that of log(1 + r^2) is at most 2.

        The computed values: abs2_grid rounds |u|^2 and |w|^2 at most 47
        times (((L2 L2) L2) |z^2|^2 |z^2|^2 |z^2|^2 with L2 nine roundings
        deep and |z^2|^2 five), a relative error below _ABS2_ROUNDING.  A
        full quadratic evaluated by complex Horner steps is off by at most
        _HORNER_ROUNDING sum |a_i| |z|^i (Higham, Accuracy and Stability of
        Numerical Algorithms, section 5.1), which moves log|p|^2 by at most
        4 E / m while E <= m / 2.  A certified tile needs every factor's
        modulus and lam^2 within [_SAFE_MOD, 1 / _SAFE_MOD]: then every
        partial product is normal, at least 2^-540, and a subnormal X X, Y Y
        or Horner term moves a sum by far less than the 17 roundings that
        _ABS2_ROUNDING spares.  So fl(a - b) has the sign of a - b and is no
        subnormal, and 0.5 fl(a - b), which rounds to -0.0 only at -2^-1074,
        keeps it.  _TILE_SLACK covers the rounding and libm error of this
        bound, so a decision may differ between CPU dispatch paths but a
        certified one always holds.
        """
        C = _chart_points(cx, cy)
        r2 = cx * cx + cy * cy
        reach = np.sqrt(r2) + rho
        ok = 4.0 / (1.0 + reach * reach) ** 2 >= _SAFE_MOD   # lam^2 on the disc
        # log|p|^2, its gradient as a complex number, its Hessian bound and
        # the error of its computed value, per distinct factor
        terms = {_ONE: (0.0, 0.0, 0.0, 0.0)}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for f in {self.v, *self.factors} - {_ONE}:
                p, dp = np.asarray(f.evaluate(C)), PolyVF(f.a1, 2.0 * f.a2, 0j).evaluate(C)
                mod2, a2 = p.real * p.real + p.imag * p.imag, abs(f.a2)
                mod, dmod = np.sqrt(mod2), np.abs(dp)
                arm = (dmod + a2 * rho) * rho
                low = mod - arm
                ok &= (low >= _SAFE_MOD) & (mod + arm <= 1.0 / _SAFE_MOD)
                err = 0.0
                if f not in (_Z, _Z2):
                    err = _HORNER_ROUNDING * (abs(f.a0) + (abs(f.a1) + a2 * reach) * reach) / low
                    ok &= err <= 0.5
                terms[f] = (np.log(mod2), np.conj(dp) * p * (2.0 / mod2),
                            2.0 * (2.0 * a2 / low + ((dmod + 2.0 * a2 * rho) / low) ** 2), 4.0 * err)
            log_q, grad_q = np.log1p(r2), C * (2.0 / (1.0 + r2))
            la, ga, ha, ea = terms[self.v]
            la, ga, ha = la + (math.log(4.0) - 2.0 * log_q), ga - 2.0 * grad_q, ha + 4.0
            lb, gb, hb, eb = 3.0 * math.log(4.0) - 6.0 * log_q, -6.0 * grad_q, 12.0, 0.0
            for f in set(self.factors) - {_ONE}:
                k, (lf, gf, hf, ef) = self.factors.count(f), terms[f]
                lb, gb, hb, eb = lb + k * lf, gb + k * gf, hb + k * hf, eb + k * ef
            g, half_rho2 = la - lb, 0.5 * rho * rho
            spread = np.abs(ga - gb) * rho + (ha + hb - 8.0) * half_rho2
            margin = 2.0 * _ABS2_ROUNDING + ea + eb + _TILE_SLACK * (1.0 + np.abs(la) + np.abs(lb) + spread)
            return np.where(ok & (np.abs(g) - spread > margin), np.sign(g), 0.0)

    def chart_field(self, halfwidth: float = 2.0, grid: int = 512) -> ChartSymbolField:
        """This symbol's field on a chart square."""
        return ChartSymbolField(
            x0=-halfwidth, x1=halfwidth, y0=-halfwidth, y1=halfwidth, nx=grid, ny=grid,
            rep_fn=self.rep_grid, abs2_fn=self.abs2_grid, tile_bound_fn=self.tile_bounds,
        )


def _validate_mn(m: int, n: int) -> None:
    for name, value, (lo, hi) in (("m", m, M_RANGE), ("n", n, N_RANGE)):
        if not (isinstance(value, (int, np.integer)) and lo <= value <= hi):
            raise OutOfRange(f"{name} must lie in [{lo}, {hi}] as an integer, got {value}")


def sigma_mn(m: int, n: int) -> SphereSymbol:
    """Model symbol with v = z^m and s = z^n.

    The cubic field splits the monomial z^n over three factors greedily:
    n = 5 becomes (2, 2, 1), n = 1 becomes (1, 0, 0), and so on.
    """
    _validate_mn(m, n)
    degs = []
    left = n
    for _ in range(3):
        d = min(2, left)
        degs.append(d)
        left -= d
    return SphereSymbol(v=PolyVF.monomial(m), factors=tuple(PolyVF.monomial(d) for d in degs))


# ---------------------------------------------------------------------------
# multiplicity radii of the model family


def radial_profile(m: int, n: int, r):
    """h(r) = (lam r^m)^2 - (lam^3 r^n)^2, twice the determinant on |z| = r."""
    r = np.asarray(r, dtype=float)
    lam = 2.0 / (1.0 + r * r)
    out = (lam * r**m) ** 2 - (lam**3 * r**n) ** 2
    return float(out) if out.ndim == 0 else out


class ZSet(NamedTuple):
    radii: tuple[float, ...]
    includes_zero: bool
    includes_infinity: bool


def z_set(m: int, n: int) -> ZSet:
    """Multiplicity radii of sigma_mn in chart 1, plus the isolated
    singular points at the chart origin and at infinity.

    The radii are the positive roots of (1 + r^2)^2 r^m - 4 r^n.  With
    d = n - m and r^min(m, n) divided out, that is r^-d (1 + r^2)^2 - 4
    for d < 0, one sign change, and r^4 + 2r^2 + 1 - 4r^d for d >= 0:

        d = 1:  (r - 1)(r^3 + r^2 + 3r - 1)
        d = 2:  (r - 1)^2 (r + 1)^2, r = 1 tangential
        d = 3:  (r - 1)(r^3 - 3r^2 - r - 1)

    and one sign change for d = 0, 4, 5, 6.  By Descartes' rule of signs
    r = 1 is the only positive root except for d = 1 and 3, where each
    cubic has one sign change and so one positive root: ALPHA, and
    INV_ALPHA = 1 / ALPHA (the second cubic is the first one's reversal
    up to sign).  The radii come back sorted, as the nearest doubles.
    """
    _validate_mn(m, n)
    radii = {1: (ALPHA, 1.0), 3: (1.0, INV_ALPHA)}.get(n - m, (1.0,))
    return ZSet(
        radii=radii,
        includes_zero=(m > 0 and n > 0),
        includes_infinity=(m < 2 and n < 6),
    )


class TransversalityReport(NamedTuple):
    analytic_slope: float
    numeric_slope: float
    transversal: bool


def transversality_h(m: int, n: int) -> TransversalityReport:
    """Slope of the radial profile at r = 1; vanishes exactly when
    n - m = 2, the tangential family."""
    _validate_mn(m, n)
    analytic = 2.0 * (2.0 + m - n)
    h = TRANSVERSALITY_STEP
    numeric = (radial_profile(m, n, 1.0 + h) - radial_profile(m, n, 1.0 - h)) / (2.0 * h)
    return TransversalityReport(
        analytic_slope=analytic,
        numeric_slope=float(numeric),
        transversal=(n - m != 2),
    )


class CurveTrace(NamedTuple):
    """An extracted curve, its certificate and its traced component, if any."""

    curve: SingularCurve
    cert: RegularValueCertificate
    component: MultiplicityComponent | None

    def winding_fields(self) -> dict:
        """The traced winding with its lift margins, the winding residual
        and the largest step of the lifted angle (below a quarter turn)."""
        comp = self.component
        if comp is None:
            return dict.fromkeys(("winding", "knot", "connected", "winding_residual", "max_angle_step"))
        return {"winding": comp.winding, "knot": list(comp.knot), "connected": comp.connected,
                "winding_residual": comp.winding_residual,
                "max_angle_step": float(np.abs(np.diff(comp.kernel_angles)).max())}


def trace_sigma_mn(m: int, n: int, grid: int = 512, tol_contour: float = CONTOUR_REL_TOL
                   ) -> tuple[ZSet, TransversalityReport, float, list[CurveTrace]]:
    """Extract, certify and trace the chart 1 multiplicity curves of sigma_mn.

    A kernel line is traced only along a closed, certified curve of a
    transversal family.  Returns the z set, the transversality report,
    the chart halfwidth and one CurveTrace per extracted curve.
    """
    _validate_mn(m, n)
    zs = z_set(m, n)
    tv = transversality_h(m, n)
    halfwidth = max(2.0, 1.3 * max(zs.radii))
    fld = sigma_mn(m, n).chart_field(halfwidth=halfwidth, grid=grid)
    rows = []
    for c in extract_singular_set(fld, rel_tol=tol_contour):
        cert = regular_value_check(fld, c)
        traced = c.closed and tv.transversal and cert.transversal
        rows.append(CurveTrace(c, cert, trace_component(fld, c) if traced else None))
    return zs, tv, halfwidth, rows


def analyze_mn(m: int, n: int, grid: int = 512, tol_contour: float = CONTOUR_REL_TOL) -> dict:
    """Full chart 1 pipeline for sigma_mn.

    Extracts the multiplicity curves, certifies transversality, and
    (only when the family is transversal) traces kernel line windings.
    Returns a plain dict ready for serialization.
    """
    zs, tv, halfwidth, rows = trace_sigma_mn(m, n, grid=grid, tol_contour=tol_contour)
    circles = [
        {"r": float(np.hypot(row.curve.polyline[:, 0], row.curve.polyline[:, 1]).mean()),
         **row.winding_fields()}
        for row in rows
    ]
    return {
        "m": int(m),
        "n": int(n),
        "grid": int(grid),
        "halfwidth": halfwidth,
        "radii": list(zs.radii),
        "includes_zero": zs.includes_zero,
        "includes_infinity": zs.includes_infinity,
        "dh_dr_1": tv.analytic_slope,
        "dh_dr_1_numeric": tv.numeric_slope,
        "transversal": tv.transversal,
        "circles": circles,
    }
