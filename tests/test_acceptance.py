"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run standalone with `pytest tests/test_acceptance.py -v`.

The reference-table digit checks keep the published 8-decimal entries
verbatim.  Six published M entries (every pair containing an even index)
disagree with the competitor construction itself; `M_ERRATA` holds the
certified digits for those pairs, and the table test asserts them and that
the published digits are refuted.  For even pairs the library has two
evaluation paths (special function and exact trigonometric moments), for all-odd
pairs three (plus the polynomial test reference).  `test_m_reference_mpmath`
settles every row with an mpmath evaluation that shares no code with
lenscert.
"""

import time
from fractions import Fraction

import pytest

from lenscert import certify as C
from lenscert import geom, oracle, reports
from lenscert.ball import (
    Ball,
    ball_add,
    ball_from_str,
    ball_mul,
    ball_mul_rat,
    ball_sub,
    intersects,
    pi_ball,
    pow_rational,
    sqrt_ball,
)
from lenscert.bigfloat import bf_cmp

from helpers import bf_to_fraction


def _certainly_less(a, b) -> bool:
    """every point of a lies below every point of b"""
    return bf_cmp(a.sup(), b.inf()) < 0


def _contains(b, x) -> bool:
    """b encloses the rational x"""
    return abs(Fraction(x) - bf_to_fraction(b.mid)) <= bf_to_fraction(b.rad)


def _encloses(outer, inner) -> bool:
    """outer encloses every point of inner"""
    lo, hi = bf_to_fraction(outer.inf()), bf_to_fraction(outer.sup())
    return lo <= bf_to_fraction(inner.inf()) and bf_to_fraction(inner.sup()) <= hi


# published reference digits (n, k, l) -> (lambda_8dp or None, m_8dp)
TABLE1 = [
    (8, 3, 3, "7.29128238", "6.81857964"),
    (9, 3, 4, "7.93735360", "7.47627954"),
    (10, 4, 4, "8.55000228", "8.10521276"),
    (10, 3, 5, None, "8.09827171"),
    (11, 4, 5, "9.13366648", "8.69902383"),
    (12, 5, 5, "9.69190314", "9.26851974"),
    (13, 5, 6, "10.22761175", "9.81252149"),
    (14, 6, 6, "10.74319067", "10.33685856"),
    (14, 5, 7, None, "10.33488774"),
    (15, 6, 7, "11.24064916", "10.84138264"),
    (16, 7, 7, "11.72168941", "11.32970357"),
]

# certified M digits for the six pairs whose published entry above is wrong.
# Evidence: test_m_reference_mpmath evaluates the construction (circular
# arcs centred on the axes, 120-degree junction at the corner on the Lawson
# cone) with mpmath at 40 digits, sharing no code with lenscert; it gives
# these digits, the library's, and all five published all-odd entries.  The
# published gaps change sign from pair to pair, so no single constant factor
# explains them.
M_ERRATA = {
    (3, 4): "7.47738791",
    (4, 4): "8.10554833",
    (4, 5): "8.69919416",
    (5, 6): "9.81250256",
    (6, 6): "10.33682064",
    (6, 7): "10.84137996",
}

WIDTH_CAP = Fraction(5e-9)


@pytest.fixture(scope="module")
def table_data():
    t0 = time.time()
    rows = {}
    for n in range(8, 17):
        lens = geom.lens_quantities(n, 128)
        for k, l in geom.table_pairs(n):
            en = geom.competitor_energy_specfun(k, l, 128)
            rows[(n, k, l)] = (lens.lambda_plane, en.m_value)
    elapsed = time.time() - t0
    print("\n[criterion 1] table computed in %.1fs (cap 30s)" % elapsed)
    assert elapsed < 30.0
    return rows


class TestCriterion1Table:
    @pytest.mark.parametrize("n,k,l,lam,m", TABLE1, ids=lambda v: str(v))
    def test_table1_digits(self, table_data, n, k, l, lam, m):
        lam_ball, m_ball = table_data[(n, k, l)]
        assert 2 * bf_to_fraction(lam_ball.rad) < WIDTH_CAP
        assert 2 * bf_to_fraction(m_ball.rad) < WIDTH_CAP
        if lam is not None:
            got_lam = reports.certified_decimal(lam_ball, 8)
            assert got_lam == lam, "lens energy at n=%d: certified %s" % (n, got_lam)
        got_m = reports.certified_decimal(m_ball, 8)
        want_m = M_ERRATA.get((k, l), m)
        assert got_m == want_m, (
            "M(%d,%d): certified value %s differs from the expected entry %s "
            "(published %s)" % (k, l, got_m, want_m, m)
        )
        if (k, l) in M_ERRATA:
            # the enclosure lies outside every value that rounds to the
            # published digits, so the published entry is refuted
            half_ulp = Fraction(5, 10**9)
            assert (
                bf_to_fraction(m_ball.sup()) < Fraction(m) - half_ulp
                or bf_to_fraction(m_ball.inf()) > Fraction(m) + half_ulp
            ), "M(%d,%d): published entry %s not refuted" % (k, l, m)

    def test_criterion_examples(self, table_data):
        """the three example values quoted in the criterion itself"""
        assert reports.certified_decimal(table_data[(8, 3, 3)][0], 8) == "7.29128238"
        assert reports.certified_decimal(table_data[(8, 3, 3)][1], 8) == "6.81857964"
        assert reports.certified_decimal(table_data[(14, 5, 7)][1], 8) == "10.33488774"
        print("[criterion 1] example values reproduced")

    def test_m_reference_mpmath(self):
        """M(k,l) for every TABLE1 row from an mpmath evaluation of the
        construction that uses no lenscert code: the expected digits are the
        errata digits where a pair has them, the published ones otherwise"""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for _, k, l, _, m in TABLE1:
                value = _mpmath_competitor_energy(mpmath, k, l)
                scaled = value * 10**8
                digits = mpmath.nint(scaled)
                # the 8-decimal rounding is unambiguous
                assert abs(scaled - digits) < mpmath.mpf("0.5") - mpmath.mpf("1e-10")
                got = "%d.%08d" % divmod(int(digits), 10**8)
                assert got == M_ERRATA.get((k, l), m), (k, l, got)
        print("\n[criterion 1] mpmath reference reproduces M for all %d rows" % len(TABLE1))


def _mpmath_competitor_energy(mpmath, k, l):
    """(perimeter - cone) / volume^((n-1)/n) of the two-arc competitor in
    R^(k+1) x R^(l+1), n = k+l+2, in the profile quadrant (u, v) = (|x|, |y|).

    The cone u = sqrt(k/l) v runs from the origin to the corner P = (lam, 1)
    and leaves it outward.  Two circular arcs leave P at 120 degrees to the
    outward cone ray: one ends on the u-axis, centred on it, the other on the
    v-axis, centred on that.  A profile curve sweeps out the measure
    |S^k| |S^l| u^k v^l ds, a region |S^k| |S^l| u^k v^l du dv.
    """
    mp = mpmath
    lam = mp.sqrt(mp.mpf(k) / l)
    px, py = lam, mp.mpf(1)
    norm_p = mp.hypot(px, py)
    cx, cy = px / norm_p, py / norm_p  # outward cone direction

    def rotate(x, y, angle):
        return (mp.cos(angle) * x - mp.sin(angle) * y, mp.sin(angle) * x + mp.cos(angle) * y)

    # u-arc: its tangent at P is the cone ray turned by -120 degrees; the
    # centre is where the normal line through P meets the u-axis
    tx, ty = rotate(cx, cy, -2 * mp.pi / 3)
    s = -py / tx  # P + s (-ty, tx) has v = 0
    a, rho = px - s * ty, abs(s)
    # v-arc: tangent turned by +120 degrees, centre on the v-axis
    tx, ty = rotate(cx, cy, 2 * mp.pi / 3)
    s = px / ty  # P + s (-ty, tx) has u = 0
    b, r = py + s * tx, abs(s)

    # junction checks: P on both circles, and the circles' own unit tangents
    # at P (pointing to the u-axis and to the v-axis) balance the cone ray
    tol = mp.mpf("1e-25")
    assert abs(mp.hypot(px - a, py) - rho) < tol
    assert abs(mp.hypot(px, py - b) - r) < tol
    tu = (py / rho, -(px - a) / rho)
    tv = (-(py - b) / r, px / r)
    assert abs(cx + tu[0] + tv[0]) < tol and abs(cy + tu[1] + tv[1]) < tol
    # both arcs end on their axis beyond the corner
    assert a + rho > px and b + r > py

    def quad(f, lo, hi):
        value, err = mp.quad(f, [lo, hi], error=True)
        assert err < mp.mpf("1e-20"), (k, l, err)
        return value

    # arcs by angle t at their centres, each with dv = radius cos(t) dt
    arcs = [
        (lambda t: (a + rho * mp.cos(t), rho * mp.sin(t)), rho, 0, mp.atan2(py, px - a)),
        (lambda t: (r * mp.cos(t), b + r * mp.sin(t)), r, mp.atan2(py - b, px), mp.pi / 2),
    ]

    def along_arcs(f):  # sum of the integrals of f(u, v, cos t) radius dt
        total = 0
        for arc, radius, lo, hi in arcs:
            total += quad(lambda t: f(*arc(t), mp.cos(t)) * radius, lo, hi)
        return total

    perimeter = along_arcs(lambda u, v, cos_t: u**k * v**l)
    # Green's theorem: the double integral of u^k v^l over the region is the
    # boundary integral of u^(k+1) v^l / (k+1) dv, taken counterclockwise;
    # the axis segments contribute nothing
    volume = along_arcs(lambda u, v, cos_t: u ** (k + 1) * v**l * cos_t) / (k + 1)
    cone = quad(lambda t: (px * t) ** k * (py * t) ** l * norm_p, 0, 1)

    def sphere_area(dim):  # |S^dim|
        return 2 * mp.pi ** (mp.mpf(dim + 1) / 2) / mp.gamma(mp.mpf(dim + 1) / 2)

    n = k + l + 2
    spheres = sphere_area(k) * sphere_area(l)
    return (spheres * (perimeter - cone)) / (spheres * volume) ** (mp.mpf(n - 1) / n)


class TestCriterion2DeskScale:
    def test_certify_8_to_200_proven(self):
        t0 = time.time()
        certs = C.certify(range(8, 201), jobs=2)
        elapsed = time.time() - t0
        not_proven = [c["n"] for c in certs if c["verdict"] != "Proven"]
        print("\n[criterion 2] certify 8..200 in %.1fs (cap 600s), non-proven: %s"
              % (elapsed, not_proven))
        assert elapsed < 600.0
        assert not_proven == []
        # disjoint enclosures: strictness was decided on serialized balls
        for c in certs:
            lam = ball_from_str(c["lambda_plane"], c["precision_bits"])
            for e in c["entries"]:
                mv = ball_from_str(e["m_value"], c["precision_bits"])
                assert _certainly_less(mv, lam)


class TestCriterion3ExactLens8:
    def test_closed_form_crosscheck(self):
        """4 (2/3)^(1/4) pi^(3/8) (-837 sqrt3/35 + 16 pi)^(1/8) meets the
        general evaluation within width 1e-20"""
        prec = 192
        pi = pi_ball(prec)
        inner = ball_sub(
            ball_mul_rat(pi, 16, 1, prec),
            ball_mul_rat(sqrt_ball(Ball.from_int(3, prec), prec), 837, 35, prec),
            prec,
        )
        closed = ball_mul_rat(
            ball_mul(
                ball_mul(
                    pow_rational(Ball.from_fraction(Fraction(2, 3), prec), 1, 4, prec),
                    pow_rational(pi, 3, 8, prec),
                    prec,
                ),
                pow_rational(inner, 1, 8, prec),
                prec,
            ),
            4,
            1,
            prec,
        )
        general = geom.lens_quantities(8, prec).lambda_plane
        cap = Fraction(1e-20)
        assert 2 * bf_to_fraction(closed.rad) <= cap
        assert 2 * bf_to_fraction(general.rad) <= cap
        assert intersects(closed, general)
        print("\n[criterion 3] closed-form and general lens energies intersect "
              "at widths %.1e / %.1e" % (float(bf_to_fraction(closed.rad)) * 2, float(bf_to_fraction(general.rad)) * 2))


class TestCriterion4ExactM33:
    def test_field_integers_and_value(self):
        ex = oracle.exact_simons_m(3)
        assert (ex.num.a, ex.num.b, ex.num.c, ex.num.d) == (
            Fraction(-699776), Fraction(494843), Fraction(-404096), Fraction(285740),
        )
        assert (ex.den.a, ex.den.b, ex.den.c, ex.den.d) == (
            Fraction(913063), Fraction(-645632), Fraction(527138), Fraction(-372736),
        )
        assert reports.certified_decimal(ex.assembled(128), 8) == "6.81857964"
        print("\n[criterion 4] exact field coefficients reproduced; "
              "assembled value rounds to 6.81857964")


class TestCriterion5TriplePath:
    def test_all_pairs_up_to_n20(self):
        t0 = time.time()
        checked = 0
        for n in range(4, 21):
            for k, l in geom.all_pairs(n):
                spec = geom.competitor_energy_specfun(k, l, 128)
                quad = geom.competitor_energy_quadrature(k, l, 64)
                assert 2 * bf_to_fraction(quad.m_value.rad) <= Fraction(1e-6)
                assert intersects(spec.m_value, quad.m_value), (k, l)
                if k % 2 == 1 and l % 2 == 1:
                    poly = oracle.polynomial_m_value(k, l, 128)
                    assert intersects(spec.m_value, poly.m_value), (k, l)
                    assert intersects(quad.m_value, poly.m_value), (k, l)
                checked += 1
        print("\n[criterion 5] %d pairs triple-checked in %.1fs" % (checked, time.time() - t0))


class TestCriterion6Monotonicity:
    def _certified_compare(self, make_a, make_b):
        """_certainly_less(a, b) with precision escalation"""
        prec = 128
        while prec <= 4096:
            if _certainly_less(make_a(prec), make_b(prec)):
                return True
            prec *= 2
        return False

    def test_lambda_increasing_and_gap_decreasing(self):
        t0 = time.time()
        prec = 128
        lens = {n: geom.lens_quantities(n, prec).lambda_plane for n in range(8, 65)}
        gaps = {}
        for n in range(8, 65):
            k, l = geom.default_pairs(n)[0]
            gaps[n] = ball_sub(lens[n], geom.competitor_energy_specfun(k, l, prec).m_value, prec)
        for n in range(8, 64):
            v = _certainly_less(lens[n], lens[n + 1]) or self._certified_compare(
                lambda p: geom.lens_quantities(n, p).lambda_plane,
                lambda p: geom.lens_quantities(n + 1, p).lambda_plane,
            )
            assert v, "lens energy at n=%d vs %d" % (n, n + 1)
            assert _certainly_less(gaps[n + 1], gaps[n]), "gap at n=%d vs %d" % (n, n + 1)
        print("\n[criterion 6] monotonicity certified over 8..64 in %.1fs" % (time.time() - t0))


class TestCriterion7Soundness:
    """compact re-statement of the module invariants; the full property suite
    lives in the sibling test modules and runs standalone"""

    def test_enclosure_identity(self):
        import random

        rng = random.Random(1)
        for _ in range(200):
            f = Fraction(rng.randint(1, 9999), rng.randint(1, 9999))
            x = Ball.from_fraction(f, 96)
            assert _contains(ball_mul(x, Ball.from_fraction(1 / f, 96), 96), 1)

    def test_two_precision_consistency(self):
        lo = geom.lens_quantities(10, 64).lambda_plane
        hi = geom.lens_quantities(10, 160).lambda_plane
        assert intersects(lo, hi)
        assert bf_cmp(hi.rad, lo.rad) <= 0

    def test_tail_bound_validity(self, monkeypatch):
        """the lens series of n = 8 summed to the tolerance 2^-120 lies
        inside its sum to 2^-48"""
        from lenscert import specfun

        sums = []
        for tol_exp in (-48, -120):
            monkeypatch.setattr(specfun, "_default_tol", lambda prec: tol_exp)
            sums.append(specfun.gauss_2f1(8, 128))
        assert _encloses(*sums)

    def test_quadrature_refinement(self):
        """the arc moments at a higher precision give an enclosure that
        intersects the lower-precision one and is no wider"""
        outs = []
        for w in (96, 192):
            consts = geom.lawson_constants(4, 6, w)
            lower = ball_add(ball_mul_rat(pi_ball(w), 1, 6, w), consts.theta, w)
            outs.append(oracle.arc_profile_quadrature(consts.rho, consts.d, 4, 6, lower, w))
        for loose, tight in zip(*outs):
            assert intersects(loose, tight)
            assert bf_cmp(tight.rad, loose.rad) <= 0

    def test_verdict_stability_and_replay(self):
        cert = C.certify_dimension(12)
        assert cert["verdict"] == "Proven"
        assert C.replay_certificate(cert) == "Proven"
        higher = C.certify_dimension(12, prec_start=256)
        assert higher["verdict"] == "Proven"
        print("\n[criterion 7] soundness invariants verified "
              "(full property suite in the sibling test modules)")
