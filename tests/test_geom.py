from fractions import Fraction

import pytest

from lenscert import geom, oracle, specfun
from lenscert.ball import (
    Ball,
    ball_add,
    ball_mul,
    ball_mul_rat,
    ball_pow_int,
    ball_sub,
    intersects,
    pi_ball,
    pow_rational,
    sqrt_ball,
)
from lenscert.bigfloat import bf_cmp, bf_two_power
from lenscert.errors import InvalidArgument

from helpers import bf_to_fraction, widen


def _contains(b, x) -> bool:
    """b encloses the rational x"""
    return abs(Fraction(x) - bf_to_fraction(b.mid)) <= bf_to_fraction(b.rad)

# certified reference values (8 decimals).  Every M entry is reproduced by the
# special-function and exact-moment paths (and, for all-odd pairs, the
# polynomial test reference), and by the mpmath evaluation that shares no code
# with lenscert, tests/test_acceptance.py::TestCriterion1Table::
# test_m_reference_mpmath.  For the six pairs with an even index these are
# the errata digits there, not the published table entries.
LAMBDA_PLANE = {
    8: "7.29128238",
    9: "7.93735360",
    10: "8.55000228",
    11: "9.13366648",
    12: "9.69190314",
    13: "10.22761175",
    14: "10.74319067",
    15: "11.24064916",
    16: "11.72168941",
}
M_VALUES = {
    (2, 4): "6.80044050",
    (3, 3): "6.81857964",
    (3, 4): "7.47738791",
    (4, 4): "8.10554833",
    (3, 5): "8.09827171",
    (4, 5): "8.69919416",
    (5, 5): "9.26851974",
    (5, 6): "9.81250256",
    (6, 6): "10.33682064",
    (5, 7): "10.33488774",
    (6, 7): "10.84137996",
    (7, 7): "11.32970357",
}


def _mp_fraction(v) -> Fraction:
    man, exp = v.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def eight_decimals(b) -> str:
    from lenscert.reports import certified_decimal

    out = certified_decimal(b, 8)
    assert out is not None, "enclosure too wide to certify 8 decimals"
    return out


class TestLensQuantities:
    @pytest.mark.parametrize("n", sorted(LAMBDA_PLANE))
    def test_reference_values(self, n):
        lq = geom.lens_quantities(n, 128)
        assert eight_decimals(lq.lambda_plane) == LAMBDA_PLANE[n]

    def test_volume_n8_exact_inner(self):
        """lambda_plane(8) = 8 V^(1/8) with the lens volume
        V = omega_7 (560 pi - 837 sqrt3) / 3072 = 0.476115..."""
        prec = 128
        lq = geom.lens_quantities(8, prec)
        w7 = specfun.unit_ball_volume(7, prec)
        inner = ball_mul_rat(pi_ball(prec), 560, 3072, prec) - ball_mul_rat(
            sqrt_ball(Ball.from_int(3, prec), prec), 837, 3072, prec
        )
        vol = ball_mul(w7, inner, prec)
        assert abs(float(bf_to_fraction(vol.mid)) - 0.476115) < 1e-6
        assert intersects(lq.lambda_plane, ball_mul_rat(pow_rational(vol, 1, 8, prec), 8, 1, prec))

    @pytest.mark.parametrize("n", [8, 9, 16, 51, 396, 1000, 2700])
    def test_cap_and_volume_enclose_mpmath(self, n):
        """the 128-bit lambda_plane encloses mpmath's textbook lens energy at
        50 digits, up to the reference's rounding, and is narrower than 1e-35:
        with I_m the integral of sin^m over [0, pi/3], taken as
        betainc((m+1)/2, 1/2, 0, 3/4) / 2, cap = (n-1) omega_{n-1} I_{n-2},
        V = 2 omega_{n-1} I_n, disc = omega_{n-1} (sqrt3/2)^(n-1) and
        lambda = (2 cap - disc) / V^((n-1)/n), with no Wallis reduction"""
        mpmath = pytest.importorskip("mpmath")
        lq = geom.lens_quantities(n, 128)
        with mpmath.workdps(50):
            half = mpmath.mpf(1) / 2

            def sin_power_integral(m):
                return mpmath.betainc((m + 1) * half, half, 0, mpmath.mpf(3) / 4) / 2

            omega = mpmath.pi ** ((n - 1) * half) / mpmath.gamma((n + 1) * half)
            cap = (n - 1) * omega * sin_power_integral(n - 2)
            vol = 2 * omega * sin_power_integral(n)
            disc = omega * (mpmath.sqrt(3) / 2) ** (n - 1)
            lam = (2 * cap - disc) / vol ** (mpmath.mpf(n - 1) / n)
        b, r = lq.lambda_plane, _mp_fraction(lam)
        assert abs(bf_to_fraction(b.mid) - r) <= bf_to_fraction(b.rad) + r / 10**45
        assert 2 * bf_to_fraction(lq.lambda_plane.rad) < Fraction(1e-35)

    @pytest.mark.parametrize("n", [3, 8, 25, 120, 396, 2700])
    def test_quarter_series_matches_three_quarter_series(self, monkeypatch, n):
        """the lens's series 2F1(1, n+1; (n+3)/2; 1/4) encloses
        2F1(1/2, (n+1)/2; (n+3)/2; 3/4), the same value by the quadratic
        transformation F(a, b; a+b+1/2; 4z(1-z)) = F(2a, 2b; a+b+1/2; z) at
        z = 1/4 (DLMF §15.8), from mpmath.hyp2f1 at three times the bits,
        and lambda_plane rebuilt from a ball around that mpmath value
        intersects lambda_plane"""
        mpmath = pytest.importorskip("mpmath")
        prec = 256
        with mpmath.workprec(3 * prec):
            half = mpmath.mpf(1) / 2
            ref = _mp_fraction(mpmath.hyp2f1(half, (n + 1) * half, (n + 3) * half, mpmath.mpf(3) / 4))
        series = specfun.gauss_2f1(n, prec)
        assert abs(bf_to_fraction(series.mid) - ref) <= bf_to_fraction(series.rad) + ref / 2 ** (3 * prec - 16)
        lam = geom.lens_quantities(n, prec).lambda_plane

        def three_quarter_series(m, w):
            assert m == n
            return widen(Ball.from_fraction(ref, 3 * prec), bf_two_power(-(3 * prec - 18)))

        monkeypatch.setattr(specfun, "gauss_2f1", three_quarter_series)
        assert intersects(lam, geom.lens_quantities(n, prec).lambda_plane)

    def test_positive_entries(self):
        for n in (3, 4, 17, 40):
            lq = geom.lens_quantities(n, 96)
            assert lq.lambda_plane.inf().sign > 0


class TestLawsonConstants:
    def test_balanced_pair_exact_values(self):
        prec = 128
        c = geom.lawson_constants(3, 3, prec)
        s3 = sqrt_ball(Ball.from_int(3, prec), prec)
        assert intersects(c.h, ball_add(Ball.from_int(1, prec), s3, prec))
        assert intersects(
            c.r,
            ball_add(sqrt_ball(Ball.from_int(6, prec), prec), sqrt_ball(Ball.from_int(2, prec), prec), prec),
        )
        assert intersects(c.d, c.h) and intersects(c.rho, c.r)
        assert _contains(c.lambda_, 1)

    @pytest.mark.parametrize(
        "k,l",
        [(3, 4), (2, 5), (5, 7), (9, 4), (4, 11), (11, 4)]
        + [p for n in (25, 200, 1000, 2700) for p in geom.default_pairs(n)],
    )
    def test_corner_consistency(self, k, l):
        """r^2 - (1+h)^2 contains lambda^2 = k/l and rho^2 - (lambda+d)^2
        contains 1: the exact L D of `geom._arc_corner` on the v- and u-arc"""
        c = geom.lawson_constants(k, l, 128)
        w = c.r.prec
        one = Ball.from_int(1, w)
        lhs = ball_sub(ball_mul(c.r, c.r, w), ball_pow_int(ball_add(one, c.h, w), 2, w), w)
        assert _contains(lhs, Fraction(k, l))
        rhs = ball_sub(ball_mul(c.rho, c.rho, w), ball_pow_int(ball_add(c.lambda_, c.d, w), 2, w), w)
        assert _contains(rhs, 1)

    @pytest.mark.parametrize("k,l", [(1, 1), (2, 5), (4, 11), (11, 4), (22, 24), (1348, 1350)])
    def test_corner_consistency_mpmath_angles(self, k, l):
        """the two corner identities hold for mpmath's angle construction at
        50 digits, built without lenscert: with theta = atan sqrt(k/l),
        rho = sec(pi/6 + theta), d = tan(pi/6 + theta) - lambda,
        r = lambda sec(2pi/3 - theta) and h = lambda tan(2pi/3 - theta) - 1"""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            lam = mpmath.sqrt(mpmath.mpf(k) / l)
            theta = mpmath.atan(lam)
            u, v = mpmath.pi / 6 + theta, 2 * mpmath.pi / 3 - theta
            rho, d = mpmath.sec(u), mpmath.tan(u) - lam
            r, h = lam * mpmath.sec(v), lam * mpmath.tan(v) - 1
            assert abs(rho**2 - (d + lam) ** 2 - 1) < mpmath.mpf(10) ** -45 * rho**2
            assert abs(r**2 - (h + 1) ** 2 - mpmath.mpf(k) / l) < mpmath.mpf(10) ** -45 * r**2

    @pytest.mark.parametrize("k,l", [(1, 5), (5, 1), (1, 4), (9, 2)])
    def test_invalid_geometry(self, k, l):
        with pytest.raises(InvalidArgument):
            geom.lawson_constants(k, l, 128)

    def test_ratio_boundary_is_invalid(self):
        with pytest.raises(InvalidArgument):
            geom.lawson_constants(1, 3, 128)
        with pytest.raises(InvalidArgument):
            geom.lawson_constants(3, 9, 128)

    @pytest.mark.parametrize(
        "k,l", [(1, 1), (3, 3), (2, 4), (9, 26), (26, 9), (14, 41), (41, 14), (1348, 1350), (1349, 1350)]
    )
    def test_closed_forms_enclose_mpmath_angles(self, k, l):
        """the 128-bit constants enclose mpmath's angle construction at 50
        digits, up to the reference's rounding: theta = atan sqrt(k/l),
        d = tan(pi/6 + theta) - lambda, rho = sec(pi/6 + theta),
        h = lambda tan(2pi/3 - theta) - 1 and r = lambda sec(2pi/3 - theta)"""
        mpmath = pytest.importorskip("mpmath")
        c = geom.lawson_constants(k, l, 128)
        with mpmath.workdps(50):
            lam = mpmath.sqrt(mpmath.mpf(k) / l)
            theta = mpmath.atan(lam)
            u, v = mpmath.pi / 6 + theta, 2 * mpmath.pi / 3 - theta
            refs = {
                "lambda": (c.lambda_, lam),
                "theta": (c.theta, theta),
                "d": (c.d, mpmath.tan(u) - lam),
                "rho": (c.rho, mpmath.sec(u)),
                "h": (c.h, lam * mpmath.tan(v) - 1),
                "r": (c.r, lam * mpmath.sec(v)),
            }
        for name, (b, ref) in refs.items():
            x = _mp_fraction(ref)
            assert abs(bf_to_fraction(b.mid) - x) <= bf_to_fraction(b.rad) + abs(x) / 10**45, name

    @pytest.mark.parametrize("prec", [8, 64, 128])
    def test_invalid_exactly_outside_ratio_rule(self, prec):
        """for every k, l >= 1 with k + l <= 60 the constants exist exactly
        when 1/3 < k/l < 3, at any precision"""
        for k in range(1, 60):
            for l in range(1, 61 - k):
                if geom._valid_ratio(k, l):
                    geom.lawson_constants(k, l, prec)
                else:
                    with pytest.raises(InvalidArgument):
                        geom.lawson_constants(k, l, prec)

    def test_validity_conditions_hold_for_certain(self):
        """for every valid pair with k + l <= 200 the 64-bit constants decide
        d, rho, h, r > 0, lambda < rho - d and 1 < r - h"""
        for n in range(2, 201):
            for k, l in ((k, n - k) for k in range(1, n) if geom._valid_ratio(k, n - k)):
                c = geom.lawson_constants(k, l, 64)
                w = c.rho.prec
                for b in (c.d, c.rho, c.h, c.r):
                    assert b.inf().sign > 0, (k, l)
                assert bf_cmp(c.lambda_.sup(), ball_sub(c.rho, c.d, w).inf()) < 0, (k, l)
                assert bf_cmp(Ball.from_int(1, w).sup(), ball_sub(c.r, c.h, w).inf()) < 0, (k, l)


class TestCompetitorEnergy:
    @pytest.mark.parametrize("k,l", sorted(M_VALUES))
    def test_reference_values(self, k, l):
        en = geom.competitor_energy_specfun(k, l, 128)
        assert eight_decimals(en.m_value) == M_VALUES[(k, l)]

    @pytest.mark.parametrize("k,l", [(3, 4), (4, 6), (5, 8), (2, 3)])
    def test_m_symmetry(self, k, l):
        a = geom.competitor_energy_specfun(k, l, 128)
        b = geom.competitor_energy_specfun(l, k, 128)
        assert intersects(a.m_value, b.m_value)

    @pytest.mark.parametrize("k,l", [(3, 3), (3, 4), (4, 4), (2, 4)])
    def test_m_encloses_mpmath(self, k, l):
        """the 192-bit M(k,l) encloses the mpmath evaluation of the
        construction at 50 digits, which shares no code with lenscert"""
        mpmath = pytest.importorskip("mpmath")
        from test_acceptance import _mpmath_competitor_energy

        m = geom.competitor_energy_specfun(k, l, 192).m_value
        with mpmath.workdps(50):
            ref = _mp_fraction(_mpmath_competitor_energy(mpmath, k, l))
        assert abs(bf_to_fraction(m.mid) - ref) <= bf_to_fraction(m.rad) + Fraction(1, 10**45)

    @pytest.mark.parametrize("k,l,calls", [(3, 3, 1), (2, 4, 2), (49, 49, 1), (48, 50, 2)])
    def test_one_f1_call_per_corner(self, monkeypatch, k, l, calls):
        """each arc corner takes its perimeter and volume integrals from one
        `appell_f1` call: two per pair, one when k = l"""
        count = []
        inner = specfun.appell_f1

        def counting(*args, **kwargs):
            count.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(specfun, "appell_f1", counting)
        geom.competitor_energy_specfun(k, l, 128)
        assert len(count) == calls

    def test_quadrature_path_agrees(self):
        for k, l in ((3, 3), (4, 4), (3, 5), (2, 4), (3, 4)):
            s = geom.competitor_energy_specfun(k, l, 128)
            q = geom.competitor_energy_quadrature(k, l, 64)
            assert intersects(s.m_value, q.m_value)
            assert 2 * bf_to_fraction(q.m_value.rad) <= Fraction(1e-6)

    def test_polynomial_path_agrees(self):
        for k, l in ((3, 3), (3, 5), (5, 5)):
            s = geom.competitor_energy_specfun(k, l, 128)
            p = oracle.polynomial_m_value(k, l, 128)
            assert intersects(s.m_value, p.m_value)


class TestPairSelection:
    def test_default_pairs(self):
        assert geom.default_pairs(8) == [(3, 3), (2, 4)]
        assert geom.default_pairs(9) == [(3, 4)]
        assert geom.default_pairs(4) == [(1, 1)]
        assert geom.default_pairs(6) == [(2, 2)]
        with pytest.raises(InvalidArgument):
            geom.default_pairs(3)

    def test_table_pairs(self):
        assert geom.table_pairs(8) == [(3, 3)]
        assert geom.table_pairs(10) == [(4, 4), (3, 5)]
        assert geom.table_pairs(14) == [(6, 6), (5, 7)]
        assert geom.table_pairs(16) == [(7, 7)]

    def test_table_pairs_low_dimensions(self):
        # the companion (1,3) of n = 6 fails the ratio gate and is skipped
        assert geom.table_pairs(6) == [(2, 2)]
        assert geom.table_pairs(4) == [(1, 1)]
        for n in (2, 3):
            with pytest.raises(InvalidArgument):
                geom.table_pairs(n)

    def test_plot_pair(self):
        # the gap plot uses the first default pair of each dimension
        from lenscert.reports import plot_rows

        assert [(r.n, r.k, r.l) for r in plot_rows([8, 9])] == [(8, 3, 3), (9, 3, 4)]

    def test_all_pairs_ratio_gate(self):
        pairs = geom.all_pairs(10)
        assert (1, 7) not in pairs and (7, 1) not in pairs
        assert (3, 5) in pairs and (4, 4) in pairs

