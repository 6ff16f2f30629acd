from fractions import Fraction

import pytest

from lenscert import geom, oracle
from lenscert.ball import (
    Ball,
    ball_add,
    ball_mul,
    ball_mul_rat,
    ball_pow_int,
    ball_sub,
    intersects,
    pi_ball,
    sqrt_ball,
)
from lenscert.bigfloat import bf_cmp, bf_two_power
from lenscert.errors import InvalidArgument

from helpers import bf_to_fraction, widen


def _contains(b, x) -> bool:
    """b encloses the rational x"""
    return abs(Fraction(x) - bf_to_fraction(b.mid)) <= bf_to_fraction(b.rad)


def _coords(x) -> tuple[Fraction, ...]:
    """The exact rational coordinates of a LensExact or QSqrt23 value"""
    return tuple(getattr(x, name) for name in x.__slots__)


class TestArcProfileQuadrature:
    def test_matches_polynomial_path(self):
        prec = 64
        q = geom.competitor_energy_quadrature(3, 3, prec)
        p = oracle.polynomial_m_value(3, 3, 128)
        assert intersects(q.m_value, p.m_value)

    def test_one_pass_per_arc_on_default_pairs(self, monkeypatch):
        """one moment evaluation per arc (one when k = l) meets the agreement
        width on the default pairs of n = 8..24"""
        arcs = []
        arc_quad = oracle.arc_profile_quadrature

        def counting_arc(*args):
            arcs.append(args[2])
            return arc_quad(*args)

        monkeypatch.setattr(oracle, "arc_profile_quadrature", counting_arc)
        for n in range(8, 25):
            for k, l in geom.default_pairs(n):
                arcs.clear()
                q = geom.competitor_energy_quadrature(k, l, 64)
                assert 2 * bf_to_fraction(q.m_value.rad) <= Fraction(1e-6)
                assert arcs == ([k] if k == l else [k, l]), (k, l, arcs)

    def test_moments_match_polynomial_arcs(self):
        """for odd pairs the moment integrals, times radius^jj resp.
        radius^(jj+2), intersect the exact u-polynomial integrals of
        `_arc_poly_integrals` on both arcs: two exact formulas, no mpmath"""
        w = 256
        for n in range(4, 25):
            for k, l in geom.all_pairs(n):
                if k % 2 == 0 or l % 2 == 0:
                    continue
                consts = geom.lawson_constants(k, l, w)
                pi = pi_ball(w)
                arcs = [
                    (consts.rho, consts.d, k, l, ball_add(ball_mul_rat(pi, 1, 6, w), consts.theta, w),
                     consts.lambda_),
                    (consts.r, consts.h, l, k, ball_sub(ball_mul_rat(pi, 2, 3, w), consts.theta, w),
                     Ball.from_int(1, w)),
                ]
                for radius, offset, kk, jj, angle, corner in arcs:
                    moments = oracle.arc_profile_quadrature(radius, offset, kk, jj, angle, w)
                    poly = oracle._arc_poly_integrals(
                        radius, offset, kk, (jj + 1) // 2, corner, ball_sub(radius, offset, w)
                    )
                    for e, got, exact in zip((jj, jj + 2), moments, poly):
                        scaled = ball_mul(ball_pow_int(radius, e, w), got, w)
                        assert intersects(scaled, exact), (k, l, kk, e)
                        assert bf_cmp(scaled.rad, bf_two_power(-101)) <= 0, (k, l, kk, e)

    def test_pass_precision_angle_keeps_wide_pair_narrow(self):
        """the constants and the corner angle are taken at the pass
        precision, so their radii, amplified by the binomial cancellation of
        the arc with k = 16, do not set the width of (16,6)"""
        q = geom.competitor_energy_quadrature(16, 6, 64)
        assert 2 * bf_to_fraction(q.m_value.rad) < Fraction(1e-9)

    @pytest.mark.parametrize("k,l", [(2, 4), (11, 11), (10, 12), (3, 5)])
    def test_arc_pass_encloses_mpmath(self, k, l):
        """both arc integrals of a pair, at 64 and 128 bits, enclose mpmath.quad
        of (rho sin t - d)^k cos^j t at 40 digits; with the lower endpoint
        widened by 2^-20 the enclosure holds the integrals from both ends of
        the endpoint ball"""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            self._check_arcs_against_mpmath(mpmath, k, l)

    @staticmethod
    def _check_arcs_against_mpmath(mpmath, k, l):
        theta = mpmath.atan(mpmath.sqrt(mpmath.mpf(k) / l))
        slop = mpmath.ldexp(1, -20)
        for w, width in ((64, 1e-10), (128, 1e-29)):
            consts = geom.lawson_constants(k, l, w)
            pi = pi_ball(w)
            arcs = [
                (consts.rho, consts.d, k, l,
                 ball_add(ball_mul_rat(pi, 1, 6, w), consts.theta, w), mpmath.pi / 6 + theta),
                (consts.r, consts.h, l, k,
                 ball_sub(ball_mul_rat(pi, 2, 3, w), consts.theta, w), 2 * mpmath.pi / 3 - theta),
            ]
            for radius, offset, kk, jj, lower, lower_mp in arcs:
                # the integrand at the parameter midpoints, which lie in the balls
                rad_mp, off_mp = (
                    mpmath.ldexp(b.mid.sign * b.mid.man, b.mid.exp) for b in (radius, offset)
                )
                inputs = [
                    (lower, [lower_mp]),
                    (widen(lower, bf_two_power(-20)), [lower_mp - slop, lower_mp + slop]),
                ]
                for start, starts_mp in inputs:
                    out = oracle.arc_profile_quadrature(radius, offset, kk, jj, start, w)
                    for j, got in zip((jj, jj + 2), out):
                        for a in starts_mp:
                            exact, err = mpmath.quad(
                                lambda t: (rad_mp * mpmath.sin(t) - off_mp) ** kk * mpmath.cos(t) ** j,
                                [a, mpmath.pi / 2],
                                error=True,
                            )
                            assert err < 1e-30
                            man, exp = exact.man_exp
                            assert _contains(got, Fraction(man) * Fraction(2) ** exp), (kk, j, w)
                        if start is lower:
                            assert 2 * bf_to_fraction(got.rad) <= Fraction(width), (kk, j, w)


class TestLensExactWallis:
    def test_n3_pure_rational(self):
        cap, vol = oracle.lens_exact_wallis(3)
        assert _coords(vol) == (Fraction(5, 12), Fraction(0), Fraction(0))
        assert cap.b == 0 and cap.c == 0

    def test_n8_exact_volume(self):
        cap, vol = oracle.lens_exact_wallis(8)
        assert vol.c == Fraction(560, 3072)
        assert vol.b == Fraction(-837, 3072)
        assert vol.a == 0

    def test_odd_dimensions_have_no_radicals(self):
        for n in range(3, 41, 2):
            cap, vol = oracle.lens_exact_wallis(n)
            assert cap.b == cap.c == 0
            assert vol.b == vol.c == 0

    @pytest.mark.parametrize("n", list(range(3, 41)))
    def test_matches_lens_quantities(self, n):
        """lambda_plane from the exact cosine-power cap and volume meets the
        general path's"""
        prec = 96
        exact = oracle.lambda_plane_exact_ball(n, *oracle.lens_exact_wallis(n), prec)
        assert intersects(exact, geom.lens_quantities(n, prec).lambda_plane)


class TestQSqrt23:
    def test_multiplication_table(self):
        s2 = oracle.QSqrt23(Fraction(0), Fraction(1), Fraction(0), Fraction(0))
        s3 = oracle.QSqrt23(Fraction(0), Fraction(0), Fraction(1), Fraction(0))
        s6 = s2 * s3
        assert _coords(s6) == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        assert _coords(s2 * s2) == _coords(oracle.QSqrt23.from_rational(2))
        assert _coords(s3 * s3) == _coords(oracle.QSqrt23.from_rational(3))
        assert _coords(s6 * s6) == _coords(oracle.QSqrt23.from_rational(6))

    def test_embedding_encloses_exact_value(self):
        x = oracle.QSqrt23(Fraction(1, 3), Fraction(-2), Fraction(1, 7), Fraction(5, 11))
        b = x.to_ball(128)
        # compare against an independent high-precision composition
        prec = 192
        ref = (
            Ball.from_fraction(Fraction(1, 3), prec)
            + ball_mul_rat(sqrt_ball(Ball.from_int(2, prec), prec), -2, 1, prec)
            + ball_mul_rat(sqrt_ball(Ball.from_int(3, prec), prec), 1, 7, prec)
            + ball_mul_rat(sqrt_ball(Ball.from_int(6, prec), prec), 5, 11, prec)
        )
        assert intersects(b, ref)


class TestPolynomialMValue:
    def test_rejects_even_indices(self):
        with pytest.raises(InvalidArgument):
            oracle.polynomial_m_value(2, 4, 96)

    @pytest.mark.parametrize(
        "k,l,expect",
        [(3, 3, "6.81857964"), (5, 5, "9.26851974"), (5, 7, "10.33488774")],
    )
    def test_reference_values(self, k, l, expect):
        from lenscert.reports import certified_decimal

        en = oracle.polynomial_m_value(k, l, 128)
        assert certified_decimal(en.m_value, 8) == expect

    def test_intersects_specfun_all_odd_pairs(self):
        for s in range(6, 19, 2):
            for k in range(1, s, 2):
                l = s - k
                if l % 2 == 0 or not (3 * k > l and k < 3 * l):
                    continue
                p = oracle.polynomial_m_value(k, l, 128)
                f = geom.competitor_energy_specfun(k, l, 128)
                assert intersects(p.m_value, f.m_value), (k, l)

    @pytest.mark.parametrize("k,l", [(11, 11), (9, 11)])
    def test_narrow_at_64_bits(self, k, l):
        """one integrand polynomial per arc, evaluated by Horner, keeps the
        64-bit enclosure below 1e-14 wide"""
        en = oracle.polynomial_m_value(k, l, 64)
        assert 2 * bf_to_fraction(en.m_value.rad) < Fraction(1, 10**14)

    @pytest.mark.parametrize("k,l,calls", [(11, 11, 1), (9, 11, 2)])
    def test_one_expansion_per_arc(self, monkeypatch, k, l, calls):
        """both integrals of an arc come from one call, and k = l reuses it"""
        seen = []
        inner = oracle._arc_poly_integrals

        def counted(*args):
            seen.append(args)
            return inner(*args)

        monkeypatch.setattr(oracle, "_arc_poly_integrals", counted)
        oracle.polynomial_m_value(k, l, 64)
        assert len(seen) == calls

    def test_arc_integrals_on_fractions(self):
        """the generic routine on exact rationals against mpmath quadrature
        of u^kk (radius^2 - (u + offset)^2)^j for j = m - 1 and m"""
        mpmath = pytest.importorskip("mpmath")
        radius, offset, lower, upper = Fraction(7, 3), Fraction(2, 5), Fraction(1, 4), Fraction(3, 2)
        kk, m = 3, 2
        got = oracle._arc_poly_integrals(radius, offset, kk, m, lower, upper)

        def mp(x):
            return mpmath.mpf(x.numerator) / x.denominator

        with mpmath.workdps(40):
            for j, value in zip((m - 1, m), got):
                assert isinstance(value, Fraction)
                ref = mpmath.quad(
                    lambda u: u**kk * (mp(radius) ** 2 - (u + mp(offset)) ** 2) ** j, [mp(lower), mp(upper)]
                )
                assert abs(mp(value) - ref) < mpmath.mpf(10) ** -30


class TestExactSimons:
    def test_published_integers_k3(self):
        ex = oracle.exact_simons_m(3)
        assert _coords(ex.num) == (
            Fraction(-699776), Fraction(494843), Fraction(-404096), Fraction(285740)
        )
        assert _coords(ex.den) == (
            Fraction(913063), Fraction(-645632), Fraction(527138), Fraction(-372736)
        )
        assert ex.num_scale == Fraction(105, 16)
        assert ex.den_scale == Fraction(105, 8)

    @pytest.mark.parametrize(
        "k,num,den,num_scale,den_scale",
        [
            (5, (-4500598784, 3182404559, -2598424576, 1837363660),
             (5931977602, -4194541568, 3424828137, -2421719040), Fraction(385, 4), Fraction(1155, 4)),
            (7, (-4090398310400, 2892348385227, -2361592578048, 1669898126406),
             (4063509078760, -2873334824960, 2346068057701, -1658920632320), Fraction(15015, 64), Fraction(45045, 64)),
            (11, (-17368997933789216768, 12281736221397623455, -10027995632628662272, 7090863713540813258),
             (589471508663483653214, -416819301092213915648, 340331534206465465203, -240650735689012346880),
             Fraction(437437, 48), Fraction(22309287, 16)),
        ],
    )
    def test_recorded_integers(self, k, num, den, num_scale, den_scale):
        """normalised elements and scales, pinned for k = 5, 7, 11"""
        ex = oracle.exact_simons_m(k)
        assert _coords(ex.num) == tuple(map(Fraction, num))
        assert _coords(ex.den) == tuple(map(Fraction, den))
        assert (ex.num_scale, ex.den_scale) == (num_scale, den_scale)

    def test_assembled_value_k3(self):
        from lenscert.reports import certified_decimal

        ex = oracle.exact_simons_m(3)
        assert certified_decimal(ex.assembled(128), 8) == "6.81857964"

    def test_zero_field_error_before_embedding(self):
        """the field pipeline is exact: scaled elements have denominator one"""
        for k in (1, 3, 5):
            ex = oracle.exact_simons_m(k)
            for coord in (ex.num.a, ex.num.b, ex.num.c, ex.num.d):
                assert coord.denominator == 1
            for coord in (ex.den.a, ex.den.b, ex.den.c, ex.den.d):
                assert coord.denominator == 1

    def test_matches_polynomial_path(self):
        for k in (1, 3, 5, 7):
            ex = oracle.exact_simons_m(k)
            p = oracle.polynomial_m_value(k, k, 128)
            assert intersects(ex.assembled(128), p.m_value)

    def test_k1_below_lens_energy(self):
        ex = oracle.exact_simons_m(1)
        lam4 = geom.lens_quantities(4, 128).lambda_plane
        assert bf_cmp(ex.assembled(128).sup(), lam4.inf()) < 0

    def test_rejects_even_k(self):
        with pytest.raises(InvalidArgument):
            oracle.exact_simons_m(2)
