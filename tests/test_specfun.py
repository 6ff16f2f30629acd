import functools
import math
import random
import sys
from fractions import Fraction

import pytest

from lenscert import specfun
from lenscert.ball import (
    _FX_GUARD,
    Ball,
    _fx_add,
    _fx_from_ball,
    _fx_mul,
    _fx_mul_rat,
    _fx_pow,
    _fx_pow_mid,
    _fx_sub,
    _fx_tail,
    ball_div,
    ball_mul,
    ball_mul_rat,
    ball_widen,
    intersects,
    pi_ball,
    sqrt_ball,
)
from lenscert.bigfloat import bf_cmp, bf_to_float, bf_to_fraction, bf_two_power
from lenscert.errors import InvalidArgument, PrecisionExhausted


def _contains(b, x) -> bool:
    """b encloses the rational x"""
    return abs(Fraction(x) - bf_to_fraction(b.mid)) <= bf_to_fraction(b.rad)


def _encloses(outer, inner) -> bool:
    """outer encloses every point of inner"""
    lo, hi = bf_to_fraction(outer.inf()), bf_to_fraction(outer.sup())
    return lo <= bf_to_fraction(inner.inf()) and bf_to_fraction(inner.sup()) <= hi


def poch(a: Fraction, m: int) -> Fraction:
    out = Fraction(1)
    for i in range(m):
        out *= a + i
    return out


def _tolerance(monkeypatch, tol_exp):
    """Make every series of `specfun` stop at the tolerance 2^tol_exp, or at
    its default 2^(-prec-12) for tol_exp None"""
    if tol_exp is not None:
        monkeypatch.setattr(specfun, "_default_tol", lambda prec: bf_two_power(tol_exp))


def _volume_rational(dims) -> tuple[int, int]:
    """(p, q) with which `unit_ball_volume_product(dims)` scales its power of
    pi by p/q = 1 / prod q_m, for Gamma(m/2 + 1) = q_m sqrt(pi)**(m % 2)"""
    seen = []
    inner = specfun.ball_mul_rat

    def recording(x, p, q, prec):
        seen.append((p, q))
        return inner(x, p, q, prec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "ball_mul_rat", recording)
        specfun.unit_ball_volume_product(dims, 64)
    (pq,) = seen
    return pq


class TestGammaHalf:
    """Gamma(m/2 + 1) = q_m sqrt(pi)**(m % 2), exactly, through the rational
    `unit_ball_volume_product` divides its power of pi by: (p, q) = (the
    denominator, the numerator) of prod q_m in lowest terms"""

    def test_base_cases(self):
        assert _volume_rational((1,)) == (2, 1)  # Gamma(3/2) = sqrt(pi) / 2
        assert _volume_rational((2,)) == (1, 1)  # Gamma(2) = 1
        assert _volume_rational((1, 1)) == (4, 1)

    def test_known_values(self):
        assert _volume_rational((5,)) == (8, 15)  # Gamma(7/2) = 15/8 sqrt(pi)
        assert _volume_rational((8,)) == (1, 24)  # Gamma(5) = 24
        assert _volume_rational((7,)) == (16, 105)  # Gamma(9/2) = 105/16 sqrt(pi)
        assert _volume_rational((7, 8)) == (2, 315)  # 105/16 * 24 in lowest terms

    def test_recursion_exact(self):
        """q_(m+2) = q_m (m+2)/2 for m = 1..60, and the q of a pair (or of
        the competitor's (k+1, l+1) at n = 2700) is the product of its
        two q_m, each in lowest terms"""

        def q(*dims):
            p, r = _volume_rational(dims)
            assert math.gcd(p, r) == 1 and p > 0
            return Fraction(r, p)

        for m in range(1, 61):
            assert q(m + 2) == q(m) * Fraction(m + 2, 2)
            assert q(m, m + 1) == q(m) * q(m + 1)
        assert q(1350, 1352) == q(1350) * q(1352)
        assert q(1349, 1351) == q(1349) * q(1351)


class TestUnitBallVolume:
    def test_low_dimensions(self):
        assert _contains(specfun.unit_ball_volume(1, 64), 2)
        assert intersects(specfun.unit_ball_volume(2, 96), pi_ball(96))

    def test_omega7(self):
        w7 = specfun.unit_ball_volume(7, 128)
        ref = ball_mul_rat(
            ball_mul(pi_ball(128), ball_mul(pi_ball(128), pi_ball(128), 128), 128), 16, 105, 128
        )
        assert intersects(w7, ref)

    def test_recurrence(self):
        """omega_m = (2 pi / m) omega_(m-2) for m = 3..40"""
        prec = 96
        for m in range(3, 41):
            lhs = specfun.unit_ball_volume(m, prec)
            rhs = ball_mul_rat(
                ball_mul(pi_ball(prec), specfun.unit_ball_volume(m - 2, prec), prec), 2, m, prec
            )
            assert intersects(lhs, rhs)


class TestGauss2F1:
    """2F1(1, b; c; z), the one form lenscert sums"""

    def test_empty_series(self):
        z = Ball.from_fraction(Fraction(1, 3), 64)
        out = specfun.gauss_2f1(0, Fraction(3, 2), z, 64)
        assert _contains(out, 1)

    def test_arcsin_identity_quarter(self):
        """2F1(1, 1; 3/2; z^2) = arcsin(z) / (z sqrt(1 - z^2)), Euler's
        transformation (DLMF 15.8.1) of 2F1(1/2, 1/2; 3/2; z^2) =
        arcsin(z) / z: at z^2 = 1/4 it is 2 pi sqrt(3) / 9"""
        z = Ball.from_fraction(Fraction(1, 4), 128)
        f = specfun.gauss_2f1(1, Fraction(3, 2), z, 128)
        s3 = sqrt_ball(Ball.from_int(3, 128), 128)
        assert intersects(f, ball_mul_rat(ball_mul(pi_ball(128), s3, 128), 2, 9, 128))

    def test_arcsin_identity_random(self):
        """the same identity at 100 random z in (0, 0.9), against
        mpmath.asin at 64 bits beyond the working precision"""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(10)
        prec = 96
        for _ in range(100):
            zf = Fraction(rng.randint(1, 900), 1000)
            f = specfun.gauss_2f1(1, Fraction(3, 2), Ball.from_fraction(zf, prec), prec)
            with mpmath.workprec(prec + 64):
                t = _mp(mpmath, zf)
                ref = _mp_fraction(mpmath.asin(mpmath.sqrt(t)) / mpmath.sqrt(t * (1 - t)))
            _assert_encloses(f, ref, prec)

    def test_n8_closed_form_value(self):
        """the lens series of n = 8, 2F1(1, 9; 11/2; 1/4), is 9 I_8 /
        (sqrt3/2)^9 with I_8 the integral of sin^8 over [0, pi/3], which the
        Wallis reduction 8 I_8 = 7 I_6 - (sqrt3/2)^7 / 2 from I_0 = pi/3
        gives as 35 pi/384 - 279 sqrt3/2048: so it is
        140 pi sqrt3 / 81 - 31/4"""
        prec = 128
        z = Ball.from_fraction(Fraction(1, 4), prec)
        f = specfun.gauss_2f1(9, Fraction(11, 2), z, prec)
        s3 = sqrt_ball(Ball.from_int(3, prec), prec)
        ref = ball_mul_rat(ball_mul(pi_ball(prec), s3, prec), 140, 81, prec) - Ball.from_fraction(Fraction(31, 4), prec)
        assert intersects(f, ref)
        assert abs(bf_to_float(f.mid) - 1.6548856) < 1e-7

    def test_terminating_encloses_exact_rational(self):
        z = Ball.from_fraction(Fraction(1, 4), 96)
        f = specfun.gauss_2f1(-2, Fraction(3, 2), z, 96)
        # exact rational sum: the term ratios are (b+j)/(c+j) z
        t1 = Fraction(-2) / Fraction(3, 2) * Fraction(1, 4)
        expected = 1 + t1 + t1 * Fraction(-1) / Fraction(5, 2) * Fraction(1, 4)
        assert _contains(f, expected)
        assert bf_cmp(f.rad, bf_two_power(-91)) <= 0

    def test_invalid_c(self):
        """the tail rule needs c >= 1"""
        z = Ball.from_fraction(Fraction(1, 4), 64)
        for c in (Fraction(1, 2), Fraction(0), Fraction(-1)):
            with pytest.raises(InvalidArgument):
                specfun.gauss_2f1(Fraction(1, 2), c, z, 64)

    def test_divergent_z(self):
        z = ball_widen(Ball.from_fraction(Fraction(5, 4), 64), bf_two_power(-10))
        with pytest.raises(PrecisionExhausted):
            specfun.gauss_2f1(Fraction(1, 2), Fraction(3, 2), z, 64)

    def test_tail_bound_validity(self, monkeypatch):
        """an evaluation at the tolerance 2^-100 lands inside the one at
        2^-40, whose radius its tail sets, for the lens series of n = 3, 8
        and 12"""
        z = Ball.from_fraction(Fraction(1, 4), 128)
        for n in (3, 8, 12):
            b, c = Fraction(n + 1), Fraction(n + 3, 2)
            _tolerance(monkeypatch, -40)
            coarse = specfun.gauss_2f1(b, c, z, 128)
            _tolerance(monkeypatch, -100)
            fine = specfun.gauss_2f1(b, c, z, 128)
            assert _encloses(coarse, fine)
            assert bf_cmp(coarse.rad, bf_two_power(-81)) > 0

    @pytest.mark.parametrize("zf", [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_lens_parameters_enclose_mpmath(self, zf):
        """2F1(1, n+1; (n+3)/2; z), the lens's series at z = 1/4, and
        2F1(1, (n+2)/2; (n+3)/2; z), twice its form at z = 3/4 before the
        quadratic transformation, for n from 3 to 2700, and 2F1(1, m/2;
        2 - m/2; z), the shape of the F1 y side, for odd m from -1 to -41
        enclose mpmath.hyp2f1 at 64 bits beyond the working precision.  The
        lens's series is also summed to the tolerance 2^-40, where its tail
        bound sets the radius.  It is taken wherever its first-term bound
        q = z (n+1) / ((n+3)/2) fits, q <= (1 + z)/2: for every n at
        z <= 1/4, only for n = 3 at z = 1/2 and never at 3/4"""
        mpmath = pytest.importorskip("mpmath")
        prec = 128
        z = Ball.from_fraction(zf, prec)
        ns = (3, 8, 51, 396, 2700)
        lens = [(Fraction(n + 1), Fraction(n + 3, 2)) for n in ns if 4 * zf * (n + 1) <= (1 + zf) * (n + 3)]
        params = [(Fraction(n + 2, 2), Fraction(n + 3, 2)) for n in ns]
        params += [(Fraction(m, 2), 2 - Fraction(m, 2)) for m in range(-1, -42, -2)]
        cases = [(p, None) for p in lens + params] + [(p, -40) for p in lens]
        for (b, c), tol_exp in cases:
            with pytest.MonkeyPatch.context() as mp:
                _tolerance(mp, tol_exp)
                out = specfun.gauss_2f1(b, c, z, prec)
            with mpmath.workprec(prec + 64):
                ref = _mp_fraction(mpmath.hyp2f1(1, *(_mp(mpmath, v) for v in (b, c, zf))))
            TestAgainstMpmath._check(out, ref, prec, tol_exp)


def _record_sides(monkeypatch) -> list:
    """Make `specfun._f1_side` append (number of kept terms, tail bound in
    ulps) to the returned list for every side it builds; `appell_f1` builds
    its x side first"""
    sides = []
    build = specfun._f1_side

    def recording_side(*args):
        mids, rads, tail = build(*args)
        sides.append((len(mids), tail))
        return mids, rads, tail

    monkeypatch.setattr(specfun, "_f1_side", recording_side)
    return sides


def _terminating_f1(kk: int, e: int, c: Fraction, xf: Fraction, yf: Fraction) -> Fraction:
    """F1(1; -kk, -e; c; x, y) for integers kk, e >= 0, exactly: the double
    sum of w_s A_m B_n, w_s = s! / (c)_s, with A_m = C(kk, m) (-x)^m and
    B_n = C(e, n) (-y)^n as integers over the denominators q^kk and v^e"""
    p, q = -xf.numerator, xf.denominator
    u, v = -yf.numerator, yf.denominator
    x_terms = [math.comb(kk, m) * p**m * q ** (kk - m) for m in range(kk + 1)]
    y_terms = [math.comb(e, n) * u**n * v ** (e - n) for n in range(e + 1)]
    exact, w_s = Fraction(0), Fraction(1)
    for s in range(kk + e + 1):
        lo, hi = max(0, s - e), min(s, kk)
        exact += w_s * sum(x_terms[m] * y_terms[s - m] for m in range(lo, hi + 1))
        w_s *= (1 + s) / (c + s)
    return exact / (q**kk * v**e)


@functools.cache
def _f1_double_sum(kk: int, e2: int, xf: Fraction, yf: Fraction, n_max: int) -> Fraction:
    """F1(1, -kk, -e; e+2; x, y) for e = e2/2, exactly, with the outer sum
    cut after n = n_max: sum_n (1)_n (-e)_n / ((e+2)_n n!) y^n times
    sum_m (1+n)_m (-kk)_m / ((e+2+n)_m m!) x^m for m up to kk, each term
    from the one before it"""
    b1, b2, c = -kk, -Fraction(e2, 2), Fraction(e2, 2) + 2
    total, coef = Fraction(0), Fraction(1)
    for n in range(n_max + 1):
        term = inner = Fraction(1)
        for m in range(kk):
            term *= (1 + n + m) * (b1 + m) / ((c + n + m) * (m + 1)) * xf
            inner += term
        total += coef * inner
        coef *= (1 + n) * (b2 + n) / ((c + n) * (n + 1)) * yf
    return total


class TestAppellF1:
    """F1(1; b1, b2; c; x, y), the one form lenscert sums"""

    def test_trivial_zero_bs(self):
        x = Ball.from_fraction(Fraction(1, 3), 64)
        y = Ball.from_fraction(Fraction(-1, 5), 64)
        out = specfun.appell_f1(0, 0, 3, x, y, 64)[0]
        assert _contains(out, 1)

    def test_y_zero_reduces_to_2f1(self):
        prec = 96
        x = Ball.from_fraction(Fraction(1, 3), prec)
        zero = Ball.from_int(0, prec)
        f1 = specfun.appell_f1(-5, Fraction(-5, 2), 5, x, zero, prec)[0]
        f21 = specfun.gauss_2f1(-5, 5, x, prec)
        assert intersects(f1, f21)
        # widths comparable: within a factor of 32
        assert bf_to_fraction(f1.rad) <= 32 * bf_to_fraction(f21.rad) + Fraction(1, 2**81)

    def test_terminating_exact_double_sum(self):
        prec = 96
        x = Ball.from_fraction(Fraction(1, 3), prec)
        y = Ball.from_fraction(Fraction(-1, 5), prec)
        out = specfun.appell_f1(-2, -2, 5, x, y, prec)[0]
        exact = Fraction(0)
        for m in range(3):
            for n in range(3):
                exact += (
                    math.factorial(m + n)
                    * poch(Fraction(-2), m)
                    * poch(Fraction(-2), n)
                    / poch(Fraction(5), m + n)
                    / (math.factorial(m) * math.factorial(n))
                    * Fraction(1, 3) ** m
                    * Fraction(-1, 5) ** n
                )
        assert _contains(out, exact)

    def test_floor_of_each_diagonal_sum_is_covered(self, monkeypatch):
        """with exact sides (zero radii, the terms of dyadic x and y at W =
        26), only the extra ulp on each C_s covers the floor of its midpoint:
        both values still enclose their exact terminating double sums.  With
        c just above 1 every Horner factor (1+s)/(c+s) is just below 1, so
        its own floors are inexact and the weights w_s stay near 1.  The
        sides `_f1_side` builds carry at least one ulp of radius on every
        term past the first, and the ceiling of that radius in C_s hides a
        missing ulp"""
        prec, kk, e = 2, 2, 3
        c = Fraction(3826, 3823)
        xf, yf = Fraction(455, 1024), Fraction(-31, 64)

        def exact_side(bc, z, zsup, other, tol, W, w):
            zf, order = bf_to_fraction(z.mid), -bc[0] // bc[2]
            terms = [math.comb(order, j) * (-zf) ** j * 2**W for j in range(order + 1)]
            assert all(t.denominator == 1 for t in terms)
            return [int(t) for t in terms], [0] * len(terms), 0

        monkeypatch.setattr(specfun, "_f1_side", exact_side)
        x, y = Ball.from_fraction(xf, 64), Ball.from_fraction(yf, 64)
        first, second = specfun.appell_f1(-kk, -e, c, x, y, prec)
        assert _contains(first, _terminating_f1(kk, e, c, xf, yf))
        assert _contains(second, _terminating_f1(kk, e + 1, c + 1, xf, yf))

    def test_diagonal_sums_match_double_loop(self):
        """the packed-product diagonal sums against a direct double loop at
        W = 168, over random signed sides with zeros, one-element and very
        unequal sides, magnitudes up to 2^400, and sides of one repeated
        extreme value, which fill a slot: every midpoint is the exact sum
        floored, and every radius is at least the exact one,
        ceil(sum (|A_m| + rA_m) rB_n + rA_m |B_n|) + 1 at scale W, and at
        most that sum with every operand rounded up by 2^(W-40).  With
        A_0 = B_0 = 2^W exact, as in `_f1_side`, the radii sum to at most
        (1 + (na+nb) 2^-40) times the exact ones, plus one ulp each"""
        rng = random.Random(25)
        W, t = 168, 128

        def side(length, extreme):
            if extreme:
                v = rng.choice((-1, 1)) * (2 ** rng.randint(300, 400) - 1)
                return [v] * length, [2 ** rng.randint(0, 60) - 1] * length
            mag = [rng.choice((0, rng.randint(0, 2 ** rng.randint(0, 400)))) for _ in range(length)]
            return (
                [rng.choice((-1, 1)) * v for v in mag],
                [rng.choice((0, rng.randint(0, 2 ** rng.randint(0, 60)))) for _ in range(length)],
            )

        for case in range(150):
            if case % 2:
                na, nb = rng.choice(((1, 1), (1, 40), (200, 2), (3, 90), (7, 7), (8, 9)))
            else:
                na, nb = rng.randint(1, 60), rng.randint(1, 60)
            (am, ar), (bm, br) = side(na, case % 5 == 0), side(nb, case % 5 == 0)
            exact_start = case % 3 == 0
            if exact_start:
                am[0], ar[0], bm[0], br[0] = 1 << W, 0, 1 << W, 0
            got = specfun._diagonal_sums(am, ar, bm, br, W)
            assert len(got) == na + nb - 1, case
            want_sum = got_sum = 0
            for s, (mid, rad) in enumerate(got):
                pairs = [(m, s - m) for m in range(max(0, s - nb + 1), min(s, na - 1) + 1)]
                exact = sum(am[m] * bm[n] for m, n in pairs)
                err = sum((abs(am[m]) + ar[m]) * br[n] + ar[m] * abs(bm[n]) for m, n in pairs)
                slack = sum(br[n] + ar[m] for m, n in pairs) << t
                assert mid == exact >> W, (case, s)
                assert -(-err >> W) + 1 <= rad <= -(-(err + slack) >> W) + 1, (case, s)
                want_sum += -(-err >> W) + 1
                got_sum += rad
            if exact_start:
                assert got_sum <= want_sum * (1 + Fraction(na + nb, 2**40)) + len(got), case

    def test_side_weight_bound_is_tight(self):
        """the bound wm 2^-we on w_j = j! / (c)_j that `_f1_side` passes to
        its tail test is at least w_j and at most (1 + j 2^-62) w_j, for j
        up to 2000 and c from 1 to 1350: at z = 0 and other = 1 the tail
        factor is 1, so the test's p/q is the bound itself (over a common
        factor, which the ratio checks do not see)"""
        zero = Ball.from_int(0, 64)
        cases = [1350, Fraction(3, 2), 1, 5, Fraction(450029, 42), Fraction(2697, 2), Fraction(3826, 3823)]
        for c in cases:
            c, b = Fraction(c), Fraction(-2001)
            bounds = []

            def recording_tail(x, p, q, limit):
                bounds.append((p, q))

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(specfun, "_fx_tail", recording_tail)
                specfun._f1_side(specfun._scaled(b, c), zero, (0, 1), 1 << 72, bf_two_power(-80), 96, 72)
            assert len(bounds) == 2000, c
            exact_num, exact_den = 1, 1
            for j in range(1, 2001):
                exact_num *= j * c.denominator
                exact_den *= c.numerator + (j - 1) * c.denominator
                p, q = bounds[j - 1]
                assert p * exact_den >= q * exact_num, (c, j)
                assert p * exact_den * 2**62 <= q * exact_num * (2**62 + j), (c, j)

    def test_domain_checks(self):
        """both arguments must lie certainly inside the unit disc, even in a
        terminating direction, b1 must be a non-positive integer and c at
        least 1"""
        big = Ball.from_fraction(Fraction(3, 2), 64)
        small = Ball.from_fraction(Fraction(1, 5), 64)
        with pytest.raises(PrecisionExhausted):
            specfun.appell_f1(-3, Fraction(-1, 2), 3, big, small, 64)
        with pytest.raises(PrecisionExhausted):
            specfun.appell_f1(-3, -2, 3, small, big, 64)
        with pytest.raises(InvalidArgument):
            specfun.appell_f1(Fraction(1, 2), Fraction(1, 2), 3, small, small, 64)
        with pytest.raises(InvalidArgument):
            specfun.appell_f1(-3, -2, Fraction(1, 2), small, small, 64)

    def test_c_equals_a_plus_one_encloses_mpmath(self):
        """F1(1; -2, -2; 2; x, y) at the competitor-shaped point x = 0.8837,
        y = -0.1516 encloses mpmath.appellf1"""
        mpmath = pytest.importorskip("mpmath")
        prec = 80
        xf, yf = Fraction(8837, 10000), Fraction(-1516, 10000)
        params = (Fraction(-2), Fraction(-2), Fraction(2))
        out = specfun.appell_f1(*params, Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec), prec)[0]
        with mpmath.workprec(prec + 64):
            ref = _mp_fraction(mpmath.appellf1(1, *(_mp(mpmath, v) for v in params + (xf, yf))))
        TestAgainstMpmath._check(out, ref, prec, None)

    def test_competitor_argument_sets_enclose_mpmath(self):
        """both values of the one `appell_f1` call that `geom._arc_corner`
        makes per arc corner, F1(1, -kk, -e; e+2; x, y) and
        F1(1, -kk, -e-1; e+3; x, y) at x = -L/corner, y = -L/D, for the two
        corner passes of the default pairs of n = 8..24 (one for a balanced
        pair), enclose mpmath.appellf1 at the midpoints of the x and y balls,
        which lie in them"""
        from lenscert import geom
        from lenscert.ball import ball_add, ball_neg, ball_sub

        mpmath = pytest.importorskip("mpmath")
        prec = 72
        checked = 0
        for n in range(8, 25):
            for k, l in geom.default_pairs(n):
                c = geom.lawson_constants(k, l, prec)
                one = Ball.from_int(1, prec)
                corners = [(k, l - 1, c.rho, c.d, c.lambda_)]
                if k != l:
                    corners.append((l, k - 1, c.r, c.h, one))
                for kk, e2, radius, offset, corner in corners:
                    w = radius.prec
                    length = ball_sub(ball_sub(radius, offset, w), corner, w)
                    dsum = ball_add(ball_add(radius, offset, w), corner, w)
                    x = ball_neg(ball_div(length, corner, w))
                    y = ball_neg(ball_div(length, dsum, w))
                    xf, yf = bf_to_fraction(x.mid), bf_to_fraction(y.mid)
                    e = Fraction(e2, 2)
                    params = (Fraction(-kk), -e, e + 2)
                    for out, shift in zip(specfun.appell_f1(*params, x, y, prec), (0, 1)):
                        args = (1, params[0], params[1] - shift, params[2] + shift, xf, yf)
                        with mpmath.workprec(prec + 64):
                            ref = _mp_fraction(mpmath.appellf1(*(_mp(mpmath, v) for v in args)))
                        _assert_encloses(out, ref, prec)
                        checked += 1
        assert checked == 86

    @pytest.mark.parametrize("n,width,bits", [(24, 1e-12, 128), (101, 1e-45, 256), (200, 1e-12, 128)])
    def test_certify_calls_no_2f1_inside_f1(self, monkeypatch, n, width, bits):
        """F1 sums its double series itself: with `gauss_2f1` raising while
        `appell_f1` is on the call stack, certification still ends Proven at
        the usual precision, and the lens still calls `gauss_2f1`"""
        from lenscert import certify

        f1_code = specfun.appell_f1.__code__
        inner = specfun.gauss_2f1
        calls = []

        def guarded_2f1(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code is f1_code:
                    raise AssertionError("gauss_2f1 called inside appell_f1")
                frame = frame.f_back
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(specfun, "gauss_2f1", guarded_2f1)
        cert = certify.certify_dimension(n, target_width=width)
        assert (cert["verdict"], cert["precision_bits"]) == ("Proven", bits)
        assert calls

    def test_truncated_sides_enclose_exact_value(self, monkeypatch):
        """with kk >= 300, both sides stop at their certified tails, the x
        side before kk, and the result still encloses the exact value: the
        terminating double sum of F1(1; -kk, -e; e+2; x, y) for integer e,
        and (1-x)^kk (1-y)^(-b2) for F1(1; -kk, b2; 1; x, y), with b2 = -e
        or with b2 = 1 > 0, whose y side never terminates and is bounded
        through V = 1 / (1 - |y|).  The second value, F1(1; -kk, b2-1; c+1;
        x, y), encloses its terminating double sum.  The arguments are
        chosen so that at the 2^-40 tolerance the tails, not rounding, set
        the radius, and |x| so that the x side's first-term tail bound fits,
        |x| kk/c <= (1 + |x|)/2"""
        rng = random.Random(15)
        sides = _record_sides(monkeypatch)
        for case in range(18):
            kk, e = rng.randint(300, 340), rng.randint(20, 26)
            tol_exp = rng.choice((None, -40))
            if case % 3 == 0:
                prec = 128
                xf, yf = -Fraction(rng.randint(10, 33), 1000), -Fraction(rng.randint(1, 8), 2**18)
                b2, c = Fraction(-e), Fraction(e + 2)
                exact = _terminating_f1(kk, e, c, xf, yf)
            else:
                prec = 256
                c = Fraction(1)
                xf = rng.choice((-1, 1)) * Fraction(rng.randint(50, 140), 100000)
                if case % 3 == 1:
                    yf, b2 = -Fraction(rng.randint(1, 8), 2**24), Fraction(-e)
                else:
                    yf, b2 = rng.choice((-1, 1)) * Fraction(rng.randint(1, 256), 1024), Fraction(1)
                exact = (1 - xf) ** kk * (1 - yf) ** -b2
            del sides[:]
            x, y = Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec)
            with pytest.MonkeyPatch.context() as mp:
                _tolerance(mp, tol_exp)
                out, second = specfun.appell_f1(Fraction(-kk), b2, c, x, y, prec)
            (x_kept, x_tail), (_, y_tail) = sides
            assert x_kept < kk and x_tail > 0 and y_tail > 0, (case, sides)
            assert _contains(out, exact), case
            assert _contains(second, _terminating_f1(kk, int(1 - b2), c + 1, xf, yf)), case

    def test_x_side_stops_below_the_unit_ratio_index(self, monkeypatch):
        """with kk >= 300 and a small |x|, the x side of F1(1; -kk, -e; e+2;
        x, y) stops at the tolerance 2^-40 before the first index where its
        ratio |r_j| = (kk - j)/(e + 2 + j) falls to 1, bounding its tail
        with q = |x| |r_0| > |x|, and both values still enclose their exact
        terminating double sums; the tail sets the radius"""
        rng = random.Random(16)
        sides = _record_sides(monkeypatch)
        _tolerance(monkeypatch, -40)
        for case in range(6):
            kk, e = rng.randint(300, 340), rng.randint(20, 26)
            xf, yf = -Fraction(rng.randint(20, 33), 1000), -Fraction(rng.randint(1, 64), 1024)
            b1, c = Fraction(-kk), Fraction(e + 2)
            unit = min(j for j in range(kk) if abs(_ratio(b1, c, j)) <= 1)
            del sides[:]
            x, y = Ball.from_fraction(xf, 128), Ball.from_fraction(yf, 128)
            first, second = specfun.appell_f1(b1, -e, c, x, y, 128)
            (x_kept, x_tail), _ = sides
            assert x_kept < unit and x_tail > 0, (case, sides, unit)
            assert _contains(first, _terminating_f1(kk, e, c, xf, yf)), case
            assert _contains(second, _terminating_f1(kk, e + 1, c + 1, xf, yf)), case

    @pytest.mark.parametrize(
        "kk,xf,yf,tol_exp",
        [
            (300, -Fraction(1, 2**74), Fraction(-99, 100), 67),
            (301, -Fraction(1, 2**92), Fraction(-9, 10), 85),
            (400, -Fraction(1, 2**97), Fraction(-3, 4), 90),
        ],
    )
    def test_second_value_tail_factor_is_sharp(self, monkeypatch, kk, xf, yf, tol_exp):
        """F1(1; -kk, 0; 6; x, y) = 2F1(1, -kk; 6; x) and F1(1; -kk, -1; 7;
        x, y), with |x| so small that the x side stops at its first index,
        keeping only A_0, and y < 0, so B'_0 + B'_1 = 1 + |y|.  The second
        value drops A_1 (w'_1 + |y| w'_2) = A_1 w_1 (6/7) (1 + |y|/4) and
        more, above the x side's tail bound A_1 w_1 / (1 - q) when
        |y| > 2/3, so its radius, which the tail sets, needs a factor above
        1: the bound's (1 + |y|) is not replaced by 1"""
        prec, c = 128, Fraction(6)
        sides = _record_sides(monkeypatch)
        _tolerance(monkeypatch, -tol_exp)
        x, y = Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec)
        first, second = specfun.appell_f1(-kk, 0, c, x, y, prec)
        assert sides[0][0] == 1, sides
        exact = _terminating_f1(kk, 1, c + 1, xf, yf)
        assert _contains(first, _terminating_f1(kk, 0, c, xf, yf)) and _contains(second, exact)
        gap = abs(bf_to_fraction(second.mid) - exact)
        assert gap * (1 + abs(yf)) > bf_to_fraction(second.rad)


def _ratio(b: Fraction, c: Fraction, m: int) -> Fraction:
    """the term ratio (b+m)/(c+m) of 2F1(1, b; c; z) / z"""
    return (b + m) / (c + m)


class TestTailRule:
    def test_tail_ratio_exact(self):
        """the tail ratio R holds from the first term, |r(m)| <= R for m
        from 0 to 500 (or to the order of a terminating series), and gives
        q = |z| R <= (1 + |z|)/2, or the call raises: InvalidArgument exactly
        when b < c, b + c < 0 and the series does not terminate, and otherwise
        PrecisionExhausted, only when |z| max(|r(0)|, 1) > (1 + |z|)/2, over
        random (b, c >= 1, |z|): a third of them with b > c, whose
        ratios fall towards 1, a third terminating, and the rest with b below
        c, of either sign; both outcomes occur in every third"""
        rng = random.Random(4)
        outcomes = set()
        for i in range(400):
            zsup = Fraction(rng.randint(1, 999), 1000)
            c = 1 + Fraction(rng.randint(0, 640), rng.randint(1, 4))
            if i % 3 == 0:
                b = c + Fraction(rng.randint(1, 400), rng.choice((1, 2)))
            elif i % 3 == 1:
                b = Fraction(-rng.randint(0, 300))
            else:
                b = c - Fraction(rng.randint(1, 900), rng.choice((1, 2)))
            order = int(-b) if b.denominator == 1 and b <= 0 else None
            try:
                bound = Fraction(*specfun._tail_ratio(specfun._scaled(b, c), (zsup.numerator, zsup.denominator)))
            except (PrecisionExhausted, InvalidArgument) as err:
                outcomes.add((i % 3, False))
                invalid = b < c and b + c < 0 and order is None
                assert type(err) is (InvalidArgument if invalid else PrecisionExhausted), (b, c, zsup)
                assert invalid or 2 * zsup * max(abs(b) / c, 1) > 1 + zsup, (b, c, zsup)
                continue
            outcomes.add((i % 3, True))
            top = 500 if order is None else order
            assert 2 * zsup * bound <= 1 + zsup, (b, c, zsup, bound)
            assert all(abs(_ratio(b, c, m)) <= bound for m in range(top)), (b, c, zsup, bound)
        assert len(outcomes) == 6, outcomes

    def test_bound_that_misses_at_the_first_term_raises(self):
        """b = 2c at |z| = 0.9 gives q = 1.8 > 0.95 and raises
        PrecisionExhausted; b < c with b + c < 0 has |r(0)| > 1 with no
        first-term bound of 1, a case of the parameters alone, and raises
        InvalidArgument.  Both raise from `_tail_ratio` and from `gauss_2f1`,
        instead of summing past a later start index"""
        z = Ball.from_fraction(Fraction(9, 10), 64)
        for b, c, kind in (
            (Fraction(6), Fraction(3), PrecisionExhausted),
            (Fraction(-7, 2), Fraction(3, 2), InvalidArgument),
        ):
            with pytest.raises(kind):
                specfun._tail_ratio(specfun._scaled(b, c), (9, 10))
            with pytest.raises(kind):
                specfun.gauss_2f1(b, c, z, 64)

    def test_most_lopsided_pairs_n2700(self):
        """the competitor at the first and last valid pair of n = 2700, k/l
        just above 1/3 and just below 3, evaluates at 128 bits: each F1 side
        fits its first-term tail bound, and the two mirror pairs give the
        same energy"""
        from lenscert import geom

        pairs = geom.all_pairs(2700)
        (k, l), last = pairs[0], pairs[-1]
        assert last == (l, k) and 3 * k > l > 3 * (k - 1)
        first, second = (geom.competitor_energy_specfun(*p, 128).m_value for p in (pairs[0], last))
        assert intersects(first, second)
        assert bf_cmp(first.rad, bf_two_power(-91)) <= 0 and bf_cmp(second.rad, bf_two_power(-91)) <= 0

    @pytest.mark.parametrize("kk,e2,shift", [(40, 40, 0), (40, 41, 7), (99, 99, 30)])
    @pytest.mark.parametrize("tol_exp", [None, -40])
    def test_terminating_2f1_stops_early_and_encloses(self, monkeypatch, kk, e2, shift, tol_exp):
        """2F1(1, -kk; e+2+shift; z) at a z ball of nonzero radius stops at
        its certified tail before its last term and still contains the
        exact finite sum; at the loose tolerance the tail, not rounding,
        sets the radius.  The terms are counted through the one `_fx_tail`
        test each takes: the same series held back from stopping until
        past its last term counts more than kk"""
        prec = 128
        _tolerance(monkeypatch, tol_exp)
        zf = Fraction(-1317, 10000)
        z = Ball.from_fraction(zf, prec)
        assert z.rad.sign != 0
        b, c = Fraction(-kk), Fraction(e2, 2) + 2 + shift
        inner = specfun._fx_tail

        def count_terms(hold: int):
            """the series, and its number of tail tests, with the first
            `hold` of them failed"""
            terms = []

            def counting(*args):
                terms.append(args)
                return None if len(terms) <= hold else inner(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(specfun, "_fx_tail", counting)
                return specfun.gauss_2f1(b, c, z, prec), len(terms)

        out, terms = count_terms(0)
        exact = sum(poch(b, m) / poch(c, m) * zf**m for m in range(kk + 1))
        assert terms < kk
        assert count_terms(kk)[1] > kk
        assert _contains(out, exact)
        if tol_exp is None:
            assert 2 * bf_to_fraction(out.rad) <= abs(exact) / 2 ** (prec - 8)

    @pytest.mark.parametrize("kk,e2", [(40, 40), (40, 41), (60, 59)])
    @pytest.mark.parametrize("tol_exp", [None, -40])
    @pytest.mark.parametrize("xf", [Fraction(-1317, 10000), Fraction(-17, 128)])
    def test_shifted_f1_encloses_double_sum(self, monkeypatch, kk, e2, tol_exp, xf):
        """F1(1, -kk, -e; e+2; x, y) contains the double sum: exact for
        integer e, and for half-integer e the sum to N = 60 outer terms
        together with a proven bound on the rest."""
        prec = 128
        _tolerance(monkeypatch, tol_exp)
        yf = Fraction(-173, 10000)
        x, y = Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec)
        e = Fraction(e2, 2)
        out = specfun.appell_f1(-kk, -e, e + 2, x, y, prec)[0]
        n_max = int(e) if e.denominator == 1 else 60
        total = _f1_double_sum(kk, e2, xf, yf, n_max)
        # |(a)_j / (c)_j| <= 1, |(-e)_n / n!| <= 2^e and sum |(-kk)_m| / m! |x|^m
        # = (1 + |x|)^kk, so the omitted outer terms stay below `rest`
        ysup = abs(yf)
        rest = 0 if e.denominator == 1 else (
            2 ** math.ceil(e) * (1 + abs(xf)) ** kk * ysup ** (n_max + 1) / (1 - ysup)
        )
        gap = abs(bf_to_fraction(out.mid) - total)
        assert gap + rest <= bf_to_fraction(out.rad)
        if tol_exp is None:
            assert 2 * bf_to_fraction(out.rad) <= abs(total) / 2 ** (prec - 8)

    @staticmethod
    def _side_records(monkeypatch, k, l, prec):
        """[(x side, y side)] per Appell F1 of the competitor (k, l)"""
        from lenscert import geom

        sides = _record_sides(monkeypatch)
        geom.competitor_energy_specfun(k, l, prec)
        return list(zip(sides[::2], sides[1::2]))

    def test_competitor_y_side_terms_n200(self, monkeypatch):
        """the one Appell F1 call of the n = 200 balanced competitor stops
        its y side at the certified tail: at most 30 terms"""
        records = self._side_records(monkeypatch, 99, 99, 128)
        assert len(records) == 1
        assert all(0 < y_terms <= 30 and tail > 0 for _, (y_terms, tail) in records), records

    def test_competitor_x_side_stops_before_kk_n1000(self, monkeypatch):
        """at n = 1000 the x side of the one F1 call of the balanced
        competitor (kk = 499) stops at its certified tail, well before its
        last term"""
        records = self._side_records(monkeypatch, 499, 499, 128)
        assert len(records) == 1
        assert all(x_terms < 499 // 2 and tail > 0 for (x_terms, tail), _ in records), records

    @pytest.mark.parametrize(
        "a,b,c",
        [
            (Fraction(1), Fraction(1, 3), Fraction(3, 2)),
            (Fraction(1), Fraction(-7, 2), Fraction(9, 2)),
            (Fraction(1), Fraction(-11, 2), Fraction(13, 2)),
        ],
    )
    @pytest.mark.parametrize("zf", [Fraction(99, 100), Fraction(-99, 100)])
    def test_2f1_headroom_near_unit_z(self, a, b, c, zf):
        """at |z| = 0.99 the fixed-point term radius of 2F1(a, b; c; z),
        a = 1, settles near 200 ulps and the tail factor is 99: the scale's
        headroom keeps their product under the tolerance, so the series
        reaches its tail and encloses the mpmath value"""
        mpmath = pytest.importorskip("mpmath")
        prec = 128
        z = ball_widen(Ball.from_fraction(zf, prec), bf_two_power(-135))
        out = specfun.gauss_2f1(b, c, z, prec)
        with mpmath.workdps(60):
            ref = _mp_fraction(mpmath.hyp2f1(*(_mp(mpmath, v) for v in (a, b, c, zf))))
        assert abs(bf_to_fraction(out.mid) - ref) <= bf_to_fraction(out.rad) + abs(ref) / 10**55
        assert 2 * bf_to_fraction(out.rad) <= abs(ref) / 2 ** (prec - 24)

    def test_competitor_n396_outer_headroom(self):
        """n = 396: the F1 y-side tail multiplies the weighted term's radius
        by U = sum |(-196)_m| / m! |x|^m, about 2^35, and the scale's log2 U
        headroom keeps that under the tolerance"""
        from lenscert import geom

        e = geom.competitor_energy_specfun(196, 198, 128)
        assert 2 * bf_to_fraction(e.m_value.rad) < Fraction(1, 10**12)

    def test_pow_sup_bounds_the_power(self):
        """the F1 bounds U = (1 + t)^kk and V = (1 - t)^(-k), from the base
        rounded up to scale w as `appell_f1` passes it, come out at least the
        exact power and at most (2k + 64) ulps of scale w above it, relative
        to the power"""
        rng = random.Random(13)
        for _ in range(60):
            k, w = rng.randint(0, 700), rng.choice((64, 144, 300))
            t = Fraction(rng.randint(1, 1 << 40), 1 << rng.randint(41, 44))
            for base in (1 + t, 1 / (1 - t)):
                exact = base**k
                got = Fraction(specfun._pow_sup(-(-(base.numerator << w) // base.denominator), k, w), 1 << w)
                assert exact <= got <= exact * (1 + Fraction(2 * k + 64, 2**w)), (k, t, w)


def _mp(mpmath, v: Fraction):
    return mpmath.mpf(v.numerator) / v.denominator


def _mp_fraction(v) -> Fraction:
    man, exp = v.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def _assert_encloses(out, ref: Fraction, prec: int):
    """out contains ref, up to the rounding of an mpmath reference computed
    at 64 bits beyond prec"""
    gap = abs(bf_to_fraction(out.mid) - ref)
    assert gap <= bf_to_fraction(out.rad) + abs(ref) / 2 ** (prec + 48)


class TestAgainstMpmath:
    """Competitor-shaped series, F1(1, -kk, -e; e+2; x, y) and
    2F1(1, -kk; e+2+n; x), at balls x, y of the ranges the competitor
    meets, enclose mpmath.appellf1 and mpmath.hyp2f1 at 64 bits beyond the
    working precision, at the default tolerance and at 2^-40"""

    @staticmethod
    def _case(rng):
        """parameters whose x series fits its first-term tail bound,
        |x| kk/(e+2) <= (1 + |x|)/2, as the competitor's do"""
        while True:
            kk, e = rng.randint(1, 80), Fraction(rng.randint(1, 80), 2)
            xf = -Fraction(rng.randint(400, 2700), 10000)
            if 2 * abs(xf) * kk <= (1 + abs(xf)) * (e + 2):
                break
        yf = -Fraction(rng.randint(30, 450), 10000)
        return kk, e, xf, yf, rng.choice((64, 128, 256))

    @staticmethod
    def _check(out, ref, prec, tol_exp):
        _assert_encloses(out, ref, prec)
        if tol_exp is None:
            assert 2 * bf_to_fraction(out.rad) <= abs(ref) / 2 ** (prec - 8)

    @pytest.mark.parametrize("tol_exp", [None, -40])
    def test_gauss_2f1(self, monkeypatch, tol_exp):
        mpmath = pytest.importorskip("mpmath")
        _tolerance(monkeypatch, tol_exp)
        rng = random.Random(31 if tol_exp is None else 32)
        for _ in range(25):
            kk, e, xf, _, prec = self._case(rng)
            n = rng.randint(0, 40)
            b, c = Fraction(-kk), e + 2 + n
            x = Ball.from_fraction(xf, prec)
            assert x.rad.sign != 0
            out = specfun.gauss_2f1(b, c, x, prec)
            with mpmath.workprec(prec + 64):
                ref = _mp_fraction(mpmath.hyp2f1(1, *(_mp(mpmath, v) for v in (b, c, xf))))
            self._check(out, ref, prec, tol_exp)

    @pytest.mark.parametrize("tol_exp", [None, -40])
    def test_appell_f1(self, monkeypatch, tol_exp):
        mpmath = pytest.importorskip("mpmath")
        _tolerance(monkeypatch, tol_exp)
        rng = random.Random(33 if tol_exp is None else 34)
        for _ in range(25):
            kk, e, xf, yf, prec = self._case(rng)
            params = (Fraction(-kk), -e, e + 2)
            x, y = Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec)
            out = specfun.appell_f1(*params, x, y, prec)[0]
            with mpmath.workprec(prec + 64):
                args = (_mp(mpmath, v) for v in params + (xf, yf))
                ref = _mp_fraction(mpmath.appellf1(1, *args))
            self._check(out, ref, prec, tol_exp)


# ---------------------------------------------------------------------------
# the inline term steps and Horner passes against the kernel calls
# ---------------------------------------------------------------------------


def _kernel_tail_ratio(b: Fraction, c: Fraction, zsup: Fraction) -> Fraction:
    """`specfun._tail_ratio` on Fractions, the form it took before its
    arguments were ints"""
    if b >= c or (b.denominator == 1 and b <= 0):
        bound = abs(b) / c
    else:
        bound = Fraction(1) if b + c >= 0 else None
    if bound is None or 2 * zsup * bound > 1 + zsup:
        raise (InvalidArgument if bound is None else PrecisionExhausted)("no tail ratio")
    return bound


def _kernel_2f1(b, c, z: Ball, prec: int):
    """`specfun.gauss_2f1` with its set-up on Fractions and each term step
    one `_fx_mul_rat` and one `_fx_mul`: the pair it hands `_fx_to_ball`,
    and its scale"""
    b, c = Fraction(b), Fraction(c)
    zsup = bf_to_fraction(z.mag_sup())
    w = prec + 8
    ratio = zsup * _kernel_tail_ratio(b, c, zsup)
    tail_factor = ratio / (1 - ratio)
    room = (1 + zsup) / (1 - ratio) ** 2
    W = w + _FX_GUARD + room.numerator.bit_length() - room.denominator.bit_length() + 2
    zx = _fx_from_ball(z, W)
    limit = _fx_from_ball(Ball.point(specfun._default_tol(prec), w), W)[0]
    term = total = (1 << W, 0)
    ib, ic, d = specfun._scaled(b, c)
    m = 0
    while True:
        term = _fx_mul(_fx_mul_rat(term, ib + m * d, ic + m * d), zx, W)
        total = _fx_add(total, term)
        m += 1
        tail = _fx_tail(term, tail_factor.numerator, tail_factor.denominator, limit)
        if tail is not None:
            return (total[0], total[1] + tail), W


def _kernel_side(b: Fraction, c: Fraction, z: Ball, zsup: Fraction, other: Fraction, tol, W: int, w: int):
    """`specfun._f1_side` on Fractions, with each term step one
    `_fx_mul_rat` and one `_fx_mul`"""
    order = int(-b) if b.denominator == 1 and b <= 0 else None
    factor = other / (1 - zsup * _kernel_tail_ratio(b, c, zsup))
    room = other.numerator.bit_length() - other.denominator.bit_length() + 1
    Wt = W + room
    limit = _fx_from_ball(Ball.point(tol, w), Wt)[0]
    zt = _fx_from_ball(z, Wt)
    ib, ic, d = specfun._scaled(b, c)
    term, wm, we = (1 << Wt, 0), 1 << 64, 64
    mids, rads = [1 << W], [0]
    j = 0
    while j != order:
        term = _fx_mul(_fx_mul_rat(term, ib + j * d, (j + 1) * d), zt, Wt)
        num, den = wm * (j + 1) * d, ic + j * d
        shift = max(0, 65 + den.bit_length() - num.bit_length())
        wm, we = -(-(num << shift) // den), we + shift
        j += 1
        if j != order:
            tail = _fx_tail(term, wm * factor.numerator, factor.denominator << we, limit)
            if tail is not None:
                return mids, rads, -(-tail >> room)
        mids.append(term[0] >> room)
        rads.append(-(-term[1] >> room) + 1)
    return mids, rads, 0


def _kernel_f1(b1, b2, c, x: Ball, y: Ball, prec: int, sides=None, bounds=None):
    """`specfun.appell_f1` with its set-up on Fractions, its sides from
    `_kernel_side` (or `sides`, as (x side, y side)), and the C' shift and
    both Horner passes made of `_fx_mul`, `_fx_mul_rat` and `_fx_add`: the
    two pairs it hands `_fx_to_ball`, each with its scale.  The bounds it
    gives its sides, (|x|, V) and (|y|, U), go to the list `bounds`"""
    b1, b2, c = Fraction(b1), Fraction(b2), Fraction(c)
    xsup, ysup = bf_to_fraction(x.mag_sup()), bf_to_fraction(y.mag_sup())
    tol = specfun._default_tol(prec)
    w = prec + 8

    def pow_sup(base: Fraction, k: int) -> Fraction:
        m, r = _fx_pow((math.ceil(base * (1 << w)), 0), k, w)
        return Fraction(m + r, 1 << w)

    u_bound = pow_sup(1 + xsup, int(-b1))
    v_bound = pow_sup(1 / (1 - ysup), math.ceil(abs(b2)))
    W = w + _FX_GUARD
    if bounds is not None:
        bounds += [(xsup, v_bound), (ysup, u_bound)]
    if sides is None:
        sides = _kernel_side(b1, c, x, xsup, v_bound, tol, W, w), _kernel_side(b2, c, y, ysup, u_bound, tol, W, w)
    (am, ar, x_tail), (bm, br, y_tail) = sides
    sums = specfun._diagonal_sums(am, ar, bm, br, W)[::-1]
    ic, d = c.numerator, c.denominator
    yx, zero = _fx_from_ball(y, W), (0, 0)
    y_prev = (_fx_mul(v, yx, W) for v in sums + [zero])
    shifted = [_fx_sub(v, p) for v, p in zip([zero] + sums, y_prev)]
    tail = x_tail + y_tail
    out = []
    for cs, shift, t in ((sums, 0, tail), (shifted, d, math.ceil(tail * (1 + ysup)))):
        acc = (0, 0)
        for s, cv in zip(range(len(cs) - 1, -1, -1), cs):
            acc = _fx_add(_fx_mul_rat(acc, (s + 1) * d, ic + shift + s * d), cv)
        out.append(((acc[0], acc[1] + t), W))
    return out


def _handed_on(fn, *args) -> list:
    """fn(*args), run for the (pair, scale) of every `_fx_to_ball` call it
    makes in `specfun`"""
    seen = []
    inner = specfun._fx_to_ball

    def recording(x, W, w):
        seen.append((x, W))
        return inner(x, W, w)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "_fx_to_ball", recording)
        fn(*args)
    return seen


@functools.cache
def _recorded_calls() -> dict:
    """the arguments of every `gauss_2f1`, `appell_f1` and `_fx_pow_mid`
    call that `certify_dimension` makes over the dimensions of seed 1 of the
    `desk` workload of bench/run.py (width 1e-12) and of its `tight`
    workload (width 1e-45, every 128-bit attempt rejected)"""
    from lenscert import ball, certify

    calls = {"2f1": [], "f1": [], "pow": []}

    def recorder(key, fn):
        def recording(*args):
            calls[key].append(args)
            return fn(*args)

        return recording

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(specfun, "gauss_2f1", recorder("2f1", specfun.gauss_2f1))
        mp.setattr(specfun, "appell_f1", recorder("f1", specfun.appell_f1))
        mp.setattr(ball, "_fx_pow_mid", recorder("pow", ball._fx_pow_mid))
        for dims, width in (
            ((41, 52, 84, 97, 121, 148, 173, 184), 1e-12),
            ((26, 43, 53, 56, 68, 81, 86, 103, 109, 116), 1e-45),
        ):
            for n in dims:
                assert certify.certify_dimension(n, target_width=width)["verdict"] == "Proven"
    return calls


def _random_ball(rng, zf: Fraction, prec: int) -> Ball:
    """zf at prec bits, with a zero radius when zf is a short dyadic, and
    otherwise, or on a coin flip, widened by a random power of two"""
    out = Ball.from_fraction(zf, prec)
    if out.rad.sign == 0 and rng.random() < 0.5:
        return out
    return ball_widen(out, bf_two_power(-rng.randint(prec // 2, prec + 20)))


def _random_fraction(rng, top: Fraction) -> Fraction:
    """a signed value of magnitude below top, a short dyadic a third of the
    time, so that its ball can have a zero radius"""
    if rng.random() < 1 / 3:
        den = 2 ** rng.randint(1, 12)
        return rng.choice((-1, 1)) * Fraction(rng.randint(0, max(0, math.ceil(top * den) - 1)), den)
    return rng.choice((-1, 1)) * top * Fraction(rng.randint(0, 10**6 - 1), 10**6)


class TestKernelEquality:
    """The term steps of `gauss_2f1` and `_f1_side`, the C' shift and the
    two Horner passes of `appell_f1` are written on bare ints, and the F1
    set-up on integers; the Newton step of `pow_rational` takes a
    midpoint-only power.  Each gives exactly the ints of the kernel calls it
    stands for (`_kernel_2f1`, `_kernel_side`, `_kernel_f1`, `_fx_pow`), on
    random arguments at scales W = 40..400 with zero and nonzero radii and
    on every call of one `desk` and one `tight` pass: equal, not only
    enclosing, since a lost ulp encloses as well."""

    def test_2f1_term_steps(self):
        rng = random.Random(36)
        ran = 0
        for case in range(160):
            prec = rng.randint(16, 376)
            kind = case % 3
            if kind == 0:  # terminating
                b, c = Fraction(-rng.randint(0, 60)), 1 + Fraction(rng.randint(0, 120), rng.randint(1, 4))
            elif kind == 1:  # b > c, ratios falling towards 1
                c = 1 + Fraction(rng.randint(0, 120), rng.randint(1, 4))
                b = c + Fraction(rng.randint(1, 200), rng.choice((1, 2, 3)))
            else:  # b < c with b + c >= 0, R = 1
                c = 1 + Fraction(rng.randint(0, 120), rng.randint(1, 4))
                b = rng.choice((-1, 1)) * c * Fraction(rng.randint(0, 999), 1000)
            # |z| R <= (1 + |z|)/2 for R = max(|b|/c, 1) wherever 2R > 1
            ztop = min(Fraction(9, 10), 1 / max(2 * abs(b) / c - 1, Fraction(1, 2)))
            z = _random_ball(rng, _random_fraction(rng, ztop), prec)
            try:
                want = [_kernel_2f1(b, c, z, prec)]
            except (InvalidArgument, PrecisionExhausted) as err:
                with pytest.raises(type(err)):
                    specfun.gauss_2f1(b, c, z, prec)
                continue
            assert _handed_on(specfun.gauss_2f1, b, c, z, prec) == want, (b, c, z, prec)
            ran += 1
        assert ran >= 140
        for b, c, z, prec in _recorded_calls()["2f1"]:
            assert _handed_on(specfun.gauss_2f1, b, c, z, prec) == [_kernel_2f1(b, c, z, prec)], (b, c, prec)

    def test_f1_side_term_steps(self):
        rng = random.Random(37)
        ran = 0
        for case in range(160):
            prec = rng.randint(16, 376)
            w = prec + 8
            c = 1 + Fraction(rng.randint(0, 200), rng.randint(1, 4))
            if case % 2:
                b = Fraction(-rng.randint(0, 120))
            else:
                b = rng.choice((-1, 1)) * c * Fraction(rng.randint(0, 999), 1000)
            z = _random_ball(rng, _random_fraction(rng, Fraction(9, 10)), prec)
            other = rng.randint(1 << w, 1 << (w + rng.randint(0, 60)))
            tol = bf_two_power(-prec - rng.choice((12, 0, -40)))
            zsup = specfun._sup(z)
            args = (z, zsup, other, tol, w + 16, w)
            try:
                want = _kernel_side(b, c, z, Fraction(*zsup), Fraction(other, 1 << w), tol, w + 16, w)
            except (InvalidArgument, PrecisionExhausted) as err:
                with pytest.raises(type(err)):
                    specfun._f1_side(specfun._scaled(b, c), *args)
                continue
            assert specfun._f1_side(specfun._scaled(b, c), *args) == want, (b, c, z, other, prec)
            ran += 1
        assert ran >= 120

    def _check_f1(self, b1, b2, c, x, y, prec):
        """appell_f1 hands `_fx_to_ball` the pairs of `_kernel_f1` and its
        sides the same |x|, |y|, U and V, and each of its sides is the side
        of `_kernel_side`"""
        sides, bounds = [], []
        inner = specfun._f1_side

        def recording(*args):
            sides.append((args, inner(*args)))
            return sides[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "_f1_side", recording)
            got = _handed_on(specfun.appell_f1, b1, b2, c, x, y, prec)
        assert got == _kernel_f1(b1, b2, c, x, y, prec, bounds=bounds), (b1, b2, c, x, y, prec)
        w = prec + 8
        assert [(Fraction(*args[2]), Fraction(args[3], 1 << w)) for args, _ in sides] == bounds
        for (bc, z, zsup, other, tol, W, w), side in sides:
            b, c = Fraction(bc[0], bc[2]), Fraction(bc[1], bc[2])
            assert side == _kernel_side(b, c, z, Fraction(*zsup), Fraction(other, 1 << w), tol, W, w)

    def test_f1_set_up_sides_and_horner(self):
        rng = random.Random(38)
        ran = 0
        for case in range(90):
            # a third at 16 to 40 bits, where |x| can have more bits than
            # the scale w, so that the base 1 + |x| of U is rounded up
            prec = rng.randint(16, 376 if case % 3 else 40)
            kk = rng.randint(0, 80)
            e = Fraction(rng.randint(0, 80), 2)
            b2, c = rng.choice((-e, -e, Fraction(1), Fraction(3, 2))), e + 2 + rng.choice((0, 0, Fraction(1, 3)))
            # |x| kk/c <= (1 + |x|)/2, the x side's first-term bound
            xtop = min(Fraction(9, 10), 1 / max(2 * kk / c - 1, Fraction(1, 2)))
            x = _random_ball(rng, _random_fraction(rng, xtop), prec)
            y = _random_ball(rng, _random_fraction(rng, Fraction(9, 10)), prec)
            try:
                _kernel_f1(-kk, b2, c, x, y, prec)
            except (InvalidArgument, PrecisionExhausted) as err:
                with pytest.raises(type(err)):
                    specfun.appell_f1(-kk, b2, c, x, y, prec)
                continue
            self._check_f1(-kk, b2, c, x, y, prec)
            ran += 1
        assert ran >= 80
        for args in _recorded_calls()["f1"]:
            self._check_f1(*args)

    def test_horner_and_shift_on_random_sides(self):
        """with both sides replaced by random signed terms (A_0 = B_0 = 2^W,
        as `_f1_side` makes them) and random tails, the C' shift and both
        Horner passes still give the kernel's ints"""
        rng = random.Random(39)
        for case in range(120):
            prec = rng.randint(16, 376)
            W = prec + 8 + 16

            def side():
                length = rng.randint(1, 60)
                mids = [1 << W] + [rng.choice((-1, 1)) * rng.randint(0, 1 << (W + 30)) for _ in range(length - 1)]
                rads = [0] + [rng.choice((0, rng.randint(1, 1 << 20))) for _ in range(length - 1)]
                return mids, rads, rng.choice((0, rng.randint(1, 1 << 40)))

            sides = side(), side()
            c = 1 + Fraction(rng.randint(0, 200), rng.randint(1, 5))
            x = Ball.from_fraction(Fraction(1, 8), prec)
            y = _random_ball(rng, _random_fraction(rng, Fraction(9, 10)), prec)
            stub = iter(sides)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(specfun, "_f1_side", lambda *args: next(stub))
                got = _handed_on(specfun.appell_f1, -3, -2, c, x, y, prec)
            assert got == _kernel_f1(-3, -2, c, x, y, prec, sides), (case, c, y, prec)

    def test_newton_power_is_the_kernel_midpoint(self):
        rng = random.Random(40)
        calls = [
            (rng.randint(1 << W, 1 << (W + 1)), rng.randint(0, 300), W)
            for W in (rng.randint(40, 400) for _ in range(300))
        ]
        calls += _recorded_calls()["pow"]
        assert len(calls) > 300
        for x, k, W in calls:
            assert _fx_pow_mid(x, k, W) == _fx_pow((x, 0), k, W)[0], (x, k, W)
