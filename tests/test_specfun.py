import functools
import math
import operator
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
    """The lens series 2F1(1, n+1; (n+3)/2; 1/4) of `gauss_2f1(n, prec)`,
    and the 2F1 values that `appell_f1` sums when one side is empty (kk = 0
    or y = 0)"""

    def test_empty_series(self):
        """with kk = 0 the x side is the empty series, its one term 1 and no
        tail, so F1(1; 0, -e; e+2; x, y) = 2F1(1, -e; e+2; y) gives the same
        ints for any x, and encloses that terminating sum exactly for
        integer e"""
        prec = 64
        y = Ball.from_fraction(Fraction(-1, 5), prec)
        for e2 in range(8):
            outs = [
                _handed_on(specfun.appell_f1, 0, e2, Ball.from_fraction(xf, prec), y, prec)
                for xf in (Fraction(1, 3), Fraction(-9, 10), Fraction(0))
            ]
            assert outs[0] == outs[1] == outs[2], e2
            if e2 % 2 == 0:
                first = specfun.appell_f1(0, e2, Ball.from_fraction(Fraction(1, 3), prec), y, prec)[0]
                exact = _terminating_f1(0, e2 // 2, Fraction(e2 // 2 + 2), Fraction(0), Fraction(-1, 5))
                assert _contains(first, exact)

    def test_arcsin_identity_quarter(self):
        """the lens series is (n+1) I_n (2/sqrt3)^(n+1), with I_n the
        integral of sin^n over [0, pi/3] (`geom.lens_quantities`), and the
        Wallis reduction n I_n = (n-1) I_(n-2) - (sqrt3/2)^(n-1) / 2 gives
        I_n from I_0 = arcsin(sqrt3/2) = pi/3 and I_1 = 1/2: for n = 1..40
        at 128 bits it encloses that closed form from mpmath.asin at three
        times the bits"""
        prec = 128
        for n, ref in enumerate(_lens_closed_forms(40, prec)):
            if n:
                _assert_encloses(specfun.gauss_2f1(n, prec), ref, prec, 3 * prec)

    def test_arcsin_identity_random(self):
        """the same closed form at 100 random n from 1 to 60 and precisions
        from 16 to 400 bits"""
        rng = random.Random(10)
        for _ in range(100):
            n, prec = rng.randint(1, 60), rng.randint(16, 400)
            ref = _lens_closed_forms(n, prec)[n]
            _assert_encloses(specfun.gauss_2f1(n, prec), ref, prec, 3 * prec)

    def test_n8_closed_form_value(self):
        """the lens series of n = 8, 2F1(1, 9; 11/2; 1/4), is 9 I_8 /
        (sqrt3/2)^9 with I_8 the integral of sin^8 over [0, pi/3], which the
        Wallis reduction 8 I_8 = 7 I_6 - (sqrt3/2)^7 / 2 from I_0 = pi/3
        gives as 35 pi/384 - 279 sqrt3/2048: so it is
        140 pi sqrt3 / 81 - 31/4"""
        prec = 128
        f = specfun.gauss_2f1(8, prec)
        s3 = sqrt_ball(Ball.from_int(3, prec), prec)
        ref = ball_mul_rat(ball_mul(pi_ball(prec), s3, prec), 140, 81, prec) - Ball.from_fraction(Fraction(31, 4), prec)
        assert intersects(f, ref)
        assert abs(bf_to_float(f.mid) - 1.6548856) < 1e-7

    def test_terminating_encloses_exact_rational(self):
        """with y = 0, F1(1; -kk, -e; e+2; x, 0) is the terminating
        2F1(1, -kk; e+2; x), and the second value 2F1(1, -kk; e+3; x): at an
        exact x both enclose their exact rational sums, within 2^-91, for e2
        even and odd"""
        xf = Fraction(1, 4)
        zero = Ball.from_int(0, 96)
        for kk, e2 in ((2, 0), (2, 1), (9, 6), (9, 7)):
            first, second = specfun.appell_f1(kk, e2, Ball.from_fraction(xf, 96), zero, 96)
            for out, c in ((first, Fraction(e2, 2) + 2), (second, Fraction(e2, 2) + 3)):
                exact = sum(poch(Fraction(-kk), m) / poch(c, m) * xf**m for m in range(kk + 1))
                assert _contains(out, exact), (kk, e2)
                assert bf_cmp(out.rad, bf_two_power(-91)) <= 0

    def test_divergent_z(self):
        """a series argument whose ball lies past 1 raises
        PrecisionExhausted: `appell_f1` reads |x| and |y| before it sums"""
        z = ball_widen(Ball.from_fraction(Fraction(5, 4), 64), bf_two_power(-10))
        small = Ball.from_fraction(Fraction(1, 5), 64)
        with pytest.raises(PrecisionExhausted):
            specfun.appell_f1(0, 1, small, z, 64)
        with pytest.raises(PrecisionExhausted):
            specfun.appell_f1(1, 1, z, small, 64)

    def test_tail_bound_validity(self, monkeypatch):
        """an evaluation at the tolerance 2^-100 lands inside the one at
        2^-40, whose radius its tail sets, for the lens series of n = 3, 8
        and 12"""
        for n in (3, 8, 12):
            _tolerance(monkeypatch, -40)
            coarse = specfun.gauss_2f1(n, 128)
            _tolerance(monkeypatch, -100)
            fine = specfun.gauss_2f1(n, 128)
            assert _encloses(coarse, fine)
            assert bf_cmp(coarse.rad, bf_two_power(-81)) > 0

    @pytest.mark.parametrize("zf", [Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    def test_lens_parameters_enclose_mpmath(self, zf):
        """2F1(1, -e; e+2; y), the F1 y side alone (kk = 0), for half-integer
        e = e2/2 from 1/2 to 41/2 at y = zf, and at zf = 1/4 the lens series
        2F1(1, n+1; (n+3)/2; 1/4) for n from 3 to 2700, enclose
        mpmath.hyp2f1 at three times the working precision, both at the
        default tolerance and at 2^-40, where the tail bound sets the
        radius"""
        mpmath = pytest.importorskip("mpmath")
        prec = 128
        x, y = Ball.from_fraction(Fraction(1, 3), prec), Ball.from_fraction(zf, prec)
        for tol_exp in (None, -40):
            with pytest.MonkeyPatch.context() as mp:
                _tolerance(mp, tol_exp)
                cases = [
                    ((-Fraction(e2, 2), Fraction(e2, 2) + 2, zf), specfun.appell_f1(0, e2, x, y, prec)[0])
                    for e2 in range(1, 42, 2)
                ]
                if zf == Fraction(1, 4):
                    cases += [
                        ((Fraction(n + 1), Fraction(n + 3, 2), zf), specfun.gauss_2f1(n, prec))
                        for n in (3, 8, 51, 396, 2700)
                    ]
            for args, out in cases:
                ref = _mp_reference(mpmath, mpmath.hyp2f1, (1,) + args, prec)
                TestAgainstMpmath._check(out, ref, prec, tol_exp, 3 * prec)


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
    """F1(1; -kk, -e; c; x, y) for integers kk, e >= 0 and c >= 1, exactly:
    the double sum of w_s A_m B_n, w_s = s! / (c)_s, with A_m = C(kk, m)
    (-x)^m and B_n = C(e, n) (-y)^n as integers over the denominators q^kk
    and v^e, and w_s = s! (c+s)_(S-s) / (c)_S over the one denominator
    (c)_S, S = kk + e"""
    assert c.denominator == 1 and c >= 1
    c, top = int(c), kk + e
    p, q = -xf.numerator, xf.denominator
    u, v = -yf.numerator, yf.denominator
    x_terms = [math.comb(kk, m) * p**m * q ** (kk - m) for m in range(kk + 1)]
    y_terms = [math.comb(e, n) * u**n * v ** (e - n) for n in range(e + 1)]
    rest = [1] * (top + 1)  # rest[s] = (c+s)_(S-s)
    for s in range(top - 1, -1, -1):
        rest[s] = rest[s + 1] * (c + s)
    total, fact = 0, 1
    for s in range(top + 1):
        lo, hi = max(0, s - e), min(s, kk)
        total += fact * rest[s] * sum(map(operator.mul, x_terms[lo : hi + 1], y_terms[s - hi : s - lo + 1][::-1]))
        fact *= s + 1
    return Fraction(total, q**kk * v**e * rest[0])


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
    """F1(1; -kk, -e; e+2; x, y) and F1(1; -kk, -e-1; e+3; x, y), e = e2/2,
    the pair `appell_f1(kk, e2, x, y, prec)` sums"""

    def test_trivial_zero_bs(self):
        x = Ball.from_fraction(Fraction(1, 3), 64)
        y = Ball.from_fraction(Fraction(-1, 5), 64)
        first, second = specfun.appell_f1(0, 0, x, y, 64)
        assert _contains(first, 1) and _contains(second, 1 - Fraction(-1, 5) / 3)

    def test_y_zero_reduces_to_2f1(self):
        """with y = 0 both values are 2F1(1, -kk; e+2; x) and
        2F1(1, -kk; e+3; x), and at an x ball of nonzero radius they
        enclose mpmath.hyp2f1 at three times the working precision, within
        a relative width of 2^-(prec-8), for e2 even and odd"""
        mpmath = pytest.importorskip("mpmath")
        prec = 96
        xf = Fraction(1, 3)
        x, zero = Ball.from_fraction(xf, prec), Ball.from_int(0, prec)
        assert x.rad.sign != 0
        for kk, e2 in ((5, 5), (5, 4), (30, 57), (30, 56)):
            for out, c in zip(specfun.appell_f1(kk, e2, x, zero, prec), (Fraction(e2, 2) + 2, Fraction(e2, 2) + 3)):
                ref = _mp_reference(mpmath, mpmath.hyp2f1, (1, -kk, c, xf), prec)
                TestAgainstMpmath._check(out, ref, prec, None, 3 * prec)

    def test_terminating_exact_double_sum(self):
        """F1(1; -2, -e; e+2; x, y) at x = 1/3, y = -1/5 encloses its double
        sum in exact rationals: all of it for e2 = 4, and for e2 = 3, whose y
        side does not terminate, its first 80 outer terms together with a
        bound on the rest"""
        prec = 96
        xf, yf = Fraction(1, 3), Fraction(-1, 5)
        x, y = Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec)
        out = specfun.appell_f1(2, 4, x, y, prec)[0]
        exact = Fraction(0)
        for m in range(3):
            for n in range(3):
                exact += (
                    math.factorial(m + n)
                    * poch(Fraction(-2), m)
                    * poch(Fraction(-2), n)
                    / poch(Fraction(4), m + n)
                    / (math.factorial(m) * math.factorial(n))
                    * xf**m
                    * yf**n
                )
        assert _contains(out, exact)
        out = specfun.appell_f1(2, 3, x, y, prec)[0]
        rest = 4 * (1 + xf) ** 2 * abs(yf) ** 81 / (1 - abs(yf))
        assert abs(bf_to_fraction(out.mid) - _f1_double_sum(2, 3, xf, yf, 80)) + rest <= bf_to_fraction(out.rad)

    def test_floor_of_each_diagonal_sum_is_covered(self, monkeypatch):
        """with exact sides (zero radii: the terms of dyadic x and y at
        W = 26, which `_f1_side` would round), every diagonal sum is its
        exact value floored to scale W, with the one ulp that covers that
        floor as its whole radius, and both values still enclose their
        exact terminating double sums (kk = 2, e2 = 6, so c = 5).  The sides
        `_f1_side` builds carry at least one ulp of radius on every term
        past the first, and the ceiling of that radius in C_s hides a
        missing ulp"""
        prec, kk, e = 2, 2, 3
        xf, yf = Fraction(455, 1024), Fraction(-31, 64)

        def exact_side(bc, z, zsup, other, tol, W, w):
            zf, order = bf_to_fraction(z.mid), -bc[0] // bc[2]
            terms = [math.comb(order, j) * (-zf) ** j * 2**W for j in range(order + 1)]
            assert all(t.denominator == 1 for t in terms)
            return [int(t) for t in terms], [0] * len(terms), 0

        sums = []
        inner = specfun._diagonal_sums

        def recording(am, ar, bm, br, W):
            sums.append(((am, bm, W), inner(am, ar, bm, br, W)))
            return sums[-1][1]

        monkeypatch.setattr(specfun, "_f1_side", exact_side)
        monkeypatch.setattr(specfun, "_diagonal_sums", recording)
        x, y = Ball.from_fraction(xf, 64), Ball.from_fraction(yf, 64)
        first, second = specfun.appell_f1(kk, 2 * e, x, y, prec)
        ((am, bm, W), got), = sums
        exact = [sum(am[m] * bm[s - m] for m in range(max(0, s - e), min(s, kk) + 1)) for s in range(kk + e + 1)]
        assert got == [(v >> W, 1) for v in exact]
        assert any(v % (1 << W) for v in exact)
        c = Fraction(e + 2)
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
        up to 2000 and c from 1 to 1350, on the side b = -2001 over the
        denominator of c: at z = 0 and other = 1 the tail factor is 1, so
        the test's p/q is the bound itself (over a common factor, which the
        ratio checks do not see)"""
        zero = Ball.from_int(0, 64)
        cases = [1350, Fraction(3, 2), 1, 5, Fraction(450029, 42), Fraction(2697, 2), Fraction(3826, 3823)]
        for c in cases:
            c, b = Fraction(c), Fraction(-2001)
            bounds = []

            def recording_tail(x, p, q, limit):
                bounds.append((p, q))

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(specfun, "_fx_tail", recording_tail)
                specfun._f1_side(_scaled(b, c), zero, (0, 1), 1 << 72, bf_two_power(-80), 96, 72)
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
        terminating direction"""
        big = Ball.from_fraction(Fraction(3, 2), 64)
        small = Ball.from_fraction(Fraction(1, 5), 64)
        with pytest.raises(PrecisionExhausted):
            specfun.appell_f1(3, 1, big, small, 64)
        with pytest.raises(PrecisionExhausted):
            specfun.appell_f1(3, 4, small, big, 64)

    def test_c_equals_a_plus_one_encloses_mpmath(self):
        """e2 = 0 gives c = 2 = a + 1: F1(1; -2, 0; 2; x, y) and
        F1(1; -2, -1; 3; x, y) at x = 0.8837, y = -0.1516, where the x
        side's first-term bound q = |x| is near its limit (1 + |x|)/2,
        enclose mpmath.appellf1"""
        mpmath = pytest.importorskip("mpmath")
        prec = 80
        xf, yf = Fraction(8837, 10000), Fraction(-1516, 10000)
        outs = specfun.appell_f1(2, 0, Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec), prec)
        for out, params in zip(outs, ((-2, 0, 2), (-2, -1, 3))):
            ref = _mp_reference(mpmath, mpmath.appellf1, (1,) + params + (xf, yf), prec)
            TestAgainstMpmath._check(out, ref, prec, None, 3 * prec)

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
                    for out, shift in zip(specfun.appell_f1(kk, e2, x, y, prec), (0, 1)):
                        args = (1, -kk, -e - shift, e + 2 + shift, xf, yf)
                        _assert_encloses(out, _mp_reference(mpmath, mpmath.appellf1, args, prec), prec, 3 * prec)
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
        side before kk, and both values still enclose their exact values:
        the terminating double sums for even e2, and for odd e2, whose y
        side never terminates and is bounded through V = (1 - |y|)^(-ceil e),
        mpmath.appellf1 at three times the working precision.  The
        arguments are chosen so that at the 2^-40 tolerance the tails, not
        rounding, set the radius, and |x| so that the x side's first-term
        tail bound fits, |x| kk/c <= (1 + |x|)/2"""
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(15)
        sides = _record_sides(monkeypatch)
        for case in range(18):
            kk, e = rng.randint(300, 340), rng.randint(20, 26)
            tol_exp = rng.choice((None, -40))
            if case % 3 == 0:
                prec, e2 = 128, 2 * e
                xf, yf = -Fraction(rng.randint(10, 33), 1000), -Fraction(rng.randint(1, 8), 2**18)
            else:
                e2 = 2 * e + case % 3 - 1
                xf = rng.choice((-1, 1)) * Fraction(rng.randint(50, 140), 100000)
                if e2 % 2 == 0:
                    prec, yf = 256, -Fraction(rng.randint(1, 8), 2**24)
                else:
                    prec, yf = 128, rng.choice((-1, 1)) * Fraction(rng.randint(1, 256), 1024)
            del sides[:]
            x, y = Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec)
            with pytest.MonkeyPatch.context() as mp:
                _tolerance(mp, tol_exp)
                outs = specfun.appell_f1(kk, e2, x, y, prec)
            (x_kept, x_tail), (_, y_tail) = sides
            assert x_kept < kk and x_tail > 0 and y_tail > 0, (case, sides)
            for out, shift in zip(outs, (0, 1)):
                c = Fraction(e2, 2) + 2 + shift
                if e2 % 2 == 0:
                    assert _contains(out, _terminating_f1(kk, e + shift, c, xf, yf)), case
                else:
                    ref = _mp_reference(mpmath, mpmath.appellf1, (1, -kk, 2 - c, c, xf, yf), prec)
                    _assert_encloses(out, ref, prec, 3 * prec)

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
            first, second = specfun.appell_f1(kk, 2 * e, x, y, 128)
            (x_kept, x_tail), _ = sides
            assert x_kept < unit and x_tail > 0, (case, sides, unit)
            assert _contains(first, _terminating_f1(kk, e, c, xf, yf)), case
            assert _contains(second, _terminating_f1(kk, e + 1, c + 1, xf, yf)), case


def _ratio(b: Fraction, c: Fraction, m: int) -> Fraction:
    """the term ratio (b+m)/(c+m) of 2F1(1, b; c; z) / z"""
    return (b + m) / (c + m)


class TestTailRule:
    def test_tail_ratio_exact(self):
        """the tail ratio R of an F1 side holds from the first term,
        |r(m)| <= R for m from 0 to 500 (or to the order of a terminating
        side), and gives q = |z| R <= (1 + |z|)/2, or the call raises
        PrecisionExhausted, exactly when |z| |r(0)| > (1 + |z|)/2, over
        random (kk, e2, |z|) with c = e2/2 + 2: a third of them x sides,
        b = -kk, where both outcomes occur, and the rest y sides, b = -e2/2
        for even and for odd e2, which never raise, as R <= 1 there"""
        rng = random.Random(4)
        outcomes = set()
        for i in range(400):
            zsup = Fraction(rng.randint(1, 999), 1000)
            kind, e2 = i % 3, rng.randint(0, 400)
            if kind:
                e2 = 2 * (e2 // 2) + kind - 1
            c = Fraction(e2, 2) + 2
            b = Fraction(-rng.randint(0, 300)) if kind == 0 else -Fraction(e2, 2)
            order = int(-b) if b.denominator == 1 else None
            try:
                bound = Fraction(*specfun._tail_ratio(_scaled(b, c), (zsup.numerator, zsup.denominator)))
            except PrecisionExhausted:
                outcomes.add((kind, False))
                assert 2 * zsup * abs(b) / c > 1 + zsup, (b, c, zsup)
                continue
            outcomes.add((kind, True))
            top = 500 if order is None else order
            assert 2 * zsup * bound <= 1 + zsup, (b, c, zsup, bound)
            assert all(abs(_ratio(b, c, m)) <= bound for m in range(top)), (b, c, zsup, bound)
        assert outcomes == {(0, False), (0, True), (1, True), (2, True)}, outcomes

    def test_bound_that_misses_at_the_first_term_raises(self):
        """the x side b = -20 over c = 5 (kk = 20, e2 = 6) at |x| = 0.9 gives
        q = 3.6 > 0.95 and raises PrecisionExhausted from `_tail_ratio` and
        from `appell_f1`, instead of summing past a later start index; a
        half-integer y side has R = 1 and fits at any |y| < 1"""
        x, small = Ball.from_fraction(Fraction(9, 10), 64), Ball.from_fraction(Fraction(1, 5), 64)
        with pytest.raises(PrecisionExhausted):
            specfun._tail_ratio((-20, 5, 1), (9, 10))
        with pytest.raises(PrecisionExhausted):
            specfun.appell_f1(20, 6, x, small, 64)
        assert specfun._tail_ratio((-7, 11, 2), (999, 1000)) == (1, 1)

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
        """2F1(1, -kk; e+2+shift; z), the first value of `appell_f1(kk,
        e2 + 2 shift, z, 0)`, at a z ball of nonzero radius: its x side
        stops at its certified tail before its last term, and the value
        still contains the exact finite sum; at the loose tolerance the
        tail, not rounding, sets the radius.  Held back from stopping (its
        `_fx_tail` tests failed), the side keeps all kk + 1 terms, with no
        tail, and encloses the sum as well"""
        prec = 128
        _tolerance(monkeypatch, tol_exp)
        zf = Fraction(-1317, 10000)
        z, zero = Ball.from_fraction(zf, prec), Ball.from_int(0, prec)
        assert z.rad.sign != 0
        c = Fraction(e2, 2) + 2 + shift
        exact = sum(poch(Fraction(-kk), m) / poch(c, m) * zf**m for m in range(kk + 1))
        sides = _record_sides(monkeypatch)
        out = specfun.appell_f1(kk, e2 + 2 * shift, z, zero, prec)[0]
        (x_kept, x_tail), _ = sides
        assert x_kept < kk and x_tail > 0
        assert _contains(out, exact)
        if tol_exp is None:
            assert 2 * bf_to_fraction(out.rad) <= abs(exact) / 2 ** (prec - 8)
        del sides[:]
        inner, tests = specfun._fx_tail, []

        def held_back(*args):
            """fails the x side's kk - 1 tests, which come first"""
            tests.append(args)
            return None if len(tests) < kk else inner(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "_fx_tail", held_back)
            held = specfun.appell_f1(kk, e2 + 2 * shift, z, zero, prec)[0]
        assert sides[0] == (kk + 1, 0)
        assert _contains(held, exact)

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
        out = specfun.appell_f1(kk, e2, x, y, prec)[0]
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
            (Fraction(1), Fraction(-1, 2), Fraction(5, 2)),
                (Fraction(1), Fraction(-7, 2), Fraction(11, 2)),
            (Fraction(1), Fraction(-11, 2), Fraction(15, 2)),
        ],
    )
    @pytest.mark.parametrize("zf", [Fraction(99, 100), Fraction(-99, 100)])
    def test_2f1_headroom_near_unit_z(self, a, b, c, zf):
        """2F1(a, b; c; z) = 2F1(1, -e; e+2; z), e = -b half an odd integer,
        is the y side of `appell_f1(0, 2e, x, z)` alone (kk = 0, so U = 1):
        at |z| = 0.99 its tail factor is 1/(1 - |z|) = 100, and the side
        still reaches its tail, enclosing mpmath.hyp2f1 at three times the
        working precision with a relative width below 2^-(prec-24)"""
        mpmath = pytest.importorskip("mpmath")
        prec = 64
        assert (a, c) == (1, 2 - b) and b.denominator == 2
        z = ball_widen(Ball.from_fraction(zf, prec), bf_two_power(-71))
        out = specfun.appell_f1(0, int(-2 * b), Ball.from_fraction(Fraction(1, 3), prec), z, prec)[0]
        ref = _mp_reference(mpmath, mpmath.hyp2f1, (a, b, c, zf), prec)
        assert abs(bf_to_fraction(out.mid) - ref) <= bf_to_fraction(out.rad) + abs(ref) / 2 ** (3 * prec - 16)
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


def _mp_reference(mpmath, fn, args, prec: int) -> Fraction:
    """fn(*args) from mpmath at three times prec bits, as a Fraction"""
    with mpmath.workprec(3 * prec):
        return _mp_fraction(fn(*(_mp(mpmath, Fraction(v)) for v in args)))


@functools.cache
def _lens_closed_forms(top: int, prec: int) -> list:
    """(n+1) I_n (2/sqrt3)^(n+1) for n from 0 to top, I_n the integral of
    sin^n over [0, pi/3], by the Wallis reduction n I_n = (n-1) I_(n-2) -
    (sqrt3/2)^(n-1) / 2 from I_0 = arcsin(sqrt3/2) and I_1 = 1/2, in mpmath
    at 3 prec + 64 bits (the upward reduction loses about n/5 bits)"""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(3 * prec + 64):
        h = mpmath.sqrt(3) / 2
        ints = [mpmath.asin(h), mpmath.mpf(1) / 2]
        for n in range(2, top + 1):
            ints.append(((n - 1) * ints[n - 2] - h ** (n - 1) / 2) / n)
        return [_mp_fraction((n + 1) * ints[n] / h ** (n + 1)) for n in range(top + 1)]


def _assert_encloses(out, ref: Fraction, prec: int, ref_bits: int | None = None):
    """out contains ref, up to the rounding of an mpmath reference computed
    at ref_bits, by default 64 bits beyond prec"""
    ref_bits = prec + 64 if ref_bits is None else ref_bits
    gap = abs(bf_to_fraction(out.mid) - ref)
    assert gap <= bf_to_fraction(out.rad) + abs(ref) / 2 ** (ref_bits - 16)


class TestAgainstMpmath:
    """Competitor-shaped F1(1, -kk, -e; e+2; x, y), at balls x, y of the
    ranges the competitor meets, and the lens series at random n enclose
    mpmath.appellf1 and mpmath.hyp2f1 at 64 bits beyond the working
    precision, at the default tolerance and at 2^-40"""

    @staticmethod
    def _case(rng):
        """(kk, e2, x, y, prec) whose x series fits its first-term tail
        bound, |x| kk/(e+2) <= (1 + |x|)/2, as the competitor's do"""
        while True:
            kk, e2 = rng.randint(1, 80), rng.randint(1, 80)
            xf = -Fraction(rng.randint(400, 2700), 10000)
            if 2 * abs(xf) * kk <= (1 + abs(xf)) * (Fraction(e2, 2) + 2):
                break
        yf = -Fraction(rng.randint(30, 450), 10000)
        return kk, e2, xf, yf, rng.choice((64, 128, 256))

    @staticmethod
    def _check(out, ref, prec, tol_exp, ref_bits=None):
        _assert_encloses(out, ref, prec, ref_bits)
        if tol_exp is None:
            assert 2 * bf_to_fraction(out.rad) <= abs(ref) / 2 ** (prec - 8)

    @pytest.mark.parametrize("tol_exp", [None, -40])
    def test_gauss_2f1(self, monkeypatch, tol_exp):
        mpmath = pytest.importorskip("mpmath")
        _tolerance(monkeypatch, tol_exp)
        rng = random.Random(31 if tol_exp is None else 32)
        for _ in range(25):
            n, prec = rng.randint(1, 2700), rng.choice((64, 128, 256))
            out = specfun.gauss_2f1(n, prec)
            with mpmath.workprec(prec + 64):
                ref = _mp_fraction(mpmath.hyp2f1(1, n + 1, _mp(mpmath, Fraction(n + 3, 2)), mpmath.mpf(1) / 4))
            self._check(out, ref, prec, tol_exp)

    @pytest.mark.parametrize("tol_exp", [None, -40])
    def test_appell_f1(self, monkeypatch, tol_exp):
        mpmath = pytest.importorskip("mpmath")
        _tolerance(monkeypatch, tol_exp)
        rng = random.Random(33 if tol_exp is None else 34)
        for _ in range(25):
            kk, e2, xf, yf, prec = self._case(rng)
            x, y = Ball.from_fraction(xf, prec), Ball.from_fraction(yf, prec)
            out = specfun.appell_f1(kk, e2, x, y, prec)[0]
            e = Fraction(e2, 2)
            with mpmath.workprec(prec + 64):
                ref = _mp_fraction(mpmath.appellf1(1, -kk, *(_mp(mpmath, v) for v in (-e, e + 2, xf, yf))))
            self._check(out, ref, prec, tol_exp)


# ---------------------------------------------------------------------------
# the inline term steps and Horner passes against the kernel calls
# ---------------------------------------------------------------------------


def _scaled(b: Fraction, c: Fraction) -> tuple[int, int, int]:
    """(ib, ic, d) with b, c = ib/d, ic/d over their least common
    denominator d: the triple `_f1_side` takes"""
    d = math.lcm(b.denominator, c.denominator)
    return int(b * d), int(c * d), d


def _kernel_tail_ratio(b: Fraction, c: Fraction, zsup: Fraction) -> Fraction:
    """the tail ratio of 2F1(1, b; c; z) by the general rule, on Fractions:
    |b|/c when b >= c or the series terminates, otherwise 1 when
    b + c >= 0"""
    if b >= c or (b.denominator == 1 and b <= 0):
        bound = abs(b) / c
    else:
        bound = Fraction(1) if b + c >= 0 else None
    if bound is None or 2 * zsup * bound > 1 + zsup:
        raise (InvalidArgument if bound is None else PrecisionExhausted)("no tail ratio")
    return bound


def _kernel_2f1(n: int, prec: int):
    """`specfun.gauss_2f1(n, prec)` with its set-up on Fractions from the
    general tail rule at the ball z = 1/4, and each term step one
    `_fx_mul_rat` and one `_fx_mul`: the pair it hands `_fx_to_ball`, and
    its scale"""
    b, c = Fraction(n + 1), Fraction(n + 3, 2)
    w = prec + 8
    z = Ball.from_fraction(Fraction(1, 4), w)
    zsup = bf_to_fraction(z.mag_sup())
    ratio = zsup * _kernel_tail_ratio(b, c, zsup)
    tail_factor = ratio / (1 - ratio)
    room = (1 + zsup) / (1 - ratio) ** 2
    W = w + _FX_GUARD + room.numerator.bit_length() - room.denominator.bit_length() + 2
    zx = _fx_from_ball(z, W)
    limit = _fx_from_ball(Ball.point(specfun._default_tol(prec), w), W)[0]
    term = total = (1 << W, 0)
    ib, ic, d = _scaled(b, c)
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
    ib, ic, d = _scaled(b, c)
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


def _kernel_f1(kk: int, e2: int, x: Ball, y: Ball, prec: int, sides=None, bounds=None):
    """`specfun.appell_f1(kk, e2, x, y, prec)` with its set-up on Fractions
    (b1 = -kk, b2 = -e2/2, c = e2/2 + 2), its sides from `_kernel_side` (or
    `sides`, as (x side, y side)), and the C' shift and both Horner passes
    made of `_fx_mul`, `_fx_mul_rat` and `_fx_add`: the two pairs it hands
    `_fx_to_ball`, each with its scale.  The bounds it gives its sides,
    (|x|, V) and (|y|, U), go to the list `bounds`"""
    b1, b2, c = Fraction(-kk), -Fraction(e2, 2), Fraction(e2, 2) + 2
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
    two Horner passes of `appell_f1` are written on bare ints, and the
    set-up of both series on integers; the Newton step of `pow_rational`
    takes a midpoint-only power.  Each gives exactly the ints of the kernel
    calls it stands for (`_kernel_2f1`, `_kernel_side`, `_kernel_f1`,
    `_fx_pow`), whose set-up runs on Fractions through the general tail
    rule, on random n, (kk, e2) and arguments at scales W = 40..400 with
    zero and nonzero radii and on every call of one `desk` and one `tight`
    pass: equal, not only enclosing, since a lost ulp encloses as well."""

    def test_2f1_term_steps(self):
        rng = random.Random(36)
        for _ in range(160):
            n, prec = rng.choice((rng.randint(1, 60), rng.randint(1, 3000))), rng.randint(16, 376)
            assert _handed_on(specfun.gauss_2f1, n, prec) == [_kernel_2f1(n, prec)], (n, prec)
        for n, prec in _recorded_calls()["2f1"]:
            assert _handed_on(specfun.gauss_2f1, n, prec) == [_kernel_2f1(n, prec)], (n, prec)

    def test_f1_side_term_steps(self):
        rng = random.Random(37)
        ran = 0
        for case in range(160):
            prec = rng.randint(16, 376)
            w = prec + 8
            kk, e2 = rng.randint(0, 120), rng.randint(0, 400)
            c = Fraction(e2, 2) + 2
            b = Fraction(-kk) if case % 2 else -Fraction(e2, 2)
            z = _random_ball(rng, _random_fraction(rng, Fraction(9, 10)), prec)
            other = rng.randint(1 << w, 1 << (w + rng.randint(0, 60)))
            tol = bf_two_power(-prec - rng.choice((12, 0, -40)))
            zsup = specfun._sup(z)
            args = (_scaled(b, c), z, zsup, other, tol, w + 16, w)
            try:
                want = _kernel_side(b, c, z, Fraction(*zsup), Fraction(other, 1 << w), tol, w + 16, w)
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    specfun._f1_side(*args)
                continue
            assert specfun._f1_side(*args) == want, (b, c, z, other, prec)
            ran += 1
        assert ran >= 120

    def _check_f1(self, kk, e2, x, y, prec):
        """appell_f1 hands `_fx_to_ball` the pairs of `_kernel_f1` and its
        sides the triples of b1 = -kk and b2 = -e2/2 over c = e2/2 + 2, the
        same |x|, |y|, U and V, and each of its sides is the side of
        `_kernel_side`"""
        sides, bounds = [], []
        inner = specfun._f1_side

        def recording(*args):
            sides.append((args, inner(*args)))
            return sides[-1][1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(specfun, "_f1_side", recording)
            got = _handed_on(specfun.appell_f1, kk, e2, x, y, prec)
        assert got == _kernel_f1(kk, e2, x, y, prec, bounds=bounds), (kk, e2, x, y, prec)
        w = prec + 8
        assert [(Fraction(*args[2]), Fraction(args[3], 1 << w)) for args, _ in sides] == bounds
        c = Fraction(e2, 2) + 2
        for b, ((bc, z, zsup, other, tol, W, w), side) in zip((Fraction(-kk), -Fraction(e2, 2)), sides):
            assert bc == _scaled(b, c), (kk, e2)
            assert side == _kernel_side(b, c, z, Fraction(*zsup), Fraction(other, 1 << w), tol, W, w)

    def test_f1_set_up_sides_and_horner(self):
        rng = random.Random(38)
        ran = 0
        for case in range(90):
            # a third at 16 to 40 bits, where |x| can have more bits than
            # the scale w, so that the base 1 + |x| of U is rounded up
            prec = rng.randint(16, 376 if case % 3 else 40)
            kk, e2 = rng.randint(0, 80), rng.randint(0, 160)
            # |x| kk/c <= (1 + |x|)/2, the x side's first-term bound
            xtop = min(Fraction(9, 10), 1 / max(2 * kk / (Fraction(e2, 2) + 2) - 1, Fraction(1, 2)))
            x = _random_ball(rng, _random_fraction(rng, xtop), prec)
            y = _random_ball(rng, _random_fraction(rng, Fraction(9, 10)), prec)
            try:
                _kernel_f1(kk, e2, x, y, prec)
            except PrecisionExhausted:
                with pytest.raises(PrecisionExhausted):
                    specfun.appell_f1(kk, e2, x, y, prec)
                continue
            self._check_f1(kk, e2, x, y, prec)
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
            e2 = rng.randint(0, 400)
            x = Ball.from_fraction(Fraction(1, 8), prec)
            y = _random_ball(rng, _random_fraction(rng, Fraction(9, 10)), prec)
            stub = iter(sides)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(specfun, "_f1_side", lambda *args: next(stub))
                got = _handed_on(specfun.appell_f1, 3, e2, x, y, prec)
            assert got == _kernel_f1(3, e2, x, y, prec, sides), (case, e2, y, prec)

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
