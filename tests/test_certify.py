import concurrent.futures
import decimal
import fractions
import json
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from lenscert import certify as C
from lenscert import ball, cli, geom, oracle, reports, specfun
from lenscert.ball import Ball, ball_from_str, ball_mul, ball_str_decimals, ball_to_str, TriBool
from lenscert.bigfloat import bf_cmp, bf_two_power
from lenscert.errors import InvalidArgument, PrecisionExhausted

from helpers import bf_to_fraction, widen


class TestEscalate:
    """`_escalate` alone decides which attempt is the final one: a non-final
    attempt stops at its first failing item, the final one takes every item"""

    def run(self, results, prec_start=128, prec_max=1000):
        """results(prec) lists the items of the attempt at prec; an exception
        among them is raised when it is drawn.  `calls` records each attempt
        as (prec, number of items drawn)."""
        calls = []

        def enclosures(prec):
            calls.append([prec, 0])
            for item in results(prec):
                if isinstance(item, Exception):
                    raise item
                calls[-1][1] += 1
                yield item

        out = C._escalate(enclosures, lambda item: item == "ok", prec_start, prec_max)
        return out, [tuple(c) for c in calls]

    def test_final_attempt_follows_the_cap(self):
        out, calls = self.run(lambda prec: ["wide", "wide"])
        assert calls == [(128, 1), (256, 1), (512, 2)]
        assert out == (["wide", "wide"], 512, False)
        out, calls = self.run(lambda prec: ["wide", "wide"], prec_max=128)
        assert calls == [(128, 2)]
        assert out == (["wide", "wide"], 128, False)

    def test_failing_item_of_a_non_final_attempt_doubles(self):
        out, calls = self.run(lambda prec: ["ok", "ok"] if prec == 256 else ["wide", "ok"])
        assert calls == [(128, 1), (256, 2)]
        assert out == (["ok", "ok"], 256, True)

    def test_cancellation_on_the_final_attempt_propagates(self):
        with pytest.raises(PrecisionExhausted):
            self.run(lambda prec: [PrecisionExhausted("at %d bits" % prec)])
        out, calls = self.run(
            lambda prec: ["ok"] if prec == 512 else ["ok", PrecisionExhausted("at %d bits" % prec)]
        )
        assert calls == [(128, 1), (256, 1), (512, 1)]
        assert out == (["ok"], 512, True)

    def test_non_final_attempt_never_resumes_after_a_failing_item(self):
        """the generator of a rejected non-final attempt is not resumed past
        its first failing item, so nothing after it is computed"""
        produced, resumed = [], []

        def enclosures(prec):
            for i, item in enumerate(["ok", "wide", "ok", "ok"]):
                produced.append((prec, i))
                yield item
                resumed.append((prec, i))

        out = C._escalate(enclosures, lambda item: item == "ok", 128, 256)
        assert out == (["ok", "wide", "ok", "ok"], 256, False)
        assert [i for p, i in produced if p == 128] == [0, 1]
        assert [i for p, i in resumed if p == 128] == [0]
        assert [i for p, i in resumed if p == 256] == [0, 1, 2, 3]


class TestCertifyDimension:
    def test_n8_proven(self):
        cert = C.certify_dimension(8)
        assert cert["verdict"] == "Proven"
        assert cert["precision_bits"] == 128
        assert [(e["k"], e["l"]) for e in cert["entries"]] == [(3, 3), (2, 4)]
        assert all(e["strict"] == "CertainlyTrue" for e in cert["entries"])
        assert all(e["path_agreement"] for e in cert["entries"])
        lam = ball_from_str(cert["lambda_plane"], 128)
        assert reports.certified_decimal(lam, 8) == "7.29128238"

    def test_loose_width_still_proven(self):
        cert = C.certify_dimension(8, target_width=10.0)
        assert cert["verdict"] == "Proven"

    def test_gap_value_n8(self):
        """gap at n=8 for the central pair is about 0.47270274"""
        lens = geom.lens_quantities(8, 128)
        en = geom.competitor_energy_specfun(3, 3, 128)
        gap = lens.lambda_plane - en.m_value
        assert abs(float(bf_to_fraction(gap.mid)) - 0.47270274) < 1e-7

    def test_synthetic_equal_inputs_undecided(self, monkeypatch):
        """M forced equal to the lens energy cannot certify strictness"""
        def fake_specfun(k, l, prec):
            return geom.CompetitorEnergy(k, l, geom.lens_quantities(k + l + 2, prec).lambda_plane)

        monkeypatch.setattr(geom, "competitor_energy_specfun", fake_specfun)
        monkeypatch.setattr(C, "QUADRATURE_MAX_N", 0)
        cert = C.certify_dimension(8, prec_max=512)
        assert cert["verdict"] == "Undecided"

    def test_fault_injection_degrades_to_failed(self, monkeypatch):
        """zeroed radii around a perturbed midpoint must trip path agreement"""
        specfun = geom.competitor_energy_specfun

        def poisoned_specfun(k, l, prec):
            en = specfun(k, l, prec)
            wrong_mid = (en.m_value + Ball.from_int(1, prec)).mid
            poisoned = Ball(wrong_mid, bf_two_power(-prec), prec)
            return geom.CompetitorEnergy(k, l, poisoned)

        monkeypatch.setattr(geom, "competitor_energy_specfun", poisoned_specfun)
        cert = C.certify_dimension(8)
        assert cert["verdict"] == "Failed"
        assert [(e["k"], e["l"], e["path_agreement"]) for e in cert["entries"]] == [(3, 3, False), (2, 4, False)]

    @pytest.mark.parametrize("n", [8, 22, 24])
    @pytest.mark.parametrize("fault", ["rho", "d", "r", "lambda_", "h", "f1"])
    def test_small_fault_in_d_fails_agreement(self, fault, n, monkeypatch):
        """the fault study at the dimensions with odd pairs: rho, d, r,
        lambda or h scaled by 1 + 1e-9 in `geom.lawson_constants`, or the
        perimeter integral (the first value of `specfun.appell_f1`), moves
        the special-function value off the moment value, whose arcs start at
        the corner angles; its narrow balls disagree on every pair.  The one
        exception is h, which enters nothing when k = l (one arc), so its
        fault fails the unbalanced pair only"""
        scale = Ball.from_fraction(Fraction(10**9 + 1, 10**9), 256)
        if fault == "f1":
            appell_f1 = specfun.appell_f1

            def faulty_f1(*args):
                f1, f2 = appell_f1(*args)
                return ball_mul(f1, scale, f1.prec), f2

            monkeypatch.setattr(specfun, "appell_f1", faulty_f1)
        else:
            lawson_constants = geom.lawson_constants

            def faulty_constants(k, l, prec):
                c = lawson_constants(k, l, prec)
                setattr(c, fault, ball_mul(getattr(c, fault), scale, prec + 8))
                return c

            monkeypatch.setattr(geom, "lawson_constants", faulty_constants)
        cert = C.certify_dimension(n)
        assert cert["verdict"] == "Failed"
        assert [(e["k"], e["l"], e["path_agreement"]) for e in cert["entries"]] == [
            (k, l, fault == "h" and k == l) for k, l in geom.default_pairs(n)
        ]

    @pytest.mark.parametrize("n, pairs", [(8, "default"), (22, "default"), (24, "default"), (24, "all")])
    def test_one_second_path_per_pair(self, n, pairs, monkeypatch):
        """the agreement check computes one second value per pair, the moment
        value at AGREEMENT_PREC, and never the polynomial value"""
        calls = []

        def counted(name, f):
            def wrapper(k, l, prec):
                calls.append((name, k, l, prec))
                return f(k, l, prec)

            return wrapper

        monkeypatch.setattr(geom, "competitor_energy_quadrature", counted("moment", geom.competitor_energy_quadrature))
        monkeypatch.setattr(oracle, "polynomial_m_value", counted("polynomial", oracle.polynomial_m_value))
        cert = C.certify_dimension(n, pairs=pairs)
        assert [(e["k"], e["l"]) for e in cert["entries"]] == C._resolve_pairs(n, pairs)
        assert calls == [("moment", e["k"], e["l"], C.AGREEMENT_PREC) for e in cert["entries"]]

    @pytest.mark.parametrize("n, pairs", [(8, "default"), (23, "default"), (24, "all"), (25, "default")])
    def test_one_atan_per_agreement_pair(self, n, pairs, monkeypatch):
        """certifying a dimension takes one arctangent per pair up to
        QUADRATURE_MAX_N, the corner angle of the moment value, and none
        above it, where no agreement check runs"""
        calls = []
        atan_ball = ball.atan_ball

        def counted(a, prec):
            calls.append(prec)
            return atan_ball(a, prec)

        for mod in (ball, geom):
            monkeypatch.setattr(mod, "atan_ball", counted)
        cert = C.certify_dimension(n, pairs=pairs)
        assert cert["verdict"] == "Proven"
        assert len(calls) == (len(cert["entries"]) if n <= C.QUADRATURE_MAX_N else 0)

    def test_too_wide_agreement_value_fails_the_pair(self, monkeypatch, tmp_path):
        """a second-path value wider than AGREEMENT_WIDTH fails its pair and
        the batch goes on: at 1e-30 every pair of n = 8..9 fails and the file
        is written; at 6e-19 only the moment value of (10,12), about
        8.6e-19 wide, is too wide, while that of (11,11), about 4.7e-19, is
        not"""
        monkeypatch.setattr(C, "AGREEMENT_WIDTH", 1e-30)
        out = tmp_path / "certs.json"
        certs = C.certify(range(8, 10), out=str(out))
        assert [c["verdict"] for c in certs] == ["Failed", "Failed"]
        assert [(e["k"], e["l"], e["path_agreement"]) for c in certs for e in c["entries"]] == [
            (3, 3, False), (2, 4, False), (3, 4, False)
        ]
        assert [c["verdict"] for c in json.loads(out.read_text())] == ["Failed", "Failed"]
        monkeypatch.setattr(C, "AGREEMENT_WIDTH", 6e-19)
        cert = C.certify_dimension(24)
        assert cert["verdict"] == "Failed"
        assert [(e["k"], e["l"], e["path_agreement"]) for e in cert["entries"]] == [(11, 11, True), (10, 12, False)]

    def test_cancellation_rejects_the_attempt(self, monkeypatch):
        """a ball-layer cancellation below 256 bits escalates the precision;
        on the last allowed attempt it propagates"""
        lens_quantities = geom.lens_quantities

        def lens_eval(n, prec):
            if prec < 256:
                raise PrecisionExhausted("synthetic cancellation at %d bits" % prec)
            return lens_quantities(n, prec)

        monkeypatch.setattr(geom, "lens_quantities", lens_eval)
        monkeypatch.setattr(C, "QUADRATURE_MAX_N", 0)
        cert = C.certify_dimension(8)
        assert cert["verdict"] == "Proven"
        assert cert["precision_bits"] == 256
        with pytest.raises(PrecisionExhausted):
            C.certify_dimension(8, prec_max=128)

    def test_series_argument_too_wide_rejects_the_attempt(self):
        """at 1 bit the x ball of the (26,9) u-arc is too wide for the
        first-term tail bound, which raises PrecisionExhausted; at a width
        the lens meets at 1 bit that rejects the attempt like a cancellation,
        and n = 37 with all its pairs escalates to a Proven certificate"""
        with pytest.raises(PrecisionExhausted):
            geom.competitor_energy_specfun(26, 9, 1)
        cert = C.certify_dimension(37, pairs="all", target_width=1000.0, prec_start=1)
        assert cert["verdict"] == "Proven" and cert["precision_bits"] > 1
        assert [(e["k"], e["l"]) for e in cert["entries"]] == geom.all_pairs(37)

    def test_f1_argument_ball_reaching_the_unit_circle_rejects_the_attempt(self):
        """at n = 133 with all pairs from 1 bit, the F1 argument balls of a
        low-precision attempt reach |x| = 1; that rejects the attempt like any
        other undecided enclosure, so the run escalates to Proven at 32 bits
        and the command line exits 0 instead of ending in an error"""
        cert = C.certify_dimension(133, "all", 1000.0, 1)
        assert cert["verdict"] == "Proven" and cert["precision_bits"] == 32
        assert cli.main(["certify", "--n", "133", "--pairs", "all", "--prec-start", "1", "--width", "1000"]) == 0

    def test_too_wide_lens_stops_the_attempt(self, monkeypatch):
        """at a width 128 bits cannot reach, the 128-bit attempt stops after
        the lens, which it never writes: the competitors run at 256 bits only"""
        calls, written = [], []
        specfun = geom.competitor_energy_specfun

        def specfun_eval(k, l, prec):
            calls.append(prec)
            return specfun(k, l, prec)

        def to_str(b):
            written.append(b.prec)
            return ball_to_str(b)

        monkeypatch.setattr(geom, "competitor_energy_specfun", specfun_eval)
        monkeypatch.setattr(C, "ball_to_str", to_str)
        monkeypatch.setattr(C, "QUADRATURE_MAX_N", 0)
        cert = C.certify_dimension(26, target_width=1e-45)
        assert cert["verdict"] == "Proven" and cert["precision_bits"] == 256
        assert calls == [256, 256]
        assert len(written) == 3 and min(written) >= 256

    @pytest.mark.parametrize("miss", ["width", "strictness"])
    def test_missing_pair_stops_the_attempt(self, miss, monkeypatch):
        """a pair that is too wide or leaves strictness undecided at 128 bits
        stops the attempt before the next pair runs"""
        calls = []
        specfun = geom.competitor_energy_specfun

        def specfun_eval(k, l, prec):
            calls.append((k, l, prec))
            en = specfun(k, l, prec)
            if prec == 128 and (k, l) == (3, 3):
                m = widen(en.m_value, bf_two_power(-20)) if miss == "width" else (
                    geom.lens_quantities(8, prec).lambda_plane
                )
                en = geom.CompetitorEnergy(k, l, m)
            return en

        monkeypatch.setattr(geom, "competitor_energy_specfun", specfun_eval)
        monkeypatch.setattr(C, "QUADRATURE_MAX_N", 0)
        cert = C.certify_dimension(8)
        assert cert["verdict"] == "Proven" and cert["precision_bits"] == 256
        assert calls == [(3, 3, 128), (3, 3, 256), (2, 4, 256)]

    def test_final_attempt_lists_every_pair(self, monkeypatch):
        """when no precision above the start is allowed, the one attempt is
        final and serializes every pair, however wide"""
        monkeypatch.setattr(C, "QUADRATURE_MAX_N", 0)
        cert = C.certify_dimension(26, target_width=1e-45, prec_max=128)
        assert cert["verdict"] == "Undecided" and cert["precision_bits"] == 128
        assert [(e["k"], e["l"]) for e in cert["entries"]] == geom.default_pairs(26)
        for e in cert["entries"]:
            assert e["m_value"] == ball_to_str(geom.competitor_energy_specfun(e["k"], e["l"], 128).m_value)

    def test_low_precision_cap_ends_undecided(self):
        """the agreement path runs at AGREEMENT_PREC whatever the certificate's
        precision, so a 16-bit cap at n = 24 gives an Undecided certificate
        whose pairs all agree, instead of an error from a 16-bit second path"""
        cert = C.certify_dimension(24, prec_start=16, prec_max=16)
        assert cert["verdict"] == "Undecided" and cert["precision_bits"] == 16
        assert [(e["k"], e["l"]) for e in cert["entries"]] == geom.default_pairs(24)
        assert all(e["path_agreement"] for e in cert["entries"])

    def test_every_valid_pair_listed_at_low_precision(self):
        """at 8 bits `--pairs all` lists every pair with 1/3 < k/l < 3,
        (9, 26) next to the boundary included"""
        cert = C.certify_dimension(37, pairs="all", prec_start=8, prec_max=8)
        assert [(e["k"], e["l"]) for e in cert["entries"]] == geom.all_pairs(37)
        assert (9, 26) in geom.all_pairs(37)

    @pytest.mark.parametrize("kwargs", [{"prec_start": 0}, {"prec_start": -64}, {"target_width": 0.0},
                                        {"target_width": float("nan")}, {"target_width": float("inf")},
                                        {"prec_max": 64}, {"prec_max": 16384}])
    def test_invalid_driver_arguments_raise(self, kwargs):
        """a start precision below one bit, a cap below the start precision, or
        a width no enclosure can meet raises at once instead of escalating for
        ever or running past the cap"""
        with pytest.raises(InvalidArgument):
            C.certify_dimension(8, **kwargs)

    def test_pair_of_another_dimension_rejected(self):
        """pairs are named, "default" or "all": a list raises at once, before
        any attempt runs"""
        with pytest.raises(InvalidArgument):
            C.certify_dimension(8, pairs=[(2, 3)])

    def test_rejects_low_dimension(self):
        with pytest.raises(InvalidArgument):
            C.certify_dimension(3)

    def test_rejects_empty_pair_list(self):
        """an empty list is no pair name either, nor is any name but the two"""
        for pairs in ([], "none"):
            with pytest.raises(InvalidArgument):
                C.certify_dimension(8, pairs=pairs)

    def test_n2700_proven_at_128_bits(self):
        """the largest long-run dimension certifies without escalation"""
        cert = C.certify_dimension(2700)
        assert cert["verdict"] == "Proven"
        assert cert["precision_bits"] == 128

    def test_verdict_stability_under_higher_precision(self):
        low = C.certify_dimension(9, prec_start=128)
        high = C.certify_dimension(9, prec_start=256)
        assert low["verdict"] == "Proven" and high["verdict"] == "Proven"


# (n, target width or None for the default) -> (precision_bits, lambda_plane,
# {(k, l): m_value}), as certify_dimension wrote them when the series code was
# last changed; a change that keeps "the same results" keeps these strings
PINNED_CERTIFICATES = {
    (8, None): (128, "7.2912823782433119809389949447376811846422e+0 +/- 6.3e-39", {
        (3, 3): "6.818579639198558368209552180791135310953e+0 +/- 1.1e-38",
        (2, 4): "6.800440501295683096029181112973072925576e+0 +/- 1.3e-38",
    }),
    (25, None): (128, "1.5500235623907975959381547180767778051492e+1 +/- 9.4e-39", {
        (11, 12): "1.5155167504809549081450969585761642350778e+1 +/- 3.3e-38",
    }),
    (200, None): (128, "4.9226205787895514171383334026759021297544e+1 +/- 3.3e-38", {
        (99, 99): "4.9070500878841341782023507226520584700441e+1 +/- 5.4e-38",
        (98, 100): "4.907050088451637657751988691426921893233e+1 +/- 8.8e-38",
    }),
    (2700, None): (128, "1.85412305139778968918788493342033331410505e+2 +/- 9.8e-39", {
        (1349, 1349): "1.8536755141856634148256654032944279344822e+2 +/- 1.8e-37",
        (1348, 1350): "1.8536755141857510718284006682867486529798e+2 +/- 1.3e-37",
    }),
    (121, 1e-45): (
        256,
        "3.775243330242454169843465554695256578149142324550562922248575886945741017478459e+1 +/- 9.4e-77",
        {
            (59, 60): "3.755860180473188326042344143846179438389816895564202446956539650774941412544966e+1"
            " +/- 2.9e-76",
        },
    ),
}


@pytest.mark.parametrize("n,width", list(PINNED_CERTIFICATES))
def test_certificate_strings_pinned(n, width):
    """precision_bits, lambda_plane and every m_value of certify_dimension
    are exactly the pinned strings"""
    cert = C.certify_dimension(n, target_width=width or C.DEFAULT_TARGET_WIDTH)
    bits, lam, m_values = PINNED_CERTIFICATES[n, width]
    assert cert["verdict"] == "Proven"
    assert (cert["precision_bits"], cert["lambda_plane"]) == (bits, lam)
    assert {(e["k"], e["l"]): e["m_value"] for e in cert["entries"]} == m_values


class TestCertifyRange:
    def test_range_and_replay(self, tmp_path):
        out = tmp_path / "certs.json"
        certs = C.certify(range(8, 13), out=str(out))
        assert [c["n"] for c in certs] == [8, 9, 10, 11, 12]
        assert all(c["verdict"] == "Proven" for c in certs)
        data = json.loads(out.read_text())
        assert [C.replay_certificate(d) for d in data] == ["Proven"] * 5

    def test_jobs_capped_by_dimensions_and_cpus(self, monkeypatch):
        """the pool never gets more workers than dimensions or CPUs, however
        large `jobs` is; a fake executor records the request and starts no
        process"""
        requested = []

        class FakeExecutor:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
        monkeypatch.setattr(C.os, "cpu_count", lambda: 2)
        certs = C.certify([8, 9, 10], jobs=100_000)
        assert requested == [2]
        assert [c["n"] for c in certs] == [8, 9, 10]
        monkeypatch.setattr(C.os, "cpu_count", lambda: 64)
        C.certify([8, 9], jobs=100_000)
        assert requested == [2, 2]
        C.certify([8, 9], jobs=1)
        C.certify([8], jobs=100_000)
        assert requested == [2, 2]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs, tmp_path):
        out = tmp_path / "c.json"
        with pytest.raises(InvalidArgument):
            C.certify([8], jobs=jobs, out=str(out))
        assert not out.exists()

    def test_determinism_modulo_timestamp(self):
        a = C.certify_dimension(10)
        b = C.certify_dimension(10)
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b

    def test_certificate_layout(self):
        """the keys of a certificate and of each entry come in one fixed
        order, which is the JSON file layout; the dict survives a `json`
        round trip, and the certificate pickles as a worker returns it"""
        d = C.certify_dimension(8)
        keys = ["n", "precision_bits", "target_width", "lambda_plane", "entries", "verdict", "tool_version",
                "timestamp"]
        assert list(d) == keys
        assert d["entries"]
        for entry in d["entries"]:
            assert list(entry) == ["k", "l", "m_value", "path_agreement", "strict"]
        text = json.dumps(d, indent=1)
        assert json.loads(text) == d
        assert json.dumps(json.loads(text), indent=1) == text
        assert json.dumps(pickle.loads(pickle.dumps(d)), indent=1) == text

    def test_replay_flags_tampering(self):
        """an m_value equal to lambda_plane leaves strictness undecided; one
        whose midpoint lies 1 above lambda_plane's, at the same radius, fails"""
        cert = C.certify_dimension(8)
        cert["entries"][0]["m_value"] = cert["lambda_plane"]
        assert C.replay_certificate(cert) == "Undecided"
        mid, rad = cert["lambda_plane"].split(" +/- ")
        with decimal.localcontext() as ctx:
            ctx.prec = 1000
            cert["entries"][0]["m_value"] = "%s +/- %s" % (decimal.Decimal(mid) + 1, rad)
        assert C.replay_certificate(cert) == "Failed"

    def test_replay_rejects_empty_or_foreign_entries(self):
        """a certificate with no entries, or with an entry whose pair does not
        match its dimension, carries no evidence for n and replays as Failed"""
        cert = C.certify_dimension(8)
        assert C.replay_certificate({**cert, "entries": []}) == "Failed"
        cert["entries"][0]["k"] = cert["entries"][0]["l"] = 30
        assert C.replay_certificate(cert) == "Failed"

    def test_replay_decides_on_exact_values(self):
        """balls that a 64-bit parse rounds onto each other are still ordered:
        strictness compares the exact decimal values"""
        lam, m = "1.00000000000000000000001e+0 +/- 0", "1e+0 +/- 0"
        m_dec, lam_dec = ball_str_decimals(m), ball_str_decimals(lam)
        assert C.strictness(m_dec, lam_dec) is TriBool.CERTAINLY_TRUE
        assert C.strictness(lam_dec, m_dec) is TriBool.CERTAINLY_FALSE
        cert = {
            "n": 8,
            "precision_bits": 64,
            "lambda_plane": lam,
            "entries": [{"k": 3, "l": 3, "m_value": m, "path_agreement": True, "strict": "Unknown"}],
        }
        assert C.replay_certificate(cert) == "Proven"

    def test_replay_builds_no_fraction(self, monkeypatch):
        """replay parses and decides on integers: with `Fraction` construction
        counted, replaying certificates from their JSON builds none"""
        certs = [C.certify_dimension(8), C.certify_dimension(30, target_width=1e-45)]
        certs = json.loads(json.dumps(certs))
        made = []
        new = fractions.Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counted))
        assert Fraction(1, 3) and made == [(1, 3)]
        made.clear()
        assert [C.replay_certificate(c) for c in certs] == ["Proven", "Proven"]
        assert made == []

    @pytest.mark.parametrize("lam", ["7.29e+0", "7.29e+0 +/- -1e-9", "7.29e+1000000 +/- 0"])
    def test_replay_rejects_malformed_ball(self, lam):
        """a ball string without "+/-", with a negative radius, or with an
        exponent past MAX_DECIMAL_EXPONENT replays as Failed"""
        cert = C.certify_dimension(8)
        cert["lambda_plane"] = lam
        assert C.replay_certificate(cert) == "Failed"


class TestOneVerdict:
    """`certify_dimension` sets its verdict by the rule that replay applies,
    so every certificate replays from its JSON to the verdict it stores"""

    @staticmethod
    def replayed(cert: dict) -> str:
        return C.replay_certificate(json.loads(json.dumps(cert)))

    def test_missed_width_replays_undecided(self):
        """at 512 bits both pairs of n = 8 decide strictness but are wider
        than 1e-200: the certificate is Undecided, and so is its replay;
        without its target_width, in the format before that key, it replays
        with no width test, as Proven"""
        cert = C.certify_dimension(8, target_width=1e-200, prec_max=512)
        assert (cert["verdict"], cert["precision_bits"], cert["target_width"]) == ("Undecided", 512, 1e-200)
        assert all(e["strict"] == "CertainlyTrue" for e in cert["entries"])
        assert self.replayed(cert) == "Undecided"
        legacy = {key: value for key, value in cert.items() if key != "target_width"}
        assert self.replayed(legacy) == "Proven"

    def test_low_precision_certificates_replay_to_their_verdict(self):
        """every pair of n = 4..30 at width 1000 from one attempt at 1 to 4
        bits, wherever no error is raised"""
        verdicts = set()
        for n in range(4, 31):
            for prec in range(1, 5):
                try:
                    cert = C.certify_dimension(n, "all", 1000.0, prec, prec)
                except PrecisionExhausted:
                    continue
                assert self.replayed(cert) == cert["verdict"], (n, prec)
                verdicts.add(cert["verdict"])
        assert verdicts == {"Proven", "Undecided"}

    def test_tight_width_certificates_replay_to_their_verdict(self):
        for n in range(25, 31):
            cert = C.certify_dimension(n, target_width=1e-45)
            assert self.replayed(cert) == cert["verdict"] == "Proven", n


class TestReplayRejects:
    """a hand edit that leaves a certificate without evidence for its
    dimension, or malformed, replays as Failed and never raises"""

    @pytest.mark.parametrize("n,pair", [(8, (1, 5)), (8, (5, 1)), (10, (2, 6))])
    def test_pair_outside_the_valid_ratio(self, n, pair):
        """k + l + 2 = n holds, but k/l is not strictly between 1/3 and 3"""
        cert = C.certify_dimension(n)
        cert["entries"][-1]["k"], cert["entries"][-1]["l"] = pair
        assert C.replay_certificate(cert) == "Failed"

    @pytest.mark.parametrize("n,agreement", [(8, None), (8, 1), (8, "true"), (25, True)])
    def test_path_agreement_of_the_wrong_kind(self, n, agreement):
        """a boolean up to QUADRATURE_MAX_N, where the agreement check runs,
        and null above it"""
        cert = C.certify_dimension(n)
        cert["entries"][0]["path_agreement"] = agreement
        assert C.replay_certificate(cert) == "Failed"

    @pytest.mark.parametrize(
        "lam,m", [(None, "-5e+0 +/- 1e+0"), (None, "-1e+0 +/- 1e+0"), ("-1e+0 +/- 1e+0", "-5e+0 +/- 1e+0")]
    )
    def test_enclosure_certainly_at_or_below_zero(self, lam, m):
        """M and lambda_plane are positive, so an enclosure with mid + rad <= 0
        is not one of them, although M below lambda_plane still holds"""
        cert = C.certify_dimension(8)
        for entry in cert["entries"]:
            entry["m_value"] = m
        cert["lambda_plane"] = lam or cert["lambda_plane"]
        assert C.replay_certificate(cert) == "Failed"

    @pytest.mark.parametrize(
        "edit",
        [
            lambda c: c["entries"][0].pop("path_agreement"),
            lambda c: c.pop("lambda_plane"),
            lambda c: c.update(n=8.0),
            lambda c: c["entries"][0].update(k="3"),
            lambda c: c["entries"][0].update(m_value=6.8),
            lambda c: c.update(target_width="1e-12"),
            lambda c: c.update(target_width=float("nan")),
            lambda c: c.update(lambda_plane="abc +/- 1e-30"),
            lambda c: c["entries"][0].update(m_value="1/0 +/- 0"),
        ],
        ids=["no-agreement", "no-lambda", "float-n", "str-k", "float-m", "str-width", "nan-width",
             "unparsable", "zero-denominator"],
    )
    def test_malformed_certificate(self, edit):
        cert = C.certify_dimension(8)
        edit(cert)
        assert C.replay_certificate(cert) == "Failed"

    @pytest.mark.parametrize(
        "form",
        [
            lambda mid: "%d/%d" % Fraction(mid).as_integer_ratio(),
            lambda mid: mid[:4] + "_" + mid[4:],
            lambda mid: "." + mid.replace(".", "", 1).replace("e+0", "e+1"),
            lambda mid: "\u0667" + mid[1:],
        ],
        ids=["ratio", "underscore", "leading-point", "non-ascii-digit"],
    )
    def test_decimal_forms_outside_the_grammar(self, form):
        """`Fraction` reads these spellings of the lens midpoint to its exact
        value, but the ball grammar (sign, ASCII digits, an optional point
        and digits, an optional exponent) rejects them"""
        cert = C.certify_dimension(8)
        mid, rad = cert["lambda_plane"].split(" +/- ")
        assert mid.startswith("7.") and mid.endswith("e+0")
        assert Fraction(form(mid)) == Fraction(mid)
        cert["lambda_plane"] = "%s +/- %s" % (form(mid), rad)
        assert C.replay_certificate(cert) == "Failed"

    @pytest.mark.parametrize("cert", [None, [], "certificate"])
    def test_not_an_object(self, cert):
        assert C.replay_certificate(cert) == "Failed"


class TestTable:
    def test_rows_layout(self):
        rows = reports.table_rows(range(8, 17))
        keyed = [(r.n, r.k, r.l) for r in rows]
        assert keyed == [
            (8, 3, 3), (9, 3, 4), (10, 4, 4), (10, 3, 5), (11, 4, 5), (12, 5, 5),
            (13, 5, 6), (14, 6, 6), (14, 5, 7), (15, 6, 7), (16, 7, 7),
        ]
        # second rows carry no lens-energy cell
        assert rows[3].lambda_plane_8dp is None
        assert rows[8].lambda_plane_8dp is None
        assert rows[0].lambda_plane_8dp == "7.29128238"
        assert rows[5].m_8dp == "9.26851974"

    def test_renderers(self):
        rows = reports.table_rows([8])
        csv = reports.render_table(rows, "csv")
        assert csv.splitlines()[0] == "n,k,l,lambda_plane,m"
        md = reports.render_table(rows, "markdown")
        assert md.startswith("| n |")
        js = json.loads(reports.render_table(rows, "json"))
        assert js[0]["n"] == 8
        rows10 = reports.table_rows([10])
        assert "---" in reports.render_table(rows10, "csv")

    def test_unpinned_lens_stops_the_attempt(self, monkeypatch):
        """40 decimals are out of reach at 128 bits, so the pairs are
        evaluated at 256 bits only"""
        calls = []
        specfun = geom.competitor_energy_specfun

        def counting(k, l, prec):
            calls.append(prec)
            return specfun(k, l, prec)

        monkeypatch.setattr(geom, "competitor_energy_specfun", counting)
        rows = reports.table_rows([8], digits=40)
        assert [(r.k, r.l) for r in rows] == [(3, 3)]
        assert calls == [256]

    def test_digits_past_float_range(self):
        """330 decimals, where 10.0 ** -330 is 0.0, are pinned and round to
        the 8-decimal entries"""
        rows = reports.table_rows([8], digits=330)
        assert len(rows[0].m_8dp.partition(".")[2]) == 330
        assert reports._round_fixed(*Fraction(rows[0].lambda_plane_8dp).as_integer_ratio(), 8) == "7.29128238"
        assert reports._round_fixed(*Fraction(rows[0].m_8dp).as_integer_ratio(), 8) == "6.81857964"

    def test_certified_decimal_rejects_wide_balls(self):
        b = widen(Ball.from_int(1, 64), bf_two_power(-3))
        assert reports.certified_decimal(b, 8) is None


class TestPlot:
    def test_rows_and_positivity(self):
        rows = reports.plot_rows(range(8, 13))
        assert [(r.n, r.k, r.l) for r in rows] == [
            (8, 3, 3), (9, 3, 4), (10, 4, 4), (11, 4, 5), (12, 5, 5),
        ]
        for r in rows:
            gap = ball_from_str(r.gap, 128)
            assert gap.inf().sign > 0

    def test_refuses_low_dimension(self):
        with pytest.raises(InvalidArgument):
            reports.plot_rows([2])

    def test_gap_decreasing_on_sample(self):
        rows = reports.plot_rows(range(8, 12))
        gaps = [ball_from_str(r.gap, 128) for r in rows]
        for a, b in zip(gaps, gaps[1:]):
            assert bf_cmp(b.sup(), a.inf()) < 0


class TestExactReports:
    def test_lens_n8(self):
        rep = reports.exact_report(8, "lens")
        assert rep["paths_intersect"] is True
        assert rep["volume_over_omega"]["pi"] == "35/192"
        assert rep["volume_over_omega"]["sqrt3"] == "-279/1024"

    def test_lens_n9_rational_parts(self):
        rep = reports.exact_report(9, "lens")
        assert rep["volume_over_omega"]["pi"] == "0"
        assert rep["volume_over_omega"]["sqrt3"] == "0"
        assert rep["paths_intersect"] is True

    def test_simons_n8(self):
        rep = reports.exact_report(8, "simons")
        assert rep["numerator"]["1"] == "-699776"
        assert rep["numerator"]["sqrt2"] == "494843"
        assert rep["numerator"]["sqrt3"] == "-404096"
        assert rep["numerator"]["sqrt6"] == "285740"
        assert rep["denominator"]["1"] == "913063"
        assert rep["paths_intersect"] is True

    def test_unsupported_dimensions(self):
        with pytest.raises(InvalidArgument):
            reports.exact_report(41, "lens")
        with pytest.raises(InvalidArgument):
            reports.exact_report(10, "simons")

    def test_simons_n76_escalates_past_cancellation(self):
        """at n = 76 the 128-bit exact-path assembly cancels to a base that is
        not certainly positive; the report escalates and both paths come out
        narrow and intersecting"""
        rep = reports.exact_report(76, "simons")
        assert rep["paths_intersect"] is True
        _, rad, den = ball_str_decimals(rep["m_exact_path"])
        assert Fraction(rad, den) < Fraction(1, 10**30)

    def test_simons_n72_escalates_past_a_wide_exact_path(self):
        """at n = 72 the 128-bit exact path does not cancel but is about 0.4
        wide; the report escalates until both paths meet the default width"""
        rep = reports.exact_report(72, "simons")
        assert rep["paths_intersect"] is True
        _, rad, den = ball_str_decimals(rep["m_exact_path"])
        assert Fraction(rad, den) <= Fraction(5, 10**13)


class TestCli:
    def run_cli(self, *args, timeout=None):
        return subprocess.run(
            [sys.executable, "-m", "lenscert.cli", *args],
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    def test_certify_exit_zero(self, tmp_path):
        out = tmp_path / "c.json"
        r = self.run_cli("certify", "--n", "8..9", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert "verdict=Proven" in r.stdout
        assert json.loads(out.read_text())[0]["n"] == 8

    def test_table_command(self, tmp_path):
        out = tmp_path / "t.csv"
        r = self.run_cli("table", "--n", "8..10", "--format", "csv", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert "7.29128238" in out.read_text()

    def test_table_low_dimensions(self):
        r = self.run_cli("table", "--n", "4..7")
        assert r.returncode == 0, r.stderr
        assert [line.split(",")[:3] for line in r.stdout.splitlines()[1:]] == [
            ["4", "1", "1"], ["5", "1", "2"], ["6", "2", "2"], ["7", "2", "3"]
        ]
        r = self.run_cli("table", "--n", "2")
        assert r.returncode == 1
        assert r.stderr.startswith("error:") and "Traceback" not in r.stderr

    def test_plot_command(self):
        r = self.run_cli("plot", "--n", "8..9")
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("n,k,l,gap")

    def test_exact_command(self):
        r = self.run_cli("exact", "--n", "8", "--mode", "simons")
        assert r.returncode == 0, r.stderr
        assert "-699776" in r.stdout

    def test_exact_simons_cap(self):
        """simons mode stops above n = 200 with one `error:` line, before any
        exact or ball arithmetic"""
        for n in ("204", "4000000000"):
            r = self.run_cli("exact", "--n", n, "--mode", "simons", timeout=30)
            assert r.returncode == 1, r.stderr
            assert r.stderr.splitlines() == ["error: exact simons mode supports n <= 200"]

    def test_long_run_certifies_at_start_precision(self, capsys):
        """the lens side has no cancellation, so n = 396 needs no escalation"""
        assert cli.main(["certify", "--n", "396", "--long-run"]) == 0
        assert "n=396 verdict=Proven precision=128" in capsys.readouterr().out

    def test_desk_cap(self):
        r = self.run_cli("certify", "--n", "8..500")
        assert r.returncode == 1
        assert "cap" in r.stderr

    def test_cap_checked_before_the_range_is_built(self):
        """for each range command, a range far above the cap ends in one
        `error:` line without building its list; the child runs under a
        1 GiB address-space limit, so a list of 10**12 dimensions fails
        there, not in this process"""
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        for command in ("certify", "table", "plot"):
            r = subprocess.run(
                [sys.executable, "-m", "lenscert.cli", command, "--n", "8..%d" % 10**12],
                capture_output=True,
                text=True,
                timeout=60,
                preexec_fn=limit_memory,
            )
            assert r.returncode == 1, (command, r.stderr)
            assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1, (command, r.stderr)

    def test_error_exit(self):
        r = self.run_cli("plot", "--n", "2")
        assert r.returncode == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--n", "8..x"],
            ["certify", "--n", "9..8"],
            ["certify", "--n", "8", "--width", "0"],
            ["certify", "--n", "8", "--width", "-1"],
            ["certify", "--n", "8", "--width", "nan"],
            ["certify", "--n", "8", "--width", "inf"],
            ["certify", "--n", "8", "--prec-start", "0"],
            ["certify", "--n", "8", "--prec-start", "-64"],
            ["certify", "--n", "8", "--prec-max", "100"],
            ["certify", "--n", "8", "--prec-max", "0"],
            ["certify", "--n", "8..9", "--jobs", "0"],
            ["certify", "--n", "8..9", "--jobs", "-1"],
            ["table", "--n", "8", "--digits", "0"],
            ["table", "--n", "8", "--digits", "-1"],
            ["table", "--n", "8", "--digits", "5000"],
            ["certify", "--n", "30", "--prec-start", "16384", "--prec-max", "16384"],
            ["certify", "--n", "8", "--out", "{missing}/x.json"],
            ["table", "--n", "8", "--out", "{missing}/x.csv"],
        ],
        ids=[
            "range-not-int", "range-empty", "width-0", "width-neg", "width-nan", "width-inf",
            "prec-start-0", "prec-start-neg", "prec-max-100", "prec-max-0", "jobs-0", "jobs-neg", "digits-0", "digits-neg",
            "digits-5000", "prec-max-16384", "certify-out-missing-dir", "table-out-missing-dir",
        ],
    )
    def test_input_error_is_one_line(self, argv, tmp_path):
        """bad input ends at once with exit 1 and a single `error:` line"""
        r = self.run_cli(*(a.format(missing=tmp_path / "missing") for a in argv), timeout=10)
        assert r.returncode == 1, r.stderr
        assert r.stdout == ""
        assert r.stderr.startswith("error:") and r.stderr.count("\n") == 1, r.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--n", "8", "--prec-max", "100"],
            ["table", "--n", "8", "--digits", "0"],
            ["certify", "--n", "3..9"],
        ],
        ids=["certify-prec-max", "table-digits", "certify-low-dimension"],
    )
    def test_error_keeps_existing_out(self, argv, tmp_path):
        """a run that ends in `error:` leaves an existing --out file as it was"""
        out = tmp_path / "keep.json"
        old = b'[{"n": 8}]\n'
        out.write_bytes(old)
        r = self.run_cli(*argv, "--out", str(out), timeout=60)
        assert r.returncode == 1 and r.stderr.startswith("error:"), r.stderr
        assert out.read_bytes() == old

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--n", "3..9", "--out", "{dir}/new.json"],
            ["table", "--n", "8", "--digits", "0", "--out", "{dir}/t.json"],
            ["plot", "--n", "3", "--out", "{dir}/p.csv"],
        ],
        ids=["certify", "table", "plot"],
    )
    def test_error_leaves_no_new_out(self, argv, tmp_path):
        """a run that ends in `error:` removes the --out file it created"""
        r = self.run_cli(*(a.format(dir=tmp_path) for a in argv), timeout=60)
        assert r.returncode == 1 and r.stderr.startswith("error:"), r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_out_replaces_longer_file(self, tmp_path):
        """a successful run replaces the whole of an existing --out file"""
        out = tmp_path / "t.csv"
        out.write_text("x" * 10000)
        assert cli.main(["table", "--n", "8", "--out", str(out)]) == 0
        assert out.read_text() == "n,k,l,lambda_plane,m\n8,3,3,7.29128238,6.81857964\n"
