"""Acceptance suite: one test per release criterion, tolerances pinned.

Each criterion prints its own PASS/FAIL line (run with -s to see them on
success).  The signal-quality battery runs on a 4.3 s test signal and its
cumulative runtime, including the shared conversions, must stay within
60 seconds.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from pcm2pwm import audio_io, chain, cli, dse, profiler, verification

import oracles
from conftest import sine_int16

DATA = resources.files("pcm2pwm").joinpath("data")
RATE = 44100

# cumulative wall time of the quality battery (criterion 5), fixtures included
_quality_seconds = {}


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


@contextmanager
def _quality_clock(key):
    start = time.perf_counter()
    yield
    _quality_seconds[key] = time.perf_counter() - start


# --- shared 4.3 s artifacts ---------------------------------------------------

@pytest.fixture(scope="module")
def tone_run_minus6():
    """convert + demodulate of the 4.3 s, 1 kHz, -6 dBFS sine."""
    with _quality_clock("convert_minus6"):
        pcm = audio_io.PcmStream(sine_int16(1000, 0.5, 4.3), RATE)
        pwm = chain.convert(pcm)
        audio = verification.demodulate(pwm)
    return pcm, pwm, audio


def _convert_without_line(pcm):
    """The chain with LINE bypassed, built from the public stage functions."""
    x = chain.s0_condition(pcm.samples)
    for i in range(chain.INTERP_STAGES):
        x = chain.upsample2(x, behavior=f"S{i + 1}")
    return chain.generate_pwm(chain.noise_shape(x), 8 * pcm.sample_rate)


@pytest.fixture(scope="module")
def tone_runs_full_amp():
    """Linearized and bypass runs of the 4.3 s, 1 kHz, 0.9 amplitude sine."""
    with _quality_clock("convert_amp09"):
        pcm = audio_io.PcmStream(sine_int16(1000, 0.9, 4.3), RATE)
        lin = verification.demodulate(chain.convert(pcm))
        byp = verification.demodulate(_convert_without_line(pcm))
    return pcm, lin, byp


# --- criterion 1: per-element time estimates -----------------------------------

def test_criterion_1_element_estimates():
    with criterion(1, "per-element time estimates and goal marks"):
        start = time.perf_counter()
        pes = {pe.name: pe for pe in
               profiler.load_pe_library(str(DATA / "pe_library.ini"))}
        expected = {"DSP": (272_935_511, 4.55, False),
                    "uP": (935_152_757, 1.04, True),
                    "uC": (935_152_757, 116.89, False),
                    "HW": (250_224_089, 2.50, True)}
        for name, (count, seconds, passes) in expected.items():
            t = profiler.exec_time(count, pes[name])
            assert abs(float(t) - seconds) <= 0.01, (name, float(t))
            assert profiler.meets_realtime(t, Fraction(43, 10)) is passes
        assert time.perf_counter() - start < 1.0


# --- criterion 2: partition grid ------------------------------------------------

def test_criterion_2_partition_grid():
    with criterion(2, "partition grid times and costs"):
        start = time.perf_counter()
        scenario = dse.load_scenario(str(DATA / "baseline.scenario"))
        expected = [
            ({"S3"}, 2902.5, 988.1, 3890.6, 19.65),
            ({"S1", "S2", "S3"}, 1760.2, 1673.4, 3433.6, 38.55),
            ({"LINE", "MOLD"}, 2794.1, 826.5, 3620.6, 14.20),
            ({"MOLD"}, 2982.0, 749.1, 3731.0, 10.60),
        ]
        for hw_set, t_dsp, t_hw, t_total, cost in expected:
            o = dse.evaluate(hw_set, scenario.estimates, scenario.cost_model)
            assert abs(o.t_dsp_us - round(t_dsp * 1000)) <= 300, o
            assert abs(o.t_hw_us - round(t_hw * 1000)) <= 300, o
            assert abs(o.t_total_us - round(t_total * 1000)) <= 300, o
            assert abs(o.cost_cents - round(cost * 100)) <= 1, o
        assert time.perf_counter() - start < 1.0


# --- criterion 3: selection -----------------------------------------------------

def test_criterion_3_selection_and_tradeoff(capsys):
    with criterion(3, "exhaustive selection and trade-off"):
        scenario = dse.load_scenario(str(DATA / "baseline.scenario"))
        cm = scenario.cost_model
        options = dse.enumerate_partitions(scenario.estimates, cm)
        assert len(options) == 64
        best = dse.select(options, cm)
        assert best.hw_set == frozenset({"MOLD"})
        assert best.cost_cents == 1060

        assert cli.main(["explore"]) == 0
        assert ("trade-off: LINE,MOLD beats MOLD by 3.06% in time but costs "
                "25.35% more") in capsys.readouterr().out.splitlines()


# --- criterion 4: rate arithmetic ------------------------------------------------

def test_criterion_4_rate_arithmetic(tmp_path, capsys):
    with criterion(4, "achieved and avoided clock rates"):
        code = cli.main(["convert", "--input", "sine:1000:-6:0.01",
                         "--output", str(tmp_path / "x.pwm")])
        out = capsys.readouterr().out
        assert code == 0
        assert "pwm clock: 45158400 Hz" in out
        assert "naive clock: 2890137600 Hz" in out


# --- criterion 5: signal-quality battery -----------------------------------------

def test_criterion_5a_dc_duty_law():
    with criterion(5, "a: code-to-level law over all 128 codes"):
        with _quality_clock("dc_duty"):
            lsb = 2.0 / 127
            for code in range(128):
                pwm = chain.generate_pwm(np.full(2048, code), 352800)
                out = verification.demodulate(pwm)
                level = out[64:-64].mean()
                assert abs(level - (2 * code / 127 - 1)) <= lsb, code


def test_criterion_5b_image_rejection():
    with criterion(5, "b: interpolation image rejection >= 60 dB"):
        with _quality_clock("images"):
            pcm = audio_io.PcmStream(sine_int16(1000, 32767 / 32768, 4.3),
                                     RATE)
            x = chain.s0_condition(pcm.samples)
            for _ in range(3):
                x = chain.upsample2(x)
            nfft = 2 ** 17
            assert len(x) >= 2 ** 15
            power = oracles.power_spectrum(x[8192:], nfft)
            p_fund = oracles.tone_power(power, 352800, 1000, nfft)
            worst = oracles.peak_above(power, 352800, nfft, 22050)
            rejection_db = 10 * np.log10(p_fund / worst)
            assert rejection_db >= 60.0, rejection_db


def test_criterion_5c_noise_shaping_gain():
    with criterion(5, "c: shaped noise >= 20 dB below plain rounding"):
        with _quality_clock("shaping"):
            rate = 352800
            n = int(4.3 * rate)
            x = 0.5 * np.sin(2 * np.pi * 1000 * np.arange(n) / rate)
            shaped = chain.noise_shape(x)
            plain = oracles.round_half_up_quantize(x, 7)
            nfft = 2 ** 18
            err_shaped = oracles.dequantize(shaped, 7) - x
            err_plain = oracles.dequantize(plain, 7) - x
            n_shaped = oracles.band_noise_power(
                oracles.power_spectrum(err_shaped[4096:], nfft), rate, nfft,
                0, 20000, exclude_freqs=[1000])
            n_plain = oracles.band_noise_power(
                oracles.power_spectrum(err_plain[4096:], nfft), rate, nfft,
                0, 20000, exclude_freqs=[1000])
            gain_db = 10 * np.log10(n_plain / n_shaped)
            assert gain_db >= 20.0, gain_db


def test_criterion_5d_roundtrip_snr(tone_run_minus6):
    with criterion(5, "d: end-to-end roundtrip SNR >= 60 dB"):
        with _quality_clock("snr"):
            pcm, _, audio = tone_run_minus6
            report = verification.measure(chain.s0_condition(pcm.samples),
                                          audio, RATE)
            assert report.snr_db >= 60.0, report.snr_db
            # independent check: residual against a least-squares sine fit
            oracle_snr = oracles.sine_fit_snr_db(
                audio[8192:-8192], RATE, 1000.0)
            assert oracle_snr >= 60.0, oracle_snr


def test_criterion_5e_linearization_reduces_thd(tone_runs_full_amp):
    with criterion(5, "e: linearized THD strictly better than bypass"):
        with _quality_clock("thd"):
            _, lin, byp = tone_runs_full_amp
            thd_lin = oracles.thd_db(lin[8192:], RATE, 1000.0,
                                     nfft=2 ** 17)
            thd_byp = oracles.thd_db(byp[8192:], RATE, 1000.0,
                                     nfft=2 ** 17)
            assert thd_lin < thd_byp, (thd_lin, thd_byp)


def test_criterion_5_total_runtime():
    with criterion(5, "quality battery within 60 s"):
        total = sum(_quality_seconds.values())
        assert set(_quality_seconds) >= {"convert_minus6", "convert_amp09",
                                         "dc_duty", "images", "shaping",
                                         "snr", "thd"}
        assert total <= 60.0, _quality_seconds


# --- criterion 6: format round trips ----------------------------------------------

def test_criterion_6_format_roundtrips(tmp_path):
    with criterion(6, "WAV and PWM1 container round trips"):
        from conftest import write_wav
        rng = np.random.default_rng(123)
        samples = rng.integers(-32768, 32768, 10000).astype(np.int16)
        pcm = audio_io.read_wav(write_wav(tmp_path / "r.wav", samples))
        assert np.array_equal(pcm.samples, samples)

        for i in range(100):
            frame_bits = 2 ** int(rng.integers(1, 9))
            n_frames = int(rng.integers(0, 40))
            bits = rng.integers(0, 2, frame_bits * n_frames).astype(np.uint8)
            stream = audio_io.PwmBitstream.from_bits(
                bits=bits, clock_hz=frame_bits * 352800,
                frame_bits=frame_bits)
            path = tmp_path / f"s{i}.pwm"
            audio_io.write_pwm(stream, path)
            assert audio_io.read_pwm(path) == stream


# --- criterion 7: profiler laws ---------------------------------------------------

def test_criterion_7_profiler_laws():
    with criterion(7, "cycle linearity and stage ordering"):
        rng = np.random.default_rng(7)
        pe = profiler.ProcessingElement(
            name="GP", category="Microproc.", cost_usd=1.0,
            freq_mhz=Fraction(100),
            weights={"add": 1, "mul": 2, "mac": 3, "cmp": 1, "mem": 2})
        for _ in range(25):
            a, b = ({behavior: {kind: int(rng.integers(0, 10 ** 9))
                                for kind in profiler.OP_KINDS}
                     for behavior in chain.BEHAVIORS} for _ in range(2))
            combined = {behavior: {kind: a[behavior][kind] + b[behavior][kind]
                                   for kind in profiler.OP_KINDS}
                        for behavior in chain.BEHAVIORS}
            split_total = (sum(profiler.cycles(a, pe).values())
                           + sum(profiler.cycles(b, pe).values()))
            assert sum(profiler.cycles(combined, pe).values()) == split_total

        pcm = audio_io.PcmStream(sine_int16(1000, 0.5, 0.2), RATE)
        totals = {behavior: sum(kinds.values())
                  for behavior, kinds in profiler.op_counts(len(pcm)).items()}
        assert totals["S3"] > totals["S2"] > totals["S1"] > 0
