from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcm2pwm import verification
from pcm2pwm.audio_io import PcmStream
from pcm2pwm.chain import QuantizedStream, SampleStream, convert, \
    generate_pwm, noise_shape
from pcm2pwm.verification import (SNR_CAP_DB, LengthMismatch, MalformedStream,
                                  demodulate, measure)

import oracles
from conftest import sine_int16

RATE = 44100
CHAIN_RATE = 352800


def constant_code_pwm(code, frames=4096):
    q = QuantizedStream(np.full(frames, code), 7, CHAIN_RATE)
    return generate_pwm(q)


def settled(samples):
    n = len(samples)
    return samples[n // 4: -n // 4]


def sine(freq, amp, n, rate=RATE):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / rate)


# --- demodulation ----------------------------------------------------------

def test_demodulate_midscale():
    out = demodulate(constant_code_pwm(64), RATE)
    assert out.sample_rate == RATE
    assert np.all(np.abs(settled(out.samples)) <= 1e-2)


def test_demodulate_all_ones():
    bits = np.ones(128 * 2048, dtype=np.uint8)
    from pcm2pwm.audio_io import PwmBitstream
    pwm = PwmBitstream.from_bits(bits, clock_hz=45158400, frame_bits=128)
    out = demodulate(pwm, RATE)
    assert np.all(settled(out.samples) >= 0.99)


def test_demodulate_length():
    out = demodulate(constant_code_pwm(64, frames=8000), RATE)
    assert len(out) == 8000 // 8  # one output sample per 1024 bits


def test_demodulate_constant_code_dc_sample():
    """Spot-check the code-to-level law on a few codes (full sweep lives in
    the acceptance suite)."""
    lsb = 2.0 / 127
    for code in (0, 17, 64, 113, 127):
        out = demodulate(constant_code_pwm(code), RATE)
        level = settled(out.samples).mean()
        assert abs(level - (2 * code / 127 - 1)) <= lsb


def test_demodulate_rejects_bad_ratio():
    pwm = constant_code_pwm(64)
    with pytest.raises(MalformedStream):
        demodulate(pwm, 48000)


def test_demodulate_identity_ratio():
    from pcm2pwm.audio_io import PwmBitstream
    pwm = PwmBitstream.from_bits(np.array([1, 0, 1, 1], dtype=np.uint8),
                                 clock_hz=4, frame_bits=2)
    out = demodulate(pwm, 4)
    assert out.samples.tolist() == [1.0, -1.0, 1.0, 1.0]


# --- edge-domain first stage --------------------------------------------------

bitstreams = st.one_of(
    st.lists(st.integers(0, 1), max_size=600),
    st.integers(0, 600).map(lambda n: [0] * n),
    st.integers(0, 600).map(lambda n: [1] * n),
)


@settings(max_examples=200, deadline=None)
@given(bits=bitstreams, m=st.integers(1, 16), extra_half=st.integers(0, 40),
       taps_seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 9))
@example(bits=[1], m=1, extra_half=0, taps_seed=0, block=1)
@example(bits=[0], m=1, extra_half=3, taps_seed=1, block=4)
@example(bits=[1, 0, 1, 1, 0, 0, 1], m=3, extra_half=0, taps_seed=2, block=1)
@example(bits=[1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1], m=2, extra_half=1, taps_seed=3,
         block=3)
def test_edge_decimate_matches_direct_form(bits, m, extra_half, taps_seed,
                                           block):
    taps = 2 * (m - 1 + extra_half) + 1  # odd, at least 2 m - 1
    h = np.random.default_rng(taps_seed).standard_normal(taps)
    b = np.array(bits, dtype=np.uint8)
    payload = np.packbits(b, bitorder="little")
    # small blocks put block edges, and window starts, inside bytes
    with mock.patch.object(verification, "_EDGE_BLOCK", block):
        y = verification._edge_decimate(payload, len(b), h, m)
    expected = oracles.decimate_direct(2.0 * b - 1.0, h, m)
    assert y.shape == expected.shape
    np.testing.assert_allclose(y, expected, rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def stage1_minus6():
    """The 4.3 s, 1 kHz, -6 dBFS clip and the first stage's filter."""
    pwm = convert(PcmStream(sine_int16(1000, 0.5, 4.3), RATE))
    h = verification._stage_filter(pwm.clock_hz, pwm.clock_hz // 128, RATE)
    return pwm, h


def test_edge_decimate_matches_polyphase_on_clip(stage1_minus6):
    pwm, h = stage1_minus6
    y = verification._edge_decimate(pwm.payload, len(pwm), h, 128)
    # +-1 in int8 keeps the unpacked copy at 1 byte/bit
    signs = np.unpackbits(pwm.payload, count=len(pwm),
                          bitorder="little").view(np.int8)
    signs *= 2
    signs -= 1
    reference = verification._polyphase_decimate(signs, h, 128)
    del signs
    # _polyphase_decimate counts its first inputs as zero; compare after them
    start = -(-len(h) // 128) + 1
    np.testing.assert_allclose(y[start:], reference[start:], rtol=0, atol=1e-9)


def test_edge_decimate_matches_direct_form_on_clip_prefix(stage1_minus6):
    pwm, h = stage1_minus6
    payload = pwm.payload[:2 ** 14]  # the first 2^17 bits
    prefix = np.unpackbits(payload, bitorder="little")
    np.testing.assert_allclose(
        verification._edge_decimate(payload, 2 ** 17, h, 128),
        oracles.decimate_direct(2.0 * prefix - 1.0, h, 128), rtol=0, atol=1e-9)


# --- measurement ------------------------------------------------------------

def test_measure_identical_hits_cap():
    x = SampleStream(sine(1000, 0.5, 65536), RATE)
    report = measure(x, x)
    assert report.snr_db == SNR_CAP_DB
    assert report.fundamental_hz == pytest.approx(1000.0, abs=1.0)


def test_measure_white_noise_floor():
    rng = np.random.default_rng(42)
    ref = sine(1000, 0.5, 65536)
    noise = rng.standard_normal(len(ref))
    noise *= np.sqrt((ref ** 2).mean() / (noise ** 2).mean()) * 10 ** (-40 / 20)
    report = measure(SampleStream(ref, RATE), SampleStream(ref + noise, RATE))
    assert report.snr_db == pytest.approx(40.0, abs=0.5)


def test_measure_rate_mismatch():
    x = SampleStream(sine(1000, 0.5, 4096), RATE)
    y = SampleStream(sine(1000, 0.5, 4096), 48000)
    with pytest.raises(LengthMismatch):
        measure(x, y)


def test_measure_too_short():
    x = SampleStream(np.zeros(16), RATE)
    with pytest.raises(LengthMismatch):
        measure(x, x)


def test_measure_silence_reference_caps():
    x = SampleStream(np.zeros(65536), RATE)
    y = SampleStream(sine(1000, 0.01, 65536), RATE)
    report = measure(x, y)
    assert report.snr_db == SNR_CAP_DB


def test_measure_fractional_delay_alignment():
    n = 65536
    t = np.arange(n)
    ref = 0.5 * np.sin(2 * np.pi * 1000 * t / RATE)
    test = 0.5 * np.sin(2 * np.pi * 1000 * (t - 27.125) / RATE)
    report = measure(SampleStream(ref, RATE), SampleStream(test, RATE))
    assert report.snr_db > 70.0


def test_measure_gain_invariance():
    ref = sine(1000, 0.5, 65536)
    report = measure(SampleStream(ref, RATE), SampleStream(0.25 * ref, RATE))
    assert report.snr_db == SNR_CAP_DB


def test_measure_detects_harmonics():
    fund = sine(1000, 0.5, 65536)
    test = fund + 0.005 * sine(3000, 1.0, 65536)
    report = measure(SampleStream(fund, RATE), SampleStream(test, RATE))
    # third harmonic at -40 dB relative to the fundamental
    assert report.thd_db == pytest.approx(-40.0, abs=0.8)


def test_shaped_noise_beats_plain_rounding_via_measure():
    x = sine(1000, 0.5, 32768, rate=CHAIN_RATE)
    ref = SampleStream(x, CHAIN_RATE)
    shaped = noise_shape(ref)
    shaped_stream = SampleStream(oracles.dequantize(shaped.codes, 7),
                                 CHAIN_RATE)
    plain_stream = SampleStream(
        oracles.dequantize(oracles.round_half_up_quantize(x, 7), 7),
        CHAIN_RATE)
    r_shaped = measure(ref, shaped_stream)
    r_plain = measure(ref, plain_stream)
    assert r_shaped.inband_noise_power < r_plain.inband_noise_power


def test_report_serialization():
    x = SampleStream(sine(1000, 0.5, 65536), RATE)
    report = measure(x, x)
    text = report.text()
    assert "snr" in text and "fundamental" in text
    lines = report.csv().splitlines()
    assert lines[0] == "fundamental_hz,snr_db,thd_db,inband_noise_power"
    assert len(lines) == 2
