from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcm2pwm import verification
from pcm2pwm.audio_io import PcmStream, PwmBitstream
from pcm2pwm.chain import convert, convert_stream, generate_pwm, noise_shape
from pcm2pwm.verification import (SNR_CAP_DB, LengthMismatch, MalformedStream,
                                  demodulate, demodulate_stream, measure)

import oracles
from conftest import sine_int16

RATE = 44100
CHAIN_RATE = 352800


def constant_code_pwm(code, frames=4096):
    return generate_pwm(np.full(frames, code), CHAIN_RATE)


def collect(blocks):
    return np.concatenate([np.zeros(0), *blocks])


def settled(samples):
    n = len(samples)
    return samples[n // 4: -n // 4]


def sine(freq, amp, n, rate=RATE):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / rate)


# --- demodulation ----------------------------------------------------------

def test_demodulate_midscale():
    out = demodulate(constant_code_pwm(64), RATE)
    assert out.dtype == np.float64
    assert np.all(np.abs(settled(out)) <= 1e-2)


def test_demodulate_all_ones():
    bits = np.ones(128 * 2048, dtype=np.uint8)
    pwm = PwmBitstream.from_bits(bits, clock_hz=45158400, frame_bits=128)
    out = demodulate(pwm, RATE)
    assert np.all(settled(out) >= 0.99)


def test_demodulate_length():
    out = demodulate(constant_code_pwm(64, frames=8000), RATE)
    assert len(out) == 8000 // 8  # one output sample per 1024 bits


def test_demodulate_constant_code_dc_sample():
    """Spot-check the code-to-level law on a few codes (full sweep lives in
    the acceptance suite)."""
    lsb = 2.0 / 127
    for code in (0, 17, 64, 113, 127):
        out = demodulate(constant_code_pwm(code), RATE)
        level = settled(out).mean()
        assert abs(level - (2 * code / 127 - 1)) <= lsb


def test_demodulate_rejects_bad_ratio():
    pwm = constant_code_pwm(64)
    with pytest.raises(MalformedStream):
        demodulate(pwm, 48000)


def test_demodulate_identity_ratio():
    pwm = PwmBitstream.from_bits(np.array([1, 0, 1, 1], dtype=np.uint8),
                                 clock_hz=4, frame_bits=2)
    out = demodulate(pwm, 4)
    assert out.tolist() == [1.0, -1.0, 1.0, 1.0]


# --- edge-domain first stage --------------------------------------------------

bitstreams = st.one_of(
    st.lists(st.integers(0, 1), max_size=600),
    st.integers(0, 600).map(lambda n: [0] * n),
    st.integers(0, 600).map(lambda n: [1] * n),
)


@settings(max_examples=200, deadline=None)
@given(bits=bitstreams, m=st.integers(1, 16), extra_half=st.integers(0, 40),
       taps_seed=st.integers(0, 2 ** 32 - 1), block=st.integers(1, 9),
       cut=st.integers(1, 80))
@example(bits=[1], m=1, extra_half=0, taps_seed=0, block=1, cut=1)
@example(bits=[0], m=1, extra_half=3, taps_seed=1, block=4, cut=1)
@example(bits=[1, 0, 1, 1, 0, 0, 1], m=3, extra_half=0, taps_seed=2, block=1,
         cut=1)
@example(bits=[1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1], m=2, extra_half=1, taps_seed=3,
         block=3, cut=1)
def test_edge_decimate_matches_direct_form(bits, m, extra_half, taps_seed,
                                           block, cut):
    taps = 2 * (m - 1 + extra_half) + 1  # odd, at least 2 m - 1
    h = np.random.default_rng(taps_seed).standard_normal(taps)
    b = np.array(bits, dtype=np.uint8)
    payload = np.packbits(b, bitorder="little")
    # small blocks put block edges, and window starts, inside bytes; the
    # payload arrives `cut` bytes at a time
    pieces = [payload[i:i + cut] for i in range(0, len(payload), cut)]
    with mock.patch.object(verification, "_EDGE_BLOCK", block):
        y = collect(verification._edge_decimate(pieces, len(b), h, m))
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
    y = collect(verification._edge_decimate([pwm.payload], len(pwm), h, 128))
    # +-1 in int8 keeps the unpacked copy at 1 byte/bit
    signs = np.unpackbits(pwm.payload, count=len(pwm),
                          bitorder="little").view(np.int8)
    signs *= 2
    signs -= 1
    reference = collect(verification._polyphase_decimate([signs], len(signs),
                                                         h, 128))
    del signs
    # _polyphase_decimate counts its first inputs as zero; compare after them
    start = -(-len(h) // 128) + 1
    np.testing.assert_allclose(y[start:], reference[start:], rtol=0, atol=1e-9)


def test_edge_decimate_matches_direct_form_on_clip_prefix(stage1_minus6):
    pwm, h = stage1_minus6
    payload = pwm.payload[:2 ** 14]  # the first 2^17 bits
    prefix = np.unpackbits(payload, bitorder="little")
    np.testing.assert_allclose(
        collect(verification._edge_decimate([payload], 2 ** 17, h, 128)),
        oracles.decimate_direct(2.0 * prefix - 1.0, h, 128), rtol=0, atol=1e-9)


# --- streaming ---------------------------------------------------------------

def pwm_bits(n_bits, seed, dense):
    """Random bits (dense), or leading-edge 128-bit frames of random codes:
    at most two transitions a frame, as the chain makes them."""
    rng = np.random.default_rng(seed)
    if dense:
        return rng.integers(0, 2, n_bits, dtype=np.uint8)
    codes = rng.integers(0, 129, n_bits // 128 + 1)
    i = np.arange(n_bits)
    return (i % 128 < codes[i // 128]).astype(np.uint8)


# 1024, the chain's ratio, and 16 decimate in two stages; 12 is no multiple
# of 8 and takes one; 1 only maps bits onto +-1
@settings(max_examples=80, deadline=None)
@given(ratio=st.sampled_from([1024, 16, 12, 1]),
       n_bits=st.integers(0, 1 << 21), seed=st.integers(0, 2 ** 32 - 1),
       dense=st.booleans(), step=st.integers(1, 1 << 18),
       cuts=st.lists(st.integers(0, 1 << 18), max_size=8))
# shorter than the stage-2 branch filter, and than one _EDGE_BLOCK, both
# a byte at a time
@example(ratio=1024, n_bits=100_000, seed=0, dense=False, step=1, cuts=[])
@example(ratio=1024, n_bits=400_003, seed=1, dense=False, step=1, cuts=[])
@example(ratio=1024, n_bits=1 << 21, seed=2, dense=False, step=1 << 18,
         cuts=[5, 9000, 65536])
@example(ratio=16, n_bits=80, seed=3, dense=True, step=1, cuts=[])
@example(ratio=12, n_bits=0, seed=4, dense=True, step=1, cuts=[0])
@example(ratio=1, n_bits=208, seed=5, dense=True, step=1, cuts=[])
def test_demodulate_stream_any_cut_matches_one_shot(ratio, n_bits, seed, dense,
                                                    step, cuts):
    """Any cut of the payload, from one byte to all of it and off frame
    boundaries, gives demodulate's samples bit for bit."""
    if ratio != 1024:
        n_bits //= 16  # enough for several _EDGE_BLOCKs at these ratios
    pwm = PwmBitstream.from_bits(pwm_bits(n_bits, seed, dense),
                                 clock_hz=ratio * RATE, frame_bits=1)
    payload = pwm.payload
    step = max(step, len(payload) >> 14)  # at most 2^14 even pieces
    edges = sorted({c % (len(payload) + 1) for c in cuts}
                   | set(range(0, len(payload), step)))
    pieces = np.split(payload, edges)
    streamed = collect(demodulate_stream(pieces, n_bits=n_bits,
                                         clock_hz=pwm.clock_hz,
                                         target_rate=RATE))
    one_shot = demodulate(pwm, RATE)
    assert len(one_shot) == n_bits // ratio
    assert streamed.tobytes() == one_shot.tobytes()


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 6000), step=st.integers(1, 6000),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=3000, step=3000, seed=0)
def test_demodulate_stream_fed_by_convert_stream(n, step, seed):
    samples = np.random.default_rng(seed).integers(
        -16384, 16384, n).astype(np.int16)
    blocks = convert_stream((samples[i:i + step] for i in range(0, n, step)),
                            RATE)
    streamed = collect(demodulate_stream(blocks, n_bits=n * 1024,
                                         clock_hz=1024 * RATE,
                                         target_rate=RATE))
    one_shot = demodulate(convert(PcmStream(samples, RATE)), RATE)
    assert streamed.tobytes() == one_shot.tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 3000), m=st.integers(1, 8),
       extra_half=st.integers(0, 70), seed=st.integers(0, 2 ** 32 - 1),
       cuts=st.lists(st.integers(0, 3000), max_size=12))
@example(n=2000, m=8, extra_half=466, seed=0, cuts=[1, 2, 3, 500, 1000])
@example(n=2000, m=8, extra_half=60, seed=0, cuts=[1999])  # last block: 1
def test_polyphase_decimate_any_cut_matches_one_block(n, m, extra_half, seed,
                                                      cuts):
    """Stage 2 over any cut, down to single samples and to blocks that
    leave a branch shorter than its filter, sums every output as one
    block does."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(2 * (m - 1 + extra_half) + 1)
    x = rng.standard_normal(n)
    pieces = np.split(x, sorted(c % (n + 1) for c in cuts))
    streamed = collect(verification._polyphase_decimate(pieces, n, h, m))
    one_block = collect(verification._polyphase_decimate([x], n, h, m))
    assert streamed.tobytes() == one_block.tobytes()


@pytest.mark.parametrize("size", [127, 129])
def test_demodulate_stream_rejects_wrong_payload_size(size):
    """1024 bits need 128 bytes; a stream that ends early or runs on is
    malformed, not silently short or long."""
    with pytest.raises(MalformedStream, match="1024 bits need 128 payload"):
        collect(demodulate_stream([np.zeros(size, dtype=np.uint8)],
                                  n_bits=1024, clock_hz=1024 * RATE,
                                  target_rate=RATE))


# --- measurement ------------------------------------------------------------

def test_measure_identical_hits_cap():
    x = sine(1000, 0.5, 65536)
    report = measure(x, x, RATE)
    assert report.snr_db == SNR_CAP_DB
    assert report.fundamental_hz == pytest.approx(1000.0, abs=1.0)


def test_measure_white_noise_floor():
    rng = np.random.default_rng(42)
    ref = sine(1000, 0.5, 65536)
    noise = rng.standard_normal(len(ref))
    noise *= np.sqrt((ref ** 2).mean() / (noise ** 2).mean()) * 10 ** (-40 / 20)
    report = measure(ref, ref + noise, RATE)
    assert report.snr_db == pytest.approx(40.0, abs=0.5)


def test_measure_too_short():
    x = np.zeros(16)
    with pytest.raises(LengthMismatch):
        measure(x, x, RATE)


def test_measure_silence_reference_caps():
    report = measure(np.zeros(65536), sine(1000, 0.01, 65536), RATE)
    assert report.snr_db == SNR_CAP_DB


def test_measure_fractional_delay_alignment():
    n = 65536
    t = np.arange(n)
    ref = 0.5 * np.sin(2 * np.pi * 1000 * t / RATE)
    test = 0.5 * np.sin(2 * np.pi * 1000 * (t - 27.125) / RATE)
    report = measure(ref, test, RATE)
    assert report.snr_db > 70.0


def test_measure_gain_invariance():
    ref = sine(1000, 0.5, 65536)
    report = measure(ref, 0.25 * ref, RATE)
    assert report.snr_db == SNR_CAP_DB


def test_measure_detects_harmonics():
    fund = sine(1000, 0.5, 65536)
    test = fund + 0.005 * sine(3000, 1.0, 65536)
    report = measure(fund, test, RATE)
    # third harmonic at -40 dB relative to the fundamental
    assert report.thd_db == pytest.approx(-40.0, abs=0.8)


def test_shaped_noise_beats_plain_rounding_via_measure():
    x = sine(1000, 0.5, 32768, rate=CHAIN_RATE)
    shaped = oracles.dequantize(noise_shape(x), 7)
    plain = oracles.dequantize(oracles.round_half_up_quantize(x, 7), 7)
    r_shaped = measure(x, shaped, CHAIN_RATE)
    r_plain = measure(x, plain, CHAIN_RATE)
    assert r_shaped.inband_noise_power < r_plain.inband_noise_power


def test_report_serialization():
    x = sine(1000, 0.5, 65536)
    report = measure(x, x, RATE)
    text = report.text()
    assert "snr" in text and "fundamental" in text
    lines = report.csv().splitlines()
    assert lines[0] == "fundamental_hz,snr_db,thd_db,inband_noise_power"
    assert len(lines) == 2
