import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcm2pwm.audio_io import PcmStream
from pcm2pwm.chain import (BEHAVIORS, FIR_TAPS, INTERP_STAGES, QUANTIZER_BITS,
                           QuantizedStream, SampleStream, convert,
                           design_interp_kernel, generate_pwm, linearize,
                           noise_shape, s0_condition, upsample2)

import oracles


def sine_stream(freq, amp, n, rate=352800):
    t = np.arange(n) / rate
    return SampleStream(samples=amp * np.sin(2 * np.pi * freq * t),
                        sample_rate=rate)


# --- design constants -----------------------------------------------------------

def test_rate_arithmetic_exact():
    assert (INTERP_STAGES, FIR_TAPS, QUANTIZER_BITS) == (3, 63, 7)
    pwm = convert(PcmStream(np.zeros(16, dtype=np.int16), 44100))
    assert pwm.frame_bits == 2 ** QUANTIZER_BITS == 128
    assert pwm.clock_hz == 44100 * 2 ** INTERP_STAGES * pwm.frame_bits
    assert pwm.clock_hz == 45158400
    # every rate follows from the input stream
    pwm48 = convert(PcmStream(np.zeros(16, dtype=np.int16), 48000))
    assert pwm48.clock_hz == 48000 * 8 * 128


def test_behavior_names_fixed():
    assert BEHAVIORS == ("S0", "S1", "S2", "S3", "LINE", "MOLD")


# --- S0 -------------------------------------------------------------------

def test_s0_exact_scaling():
    pcm = PcmStream(np.array([0, 16384, -32768], dtype=np.int16), 44100)
    out = s0_condition(pcm)
    assert out.samples.tolist() == [0.0, 0.5, -1.0]
    assert out.sample_rate == 44100


def test_s0_empty():
    out = s0_condition(PcmStream(np.zeros(0, dtype=np.int16), 44100))
    assert len(out) == 0


def test_s0_preserves_length():
    n = 189630
    out = s0_condition(PcmStream(np.zeros(n, dtype=np.int16), 44100))
    assert len(out) == n
    assert np.all(np.abs(out.samples) <= 1.0)


# --- interpolation ----------------------------------------------------------

def test_kernel_shape():
    k = design_interp_kernel()
    assert len(k) == FIR_TAPS
    assert not k.flags.writeable
    assert np.allclose(k, k[::-1])  # linear phase
    assert k.sum() == pytest.approx(2.0, abs=1e-12)


def test_upsample2_zeros():
    out = upsample2(SampleStream(np.zeros(100), 44100),
                    design_interp_kernel(63))
    assert len(out) == 200
    assert out.sample_rate == 88200
    assert np.all(out.samples == 0.0)


def test_upsample2_dc_gain():
    out = upsample2(SampleStream(np.full(256, 0.5), 44100),
                    design_interp_kernel(63))
    steady = out.samples[100:-100]
    assert np.all(np.abs(steady - 0.5) <= 1e-3)


def test_upsample2_rejects_empty():
    with pytest.raises(ValueError):
        upsample2(SampleStream(np.zeros(0), 44100), design_interp_kernel(63))


def test_upsample2_length_law():
    for n in (1, 7, 100, 1001):
        out = upsample2(SampleStream(np.random.default_rng(n).uniform(
            -0.5, 0.5, n), 44100), design_interp_kernel(63))
        assert len(out) == 2 * n


def test_cascade_image_rejection():
    """1 kHz sine through the three stages: images above 22.05 kHz stay
    at least 60 dB under the fundamental."""
    n = 8192
    t = np.arange(n) / 44100
    stream = SampleStream(np.sin(2 * np.pi * 1000 * t) * (32767 / 32768),
                          44100)
    kernel = design_interp_kernel()
    for _ in range(3):
        stream = upsample2(stream, kernel)
    assert stream.sample_rate == 352800
    assert len(stream) == 8 * n >= 2 ** 15

    nfft = 2 ** 15
    power = oracles.power_spectrum(stream.samples[4096:], nfft=nfft)
    p_fund = oracles.tone_power(power, 352800, 1000, nfft)
    worst = oracles.peak_above(power, 352800, nfft, 22050)
    assert 10 * np.log10(worst / p_fund) <= -60.0


# --- linearization -----------------------------------------------------------

def test_linearize_constant_passthrough():
    out = linearize(SampleStream(np.full(32, 0.25), 352800))
    assert np.allclose(out.samples, 0.25, atol=1e-12)


def test_linearize_zeros():
    out = linearize(SampleStream(np.zeros(32), 352800))
    assert np.all(out.samples == 0.0)


def test_linearize_endpoints_uncorrected():
    x = np.linspace(-0.5, 0.5, 16)
    out = linearize(SampleStream(x, 352800))
    assert out.samples[0] == x[0]
    assert out.samples[-1] == x[-1]


def test_linearize_bounded():
    x = 0.99 * np.sin(2 * np.pi * 15000 * np.arange(2048) / 352800)
    out = linearize(SampleStream(x, 352800))
    assert np.all(out.samples >= -1.0)
    assert np.all(out.samples <= 1.0)


# --- noise shaping ----------------------------------------------------------

def test_noise_shape_zero_input_dithers_midscale():
    q = noise_shape(SampleStream(np.zeros(512), 352800))
    assert set(q.codes.tolist()) == {63, 64}
    assert abs(q.codes.mean() - 63.5) <= 0.5


def test_noise_shape_rails():
    up = noise_shape(SampleStream(np.ones(64), 352800))
    assert np.all(up.codes == 127)
    down = noise_shape(SampleStream(-np.ones(64), 352800))
    assert np.all(down.codes == 0)


def test_noise_shape_codes_in_range():
    x = sine_stream(1000, 0.95, 8192)
    q = noise_shape(x)
    assert q.codes.min() >= 0
    assert q.codes.max() <= 127
    assert q.bits == 7


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=100.0, max_value=10000.0))
def test_noise_shaping_law(freq):
    """Shaped in-band noise beats plain rounding for any audio-band sine."""
    n = 16384
    rate = 352800
    x = 0.5 * np.sin(2 * np.pi * freq * np.arange(n) / rate)
    shaped = noise_shape(SampleStream(x, rate))
    plain = oracles.round_half_up_quantize(x, 7)

    nfft = n
    exclude = [freq]
    p_shaped = oracles.power_spectrum(
        oracles.dequantize(shaped.codes, 7) - x, nfft)
    p_plain = oracles.power_spectrum(oracles.dequantize(plain, 7) - x, nfft)
    n_shaped = oracles.band_noise_power(p_shaped, rate, nfft, 100, 20000,
                                        exclude)
    n_plain = oracles.band_noise_power(p_plain, rate, nfft, 100, 20000,
                                       exclude)
    assert n_shaped < n_plain


# --- waveform generation ------------------------------------------------------

def test_generate_pwm_midscale():
    pwm = generate_pwm(QuantizedStream(np.array([64]), 7, 352800))
    assert pwm.bits.tolist() == [1] * 64 + [0] * 64


def test_generate_pwm_rails():
    pwm = generate_pwm(QuantizedStream(np.array([0, 127]), 7, 352800))
    assert pwm.bits[:128].tolist() == [0] * 128
    assert pwm.bits[128:].tolist() == [1] * 127 + [0]


def test_generate_pwm_clock():
    pwm = generate_pwm(QuantizedStream(np.array([1, 2, 3]), 7, 352800))
    assert pwm.clock_hz == 45158400
    assert pwm.frame_bits == 128


def test_generate_pwm_rejects_out_of_range():
    with pytest.raises(ValueError):
        generate_pwm(QuantizedStream(np.array([128]), 7, 352800))


@pytest.mark.parametrize("bits", [1, 2])
def test_generate_pwm_rejects_frames_under_a_byte(bits):
    with pytest.raises(ValueError, match="whole bytes"):
        generate_pwm(QuantizedStream(np.array([1]), bits, 352800))


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 8).flatmap(lambda bits: st.tuples(
    st.just(bits), st.lists(st.integers(0, 2 ** bits - 1), max_size=300))))
@example((QUANTIZER_BITS, list(range(2 ** QUANTIZER_BITS))))
def test_generate_pwm_packed_equals_unpacked(bits_codes):
    bits, codes = bits_codes
    pwm = generate_pwm(QuantizedStream(np.array(codes, dtype=np.int64), bits,
                                       352800))
    expected = oracles.leading_edge_bits(codes, bits)
    assert len(pwm) == len(expected) == 2 ** bits * len(codes)
    assert np.array_equal(pwm.payload, np.packbits(expected, bitorder="little"))


# --- full chain ---------------------------------------------------------------

def test_convert_zero_input_duty():
    pcm = PcmStream(np.zeros(1000, dtype=np.int16), 44100)
    pwm = convert(pcm)
    assert pwm.frame_count == 8000
    duty = pwm.bits.astype(np.float64).mean()
    assert abs(duty - 0.5) <= 1.0 / 128


def test_convert_length_law():
    for n in (16, 250, 2000):
        pcm = PcmStream(np.zeros(n, dtype=np.int16), 44100)
        assert convert(pcm).frame_count == 8 * n


def test_convert_deterministic():
    rng = np.random.default_rng(7)
    pcm = PcmStream(rng.integers(-2000, 2000, 500).astype(np.int16), 44100)
    a = convert(pcm)
    b = convert(pcm)
    assert a == b


@settings(max_examples=10, deadline=None)
@given(st.floats(min_value=-0.9, max_value=0.9))
def test_dc_duty_law(level):
    pcm = PcmStream(np.full(512, round(level * 32767), dtype=np.int16), 44100)
    pwm = convert(pcm)
    # drop the interpolator rise (about 450 frames at the output rate)
    duty = pwm.bits[pwm.frame_bits * 1024:].astype(np.float64).mean()
    expect = (level * 32767 / 32768 + 1.0) / 2.0
    assert abs(duty - expect) <= 1.0 / 128
