import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcm2pwm import audio_io
from pcm2pwm.audio_io import (PWM_MAX_BITS, PWM_MAX_CLOCK_HZ, ClockTooHigh,
                              IoFailure, MalformedHeader, PcmStream,
                              PwmBitstream, StreamTooLong, UnsupportedFormat,
                              WavReader, read_pwm, read_wav, write_pwm,
                              write_pwm_blocks)

from conftest import write_wav


def test_read_minimal_wav(wav_file):
    path = wav_file(np.zeros(4, dtype=np.int16))
    pcm = read_wav(path)
    assert len(pcm) == 4
    assert pcm.sample_rate == 44100
    assert np.array_equal(pcm.samples, np.zeros(4, dtype=np.int16))


def test_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.wav"
    good = write_wav(tmp_path / "good.wav", np.zeros(4, dtype=np.int16))
    data = bytearray(good.read_bytes())
    data[0:4] = b"RIFX"
    path.write_bytes(data)
    with pytest.raises(MalformedHeader):
        read_wav(path)


def test_read_4_3_second_file(wav_file):
    # 4.3 s at 44100 Hz
    n = int(4.3 * 44100)
    assert n == 189630
    pcm = read_wav(wav_file(np.zeros(n, dtype=np.int16)))
    assert len(pcm) == 189630
    assert len(pcm) / pcm.sample_rate == pytest.approx(4.3)


def test_stereo_downmix_rounds_toward_zero(wav_file):
    interleaved = np.array([3, 0, -3, 0, 100, 101, -32768, -32768],
                           dtype=np.int16)
    pcm = read_wav(wav_file(interleaved, channels=2))
    assert pcm.samples.tolist() == [1, -1, 100, -32768]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda channels: st.tuples(
    st.just(channels),
    st.lists(st.lists(st.integers(-32768, 32767), min_size=channels,
                      max_size=channels), max_size=64))))
def test_downmix_is_truncated_mean(channels_frames):
    import tempfile
    channels, frames = channels_frames
    interleaved = np.array([v for f in frames for v in f], dtype=np.int16)
    with tempfile.TemporaryDirectory() as d:
        pcm = read_wav(write_wav(f"{d}/x.wav", interleaved, channels=channels))
    assert pcm.samples.dtype == np.int16
    assert pcm.samples.tolist() == _truncated_means(frames, channels)


def _truncated_means(frames, channels):
    """Mean of each frame rounded toward zero, in exact integer arithmetic."""
    return [(abs(sum(f)) // channels) * (1 if sum(f) >= 0 else -1)
            for f in frames]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8).flatmap(lambda channels: st.tuples(
    st.just(channels),
    st.lists(st.lists(st.integers(-32768, 32767), min_size=channels,
                      max_size=channels), max_size=64))),
    st.integers(1, 9))
def test_downmix_per_block(channels_frames, block):
    """The incremental reader downmixes block by block, at most _WAV_BLOCK
    frames at a time, to the same truncated means."""
    import tempfile
    from unittest import mock
    channels, frames = channels_frames
    interleaved = np.array([v for f in frames for v in f], dtype=np.int16)
    with tempfile.TemporaryDirectory() as d, \
            mock.patch.object(audio_io, "_WAV_BLOCK", block):
        path = write_wav(f"{d}/x.wav", interleaved, channels=channels)
        with WavReader(path) as wav:
            assert (wav.sample_rate, wav.frame_count) == (44100, len(frames))
            blocks = list(wav.blocks())
    assert all(0 < len(b) <= block and b.dtype == np.int16 for b in blocks)
    joined = [v for b in blocks for v in b.tolist()]
    assert joined == _truncated_means(frames, channels)


def test_wav_reader_checks_structure_before_samples(tmp_path):
    """A chunk that overruns the file fails on opening, before any sample;
    a data chunk that shrinks after opening fails while reading."""
    good = write_wav(tmp_path / "good.wav", np.arange(5000, dtype=np.int16))
    data = good.read_bytes()
    (tmp_path / "cut.wav").write_bytes(data[:-2])
    with pytest.raises(MalformedHeader, match="truncated chunk"):
        WavReader(tmp_path / "cut.wav")
    with WavReader(good) as wav:
        assert wav.frame_count == 5000
        good.write_bytes(data[:-2])
        with pytest.raises(MalformedHeader, match="shrank"):
            list(wav.blocks())


def test_rejects_non_pcm_format(tmp_path):
    good = write_wav(tmp_path / "good.wav", np.zeros(4, dtype=np.int16))
    data = bytearray(good.read_bytes())
    fmt_at = data.find(b"fmt ") + 8
    struct.pack_into("<H", data, fmt_at, 3)  # IEEE float
    bad = tmp_path / "float.wav"
    bad.write_bytes(data)
    with pytest.raises(UnsupportedFormat):
        read_wav(bad)


def _write_8bit(path):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(44100)
        wf.writeframes(bytes([128] * 4))
    return path


def test_rejects_8bit(tmp_path):
    with pytest.raises(UnsupportedFormat):
        read_wav(_write_8bit(tmp_path / "8bit.wav"))


def test_truncated_chunk_rejected(tmp_path):
    good = write_wav(tmp_path / "good.wav", np.zeros(64, dtype=np.int16))
    data = good.read_bytes()
    bad = tmp_path / "trunc.wav"
    bad.write_bytes(data[:len(data) - 10])
    with pytest.raises(MalformedHeader):
        read_wav(bad)


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_wav(tmp_path / "nope.wav")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-32768, 32767), min_size=0, max_size=512),
       st.sampled_from([8000, 22050, 44100, 48000]))
def test_wav_roundtrip_identity(samples, rate):
    import tempfile
    arr = np.array(samples, dtype=np.int16)
    with tempfile.TemporaryDirectory() as d:
        path = write_wav(f"{d}/x.wav", arr, rate=rate)
        pcm = read_wav(path)
    assert pcm.sample_rate == rate
    assert np.array_equal(pcm.samples, arr)


@pytest.mark.parametrize("rate,valid", [(1, True), (0, False)])
def test_pcm_sample_rate_must_be_positive(rate, valid):
    if valid:
        assert PcmStream(np.zeros(4, np.int16), rate).sample_rate == rate
    else:
        with pytest.raises(ValueError, match="sample_rate"):
            PcmStream(np.zeros(4, np.int16), rate)


# --- PWM1 container ---------------------------------------------------------

def test_pwm_roundtrip_basic(tmp_path):
    bits = np.tile([1, 0], 64).astype(np.uint8)
    stream = PwmBitstream.from_bits(bits, clock_hz=45158400, frame_bits=128)
    path = tmp_path / "x.pwm"
    write_pwm(stream, path)
    assert path.stat().st_size == 16 + 16  # header + 128 bits packed
    back = read_pwm(path)
    assert back == stream


def test_pwm_empty_stream(tmp_path):
    stream = PwmBitstream.from_bits(np.zeros(0, dtype=np.uint8),
                                    clock_hz=45158400, frame_bits=128)
    path = tmp_path / "empty.pwm"
    write_pwm(stream, path)
    assert path.stat().st_size == 16
    back = read_pwm(path)
    assert len(back) == 0
    assert back == stream


def test_pwm_truncated_payload_rejected(tmp_path):
    path = tmp_path / "trunc.pwm"
    for frame_bits, n_bits, n_bytes in (
            (128, 256, 13),  # 256 bits declared, 100 bits (13 bytes) present
            (1, 3, 0)):  # pad bits declared, no payload byte holds them
        header = struct.pack("<4sIII", b"PWM1", 45158400, frame_bits, n_bits)
        path.write_bytes(header + bytes(n_bytes))
        with pytest.raises(MalformedHeader, match="payload bytes"):
            read_pwm(path)


def test_pwm_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.pwm"
    path.write_bytes(struct.pack("<4sIII", b"PWM0", 100, 4, 0))
    with pytest.raises(MalformedHeader):
        read_pwm(path)


def test_pwm_header_layout_bit_exact(tmp_path):
    # documented hex example: bits 11001111 at 100 Hz, frame size 4
    bits = np.array([1, 1, 0, 0, 1, 1, 1, 1], dtype=np.uint8)
    path = tmp_path / "doc.pwm"
    write_pwm(PwmBitstream.from_bits(bits, clock_hz=100, frame_bits=4), path)
    assert path.read_bytes() == bytes.fromhex(
        "50574d31" "64000000" "04000000" "08000000" "f3")


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 50), st.randoms(use_true_random=False))
def test_pwm_roundtrip_property(quant_bits, n_frames, rnd):
    import tempfile
    frame_bits = 2 ** quant_bits
    bits = np.array([rnd.randint(0, 1) for _ in range(frame_bits * n_frames)],
                    dtype=np.uint8)
    stream = PwmBitstream.from_bits(bits, clock_hz=frame_bits * 352800,
                                    frame_bits=frame_bits)
    with tempfile.TemporaryDirectory() as d:
        write_pwm(stream, f"{d}/x.pwm")
        back = read_pwm(f"{d}/x.pwm")
    assert back == stream


def test_pwm_over_u32_bits_rejected(tmp_path):
    # zero-stride payload: 2^32 bits without allocating them
    payload = np.broadcast_to(np.uint8(0), (2 ** 29,))
    stream = PwmBitstream(payload=payload, n_bits=2 ** 32, clock_hz=45158400,
                          frame_bits=128)
    assert len(stream) == PWM_MAX_BITS + 1
    path = tmp_path / "long.pwm"
    with pytest.raises(StreamTooLong):
        write_pwm(stream, path)
    assert not path.exists()


@pytest.mark.parametrize("clock_hz,fits", [(PWM_MAX_CLOCK_HZ, True),
                                           (PWM_MAX_CLOCK_HZ + 1, False)])
def test_pwm_clock_field_limit(clock_hz, fits, tmp_path):
    stream = PwmBitstream.from_bits(np.ones(8, dtype=np.uint8),
                                    clock_hz=clock_hz, frame_bits=8)
    path = tmp_path / "clock.pwm"
    if fits:
        write_pwm(stream, path)
        assert read_pwm(path) == stream
    else:
        with pytest.raises(ClockTooHigh):
            write_pwm(stream, path)
        assert not path.exists()


@pytest.mark.parametrize("frame_bits,fits", [(2 ** 32 - 1, True),
                                            (2 ** 32, False), (0, False)])
def test_pwm_frame_field_limit(frame_bits, fits, tmp_path):
    """frame_bits is a PWM1 u32 field.  An empty stream is a whole number
    of frames of any size, so the stream itself refuses what the field
    cannot hold, before write_pwm packs the header."""
    fields = dict(payload=np.zeros(0, np.uint8), n_bits=0, clock_hz=1,
                  frame_bits=frame_bits)
    if fits:
        path = tmp_path / "frame.pwm"
        write_pwm(PwmBitstream(**fields), path)
        assert read_pwm(path) == PwmBitstream(**fields)
    else:
        with pytest.raises(ValueError, match="frame_bits"):
            PwmBitstream(**fields)


def test_pwm_blocks_written_in_order(tmp_path):
    stream = PwmBitstream.from_bits(np.tile([1, 1, 0], 64), clock_hz=300,
                                    frame_bits=24)
    path = tmp_path / "blocks.pwm"
    write_pwm_blocks((stream.payload[i:i + 5] for i in range(0, 24, 5)), path,
                     n_bits=192, clock_hz=300, frame_bits=24)
    assert read_pwm(path) == stream


@pytest.mark.parametrize("n_blocks", [0, 1, 3])
def test_pwm_blocks_short_or_long_keep_old_file(n_blocks, tmp_path):
    """Blocks that do not hold the declared payload raise ValueError; the
    file that was there stays, and nothing else is left beside it."""
    path = tmp_path / "out.pwm"
    path.write_bytes(b"previous")
    with pytest.raises(ValueError, match="payload blocks hold"):
        write_pwm_blocks([np.zeros(16, np.uint8)] * n_blocks, path,
                         n_bits=256, clock_hz=100, frame_bits=128)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["out.pwm"]


def test_pwm_invariant_multiple_of_frame():
    with pytest.raises(ValueError):
        PwmBitstream.from_bits(np.zeros(100, dtype=np.uint8), clock_hz=1000,
                               frame_bits=128)


def test_pwm_payload_invariants():
    ones = np.array([0xFF], dtype=np.uint8)
    with pytest.raises(ValueError):  # 12 bits need 2 bytes
        PwmBitstream(payload=ones, n_bits=12, clock_hz=100, frame_bits=4)
    with pytest.raises(ValueError):  # bits 4-7 are pad bits and set
        PwmBitstream(payload=ones, n_bits=4, clock_hz=100, frame_bits=4)
    stream = PwmBitstream(payload=np.array([0x0F], dtype=np.uint8), n_bits=4,
                          clock_hz=100, frame_bits=4)
    assert stream.bits.tolist() == [1, 1, 1, 1]
    assert not stream.bits.flags.writeable


@pytest.mark.parametrize("n_bits", [1, 4, 7, 9, 12])
def test_read_pwm_clears_set_pad_bits(n_bits, tmp_path):
    bits = np.ones(n_bits, dtype=np.uint8)
    stream = PwmBitstream.from_bits(bits, clock_hz=100, frame_bits=1)
    path = tmp_path / "pad.pwm"
    n_bytes = (n_bits + 7) // 8
    path.write_bytes(struct.pack("<4sIII", b"PWM1", 100, 1, n_bits)
                     + b"\xff" * n_bytes)
    back = read_pwm(path)
    assert back == stream
    assert back.bits.tolist() == bits.tolist()
    write_pwm(back, tmp_path / "again.pwm")
    payload = (tmp_path / "again.pwm").read_bytes()[16:]
    assert payload == np.packbits(bits, bitorder="little").tobytes()
    assert payload[-1] >> (n_bits - 8 * (n_bytes - 1)) == 0


# --- fuzzed readers -------------------------------------------------------------
# Whatever the bytes, a reader returns a stream or raises one of the three
# documented errors; anything else escaping fails the test.

DOCUMENTED = (MalformedHeader, UnsupportedFormat, IoFailure)

u16 = st.integers(0, 2 ** 16 - 1)
u32 = st.integers(0, 2 ** 32 - 1)


@st.composite
def riff_files(draw):
    """RIFF/WAVE files with well-formed framing and corrupt contents."""
    channels = draw(st.one_of(st.integers(0, 4), u16))
    fmt = struct.pack("<HHIIHH", draw(st.sampled_from([1, 1, 1, 3, 0xFFFE])),
                      channels, draw(st.one_of(st.just(44100), u32)), draw(u32),
                      draw(st.one_of(st.just(2 * channels % 2 ** 16), u16)),
                      draw(st.sampled_from([16, 16, 16, 8, 24, 0])))
    chunks = [(b"fmt ", fmt), (b"data", draw(st.binary(max_size=64)))]
    chunks += draw(st.lists(st.tuples(
        st.sampled_from([b"data", b"LIST", b"\0\0\0\0"]),
        st.binary(max_size=32)), max_size=2))
    out = b"WAVE"
    for cid, body in draw(st.permutations(chunks)):
        size = len(body)
        fault = draw(st.sampled_from(["none"] * 6 + ["cut", "size"]))
        if fault == "cut":
            body = body[:draw(st.integers(0, len(body)))]
        elif fault == "size":
            size = draw(st.one_of(st.integers(0, 80), u32))
        out += cid + struct.pack("<I", size) + body + b"\0" * (len(body) & 1)
    return b"RIFF" + struct.pack("<I", len(out)) + out


@st.composite
def pwm_files(draw):
    """PWM1 files whose header fields disagree with each other or the payload."""
    bit_count = draw(st.one_of(st.integers(0, 2048), u32))
    frame_bits = draw(st.one_of(st.sampled_from([0, 1, 7, 128]), u32))
    header = struct.pack("<4sIII", draw(st.sampled_from([b"PWM1", b"PWM2"])),
                         draw(u32), frame_bits, bit_count)
    n_bytes = min((bit_count + 7) // 8, 256) + draw(st.integers(-1, 1))
    return header + draw(st.binary(min_size=max(n_bytes, 0),
                                   max_size=max(n_bytes, 0)))


def _read_fuzzed(reader, data):
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/fuzz"
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            reader(path)
        except DOCUMENTED:
            pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=128), riff_files()))
def test_read_wav_fuzzed_raises_only_documented(data):
    _read_fuzzed(read_wav, data)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=64), pwm_files()))
def test_read_pwm_fuzzed_raises_only_documented(data):
    _read_fuzzed(read_pwm, data)
