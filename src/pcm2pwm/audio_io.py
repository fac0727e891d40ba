"""WAV input and the packed PWM bitstream container.

Two on-disk formats are handled here, both bit-exactly:

* RIFF/WAVE, PCM format code 1, 16-bit only.  Stereo (or any multi-channel)
  input is downmixed to mono by the per-frame arithmetic mean rounded toward
  zero.  Anything that is not 16-bit integer PCM is rejected rather than
  converted.

* The "PWM1" container: a 16-byte header followed by the bit payload.

      offset  size  field
      0       4     magic, ASCII "PWM1"
      4       4     bit-clock frequency in Hz, unsigned little-endian
      8       4     bits per PWM frame, unsigned little-endian
      12      4     payload length in bits, unsigned little-endian
      16      -     payload, bits packed LSB-first into bytes

  The payload length must be a multiple of the frame size and the file must
  contain exactly ceil(bits / 8) payload bytes.  The u32 length field caps a
  stream at PWM_MAX_BITS bits; write_pwm raises StreamTooLong above it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

PWM_MAGIC = b"PWM1"
_HEADER = struct.Struct("<4sIII")
PWM_MAX_BITS = 2 ** 32 - 1  # largest payload length the u32 field holds


class MalformedHeader(Exception):
    """File structure does not match the documented format."""


class UnsupportedFormat(Exception):
    """Structurally valid WAV whose encoding we do not accept."""


class IoFailure(Exception):
    """Underlying OS read/write failed."""


class StreamTooLong(Exception):
    """Bitstream longer than the PWM1 length field can declare."""


@dataclass
class PcmStream:
    """Signed 16-bit samples at a fixed rate, mono after downmix."""

    samples: np.ndarray  # int16
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.dtype != np.int16:
            if len(arr) and (arr.min() < -32768 or arr.max() > 32767):
                raise ValueError("samples out of 16-bit range")
            arr = arr.astype(np.int16)
        self.samples = arr
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self):
        return len(self.samples)


@dataclass
class PwmBitstream:
    """Unpacked PWM bits (one uint8 per bit) plus the frame geometry."""

    bits: np.ndarray  # uint8 of 0/1
    clock_hz: int
    frame_bits: int

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        if self.frame_bits <= 0:
            raise ValueError("frame_bits must be positive")
        if len(self.bits) % self.frame_bits != 0:
            raise ValueError("bit count must be a multiple of frame_bits")

    def __len__(self):
        return len(self.bits)

    @property
    def frame_count(self) -> int:
        return len(self.bits) // self.frame_bits

    def __eq__(self, other):
        if not isinstance(other, PwmBitstream):
            return NotImplemented
        return (self.clock_hz == other.clock_hz
                and self.frame_bits == other.frame_bits
                and np.array_equal(self.bits, other.bits))


def read_wav(path) -> PcmStream:
    """Read a 16-bit PCM WAV file, downmixing to mono.

    Raises MalformedHeader on bad RIFF structure, UnsupportedFormat for
    non-PCM or non-16-bit content.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if len(data) < 12:
        raise MalformedHeader("file shorter than RIFF header")
    if data[0:4] != b"RIFF":
        raise MalformedHeader(f"bad RIFF magic {data[0:4]!r}")
    if data[8:12] != b"WAVE":
        raise MalformedHeader(f"bad WAVE form type {data[8:12]!r}")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise MalformedHeader(f"truncated chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedHeader("fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedHeader("missing fmt chunk")
    if payload is None:
        raise MalformedHeader("missing data chunk")

    audio_format, channels, sample_rate, _, block_align, bits_per_sample = fmt
    if audio_format != 1:
        raise UnsupportedFormat(f"format code {audio_format}, only PCM (1) supported")
    if bits_per_sample != 16:
        raise UnsupportedFormat(f"{bits_per_sample}-bit samples, only 16-bit supported")
    if channels < 1:
        raise MalformedHeader("zero channels")
    if sample_rate <= 0:
        raise MalformedHeader("non-positive sample rate")
    if block_align != channels * 2:
        raise MalformedHeader(f"block align {block_align} != channels*2")

    frame_count = len(payload) // block_align
    raw = np.frombuffer(payload[:frame_count * block_align], dtype="<i2")
    # arithmetic mean per frame, rounded toward zero
    frames = raw.reshape(frame_count, channels).astype(np.int64)
    samples = np.trunc(frames.sum(axis=1) / channels).astype(np.int16)
    return PcmStream(samples=samples, sample_rate=int(sample_rate))


def write_pwm(stream: PwmBitstream, path) -> None:
    """Write a PwmBitstream to a PWM1 container file.

    Raises StreamTooLong, before touching the file, if the stream holds
    more than PWM_MAX_BITS bits.
    """
    if len(stream.bits) > PWM_MAX_BITS:
        raise StreamTooLong(f"{len(stream.bits)} bits, PWM1 holds at most "
                            f"{PWM_MAX_BITS}")
    header = _HEADER.pack(PWM_MAGIC, stream.clock_hz, stream.frame_bits,
                          len(stream.bits))
    payload = np.packbits(stream.bits, bitorder="little").tobytes()
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(payload)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_pwm(path) -> PwmBitstream:
    """Read a PWM1 container file; inverse of write_pwm, bit-exact."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc

    if len(data) < _HEADER.size:
        raise MalformedHeader("file shorter than PWM1 header")
    magic, clock_hz, frame_bits, bit_count = _HEADER.unpack_from(data, 0)
    if magic != PWM_MAGIC:
        raise MalformedHeader(f"bad magic {magic!r}")
    expected_bytes = (bit_count + 7) // 8
    payload = data[_HEADER.size:]
    if len(payload) != expected_bytes:
        raise MalformedHeader(
            f"payload holds {len(payload)} bytes, header declares "
            f"{bit_count} bits ({expected_bytes} bytes)")
    if frame_bits == 0 or bit_count % frame_bits != 0:
        raise MalformedHeader(
            f"bit count {bit_count} not a multiple of frame size {frame_bits}")

    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8),
                         bitorder="little")[:bit_count]
    return PwmBitstream(bits=bits, clock_hz=clock_hz, frame_bits=frame_bits)
