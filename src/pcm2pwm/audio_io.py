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
  contain exactly ceil(bits / 8) payload bytes.  Pad bits of the last byte
  are written as zero and cleared on read.  The u32 fields cap a stream at
  PWM_MAX_BITS bits and its clock at PWM_MAX_CLOCK_HZ; write_pwm raises
  StreamTooLong or ClockTooHigh above them.

In memory a PwmBitstream holds this payload as it is on disk, so writing
and reading it is the header plus one buffer copy.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

PWM_MAGIC = b"PWM1"
_HEADER = struct.Struct("<4sIII")
PWM_MAX_BITS = 2 ** 32 - 1  # largest payload length the u32 field holds
PWM_MAX_CLOCK_HZ = 2 ** 32 - 1  # largest bit clock the u32 field holds


class MalformedHeader(Exception):
    """File structure does not match the documented format."""


class UnsupportedFormat(Exception):
    """Structurally valid WAV whose encoding we do not accept."""


class IoFailure(Exception):
    """Underlying OS read/write failed."""


class StreamTooLong(Exception):
    """Bitstream longer than the PWM1 length field can declare."""


class ClockTooHigh(Exception):
    """Bit clock faster than the PWM1 clock field can declare."""


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
    """PWM bits packed LSB-first into bytes with zero pad bits (the PWM1
    payload as it is on disk), plus the frame geometry."""

    payload: np.ndarray  # uint8, ceil(n_bits / 8) bytes
    n_bits: int
    clock_hz: int
    frame_bits: int

    def __post_init__(self):
        self.payload = np.asarray(self.payload, dtype=np.uint8)
        if self.frame_bits <= 0:
            raise ValueError("frame_bits must be positive")
        if self.n_bits % self.frame_bits != 0:
            raise ValueError("bit count must be a multiple of frame_bits")
        if self.payload.shape != ((self.n_bits + 7) // 8,):
            raise ValueError(f"{self.n_bits} bits need "
                             f"{(self.n_bits + 7) // 8} payload bytes, "
                             f"got shape {self.payload.shape}")
        if self.n_bits % 8 and self.payload[-1] >> (self.n_bits % 8):
            raise ValueError("pad bits of the last payload byte must be zero")

    @classmethod
    def from_bits(cls, bits, clock_hz: int, frame_bits: int) -> "PwmBitstream":
        """Pack unpacked bits, one uint8 0/1 per bit, into a stream."""
        bits = np.asarray(bits, dtype=np.uint8)
        return cls(payload=np.packbits(bits, bitorder="little"),
                   n_bits=len(bits), clock_hz=clock_hz, frame_bits=frame_bits)

    @property
    def bits(self) -> np.ndarray:
        """Unpacked copy, one uint8 0/1 per bit (8x the payload's memory)."""
        bits = np.unpackbits(self.payload, count=self.n_bits, bitorder="little")
        bits.flags.writeable = False
        return bits

    def __len__(self):
        return self.n_bits

    @property
    def frame_count(self) -> int:
        return self.n_bits // self.frame_bits

    def __eq__(self, other):
        if not isinstance(other, PwmBitstream):
            return NotImplemented
        return (self.n_bits == other.n_bits
                and self.clock_hz == other.clock_hz
                and self.frame_bits == other.frame_bits
                and np.array_equal(self.payload, other.payload))


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

    Raises StreamTooLong if the stream holds more than PWM_MAX_BITS bits and
    ClockTooHigh if its clock exceeds PWM_MAX_CLOCK_HZ, both before touching
    the file.
    """
    if stream.n_bits > PWM_MAX_BITS:
        raise StreamTooLong(f"{stream.n_bits} bits, PWM1 holds at most "
                            f"{PWM_MAX_BITS}")
    if stream.clock_hz > PWM_MAX_CLOCK_HZ:
        raise ClockTooHigh(f"{stream.clock_hz} Hz bit clock, PWM1 holds at "
                           f"most {PWM_MAX_CLOCK_HZ}")
    header = _HEADER.pack(PWM_MAGIC, stream.clock_hz, stream.frame_bits,
                          stream.n_bits)
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(stream.payload))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def read_pwm(path) -> PwmBitstream:
    """Read a PWM1 container file; inverse of write_pwm, bit-exact.

    Pad bits set in the last payload byte are cleared, so the stream equals
    the one with zero padding and writes back with zero pad bits.
    """
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
    payload = np.frombuffer(data, dtype=np.uint8, offset=_HEADER.size)
    if len(payload) != expected_bytes:
        raise MalformedHeader(
            f"payload holds {len(payload)} bytes, header declares "
            f"{bit_count} bits ({expected_bytes} bytes)")
    if frame_bits == 0 or bit_count % frame_bits != 0:
        raise MalformedHeader(
            f"bit count {bit_count} not a multiple of frame size {frame_bits}")

    pad = -bit_count % 8
    if pad and payload[-1] >> (8 - pad):
        payload = payload.copy()
        payload[-1] &= 0xFF >> pad
    return PwmBitstream(payload=payload, n_bits=bit_count, clock_hz=clock_hz,
                        frame_bits=frame_bits)
