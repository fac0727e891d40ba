"""Frozen SHA-256 digests of whole PWM1 files and of the MOLD codes for four
4.3 s inputs.

The digests were taken once from the converter and are never re-frozen: any
change to the chain, the waveform generator or the PWM1 writer that moves a
single bit fails here.  The MOLD digests (codes as little-endian int64)
tell a change before the waveform generator from one after it.
Refactors and optimizations must keep them.
"""

import hashlib

import numpy as np
import pytest

from pcm2pwm.audio_io import PcmStream, write_pwm
from pcm2pwm.chain import (INTERP_STAGES, convert, linearize, noise_shape,
                           s0_condition, upsample2)

RATE = 44100
N = int(round(4.3 * RATE))


def _pcm(wave):
    samples = np.clip(np.round(wave * 32767.0), -32768, 32767).astype(np.int16)
    return PcmStream(samples=samples, sample_rate=RATE)


def _sine(freq_hz, dbfs):
    t = np.arange(N) / RATE
    return _pcm(10.0 ** (dbfs / 20.0) * np.sin(2.0 * np.pi * freq_hz * t))


INPUTS = {
    "sine-1k-minus6": lambda: _sine(1000.0, -6.0),
    "noise-seed0": lambda: _pcm(np.random.default_rng(0).uniform(-0.5, 0.5, N)),
    "silence": lambda: _pcm(np.zeros(N)),
    "sine-1k-fullscale": lambda: _sine(1000.0, 0.0),
}

DIGESTS = {
    "sine-1k-minus6":
        "891e8114dd2be74b870166ac1eee4e74b473f4097d5b26035c0603f86ec6dee5",
    "noise-seed0":
        "d473e61421ce9bd850c1a830edaefcd3f21043f8049c8e6657be4c9b3893f790",
    "silence":
        "f72969fcb03f2267d2b69ff5d092ce9cc1ddd36524cbc5fb7a18802366c97117",
    "sine-1k-fullscale":
        "3941244bb908a43a592773242b613bb582b0956092b999a2c79b92452233fb0d",
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_pwm_file_digest(name, tmp_path):
    path = tmp_path / f"{name}.pwm"
    write_pwm(convert(INPUTS[name]()), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


MOLD_DIGESTS = {
    "sine-1k-minus6":
        "45b21245f8d350c167cd13b025230567b071a1eb2e693240e8988d8ee80bd91b",
    "noise-seed0":
        "6d7ba42e9bec5c5408590e6c5d2110929e67150850d7082477116f45ae3ec637",
    "silence":
        "a2a88a9792f4d3539e4c83c5193aba79df51ecd50ecfa92d6982f657bd81cba2",
    "sine-1k-fullscale":
        "2f1c966321ec456ab3444c3abab994b13aea3b73e6b6653b96638e9ab946a334",
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_mold_codes_digest(name):
    x = s0_condition(INPUTS[name]().samples)
    for i in range(INTERP_STAGES):
        x = upsample2(x, behavior=f"S{i + 1}")
    codes = noise_shape(linearize(x)).astype("<i8")
    assert hashlib.sha256(codes.tobytes()).hexdigest() == MOLD_DIGESTS[name]


def test_convert_holds_packed_payload():
    """A 4.3 s stream holds its bits packed: 1/8 byte per bit, 24.3 MB."""
    pwm = convert(INPUTS["silence"]())
    assert len(pwm) == N * 1024
    assert pwm.payload.nbytes == len(pwm) // 8 == 24_272_640
