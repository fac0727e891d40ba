"""Frozen exit code, stderr and stdout SHA-256 of `pcm2pwm roundtrip`.

One 1 s clip of each kind the benchmark scores: a 1 kHz tone at -6 dBFS,
a near-full-scale tone, seeded noise (exit 4, its energy above the audio
band is removed by the demodulator), silence (the SNR cap case) and a
stereo two-tone WAV, which exercises the downmix.  The digests pin every
printed figure, so a change to the demodulator or to `measure`, down to
its window, moves one; re-freeze them only with a change that means to
move a report, and list each report that moved.
"""

import hashlib

import numpy as np
import pytest

from pcm2pwm.cli import main

from conftest import sine_int16, write_wav

FLOOR_MISSED = "snr 13.02 dB below the 60.00 dB floor\n"

DIGESTS = {  # (source, format): (exit code, stderr, stdout SHA-256)
    ("noise:-3:1", "csv"): (
        4, FLOOR_MISSED,
        "c03745a75f5d214cd85c399116a15d3ea2513f08fb36556b2e0af78149bd7dfc"),
    ("noise:-3:1", "text"): (
        4, FLOOR_MISSED,
        "8c1e927d46202ed3d6c2df1e4f70a59755c71e194f5bea0638f2d38110a451a8"),
    ("silence:1", "text"): (
        0, "",
        "d5ec64cad45d47ac0e11d5067dff4398e947586a6f63596640642c49e56f6a4b"),
    ("sine:1000:-6:1", "csv"): (
        0, "",
        "2375c0f81880624bd93163425d42873ff093d03ba5a32e677bd990a016b55209"),
    ("sine:1000:-6:1", "text"): (
        0, "",
        "8a31da8ac2425d0fe6bc921b731b454b1ec25e96bb9d29698e03997d08daa7ef"),
    ("sine:997:-0.5:1", "text"): (
        0, "",
        "5d85b9e687d2476eaca39f341d6dc7fbfb780656955c468556bcfe8f0248fb93"),
    ("stereo.wav", "text"): (
        0, "",
        "2b4ce766b5688228f5bc9bf0f78e6efc507efc35ed593f9b07147c71a13b20ba"),
}


def _stereo_two_tone(path):
    """1014 Hz left and 2539 Hz right, each at -6 dBFS, interleaved."""
    amp = 10.0 ** (-6.0 / 20.0)
    frames = np.empty(2 * 44100, dtype=np.int16)
    frames[0::2] = sine_int16(1014.0, amp, 1.0)
    frames[1::2] = sine_int16(2539.0, amp, 1.0)
    return str(write_wav(path, frames, channels=2))


def _roundtrip(source, fmt, tmp_path, capsys, *extra):
    spec = source
    if source == "stereo.wav":
        spec = _stereo_two_tone(tmp_path / source)
    code = main(["roundtrip", "--input", spec, "--format", fmt, *extra])
    captured = capsys.readouterr()
    return code, captured.err, hashlib.sha256(
        captured.out.encode()).hexdigest()


@pytest.mark.parametrize("source,fmt", sorted(DIGESTS))
def test_roundtrip_report_digest(source, fmt, tmp_path, capsys):
    assert _roundtrip(source, fmt, tmp_path, capsys) == DIGESTS[source, fmt]


def test_seed_defaults_to_zero(tmp_path, capsys):
    """Noise with no --seed is the noise of --seed 0."""
    default = _roundtrip("noise:-3:0.1", "csv", tmp_path, capsys)
    assert _roundtrip("noise:-3:0.1", "csv", tmp_path, capsys,
                      "--seed", "0") == default
    assert _roundtrip("noise:-3:0.1", "csv", tmp_path, capsys,
                      "--seed", "1") != default
