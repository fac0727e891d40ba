"""The scripts under scripts/, run as a user runs them: their output is
checked against the goldens and the reader it is said to serve."""

import subprocess
import sys
from pathlib import Path

import numpy as np

from pcm2pwm.audio_io import read_wav

import test_dse

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    child = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                           capture_output=True, encoding="utf-8",
                           timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_oracle_prints_the_frozen_dse_goldens():
    """The brute-force oracle, independent of the package, still prints the
    numbers test_dse froze from it."""
    out = run_script("oracle_feasible_count.py").splitlines()
    assert "total mappings: 64" in out
    assert f"feasible (< 4300.0 ms): {test_dse.GOLDEN_FEASIBLE_COUNT}" in out
    assert ("cheapest feasible: hw_set=['MOLD'] total=3731.3 ms cost=$10.60"
            in out)
    cheapest_3500 = sorted(test_dse.GOLDEN_CHEAPEST_3500)
    assert f"deadline 3500 ms: 32 feasible, cheapest={cheapest_3500}" in out


def test_make_test_wav_writes_what_read_wav_reads(tmp_path):
    """A stereo 48 kHz sine from make_test_wav.py reads back at its rate
    and length, its two equal channels downmixed to the one sine."""
    path = tmp_path / "stereo.wav"
    run_script("make_test_wav.py", "--out", str(path), "--channels", "2",
               "--rate", "48000", "--seconds", "0.5")
    pcm = read_wav(path)
    assert (pcm.sample_rate, len(pcm)) == (48000, 24000)
    t = np.arange(24000) / 48000
    sine = np.round(10 ** (-6 / 20) * 32767 * np.sin(2 * np.pi * 1000 * t))
    assert np.array_equal(pcm.samples, sine.astype(np.int16))


def test_code_lines_counts_code_only(tmp_path):
    """code_lines.py skips docstrings, comments and blank lines, and counts
    every line of a statement that spans several."""
    module = tmp_path / "module.py"
    module.write_text('"""A module docstring,\n'
                      'over two lines."""\n'
                      "\n"
                      "import math  # a comment after code\n"
                      "# a comment alone\n"
                      "\n"
                      "\n"
                      "def area(r):\n"
                      '    """A function docstring."""\n'
                      "    return (math.pi\n"
                      "            * r ** 2)\n"
                      "\n"
                      'NOTE = """not a docstring,\n'
                      'but a string that spans two lines"""\n',
                      encoding="utf-8")
    # import, def, the two lines of the return, the two of NOTE
    assert run_script("code_lines.py", str(module)) == (
        "     6  module.py\n"
        "     6  total\n")
