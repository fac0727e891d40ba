import os
import subprocess
import sys

import numpy as np
import pytest

from pcm2pwm import chain
from pcm2pwm.audio_io import read_pwm
from pcm2pwm.cli import EXIT_CLOSED_STDOUT, main

from conftest import sine_int16


@pytest.fixture
def short_sine_wav(wav_file):
    return str(wav_file(sine_int16(1000, 0.5, 0.1)))


# --- convert --------------------------------------------------------------

def test_convert_reports_clocks(short_sine_wav, tmp_path, capsys):
    out = tmp_path / "out.pwm"
    code = main(["convert", "--input", short_sine_wav, "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "pwm clock: 45158400 Hz" in captured.out
    assert "naive clock: 2890137600 Hz" in captured.out
    pwm = read_pwm(out)
    assert pwm.frame_count == 8 * 4410
    assert pwm.clock_hz == 45158400


def test_convert_missing_input(tmp_path, capsys):
    code = main(["convert", "--input", str(tmp_path / "none.wav"),
                 "--output", str(tmp_path / "out.pwm")])
    captured = capsys.readouterr()
    assert code == 2
    assert "input not found" in captured.err


def test_convert_synthetic_input(tmp_path, capsys):
    out = tmp_path / "synth.pwm"
    code = main(["convert", "--input", "sine:1000:-6:0.05",
                 "--output", str(out)])
    assert code == 0
    assert read_pwm(out).frame_count == 8 * 2205


@pytest.mark.parametrize("command", ["convert", "roundtrip"])
@pytest.mark.parametrize("source", ["silence:0", "empty.wav"])
def test_empty_input_is_input_error(command, source, wav_file, tmp_path,
                                    capsys):
    if source == "empty.wav":  # a WAV whose data chunk is empty
        source = str(wav_file(np.zeros(0, dtype=np.int16), name=source))
    argv = [command, "--input", source]
    if command == "convert":
        argv += ["--output", str(tmp_path / "out.pwm")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: input has no samples\n"


def test_convert_too_long_is_input_error(tmp_path, capsys, monkeypatch):
    """96 s would overflow the PWM1 u32 bit count; refused before the chain."""
    def chain_must_not_run(*args, **kwargs):
        raise AssertionError("the chain ran")
    monkeypatch.setattr(chain, "convert", chain_must_not_run)
    out = tmp_path / "long.pwm"
    assert main(["convert", "--input", "silence:96", "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: input too long: 4233600 samples make 4335206400 bits, "
        "PWM1 holds at most 4294967295\n")
    assert not out.exists()


@pytest.mark.parametrize("rate,code", [(4194303, 0), (4194304, 2)])
def test_convert_bit_clock_limit(rate, code, wav_file, tmp_path, capsys,
                                 monkeypatch):
    """1024 bits per input sample: 4,194,304 Hz makes a 2^32 Hz bit clock,
    one more than the PWM1 clock field holds; refused before the chain."""
    path = str(wav_file(sine_int16(1000, 0.5, 300 / rate, rate=rate),
                        rate=rate))
    if code:
        def chain_must_not_run(*args, **kwargs):
            raise AssertionError("the chain ran")
        monkeypatch.setattr(chain, "convert", chain_must_not_run)
    out = tmp_path / "fast.pwm"
    assert main(["convert", "--input", path, "--output", str(out)]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == (
            "error: sample rate too high: 4194304 Hz makes a 4294967296 Hz "
            "bit clock, PWM1 holds at most 4294967295\n")
        assert not out.exists()
    else:
        assert read_pwm(out).clock_hz == 4294966272
        assert read_pwm(out).frame_count == 8 * 300


@pytest.mark.parametrize("command", ["convert", "profile"])
def test_unwritable_output_is_input_error(command, tmp_path, capsys):
    out = tmp_path / "missing" / "out"
    assert main([command, "--input", "sine:1000:-6:0.01",
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


# --- profile --------------------------------------------------------------

def test_profile_fixture_mode(capsys):
    code = main(["profile", "--scenario",
                 _bundled("baseline.scenario")])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.splitlines()
    row = {parts[0]: parts for parts in
           (line.split() for line in lines) if parts}
    assert row["DSP"][3] == "4.55" and len(row["DSP"]) == 4  # no goal mark
    assert row["uP"][3] == "1.04" and row["uP"][4] == "X"
    assert row["uC"][3] == "116.89" and len(row["uC"]) == 4
    assert row["HW"][3] == "2.50" and row["HW"][4] == "X"


def test_profile_fixture_csv(capsys):
    code = main(["profile", "--scenario", _bundled("baseline.scenario"),
                 "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "element,type,cycles,time_s,goal"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["DSP"] == ["DSP", "SW", "272935511", "4.55", ""]
    assert rows["uP"] == ["uP", "SW", "935152757", "1.04", "X"]
    assert rows["uC"] == ["uC", "SW", "935152757", "116.89", ""]
    assert rows["HW"] == ["HW", "HW", "250224089", "2.50", "X"]


def test_profile_live_stage_ordering(short_sine_wav, capsys):
    code = main(["profile", "--input", short_sine_wav, "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    totals = {}
    for line in captured.out.splitlines():
        parts = line.split(",")
        if len(parts) > 3 and parts[1] == "total":
            totals[parts[0]] = int(parts[3])  # DSP cycles column
    assert totals["S3"] > totals["S2"] > totals["S1"] > 0


def test_profile_empty_input(capsys):
    code = main(["profile", "--input", "silence:0", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    for line in captured.out.splitlines():
        parts = line.split(",")
        if len(parts) > 3 and parts[1] == "total":
            assert parts[2] == "0"


def test_profile_needs_source(capsys):
    assert main(["profile"]) == 2


# --- explore --------------------------------------------------------------

def test_explore_selects_cheapest(capsys):
    code = main(["explore"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all mappings (64)" in captured.out
    assert "selected: MOLD (3731.3 ms, $10.60)" in captured.out
    assert "3.06% in time but costs 25.35% more" in captured.out


def test_explore_impossible_deadline(capsys):
    code = main(["explore", "--deadline-ms", "1000"])
    captured = capsys.readouterr()
    assert code == 3
    assert "deadline" in captured.err


def test_explore_pin(capsys):
    code = main(["explore", "--pin", "S0=sw"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all mappings (32)" in captured.out


def test_explore_bad_pin(capsys):
    assert main(["explore", "--pin", "S0=fpga"]) == 2


def test_explore_unknown_pin(capsys):
    assert main(["explore", "--pin", "FOO=hw"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "FOO" in captured.err
    assert "Traceback" not in captured.err


def test_explore_csv(capsys):
    code = main(["explore", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == ("hw_set,t_dsp_ms,t_hw_ms,t_total_ms,cost_usd,"
                        "feasible,selected")
    assert len(lines) == 65
    selected = [line for line in lines if line.endswith(",1")]
    assert selected == ["MOLD,2982.2,749.1,3731.3,10.60,1,1"]


def test_explore_deterministic(capsys):
    main(["explore"])
    first = capsys.readouterr().out
    main(["explore"])
    second = capsys.readouterr().out
    assert first == second


# --- roundtrip -------------------------------------------------------------

def test_roundtrip_passes_floor(capsys):
    code = main(["roundtrip", "--input", "sine:1000:-6:0.5",
                 "--snr-floor-db", "60"])
    captured = capsys.readouterr()
    assert code == 0
    snr = float([line for line in captured.out.splitlines()
                 if line.startswith("snr:")][0].split()[1])
    assert snr >= 60.0


def test_roundtrip_unreachable_floor(capsys):
    code = main(["roundtrip", "--input", "sine:1000:-6:0.3",
                 "--snr-floor-db", "200"])
    captured = capsys.readouterr()
    assert code == 4
    assert "below" in captured.err


def test_roundtrip_silence_is_cap_case(capsys):
    code = main(["roundtrip", "--input", "silence:0.3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "snr: 140.00 dB" in captured.out


def test_roundtrip_csv(capsys):
    code = main(["roundtrip", "--input", "sine:1000:-6:0.3",
                 "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.splitlines()[0] == (
        "fundamental_hz,snr_db,thd_db,inband_noise_power")


def test_roundtrip_too_short_is_input_error(capsys):
    code = main(["roundtrip", "--input", "sine:1000:-6:0.001"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: only 44 overlapping samples\n"


def _bundled(name):
    from importlib import resources
    return str(resources.files("pcm2pwm").joinpath("data", name))


# --- closed stdout ---------------------------------------------------------

def test_closed_stdout_exits_quietly():
    """The read end is closed before the child starts, so every write to
    stdout fails with EPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        child = subprocess.run([sys.executable, "-m", "pcm2pwm.cli", "explore"],
                               stdout=write_end, stderr=subprocess.PIPE,
                               env=env, timeout=60)
    finally:
        os.close(write_end)
    assert child.returncode == EXIT_CLOSED_STDOUT
    assert child.stderr == b""
