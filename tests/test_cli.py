import fnmatch
import importlib
import inspect
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcm2pwm import audio_io, chain, cli, verification
from pcm2pwm.audio_io import read_pwm
from pcm2pwm.cli import EXIT_CLOSED_STDOUT, EXIT_WORKER, main

from conftest import sine_int16, write_wav


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


@pytest.mark.parametrize("command", ["convert", "profile", "roundtrip"])
def test_directory_input_is_not_called_missing(command, tmp_path, capsys):
    """A directory exists: the error names why it cannot be read, not
    "input not found", and still exits 2."""
    argv = [command, "--input", str(tmp_path)]
    if command == "convert":
        argv += ["--output", str(tmp_path / "out.pwm")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    # the OS reason only: it would repeat the path
    assert captured.err == f"error: cannot read {tmp_path}: Is a directory\n"
    assert captured.out == ""


# (offset, bytes) of a 16-bit mono WAV to overwrite, and the reason given:
# the RIFF magic, and the fmt chunk's bits per sample
@pytest.mark.parametrize("field,value,reason", [
    (0, b"RIFX", "bad RIFF magic b'RIFX'"),
    (34, b"\x08\x00", "8-bit samples, only 16-bit supported"),
], ids=["bad-magic", "8-bit"])
@pytest.mark.parametrize("command", ["convert", "profile", "roundtrip"])
def test_malformed_or_unsupported_wav_is_input_error(command, field, value,
                                                     reason, wav_file,
                                                     tmp_path, capsys):
    path = wav_file(np.zeros(4, dtype=np.int16))
    data = bytearray(path.read_bytes())
    data[field:field + len(value)] = value
    path.write_bytes(data)
    assert main(_argv(command, str(path), tmp_path)) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {reason}\n")


@pytest.mark.parametrize("command, seconds", [
    pytest.param("convert", 0.2, id="convert"),
    pytest.param("roundtrip", 0.2, id="roundtrip"),
    # a file that fits in one read buffer
    pytest.param("convert", 0.01, id="convert-0.01s"),
    pytest.param("roundtrip", 0.01, id="roundtrip-0.01s"),
])
def test_wav_that_shrinks_while_read_is_named(command, seconds, wav_file,
                                              tmp_path, capsys, monkeypatch):
    """A WAV whose data chunk loses its last frame after it is opened
    fails while its samples are read, outside _load: the one error line
    still names the file, whether the file is shorter or longer than a
    read buffer."""
    path = wav_file(sine_int16(1000, 0.5, seconds))
    opened = audio_io.WavReader.__init__

    def open_then_shrink(self, name):
        opened(self, name)
        os.truncate(name, os.path.getsize(name) - 2)
    monkeypatch.setattr(audio_io.WavReader, "__init__", open_then_shrink)
    assert main(_argv(command, str(path), tmp_path)) == 2
    assert capsys.readouterr() == (
        "", f"error: {path}: data chunk shrank while reading\n")


@pytest.mark.parametrize("spec", ["noise:-6:0.01", "sine:1000:-6:0.01"])
@pytest.mark.parametrize("command", ["convert", "roundtrip"])
def test_negative_seed_is_its_own_input_error(command, spec, tmp_path,
                                              capsys):
    """A negative --seed is named as such, not blamed on a spec that is
    fine, and exits 2."""
    argv = [command, "--input", spec, "--seed", "-1"]
    if command == "convert":
        argv += ["--output", str(tmp_path / "out.pwm")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: --seed must be an integer of at least 0, "
                            "got -1\n")
    assert captured.out == ""


def test_convert_synthetic_input(tmp_path, capsys):
    out = tmp_path / "synth.pwm"
    code = main(["convert", "--input", "sine:1000:-6:0.05",
                 "--output", str(out)])
    assert code == 0
    assert read_pwm(out).frame_count == 8 * 2205


def _argv(command, source, tmp_path):
    """Arguments running `command` on `source`; convert writes out.pwm."""
    argv = [command, "--input", source]
    if command == "convert":
        argv += ["--output", str(tmp_path / "out.pwm")]
    return argv


@pytest.mark.parametrize("command", ["convert", "roundtrip"])
@pytest.mark.parametrize("source", ["silence:0", "empty.wav"])
def test_empty_input_is_input_error(command, source, wav_file, tmp_path,
                                    capsys):
    if source == "empty.wav":  # a WAV whose data chunk is empty
        source = str(wav_file(np.zeros(0, dtype=np.int16), name=source))
    assert main(_argv(command, source, tmp_path)) == 2
    assert capsys.readouterr().err == "error: input has no samples\n"


def _nothing_read(monkeypatch):
    """Make reading a sample or starting the chain fail the test."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("a sample was read or the chain ran")
    monkeypatch.setattr(chain, "convert_stream", must_not_run)
    monkeypatch.setattr(audio_io.WavReader, "blocks", must_not_run)
    monkeypatch.setattr(cli._Synthetic, "blocks", must_not_run)


@pytest.mark.parametrize("command", ["convert", "roundtrip"])
@pytest.mark.parametrize("source,n", [("silence:96", 4233600),
                                      ("sine:1000:-6:1e9", 44100000000000)])
def test_too_long_is_input_error(command, source, n, tmp_path, capsys,
                                 monkeypatch):
    """96 s would overflow the PWM1 u32 bit count; refused before a sample
    is read, so a clip far past it costs no memory either."""
    _nothing_read(monkeypatch)
    assert main(_argv(command, source, tmp_path)) == 2
    assert capsys.readouterr().err == (
        f"error: stream too long: {n * 1024} bits, the PWM1 bit count field "
        "holds at most 4294967295\n")
    assert not (tmp_path / "out.pwm").exists()


@pytest.mark.parametrize("command", ["convert", "roundtrip"])
@pytest.mark.parametrize("rate,code", [(4194303, 0), (4194304, 2)])
def test_bit_clock_limit(command, rate, code, wav_file, tmp_path, capsys,
                         monkeypatch):
    """1024 bits per input sample: 4,194,304 Hz makes a 2^32 Hz bit clock,
    one more than the PWM1 clock field holds; refused before a sample is
    read."""
    path = str(wav_file(sine_int16(1000, 0.5, 300 / rate, rate=rate),
                        rate=rate))
    if code:
        _nothing_read(monkeypatch)
    argv = _argv(command, path, tmp_path)
    if command == "roundtrip":
        argv += ["--snr-floor-db", "0"]  # 300 samples score about 33 dB
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == (
            "error: bit clock too high: 4294967296 Hz, the PWM1 clock field "
            "holds at most 4294967295 Hz\n")
        assert not (tmp_path / "out.pwm").exists()
    elif command == "convert":
        out = read_pwm(tmp_path / "out.pwm")
        assert out.clock_hz == 4294966272
        assert out.frame_count == 8 * 300
    else:
        assert captured.out.startswith("fundamental: ")


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
def test_failed_convert_keeps_previous_output(failure, wav_file, tmp_path,
                                              monkeypatch):
    """A stage that raises after the header and some payload blocks are
    written leaves --output byte-identical and no file beside it."""
    path = str(wav_file(sine_int16(1000, 0.5, 0.5)))  # several chain blocks
    out = tmp_path / "out.pwm"
    out.write_bytes(b"the previous conversion")
    calls = []
    real = chain.noise_shape

    def fails_on_third_block(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise failure("stage failed mid-stream")
        return real(*args, **kwargs)
    monkeypatch.setattr(chain, "noise_shape", fails_on_third_block)
    with pytest.raises(failure):
        main(["convert", "--input", path, "--output", str(out)])
    assert len(calls) == 3
    assert out.read_bytes() == b"the previous conversion"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav", "out.pwm"]


@pytest.mark.parametrize("argv", [
    ["convert", "--input", "sine:1000:-6:0.1"],
    ["profile", "--input", "sine:1000:-6:0.1", "--format", "csv"],
], ids=["convert", "profile"])
def test_failed_write_keeps_previous_output(argv, tmp_path):
    """A write the OS refuses part way, here past a child's 200-byte file
    size limit, exits 2 with one error line, leaves --output byte-identical
    and no temporary file beside it."""
    pytest.importorskip("resource", reason="needs resource.RLIMIT_FSIZE")
    out = tmp_path / "old.out"
    out.write_bytes(b"the previous output\n")
    # the limit is the child's own; SIGXFSZ ignored, a write past it fails
    # with EFBIG instead of killing the child
    script = ("import resource, signal, sys\n"
              "from pcm2pwm.cli import main\n"
              "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
              "_, hard = resource.getrlimit(resource.RLIMIT_FSIZE)\n"
              "resource.setrlimit(resource.RLIMIT_FSIZE, (200, hard))\n"
              "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run([sys.executable, "-c", script, *argv,
                            "--output", str(out)], capture_output=True,
                           encoding="utf-8", env=env, timeout=120)
    assert child.returncode == 2
    assert child.stderr == f"error: cannot write {out}: File too large\n"
    assert child.stdout == ""
    assert out.read_bytes() == b"the previous output\n"
    assert not fnmatch.filter(os.listdir(tmp_path), ".*.tmp")


def child_peak_kb(script, *args):
    """Run script in a fresh interpreter and return its peak RSS in kB: the
    larger of its own and that of the largest process it forked and waited
    for, so a worker process cannot hide memory from a test.

    The child reports its own VmHWM: its ru_maxrss would start at this
    process's high-water mark, which exec carries over."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs /proc/self/status for the peak RSS")
    script += ("import resource\n"
               "with open('/proc/self/status', encoding='utf-8') as fh:\n"
               "    own = int([l.split()[1] for l in fh"
               " if l.startswith('VmHWM')][0])\n"
               "print(max(own, resource.getrusage("
               "resource.RUSAGE_CHILDREN).ru_maxrss))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", script, *args],
                           capture_output=True, encoding="utf-8", env=env,
                           timeout=600)
    assert child.returncode == 0, child.stderr
    return int(child.stdout.splitlines()[-1])


def test_convert_memory_flat_in_clip_length(tmp_path):
    """Fresh-process peak RSS of convert on a 40 s WAV is within 10 % (plus
    a few MB of slack) of a 5 s one: the chain streams bounded blocks."""
    script = ("import sys\n"
              "from pcm2pwm.cli import main\n"
              "assert main(sys.argv[1:]) == 0\n")
    peak_kb = {}
    for seconds in (5, 40):
        wav = write_wav(tmp_path / f"{seconds}.wav",
                        sine_int16(1000, 0.5, seconds), channels=1)
        peak_kb[seconds] = child_peak_kb(
            script, "convert", "--input", str(wav),
            "--output", str(tmp_path / f"{seconds}.pwm"))
    assert peak_kb[40] <= 1.10 * peak_kb[5] + 4096, peak_kb


def test_mold_gets_at_most_eight_blocks(tmp_path, capsys, monkeypatch):
    """convert cuts its input once, at its entry: MOLD, the stage handed
    the most samples, gets at most 8 x audio_io._BLOCK of them a call, so
    no more Python floats than that are alive at once."""
    sizes = []
    real = chain.noise_shape

    def spy(x, state=None):
        sizes.append(len(x))
        return real(x, state)
    monkeypatch.setattr(chain, "noise_shape", spy)
    assert main(["convert", "--input", "sine:1000:-6:2",
                 "--output", str(tmp_path / "out.pwm")]) == 0
    capsys.readouterr()
    assert sum(sizes) == 8 * 2 * 44100
    assert max(sizes) <= 8 * audio_io._BLOCK


def test_demodulate_stream_memory_flat_in_clip_length():
    """Fresh-process peak RSS of demodulate_stream fed by convert_stream,
    each audio block dropped after use, is on a 40 s clip within 10 % (plus
    4 MB) of a 5 s one: no stage of either holds more than a block."""
    script = ("import sys\n"
              "import numpy as np\n"
              "from pcm2pwm import convert_stream, demodulate_stream\n"
              "n = int(sys.argv[1]) * 44100\n"
              "def pcm():\n"
              "    for start in range(0, n, 4096):\n"
              "        t = np.arange(start, min(start + 4096, n)) / 44100\n"
              "        yield np.round(16383 * np.sin(2 * np.pi * 1000 * t)"
              ").astype(np.int16)\n"
              "blocks = demodulate_stream(convert_stream(pcm(), 44100),\n"
              "                           n_bits=n * 1024,\n"
              "                           clock_hz=44100 * 1024)\n"
              "assert sum(len(y) for y in blocks) == n\n")
    peak_kb = {seconds: child_peak_kb(script, str(seconds))
               for seconds in (5, 40)}
    assert peak_kb[40] <= 1.10 * peak_kb[5] + 4096, peak_kb


def test_convert_to_a_device_writes_in_place(short_sine_wav, capsys):
    """An --output that is not a regular file is written to, never
    replaced by a renamed file."""
    assert main(["convert", "--input", short_sine_wav,
                 "--output", os.devnull]) == 0
    assert not os.path.isfile(os.devnull)


def test_wav_on_a_pipe(short_sine_wav):
    """A WAV that arrives on a pipe, which cannot seek, still reads, and
    the pipe is closed once it is read: development mode's ResourceWarning
    for a file never closed would print on stderr."""
    with open(short_sine_wav, "rb") as fh:
        wav = fh.read()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-X", "dev", "-m", "pcm2pwm.cli",
                            "profile", "--input", "/dev/stdin", "--format",
                            "csv"],
                           input=wav, capture_output=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stderr == b""
    assert b"S0,mul,4410," in child.stdout


@pytest.mark.parametrize("command", ["convert", "profile"])
def test_unwritable_output_is_input_error(command, tmp_path, capsys):
    out = tmp_path / "missing" / "out"
    assert main([command, "--input", "sine:1000:-6:0.01",
                 "--output", str(out)]) == 2
    # the path given and the OS reason, never the temporary file convert
    # writes beside it, so the message reads the same on every run
    assert capsys.readouterr().err == (f"error: cannot write {out}: No such "
                                       f"file or directory\n")


@pytest.mark.skipif(hasattr(os, "geteuid") and os.geteuid() == 0,
                    reason="root writes into a read-only directory")
@pytest.mark.parametrize("command", ["convert", "profile"])
def test_read_only_output_directory(command, tmp_path, capsys):
    """--output into a directory the user may not write exits 2 with one
    error line, prints nothing on stdout and leaves the directory as it
    was: no output, no temporary file."""
    folder = tmp_path / "read-only"
    folder.mkdir()
    (folder / "kept").write_bytes(b"kept\n")
    listing = sorted(os.listdir(folder))
    out = folder / "out"
    folder.chmod(0o555)
    try:
        assert main([command, "--input", "sine:1000:-6:0.01",
                     "--output", str(out)]) == 2
    finally:
        folder.chmod(0o755)
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: Permission denied\n"
    assert captured.out == ""
    assert sorted(os.listdir(folder)) == listing


@pytest.mark.parametrize("command", ["convert", "profile"])
def test_empty_output_is_input_error(command, tmp_path, capsys, monkeypatch):
    """--output '' names no file: it is refused as such, not taken for
    stdout (profile) or for the working directory (convert)."""
    monkeypatch.chdir(tmp_path)
    assert main([command, "--input", "sine:1000:-6:0.01",
                 "--output", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --output '' names no file\n"
    assert captured.out == ""
    assert os.listdir(tmp_path) == []


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


def test_profile_takes_no_seed(capsys):
    """profile reads only an input's length and rate, so a seed could not
    change its report: --seed is an unknown option there, and only there."""
    with pytest.raises(SystemExit) as exit_:
        main(["profile", "--input", "noise:-6", "--seed", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    helps = {}
    for command in ("convert", "profile", "explore", "roundtrip"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        helps[command] = capsys.readouterr().out
    assert [c for c, text in helps.items() if "--seed" in text] == [
        "convert", "roundtrip"]


def test_profile_takes_one_source(capsys):
    """--input and --scenario are two ways to get cycle totals; given both,
    profile refuses rather than report one and drop the other."""
    assert main(["profile", "--input", "sine:1000:-6", "--scenario",
                 cli._bundled("baseline.scenario")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: profile takes --input or --scenario, not both\n")


def test_profile_deadline_is_for_scenarios_and_empty_inputs(capsys):
    """A clip's real-time goal is its own length, so --deadline-ms with an
    --input that has samples exits 2 rather than being dropped; --scenario
    and an empty --input take it."""
    assert main(["profile", "--input", "sine:1000:-6:1",
                 "--deadline-ms", "100"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --deadline-ms applies to --scenario or "
                            "an empty --input; a clip's goal is its own "
                            "length\n")
    for source in (["--input", "silence:0"],
                   ["--scenario", cli._bundled("baseline.scenario")]):
        assert main(["profile", *source, "--deadline-ms", "100"]) == 0
        assert capsys.readouterr().out.endswith(
            "goal: execution faster than 0.10 s of audio\n")
    assert main(["profile", "--input", "sine:1000:-6:1"]) == 0
    assert capsys.readouterr().out.endswith(
        "goal: execution faster than 1.00 s of audio\n")


def test_profile_goal_is_the_scenario_deadline(tmp_path, capsys):
    """Without --deadline-ms, profile --scenario judges the elements against
    the scenario's own deadline_ms, as explore does."""
    scenario = tmp_path / "3000.scenario"
    scenario.write_text(_edited("baseline.scenario", r"deadline_ms = \d+",
                                "deadline_ms = 3000"), encoding="utf-8")
    assert main(["profile", "--scenario", str(scenario)]) == 0
    assert capsys.readouterr().out.endswith(
        "goal: execution faster than 3.00 s of audio\n")
    assert main(["explore", "--scenario", str(scenario)]) == 0
    assert "deadline 3000.0 ms" in capsys.readouterr().out


def test_profile_refuses_a_scenario_deadline_of_0(tmp_path, capsys):
    """deadline_ms = 0 is a legal scenario, for which explore finds no
    mapping, but no real-time goal: profile needs --deadline-ms for it."""
    scenario = tmp_path / "0.scenario"
    scenario.write_text(_edited("baseline.scenario", r"deadline_ms = \d+",
                                "deadline_ms = 0"), encoding="utf-8")
    assert main(["profile", "--scenario", str(scenario)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {scenario}: deadline_ms = 0 is no "
                            f"real-time goal; give --deadline-ms\n")
    assert captured.out == ""
    assert main(["profile", "--scenario", str(scenario),
                 "--deadline-ms", "3000"]) == 0
    assert capsys.readouterr().out.endswith(
        "goal: execution faster than 3.00 s of audio\n")


@pytest.mark.parametrize("argv", [
    ["--scenario", cli._bundled("baseline.scenario")],
    ["--input", "sine:1000:-6:0.1", "--format", "csv"],
])
def test_profile_output_file_is_what_stdout_prints(argv, tmp_path, capsys):
    assert main(["profile", *argv]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "report.txt"
    assert main(["profile", *argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed


@pytest.mark.parametrize("source,n", [("noise:-6:200", 8_820_000),
                                      ("sine:1000:-6:0.00003", 1),
                                      ("silence:0", 0)])
def test_profile_does_not_run_the_chain(source, n, capsys, monkeypatch):
    """Counts come from the op model's closed form, even for inputs far
    past what one conversion could hold: they read the rates of
    chain.STAGES, whose rows also hold the steps, and call no stage."""
    def chain_must_not_run(*args, **kwargs):
        raise AssertionError("the chain ran")
    for name in ("convert_stream", "s0_condition", "upsample2", "linearize",
                 "noise_shape", "generate_pwm"):
        monkeypatch.setattr(chain, name, chain_must_not_run)
    assert main(["profile", "--input", source, "--format", "csv"]) == 0
    counts = {(parts[0], parts[1]): int(parts[2]) for parts in
              (line.split(",") for line in capsys.readouterr().out.splitlines())
              if parts[0] in chain.BEHAVIORS}
    assert counts["S0", "mul"] == n
    assert counts["S1", "mac"] == 63 * 2 * n
    assert counts["S3", "mac"] == 63 * 8 * n
    assert counts["LINE", "add"] == 6 * max(8 * n - 2, 0)
    assert counts["MOLD", "total"] == 12 * 8 * n


def test_profile_reads_only_the_length(short_sine_wav, capsys, monkeypatch):
    """profile takes a WAV's length from its header and a synthetic spec's
    from its SECONDS; no sample is read or made."""
    def must_not_read(self):
        raise AssertionError("samples were read")
    monkeypatch.setattr(audio_io.WavReader, "blocks", must_not_read)
    monkeypatch.setattr(cli._Synthetic, "blocks", must_not_read)
    for source in (short_sine_wav, "noise:-6:200", "sine:1000:-6"):
        assert main(["profile", "--input", source, "--format", "csv"]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize("value", ["3731.3004", "1e-300", "5e-324"])
def test_explore_deadline_finer_than_a_microsecond_is_input_error(value,
                                                                   capsys):
    """--deadline-ms takes a scenario's deadline_ms rule: whole
    microseconds, never rounded (3731.3004 ms rounded to 3731.300 would
    drop MOLD's 3731.3 ms, which beats it; 1e-300 would round to 0).
    profile reads it by the same rule (5e-324 ms / 1000 would underflow
    to a 0 s goal)."""
    for argv in (["explore"], ["profile", "--input", "silence:0"],
                 ["profile", "--scenario", _bundled("baseline.scenario")]):
        assert main([*argv, "--deadline-ms", value]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: --deadline-ms {value!r}: finer "
                                f"than microseconds\n")
        assert captured.out == ""


@pytest.mark.parametrize("source", ["option", "scenario"])
def test_explore_huge_deadline_selects_all_software(source, tmp_path, capsys):
    """A 1e308 ms deadline, on the command line or in a scenario, is
    met by every mapping, so the all-software one, the cheapest, wins."""
    if source == "option":
        argv = ["explore", "--deadline-ms", "1e308"]
    else:
        scenario = tmp_path / "huge.scenario"
        scenario.write_text(_edited("baseline.scenario",
                                    r"deadline_ms = \d+", "deadline_ms = 1e308"),
                            encoding="utf-8")
        argv = ["explore", "--scenario", str(scenario)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "selected: - (4548.9 ms, $9.00)" in captured.out
    assert captured.err == ""


def test_explore_pin(capsys):
    code = main(["explore", "--pin", "S0=sw"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all mappings (32)" in captured.out


def test_explore_bad_pin(capsys):
    assert main(["explore", "--pin", "S0=fpga"]) == 2


def test_explore_conflicting_pins(capsys):
    """Pinning one behavior to both sides is an input error naming both
    pins, not the last pin silently winning."""
    assert main(["explore", "--pin", "S0=hw", "--pin", "S0=sw"]) == 2
    assert capsys.readouterr().err == (
        "error: --pin S0=hw conflicts with --pin S0=sw\n")


def test_explore_repeated_pin_is_one_pin(capsys):
    assert main(["explore", "--pin", "S0=sw", "--pin", "S0=sw"]) == 0
    assert "all mappings (32)" in capsys.readouterr().out


@pytest.mark.parametrize("pin", [" S0 =hw", "S0 =hw", " S0=hw", "S0= hw",
                                 "S0=hw "])
def test_explore_pin_is_taken_as_typed(pin, capsys):
    """A space on either side of a pin makes it malformed, as an empty
    field makes a synthetic spec: neither side is stripped."""
    assert main(["explore", "--pin", pin]) == 2
    assert capsys.readouterr().err == (
        f"error: bad --pin {pin!r}, expected NAME=hw|sw\n")


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


def test_roundtrip_never_holds_the_whole_stream(capsys, monkeypatch):
    """roundtrip streams the chain into the demodulator: neither the
    whole-stream convert nor demodulate runs, and the report is theirs."""
    def whole_stream(*args, **kwargs):
        raise AssertionError("a whole PWM stream was built")
    monkeypatch.setattr(chain, "convert", whole_stream)
    monkeypatch.setattr(verification, "demodulate", whole_stream)
    assert main(["roundtrip", "--input", "sine:1000:-6:0.5"]) == 0
    assert capsys.readouterr().out == ("fundamental: 1000.0 Hz\n"
                                       "snr: 68.16 dB\n"
                                       "thd: -84.89 dB\n"
                                       "inband noise (rel): 5.839e-08\n")


def test_roundtrip_too_short_is_input_error(capsys):
    code = main(["roundtrip", "--input", "sine:1000:-6:0.001"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: only 44 overlapping samples\n"


def test_roundtrip_worker_audio_is_the_in_process_audio(monkeypatch, capsys):
    """The audio the worker sends back is, byte for byte, what
    demodulate_stream(convert_stream(...)) makes in this process."""
    scored = []
    real = verification.measure

    def keep_test(ref, test, rate):
        scored.append(test)
        return real(ref, test, rate)
    monkeypatch.setattr(verification, "measure", keep_test)
    assert main(["roundtrip", "--input", "sine:1000:-6:0.5"]) == 0
    capsys.readouterr()
    with cli._open_input("sine:1000:-6:0.5", 0) as source:
        n = source.frame_count
        here = np.concatenate(list(verification.demodulate_stream(
            chain.convert_stream(source.blocks(), 44100), n_bits=n * 1024,
            clock_hz=44100 * 1024)))
    assert scored[0].dtype == here.dtype
    assert scored[0].tobytes() == here.tobytes()


@pytest.mark.parametrize("spec, code", [
    ("sine:1000:-6:0.5", 0),    # success
    ("sine:1000:-6:0.001", 2),  # measure's LengthMismatch, after the worker
    ("noise:-6:0.5", 4),        # below the floor
])
def test_roundtrip_leaves_no_worker(spec, code, capsys):
    assert main(["roundtrip", "--input", spec]) == code
    capsys.readouterr()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt])
def test_converter_failure_leaves_no_worker(failure, monkeypatch):
    """A chain stage that raises mid-stream ends the roundtrip with its
    exception, and the worker, which sees the pipe close, is gone."""
    calls = []
    real = chain.noise_shape

    def fails_on_third_block(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise failure("stage failed mid-stream")
        return real(*args, **kwargs)
    monkeypatch.setattr(chain, "noise_shape", fails_on_third_block)
    with pytest.raises(failure):
        main(["roundtrip", "--input", "sine:1000:-6:0.5"])
    assert len(calls) == 3
    assert multiprocessing.active_children() == []


def run_patched_roundtrip(patch, *argv, **popen):
    """`pcm2pwm roundtrip` in a fresh interpreter, with
    verification.demodulate_stream replaced by the `demodulate_stream`
    that the source `patch` defines (`real` is the original).  The worker
    is forked from that interpreter, so it runs the patch.  Returns the
    completed process, or with `popen` the started one."""
    script = ("import os, signal, sys\n"
              "import numpy as np\n"
              "from pcm2pwm import cli, verification\n"
              "real = verification.demodulate_stream\n"
              + patch +
              "verification.demodulate_stream = demodulate_stream\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    cmd = [sys.executable, "-c", script, "roundtrip", *argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    if popen:
        return subprocess.Popen(cmd, env=env, **popen)
    return subprocess.run(cmd, capture_output=True, encoding="utf-8",
                          env=env, timeout=120)


# a 2 s clip makes 11.3 MB of payload, far more than the pipe's OS
# default buffer holds, so the parent is still sending when the worker
# stops reading
TWO_SECONDS = ("--input", "sine:1000:-6:2")
AFTER_TWO_BLOCKS = ("def demodulate_stream(blocks, **stream):\n"
                    "    for i, _ in enumerate(blocks):\n"
                    "        if i == 2:\n"
                    "            {}\n"
                    "        yield np.zeros(1)\n")


@pytest.mark.parametrize("patch", [
    "def demodulate_stream(blocks, **stream):\n"
    "    raise verification.MalformedStream('no stage fits')\n",
    AFTER_TWO_BLOCKS.format(
        "raise verification.MalformedStream('no stage fits')"),
], ids=["at-once", "after-two-blocks"])
def test_worker_exception_is_raised_in_the_parent(patch):
    """An exception in the worker comes back and takes the parent's path:
    MalformedStream exits 2 with its one error line, and no traceback."""
    child = run_patched_roundtrip(patch, *TWO_SECONDS)
    assert (child.returncode, child.stdout, child.stderr) == (
        2, "", "error: no stage fits\n")


@pytest.mark.parametrize("patch, status", [
    ("def demodulate_stream(blocks, **stream):\n"
     "    os._exit(3)\n", 3),
    (AFTER_TWO_BLOCKS.format("os._exit(3)"), 3),
    (AFTER_TWO_BLOCKS.format("os.kill(os.getpid(), signal.SIGKILL)"),
     -signal.SIGKILL),
], ids=["exit-at-once", "exit-after-two-blocks", "killed-after-two-blocks"])
def test_dead_worker_exits_1(patch, status):
    """A worker that dies without a reply is one error line and exit 1:
    never a traceback, and never the closed-stdout 141 of the parent's
    broken pipe to it."""
    child = run_patched_roundtrip(patch, *TWO_SECONDS)
    assert EXIT_WORKER == 1
    assert (child.returncode, child.stdout, child.stderr) == (
        EXIT_WORKER, "", "error: the demodulator worker ended without a "
                         f"reply (exit code {status})\n")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="pinning a process to one CPU needs Linux")
def test_roundtrip_on_one_cpu(capsys):
    """Pinned to one CPU, the chain and the worker take turns at a pipe at
    the OS default buffer, with 11.3 MB of payload to pass: the roundtrip
    prints the report an unpinned one prints, exits 0 and leaves no
    process."""
    assert main(["roundtrip", *TWO_SECONDS]) == 0
    unpinned = capsys.readouterr().out
    child = run_patched_roundtrip(
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "demodulate_stream = real\n", *TWO_SECONDS, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, encoding="utf-8", start_new_session=True)
    try:
        out, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert (child.returncode, out, err) == (0, unpinned, "")
    with pytest.raises(ProcessLookupError):  # no process left in the group
        os.killpg(child.pid, 0)


def test_worker_ignores_sigint():
    """A SIGINT that reaches the worker changes nothing: the roundtrip
    finishes with its report."""
    child = run_patched_roundtrip(
        "def demodulate_stream(blocks, **stream):\n"
        "    os.kill(os.getpid(), signal.SIGINT)\n"
        "    return real(blocks, **stream)\n",
        "--input", "sine:1000:-6:0.5")
    assert (child.returncode, child.stderr) == (0, "")
    assert child.stdout.startswith("fundamental: 1000.0 Hz\nsnr: 68.16 dB\n")


def test_ctrl_c_prints_one_traceback():
    """Ctrl-C reaches the whole process group, parent and worker, while the
    chain runs: the parent prints the one traceback, and the worker, which
    ignores SIGINT, leaves on EOF before the parent ends."""
    child = run_patched_roundtrip(
        "def demodulate_stream(blocks, **stream):\n"
        "    print('worker started', flush=True)\n"
        "    return real(blocks, **stream)\n",
        "--input", "sine:1000:-6:20", stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, encoding="utf-8", start_new_session=True)
    try:
        assert child.stdout.readline() == "worker started\n"
        os.killpg(child.pid, signal.SIGINT)
        _, err = child.communicate(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == -signal.SIGINT
    assert err.count("Traceback") == 1
    assert err.endswith("KeyboardInterrupt\n")
    with pytest.raises(ProcessLookupError):  # no process left in the group
        os.killpg(child.pid, 0)


# --- bad numbers ------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    "sine:1000:-6:inf", "silence:inf", "noise:-6:inf", "sine:inf:-6:0.01",
    "sine:nan:-6:0.01", "sine:1000:nan:0.5", "noise:nan", "sine:1000:1e308",
    "silence:-1", "sine:1000:-6:-1", "noise:-6:-0.5", "sine:-1000:-6:0.01",
    "sine:1000", "silence:1:2", "noise:x", "sine:1000::0.05", "noise::0.05",
    "sine:1000:-6:", "silence:"])
@pytest.mark.parametrize("command", ["convert", "profile", "roundtrip"])
def test_bad_synthetic_spec_is_input_error(command, spec, tmp_path, capsys):
    argv = [command, "--input", spec]
    if command == "convert":
        argv += ["--output", str(tmp_path / "out.pwm")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: bad synthetic signal spec {spec}\n"
    assert captured.out == ""


@pytest.mark.parametrize("spec,code", [("sine:0:-6", 0), ("sine:-1:-6", 2)])
def test_sine_frequency_may_be_zero(spec, code, capsys):
    """FREQ 0 is a valid (silent) sine; any negative FREQ is refused."""
    assert main(["profile", "--input", spec]) == code
    err = capsys.readouterr().err
    assert err == ("" if code == 0 else
                   f"error: bad synthetic signal spec {spec}\n")


@pytest.mark.parametrize("argv", [
    ["explore", "--deadline-ms", "inf"],
    ["explore", "--deadline-ms", "nan"],
    ["explore", "--deadline-ms", "-5"],
    ["explore", "--deadline-ms", "0"],
    ["profile", "--scenario", "BUNDLED", "--deadline-ms", "0"],
    ["profile", "--scenario", "BUNDLED", "--deadline-ms", "-1"],
    ["profile", "--scenario", "BUNDLED", "--deadline-ms", "inf"],
    ["profile", "--input", "silence:0", "--deadline-ms", "nan"],
    ["roundtrip", "--input", "sine:1000:-6:0.3", "--snr-floor-db", "nan"],
    ["roundtrip", "--input", "sine:1000:-6:0.3", "--snr-floor-db", "inf"],
])
def test_bad_numeric_option_is_input_error(argv, capsys):
    argv = [_bundled("baseline.scenario") if a == "BUNDLED" else a
            for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    option, value = argv[-2:]
    assert captured.err.startswith(f"error: {option} {value} is not a finite ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def _bundled(name):
    from importlib import resources
    return str(resources.files("pcm2pwm").joinpath("data", name))


# --- malformed scenario and element library files ---------------------------

def _many_behaviors(n):
    rows = "".join(f"[behavior B{i}]\nt_hw_ms = 1\nt_sw_ms = 2\ncode_size = 1\n"
                   for i in range(n))
    return rows + ("[cost_model]\nsw_fixed_cost = 9\nhw_total_cost = 30\n"
                   "deadline_ms = 4300\n")


def _edited(name, pattern, new):
    """A bundled data file with every match of `pattern` replaced."""
    with open(_bundled(name), encoding="utf-8") as fh:
        text, count = re.subn(pattern, new, fh.read())
    assert count
    return text


# option, file content (None: no file, "DIR": a directory), command
_BAD_FILES = {
    "all-code-sizes-zero": ("--scenario", _edited(
        "baseline.scenario", r"code_size = \d+", "code_size = 0"), "explore"),
    "21-behaviors": ("--scenario", _many_behaviors(21), "explore"),
    "no-t_hw_ms": ("--scenario", _edited("baseline.scenario",
                                         r"t_hw_ms = 2\.2\n", ""), "explore"),
    "duplicate-section": ("--scenario", _edited(
        "baseline.scenario", r"\[behavior S1\]", "[behavior S0]"), "explore"),
    "no-section-header": ("--scenario", "t_hw_ms = 2.2\n" + _many_behaviors(2),
                          "explore"),
    "scenario-directory": ("--scenario", "DIR", "explore"),
    "negative-cycles": ("--scenario", _edited("baseline.scenario",
                                              "DSP = 272935511", "DSP = -1"),
                        "profile"),
    "pe-lib-missing": ("--pe-lib", None, "profile"),
    "pe-lib-directory": ("--pe-lib", "DIR", "profile"),
    "pe-lib-bad-entry": ("--pe-lib", _edited("pe_library.ini", "freq_mhz = 60",
                                             "freq_mhz = fast"), "profile"),
    "pe-lib-not-utf8": ("--pe-lib", _edited("pe_library.ini", "DSP 56600",
                                            "DSP\udcff 56600"), "profile"),
    "pe-lib-no-weight": ("--pe-lib", _edited("pe_library.ini", "mac:3, ", ""),
                         "profile"),
    "pe-lib-unknown-op": ("--pe-lib", _edited("pe_library.ini", "mac:3",
                                              "fma:3"), "profile"),
    "pe-lib-no-sections": ("--pe-lib", "; no elements\n", "profile"),
    "pe-lib-weight-without-colon": ("--pe-lib", _edited(
        "pe_library.ini", "mac:3", "mac3"), "profile"),
    "no-principal-cycles": ("--scenario", _edited(
        "baseline.scenario", r"\[principal_cycles\]\n(.+\n)*", ""),
        "profile"),
    "unknown-element-cycles": ("--scenario", _edited(
        "baseline.scenario", "HW = 250224089", "FPGA = 250224089"),
        "profile"),
    "no-behavior-sections": ("--scenario", _many_behaviors(0), "explore"),
    "no-cost-model": ("--scenario",
                      _many_behaviors(2).split("[cost_model]")[0], "explore"),
    "time-finer-than-1-us": ("--scenario", _edited(
        "baseline.scenario", r"t_hw_ms = 2\.2\n", "t_hw_ms = 2.2001\n"),
        "explore"),
}


@pytest.mark.parametrize("case", sorted(_BAD_FILES))
def test_malformed_file_is_input_error(case, tmp_path, capsys):
    """A missing, unreadable or malformed scenario or element library exits
    2 with one error line, never a traceback."""
    option, content, command = _BAD_FILES[case]
    path = tmp_path / "file.ini"
    if content == "DIR":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content.encode("utf-8", "surrogateescape"))
    argv = [command, option, str(path)]
    if command == "profile" and option == "--pe-lib":
        argv += ["--input", "silence:0.01"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    if content is None:
        assert captured.err == f"error: input not found: {path}\n"
    if case in _WHOLE_LINES:
        assert captured.err == f"error: {path}: {_WHOLE_LINES[case]}\n"


# the whole line after "error: <path>: " of refusals that must name their
# file although they are made once its content is parsed
_WHOLE_LINES = {
    "pe-lib-no-weight": "bad element entry [uP]: no weight for mac",
    "21-behaviors": "21 behaviors, cap is 20"}


@pytest.mark.parametrize("source", [
    ["--input", "silence:0"], ["--scenario", _bundled("baseline.scenario")]],
    ids=["empty-input", "scenario"])
def test_element_without_a_weight_is_refused_at_load(source, tmp_path,
                                                     capsys):
    """An element that lacks an op kind's weight is refused when its
    library is loaded, naming the file, even where profile counts no
    operation with it: an empty input, or a scenario's totals
    (pe-lib-no-weight above is the clip's case)."""
    path = tmp_path / "lib.ini"
    path.write_text(_BAD_FILES["pe-lib-no-weight"][1], encoding="utf-8")
    assert main(["profile", *source, "--pe-lib", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}: bad element entry "
                                       f"[uP]: no weight for mac\n")


def test_behavior_cap_is_explores_alone(tmp_path, capsys):
    """21 behaviors are over explore's cap of 20 mappable ones (the
    21-behaviors case above); profile reads the same file's cycle totals
    and never enumerates mappings, so it takes it."""
    path = tmp_path / "wide.scenario"
    rows = "".join(f"[behavior B{i}]\nt_hw_ms = 1\nt_sw_ms = 2\n"
                   f"code_size = 1\n\n" for i in range(15))
    # in place of the quoted totals, which the new rows would contradict
    path.write_text(_edited("baseline.scenario",
                            r"\[expected_totals\]\n(.+\n)*", rows),
                    encoding="utf-8")
    assert main(["explore", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err.endswith(": 21 behaviors, cap is 20\n")
    assert main(["profile", "--scenario", str(path)]) == 0
    assert capsys.readouterr().err == ""


# a field the report prints as a float, set to what no float holds, and a
# cost that is no finite price: (file, pattern, new text, commands,
# message after "error: <path>: ")
_DIGITS = "9" * 401
_SCENARIO_READERS = (["explore", "--scenario"], ["profile", "--scenario"])
_PE_LIB_READERS = (["profile", "--input", "sine:1000:-6:0.1", "--pe-lib"],)
_SLOWEST = "t_hw_ms, t_sw_ms (the slowest mapping): more than a float holds"
_DEAREST = ("sw_fixed_cost + hw_total_cost (the dearest mapping): more than "
            "a float holds")
_HEAVIEST = ("bad element entry [DSP]: one op of the heaviest weight at "
             "freq_mhz takes more seconds than a float holds")
_REFUSED_VALUES = {
    "deadline_ms": ("baseline.scenario", "deadline_ms = 4300",
                    "deadline_ms = 1e309", _SCENARIO_READERS,
                    "deadline_ms: more than a float holds"),
    "t_hw_ms": ("baseline.scenario", r"t_hw_ms = 2\.2\n",
                "t_hw_ms = 1e309\n", _SCENARIO_READERS, _SLOWEST),
    "t_sw_ms": ("baseline.scenario", r"t_sw_ms = 5\.4\n",
                f"t_sw_ms = {_DIGITS}\n", _SCENARIO_READERS, _SLOWEST),
    "two-t_hw_ms-summed": ("baseline.scenario", r"t_hw_ms = (2\.2|183\.3)\n",
                           "t_hw_ms = 1e308\n", _SCENARIO_READERS, _SLOWEST),
    "sw_fixed_cost": ("baseline.scenario", "sw_fixed_cost = 9.00",
                      "sw_fixed_cost = 1e309", _SCENARIO_READERS, _DEAREST),
    "hw_total_cost": ("baseline.scenario", "hw_total_cost = 34.76",
                      "hw_total_cost = 1e309", _SCENARIO_READERS, _DEAREST),
    "nominal_hw_cost": ("baseline.scenario", "nominal_hw_cost = 35.00",
                        "nominal_hw_cost = 1e309", _SCENARIO_READERS,
                        "nominal_hw_cost: more than a float holds"),
    "negative-nominal_hw_cost": ("baseline.scenario", "nominal_hw_cost = 35.00",
                                 "nominal_hw_cost = -1", _SCENARIO_READERS,
                                 "nominal_hw_cost must be non-negative"),
    "hw_total_ms": ("baseline.scenario", "hw_total_ms = 2502.5",
                    "hw_total_ms = 1e309", _SCENARIO_READERS,
                    "hw_total_ms: more than a float holds"),
    "principal_cycles": ("baseline.scenario", "DSP = 272935511",
                         f"DSP = {_DIGITS}", (["profile", "--scenario"],),
                         "[principal_cycles] DSP takes more seconds than a "
                         "float holds"),
    "freq_mhz": ("pe_library.ini", "freq_mhz = 60", "freq_mhz = 1e-400",
                 _PE_LIB_READERS, _HEAVIEST),
    "weight": ("pe_library.ini", "add:1, mul:1, mac:1",
               f"add:1, mul:1, mac:{_DIGITS}", _PE_LIB_READERS, _HEAVIEST),
    "cost-nan": ("pe_library.ini", "cost = 8.00", "cost = nan",
                 _PE_LIB_READERS, "bad element entry [DSP]: cost must be "
                                  "finite and non-negative"),
    "cost-inf": ("pe_library.ini", "cost = 8.00", "cost = inf",
                 _PE_LIB_READERS, "bad element entry [DSP]: cost must be "
                                  "finite and non-negative"),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_VALUES))
def test_file_value_no_float_holds_is_input_error(case, tmp_path, capsys):
    """A field whose value, or whose sum with its like, the report cannot
    print as a float, and a cost that is no finite price, exit 2 with one
    error line naming the file and the field, never an OverflowError
    traceback."""
    name, pattern, new, readers, message = _REFUSED_VALUES[case]
    path = tmp_path / name
    path.write_text(_edited(name, pattern, new), encoding="utf-8")
    for reader in readers:
        assert main([*reader, str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {path}: {message}\n")


def test_explore_lead_that_no_float_holds_is_input_error(tmp_path, capsys):
    """Each time prints, but the trade-off line's lead of all-software (S3
    at 1e308 ms) over S3 in hardware, in %, would be more than a float
    holds."""
    path = tmp_path / "lead.scenario"
    path.write_text("[behavior S0]\nt_hw_ms = 0.001\nt_sw_ms = 0.001\n"
                    "code_size = 1\n[behavior S3]\nt_hw_ms = 0.001\n"
                    "t_sw_ms = 1e308\ncode_size = 1\n[cost_model]\n"
                    "sw_fixed_cost = 9\nhw_total_cost = 30\n"
                    "deadline_ms = 1.7e308\n", encoding="utf-8")
    assert main(["explore", "--scenario", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: t_hw_ms, t_sw_ms (the slowest mapping's lead over "
        f"the fastest): more than a float holds\n")


def test_profile_length_that_no_float_holds_is_input_error(tmp_path,
                                                            capsys):
    """A weight whose one op prints, times the ops of an input too long for
    its time to print, exits 2 naming the input, the library and the
    element; a shorter input profiles."""
    lib = tmp_path / "pe.ini"
    lib.write_text(_edited("pe_library.ini", "add:1, mul:1, mac:1",
                           "add:1, mul:1, mac:1" + "0" * 308),
                   encoding="utf-8")
    assert main(["profile", "--input", "silence:1", "--pe-lib",
                 str(lib)]) == 0
    capsys.readouterr()
    assert main(["profile", "--input", "silence:10", "--pe-lib",
                 str(lib)]) == 2
    assert capsys.readouterr().err == (
        f"error: silence:10 on {lib}: DSP takes more seconds than a float "
        f"holds\n")


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


# --- packaging ------------------------------------------------------------

def test_pyproject_installs_the_cli_and_its_data():
    """The installed package runs: the console script is cli.main, and
    every data file _bundled names ships as package data."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)
    module, _, attr = project["project"]["scripts"]["pcm2pwm"].partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
    globs = project["tool"]["setuptools"]["package-data"]["pcm2pwm"]
    names = re.findall(r'_bundled\("([^"]+)"\)', inspect.getsource(cli))
    assert sorted(names) == ["baseline.scenario", "pe_library.ini"]
    for name in names:
        assert any(fnmatch.fnmatch(f"data/{name}", g) for g in globs), name
        assert Path(cli._bundled(name)).is_file(), name
