"""Contract test of the library's public functions (ROADMAP item 11, after
Claessen & Hughes, "QuickCheck", ICFP 2000).

Each public function of audio_io, chain, verification and profiler that
takes an array, a count or a rate is given arrays of every dtype (complex
and object too, floats with NaN and inf), with 0, 1 or 2 dimensions and
empty ones, and counts or rates that are 0, negative, bool, float, NaN or
infinite.  A call must return its documented result exactly when its
input is documented as valid, and otherwise raise a documented exception:
ValueError or its subclasses MalformedStream and LengthMismatch, and
IndexError for out-of-range PWM codes.  Any other exception, and any
warning, fails.  Every test runs each edge array and edge count in each
argument as an explicit example, then hypothesis's own draws, which run
derandomized, so tier-1 is reproducible.  LINE and measure are also
drawn finite samples too large for their arithmetic.
Paths (read_wav, read_pwm) are fuzzed over bytes in test_audio_io.

The command line's half gives every numeric option of every subcommand,
and every number of a synthetic spec, each of NUMBERS, explore each of
PINS, and convert and profile each of OUTPUTS, in-process through
cli.main: the exit code must be one the cli docstring lists, nothing may
print a traceback, and a nonzero exit prints one error line.  A command
given --output prints no report on stdout and leaves no temporary file
beside it.  Every path option of every subcommand given '' exits 2 with
one error line naming the option, printing and writing nothing, and
every input file option given a missing path or a directory exits 2 with
one error line naming the file once.  The bundled scenario and element
library, each field set to each of FIELD_VALUES, each key, section or
pair of fields edited, go through every command that reads them by the
same contract; a field that is no number is refused.
"""

import fnmatch
import math
import os
import re
import tempfile
import warnings
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pcm2pwm import audio_io, chain, cli, profiler, verification
from pcm2pwm.audio_io import PcmStream, PwmBitstream

CONTRACT = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)

DTYPES = (np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8,
          np.uint16, np.uint64, np.float32, np.float64, np.complex128,
          object)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# finite samples up to 1e150 must be taken; larger ones, drawn for LINE and
# measure, may overflow their arithmetic, and are then refused
TAKEN = 1e150
HUGE = st.sampled_from([TAKEN, 1e155, 1e308]).flatmap(
    lambda v: st.sampled_from([v, -v]))
# counts and rates: valid ones, and 0, negative, bool, float, NaN and inf
COUNTS = st.sampled_from([0, 1, 3, 8, 31, 128, 1024, 44100, np.int64(8),
                          -1, -1024, True, False, 1.5, 8.0, 44100.0,
                          math.nan, math.inf, -math.inf])
RATE_CLOCK = 1024 * 44100  # a chain's bit clock at 44.1 kHz
EDGE_ARRAYS = (np.zeros(3, complex), np.array([0, 1, None], dtype=object),
               np.array([0.0, 1.0, 0.5]), np.array([0.0, math.nan, 0.5]),
               np.array([0.0, math.inf, 0.5]), np.array(1, np.int16),
               np.zeros((2, 3), np.int16), np.zeros(0, np.int16),
               np.zeros(0), np.array([True, False, True]))
EDGE_COUNTS = (0, -1, True, False, 1.5, 8.0, math.nan, math.inf, -math.inf,
               np.int64(8))


def _elements(dtype):
    """Element values for `dtype`: small ones (0/1 bits, 7-bit codes) as
    often as the dtype's full range, and NaN and inf among floats."""
    kind = np.dtype(dtype).kind
    if kind == "f":
        width = 8 * np.dtype(dtype).itemsize
        return st.floats(-4, 4, width=width) | NON_FINITE
    if kind == "c":
        return st.complex_numbers(max_magnitude=4)
    if kind == "O":
        return st.integers(-2, 2) | st.floats(-1, 1)
    if kind in "iu":
        info = np.iinfo(dtype)
        return (st.integers(max(info.min, -2), min(info.max, 130))
                | hnp.from_dtype(np.dtype(dtype)))
    return None


@st.composite
def arrays(draw, valid, lengths=st.integers(0, 40)):
    """An array of any dtype, 0-d, 1-d (empty too) or 2-d; or, half the
    time, a 1-D array of the (dtype, elements) the function takes."""
    n = draw(lengths)
    if draw(st.booleans()):
        return draw(hnp.arrays(valid[0], n, elements=valid[1]))
    dtype = draw(st.sampled_from(DTYPES))
    shape = draw(st.sampled_from([(), (n,), (n,), (2, n // 2)]))
    return draw(hnp.arrays(dtype, shape, elements=_elements(dtype)))


def edges(varied, **fixed):
    """Explicit hypothesis examples: each edge array (or count) in each
    array (or count) argument of `varied` in turn, the others as given."""
    def decorate(test):
        for name, default in varied.items():
            pool = (EDGE_ARRAYS if isinstance(default, np.ndarray)
                    else EDGE_COUNTS)
            for value in pool:
                test = example(**{**varied, **fixed, name: value})(test)
        return test
    return decorate


REFUSED = object()


def outcome(call, allowed=(ValueError,)):
    """call()'s result, or REFUSED if it raised one of `allowed`; any other
    exception, and any warning, fails the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except allowed:
            return REFUSED


def is_vector(x, kinds) -> bool:
    return x.ndim == 1 and issubclass(x.dtype.type, kinds)


def is_count(value, least) -> bool:
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= least)


REAL = (np.bool_, np.integer, np.floating)


# --- audio_io ----------------------------------------------------------------

@CONTRACT
@given(arrays((np.int16, None)), COUNTS)
@edges(dict(x=np.zeros(4, np.int16), rate=44100))
def test_pcm_stream(x, rate):
    pcm = outcome(lambda: PcmStream(x, rate))
    valid = (is_vector(x, np.integer) and is_count(rate, 1)
             and all(-32768 <= v <= 32767 for v in x.tolist()))
    assert (pcm is not REFUSED) == valid
    if valid:
        assert pcm.samples.dtype == np.int16
        assert pcm.samples.tolist() == x.tolist()


@CONTRACT
@given(arrays((np.uint8, st.integers(0, 1))), COUNTS, COUNTS)
@edges(dict(x=np.zeros(8, np.uint8), clock_hz=8, frame_bits=8))
def test_pwm_from_bits(x, clock_hz, frame_bits):
    stream = outcome(lambda: PwmBitstream.from_bits(x, clock_hz, frame_bits))
    valid = (is_vector(x, (np.bool_, np.integer))
             and set(x.tolist()) <= {0, 1} and is_count(clock_hz, 0)
             and is_count(frame_bits, 1) and len(x) % frame_bits == 0)
    assert (stream is not REFUSED) == valid
    if valid:
        assert stream.bits.tolist() == x.astype(np.uint8).tolist()


@CONTRACT
@given(arrays((np.uint8, None)), st.one_of(COUNTS, st.none()), COUNTS,
       COUNTS)
@edges(dict(x=np.zeros(1, np.uint8), n_bits=8, clock_hz=8, frame_bits=8))
def test_pwm_stream_and_writer(x, n_bits, clock_hz, frame_bits):
    """PwmBitstream and write_pwm_blocks share the PWM1 rules; n_bits None
    stands for the bit count a 1-D payload holds."""
    n_bits = 8 * (len(x) if x.ndim == 1 else 1) if n_bits is None else n_bits
    fields = dict(n_bits=n_bits, clock_hz=clock_hz, frame_bits=frame_bits)
    header = (is_count(n_bits, 0) and is_count(clock_hz, 0)
              and is_count(frame_bits, 1) and n_bits % frame_bits == 0)
    checked = outcome(lambda: audio_io.check_pwm_header(**fields))
    assert (checked is not REFUSED) == header
    stream = outcome(lambda: PwmBitstream(payload=x, **fields))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/out.pwm"
        written = outcome(lambda: audio_io.write_pwm_blocks([x], path,
                                                            **fields))
        if written is not REFUSED:
            assert audio_io.read_pwm(path) == stream
    valid = (header and is_vector(x, np.uint8)
             and len(x) == (n_bits + 7) // 8
             and not (n_bits % 8 and x[-1] >> n_bits % 8))
    assert (stream is not REFUSED) == (written is not REFUSED) == valid


@CONTRACT
@given(arrays((np.int16, None)), st.one_of(COUNTS, st.none()),
       st.sampled_from([np.int16, np.uint8, np.float64]))
@edges(dict(x=np.zeros(8, np.int16), n=8), dtype=np.int16)
def test_collect(x, n, dtype):
    n = len(x) if n is None and x.ndim == 1 else n
    out = outcome(lambda: audio_io.collect([x], n, dtype))
    valid = is_vector(x, dtype) and n == len(x) and is_count(n, 0)
    assert (out is not REFUSED) == valid
    if valid:
        assert out.dtype == dtype and out.tobytes() == x.tobytes()


# --- chain -------------------------------------------------------------------

@CONTRACT
@given(arrays((np.float64, st.floats(-1, 1) | HUGE)))
@edges(dict(x=np.zeros(4)))
@example(x=np.array([0.1, 1e155, 0.2]))
@example(x=np.array([1e308, -1e308, 1e308]))
def test_float_stages(x):
    """S0 takes 1-D int16 samples; S1-S3, LINE and MOLD 1-D real ones, LINE
    and MOLD finite ones too, and S1-S3 at least one.  LINE and MOLD may
    refuse finite samples beyond TAKEN."""
    y = outcome(lambda: chain.s0_condition(x))
    assert (y is not REFUSED) == is_vector(x, np.int16)
    if y is not REFUSED:
        assert y.dtype == np.float64 and np.array_equal(y, x / 32768)

    real = is_vector(x, REAL)
    finite = real and np.isfinite(x).all()
    huge = finite and bool(np.any(np.abs(x) > TAKEN))
    y = outcome(lambda: chain.upsample2(x))
    assert (y is not REFUSED) == (real and len(x) > 0)
    if y is not REFUSED:
        assert y.dtype == np.float64 and len(y) == 2 * len(x)
        assert np.all(np.isnan(y) | (np.abs(y) <= 1.0))
    y = outcome(lambda: chain.linearize(x))
    assert (y is not REFUSED) == finite or (huge and y is REFUSED)
    if y is not REFUSED:
        assert y.dtype == np.float64 and len(y) == len(x)
    codes = outcome(lambda: chain.noise_shape(x))
    assert (codes is not REFUSED) == finite or (huge and codes is REFUSED)
    if codes is not REFUSED:
        assert codes.dtype == np.uint8 and len(codes) == len(x)
        assert np.all(codes < chain.FRAME_BITS)


@CONTRACT
@given(arrays((np.uint8, st.integers(0, 127))), COUNTS)
@edges(dict(codes=np.zeros(2, np.uint8), rate=44100))
def test_generate_pwm(codes, rate):
    valid = is_vector(codes, (np.bool_, np.integer)) and is_count(rate, 0)
    if valid and not all(0 <= c < chain.FRAME_BITS for c in codes.tolist()):
        refused = outcome(lambda: chain.generate_pwm(codes, rate),
                          (IndexError,))
        assert refused is REFUSED
        return
    pwm = outcome(lambda: chain.generate_pwm(codes, rate))
    assert (pwm is not REFUSED) == valid
    if valid:
        assert len(pwm) == chain.FRAME_BITS * len(codes)
        assert pwm.clock_hz == chain.FRAME_BITS * rate
        assert pwm.frame_count == len(codes)


@CONTRACT
@given(arrays((np.int16, None), st.integers(0, 12)), COUNTS)
@edges(dict(x=np.zeros(4, np.int16), rate=44100))
def test_convert_stream_and_convert(x, rate):
    payload = outcome(lambda: list(chain.convert_stream([x], rate)))
    valid = is_vector(x, np.int16) and len(x) > 0 and is_count(rate, 1)
    assert (payload is not REFUSED) == valid
    if valid:
        pwm = chain.convert(PcmStream(x, rate))
        assert np.concatenate(payload).tobytes() == pwm.payload.tobytes()
        assert len(pwm) == chain.PWM_BITS_PER_SAMPLE * len(x)


@CONTRACT
@given(COUNTS, st.floats(allow_nan=True, allow_infinity=True))
@edges(dict(num_taps=31), cutoff=0.25)
def test_windowed_sinc_lowpass(num_taps, cutoff):
    taps = outcome(lambda: chain.windowed_sinc_lowpass(num_taps, cutoff))
    valid = is_count(num_taps, 3) and num_taps % 2 and 0 < cutoff < 0.5
    assert (taps is not REFUSED) == bool(valid)
    if valid:
        assert len(taps) == num_taps and math.isclose(taps.sum(), 1.0)


# --- verification ------------------------------------------------------------

@CONTRACT
@given(arrays((np.uint8, None)), st.one_of(COUNTS, st.none()),
       st.one_of(COUNTS, st.just(RATE_CLOCK)))
@edges(dict(x=np.zeros(16, np.uint8), n_bits=128, clock_hz=RATE_CLOCK))
@example(x=np.zeros(16, np.uint8), n_bits=np.int64(128), clock_hz=RATE_CLOCK)
def test_demodulate_stream(x, n_bits, clock_hz):
    n_bits = 8 * (len(x) if x.ndim == 1 else 1) if n_bits is None else n_bits
    audio = outcome(lambda: list(verification.demodulate_stream(
        [x], n_bits=n_bits, clock_hz=clock_hz)))
    valid = (is_vector(x, np.uint8) and is_count(n_bits, 0)
             and n_bits % chain.FRAME_BITS == 0
             and len(x) == (n_bits + 7) // 8
             and not (n_bits % 8 and x[-1] >> n_bits % 8)
             and is_count(clock_hz, 1) and clock_hz % 1024 == 0)
    assert (audio is not REFUSED) == valid
    if valid:
        y = np.concatenate(audio) if audio else np.zeros(0)
        assert len(y) == n_bits // chain.PWM_BITS_PER_SAMPLE
        assert np.all(np.abs(y) <= 1.0)


@CONTRACT
@given(st.integers(0, 3), st.sampled_from([64, 128, 1024]),
       st.one_of(COUNTS, st.just(RATE_CLOCK)))
@edges(dict(clock_hz=RATE_CLOCK), n_samples=1, frame_bits=128)
def test_demodulate(n_samples, frame_bits, clock_hz):
    pwm = outcome(lambda: PwmBitstream.from_bits(
        np.zeros(1024 * n_samples, np.uint8), clock_hz, frame_bits))
    if pwm is REFUSED:
        return
    audio = outcome(lambda: verification.demodulate(pwm))
    valid = (frame_bits == chain.FRAME_BITS and clock_hz != 0
             and clock_hz % 1024 == 0)
    assert (audio is not REFUSED) == valid
    if valid:
        assert audio.tolist() == [0.0] * n_samples


@CONTRACT
@given(arrays((np.float64, st.floats(-1, 1) | HUGE), st.integers(250, 300)),
       COUNTS, st.booleans())
@edges(dict(x=np.zeros(300), rate=44100), as_test=True)
@edges(dict(x=np.zeros(300)), rate=44100, as_test=False)
@example(x=np.full(300, 1e155), rate=44100, as_test=True)
@example(x=np.r_[1e308, -1e308].repeat(150), rate=44100, as_test=False)
def test_measure(x, rate, as_test):
    """x is scored against a 1 kHz tone, as test or as ref; finite samples
    beyond TAKEN may be refused."""
    tone = np.sin(2 * np.pi * 1000 / 44100 * np.arange(300))
    ref, test = (tone, x) if as_test else (x, tone)
    report = outcome(lambda: verification.measure(ref, test, rate))
    valid = (is_vector(x, REAL) and np.isfinite(x).all() and len(x) >= 256
             and is_count(rate, 1))
    huge = valid and bool(np.any(np.abs(x) > TAKEN))
    assert (report is not REFUSED) == valid or (huge and report is REFUSED)
    if report is not REFUSED:
        assert all(map(math.isfinite, (report.fundamental_hz, report.snr_db,
                                       report.thd_db,
                                       report.inband_noise_power)))
        assert report.snr_db <= verification.SNR_CAP_DB


@CONTRACT
@given(COUNTS)
@edges(dict(n=64))
def test_blackman_harris(n):
    window = outcome(lambda: verification.blackman_harris(n))
    assert (window is not REFUSED) == is_count(n, 2)
    if window is not REFUSED:
        assert len(window) == n and np.all(np.isfinite(window))


# --- profiler ----------------------------------------------------------------

PES = profiler.load_pe_library(
    str(resources.files("pcm2pwm").joinpath("data", "pe_library.ini")))


@CONTRACT
@given(COUNTS)
@edges(dict(n=8))
def test_op_counts(n):
    counts = outcome(lambda: profiler.op_counts(n))
    assert (counts is not REFUSED) == is_count(n, 0)
    if counts is not REFUSED:
        assert all(c >= 0 for row in counts.values() for c in row.values())
        assert counts["S3"]["mac"] == 8 * n * chain.FIR_TAPS


@CONTRACT
@given(COUNTS)
@edges(dict(cycle_count=8))
def test_exec_time_and_summary(cycle_count):
    t = outcome(lambda: profiler.exec_time(cycle_count, PES[0]))
    rows = outcome(lambda: profiler.principal_summary_rows(
        {pe.name: cycle_count for pe in PES}, PES, 4.3))
    valid = is_count(cycle_count, 0)
    assert (t is not REFUSED) == (rows is not REFUSED) == valid
    if valid:
        assert t == Fraction(cycle_count) / (PES[0].freq_mhz * 10 ** 6)
        assert [r["cycles"] for r in rows] == [cycle_count] * len(PES)


# --- cli ---------------------------------------------------------------------

NUMBERS = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e308", "")
SCENARIO = str(resources.files("pcm2pwm").joinpath("data",
                                                   "baseline.scenario"))
PE_LIB = str(resources.files("pcm2pwm").joinpath("data", "pe_library.ini"))
SPECS = (("sine", "1000", "-6", "0.05"), ("noise", "-6", "0.05"),
         ("silence", "0.05"))
EXIT_CODES = {int(code) for code in  # the cli docstring's list
              re.findall(r"^    (\d+) ", cli.__doc__, re.MULTILINE)}


def _argvs(value):
    """Each numeric option, and each number of each synthetic spec, set to
    value, in every subcommand that takes it."""
    yield ["explore", "--deadline-ms", value]
    yield ["profile", "--scenario", "BUNDLED", "--deadline-ms", value]
    yield ["profile", "--input", "silence:0", "--deadline-ms", value]
    yield ["roundtrip", "--input", "sine:1000:-6:0.05", "--snr-floor-db",
           value]
    for command in ("convert", "roundtrip"):
        yield [command, "--input", "noise:-6:0.05", "--seed", value]
    for kind, *numbers in SPECS:
        for i in range(len(numbers)):
            spec = ":".join([kind, *numbers[:i], value, *numbers[i + 1:]])
            for command in ("convert", "profile", "roundtrip"):
                yield [command, "--input", spec]


def _run(argv, capsys):
    """cli.main(argv)'s exit code and stdout, once its exit code, stderr
    and lack of a traceback are checked against the contract."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a value it cannot parse
        code = exc.code
    out, err = capsys.readouterr()
    assert code in EXIT_CODES
    assert "Traceback" not in out + err
    lines = err.splitlines()
    if code == 0:
        assert err == ""
    elif code == cli.EXIT_QUALITY:
        assert len(lines) == 1 and lines[0].startswith("snr ")
    else:
        assert err.count("error:") == 1
        assert (lines == [lines[-1]] and lines[0].startswith("error: ")
                or lines[0].startswith("usage: ")
                and lines[-1].startswith(f"pcm2pwm {argv[0]}: error: "))
    return code, out


@pytest.mark.parametrize("argv", [argv for value in NUMBERS
                                  for argv in _argvs(value)], ids=" ".join)
def test_cli_numbers(argv, tmp_path, capsys):
    argv = [SCENARIO if arg == "BUNDLED" else arg for arg in argv]
    if argv[0] == "convert":
        argv = [*argv, "--output", str(tmp_path / "out.pwm")]
    _run(argv, capsys)


# well-formed, wrong case, empty parts, extra parts, unknown behaviors,
# spaces, nothing, and two pins: the same twice, and conflicting
PINS = (["S0=hw"], ["S0=HW"], ["s0=hw"], ["S0="], ["=hw"], ["=="],
        ["S0=hw=sw"], ["FOO=hw"], [" S0 =hw"], [""], ["S0=hw", "S0=hw"],
        ["S0=hw", "S0=sw"])


@pytest.mark.parametrize("pins", PINS, ids=repr)
def test_cli_pins(pins, capsys):
    _run(["explore", *(arg for pin in pins for arg in ("--pin", pin))],
         capsys)


# a directory, a path under a missing one, nothing, a device, and a file
# that exists; DIR is the test's own directory, and the working one
OUTPUTS = ("DIR", "DIR/missing/out", "", os.devnull, "DIR/existing")


@pytest.mark.parametrize("output", OUTPUTS, ids=repr)
@pytest.mark.parametrize("command", ["convert", "profile"])
def test_cli_outputs(command, output, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing").write_bytes(b"old")
    output = output.replace("DIR", str(tmp_path))
    code, out = _run([command, "--input", "sine:1000:-6:0.01",
                      "--output", output], capsys)
    if command == "profile" or code:
        assert out == ""
    else:
        assert out.endswith(f"wrote: {output}\n")
    beside = os.path.dirname(os.path.realpath(output or "."))
    if os.path.isdir(beside):
        assert not fnmatch.filter(os.listdir(beside), ".*.tmp")


# every path option of every subcommand, with a valid value; profile's
# --input and --scenario go in apart, as it takes one of them, and together
PATHS = (("convert", {"--input": "sine:1000:-6:0.01", "--output": "out"}),
         ("profile", {"--input": "sine:1000:-6:0.01", "--pe-lib": "PE_LIB",
                      "--output": "out"}),
         ("profile", {"--scenario": "SCENARIO", "--pe-lib": "PE_LIB",
                      "--output": "out"}),
         ("profile", {"--scenario": "SCENARIO",
                      "--input": "sine:1000:-6:0.01"}),
         ("explore", {"--scenario": "SCENARIO"}),
         ("roundtrip", {"--input": "sine:1000:-6:0.01"}))


@pytest.mark.parametrize("argv", [
    [command, *(arg for option, value in paths.items()
                for arg in (option, "" if option == empty else value))]
    for command, paths in PATHS for empty in paths],
    ids=lambda argv: " ".join(arg or "''" for arg in argv))
def test_cli_empty_paths(argv, tmp_path, capsys, monkeypatch):
    """'' names no file, so no path option takes it for stdout, the working
    directory or a bundled default: the command exits 2 naming the option
    before any work, and prints and writes nothing."""
    monkeypatch.chdir(tmp_path)
    option = argv[argv.index("") - 1]
    bundled = {"SCENARIO": SCENARIO, "PE_LIB": PE_LIB}
    argv = [bundled.get(arg, arg) for arg in argv]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {option} '' names no file\n")
    assert os.listdir(tmp_path) == []


# every input file option of every subcommand, the path last: --input as a
# WAV path, --scenario and --pe-lib
INPUT_FILES = (["convert", "--output", "out", "--input"],
               ["profile", "--input"],
               ["roundtrip", "--input"],
               ["explore", "--scenario"],
               ["profile", "--scenario"],
               ["profile", "--input", "sine:1000:-6:0.01", "--pe-lib"])


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("argv", INPUT_FILES, ids=" ".join)
def test_cli_unreadable_input_files(argv, kind, tmp_path, capsys,
                                    monkeypatch):
    """Every input file option reads by one rule: a missing path exits 2
    with "input not found: P", a directory with "cannot read P: Is a
    directory", each naming P once, printing nothing on stdout and
    writing nothing."""
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "in")
    if kind == "directory":
        os.mkdir(path)
    reason = {"missing": f"input not found: {path}",
              "directory": f"cannot read {path}: Is a directory"}[kind]
    assert cli.main([*argv, path]) == cli.EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {reason}\n")
    assert os.listdir(tmp_path) == (["in"] if kind == "directory" else [])


@pytest.mark.parametrize("pattern,new,reason", [
    (r"code_size = \d+", "code_size = 0", "all code sizes are zero"),
    (r"\[cost_model\]", "[costs]", "missing [cost_model] section"),
], ids=["all-zero-sizes", "no-cost-model"])
@pytest.mark.parametrize("argv", [["explore", "--scenario"],
                                  ["profile", "--scenario"]], ids=" ".join)
def test_cli_scenario_refusal_names_its_file_once(argv, pattern, new, reason,
                                                  tmp_path, capsys):
    """A scenario the loader refuses as malformed exits 2 with one line,
    "P: reason", naming its file once."""
    path = tmp_path / "edited.scenario"
    text = resources.files("pcm2pwm").joinpath(
        "data", "baseline.scenario").read_text(encoding="utf-8")
    path.write_text(re.sub(pattern, new, text), encoding="utf-8")
    assert cli.main([*argv, str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {path}: {reason}\n")


# --- cli: scenario and element-library files ---------------------------------

READERS = {SCENARIO: (["explore", "--scenario"], ["profile", "--scenario"]),
           PE_LIB: (["profile", "--input", "sine:1000:-6:0.1", "--pe-lib"],)}
# not a number, not finite, negative, zero, below a float's range, at its
# top, over it (a float inf), an integer at its top and one far over it,
# and empty
FIELD_VALUES = ("nan", "inf", "-1", "0", "1e-400", "1e308", "1e309",
                "1" + "0" * 308, "9" * 401, "")
NOT_A_NUMBER = ("nan", "inf", "")
# the tests reuse tmp_path and capsys across examples: each example writes
# the whole file, and _run reads capsys empty
FILES = settings(CONTRACT, max_examples=50,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _numbers(text):
    """(key, span) of every numeric field of text: a key's value, and each
    weight."""
    return sorted([(m[1], m.span(2)) for pattern in (r"^(\w+) = ([\d.]+)$",
                                                    r"(\w+):(\d+)")
                   for m in re.finditer(pattern, text, re.MULTILINE)],
                  key=lambda field: field[1])


def _edits(text):
    """Every edit of text to try as an explicit example: each numeric
    field set to each of FIELD_VALUES, every field of one key set to 1e308
    at once (so only their sum is over a float), each key line dropped,
    and each section dropped and duplicated.  An edit is a list of
    (span, new text) pairs."""
    numbers = _numbers(text)
    for _, span in numbers:
        for value in FIELD_VALUES:
            yield [(span, value)]
    for key in dict.fromkeys(key for key, _ in numbers):
        yield [(span, "1e308") for k, span in numbers if k == key]
    for m in re.finditer(r"^\w+ = .*\n", text, re.MULTILINE):
        yield [(m.span(), "")]
    for m in re.finditer(r"^\[.*\]\n(?:[^\[].*\n|\n)*", text, re.MULTILINE):
        yield [(m.span(), "")]
        yield [(m.span(), m[0] * 2)]


def _file_contract(path):
    """The contract test of the file at path, run by each command that
    reads it: every edit of _edits, then draws of two to four numeric
    fields at once."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    numbers = [span for _, span in _numbers(text)]
    several = st.lists(st.tuples(st.sampled_from(numbers),
                                 st.sampled_from(FIELD_VALUES)),
                       min_size=2, max_size=4, unique_by=lambda e: e[0])

    @FILES
    @given(edit=several)
    def test(edit, tmp_path, capsys):
        edited = text
        for (start, end), new in sorted(edit, reverse=True):
            edited = edited[:start] + new + edited[end:]
        file = tmp_path / "file.ini"
        file.write_text(edited, encoding="utf-8")
        no_number = any(span in numbers and new in NOT_A_NUMBER
                        for span, new in edit)
        for command in READERS[path]:
            code, _ = _run([*command, str(file)], capsys)
            assert code == cli.EXIT_INPUT or not no_number

    for edit in _edits(text):
        test = example(edit=edit)(test)
    return test


test_cli_scenario_files = _file_contract(SCENARIO)
test_cli_pe_library_files = _file_contract(PE_LIB)
