"""Command-line frontend for the converter, profiler and explorer.

Subcommands:

    convert    WAV -> PWM1 file, reporting the achieved and avoided clocks
    profile    modelled operation counts and per-element time estimates
    explore    exhaustive hardware/software mapping search
    roundtrip  convert, demodulate and score against the input

Inputs are WAV paths or synthetic specs ("sine:FREQ_HZ:AMP_DBFS[:SECONDS]",
"noise:AMP_DBFS[:SECONDS]", "silence[:SECONDS]"); synthetic signals default
to 4.3 s and noise uses --seed.  Exit codes:

    0    success
    1    the roundtrip demodulator worker ended without a reply
    2    input error: a missing, malformed or empty input, a bad option
         value, a scenario or element library that is missing, a
         directory, not UTF-8 or malformed (no section header, a
         duplicate section, a missing key or weight, a negative cycle
         total, all code sizes 0, over 20 behaviors to explore), an
         output path that cannot be written, a convert or roundtrip
         input over the PWM1 bit count (95.1 s at 44.1 kHz) or bit
         clock (4,194,304 Hz sample rate or more), both given to
         profile (--input and --scenario), or a roundtrip input the
         demodulator cannot map onto its rate or that is too short to
         score (under 256 samples)
    3    no feasible mapping
    4    quality floor missed
    141  stdout closed early, e.g. by `| head` (128 + SIGPIPE)

convert and roundtrip stream: the chain runs over bounded blocks, and
roundtrip feeds its PWM payload blocks straight into the demodulator
(verification.demodulate_stream), so neither holds a whole PWM stream.
roundtrip still holds the input clip, the clip demodulated back to the
input rate and the FFTs measure takes of them.

roundtrip runs on two processes and needs POSIX fork: the chain runs in
this one, the demodulator in one worker forked from it, fed the payload
blocks through a pipe.  The two overlap, as SpecC behaviors mapped to two
processing elements do.  The worker runs with SIGINT blocked, so a
Ctrl-C is reported once, by this process, and the worker leaves when the
pipe closes.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import sys
from importlib import resources

import numpy as np

from . import audio_io, chain, dse, profiler, verification

EXIT_OK = 0
EXIT_WORKER = 1
EXIT_INPUT = 2
EXIT_NO_FEASIBLE = 3
EXIT_QUALITY = 4
EXIT_CLOSED_STDOUT = 141

DEFAULT_SIGNAL_SECONDS = 4.3
_SYNTH_BLOCK = 4096  # samples a synthetic input makes at a time
# roundtrip's pipe depth: the chain may run eight of its payload blocks
# ahead of the demodulator worker before a send waits.  A pipe that holds
# less than a block makes every block a hand-off that waits for the worker
# to be scheduled.  Linux caps it at net.core.wmem_max.
_PIPE_BYTES = 8 * (chain._BLOCK * chain.PWM_BITS_PER_SAMPLE // 8)


class InputError(Exception):
    pass


class WorkerDied(Exception):
    """The roundtrip demodulator worker ended without a reply."""


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: point stdout at devnull so the
        # flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (InputError, audio_io.IoFailure, audio_io.MalformedHeader,
            audio_io.StreamTooLong, audio_io.ClockTooHigh,
            dse.AllZeroSizes, dse.TooManyBehaviors, dse.UnknownBehavior,
            profiler.MissingWeight, verification.LengthMismatch,
            verification.MalformedStream) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except dse.NoFeasibleOption as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcm2pwm",
        description="PCM to Class-D PWM conversion, cost profiling and "
                    "hardware/software mapping exploration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a WAV file to a PWM1 bitstream")
    _add_input(p)
    p.add_argument("--output", required=True, help="PWM1 output path")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("profile", help="count operations and estimate times")
    _add_input(p, required=False)
    p.add_argument("--scenario", help="scenario file with principal cycle "
                                      "totals (instead of modelled counts)")
    p.add_argument("--pe-lib", help="processing-element library (INI)")
    p.add_argument("--deadline-ms", type=float, default=4300.0,
                   help="real-time goal for fixture runs (default 4300)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("explore", help="evaluate all hardware/software mappings")
    p.add_argument("--scenario", help="scenario file (default: bundled)")
    p.add_argument("--deadline-ms", type=float,
                   help="override the scenario deadline")
    p.add_argument("--pin", action="append", default=[], metavar="NAME=hw|sw",
                   help="force a behavior onto one side (repeatable)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("roundtrip", help="convert, demodulate and score")
    _add_input(p)
    p.add_argument("--snr-floor-db", type=float, default=60.0,
                   help="fail (exit 4) below this SNR (default 60)")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_roundtrip)

    return parser


def _add_input(p, required=True):
    p.add_argument("--input", required=required,
                   help="WAV path or sine:FREQ:AMP_DBFS[:SECONDS] / "
                        "noise:AMP_DBFS[:SECONDS] / silence[:SECONDS]")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for generated noise signals")


def cmd_convert(args) -> int:
    with _open_input(args.input, args.seed) as source:
        n_bits, clock_hz = _pwm_size(source)
        rate, frame_bits = source.sample_rate, chain.FRAME_BITS
        audio_io.write_pwm_blocks(
            chain.convert_stream(source.blocks(), rate), args.output,
            n_bits=n_bits, clock_hz=clock_hz, frame_bits=frame_bits)
    print(f"frames: {n_bits // frame_bits}")
    print(f"frame bits: {frame_bits}")
    print(f"pwm clock: {clock_hz} Hz")
    # pulse resolution a direct 16-bit amplitude-to-width mapping would need
    print(f"naive clock: {2 ** 16 * rate} Hz")
    print(f"wrote: {args.output}")
    return EXIT_OK


def _pwm_size(source) -> tuple:
    """(n_bits, clock_hz) of the PWM stream the chain makes of an opened
    input, from its header alone; InputError for an empty input, and
    audio_io.check_pwm_header's errors for one the PWM1 header cannot
    declare."""
    if not source.frame_count:
        raise InputError("input has no samples")
    n_bits = source.frame_count * chain.PWM_BITS_PER_SAMPLE
    clock_hz = source.sample_rate * chain.PWM_BITS_PER_SAMPLE
    audio_io.check_pwm_header(n_bits, clock_hz, chain.FRAME_BITS)
    return n_bits, clock_hz


def cmd_profile(args) -> int:
    if args.scenario and args.input:
        raise InputError("profile takes --input or --scenario, not both")
    playback_s = _finite("--deadline-ms", args.deadline_ms,
                         positive=True) / 1000.0
    pes = _load(profiler.load_pe_library,
                args.pe_lib or _bundled("pe_library.ini"))
    out_lines = []

    if args.scenario:
        scenario = _load(dse.load_scenario, args.scenario)
        totals = scenario.principal_cycles
        if not totals:
            raise InputError(f"{args.scenario} has no [principal_cycles]")
        missing = totals.keys() - {pe.name for pe in pes}
        if missing:
            raise InputError(f"cycle totals for unknown elements: "
                             f"{sorted(missing)}")
        pes = [pe for pe in pes if pe.name in totals]
    elif args.input:
        with _open_input(args.input, args.seed) as source:  # header only
            n, rate = source.frame_count, source.sample_rate
        counts = profiler.op_counts(n)
        if n:  # an empty input plays for the deadline
            playback_s = n / rate
        totals = {pe.name: sum(profiler.cycles(counts, pe).values())
                  for pe in pes}
        out_lines.append(profiler.profile_report_csv(counts, pes))
        if args.format == "csv":
            out_lines.append("")
    else:
        raise InputError("profile needs --input or --scenario")

    rows = profiler.principal_summary_rows(totals, pes, playback_s)
    if args.format == "csv":
        out_lines.append(profiler.principal_summary_csv(rows))
    else:
        out_lines.append(profiler.format_principal_summary(rows, playback_s))
    report = "\n".join(out_lines)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            raise audio_io.IoFailure(
                f"cannot write {args.output}: {exc}") from exc
    else:
        print(report, end="" if report.endswith("\n") else "\n")
    return EXIT_OK


def cmd_explore(args) -> int:
    scenario = _load(dse.load_scenario,
                     args.scenario or _bundled("baseline.scenario"))
    cm = scenario.cost_model
    if args.deadline_ms is not None:
        deadline_ms = _finite("--deadline-ms", args.deadline_ms, positive=True)
        cm = dse.CostModel(sw_fixed_cost_cents=cm.sw_fixed_cost_cents,
                           hw_total_cost_cents=cm.hw_total_cost_cents,
                           deadline_us=int(round(deadline_ms * 1000)))
    pins = _parse_pins(args.pin)
    options = dse.enumerate_partitions(scenario.estimates, cm, pins)
    selected = dse.select(options, cm)  # exits 3 via NoFeasibleOption

    if args.format == "csv":
        print(dse.options_table_csv(options, selected), end="")
        return EXIT_OK

    print(dse.estimates_table_text(scenario))
    print(dse.options_table_text(
        options, selected,
        title=f"all mappings ({len(options)}), deadline {cm.deadline_ms:.1f} ms"))
    shortlist = [o for m in dse.SHORTLIST_MAPPINGS
                 for o in options if o.hw_set == m]
    if shortlist:
        print(dse.options_table_text(shortlist, selected,
                                     title="shortlisted mappings"))
        _print_tradeoff(shortlist, selected, cm)
    print(f"selected: {selected.describe_hw_set()} "
          f"({selected.t_total_ms:.1f} ms, ${selected.cost_usd:.2f})")
    return EXIT_OK


def _print_tradeoff(shortlist, selected, cm):
    """Compare the selected mapping against the next-cheapest feasible one."""
    others = [o for o in shortlist
              if o != selected and o.t_total_us < cm.deadline_us]
    if not others:
        return
    rival = min(others, key=lambda o: o.cost_cents)
    delta = dse.compare(rival, selected)
    print(f"trade-off: {rival.describe_hw_set()} beats "
          f"{selected.describe_hw_set()} by {delta.time_delta_pct:.2f}% in "
          f"time but costs {delta.cost_delta_pct:.2f}% more")
    print()


def cmd_roundtrip(args) -> int:
    floor_db = _finite("--snr-floor-db", args.snr_floor_db)
    with _open_input(args.input, args.seed) as source:
        n_bits, clock_hz = _pwm_size(source)
        pcm = audio_io.collect(source)
    rate = pcm.sample_rate
    audio = _demodulate_in_worker(
        chain.convert_stream([pcm.samples], rate), n_bits=n_bits,
        clock_hz=clock_hz, target_rate=rate)
    report = verification.measure(chain.s0_condition(pcm.samples), audio, rate)
    if args.format == "csv":
        print(report.csv(), end="")
    else:
        print(report.text(), end="")
    if report.snr_db < floor_db:
        print(f"snr {report.snr_db:.2f} dB below the "
              f"{floor_db:.2f} dB floor", file=sys.stderr)
        return EXIT_QUALITY
    return EXIT_OK


def _demodulate_in_worker(payload, **stream) -> np.ndarray:
    """verification.demodulate_stream(payload, **stream), collected into one
    array, run in a forked worker while this process makes the payload.

    Each block goes to the worker through a pipe, then an empty end
    marker; a full pipe (_PIPE_BYTES) makes this process wait, so memory
    stays bounded.  The worker sends one reply, the audio or the
    exception that stopped it, which is raised here; WorkerDied if it
    ended without a reply.  Data flows one way until the end marker, so
    the two cannot deadlock.  The worker is joined before this returns or
    raises.
    """
    import multiprocessing  # here, so the other commands never load it
    import signal
    import socket
    ctx = multiprocessing.get_context("fork")
    conn, worker_end = ctx.Pipe()
    with socket.fromfd(conn.fileno(), socket.AF_UNIX,
                       socket.SOCK_STREAM) as sock:  # a duplicate fd
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, _PIPE_BYTES)
    worker = ctx.Process(target=_demodulate_worker,
                         args=(worker_end, conn, stream), daemon=True)
    # the worker is forked with SIGINT blocked and never unblocks it, so a
    # Ctrl-C is this process's alone to report
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        worker.start()
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    worker_end.close()
    reply = None
    try:
        # a worker that stops reading says why in its reply
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            for block in payload:
                conn.send_bytes(block)
            conn.send_bytes(b"")
        with contextlib.suppress(EOFError):
            reply = conn.recv()
    finally:
        conn.close()  # a worker still reading leaves on EOF
        worker.join()
    if reply is None:
        raise WorkerDied(f"the demodulator worker ended without a reply "
                         f"(exit code {worker.exitcode})")
    if isinstance(reply, Exception):
        raise reply
    return reply


def _demodulate_worker(conn, parent_end, stream) -> None:
    """The worker's body: demodulate the payload blocks that arrive on conn
    until the empty end marker, then send back the audio or the exception
    that stopped it.  It leaves quietly if the parent closes the pipe
    first."""
    parent_end.close()  # else the parent closing its end is no EOF here

    def blocks():
        while block := conn.recv_bytes():
            yield np.frombuffer(block, dtype=np.uint8)
    try:
        reply = np.concatenate(
            [np.zeros(0), *verification.demodulate_stream(blocks(), **stream)])
    except EOFError:  # the parent left before the end marker
        return
    except Exception as exc:
        reply = exc
    with contextlib.suppress(OSError):  # the parent left before the reply
        conn.send(reply)


@contextlib.contextmanager
def _open_input(spec: str, seed: int):
    """The input as a reader whose sample_rate and frame_count are known
    before blocks() yields a sample: an audio_io.WavReader, or a
    _Synthetic for a synthetic spec."""
    kind, _, rest = spec.partition(":")
    if kind in ("sine", "noise", "silence"):
        yield _Synthetic(kind, rest, seed)
        return
    try:
        wav = audio_io.WavReader(spec)
    except audio_io.IoFailure as exc:
        raise InputError(f"input not found: {spec}") from exc
    except (audio_io.MalformedHeader, audio_io.UnsupportedFormat) as exc:
        raise InputError(f"{spec}: {exc}") from exc
    with wav:
        yield wav


class _Synthetic:
    """A synthetic signal spec, checked and sized on construction, whose
    blocks() makes the samples a block at a time, once (the same samples
    as one whole-array pass)."""

    sample_rate = 44100

    def __init__(self, kind: str, rest: str, seed: int):
        n_args = {"sine": 2, "noise": 1, "silence": 0}[kind]  # before SECONDS
        try:
            values = [float(p) for p in rest.split(":") if p]
            if len(values) == n_args:
                values.append(DEFAULT_SIGNAL_SECONDS)
            *params, seconds = values
            if (len(params) != n_args or not all(map(math.isfinite, values))
                    or seconds < 0 or (kind == "sine" and params[0] < 0)):
                raise ValueError("wrong count, or not finite, or "
                                 "FREQ/SECONDS < 0")
            self.frame_count = int(round(seconds * self.sample_rate))
            self._amp = 10.0 ** (params[-1] / 20.0) if params else 0.0
            self._rng = np.random.default_rng(seed) if kind == "noise" else None
        except (OverflowError, ValueError) as exc:
            raise InputError(f"bad synthetic signal spec {kind}:{rest}") from exc
        self._freq = params[0] if kind == "sine" else None

    def blocks(self):
        for start in range(0, self.frame_count, _SYNTH_BLOCK):
            n = min(_SYNTH_BLOCK, self.frame_count - start)
            if self._freq is not None:
                t = np.arange(start, start + n) / self.sample_rate
                wave = self._amp * np.sin(2.0 * np.pi * self._freq * t)
            elif self._rng is not None:
                wave = self._amp * self._rng.uniform(-1.0, 1.0, n)
            else:
                wave = np.zeros(n)
            yield np.clip(np.round(wave * 32767.0), -32768, 32767
                          ).astype(np.int16)


def _finite(option: str, value: float, positive: bool = False) -> float:
    """value, or InputError unless it is finite (and > 0 if positive)."""
    if not math.isfinite(value) or (positive and value <= 0):
        sign = " positive" if positive else ""
        raise InputError(f"{option} {value:g} is not a finite{sign} number")
    return value


def _load(loader, path):
    """loader(path), with a missing, unreadable or malformed file raised as
    one line of InputError."""
    try:
        return loader(path)
    except FileNotFoundError as exc:
        raise InputError(f"input not found: {path}") from exc
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    except (OSError, ValueError, configparser.Error) as exc:
        raise InputError(f"{path}: {' '.join(str(exc).split())}") from exc


def _parse_pins(pin_args):
    pins = {}
    for item in pin_args:
        name, sep, side = item.partition("=")
        if not sep or side not in ("hw", "sw"):
            raise InputError(f"bad --pin {item!r}, expected NAME=hw|sw")
        pins[name.strip()] = side
    return pins


def _bundled(name: str) -> str:
    return str(resources.files("pcm2pwm").joinpath("data", name))


if __name__ == "__main__":
    sys.exit(main())
