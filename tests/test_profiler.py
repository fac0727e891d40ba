from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcm2pwm.audio_io import PcmStream
from pcm2pwm.chain import (BEHAVIORS, INTERP_STAGES, linearize, noise_shape,
                           s0_condition, upsample2)
from pcm2pwm.profiler import (OP_KINDS, ProcessingElement, cycles, exec_time,
                              load_pe_library, meets_realtime, op_counts)

PE_LIB = str(resources.files("pcm2pwm").joinpath("data", "pe_library.ini"))


def make_pe(name="X", category="DSP", cost=1.0, freq=60, weights=None):
    return ProcessingElement(name=name, category=category, cost_usd=cost,
                             freq_mhz=Fraction(freq),
                             weights=weights or {k: 1 for k in OP_KINDS})


def counts_of(**behavior_kinds):
    counts = {b: {k: 0 for k in OP_KINDS} for b in BEHAVIORS}
    for behavior, kinds in behavior_kinds.items():
        counts[behavior].update(kinds)
    return counts


# --- op model -----------------------------------------------------------------

# Operations per output sample of each behavior, as the op model tabulates
# them; the x2 interpolators make one MAC per tap of their 63-tap kernel.
ROWS = {"S0": {"mul": 1, "mem": 2},
        **{s: {"mac": 63, "cmp": 2, "mem": 2} for s in ("S1", "S2", "S3")},
        "LINE": {"add": 6, "mul": 7, "cmp": 3, "mem": 4},
        "MOLD": {"add": 4, "mul": 3, "cmp": 2, "mem": 3}}


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2000), st.integers(0, 2 ** 32 - 1))
def test_op_counts_follow_the_chain(n, seed):
    """Each behavior's counts are its row times the samples the stage
    really emits; LINE's two end samples pass through uncounted."""
    pcm = PcmStream(np.random.default_rng(seed).integers(
        -32768, 32768, n).astype(np.int16), 44100)
    x = s0_condition(pcm.samples)
    emitted = {"S0": len(x)}
    for i in range(INTERP_STAGES):
        x = upsample2(x, behavior=f"S{i + 1}")
        emitted[f"S{i + 1}"] = len(x)
    x = linearize(x)
    emitted["LINE"] = len(x) - 2
    emitted["MOLD"] = len(noise_shape(x))
    counts = op_counts(n)
    for b in BEHAVIORS:
        assert counts[b] == {k: ROWS[b].get(k, 0) * emitted[b]
                             for k in OP_KINDS}


def test_op_counts_empty_input():
    assert op_counts(0) == counts_of()
    with pytest.raises(ValueError):
        op_counts(-1)


@pytest.mark.parametrize("n", [1.5, 8.0, np.nan, True, -1])
def test_op_counts_take_only_sample_counts(n):
    """A sample count is an integer of at least 0: 1.5 samples give no
    fractional counts, and True is not one sample."""
    with pytest.raises(ValueError, match=f"^n_samples must be an integer of "
                                         f"at least 0, got {n}$"):
        op_counts(n)


# --- cycle weighting ---------------------------------------------------------

def test_cycles_unit_weight():
    est = cycles(counts_of(S1={"mac": 10}), make_pe())
    assert est == {"S0": 0, "S1": 10, "S2": 0, "S3": 0, "LINE": 0, "MOLD": 0}


def test_cycles_mixed_weights():
    pe = make_pe(weights={"add": 1, "mul": 2, "mac": 1, "cmp": 1, "mem": 1})
    est = cycles(counts_of(LINE={"add": 5, "mul": 2}), pe)
    assert est["LINE"] == 9


def test_cycles_general_purpose_mac():
    pes = {pe.name: pe for pe in load_pe_library(PE_LIB)}
    est = cycles(counts_of(S1={"mac": 10}), pes["uP"])
    assert est["S1"] == 30  # shipped general-purpose mac weight


@pytest.mark.parametrize("kind", OP_KINDS)
def test_pe_refuses_a_missing_weight(kind):
    """Every op kind needs a weight: an element that lacks one is refused
    when it is built, not when a count of that kind first meets it."""
    weights = {k: 1 for k in OP_KINDS if k != kind}
    with pytest.raises(ValueError, match=f"^no weight for {kind}$"):
        make_pe(weights=weights)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("S0", "S1", "S2", "S3", "LINE",
                                           "MOLD")),
                          st.sampled_from(OP_KINDS),
                          st.integers(0, 10 ** 9)),
                max_size=20),
       st.lists(st.tuples(st.sampled_from(("S0", "S1", "S2", "S3", "LINE",
                                           "MOLD")),
                          st.sampled_from(OP_KINDS),
                          st.integers(0, 10 ** 9)),
                max_size=20))
def test_cycles_linearity(entries_a, entries_b):
    pe = make_pe(weights={"add": 1, "mul": 2, "mac": 3, "cmp": 1, "mem": 2})
    a, b, ab = counts_of(), counts_of(), counts_of()
    for counts, entries in ((a, entries_a), (b, entries_b),
                            (ab, entries_a + entries_b)):
        for behavior, kind, n in entries:
            counts[behavior][kind] += n
    lhs = cycles(ab, pe)
    rhs_a, rhs_b = cycles(a, pe), cycles(b, pe)
    for behavior in BEHAVIORS:
        assert lhs[behavior] == rhs_a[behavior] + rhs_b[behavior]


# --- execution time -----------------------------------------------------------

def test_exec_time_reference_rows():
    pes = {pe.name: pe for pe in load_pe_library(PE_LIB)}
    cases = [("DSP", 272_935_511, 4.55), ("uP", 935_152_757, 1.04),
             ("uC", 935_152_757, 116.89), ("HW", 250_224_089, 2.50)]
    for name, count, display in cases:
        t = exec_time(count, pes[name])
        assert isinstance(t, Fraction)
        assert abs(float(t) - display) <= 0.01
        assert f"{float(t):.2f}" == f"{display:.2f}"


def test_exec_time_zero():
    assert exec_time(0, make_pe()) == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 12), st.integers(1, 4000))
def test_exec_time_rational_identity(count, freq_mhz):
    pe = make_pe(freq=freq_mhz)
    assert exec_time(count, pe) * freq_mhz * 10 ** 6 == count


def test_meets_realtime():
    assert meets_realtime(3.7310, 4.3) is True
    assert meets_realtime(4.5489, 4.3) is False
    assert meets_realtime(4.3, 4.3) is False  # strict inequality
    with pytest.raises(ValueError):
        meets_realtime(1.0, 0.0)


def test_reference_goal_marks():
    """Only the microprocessor and the RTL fabric beat 4.3 s."""
    pes = {pe.name: pe for pe in load_pe_library(PE_LIB)}
    verdicts = {
        name: meets_realtime(exec_time(count, pes[name]), 4.3)
        for name, count in [("DSP", 272_935_511), ("uP", 935_152_757),
                            ("uC", 935_152_757), ("HW", 250_224_089)]
    }
    assert verdicts == {"DSP": False, "uP": True, "uC": False, "HW": True}


# --- element library ----------------------------------------------------------

def test_load_pe_library():
    pes = {pe.name: pe for pe in load_pe_library(PE_LIB)}
    assert set(pes) == {"DSP", "uP", "uC", "HW"}
    assert pes["DSP"].cost_usd == 8.00 and pes["DSP"].freq_mhz == 60
    assert pes["uP"].cost_usd == 40.00 and pes["uP"].freq_mhz == 900
    assert pes["uC"].cost_usd == 1.00 and pes["uC"].freq_mhz == 8
    assert pes["HW"].cost_usd == 35.00 and pes["HW"].freq_mhz == 100
    assert pes["HW"].is_hardware and not pes["DSP"].is_hardware
    assert pes["uC"].weights == {"add": 1, "mul": 2, "mac": 3, "cmp": 1,
                                 "mem": 2}


def test_load_pe_library_rejects_bad_weight(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[X]\ncategory = DSP\ncost = 1\nfreq_mhz = 10\n"
                    "weights = add:0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_pe_library(path)


def test_pe_validation():
    with pytest.raises(ValueError):
        make_pe(category="GPU")
    with pytest.raises(ValueError):
        make_pe(freq=0)


# --- stage ordering -------------------------------------------------------------

def test_live_run_stage_ordering():
    """Each x2 stage handles twice its predecessor's samples, and S1 makes
    63 MACs per output sample however the host filters."""
    pcm = PcmStream(np.zeros(4410, dtype=np.int16), 44100)
    counts = op_counts(len(pcm))
    totals = {b: sum(kinds.values()) for b, kinds in counts.items()}
    assert totals["S3"] > totals["S2"] > totals["S1"] > 0
    for behavior in ("S0", "LINE", "MOLD"):
        assert totals[behavior] > 0
    assert counts["S1"]["mac"] == 63 * 2 * len(pcm)
