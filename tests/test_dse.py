from functools import lru_cache
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcm2pwm.cli import main
from pcm2pwm.dse import (SHORTLIST_MAPPINGS, AllZeroSizes, BehaviorEstimate,
                         CostModel, NoFeasibleOption, TooManyBehaviors,
                         UnknownBehavior, compare, enumerate_partitions,
                         evaluate, hw_cost_share, load_scenario,
                         options_table_text, select)

SCENARIO = str(resources.files("pcm2pwm").joinpath("data", "baseline.scenario"))

# frozen by scripts/oracle_feasible_count.py
GOLDEN_FEASIBLE_COUNT = 56
GOLDEN_CHEAPEST_3500 = frozenset({"MOLD", "S3"})


@lru_cache(maxsize=1)
def _cached_scenario():
    return load_scenario(SCENARIO)


@pytest.fixture(scope="module")
def scenario():
    return _cached_scenario()


@pytest.fixture(scope="module")
def estimates(scenario):
    return scenario.estimates


@pytest.fixture(scope="module")
def cm(scenario):
    return scenario.cost_model


# --- cost shares ---------------------------------------------------------------

def test_equal_sizes_split():
    shares = hw_cost_share({f"b{i}": 1 for i in range(6)}, 3500)
    assert list(shares.values()) == [584, 583, 583, 584, 583, 583]
    assert sum(shares.values()) == 3500


def test_proportional_sizes_exact():
    sizes = {"S0": 1, "S1": 817, "S2": 1073, "S3": 1065, "LINE": 360,
             "MOLD": 160}
    shares = hw_cost_share(sizes, 3476)
    assert shares == {"S0": 1, "S1": 817, "S2": 1073, "S3": 1065,
                      "LINE": 360, "MOLD": 160}


def test_single_nonzero_size_takes_all():
    shares = hw_cost_share({"a": 0, "b": 7, "c": 0}, 3500)
    assert shares == {"a": 0, "b": 3500, "c": 0}


def test_all_zero_sizes():
    with pytest.raises(AllZeroSizes):
        hw_cost_share({"a": 0, "b": 0}, 3500)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        hw_cost_share({"a": -1, "b": 2}, 100)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=12),
       st.integers(0, 10 ** 7))
def test_shares_sum_exactly(sizes, total):
    if sum(sizes) == 0:
        return
    shares = hw_cost_share({f"b{i}": s for i, s in enumerate(sizes)}, total)
    assert sum(shares.values()) == total
    assert all(s >= 0 for s in shares.values())


# --- evaluation -----------------------------------------------------------------

REFERENCE_ROWS = {
    frozenset({"S3"}): (2902500, 988100, 3890600, 1965),
    frozenset({"S1", "S2", "S3"}): (1760200, 1673400, 3433600, 3855),
    frozenset({"LINE", "MOLD"}): (2794100, 826500, 3620600, 1420),
    frozenset({"MOLD"}): (2982200, 749100, 3731300, 1060),
}


def test_evaluate_reference_rows(estimates, cm):
    for hw_set, (t_dsp, t_hw, t_total, cost) in REFERENCE_ROWS.items():
        o = evaluate(hw_set, estimates, cm)
        assert o.t_dsp_us == t_dsp
        assert o.t_hw_us == t_hw
        assert o.t_total_us == t_total
        assert o.cost_cents == cost
        assert o.feasible


def test_evaluate_all_software(estimates, cm):
    o = evaluate(set(), estimates, cm)
    assert o.t_total_us == 4548900
    assert o.cost_cents == 900
    assert not o.feasible


def test_evaluate_unknown_behavior(estimates, cm):
    with pytest.raises(UnknownBehavior):
        evaluate({"BOGUS"}, estimates, cm)


def test_time_is_additive(estimates, cm):
    """Moving a behavior into hardware changes the total by its time delta."""
    base = evaluate(set(), estimates, cm)
    for name, est in estimates.items():
        o = evaluate({name}, estimates, cm)
        assert o.t_total_us == base.t_total_us - (est.t_sw_us - est.t_hw_us)
        assert o.t_total_us < base.t_total_us  # hardware is faster everywhere


def test_cost_monotone(estimates, cm):
    all_behaviors = list(estimates)
    for k in range(len(all_behaviors)):
        smaller = evaluate(set(all_behaviors[:k]), estimates, cm)
        larger = evaluate(set(all_behaviors[:k + 1]), estimates, cm)
        assert larger.cost_cents >= smaller.cost_cents


@pytest.mark.parametrize("t_hw_us,t_sw_us", [(0, 2000), (1000, 0)])
def test_estimate_rejects_zero_time(t_hw_us, t_sw_us):
    with pytest.raises(ValueError, match="times must be positive"):
        BehaviorEstimate("B", t_hw_us, t_sw_us, 1)


# --- enumeration and selection ---------------------------------------------------

def test_enumerate_counts(estimates, cm):
    options = enumerate_partitions(estimates, cm)
    assert len(options) == 64
    assert sum(o.feasible for o in options) == GOLDEN_FEASIBLE_COUNT


def test_enumerate_with_pin(estimates, cm):
    options = enumerate_partitions(estimates, cm, pins={"S0": "sw"})
    assert len(options) == 32
    assert all("S0" not in o.hw_set for o in options)
    hw_pinned = enumerate_partitions(estimates, cm, pins={"S0": "hw"})
    assert len(hw_pinned) == 32
    assert all("S0" in o.hw_set for o in hw_pinned)


def test_enumerate_sorted(estimates, cm):
    options = enumerate_partitions(estimates, cm)
    keys = [(not o.feasible, o.cost_cents, o.t_total_us) for o in options]
    assert keys == sorted(keys)


def test_options_table_counts_the_rows_it_cuts(cm):
    """The text table prints 200 rows, then how many it left out."""
    estimates = {f"B{i}": BehaviorEstimate(f"B{i}", 1000, 2000, 1)
                 for i in range(8)}
    options = enumerate_partitions(estimates, cm)
    for n, last in ((199, "yes"), (201, "... 1 more"), (256, "... 56 more")):
        lines = options_table_text(options[:n]).splitlines()
        assert len(lines) == 3 + min(n, 200) + (n > 200)
        assert lines[-1].endswith(last)


def test_enumerate_too_many(cm):
    estimates = {f"B{i}": BehaviorEstimate(f"B{i}", 1000, 2000, 1)
                 for i in range(21)}
    with pytest.raises(TooManyBehaviors):
        enumerate_partitions(estimates, cm)


def test_enumerate_bad_pin(estimates, cm):
    with pytest.raises(UnknownBehavior):
        enumerate_partitions(estimates, cm, pins={"BOGUS": "hw"})
    with pytest.raises(ValueError):
        enumerate_partitions(estimates, cm, pins={"S0": "fpga"})


def test_select_baseline(estimates, cm):
    options = enumerate_partitions(estimates, cm)
    best = select(options, cm)
    assert best.hw_set == frozenset({"MOLD"})
    assert best.cost_cents == 1060


def test_select_shortlist_tighter_deadline(estimates, cm):
    four = [evaluate(m, estimates, cm) for m in SHORTLIST_MAPPINGS]
    tight = CostModel(cm.sw_fixed_cost_cents, cm.hw_total_cost_cents,
                      deadline_us=3_500_000)
    best = select(four, tight)
    assert best.hw_set == frozenset({"S1", "S2", "S3"})


def test_select_full_sweep_tighter_deadline(estimates, cm):
    tight = CostModel(cm.sw_fixed_cost_cents, cm.hw_total_cost_cents,
                      deadline_us=3_500_000)
    best = select(enumerate_partitions(estimates, tight), tight)
    assert best.hw_set == GOLDEN_CHEAPEST_3500


def test_select_impossible_deadline(estimates, cm):
    harsh = CostModel(cm.sw_fixed_cost_cents, cm.hw_total_cost_cents,
                      deadline_us=1_000_000)
    with pytest.raises(NoFeasibleOption):
        select(enumerate_partitions(estimates, harsh), harsh)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 50))
def test_select_scale_invariance(scale):
    """Scaling every cost uniformly cannot change the winner."""
    scenario = _cached_scenario()
    estimates, cm = scenario.estimates, scenario.cost_model
    options = enumerate_partitions(estimates, cm)
    baseline = select(options, cm)
    scaled_estimates = {
        name: BehaviorEstimate(name, e.t_hw_us, e.t_sw_us,
                               e.hw_cost_cents * scale)
        for name, e in estimates.items()
    }
    scaled_cm = CostModel(cm.sw_fixed_cost_cents * scale,
                          cm.hw_total_cost_cents * scale, cm.deadline_us)
    scaled = select(enumerate_partitions(scaled_estimates, scaled_cm),
                    scaled_cm)
    assert scaled.hw_set == baseline.hw_set


# --- comparison -----------------------------------------------------------------

def test_compare_reference_pair(estimates, cm):
    faster = evaluate({"LINE", "MOLD"}, estimates, cm)
    cheaper = evaluate({"MOLD"}, estimates, cm)
    delta = compare(faster, cheaper)
    assert delta.time_delta_pct == pytest.approx(3.0575, abs=1e-3)
    assert delta.cost_delta_pct == pytest.approx(25.3521, abs=1e-3)


def test_compare_identical(estimates, cm):
    o = evaluate({"MOLD"}, estimates, cm)
    delta = compare(o, o)
    assert delta.time_delta_pct == 0.0
    assert delta.cost_delta_pct == 0.0


# --- scenario loading -------------------------------------------------------------

def test_scenario_totals(scenario):
    est = scenario.estimates
    assert list(est) == ["S0", "S1", "S2", "S3", "LINE", "MOLD"]
    assert sum(e.t_sw_us for e in est.values()) == 4_548_900
    assert sum(e.t_hw_us for e in est.values()) == 2_502_100
    # quoted totals stay within the 0.5 ms tolerance, deltas are flagged
    assert scenario.hw_total_delta_us == 400
    assert scenario.sw_total_delta_us == 0
    assert scenario.hw_cost_gap_cents == 24


def test_scenario_cost_model(cm):
    assert cm.sw_fixed_cost_cents == 900
    assert cm.hw_total_cost_cents == 3476
    assert cm.deadline_us == 4_300_000


def test_scenario_principal_cycles(scenario):
    assert scenario.principal_cycles == {
        "DSP": 272_935_511, "uP": 935_152_757, "uC": 935_152_757,
        "HW": 250_224_089}


def test_scenario_rejects_total_mismatch(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_text(
        "[behavior A]\nt_hw_ms = 10\nt_sw_ms = 20\ncode_size = 1\n"
        "[cost_model]\nsw_fixed_cost = 1.00\nhw_total_cost = 2.00\n"
        "deadline_ms = 100\n"
        "[expected_totals]\nhw_total_ms = 12.0\n")
    with pytest.raises(ValueError):
        load_scenario(path)


@pytest.mark.parametrize("quoted_ms,code", [("10.500", 0), ("10.501", 2)])
def test_scenario_totals_tolerance_edge(quoted_ms, code, tmp_path, capsys):
    """A quoted total may differ from the table's sum by 500 us, not more."""
    path = tmp_path / "edge.scenario"
    path.write_text(
        "[behavior A]\nt_hw_ms = 10\nt_sw_ms = 20\ncode_size = 1\n"
        "[cost_model]\nsw_fixed_cost = 1.00\nhw_total_cost = 2.00\n"
        f"deadline_ms = 100\n[expected_totals]\nhw_total_ms = {quoted_ms}\n")
    if code == 0:
        assert load_scenario(path).hw_total_delta_us == 500
    assert main(["explore", "--scenario", str(path)]) == code
    assert capsys.readouterr().err.count("error:") == (code != 0)


def test_scenario_rejects_subcent_money(tmp_path):
    path = tmp_path / "bad.scenario"
    path.write_text(
        "[behavior A]\nt_hw_ms = 10\nt_sw_ms = 20\ncode_size = 1\n"
        "[cost_model]\nsw_fixed_cost = 1.001\nhw_total_cost = 2.00\n"
        "deadline_ms = 100\n")
    with pytest.raises(ValueError):
        load_scenario(path)
