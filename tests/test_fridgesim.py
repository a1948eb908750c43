"""Fleet simulator: thermal dynamics, defrost timing, faults, work orders."""

import math
from dataclasses import replace

import numpy as np
import pytest

from coldflow.fridgesim import (
    CADENCE_S,
    K_COOL_RANGE,
    K_WARM_RANGE,
    RAMP_S,
    START_TS,
    T_SET_LOW_RANGE,
    FaultPlan,
    FridgeSpec,
    SimConfig,
    WORKORDER_PATTERNS,
    fleet_specs,
    plan_faults,
    simulate_fleet,
    simulate_fridge,
    true_time_to_threshold,
    workorders_for_plans,
    write_telemetry_csv,
)
from coldflow.telemetry import parse_telemetry_csv
from coldflow.wrangler import Workorder, parse_workorders


def make_spec(**overrides) -> FridgeSpec:
    base = dict(
        fridge_id="F0000",
        store_id="S000",
        fridge_index=0,
        k_cool=1.0 / 600.0,
        k_warm=2.6e-4,
        t_set_low=1.0,
        t_set_high=4.0,
        t_ambient=20.0,
        threshold_temp=8.0,
        power_kw=2.5,
        noise_sigma=0.0,
        spread=1.5,
        defrost_phase_s=1800.0,
        initial_temp=2.5,
    )
    base.update(overrides)
    return FridgeSpec(**base)


def rising_edges(readings):
    flags = readings.defrost
    edges = [i for i in range(1, len(flags)) if flags[i] == 1 and flags[i - 1] == 0]
    if flags and flags[0] == 1:
        edges.insert(0, 0)
    return edges


def test_fleet_specs_deterministic_and_in_range():
    config = SimConfig(n_fridges=25, seed=3)
    specs = fleet_specs(config)
    assert specs == fleet_specs(config)
    assert [s.fridge_id for s in specs[:2]] == ["F0000", "F0001"]
    assert specs[0].store_id == "S000" and specs[10].store_id == "S001"
    for spec in specs:
        assert K_COOL_RANGE[0] <= spec.k_cool <= K_COOL_RANGE[1]
        assert K_WARM_RANGE[0] <= spec.k_warm <= K_WARM_RANGE[1]
        assert T_SET_LOW_RANGE[0] <= spec.t_set_low <= T_SET_LOW_RANGE[1]
        assert spec.t_set_low < spec.t_set_high < spec.threshold_temp < spec.t_ambient
        assert spec.t_set_low <= spec.initial_temp <= spec.t_set_high
        assert spec.defrost_phase_s % CADENCE_S == 0
        assert 0 <= spec.defrost_phase_s < 21600
    # Different seeds sample different fleets.
    assert fleet_specs(SimConfig(n_fridges=25, seed=4)) != specs


def test_noise_off_zeroes_only_the_noise_sigma():
    # The sigma is drawn with noise off too, so every other parameter of
    # every fridge is the noisy fleet's.
    noisy = fleet_specs(SimConfig(n_fridges=20, seed=4))
    quiet = fleet_specs(SimConfig(n_fridges=20, seed=4, noise=False))
    assert all(spec.noise_sigma > 0.0 for spec in noisy)
    assert quiet == [replace(spec, noise_sigma=0.0) for spec in noisy]


def test_simulation_is_deterministic():
    config = SimConfig(days=1.0, seed=5)
    spec = fleet_specs(replace(config, n_fridges=1))[0]
    assert simulate_fridge(spec, config) == simulate_fridge(spec, config)


def test_noise_free_band_and_defrost_cadence():
    config = SimConfig(days=3.0, noise=False)
    spec = make_spec()
    readings = simulate_fridge(spec, config)
    assert len(readings) == 3 * 1440
    assert readings.fridge_ids == [spec.fridge_id] * len(readings)
    assert readings.store_ids == [spec.store_id] * len(readings)

    temps = readings.air_on
    warm_step = CADENCE_S * spec.k_warm * (spec.t_ambient - spec.t_set_low)
    assert min(temps) >= spec.t_set_low - 1e-9
    assert max(temps) <= spec.threshold_temp + warm_step + 1e-9

    # 4 defrosts per day, phase-locked to the timer grid.
    edges = rising_edges(readings)
    assert len(edges) == 12
    assert all((e - 30) % 360 == 0 for e in edges)

    # Spread bookkeeping: off-coil air is colder when cooling, hotter in defrost.
    for on, off, defrost in zip(readings.air_on, readings.air_off, readings.defrost):
        gap = on - off
        if defrost:
            assert gap == pytest.approx(-spec.spread)
        else:
            assert gap == pytest.approx(spec.spread) or gap == pytest.approx(0.2 * spec.spread)


def test_defrost_durations_match_closed_form():
    config = SimConfig(days=2.0, noise=False)
    spec = make_spec()
    readings = simulate_fridge(spec, config)
    flags = readings.defrost
    edges = rising_edges(readings)
    assert edges
    for start in edges:
        end = start
        while end < len(flags) and flags[end] == 1:
            end += 1
        assert end < len(flags)
        duration = (end - start) * CADENCE_S
        expected = true_time_to_threshold(spec, readings.air_on[start])
        assert abs(duration - expected) <= CADENCE_S


def test_true_time_to_threshold_guards():
    with pytest.raises(ValueError):
        true_time_to_threshold(make_spec(), 9.0)
    with pytest.raises(ValueError):
        true_time_to_threshold(make_spec(t_ambient=7.0), 2.0)


def test_realistic_noise_stays_physical():
    config = SimConfig(days=1.0, n_fridges=3, seed=11)
    for spec, readings in simulate_fleet(config):
        temps = np.array(readings.air_on)
        assert temps.min() > spec.t_set_low - 2.0
        assert temps.max() < spec.threshold_temp + 2.0
        assert list(readings.extra) == ["power_kw"]
        assert set(readings.extra["power_kw"]) <= {0.0, spec.power_kw}
        assert len(rising_edges(readings)) == 4


def test_fault_plan_ramps_and_truncates():
    config = SimConfig(days=4.0, seed=9)
    spec = make_spec(noise_sigma=0.05)
    fault = FaultPlan(
        fridge_id=spec.fridge_id,
        fault_name="icepack",
        fault_ts=START_TS + 3.0 * 86400.0,
    )
    healthy = simulate_fridge(spec, config)
    faulted = simulate_fridge(spec, config, fault=fault)

    assert faulted.timestamps[-1] < fault.fault_ts
    assert len(faulted) == 3 * 1440

    ramp_start = fault.fault_ts - RAMP_S
    n_prefix = int((ramp_start - START_TS) / CADENCE_S) + 1
    # Every column, extras included, matches bit for bit up to the ramp.
    assert faulted[:n_prefix] == healthy[:n_prefix]
    assert faulted.air_on[n_prefix:] != healthy.air_on[n_prefix:len(faulted)]

    late = np.array(faulted.air_on[-720:])
    base = np.array(healthy.air_on[len(faulted) - 720:len(faulted)])
    assert np.abs(late - base).max() > 0.3


def test_plan_faults_and_workorders():
    config = SimConfig(n_fridges=20, days=6.0, seed=21)
    specs = fleet_specs(config)
    plans = plan_faults(specs, config, n_faults=5, seed=21)
    assert plans == plan_faults(specs, config, n_faults=5, seed=21)
    assert len({p.fridge_id for p in plans}) == 5
    for plan in plans:
        offset = plan.fault_ts - START_TS
        assert offset % CADENCE_S == 0
        assert 3 * 86400.0 <= offset < 6 * 86400.0

    orders = workorders_for_plans(plans, specs, seed=21, noise_orders=3)
    assert len(orders) == 8
    assert [ts for _, ts in orders] == sorted(ts for _, ts in orders)
    events, skipped = parse_workorders(
        [Workorder(text, ts) for text, ts in orders], WORKORDER_PATTERNS
    )
    assert skipped == 3
    assert {e.fridge_id for e in events} == {p.fridge_id for p in plans}
    assert all(e.store_id and e.fault_name for e in events)

    with pytest.raises(ValueError):
        plan_faults(specs, config, n_faults=21, seed=0)
    with pytest.raises(ValueError):
        plan_faults(specs, SimConfig(n_fridges=20, days=2.0), n_faults=1, seed=0)


def test_csv_round_trip_is_exact(tmp_path):
    config = SimConfig(days=0.05, n_fridges=1, seed=13)
    spec = fleet_specs(config)[0]
    readings = simulate_fridge(spec, config)
    path = tmp_path / "fleet.csv"
    write_telemetry_csv(readings, path)
    parsed, rejects = parse_telemetry_csv(path.read_text())
    assert rejects == []
    assert parsed == readings
