"""Physics-based retail fridge fleet simulator.

Each fridge is a first-order thermal system driven with forward Euler at
the telemetry cadence. While the compressor runs the cabinet relaxes
toward the low setpoint; while idle or defrosting it relaxes toward
ambient. A thermostat cycles the compressor across the setpoint band, and
a timer fires a few defrosts per day: the compressor stops and the cabinet
warms until it crosses the defrost termination threshold.

With noise disabled the warming segments follow the Euler recurrence
exactly, so measured defrost durations can be checked against the
closed-form time to threshold (:func:`true_time_to_threshold`). That is
the calibration handle for everything downstream: a learner that predicts
defrost durations well is recovering each fridge's warming constant.

Fault injection ramps a fridge's warming constant up over the two days
before a work order lands and superimposes a growing slow oscillation
(compressor hunting); the stream ends at the fault, when the engineer
switches the unit off. The noise sequence is drawn per fridge up front, so
a faulted run matches the healthy one bit for bit until the ramp starts.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from coldflow.runconfig import WORKORDER_PATTERNS  # matches workorders_for_plans' text
from coldflow.telemetry import CSV_COLUMNS, Readings

SECONDS_PER_DAY = 86400.0

# Telemetry cadence and first timestamp; the defrost timer and its cut-outs.
CADENCE_S = 60.0
START_TS = 1_500_000_000.0
DEFROSTS_PER_DAY = 4
DEFROST_MAX_S = 7200.0
THRESHOLD_TEMP = 8.0

# Per-fridge uniform sampling ranges. Ambient stays within the narrow band
# of a climate-controlled sales floor: a short window identifies a fridge's
# warming rate only as the product k_warm * (ambient - T), so a wide
# ambient spread would make time-to-threshold unidentifiable from window
# features alone no matter the model.
K_COOL_RANGE = (1.0 / 900.0, 1.0 / 300.0)
K_WARM_RANGE = (1.3e-4, 4.2e-4)
T_SET_LOW_RANGE = (0.5, 2.0)
T_SET_HIGH_RANGE = (3.0, 4.5)
T_AMBIENT_RANGE = (19.5, 20.5)
POWER_KW_RANGE = (1.0, 4.0)
# Sensor repeatability, not absolute accuracy: per-sample jitter of a
# calibrated probe. Threshold-crossing jitter scales with sigma and sets
# the noise floor of defrost-duration targets.
NOISE_SIGMA_RANGE = (0.02, 0.05)
SPREAD_RANGE = (1.0, 2.0)

# A fault's ramp: k_warm grows to K_WARM_END_FACTOR times its own and a
# slow oscillation (compressor hunting) to OSC_AMP degrees.
RAMP_S = 2.0 * SECONDS_PER_DAY
K_WARM_END_FACTOR = 1.6
OSC_AMP = 0.8
OSC_PERIOD_S = 900.0


@dataclass(frozen=True)
class SimConfig:
    """Fleet-level simulation settings; ``noise`` off zeroes per-step noise."""

    n_fridges: int = 50
    days: float = 30.0
    seed: int = 0
    fridges_per_store: int = 10
    noise: bool = True


@dataclass(frozen=True)
class FridgeSpec:
    """One fridge's physical parameters, sampled once per fleet."""

    fridge_id: str
    store_id: str
    fridge_index: int
    k_cool: float
    k_warm: float
    t_set_low: float
    t_set_high: float
    t_ambient: float
    threshold_temp: float
    power_kw: float
    noise_sigma: float
    spread: float
    defrost_phase_s: float
    initial_temp: float


@dataclass(frozen=True)
class FaultPlan:
    """A developing fault, ramping up over the RAMP_S before ``fault_ts``
    (the work order timestamp). The telemetry stream stops at the fault:
    the unit is switched off for repair."""

    fridge_id: str
    fault_name: str
    fault_ts: float


def fleet_specs(config: SimConfig) -> list[FridgeSpec]:
    """Sample the fleet deterministically: fridge i depends only on (seed, i)."""
    period_steps = int(SECONDS_PER_DAY / DEFROSTS_PER_DAY / CADENCE_S)
    specs = []
    for i in range(config.n_fridges):
        rng = np.random.default_rng([config.seed, i, 0])
        low = rng.uniform(*T_SET_LOW_RANGE)
        high = rng.uniform(*T_SET_HIGH_RANGE)
        specs.append(
            FridgeSpec(
                fridge_id=f"F{i:04d}",
                store_id=f"S{i // config.fridges_per_store:03d}",
                fridge_index=i,
                k_cool=rng.uniform(*K_COOL_RANGE),
                k_warm=rng.uniform(*K_WARM_RANGE),
                t_set_low=low,
                t_set_high=high,
                t_ambient=rng.uniform(*T_AMBIENT_RANGE),
                threshold_temp=THRESHOLD_TEMP,
                power_kw=rng.uniform(*POWER_KW_RANGE),
                # Drawn with noise off too, so every later draw is the same.
                noise_sigma=rng.uniform(*NOISE_SIGMA_RANGE) * float(config.noise),
                spread=rng.uniform(*SPREAD_RANGE),
                defrost_phase_s=float(rng.integers(0, period_steps)) * CADENCE_S,
                initial_temp=rng.uniform(low, high),
            )
        )
    return specs


def true_time_to_threshold(spec: FridgeSpec, start_temp: float) -> float:
    """Closed-form warming time from start_temp to the defrost threshold."""
    if not start_temp < spec.threshold_temp < spec.t_ambient:
        raise ValueError("need start_temp < threshold < ambient")
    ratio = (spec.t_ambient - start_temp) / (spec.t_ambient - spec.threshold_temp)
    return math.log(ratio) / spec.k_warm


_COOLING, _IDLE, _DEFROST = 0, 1, 2


def simulate_fridge(
    spec: FridgeSpec,
    config: SimConfig,
    fault: FaultPlan | None = None,
) -> Readings:
    """Run one fridge for the configured span at the telemetry cadence.

    Returns its readings with a ``power_kw`` extra (0.0 unless cooling).
    The noise sequence is pre-drawn from (seed, fridge_index), so runs with
    different fault plans share it step for step: readings before any
    behavioral divergence are bit-identical across runs.
    """
    dt = CADENCE_S
    steps = int(round(config.days * SECONDS_PER_DAY / dt))
    period_steps = int(SECONDS_PER_DAY / DEFROSTS_PER_DAY / dt)
    phase_steps = int(round(spec.defrost_phase_s / dt))

    rng = np.random.default_rng([config.seed, spec.fridge_index, 1])
    # Plain Python floats end to end: readings go through JSON untouched.
    noise = (
        rng.normal(0.0, spec.noise_sigma, steps).tolist()
        if spec.noise_sigma > 0.0
        else [0.0] * steps
    )

    ramp_start = fault.fault_ts - RAMP_S if fault else None
    stamps, air_ons, air_offs, flags, power = [], [], [], [], []
    temp = spec.initial_temp
    state = _COOLING
    defrost_elapsed = 0.0

    for i in range(steps):
        t = START_TS + i * dt
        if fault is not None and t >= fault.fault_ts:
            break
        if state != _DEFROST and (i - phase_steps) % period_steps == 0:
            state = _DEFROST
            defrost_elapsed = 0.0

        progress = 0.0
        if fault is not None and t > ramp_start:
            progress = min(1.0, (t - ramp_start) / RAMP_S)
        oscillation = (
            OSC_AMP * progress
            * math.sin(2.0 * math.pi * (t - ramp_start) / OSC_PERIOD_S)
            if progress > 0.0
            else 0.0
        )

        cooling = state == _COOLING
        air_on = temp + oscillation
        if state == _DEFROST:
            air_off = air_on + spec.spread
        elif cooling:
            air_off = air_on - spec.spread
        else:
            air_off = air_on - 0.2 * spec.spread
        stamps.append(t)
        air_ons.append(air_on)
        air_offs.append(air_off)
        flags.append(1 if state == _DEFROST else 0)
        power.append(spec.power_kw if cooling else 0.0)

        k_warm = spec.k_warm * (1.0 + (K_WARM_END_FACTOR - 1.0) * progress) \
            if progress > 0.0 else spec.k_warm
        if cooling:
            temp += dt * (-spec.k_cool) * (temp - spec.t_set_low) + noise[i]
        else:
            temp += dt * k_warm * (spec.t_ambient - temp) + noise[i]

        if state == _DEFROST:
            defrost_elapsed += dt
            if temp >= spec.threshold_temp or defrost_elapsed >= DEFROST_MAX_S:
                state = _COOLING
        elif state == _COOLING and temp <= spec.t_set_low:
            state = _IDLE
        elif state == _IDLE and temp >= spec.t_set_high:
            state = _COOLING
    n = len(stamps)
    return Readings(stamps, [spec.fridge_id] * n, [spec.store_id] * n, air_ons, air_offs,
                    flags, {"power_kw": power})


def simulate_fleet(config: SimConfig, fault_plans: list[FaultPlan] | None = None):
    """Yield (spec, readings) per fridge; stream-friendly for large fleets."""
    plans = {plan.fridge_id: plan for plan in fault_plans or []}
    for spec in fleet_specs(config):
        yield spec, simulate_fridge(spec, config, fault=plans.get(spec.fridge_id))


# ------------------------------------------------------ faults and orders

FAULT_NAMES = (
    "icepack",
    "evaporator icing",
    "door gasket",
    "compressor hunting",
    "refrigerant leak",
)

NOISE_WORKORDERS = (
    "please mop aisle five",
    "replace strip light in bakery",
    "car park barrier stuck again",
    "freezer aisle trolley left overnight",
)


def plan_faults(specs: list[FridgeSpec], config: SimConfig, n_faults: int,
                seed: int) -> list[FaultPlan]:
    """Pick fridges (at most one fault each) and schedule their failures.

    Fault times are snapped to the sample grid and leave the full ramp plus
    a day of pre-ramp history before them.
    """
    if n_faults > len(specs):
        raise ValueError(f"{n_faults} faults but only {len(specs)} fridges")
    rng = np.random.default_rng([seed, 2])
    chosen = rng.choice(len(specs), size=n_faults, replace=False)
    plans = []
    earliest = RAMP_S + SECONDS_PER_DAY
    latest = config.days * SECONDS_PER_DAY - CADENCE_S
    if latest <= earliest:
        raise ValueError("simulation too short for a fault ramp plus history")
    for index in sorted(chosen):
        spec = specs[index]
        offset = rng.uniform(earliest, latest)
        steps = int(offset / CADENCE_S)
        plans.append(
            FaultPlan(
                fridge_id=spec.fridge_id,
                fault_name=FAULT_NAMES[int(rng.integers(0, len(FAULT_NAMES)))],
                fault_ts=START_TS + steps * CADENCE_S,
            )
        )
    return plans


def workorders_for_plans(plans: list[FaultPlan], specs: list[FridgeSpec],
                         seed: int, noise_orders: int = 0):
    """Render fault plans as free-text work orders, plus unrelated noise.

    Returns (raw_text, timestamp) tuples shuffled into timestamp order, the
    shape maintenance logs actually arrive in.
    """
    stores = {spec.fridge_id: spec.store_id for spec in specs}
    rng = np.random.default_rng([seed, 3])
    orders = [
        (
            f"store {stores[plan.fridge_id]} fridge {plan.fridge_id} "
            f"{plan.fault_name} fault",
            plan.fault_ts,
        )
        for plan in plans
    ]
    if plans:
        lo = min(plan.fault_ts for plan in plans)
        hi = max(plan.fault_ts for plan in plans)
        for _ in range(noise_orders):
            text = NOISE_WORKORDERS[int(rng.integers(0, len(NOISE_WORKORDERS)))]
            orders.append((text, float(rng.uniform(lo, hi + 1.0))))
    orders.sort(key=lambda pair: pair[1])
    return orders


# ------------------------------------------------------------- csv export

def write_telemetry_csv(readings: Readings, path) -> None:
    """Write simulated readings as a CSV with the telemetry CSV_COLUMNS and
    a ``power_kw`` column, as ``coldflow ingest`` reads it back.

    Floats go out as repr, so a parse round trip reproduces them exactly.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow((*CSV_COLUMNS, "power_kw"))
        writer.writerows(zip(map(repr, readings.timestamps), readings.fridge_ids,
                             (store_id or "" for store_id in readings.store_ids),
                             map(repr, readings.air_on), map(repr, readings.air_off),
                             readings.defrost, map(repr, readings.extra["power_kw"])))
