import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.constants import hbar

import oracles
from latticegate import gate
from conftest import CG_PI
from latticegate.gate import (
    IDEAL_CNOT_OUTPUT,
    STATE_LABELS,
    GateEnvironment,
    PulseSpec,
    dd_matrix_element,
    default_pulse,
    truth_table,
    truth_table_fidelity,
)

# decay-free conditional-shift environment used by the analytic checks:
# shift/hbar ten times the Rabi frequency below
SHIFT_RAD_S = math.pi * 1e4


def _clean_env(shift_rad_s: float = SHIFT_RAD_S) -> GateEnvironment:
    return GateEnvironment(v_dd=-hbar * shift_rad_s, gamma_dd=0.0, gamma_single=0.0)


def _pi_pulse(rabi: float) -> PulseSpec:
    return PulseSpec(rabi=rabi, detuning_from_shifted=0.0, duration=math.pi / rabi)


# --- analytic pulse behavior -----------------------------------------------------

def test_resonant_pi_pulse_flips_target_exactly():
    env = _clean_env()
    pulse = _pi_pulse(rabi=math.pi * 1e3)
    table = truth_table(env, pulse)
    for start, want in (("11", "10"), ("10", "11")):
        assert table.row(start)[STATE_LABELS.index(want)] == pytest.approx(1.0, abs=1e-9)
        assert table.leakage[STATE_LABELS.index(start)] == pytest.approx(0.0, abs=1e-12)


def test_control_zero_flip_probability_matches_two_level_formula():
    env = _clean_env()
    pulse = _pi_pulse(rabi=math.pi * 1e3)
    row = truth_table(env, pulse).row("01")
    detuning = env.v_dd / hbar
    expected = oracles.rabi_flip_probability(pulse.rabi, detuning, pulse.duration)
    assert expected == pytest.approx(6.0646576186622e-05, rel=1e-9)  # oracle sanity
    assert row[STATE_LABELS.index("00")] == pytest.approx(expected, rel=1e-9)
    # and it must respect the generalized-Rabi ceiling
    ceiling = pulse.rabi**2 / (pulse.rabi**2 + detuning**2)
    assert row[STATE_LABELS.index("00")] <= ceiling


def test_spectator_input_00_is_inert_without_decay():
    env = _clean_env()
    pulse = _pi_pulse(rabi=math.pi * 1e3)
    row = truth_table(env, pulse).row("00")
    detuning = env.v_dd / hbar
    expected = oracles.rabi_flip_probability(pulse.rabi, detuning, pulse.duration)
    assert row[STATE_LABELS.index("01")] == pytest.approx(expected, rel=1e-9)
    assert row[STATE_LABELS.index("00")] == pytest.approx(1.0 - expected, rel=1e-9)


def test_norm_accounting_with_decay(reference_table):
    totals = reference_table.populations.sum(axis=1) + reference_table.leakage
    assert np.all(np.abs(totals - 1.0) < 1e-9)
    assert np.all(reference_table.leakage >= 0.0)


def test_truth_table_matches_full_four_level_propagation(reference_env, reference_pulse):
    # the sector split and its row mapping against one 4x4 propagator
    envs = (
        reference_env,
        _clean_env(),
        GateEnvironment(v_dd=reference_env.v_dd, gamma_dd=0.0, gamma_single=reference_env.gamma_single),
    )
    for env in envs:
        for pulse in (reference_pulse, replace(reference_pulse, detuning_from_shifted=0.37 * reference_pulse.rabi)):
            table = truth_table(env, pulse)
            populations, leakage = oracles.four_level_truth_table(env, pulse)
            np.testing.assert_allclose(table.populations, populations, rtol=0, atol=1e-12)
            np.testing.assert_allclose(table.leakage, leakage, rtol=0, atol=1e-12)
    # and random generators for the closed-form 2x2 exponential: |detuning|
    # * duration up to 60 rad, pulse areas 0.1 to 30, decay up to 3 /
    # duration; 30 of the 1000 sectors take its |w^2| < 1 series branch
    rng = np.random.default_rng(2003)
    for _ in range(500):
        duration = 10 ** rng.uniform(-5, -2)
        gamma_single = 10 ** rng.uniform(-2, 0.5) / duration
        env = GateEnvironment(
            v_dd=hbar * rng.uniform(-30, 30) / duration,
            gamma_dd=gamma_single * rng.uniform(0, 1),
            gamma_single=gamma_single,
        )
        pulse = PulseSpec(
            rabi=10 ** rng.uniform(-1, 1.5) / duration,
            detuning_from_shifted=rng.uniform(-30, 30) / duration,
            duration=duration,
        )
        table = truth_table(env, pulse)
        populations, leakage = oracles.four_level_truth_table(env, pulse)
        np.testing.assert_allclose(table.populations, populations, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.leakage, leakage, rtol=0, atol=1e-12)


@pytest.mark.parametrize("detuning", [1e8, 1e9, 1e10])
def test_leakage_far_off_resonance_matches_mpmath(reference_env, reference_pulse, detuning):
    # a far-detuned 1 ms pi pulse leaks 3.4e-10, 3.4e-12 and 3.4e-14 of the
    # "00" input. A scaled Pade expm lost these to rounding (-1.5 percent,
    # 8x too large, negative); the closed form keeps every row's leakage to
    # a few ulp of the unit norm it is taken from.
    pulse = replace(reference_pulse, detuning_from_shifted=detuning)
    table = truth_table(reference_env, pulse)
    exact = oracles.mp_four_level_leakage(reference_env, pulse)
    np.testing.assert_allclose(table.leakage, exact, rtol=0, atol=4 * np.finfo(float).eps)
    assert table.leakage[0] == pytest.approx(exact[0], rel=1e-2)


def test_overflowing_pulse_is_rejected(reference_env, reference_pulse):
    # (detuning * duration)^2 overflows a double past ~1e154 rad: a loud
    # error, not an all-NaN table
    pulse = replace(reference_pulse, detuning_from_shifted=1e200)
    with pytest.raises(ValueError, match="overflows"):
        truth_table(reference_env, pulse)


def test_norm_gaining_propagator_is_rejected(monkeypatch, reference_env, reference_pulse):
    monkeypatch.setattr(gate, "_sector_propagator", lambda pulse, env, control: 1.1 * np.eye(2))
    with pytest.raises(ValueError, match="leaked population must be nonnegative"):
        truth_table(reference_env, reference_pulse)
    # a rounding-sized gain is clamped, not fatal
    monkeypatch.setattr(gate, "_sector_propagator", lambda pulse, env, control: (1.0 + 1e-13) * np.eye(2))
    assert np.array_equal(truth_table(reference_env, reference_pulse).leakage, np.zeros(4))


# --- frozen operating point -------------------------------------------------------

def test_reference_operating_point(reference_env, reference_pulse):
    assert reference_pulse.rabi == pytest.approx(3141.59265, rel=1e-6)
    assert reference_pulse.duration == pytest.approx(1e-3, rel=1e-6)
    assert reference_pulse.rabi * reference_pulse.duration == pytest.approx(math.pi, rel=1e-12)
    assert reference_env.v_dd / hbar == pytest.approx(-31415.9265, rel=1e-6)
    assert reference_env.gamma_single == pytest.approx(819.187044, rel=1e-6)
    assert reference_env.gamma_dd == pytest.approx(806.200891, rel=1e-6)


def test_truth_table_frozen_rows(reference_table):
    expected_raw = {"00": 0.996286, "01": 0.442736, "10": 0.208988, "11": 0.208988}
    for label, value in expected_raw.items():
        ideal = IDEAL_CNOT_OUTPUT[label]
        row = reference_table.row(label)
        assert row[STATE_LABELS.index(ideal)] == pytest.approx(value, abs=1e-6)


def test_fidelity_frozen_values(reference_table):
    report = truth_table_fidelity(reference_table)
    expected_cond = {"00": 0.999682, "01": 0.999285, "10": 0.912126, "11": 0.958915}
    for i, label in enumerate(STATE_LABELS):
        assert report.conditioned_row_fidelity[i] == pytest.approx(
            expected_cond[label], abs=1e-6
        )
    assert report.mean == pytest.approx(0.464250, abs=1e-6)
    assert report.conditioned_mean == pytest.approx(0.967502, abs=1e-6)
    assert report.conditioned_mean > 0.9


def test_fidelity_degrades_with_extra_scattering(reference_env, reference_pulse):
    noisy_env = GateEnvironment(
        v_dd=reference_env.v_dd,
        gamma_dd=reference_env.gamma_dd * 10.0,
        gamma_single=reference_env.gamma_single * 10.0,
    )
    clean = truth_table_fidelity(truth_table(reference_env, reference_pulse))
    noisy = truth_table_fidelity(truth_table(noisy_env, reference_pulse))
    assert noisy.conditioned_mean < clean.conditioned_mean
    assert noisy.mean < clean.mean


def test_slow_pulse_approaches_ideal_gate():
    # Rabi frequency 1000x below the shift and no decay: conditional
    # errors scale as (rabi/shift)^2 ~ 1e-6
    env = _clean_env()
    pulse = default_pulse(env, rabi_divisor=1000.0)
    report = truth_table_fidelity(truth_table(env, pulse))
    assert report.mean > 1.0 - 1e-5


# --- drive-frame invariances --------------------------------------------------------

def test_control_one_sector_blind_to_shift_change(reference_env, reference_pulse):
    # detunings are quoted from the shifted line, so the control-1 rows
    # cannot depend on v_dd at all: bit-identical, not merely close
    moved = GateEnvironment(
        v_dd=1.7 * reference_env.v_dd,
        gamma_dd=reference_env.gamma_dd,
        gamma_single=reference_env.gamma_single,
    )
    base = truth_table(reference_env, reference_pulse)
    shifted = truth_table(moved, reference_pulse)
    for label in ("10", "11"):
        i = STATE_LABELS.index(label)
        assert np.array_equal(base.populations[i], shifted.populations[i])
        assert base.leakage[i] == shifted.leakage[i]


def test_control_zero_sector_fixed_at_fixed_absolute_frequency(reference_env, reference_pulse):
    # doubling the shift while moving the drive to keep the absolute
    # frequency leaves the control-0 sector's detuning bitwise unchanged
    # (-a + 2a == a exactly in binary floating point)
    shift = reference_env.v_dd / hbar
    doubled = GateEnvironment(
        v_dd=2.0 * reference_env.v_dd,
        gamma_dd=reference_env.gamma_dd,
        gamma_single=reference_env.gamma_single,
    )
    compensated = PulseSpec(
        rabi=reference_pulse.rabi,
        detuning_from_shifted=-shift,
        duration=reference_pulse.duration,
    )
    base = truth_table(reference_env, reference_pulse)
    moved = truth_table(doubled, compensated)
    for label in ("00", "01"):
        i = STATE_LABELS.index(label)
        assert np.array_equal(base.populations[i], moved.populations[i])
        assert base.leakage[i] == moved.leakage[i]


def test_cooperative_decay_only_touches_control_one(reference_env, reference_pulse):
    damped = GateEnvironment(
        v_dd=reference_env.v_dd,
        gamma_dd=0.5 * reference_env.gamma_dd,
        gamma_single=reference_env.gamma_single,
    )
    base = truth_table(reference_env, reference_pulse)
    halved = truth_table(damped, reference_pulse)
    for label in ("00", "01"):
        i = STATE_LABELS.index(label)
        assert np.array_equal(base.populations[i], halved.populations[i])
    for label in ("10", "11"):
        i = STATE_LABELS.index(label)
        assert not np.array_equal(base.populations[i], halved.populations[i])


# --- environment construction --------------------------------------------------------

def test_dd_matrix_element_frozen_rates():
    env = dd_matrix_element(
        gamma_prime=2879.954452904, c_g=CG_PI, mean_f=38.350126203, mean_g=0.984147511
    )
    assert env.v_dd / hbar == pytest.approx(-31415.9265359, rel=1e-8)
    assert env.gamma_single == pytest.approx(819.187044382, rel=1e-9)
    assert env.gamma_dd == pytest.approx(806.200890772, rel=1e-9)
    assert env.v_dd < 0.0  # positive <f> means an attractive pair shift


def test_dd_matrix_element_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        dd_matrix_element(-1.0, CG_PI, 38.0, 0.98)
    with pytest.raises(ValueError, match="finite"):
        dd_matrix_element(1.0, CG_PI, math.nan, 0.98)


def test_environment_cooperativity_bound():
    GateEnvironment(v_dd=-1e-30, gamma_dd=100.0, gamma_single=100.0)
    with pytest.raises(ValueError, match="cooperativity"):
        GateEnvironment(v_dd=-1e-30, gamma_dd=101.0, gamma_single=100.0)
    with pytest.raises(ValueError, match="nonnegative"):
        GateEnvironment(v_dd=-1e-30, gamma_dd=-1.0, gamma_single=100.0)


def test_default_pulse_contract(reference_env):
    pulse = default_pulse(reference_env, rabi_divisor=10.0)
    assert pulse.rabi == pytest.approx(abs(reference_env.v_dd) / (hbar * 10.0), rel=1e-15)
    assert pulse.detuning_from_shifted == 0.0
    assert pulse.rabi * pulse.duration == pytest.approx(math.pi, rel=1e-15)
    # NaN and +-inf: test_input_domains.py covers every public float
    with pytest.raises(ValueError, match="rabi_divisor"):
        default_pulse(reference_env, rabi_divisor=0.0)
    with pytest.raises(ValueError, match="v_dd"):
        default_pulse(GateEnvironment(v_dd=0.0, gamma_dd=0.0, gamma_single=0.0))


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(rabi=0.0, detuning_from_shifted=0.0, duration=1e-3)
    with pytest.raises(ValueError):
        PulseSpec(rabi=1.0, detuning_from_shifted=0.0, duration=0.0)
    # NaN and +-inf, which would run through the propagator into NaN
    # populations: test_input_domains.py covers every public float


# --- readout ---------------------------------------------------------------

def test_gate_flip_reflects_in_readout():
    env = _clean_env()
    pulse = _pi_pulse(rabi=math.pi * 1e3)
    p = truth_table(env, pulse).row("10")
    # logical-1 population per atom, the upper-level fluorescence proxy
    assert p[2] + p[3] == pytest.approx(1.0, abs=1e-9)  # control
    assert p[1] + p[3] == pytest.approx(1.0, abs=1e-9)  # target
