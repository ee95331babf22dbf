"""One input rule for the whole public API: a NaN or +-inf float, or a
finite one at the ends of the double range that a formula cannot take,
raises ValueError, with a message that names the input, and nothing else.

The callables are found, not listed: every name in latticegate.__all__ whose
signature has a parameter annotated float. REFERENCE_ARGS gives each one a
valid call; a public callable with a float parameter and no row fails.
"""

import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticegate
from conftest import CG_PI, CG_PI_4, REF_MEAN_F, REF_MEAN_G
from latticegate import (
    PLANCK,
    CatalysisField,
    GateEnvironment,
    LatticeBeamConfig,
    TrapGeometry,
    cesium_d2,
)

CESIUM = cesium_d2()
WAVE_NUMBER = 2.0 * math.pi / 852e-9
BEAMS = LatticeBeamConfig(50.0e4, 52.0e4, 2.0 * math.pi * 120e9, 2.0 * math.pi * 2e12, WAVE_NUMBER, math.pi / 2)
ENV = GateEnvironment(v_dd=-3.3e-30, gamma_dd=806.2, gamma_single=819.2)

REFERENCE_ARGS = {
    "AtomSpecies": dict(mass=2.20694695e-25, lambda_res=852e-9, gamma_natural=3.27982273e7, i_sat=11.0,
                        nuclear_spin=3.5),
    "TrapGeometry": dict(eta_perp=0.1, eta_par=0.2),
    "QuadratureSpec": dict(rel_tol=1e-6),
    "DipoleExpectation": dict(mean_f=REF_MEAN_F, mean_g=REF_MEAN_G, err_f=1e-8, err_g=1e-8, evaluations=274),
    "optimize_ratio": dict(eta_perp=0.1),
    "LatticeBeamConfig": dataclasses.asdict(BEAMS),
    "TrapParams": dict(well_depth=1e-27, osc_freq=1e5, ground_rms=1e-8, lamb_dicke=0.1, scatter_rate=10.0),
    "CatalysisField": dict(intensity=1.0, saturation=0.1, scatter_rate=100.0),
    "CatalysisSolution": dict(field=CatalysisField(1.0, 0.1, 100.0), gamma_sup=100.0),
    "LatticeConfig": dict(species=CESIUM, species_name="cesium_d2", beams=BEAMS,
                          design_geometry=TrapGeometry(0.1, 0.2), target_shift=PLANCK * 5000.0,
                          geometry_factor=1.0),
    "well_separation": dict(theta=math.pi / 4, wave_number=WAVE_NUMBER),
    "trap_params": dict(species=CESIUM, intensity=50.0e4, detuning=2.0 * math.pi * 120e9,
                        wave_number=WAVE_NUMBER, geometry_factor=1.0),
    "catalysis_intensity": dict(species=CESIUM, c_g4=CG_PI_4, mean_f=REF_MEAN_F, mean_g=REF_MEAN_G,
                                target_shift=PLANCK * 5000.0),
    "GateEnvironment": dataclasses.asdict(ENV),
    "PulseSpec": dict(rabi=3141.6, detuning_from_shifted=0.0, duration=1e-3),
    "FidelityReport": dict(row_fidelity=np.ones(4), conditioned_row_fidelity=np.ones(4), mean=1.0,
                           conditioned_mean=1.0),
    "dd_matrix_element": dict(gamma_prime=1000.0, c_g=CG_PI, mean_f=REF_MEAN_F, mean_g=REF_MEAN_G),
    "default_pulse": dict(env=ENV, rabi_divisor=10.0),
    "CorrectedRow": dict(probabilities=np.full(4, 0.25), leaked=0.0, errors=np.zeros(4), leaked_error=0.0,
                         paired_fraction=0.36),
    "simulate_fill": dict(n_sites=100, p=0.6, seed=1),
}


def float_parameters(obj) -> list[str]:
    try:
        parameters = inspect.signature(obj).parameters
    except (TypeError, ValueError):  # an exception class without a signature
        return []
    return [name for name, p in parameters.items() if p.annotation in ("float", float)]


PUBLIC = {
    name: params
    for name in latticegate.__all__
    if callable(getattr(latticegate, name)) and (params := float_parameters(getattr(latticegate, name)))
}


def test_every_row_is_a_valid_public_call():
    assert set(REFERENCE_ARGS) <= set(PUBLIC), "a row names no public callable with a float parameter"
    for name, kwargs in REFERENCE_ARGS.items():
        getattr(latticegate, name)(**kwargs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name,param", [(name, param) for name, params in PUBLIC.items() for param in params])
def test_non_finite_float_raises_value_error_naming_it(name, param, bad):
    assert name in REFERENCE_ARGS, f"{name} takes a float but has no reference row"
    kwargs = {**REFERENCE_ARGS[name], param: bad}
    with pytest.raises(ValueError, match=rf"\b{re.escape(param)}\b"):
        getattr(latticegate, name)(**kwargs)


RECORDS = sorted(name for name in PUBLIC if dataclasses.is_dataclass(getattr(latticegate, name)))

# every float hypothesis draws (NaN, +-inf, subnormals, +-max), the ends of
# the double range and the valid reference value
EDGES = st.sampled_from([1e308, -1e308, 5e-324, -5e-324, 0.0, -0.0])


# the documented physical range of each AtomSpecies field but the spin; the
# AtomSpecies row itself draws its fields from every float, in range or not
SPECIES_RANGES = {"mass": (1e-27, 1e-24), "lambda_res": (1e-7, 1e-5), "gamma_natural": (1e3, 1e10),
                  "i_sat": (1e-3, 1e3)}


def _drawn_args(name: str, data) -> dict:
    """The reference row of name with each float parameter drawn; where the
    row has a species, its fields are drawn inside their ranges, so that the
    species builds and every example reaches the callable's own formula."""
    kwargs = dict(REFERENCE_ARGS[name])
    for param in PUBLIC[name]:
        kwargs[param] = data.draw(st.one_of(st.just(kwargs[param]), EDGES, st.floats()), label=param)
    if "species" in kwargs:
        kwargs["species"] = dataclasses.replace(CESIUM, **{
            field: data.draw(st.one_of(st.just(getattr(CESIUM, field)), st.floats(low, high)), label=field)
            for field, (low, high) in SPECIES_RANGES.items()})
    return kwargs


@pytest.mark.parametrize("name", RECORDS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_records_build_finite_or_raise_value_error(name, data):
    kwargs = _drawn_args(name, data)
    try:
        built = getattr(latticegate, name)(**kwargs)
    except ValueError:
        return
    values = {param: getattr(built, param) for param in PUBLIC[name]}
    if name == "TrapParams" and built.well_depth == 0.0:
        # the documented zero-depth record: an unconfined atom has infinite width
        assert math.isinf(values.pop("ground_rms")) and math.isinf(values.pop("lamb_dicke"))
    assert all(math.isfinite(v) for v in values.values()), values


# finite inputs at which a product or a denominator of the formula leaves the
# doubles: each raised OverflowError or ZeroDivisionError, or returned inf
EXTREME_FINITE = [
    ("trap_params", "detuning", 1e200),  # (2 detuning / gamma)**2 overflows
    ("trap_params", "detuning", 1e308),  # the depth underflows to 0
    ("trap_params", "intensity", 5e-324),  # likewise
    ("catalysis_intensity", "mean_f", 5e-324),  # hbar * c_g4 * |mean_f| is 0
    ("dd_matrix_element", "c_g", -1e308),  # c_g**4 overflows
    ("default_pulse", "rabi_divisor", 1e-300),  # hbar * rabi_divisor is 0
    ("optimize_ratio", "eta_perp", 3e-187),  # eta_perp**2 * eta_par is 0
    ("optimize_ratio", "eta_perp", 1e-105),  # kappa_approx is inf
    # a species field, set on the reference species: outside its physical
    # range a formula returned nonsense or blamed another input
    ("catalysis_intensity", "i_sat", 5e-324),  # intensity 0 beside a nonzero saturation
    ("trap_params", "mass", 5e-324),  # osc_freq 4.4e154, scatter_rate 3.0e150
    ("trap_params", "i_sat", 1e300),  # the depth underflows, blamed on intensity and detuning
]


@pytest.mark.parametrize("name,param,value", EXTREME_FINITE)
def test_extreme_finite_input_raises_value_error_naming_it(name, param, value):
    with pytest.raises(ValueError, match=rf"\b{re.escape(param)}\b"):
        if param in REFERENCE_ARGS[name]:
            kwargs = {**REFERENCE_ARGS[name], param: value}
        else:
            kwargs = {**REFERENCE_ARGS[name], "species": dataclasses.replace(CESIUM, **{param: value})}
        getattr(latticegate, name)(**kwargs)


# a valid call of each public callable with an integer input: a count or a seed
INTEGER_ARGS = {
    "mc_oracle": dict(geom=TrapGeometry(0.1, 0.2), samples=10**4, seed=1),
    "simulate_fill": REFERENCE_ARGS["simulate_fill"],
    "QuadratureSpec": dict(rel_tol=1e-6, eval_budget=300),
}
# each input must be an integer in its range; a bool, a float or a string
# fails even where its value would pass
BAD_INTEGERS = [
    ("mc_oracle", "samples", 9999),
    ("mc_oracle", "samples", math.inf),  # raised OverflowError
    ("mc_oracle", "samples", 10000.5),  # ran 10^4 samples
    ("mc_oracle", "samples", "100000"),  # ran
    ("mc_oracle", "seed", -1),
    ("mc_oracle", "seed", 1.0),
    ("simulate_fill", "n_sites", 0),
    ("simulate_fill", "n_sites", 2**62),
    ("simulate_fill", "n_sites", 2.5),  # returned n_sites=2.5
    ("simulate_fill", "n_sites", True),  # returned n_sites=True
    ("simulate_fill", "seed", 1.5),  # raised TypeError
    ("simulate_fill", "seed", -1),  # a ValueError that did not name the seed
    ("QuadratureSpec", "eval_budget", 0),
    ("QuadratureSpec", "eval_budget", 1.5),  # built
    ("QuadratureSpec", "eval_budget", math.inf),  # built
    ("QuadratureSpec", "eval_budget", np.float64(300.0)),
]


@pytest.mark.parametrize("name,param,value", BAD_INTEGERS)
def test_integer_input_outside_its_rule_raises_value_error_naming_it(name, param, value):
    kwargs = {**INTEGER_ARGS[name], param: value}
    with pytest.raises(ValueError, match=rf"^{re.escape(param)} must be an integer in \["):
        getattr(latticegate, name)(**kwargs)


@pytest.mark.parametrize("name", sorted(INTEGER_ARGS))
def test_numpy_integers_pass_the_integer_rule(name):
    kwargs = INTEGER_ARGS[name]
    as_numpy = {param: np.int64(value) if type(value) is int else value for param, value in kwargs.items()}
    assert getattr(latticegate, name)(**as_numpy) == getattr(latticegate, name)(**kwargs)


FUNCTIONS = sorted(name for name in PUBLIC if name not in RECORDS)


def _finite_leaves(value) -> bool:
    if dataclasses.is_dataclass(value):
        return True  # a record checks its own fields
    if isinstance(value, tuple):
        return all(_finite_leaves(v) for v in value)
    return math.isfinite(value)


@pytest.mark.parametrize("name", FUNCTIONS)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_functions_return_finite_or_raise_value_error(name, data):
    kwargs = _drawn_args(name, data)
    try:
        result = getattr(latticegate, name)(**kwargs)
    except ValueError:
        return
    assert _finite_leaves(result), result
