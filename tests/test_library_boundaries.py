"""Every public callable of the package refuses a malformed input and names it, with no warning on the way.

One table states the kind of each parameter of each public name; each kind has a fixed corpus of values it
must refuse.  A dimension, a sector label and a resolution follow ``bounded_integer``; an operator, a state, a
coefficient and an angle follow ``finite_array``.  A public name missing from the table fails the test, so each
new export states its kinds.
"""

import inspect
import re

import numpy as np
import pytest

import sun_gates
from sun_gates import (
    AmplitudeCoefficients,
    Channel,
    ChannelSpec,
    PartialWaveSector,
    build_generators,
    build_projectors,
    crossing_map,
    plan_encoding,
)
from sun_gates.amplitude_model import MAX_DISK_RESOLUTION
from sun_gates.sun_algebra import bounded_integer, finite_array, qudit_dimension

N = 3
SPEC = ChannelSpec(Channel.S, N)
GENS = build_generators(N)
COEFFS = AmplitudeCoefficients(SPEC, 0.6, 0.8j)
PLAN = plan_encoding(COEFFS)


def dimension():
    return "dimension", N, "qudit dimension"


def operator(label="operator", valid=np.eye(N * N)):
    return "operator", valid, label


def state(label="psi"):
    return "state", np.eye(N * N)[0], label


def coefficient(label):
    return "coefficient", 0.5, label


def angle(label):
    return "angle", 0.3, label


def resolution():
    return "resolution", 4, "resolution"


def label():
    return "label", 1, "angular momentum label j"


def typed(valid=None):
    """A value of one of the package's types, or a field of one: it is checked where it is built, so no corpus."""
    return "typed", valid, None


#: Each public callable's parameters: name -> (kind, a valid value, the word its refusal must carry)
PARAMETERS = {
    "GeneratorSet": {"n": dimension(), "generators": operator("generators", GENS.generators)},
    "build_generators": {"n": dimension()},
    "hermiticity_deviation": {"gens": typed()},
    "tracelessness_deviation": {"gens": typed()},
    "orthonormality_deviation": {"gens": typed()},
    "verify_completeness": {"gens": typed()},
    # a decomposition is decompose's result: reconstruct checks each field it reads
    "OperatorBasisDecomposition": {"gens": typed(), "scalar": typed(), "left": typed(), "right": typed(),
                                   "corr": typed()},
    "decompose": {"op": operator(), "gens": typed(GENS)},
    "reconstruct": {"dec": typed()},
    "Channel": {"value": typed()},
    "ChannelSpec": {"kind": typed(Channel.S), "n": dimension()},
    "ChannelSpec.apply_z": {"psi": state()},
    "AmplitudeCoefficients": {"channel": typed(SPEC), "a": coefficient("coefficient a"),
                              "b": coefficient("coefficient b")},
    "swap_matrix": {"n": dimension()},
    "build_projectors": {"channel": typed()},
    "generator_form_projectors": {"channel": typed(), "gens": typed()},
    "charge_parity_bilinear": {"gens": typed()},
    "u_exponential_form": {"gens": typed()},
    "crossing_map": {"op": operator()},
    "crossing_row_deviations": {"s": typed(), "t": typed()},
    "crossing_operator_deviation": {"s": typed(), "t": typed()},
    "select_crossing_axes": {"n": dimension()},
    "amplitude_operator": {"coeffs": typed()},
    "scalar_amplitudes": {"m": operator(), "projs": typed(build_projectors(SPEC))},
    "invariance_residual": {"m": operator(), "projs": typed(build_projectors(SPEC))},
    "cross_coefficients": {"coeffs": typed()},
    "unitary_parameterization": {"theta": angle("theta"), "phi": angle("phi"), "channel": typed(SPEC)},
    # kappa_j is a measurement's factor, finite like a_j
    "PartialWaveSector": {"j": label(), "a_j": coefficient("a_j"), "b_j": coefficient("b_j"),
                          "kappa_j": coefficient("kappa_j")},
    "disk_samples": {"resolution": resolution()},
    # a plan is plan_encoding's result, and a report or a postselection result that of its function
    "BlockEncodingPlan": {"amplitude": typed(), "alpha": typed(), "gamma": typed(), "phi_a": typed(),
                          "phi_b": typed()},
    "BlockEncodingReport": {"block_identity_deviation": typed(), "w_unitarity_deviation": typed()},
    "PostselectionResult": {"state": typed(), "success_probability": typed(), "annihilated": typed()},
    "plan_encoding": {"coeffs": typed()},
    "build_w": {"plan": typed()},
    "verify_block": {"plan": typed()},
    "export_circuit": {"plan": typed()},
    "apply_with_postselection": {"plan": typed(PLAN), "psi": state()},
}


def target(name):
    return SPEC.apply_z if name == "ChannelSpec.apply_z" else getattr(sun_gates, name)


def with_entry(valid, value):
    bad = np.array(valid, dtype=complex)
    bad.flat[1] = value
    return bad


def corpus(kind, valid):
    """The values of ``kind`` to refuse, by id; built around ``valid`` so that only the one defect differs."""
    if kind == "dimension":
        return {"0": 0, "-1": -1, "2.5": 2.5, "True": True}
    if kind == "label":
        return {"-1": -1, "2.5": 2.5, "True": True}
    if kind in ("operator", "state"):
        return {"nan": with_entry(valid, np.nan), "inf": with_entry(valid, np.inf), "wrong-shape": valid[..., :-1],
                "object": np.array(valid, dtype=object), "empty": np.array([]), "ragged": [[1, 2], [3]]}
    if kind in ("coefficient", "angle"):
        return {"nan": np.nan, "inf": np.inf, "ragged": [1, [2]]}
    if kind == "resolution":
        return {"1": 1, "2.5": 2.5, "max+1": MAX_DISK_RESOLUTION + 1, "True": True}
    assert kind == "typed"
    return {}


CASES = [(name, param, bad_id) for name, params in PARAMETERS.items()
         for param, (kind, valid, _) in params.items() for bad_id in corpus(kind, valid)]


def test_every_public_callable_states_the_kind_of_each_parameter():
    public = {name for name, value in vars(sun_gates).items() if callable(value) and not name.startswith("_")}
    assert set(PARAMETERS) == public | {"ChannelSpec.apply_z"}
    for name, params in PARAMETERS.items():
        signature = inspect.signature(target(name)).parameters.values()
        required = {p.name for p in signature if p.default is p.empty}
        assert required <= set(params) <= {p.name for p in signature}, name
        assert {kind for kind, _, _ in params.values()} <= {
            "dimension", "label", "operator", "state", "coefficient", "angle", "resolution", "typed"}, name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, param, bad_id", CASES, ids=["-".join(case) for case in CASES])
def test_a_malformed_value_is_refused_and_named(name, param, bad_id):
    params = PARAMETERS[name]
    kind, valid, label = params[param]
    arguments = {p: value for p, (_, value, _) in params.items()}
    arguments[param] = corpus(kind, valid)[bad_id]
    with pytest.raises((TypeError, ValueError)) as refused:
        target(name)(**arguments)
    assert label in str(refused.value)


@pytest.mark.parametrize("size", [0, 1])
def test_crossing_map_takes_its_n_through_qudit_dimension(size):
    # a 0 x 0 or 1 x 1 operator is square and its size a perfect square, but its N is below 2
    with pytest.raises(ValueError, match=f"qudit dimension must be at least 2, got {size}"):
        crossing_map(np.eye(size))


@pytest.mark.parametrize("value, shape, message", [
    (np.eye(2), (4, 4), "x must have shape (4, 4), got (2, 2)"),
    (np.array(["1"]), None, "x must hold numbers, got dtype <U1"),
    (np.array([True]), None, "x must hold numbers, got dtype bool"),
    (complex(np.inf, 0.0), (), "x must be finite, got (inf+0j)"),
    ([0.0, np.nan], (2,), "x must be finite, got a nan or infinite entry"),
    ([[1, 2], [3]], None, "x must be a rectangular array of numbers, got a ragged sequence"),
], ids=["shape", "str", "bool", "0-d", "1-d", "ragged"])
def test_finite_array_names_its_value_with_each_rule(value, shape, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        finite_array("x", value, shape)


def test_finite_array_returns_the_array_it_checked():
    psi = np.eye(4, dtype=complex)[1]
    assert finite_array("psi", psi, (4,)) is psi
    assert finite_array("n", 3).dtype.kind == "i"


@pytest.mark.parametrize("value, high, error, message", [
    (2.0, None, TypeError, "k must be an integer, got 2.0"),
    (True, None, TypeError, "k must be an integer, got True"),
    (1, None, ValueError, "k must be at least 2, got 1"),
    (1, 1024, ValueError, "k must be between 2 and 1024, got 1"),
    (1025, 1024, ValueError, "k must be between 2 and 1024, got 1025"),
], ids=["float", "bool", "below", "below-range", "above-range"])
def test_bounded_integer_names_its_value_with_each_rule(value, high, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        bounded_integer("k", value, 2, high)


def test_numpy_integers_come_back_as_python_int():
    assert type(qudit_dimension(np.int64(3))) is int
    assert type(PartialWaveSector(j=np.int64(2), a_j=0.1, b_j=0.1, kappa_j=1.0).j) is int
