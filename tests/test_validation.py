"""Every validated entry point of the README's validation paragraph against
the same awkward inputs: whether it accepts each one, and its exact refusal
otherwise.

The table is frozen, so that a fast path inside a shared check
(``group._rational``, ``denjoy._check_open_unit``, the total-mass test,
``mediant._check_lr``) cannot change an accepted input, a refusal or its
message.
"""

from fractions import Fraction

import numpy as np
import pytest

from modwalk import (
    EX0_PAIR,
    Cylinder,
    DenjoyParams,
    GroupMeasure,
    PiWeights,
    SimConfig,
    StepOnS,
    cf_to_lr,
    component_mass,
    denjoy_membership_residual,
    example_ex0,
    example_ex1,
    letter_test_power,
    lr_to_interval,
    parse_word,
    pi_to_params,
    question_mark,
    rational_to_cf,
    rational_to_lr,
    simulate,
    solve_master,
)


class _Third(Fraction):
    """A ``Fraction`` subclass: it converts like any rational, by value."""


VALUES = {
    "True": True,
    "None": None,
    "'1/3'": "1/3",
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
    "float64": np.float64(0.25),
    "int64": np.int64(1),
    "subclass": _Third(1, 3),
    "2**80": 2**80,
    "Fraction(0)": Fraction(0),
    "Fraction(1)": Fraction(1),
}

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
NN = GroupMeasure.from_json_dict({"a": "1/3", "b": "1/3", "B": "1/3"})
SIM = SimConfig(paths=20, steps=120, seed=1, depth=1)  # every path resolves
# Each entry point with a call that reads the value under test where the
# other arguments are valid.
ENTRY_POINTS = {
    "GroupMeasure": lambda v: GroupMeasure({parse_word("a"): v}),
    "GroupMeasure.from_json_dict": lambda v: GroupMeasure.from_json_dict({"a": "1/2", "b": v}),
    "StepOnS": lambda v: StepOnS(HALF, HALF, v, 0, 0),
    "StepOnS.from_json_dict": lambda v: StepOnS.from_json_dict({"a": "1/2", "b": "1/2", "bb": v}),
    "combine-t": lambda v: EX0_PAIR[0].combine(EX0_PAIR[1], v),
    "example_ex0-t": lambda v: example_ex0(ts=(v,)),
    "example_ex1-t": lambda v: example_ex1("1/2", "1/3", v),
    "question_mark-x": question_mark,
    "rational_to_lr-q": rational_to_lr,
    "rational_to_cf-q": rational_to_cf,
    "cf_to_lr-digit": lambda v: cf_to_lr([0, v]),
    "DenjoyParams-alpha": lambda v: DenjoyParams(v, THIRD),
    "DenjoyParams-p": lambda v: DenjoyParams(HALF, v),
    "PiWeights-x": lambda v: PiWeights(v, HALF),
    "PiWeights-y": lambda v: PiWeights(HALF, v),
    "component_mass-alpha": lambda v: component_mass(v, Cylinder.of("a")),
    "denjoy_membership_residual-alpha": lambda v: denjoy_membership_residual(EX0_PAIR[0], v),
    "solve_master-tol": lambda v: solve_master(EX0_PAIR[1], tol=v),
    "letter_test_power-alpha": lambda v: letter_test_power(v, 0.4, 3, 10),
    "letter_test_power-alpha0": lambda v: letter_test_power(0.5, v, 3, 10),
    "lr_to_interval": lr_to_interval,
    "simulate-max_unresolved_fraction": lambda v: simulate(NN, SIM, max_unresolved_fraction=v),
}


def outcome(call, value) -> str:
    """``"ok"`` when ``call`` accepts ``value``, else the exception's type and message."""
    try:
        call(value)
    except Exception as exc:  # the refusal itself is what is pinned
        return f"{type(exc).__name__}: {exc}"
    return "ok"


# Each entry point's refusals by value; a value not listed is accepted.
REFUSALS = {
    "GroupMeasure": {
        "True": "ValueError: weight True is not a finite nonnegative rational",
        "None": "ValueError: weight None is not a finite nonnegative rational",
        "nan": "ValueError: weight nan is not a finite nonnegative rational",
        "inf": "ValueError: weight inf is not a finite nonnegative rational",
        "-inf": "ValueError: weight -inf is not a finite nonnegative rational",
    },
    "GroupMeasure.from_json_dict": {
        "True": "ValueError: weight True is not a finite nonnegative rational",
        "None": "ValueError: weight None is not a finite nonnegative rational",
        "nan": "ValueError: weight nan is not a finite nonnegative rational",
        "inf": "ValueError: weight inf is not a finite nonnegative rational",
        "-inf": "ValueError: weight -inf is not a finite nonnegative rational",
    },
    "StepOnS": {
        "True": "ValueError: weight True is not a finite nonnegative rational",
        "None": "ValueError: weight None is not a finite nonnegative rational",
        "'1/3'": "ValueError: weights must sum to 1, got 4/3",
        "nan": "ValueError: weight nan is not a finite nonnegative rational",
        "inf": "ValueError: weight inf is not a finite nonnegative rational",
        "-inf": "ValueError: weight -inf is not a finite nonnegative rational",
        "float64": "ValueError: weights must sum to 1, got 5/4",
        "int64": "ValueError: weights must sum to 1, got 2",
        "subclass": "ValueError: weights must sum to 1, got 4/3",
        "2**80": "ValueError: weights must sum to 1, got 1208925819614629174706177",
        "Fraction(1)": "ValueError: weights must sum to 1, got 2",
    },
    "StepOnS.from_json_dict": {
        "True": "ValueError: weight True is not a finite nonnegative rational",
        "None": "ValueError: weight None is not a finite nonnegative rational",
        "'1/3'": "ValueError: weights must sum to 1, got 4/3",
        "nan": "ValueError: weight nan is not a finite nonnegative rational",
        "inf": "ValueError: weight inf is not a finite nonnegative rational",
        "-inf": "ValueError: weight -inf is not a finite nonnegative rational",
        "float64": "ValueError: weights must sum to 1, got 5/4",
        "int64": "ValueError: weights must sum to 1, got 2",
        "subclass": "ValueError: weights must sum to 1, got 4/3",
        "2**80": "ValueError: weights must sum to 1, got 1208925819614629174706177",
        "Fraction(1)": "ValueError: weights must sum to 1, got 2",
    },
    "combine-t": {
        "True": "ValueError: t True is not a finite rational",
        "None": "ValueError: t None is not a finite rational",
        "nan": "ValueError: t nan is not a finite rational",
        "inf": "ValueError: t inf is not a finite rational",
        "-inf": "ValueError: t -inf is not a finite rational",
        "int64": "ValueError: need 0 < t < 1, got 1",
        "2**80": "ValueError: need 0 < t < 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: need 0 < t < 1, got 0",
        "Fraction(1)": "ValueError: need 0 < t < 1, got 1",
    },
    "example_ex0-t": {
        "True": "ValueError: t True is not a finite rational",
        "None": "ValueError: t None is not a finite rational",
        "nan": "ValueError: t nan is not a finite rational",
        "inf": "ValueError: t inf is not a finite rational",
        "-inf": "ValueError: t -inf is not a finite rational",
        "int64": "ValueError: need 0 < t < 1, got 1",
        "2**80": "ValueError: need 0 < t < 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: need 0 < t < 1, got 0",
        "Fraction(1)": "ValueError: need 0 < t < 1, got 1",
    },
    "example_ex1-t": {
        "True": "ValueError: t True is not a finite rational",
        "None": "ValueError: t None is not a finite rational",
        "nan": "ValueError: t nan is not a finite rational",
        "inf": "ValueError: t inf is not a finite rational",
        "-inf": "ValueError: t -inf is not a finite rational",
        "int64": "ValueError: need 0 < t < 1, got 1",
        "2**80": "ValueError: need 0 < t < 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: need 0 < t < 1, got 0",
        "Fraction(1)": "ValueError: need 0 < t < 1, got 1",
    },
    "question_mark-x": {
        "True": "ValueError: x True is not a finite rational",
        "None": "ValueError: x None is not a finite rational",
        "nan": "ValueError: x nan is not a finite rational",
        "inf": "ValueError: x inf is not a finite rational",
        "-inf": "ValueError: x -inf is not a finite rational",
        "2**80": "ValueError: need 0 <= x <= 1, got 1208925819614629174706176",
    },
    "rational_to_lr-q": {
        "True": "ValueError: q True is not a finite rational",
        "None": "ValueError: q None is not a finite rational",
        "nan": "ValueError: q nan is not a finite rational",
        "inf": "ValueError: q inf is not a finite rational",
        "-inf": "ValueError: q -inf is not a finite rational",
        # an integer's address R^q has q letters: past the letter limit
        "2**80": "ValueError: the L/R word would have 1208925819614629174706176 letters,"
        " over the limit of 100000000",
        "Fraction(0)": "ValueError: need a positive rational, got 0",
    },
    "rational_to_cf-q": {
        "True": "ValueError: q True is not a finite rational",
        "None": "ValueError: q None is not a finite rational",
        "nan": "ValueError: q nan is not a finite rational",
        "inf": "ValueError: q inf is not a finite rational",
        "-inf": "ValueError: q -inf is not a finite rational",
        "Fraction(0)": "ValueError: need a positive rational, got 0",
    },
    "cf_to_lr-digit": {  # anything but an int is not a digit, named by its repr
        **{
            value: f"ValueError: digit {VALUES[value]!r} at position 1 is not an integer"
            for value in VALUES
        },
        "2**80": "ValueError: the L/R word would have 1208925819614629174706176 letters,"
        " over the limit of 100000000",
    },
    "DenjoyParams-alpha": {
        "True": "ValueError: alpha must be a real number, got True",
        "None": "ValueError: alpha must be a real number, got None",
        "'1/3'": "ValueError: alpha must be a real number, got '1/3'",
        "nan": "ValueError: alpha must lie strictly between 0 and 1, got nan",
        "inf": "ValueError: alpha must lie strictly between 0 and 1, got inf",
        "-inf": "ValueError: alpha must lie strictly between 0 and 1, got -inf",
        "int64": "ValueError: alpha must lie strictly between 0 and 1, got 1",
        "2**80": "ValueError: alpha must lie strictly between 0 and 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: alpha must lie strictly between 0 and 1, got 0",
        "Fraction(1)": "ValueError: alpha must lie strictly between 0 and 1, got 1",
    },
    "DenjoyParams-p": {
        "True": "ValueError: p must be a real number, got True",
        "None": "ValueError: p must be a real number, got None",
        "'1/3'": "ValueError: p must be a real number, got '1/3'",
        "nan": "ValueError: p must lie strictly between 0 and 1, got nan",
        "inf": "ValueError: p must lie strictly between 0 and 1, got inf",
        "-inf": "ValueError: p must lie strictly between 0 and 1, got -inf",
        "int64": "ValueError: p must lie strictly between 0 and 1, got 1",
        "2**80": "ValueError: p must lie strictly between 0 and 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: p must lie strictly between 0 and 1, got 0",
        "Fraction(1)": "ValueError: p must lie strictly between 0 and 1, got 1",
    },
    "PiWeights-x": {  # x is unbounded above but finite
        "True": "ValueError: x must be a positive real number, got True",
        "None": "ValueError: x must be a positive real number, got None",
        "'1/3'": "ValueError: x must be a positive real number, got '1/3'",
        "nan": "ValueError: x must be a positive real number, got nan",
        "inf": "ValueError: x must be a positive real number, got inf",
        "-inf": "ValueError: x must be a positive real number, got -inf",
        "Fraction(0)": "ValueError: x must be a positive real number, got Fraction(0, 1)",
    },
    "PiWeights-y": {
        "True": "ValueError: y must be a real number, got True",
        "None": "ValueError: y must be a real number, got None",
        "'1/3'": "ValueError: y must be a real number, got '1/3'",
        "nan": "ValueError: y must lie strictly between 0 and 1, got nan",
        "inf": "ValueError: y must lie strictly between 0 and 1, got inf",
        "-inf": "ValueError: y must lie strictly between 0 and 1, got -inf",
        "int64": "ValueError: y must lie strictly between 0 and 1, got 1",
        "2**80": "ValueError: y must lie strictly between 0 and 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: y must lie strictly between 0 and 1, got 0",
        "Fraction(1)": "ValueError: y must lie strictly between 0 and 1, got 1",
    },
    "component_mass-alpha": {
        "True": "ValueError: alpha must be a real number, got True",
        "None": "ValueError: alpha must be a real number, got None",
        "'1/3'": "ValueError: alpha must be a real number, got '1/3'",
        "nan": "ValueError: alpha must lie strictly between 0 and 1, got nan",
        "inf": "ValueError: alpha must lie strictly between 0 and 1, got inf",
        "-inf": "ValueError: alpha must lie strictly between 0 and 1, got -inf",
        "int64": "ValueError: alpha must lie strictly between 0 and 1, got 1",
        "2**80": "ValueError: alpha must lie strictly between 0 and 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: alpha must lie strictly between 0 and 1, got 0",
        "Fraction(1)": "ValueError: alpha must lie strictly between 0 and 1, got 1",
    },
    "denjoy_membership_residual-alpha": {
        "True": "ValueError: alpha must be a real number, got True",
        "None": "ValueError: alpha must be a real number, got None",
        "'1/3'": "ValueError: alpha must be a real number, got '1/3'",
        "nan": "ValueError: alpha must lie strictly between 0 and 1, got nan",
        "inf": "ValueError: alpha must lie strictly between 0 and 1, got inf",
        "-inf": "ValueError: alpha must lie strictly between 0 and 1, got -inf",
        "int64": "ValueError: alpha must lie strictly between 0 and 1, got 1",
        "2**80": "ValueError: alpha must lie strictly between 0 and 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: alpha must lie strictly between 0 and 1, got 0",
        "Fraction(1)": "ValueError: alpha must lie strictly between 0 and 1, got 1",
    },
    "solve_master-tol": {
        "True": "ValueError: tol must be a positive finite number, got True",
        "None": "ValueError: tol must be a positive finite number, got None",
        "'1/3'": "ValueError: tol must be a positive finite number, got '1/3'",
        "nan": "ValueError: tol must be a positive finite number, got nan",
        "inf": "ValueError: tol must be a positive finite number, got inf",
        "-inf": "ValueError: tol must be a positive finite number, got -inf",
        "Fraction(0)": "ValueError: tol must be a positive finite number, got Fraction(0, 1)",
    },
    "letter_test_power-alpha": {
        "True": "ValueError: alpha must be a real number, got True",
        "None": "ValueError: alpha must be a real number, got None",
        "'1/3'": "ValueError: alpha must be a real number, got '1/3'",
        "nan": "ValueError: alpha must lie strictly between 0 and 1, got nan",
        "inf": "ValueError: alpha must lie strictly between 0 and 1, got inf",
        "-inf": "ValueError: alpha must lie strictly between 0 and 1, got -inf",
        "int64": "ValueError: alpha must lie strictly between 0 and 1, got 1",
        "2**80": "ValueError: alpha must lie strictly between 0 and 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: alpha must lie strictly between 0 and 1, got 0",
        "Fraction(1)": "ValueError: alpha must lie strictly between 0 and 1, got 1",
    },
    "letter_test_power-alpha0": {
        "True": "ValueError: alpha0 must be a real number, got True",
        "None": "ValueError: alpha0 must be a real number, got None",
        "'1/3'": "ValueError: alpha0 must be a real number, got '1/3'",
        "nan": "ValueError: alpha0 must lie strictly between 0 and 1, got nan",
        "inf": "ValueError: alpha0 must lie strictly between 0 and 1, got inf",
        "-inf": "ValueError: alpha0 must lie strictly between 0 and 1, got -inf",
        "int64": "ValueError: alpha0 must lie strictly between 0 and 1, got 1",
        "2**80": "ValueError: alpha0 must lie strictly between 0 and 1, got 1208925819614629174706176",
        "Fraction(0)": "ValueError: alpha0 must lie strictly between 0 and 1, got 0",
        "Fraction(1)": "ValueError: alpha0 must lie strictly between 0 and 1, got 1",
    },
    "simulate-max_unresolved_fraction": {
        value: f"ValueError: max_unresolved_fraction must be a real number in [0, 1], got {VALUES[value]!r}"
        for value in ("True", "None", "'1/3'", "nan", "inf", "-inf", "2**80")
    },
    "lr_to_interval": {
        "'1/3'": "ValueError: invalid L/R letters ['/', '1', '3'] in '1/3'",
        **{
            value: f"ValueError: an L/R word must be a string, got {VALUES[value]!r}"
            for value in VALUES
            if value != "'1/3'"
        },
    },
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", VALUES)
def test_acceptance_and_refusal_are_pinned(entry, value):
    assert outcome(ENTRY_POINTS[entry], VALUES[value]) == REFUSALS[entry].get(value, "ok")


@pytest.mark.parametrize("x, p", [
    (3, Fraction(3, 4)),
    (np.int64(3), Fraction(3, 4)),
    (2**80, Fraction(2**80, 2**80 + 1)),
    (Fraction(3, 2), Fraction(3, 5)),
])
def test_pi_to_params_reads_an_integer_x_exactly(x, p):
    # rational inputs give rational outputs
    got = pi_to_params(PiWeights(x, HALF)).p
    assert type(got) is Fraction and got == p


def test_pi_to_params_refuses_a_float_x_whose_p_rounds_to_1():
    # p = x/(1 + x) is 1.0 in floating point from about 2**53 up; the refusal
    # names x, not p
    for x in (2.0**53, 1e17, 1e308, np.float64(1e17)):
        assert outcome(lambda v: pi_to_params(PiWeights(v, HALF)), x) == (
            f"ValueError: x = {x!r} is too large: p = x/(1 + x) rounds to 1"
        )
    assert pi_to_params(PiWeights(2.0**52, HALF)).p == 1 - 2.0**-52
