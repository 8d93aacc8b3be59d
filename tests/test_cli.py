import json
import os
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest

import modwalk.montecarlo as montecarlo
from modwalk import (
    EX0_PAIR,
    SimConfig,
    StepOnS,
    estimate_alpha,
    example_ex1,
    example_ex2,
    residual,
    solve_master,
)
from modwalk.cli import main

from helpers import children_exit_at_once, children_raise, unpicklable_error


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _non_finite(name):
    raise AssertionError(f"stdout carries the non-finite number {name}")


def parse(text):
    """A JSON payload from stdout; NaN and Infinity fail the test."""
    return json.loads(text, parse_constant=_non_finite)


def load_schema(name):
    text = resources.files("modwalk").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


class TestSolve:
    def test_symmetric(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--mu", '{"a":"1/3","b":"1/3","bb":"1/3"}'
        )
        assert code == 0
        payload = parse(out)
        validate(payload, "solve.schema.json")
        assert payload["alpha"] == 0.5
        assert payload["p"] == 0.4
        assert payload["exact"]["p"] == "2/5"
        assert max(abs(r) for r in payload["residuals"]) <= 1e-12

    def test_exact_block_only_for_exact_solutions(self, capsys):
        # An irrational root: its bisection midpoint is a Fraction, not the solution.
        mu = '{"a":"1/5","b":"1/7","bb":"2/9","ba":"1/11","bba":"1192/3465"}'
        code, out, _ = run(capsys, "solve", "--mu", mu)
        payload = parse(out)
        validate(payload, "solve.schema.json")
        assert code == 0 and payload["exact"] == {"minkowski_residual": "3613/48510"}
        code, out, _ = run(capsys, "solve", "--mu", '{"a":"1/3","b":"1/3","bb":"1/3"}')
        assert parse(out)["exact"] == {
            "x": "2/3", "y": "1/2", "ybar": "1/2", "alpha": "1/2", "p": "2/5", "minkowski_residual": "0",
        }

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--mu", '{"a":"1/3","b":"1/3","bb":"1/3"}', "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "x,y,ybar,alpha,p,residual1,residual2,residual3,minkowski_residual"
        assert float(row.split(",")[4]) == 0.4

    def test_asymmetric_walk_residuals(self, capsys):
        # An irrational root, so the residuals of the last two equations are
        # nonzero: both formats print the floats of solver.residual.
        mu = '{"a":"1/5","b":"2/5","bb":"1/10","ba":"1/5","bba":"1/10"}'
        step = StepOnS.from_json_dict(json.loads(mu))
        expected = [float(r) for r in residual(step, solve_master(step))]
        assert expected[0] == 0.0 and expected[1] == -expected[2] != 0
        code, out, _ = run(capsys, "solve", "--mu", mu)
        payload = parse(out)
        validate(payload, "solve.schema.json")
        assert code == 0 and payload["residuals"] == expected
        assert payload["alpha"] == 0.5322723971605663
        assert payload["exact"] == {"minkowski_residual": "-7/200"}
        code, out, _ = run(capsys, "solve", "--mu", mu, "--format", "csv")
        header, row = out.strip().split("\n")
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert code == 0
        assert [values[f"residual{i}"] for i in (1, 2, 3)] == expected
        assert values["alpha"] == 0.5322723971605663

    def test_invalid_input_exit_2(self, capsys):
        assert run(capsys, "solve", "--mu", "not json")[0] == 2
        assert run(capsys, "solve", "--mu", '{"a":"1/2","b":"1/4"}')[0] == 2
        assert run(capsys, "solve", "--mu", '{"a":"1/2","zz":"1/2"}')[0] == 2

    def test_json_number_weights_match_quoted(self, capsys):
        numbers = run(capsys, "solve", "--mu", '{"a":0.2,"b":0.4,"bb":0.4}')
        quoted = run(capsys, "solve", "--mu", '{"a":"0.2","b":"0.4","bb":"0.4"}')
        assert numbers[0] == 0
        assert numbers == quoted

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_invalid_tol_exit_2(self, capsys, tol):
        mu = '{"a":"1/5","b":"2/5","bb":"1/10","ba":"1/5","bba":"1/10"}'
        code, _, err = run(capsys, "solve", "--mu", mu, "--tol", tol)
        assert code == 2
        assert "tol" in err

    def test_degenerate_exit_3(self, capsys):
        code, _, err = run(capsys, "solve", "--mu", '{"a":"1"}')
        assert code == 3
        assert "degenerate" in err

    def test_hyperbola_fixture(self, capsys):
        from fractions import Fraction

        from modwalk import hyperbola_point

        mu = hyperbola_point(Fraction(1, 2))
        code, out, _ = run(capsys, "solve", "--mu", json.dumps(mu.to_json_dict()))
        assert code == 0
        payload = parse(out)
        assert abs(payload["minkowski_residual"]) <= 1e-12
        assert abs(payload["alpha"] - 0.5) <= 1e-12


class TestClassify:
    def test_membership(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--mu", '{"a":"1/3","b":"1/3","bb":"1/3"}', "--alpha", "1/2"
        )
        assert code == 0
        payload = parse(out)
        validate(payload, "classify.schema.json")
        assert payload["is_member"] is True
        assert payload["residual"] == 0

    def test_non_membership(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--mu", '{"a":"1/3","b":"1/2","bb":"1/6"}', "--alpha", "1/2"
        )
        payload = parse(out)
        assert code == 0 and payload["is_member"] is False

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-0.5"])
    def test_invalid_tol_exit_2(self, capsys, tol):
        mu = '{"a":"1/3","b":"1/3","bb":"1/3"}'
        code, out, err = run(capsys, "classify", "--mu", mu, "--alpha", "1/2", "--tol", tol)
        assert code == 2 and out == ""
        assert "tol" in err

    def test_zero_tol_is_the_exact_test(self, capsys):
        member = '{"a":"1/3","b":"1/3","bb":"1/3"}'
        code, out, _ = run(capsys, "classify", "--mu", member, "--alpha", "1/2", "--tol", "0")
        payload = parse(out)
        validate(payload, "classify.schema.json")
        assert code == 0 and payload["is_member"] is True and payload["tol"] == 0
        other = '{"a":"1/3","b":"1/2","bb":"1/6"}'
        code, out, _ = run(capsys, "classify", "--mu", other, "--alpha", "1/2", "--tol", "0")
        assert code == 0 and parse(out)["is_member"] is False

    def test_zero_tol_sees_a_residual_below_float_range(self, capsys):
        # alpha = 1/2 + 10^-400 leaves the residual 1/(9 10^399), which is 0.0 as a float.
        alpha = "0.5" + "0" * 398 + "1"
        code, out, _ = run(
            capsys, "classify", "--mu", '{"a":"1/3","b":"1/3","bb":"1/3"}', "--alpha", alpha, "--tol", "0"
        )
        payload = parse(out)
        assert code == 0 and payload["residual"] == 0.0
        assert payload["residual_exact"] == f"1/{9 * 10**399}"
        assert payload["is_member"] is False


class TestSimulate:
    def test_json_and_csv(self, capsys):
        args = (
            "simulate",
            "--mu",
            '{"a":"1/3","b":"1/3","B":"1/3"}',
            "--paths",
            "400",
            "--steps",
            "320",
            "--depth",
            "2",
            "--seed",
            "9",
            "--targets",
            "a,ba",
        )
        code, out, _ = run(capsys, *args)
        assert code == 0
        payload = parse(out)
        validate(payload, "simulate.schema.json")
        assert payload["seed"] == 9
        assert set(payload["passage"]) == {"a", "ba"}

        code, out2, _ = run(capsys, *args, "--format", "csv")
        assert code == 0
        lines = out2.strip().split("\n")
        assert lines[0] == "kind,key,estimate,stderr,n"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"cylinder", "passage"}

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MODWALK_SEED", "123")
        code, out, _ = run(
            capsys,
            "simulate",
            "--mu",
            '{"a":"1/3","b":"1/3","B":"1/3"}',
            "--paths",
            "512",
            "--steps",
            "320",
            "--depth",
            "2",
        )
        assert code == 0
        assert parse(out)["seed"] == 123

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_unresolved_exit_5(self, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            "--mu",
            '{"b":"1"}',
            "--paths",
            "64",
            "--steps",
            "320",
            "--depth",
            "2",
        )
        assert code == 5
        assert "unresolved" in err or "depth" in err

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_unresolved_after_drawing_exit_5(self, capsys):
        # The walk generates, so the paths are drawn; 8 steps leave 463 of
        # 500 paths short of depth 3 at seed 1.
        code, out, err = run(
            capsys,
            "simulate",
            "--mu",
            '{"a":"1/3","b":"1/3","B":"1/3"}',
            "--paths",
            "500",
            "--steps",
            "8",
            "--depth",
            "3",
            "--seed",
            "1",
            "--allow-short-steps",
        )
        assert code == 5 and out == ""
        assert "463 of 500 paths never reached depth 3; raise steps or lower depth" in err


class TestQmark:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "qmark", "--x", "1/3", "--depth", "64")
        assert code == 0
        payload = parse(out)
        validate(payload, "qmark.schema.json")
        assert payload["dyadic"] == "1/4"
        assert payload["decimal"] == 0.25

    def test_invalid(self, capsys):
        assert run(capsys, "qmark", "--x", "3/2")[0] == 2


class TestEncode:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "encode", "--rational", "2/5")
        assert code == 0
        payload = parse(out)
        validate(payload, "encode.schema.json")
        assert payload["stem"] == "LLR"
        assert payload["interval"] == {"left": "1/3", "right": "1/2"}
        assert payload["mediant"] == "2/5"
        assert payload["cf"] == [0, 2, 2]
        assert payload["codes"]["left"] == {"stem": "LLRL", "tail": "R"}

    def test_round_trips(self, capsys):
        _, out, _ = run(capsys, "encode", "--rational", "9/4")
        first = parse(out)
        _, out, _ = run(capsys, "encode", "--cf", json.dumps(first["cf"]))
        second = parse(out)
        validate(second, "encode.schema.json")
        assert second["value"] == "9/4"
        _, out, _ = run(capsys, "encode", "--lr", first["stem"])
        third = parse(out)
        assert third["mediant"] == "9/4"

    @pytest.mark.parametrize("cf", ["[1, true]", "[false]", "[1, 2.0]"])
    def test_cf_digits_must_be_integers_exit_2(self, capsys, cf):
        code, out, err = run(capsys, "encode", "--cf", cf)
        assert code == 2 and out == ""
        assert "is not an integer" in err

    def test_requires_exactly_one_input(self, capsys):
        assert run(capsys, "encode")[0] == 2
        assert run(capsys, "encode", "--lr", "LL", "--rational", "1/2")[0] == 2
        assert run(capsys, "encode", "--lr", "LX")[0] == 2


class TestMeasure:
    def test_mass(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--alpha", "1/2", "--p", "1/3", "--cylinder", "aba"
        )
        assert code == 0
        payload = parse(out)
        validate(payload, "measure.schema.json")
        assert payload["mass_exact"] == "1/6"

    def test_canonicalizes_prefix(self, capsys):
        code, out, _ = run(
            capsys, "measure", "--alpha", "1/2", "--p", "1/3", "--cylinder", "ab"
        )
        assert code == 0
        assert parse(out)["cylinder"] == "aba"


class TestExample:
    def test_ex2_report(self, capsys):
        code, out, _ = run(capsys, "example", "ex2", "--bbar", "1/2")
        assert code == 0
        payload = parse(out)
        validate(payload, "example.schema.json")
        assert abs(payload["minkowski_residual"]) > 1e-3
        assert payload["witness_2b_minus_bb"] != "0"

    def test_ex0_and_ex1(self, capsys):
        code, out, _ = run(capsys, "example", "ex0")
        assert code == 0
        payload = parse(out)
        assert payload["combinations"][0]["alpha_gap"] > 1e-3
        code, out, _ = run(
            capsys, "example", "ex1", "--bbar", "1/3", "--bbar2", "1/2", "--t", "1/2"
        )
        assert code == 0
        assert parse(out)["alpha_gap"] > 1e-3

    def test_ex1_equal_endpoints_exit_2(self, capsys):
        # one walk twice is no combination of two Minkowski-filling walks
        code, out, err = run(capsys, "example", "ex1", "--bbar", "1/2", "--bbar2", "1/2")
        assert code == 2 and out == ""
        assert "endpoints must differ" in err

    @pytest.mark.parametrize("t", ["0", "1", "2"])
    def test_combination_weight_outside_unit_interval_exit_2(self, capsys, t):
        for name in ("ex0", "ex1"):
            code, out, err = run(capsys, "example", name, "--t", t)
            assert code == 2 and out == ""
            assert "need 0 < t < 1" in err

    def test_ex1_with_simulation(self, capsys):
        code, out, _ = run(
            capsys,
            "example",
            "ex1",
            "--bbar",
            "1/3",
            "--bbar2",
            "1/2",
            "--simulate",
            "--paths",
            "2000",
            "--steps",
            "320",
            "--depth",
            "2",
            "--seed",
            "1",
        )
        assert code == 0
        payload = parse(out)
        validate(payload, "example.schema.json")
        assert abs(payload["simulation"]["z_vs_harmonic"]) <= 4

    @pytest.mark.parametrize(
        "name, flags, step",
        [
            ("ex0", (), lambda: EX0_PAIR[0].combine(EX0_PAIR[1], Fraction(1, 2))),
            (
                "ex1",
                ("--bbar", "1/3", "--bbar2", "1/2"),
                lambda: example_ex1(Fraction(1, 3), Fraction(1, 2)).combination,
            ),
            ("ex2", ("--bbar", "1/3"), lambda: example_ex2(Fraction(1, 3)).mu_prime),
        ],
        ids=["ex0", "ex1", "ex2"],
    )
    def test_simulation_is_the_letter_test(self, capsys, name, flags, step):
        code, out, _ = run(
            capsys, "example", name, *flags, "--simulate",
            "--paths", "2000", "--steps", "320", "--depth", "2", "--seed", "1",
        )
        assert code == 0
        payload = parse(out)
        validate(payload, "example.schema.json")
        sim = payload["simulation"]
        cfg = SimConfig(paths=2000, steps=320, seed=1, depth=2)
        est = estimate_alpha(step().to_group_measure(), cfg)
        assert (sim["estimate"], sim["stderr"], sim["resolved"], sim["letters"]) == (
            est.estimate, est.stderr, est.resolved, est.letters
        )

    @pytest.mark.parametrize(
        "argv, stray",
        [(("ex0", "--bbar", "9/10"), "--bbar"), (("ex2", "--t", "1/3"), "--t")],
        ids=["ex0-bbar", "ex2-t"],
    )
    def test_flag_the_example_does_not_read_exit_2(self, capsys, argv, stray):
        code, out, err = run(capsys, "example", *argv)
        assert code == 2 and out == ""
        assert f"does not read {stray}" in err

    def test_single_path_simulation_exit_2(self, capsys):
        code, out, err = run(
            capsys, "example", "ex1", "--simulate", "--paths", "1", "--steps", "400"
        )
        assert code == 2
        assert "Infinity" not in out
        assert "two resolved paths" in err

    @pytest.mark.parametrize("seed", ["2", "3", "4", "5", "6"])
    def test_equal_letter_counts_exit_2(self, capsys, seed):
        # Both paths' first b/B letter is the same: no standard error.
        code, out, err = run(
            capsys, "example", "ex2", "--simulate",
            "--paths", "2", "--depth", "1", "--steps", "120", "--seed", seed,
        )
        assert code == 2 and out == ""
        assert "no standard error" in err

    def test_schema_rejects_leftover_simulation_keys(self):
        schema = load_schema("example.schema.json")
        sim = dict.fromkeys(schema["properties"]["simulation"]["required"], 0)
        validate({"simulation": sim}, "example.schema.json")
        with pytest.raises(jsonschema.ValidationError):
            validate({"simulation": {**sim, "class_rejection": {}}}, "example.schema.json")


class TestExitCodes:
    def test_solver_contradiction_exit_4(self, capsys, monkeypatch):
        from modwalk.solver import NoRootInCube

        def boom(*args, **kwargs):
            raise NoRootInCube("forced for the exit-code contract")

        monkeypatch.setattr("modwalk.cli.solve_master", boom)
        code, _, err = run(capsys, "solve", "--mu", '{"a":"1/3","b":"1/3","bb":"1/3"}')
        assert code == 4
        assert "contradiction" in err

    @pytest.mark.parametrize("failure", ["fork", "child", "unpicklable"])
    def test_simulator_process_failure_exit_1(self, capsys, monkeypatch, failure):
        # Two processes: a fork that fails, a child that exits without a
        # result, or a child that raises an exception that does not pickle.
        monkeypatch.setattr(montecarlo, "CPUS", 2)
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 128)
        if failure == "fork":
            def fork():
                raise BlockingIOError(11, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", fork)
        elif failure == "child":
            children_exit_at_once(monkeypatch)
        else:
            children_raise(monkeypatch, unpicklable_error())
        code, out, err = run(capsys, "simulate", "--mu", '{"a":"1/3","b":"1/3","B":"1/3"}', "--paths", "300")
        assert code == 1 and out == ""
        assert err.startswith("error: internal failure: ")
        if failure == "unpicklable":
            assert err.rstrip().endswith(" raised ValueError('raised in the child')")

    @pytest.mark.parametrize("value", ["1e999", "Infinity", "-Infinity", "NaN"])
    @pytest.mark.parametrize(
        "argv",
        [("solve", "--mu", '{"a":%s,"b":0}'), ("simulate", "--paths", "64", "--mu", '{"a":%s}')],
        ids=["solve", "simulate"],
    )
    def test_non_finite_weight_exit_2(self, capsys, argv, value):
        *head, mu = argv
        code, out, err = run(capsys, *head, mu % value)
        assert code == 2 and out == ""
        assert "invalid input" in err

    @pytest.mark.parametrize(
        "argv, boolean_mu",
        [
            (("solve", "--mu"), '{"a":"1/2","b":"1/2","bb":false}'),
            (("classify", "--alpha", "1/2", "--mu"), '{"a":"1/2","b":"1/2","bb":false}'),
            (("simulate", "--paths", "4", "--mu"), '{"ab":true}'),
        ],
        ids=["solve", "classify", "simulate"],
    )
    def test_zero_denominator_or_boolean_weight_exit_2(self, capsys, argv, boolean_mu):
        # with the boolean spelled as the number, the walk is valid
        numeric_mu = boolean_mu.replace("false", "0").replace("true", "1")
        assert run(capsys, *argv, numeric_mu)[0] == 0
        for mu in ('{"a":"1/0"}', boolean_mu):
            code, out, err = run(capsys, *argv, mu)
            assert code == 2 and out == "", mu
            assert "invalid input" in err

    @pytest.mark.parametrize(
        "argv, mu",
        [
            (("solve", "--mu"), '{"a":"1/3","b":"1/3","bb":"1/3"}'),
            (("classify", "--alpha", "1/2", "--mu"), '{"a":"1/3","b":"1/3","bb":"1/3"}'),
            (("simulate", "--paths", "4", "--mu"), '{"a":"1/3","b":"1/3","B":"1/3"}'),
        ],
        ids=["solve", "classify", "simulate"],
    )
    def test_duplicate_key_exit_2(self, capsys, argv, mu):
        # json.loads would keep the last value; here the repeat, even of an
        # equal value that leaves the walk valid, is refused
        assert run(capsys, *argv, mu)[0] == 0
        repeated = mu[:-1] + ',"a":"1/3"}'
        code, out, err = run(capsys, *argv, repeated)
        assert code == 2 and out == ""
        assert "duplicate key 'a'" in err
