"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload builds its inputs from ``--seed`` alone, runs one *pass* of
work through modwalk's public functions, and checks what the pass returned.
Library functions are looked up on their modules at call time
(``solver.solve_master``, not a local alias), so the tracer's wrappers see
every call a pass makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from modwalk import cli, denjoy, group, mediant, montecarlo, solver
from modwalk.boundary import Cylinder
from modwalk.denjoy import DenjoyParams
from modwalk.group import GroupMeasure, GroupWord
from modwalk.montecarlo import SimConfig, SimReport
from modwalk.solver import DegenerateStepError, StepOnS
from stopwatch import Stopwatch

DEFAULT_SEED = 1
PATHS = 100_000
STEPS = 400
DEPTH = 3
SPOT_PATHS = 64  # paths re-simulated one by one for the RNG contract check
V1_STRIDE = 2**20  # counter positions per path under RNG contract v1
QMARK_DEPTH = 25_000  # resolves every rational with denominator <= 1e4 exactly

# sha256 of each workload's outputs at DEFAULT_SEED, recorded from the seed
# commit: the CLI's to_json text, the library report's to_json, and the
# canonical JSON of the exact results.
DIGESTS = {
    "simulate-nn": "5b3839a0189c2de35c79280048a1e413f589a9a8134969a86340f0b692b3fdc5",
    "simulate-9atom": "0d656aec3256c2aa7bb4d5e6211df25656398d63dba761106bd9a535fab7340f",
    "exact": "8f2c5ad738d9aaf45f148f40e308b65d6413fa3de73e10d9e637f2fc3ceaf1ef",
}


class Checks:
    """Counts output checks attempted and failed; keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class PassResult:
    """What one pass returned, plus its timing in nominal seconds (see
    stopwatch.py): ``wall_s`` covers the whole pass and ``parts`` maps a part
    name to (seconds, units of work)."""

    outputs: object
    digest: str
    wall_s: float
    raw_wall_s: float
    sampling_s: float
    parts: dict[str, tuple[float, int]]

    @classmethod
    def timed(cls, outputs, digest: str, watch: Stopwatch, raw_parts) -> "PassResult":
        """Convert a finished stopwatch's raw seconds to nominal ones."""
        parts = {name: (watch.nominal(raw), units) for name, (raw, units) in raw_parts.items()}
        return cls(outputs, digest, watch.nominal(watch.raw_s), watch.raw_s, watch.sampling_s, parts)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# RNG contract v1 spot check (shared by both simulate workloads)


def reference_counts(mu: GroupMeasure, seed: int, targets, paths: int = SPOT_PATHS):
    """Cylinder and passage counts of the first ``paths`` paths, each run alone
    by ``sample_path`` on Philox(key=seed) advanced by ``i * 2**20``."""
    cylinders: dict[str, int] = {}
    passages = {str(t): 0 for t in targets}
    for i in range(paths):
        bg = np.random.Philox(key=seed)
        bg.advance(i * V1_STRIDE)
        position, visited = montecarlo.sample_path(mu, STEPS, np.random.Generator(bg), targets)
        for t in visited:
            passages[str(t)] += 1
        letters = position.letters
        cuts = [j + 1 for j, ch in enumerate(letters) if ch == "a"][:DEPTH]
        if len(cuts) == DEPTH:  # otherwise the path is unresolved and not counted
            for cut in cuts:
                cylinders[letters[:cut]] = cylinders.get(letters[:cut], 0) + 1
    return cylinders, passages


def report_counts(report: SimReport):
    cylinders = {str(c): n for c, n in report.cylinder_counts.items() if n}
    passages = {str(w): n for w, n in report.passage_counts.items()}
    return cylinders, passages


def spot_report(mu: GroupMeasure, seed: int, targets) -> SimReport:
    """The first SPOT_PATHS paths simulated as one run."""
    cfg = SimConfig(paths=SPOT_PATHS, steps=STEPS, seed=seed, depth=DEPTH)
    return montecarlo.simulate(mu, cfg, targets=targets, max_unresolved_fraction=1.0)


def rng_contract_holds(report: SimReport, mu: GroupMeasure, seed: int, targets) -> bool:
    """RNG contract v1: a run of the first SPOT_PATHS paths counts exactly what
    the same paths count when each is sampled on its own generator."""
    return report_counts(report) == reference_counts(mu, seed, targets, report.paths_used)


def rng_contract_check(mu: GroupMeasure, seed: int, targets, checks: Checks) -> None:
    checks.expect(
        rng_contract_holds(spot_report(mu, seed, targets), mu, seed, targets),
        f"RNG contract v1: first {SPOT_PATHS} paths disagree with per-path sample_path",
    )


# --------------------------------------------------------------------------
# simulate-nn: the README command through the CLI layer

NN_MEASURE = '{"a":"1/3","b":"1/3","B":"1/3"}'
NN_TARGETS = "a,ba"


@dataclass
class NNInputs:
    seed: int
    argv: list[str]
    measure: GroupMeasure
    targets: list[GroupWord]
    params: DenjoyParams


def _report_from_json(text: str) -> SimReport:
    data = json.loads(text)
    cyl = {Cylinder.of(k): v for k, v in data["cylinders"].items()}
    pas = {group.parse_word(k): v for k, v in data["passage"].items()}
    return SimReport(
        cylinder_freq={c: (v["estimate"], v["stderr"]) for c, v in cyl.items()},
        cylinder_counts={c: v["count"] for c, v in cyl.items()},
        passage={w: (v["estimate"], v["stderr"]) for w, v in pas.items()},
        passage_counts={w: v["count"] for w, v in pas.items()},
        paths_used=data["paths"],
        resolved=data["resolved"],
        unresolved=data["unresolved"],
        steps_used=data["steps"],
        seed=data["seed"],
        depth=data["depth"],
        degenerate_support=data["degenerate_support"],
    )


class SimulateNN:
    name = "simulate-nn"

    def build(self, seed: int, paths: int = PATHS) -> NNInputs:
        argv = [
            "simulate", "--mu", NN_MEASURE, "--paths", str(paths), "--steps", str(STEPS),
            "--depth", str(DEPTH), "--seed", str(seed), "--targets", NN_TARGETS,
        ]
        measure = GroupMeasure.from_json_dict(json.loads(NN_MEASURE))
        targets = [group.parse_word(t) for t in NN_TARGETS.split(",")]
        return NNInputs(seed, argv, measure, targets, DenjoyParams(Fraction(1, 2), Fraction(2, 5)))

    def run(self, inp: NNInputs) -> PassResult:
        def command():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(inp.argv)
            return code, out.getvalue().strip()

        def z_table(code, text):
            report = _report_from_json(text) if code == 0 else None
            return report, montecarlo.compare_with_analytic(report, inp.params) if report else None

        with Stopwatch() as watch:
            (code, text), command_s = watch.time(command)
            (report, table), _ = watch.time(lambda: z_table(code, text))
        units = report.paths_used * report.steps_used if report else 0
        return PassResult.timed(
            (code, report, table), sha256_text(text), watch, {"sim_path_steps": (command_s, units)}
        )

    def check(self, inp: NNInputs, res: PassResult, checks: Checks) -> None:
        code, report, table = res.outputs
        checks.expect(code == 0, f"cli.main exited with {code}")
        if table is None:
            return
        checks.expect(report.resolved + report.unresolved == report.paths_used, "path counts do not add up")
        checks.expect(table.max_abs_z <= 4.0, f"max |z| {table.max_abs_z:.2f} against (1/2, 2/5) exceeds 4")

    def spot_check(self, inp: NNInputs, checks: Checks) -> None:
        rng_contract_check(inp.measure, inp.seed, inp.targets, checks)

    def resolved_ratio(self, res: PassResult) -> float:
        report = res.outputs[1]
        return report.resolved / report.paths_used if report else 0.0


# --------------------------------------------------------------------------
# simulate-9atom: criterion 07's uniform walk through the library

NINE_ATOMS = ("b", "ba", "ab", "aba", "B", "Ba", "aB", "aBa", "a")


@dataclass
class NineAtomInputs:
    seed: int
    measure: GroupMeasure
    config: SimConfig


class Simulate9Atom:
    name = "simulate-9atom"

    def build(self, seed: int, paths: int = PATHS) -> NineAtomInputs:
        measure = GroupMeasure.uniform(group.parse_word(w) for w in NINE_ATOMS)
        return NineAtomInputs(seed, measure, SimConfig(paths=paths, steps=STEPS, seed=seed, depth=DEPTH))

    def run(self, inp: NineAtomInputs) -> PassResult:
        with Stopwatch() as watch:
            report, simulate_s = watch.time(lambda: montecarlo.simulate(inp.measure, inp.config))
        units = report.paths_used * report.steps_used
        return PassResult.timed(
            report, sha256_text(report.to_json()), watch, {"sim_path_steps": (simulate_s, units)}
        )

    def check(self, inp: NineAtomInputs, res: PassResult, checks: Checks) -> None:
        report = res.outputs
        for prefix, expected in (("a", 0.5), ("ba", 0.25)):
            est, se = report.cylinder_freq[Cylinder.of(prefix)]
            z = abs(est - expected) / se
            checks.expect(z <= 4.0, f"nu(C_{prefix}) = {est:.5f} is {z:.2f} SE from {expected}")

    def spot_check(self, inp: NineAtomInputs, checks: Checks) -> None:
        rng_contract_check(inp.measure, inp.seed, (), checks)

    def resolved_ratio(self, res: PassResult) -> float:
        return res.outputs.resolved / res.outputs.paths_used


# --------------------------------------------------------------------------
# exact: the solver, stationarity, question-mark and encoding layers


def random_step(rng: random.Random, grid: int = 20) -> StepOnS:
    """Random non-degenerate step distribution on S with small rational weights."""
    while True:
        weights = [Fraction(rng.randint(0, grid)) for _ in range(5)]
        total = sum(weights)
        if total == 0:
            continue
        try:
            return StepOnS(*[w / total for w in weights])
        except (DegenerateStepError, ValueError):
            continue


@dataclass
class ExactInputs:
    seed: int
    solve_steps: list[StepOnS]
    stationarity_steps: list[StepOnS]
    stationarity_measures: list[GroupMeasure]
    qmark_points: list[Fraction]
    encode_points: list[Fraction]


@dataclass
class ExactOutputs:
    triples: list
    params: list
    residuals: list[float]
    qmarks: list[Fraction]
    encodings: list
    examples: tuple


class Exact:
    name = "exact"

    def build(
        self, seed: int, solves: int = 1000, checks: int = 50, qmarks: int = 1000, encodings: int = 1000
    ) -> ExactInputs:
        rng = random.Random(seed)
        solve_steps = [random_step(rng) for _ in range(solves)]
        stationarity_steps = [random_step(rng) for _ in range(checks)]
        points: set[Fraction] = set()
        while len(points) < qmarks:
            den = rng.randint(2, 10_000)
            points.add(Fraction(rng.randint(1, den - 1), den))
        encode_points = [
            Fraction(rng.randint(1, 10_000), rng.randint(2, 10_000)) for _ in range(encodings)
        ]
        return ExactInputs(
            seed,
            solve_steps,
            stationarity_steps,
            [m.to_group_measure() for m in stationarity_steps],
            sorted(points),
            encode_points,
        )

    def run(self, inp: ExactInputs) -> PassResult:
        def stationarity():
            params = [solver.harmonic_params(m) for m in inp.stationarity_steps]
            residuals = [
                denjoy.check_stationarity(p, g, depth=8)
                for p, g in zip(params, inp.stationarity_measures)
            ]
            return params, residuals

        def encode():
            out = []
            for q in inp.encode_points:
                codes = mediant.rational_to_lr(q)
                out.append((codes, mediant.lr_to_interval(codes.stem), mediant.rational_to_cf(q)))
            return out

        def examples():
            return (
                solver.example_ex0(),
                solver.example_ex1(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2)),
                solver.example_ex2(),
            )

        with Stopwatch() as watch:
            triples, solve_s = watch.time(lambda: [solver.solve_master(m) for m in inp.solve_steps])
            (params, residuals), stationarity_s = watch.time(stationarity)
            qmarks, qmark_s = watch.time(
                lambda: [denjoy.question_mark(x, depth=QMARK_DEPTH) for x in inp.qmark_points]
            )
            encodings, encode_s = watch.time(encode)
            reports, _ = watch.time(examples)
        outputs = ExactOutputs(triples, params, residuals, qmarks, encodings, reports)
        parts = {
            "solve": (solve_s, len(triples)),
            "stationarity": (stationarity_s, len(residuals)),
            "qmark": (qmark_s, len(qmarks)),
            "encode": (encode_s, len(encodings)),
        }
        return PassResult.timed(outputs, sha256_text(self.canonical(outputs)), watch, parts)

    @staticmethod
    def canonical(out: ExactOutputs) -> str:
        """Exact results as JSON: rationals as strings, reports as their as_dict."""
        return json.dumps(
            {
                "solve": [[str(t.x), str(t.y), str(t.ybar)] for t in out.triples],
                "params": [[str(p.alpha), str(p.p)] for p in out.params],
                "stationarity": [repr(r) for r in out.residuals],
                "qmark": [str(v) for v in out.qmarks],
                "encode": [
                    [codes.stem, str(iv.left), str(iv.right), list(cf)]
                    for codes, iv, cf in out.encodings
                ],
                "examples": [r.as_dict() for r in out.examples],
            },
            sort_keys=True,
        )

    def check(self, inp: ExactInputs, res: PassResult, checks: Checks) -> None:
        out: ExactOutputs = res.outputs
        for mu, t in zip(inp.solve_steps, out.triples):
            worst = max(abs(float(r)) for r in solver.residual(mu, t))
            checks.expect(worst <= 1e-15 and t.y + t.ybar == 1, f"solve {mu.as_tuple()}: residual {worst:.2e}")
        for r in out.residuals:
            checks.expect(r <= 1e-10, f"stationarity residual {r:.2e} exceeds 1e-10")
        values = out.qmarks
        checks.expect(
            all(a < b for a, b in zip(values, values[1:])), "question_mark is not strictly increasing"
        )
        for x, v in zip(inp.qmark_points, values):
            checks.expect(
                v + denjoy.question_mark(1 - x, depth=QMARK_DEPTH) == 1, f"?({x}) + ?(1-{x}) != 1"
            )
        for q, (codes, iv, cf) in zip(inp.encode_points, out.encodings):
            det = iv.right.num * iv.left.den - iv.left.num * iv.right.den
            checks.expect(
                iv.mediant().as_fraction() == q and mediant.cf_value(cf) == q and det == 1,
                f"round trip of {q} is not exact or its interval is not unimodular",
            )
        ex0, ex1, ex2 = out.examples
        checks.expect(ex0.endpoint_gap <= 1e-12, "ex0 endpoints disagree on alpha")
        checks.expect(ex1.alpha_gap > 1e-3, "ex1 combination stayed near alpha = 1/2")
        checks.expect(ex2.minkowski_defect != 0, "ex2 convolution stayed Minkowski")

    def spot_check(self, inp: ExactInputs, checks: Checks) -> None:
        return None

    def resolved_ratio(self, res: PassResult) -> float:
        return 0.0


WORKLOADS = {w.name: w for w in (SimulateNN(), Simulate9Atom(), Exact())}

