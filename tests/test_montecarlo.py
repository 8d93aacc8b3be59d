import dataclasses
import math
import os
import pickle
import random
import tracemalloc
import warnings
from fractions import Fraction
from statistics import NormalDist
from types import SimpleNamespace

import numpy as np
import pytest

import modwalk.montecarlo as montecarlo
from modwalk import (
    AlphaEstimate,
    Cylinder,
    DenjoyParams,
    GroupMeasure,
    SimConfig,
    StepOnS,
    UnresolvedPathsError,
    compare_with_analytic,
    cylinder_mass,
    estimate_alpha,
    example_ex0,
    example_ex1,
    example_ex2,
    harmonic_params,
    letter_test_power,
    parse_word,
    paths_for_power,
    sample_path,
    simulate,
)
from modwalk.montecarlo import _path_generator

from helpers import NeedsTwoArguments, children_exit_at_once, children_raise, unpicklable_error

SYMMETRIC_NN = GroupMeasure.from_json_dict({"a": "1/3", "b": "1/3", "B": "1/3"})


def _reduced_words(count):
    """The first ``count`` nonempty reduced words, shortest first."""
    words, level = [], ["a", "b", "B"]
    while len(words) < count:
        words += level
        level = [w + x for w in level for x in ("bB" if w[-1] == "a" else "a")]
    return words[:count]


def small_cfg(**kw):
    base = dict(paths=1200, steps=320, seed=5, depth=2)
    base.update(kw)
    return SimConfig(**base)


class TestConfig:
    def test_policy_floor(self):
        with pytest.raises(ValueError):
            SimConfig(paths=10, steps=100, seed=0, depth=3)
        with pytest.warns(UserWarning):
            SimConfig(paths=10, steps=100, seed=0, depth=3, allow_short_steps=True)

    def test_short_steps_warning_names_the_caller(self):
        with pytest.warns(UserWarning, match="floor") as records:
            SimConfig(paths=10, steps=100, seed=0, depth=3, allow_short_steps=True)
        assert records[0].filename == __file__

    def test_bounds(self):
        with pytest.raises(ValueError):
            SimConfig(paths=0, steps=200, seed=0, depth=1)
        with pytest.raises(ValueError):
            SimConfig(paths=1, steps=200, seed=-1, depth=1)
        with pytest.raises(ValueError):
            SimConfig(paths=1, steps=1 << 21, seed=0, depth=1)

    def test_counts_are_stored_as_python_ints(self):
        cfg = SimConfig(paths=np.int64(10), steps=np.uint16(400), seed=np.int32(1), depth=np.int8(3))
        assert all(type(v) is int for v in (cfg.paths, cfg.steps, cfg.seed, cfg.depth))
        assert cfg == SimConfig(paths=10, steps=400, seed=1, depth=3)


class TestSamplePath:
    def test_deterministic_two_cycle(self):
        mu = GroupMeasure({parse_word("a"): 1})
        final, visited = sample_path(mu, 2, _path_generator(0, 0), targets=[parse_word("a")])
        assert final == parse_word("")
        assert visited == {parse_word("a")}

    def test_free_semigroup_element(self):
        mu = GroupMeasure({parse_word("ba"): 1})
        final, visited = sample_path(
            mu, 3, _path_generator(0, 0), targets=[parse_word("a")]
        )
        assert final == parse_word("bababa")
        assert len(final) == 6
        assert visited == set()

    def test_identity_target_always_visited(self):
        mu = GroupMeasure({parse_word("ba"): 1})
        _, visited = sample_path(mu, 1, _path_generator(0, 0), targets=[parse_word("")])
        assert visited == {parse_word("")}

    def test_matches_vectorized_engine(self):
        rng = random.Random(55)
        mu = GroupMeasure.from_json_dict({"a": "1/5", "b": "1/5", "ba": "2/5", "aB": "1/5"})
        cfg = small_cfg(paths=40, steps=140, seed=99, allow_short_steps=False)
        targets = [parse_word(w) for w in ("a", "ba", "aB", "aba")]
        words, cum = montecarlo._support_table(mu)
        u = montecarlo._batch_uniforms(cfg.seed, 0, np.empty((cfg.paths, cfg.steps)))
        increments = np.searchsorted(cum, u, side="right").astype(np.int16)
        packed, phases = montecarlo._phase_codes(words)
        W, L, visited = montecarlo._evolve(
            packed[:, increments.T], phases, [montecarlo._stack(t) for t in targets], 1
        )
        for i in range(cfg.paths):
            expected, seen = montecarlo._sample_path(words, cum, cfg.steps, _path_generator(cfg.seed, i), targets)
            got = montecarlo._spell(W[i, : L[i] + 1])
            assert got == expected.letters
            assert L[i] == len(got) - got.count("a")
            assert {t for t, hit in zip(targets, visited[i]) if hit} == seen
        # every target is visited by some path and missed by another
        assert visited.any(axis=0).all() and not visited.all(axis=0).any()


class TestDeterminism:
    def test_bit_identical_reports(self):
        r1 = simulate(SYMMETRIC_NN, small_cfg(), targets=[parse_word("a")])
        r2 = simulate(SYMMETRIC_NN, small_cfg(), targets=[parse_word("a")])
        assert r1.to_json() == r2.to_json()
        assert r1.to_csv() == r2.to_csv()

    def test_batch_count_invariance(self, monkeypatch):
        cfg = small_cfg()
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 4096)
        r1 = simulate(SYMMETRIC_NN, cfg, targets=[parse_word("ba")])
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 97)
        r2 = simulate(SYMMETRIC_NN, cfg, targets=[parse_word("ba")])
        assert r1.to_json() == r2.to_json()

    def test_visits_monotone_in_steps(self):
        mu = SYMMETRIC_NN
        targets = [parse_word("a"), parse_word("ba"), parse_word("aba")]
        short = simulate(mu, small_cfg(steps=320), targets=targets)
        long = simulate(mu, small_cfg(steps=640), targets=targets)
        for t in targets:
            assert long.passage_counts[t] >= short.passage_counts[t]

    def test_doubling_steps_consistency(self):
        mu = SYMMETRIC_NN
        targets = [parse_word("a"), parse_word("ba")]
        base = simulate(mu, small_cfg(paths=20_000, steps=320), targets=targets)
        double = simulate(mu, small_cfg(paths=20_000, steps=640), targets=targets)
        for t in targets:
            est, se = base.passage[t]
            est2, _ = double.passage[t]
            assert abs(est2 - est) < 2 * se


class TestBatchLayout:
    @pytest.mark.parametrize("steps", [1, 5, 403])
    def test_uniforms_follow_path_generators(self, steps):
        # From 2**44 - 1 on, the paths' counters carry into the second limb.
        for start, count in ((37, 6), (2**44 - 1, 3)):
            into = np.full((count, steps), np.nan)
            assert montecarlo._batch_uniforms(12, start, into) is into
            for i, row in enumerate(into):
                assert np.array_equal(row, _path_generator(12, start + i).random(steps))

    @pytest.mark.parametrize("block_bytes", [1, 1 << 40])
    @pytest.mark.parametrize("words", [
        ("ba",),
        ("b", "ba", "ab", "aba", "B", "Ba", "aB", "aBa", "a"),
        _reduced_words(193),
    ])
    def test_step_codes_gather_the_increments(self, monkeypatch, words, block_bytes):
        # 1, 9 and 193 atoms.
        mu = GroupMeasure.uniform(parse_word(w) for w in words)
        support, cum = montecarlo._support_table(mu)
        assert cum.size == len(support) == len(words)
        packed, _ = montecarlo._phase_codes(support)
        seed, start, count, steps = 4, 29, 70, 45
        increments = np.searchsorted(
            cum, montecarlo._batch_uniforms(seed, start, np.empty((count, steps))), side="right"
        ).T  # step-major, as the kernel reads the codes
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", block_bytes)
        codes = montecarlo._step_codes(cum, packed, seed, start, count, steps)
        assert codes.dtype == np.uint8
        assert np.array_equal(codes, packed[:, increments])

    @pytest.mark.parametrize("word, nmax", [("ba", 1), ("baBa", 2)])
    def test_rows_hold_words_that_never_cancel(self, word, nmax):
        # Each step pushes nmax letters 'b'/'B' and none cancels, so every
        # path fills exactly steps * nmax cells: the widest rows the kernel
        # can need, full width (steps * nmax + 1 cells, made odd), and the
        # last path's top is the word array's last cell or the one before.
        # Rows start 5 cells wide (the readout's 4, made odd) and a widening
        # takes width w to at most 2w + 1 while nmax is below w, so rows
        # wider than 32 cells took at least three widenings.
        mu = GroupMeasure({parse_word(word): 1})
        words, cum = montecarlo._support_table(mu)
        assert montecarlo._nmax(words) == nmax
        packed, phases = montecarlo._phase_codes(words)
        seed, paths, steps, cells = 6, 9, 41, 4
        codes = montecarlo._step_codes(cum, packed, seed, 0, paths, steps)
        W, L, _ = montecarlo._evolve(codes, phases, [], cells)
        full = (steps * nmax + 1) | 1
        # the contract: as wide as the longest word and the readout, at most full
        assert max(L.max() + 1, cells) <= W.shape[1] <= full
        assert W.shape == (paths, full) and W.shape[1] > 8 * cells
        assert (L == steps * nmax).all()
        assert W.size - 1 - ((paths - 1) * W.shape[1] + L[-1]) == full - (steps * nmax + 1)
        for i in range(paths):
            expected, _ = montecarlo._sample_path(words, cum, steps, _path_generator(seed, i))
            assert montecarlo._spell(W[i, : L[i] + 1]) == expected.letters

    @pytest.mark.parametrize("steps", [255, 511])
    def test_full_rows_have_odd_width(self, steps):
        # steps + 1 is a power of two here; full-width rows get one more
        # cell, since rows a power of two apart are slow to step on.
        mu = GroupMeasure({parse_word("ba"): 1})
        words, cum = montecarlo._support_table(mu)
        packed, phases = montecarlo._phase_codes(words)
        seed, paths = 2, 5
        codes = montecarlo._step_codes(cum, packed, seed, 0, paths, steps)
        W, L, _ = montecarlo._evolve(codes, phases, [], 4)
        assert W.shape == (paths, steps + 2) and (L == steps).all()
        for i in range(paths):
            expected, _ = montecarlo._sample_path(words, cum, steps, _path_generator(seed, i))
            assert montecarlo._spell(W[i, : L[i] + 1]) == expected.letters

    def test_rows_shorter_than_the_readout(self):
        # Two steps hold at most two letters 'b'/'B', fewer than depth 5 or
        # the letter test's 5 letters need: every path is unresolved.
        with pytest.warns(UserWarning, match="floor"):
            cfg = SimConfig(paths=30, steps=2, seed=1, depth=5, allow_short_steps=True)
        report = simulate(SYMMETRIC_NN, cfg, max_unresolved_fraction=1.0)
        assert report.unresolved == cfg.paths and not report.cylinder_counts
        with pytest.raises(UnresolvedPathsError):
            estimate_alpha(SYMMETRIC_NN, cfg)

    @pytest.mark.parametrize("atoms", [1, 3, 9, 64, 65, 192, 193, 256, 257, 400, 1000, 40_000])
    def test_lookup_matches_searchsorted(self, atoms):
        # 256 and 257 atoms straddle a one-byte atom index, and 40,000
        # overflow a signed 16-bit one; the lookup keeps no index at all.
        rng = np.random.default_rng(atoms)
        cum = np.cumsum(rng.random(atoms))
        cum /= cum[-1]
        cum[-1] = 1.0
        u = rng.random((30, 80))
        # A uniform on an edge belongs to the next atom.  Edges fill at most
        # half of u, so random uniforms still reach the last atoms.
        edges = min(atoms - 1, u.size // 2)
        u.flat[:edges] = cum[:edges]
        # three code bytes of any values: the rises between atoms wrap mod 256
        packed = rng.integers(0, 256, (3, atoms), dtype=np.uint8)
        got = montecarlo._lookup(cum, packed, u)
        assert got.dtype == np.uint8
        assert np.array_equal(got, packed[:, np.searchsorted(cum, u, side="right")])

    def test_batch_size_bounds_memory(self, monkeypatch):
        # Sizing arithmetic only: nothing of this size is allocated.
        budget, steps = montecarlo.BATCH_BYTES, montecarlo.PATH_STRIDE - 1
        assert montecarlo.BATCH_PATHS == 16384
        for letters in (1, 3):
            n = montecarlo._batch_paths(steps, letters)
            assert 1 <= n < 16384
            # per step: a code byte per four letters, words
            assert n * steps * (1 + letters) <= budget
            # the benchmark's 400-step runs keep the full default batch
            assert montecarlo._batch_paths(400, letters) == 16384
        assert montecarlo._batch_paths(steps, 1000) == 1  # floor of one path
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 7)
        assert montecarlo._batch_paths(400, 1) == 7  # BATCH_PATHS stays a cap

    def test_budget_does_not_change_results(self, monkeypatch):
        cfg = small_cfg(paths=300)
        full = simulate(SYMMETRIC_NN, cfg, targets=[parse_word("ba")])
        sizes = []
        evolve = montecarlo._evolve

        def recording_evolve(codes, *args):
            sizes.append(codes.shape[2])
            return evolve(codes, *args)

        monkeypatch.setattr(montecarlo, "_evolve", recording_evolve)
        monkeypatch.setattr(montecarlo, "BATCH_BYTES", 40 * 1010)  # 1,002 bytes per path
        monkeypatch.setattr(montecarlo, "CPUS", 1)  # calls are recorded here only
        capped = simulate(SYMMETRIC_NN, cfg, targets=[parse_word("ba")])
        assert sizes == [40] * 7 + [20]
        assert capped.to_json() == full.to_json()

    @pytest.mark.parametrize("block_bytes, block_sizes", [(1, [1] * 300), (1 << 40, [128, 128, 44])])
    def test_draw_blocks_keep_the_rng_contract(self, monkeypatch, block_bytes, block_sizes):
        # Blocks of one path each, and one block per batch of 128 paths.
        mu = ex1_fixture().combination.to_group_measure()
        cfg = SimConfig(paths=300, steps=200, seed=11, depth=5)
        targets = [parse_word("a"), parse_word("ba")]
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 128)
        report = simulate(mu, cfg, targets=targets).to_json()
        alpha = estimate_alpha(mu, cfg)
        sizes = []
        uniforms = montecarlo._batch_uniforms

        def recording_uniforms(seed, start, out):
            sizes.append(len(out))
            return uniforms(seed, start, out)

        monkeypatch.setattr(montecarlo, "_batch_uniforms", recording_uniforms)
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(montecarlo, "CPUS", 1)  # calls are recorded here only
        assert simulate(mu, cfg, targets=targets).to_json() == report
        assert sizes == block_sizes
        assert estimate_alpha(mu, cfg) == alpha

    @pytest.mark.parametrize("words, code_bytes", [
        (("a", "b", "baBa", "Bab", "aBaBa"), 2),
        (("a", "b", "bababab", "BaBaBaB"), 3),
    ], ids=["two-code-bytes", "three-code-bytes"])
    def test_multi_byte_codes_keep_the_rng_contract(self, monkeypatch, words, code_bytes):
        # Each lookup pass adds the rises of every code byte at once.
        mu = GroupMeasure.uniform(parse_word(w) for w in words)
        packed, _ = montecarlo._phase_codes(montecarlo._support_table(mu)[0])
        assert packed.shape[0] == code_bytes
        cfg = SimConfig(paths=300, steps=200, seed=13, depth=5)
        targets = [parse_word("a"), parse_word("ba")]
        runs, default = [], montecarlo.BLOCK_BYTES
        for batch_paths in (16384, 97):
            for block_bytes in (default, 1):
                monkeypatch.setattr(montecarlo, "BATCH_PATHS", batch_paths)
                monkeypatch.setattr(montecarlo, "BLOCK_BYTES", block_bytes)
                runs.append((simulate(mu, cfg, targets).to_json(), estimate_alpha(mu, cfg)))
        assert runs[1:] == runs[:1] * 3

    @pytest.mark.parametrize("words", [
        ("b", "ba", "ab", "aba", "B", "Ba", "aB", "aBa", "a"),
        ("ba",),
    ], ids=["nine-atoms", "never-cancelling"])
    def test_simulate_peaks_within_the_batch_budget(self, monkeypatch, words):
        # tracemalloc sees numpy's buffers.  The kernel holds at most
        # BATCH_BYTES, the batch's codes included; drawing adds one block of
        # uniforms with the lookup's codes, mask and rises, 11 bytes per 8 of
        # uniforms on these one-byte walks, within 2.25 * BLOCK_BYTES; 64 KiB
        # covers readout and report.
        # Two batches alive at once would overshoot by a word array.  The
        # never-cancelling walk fills every row to full width, so its rows
        # widen to full width with both copies alive at once.
        mu = GroupMeasure.uniform(parse_word(w) for w in words)
        cfg = SimConfig(paths=3000, steps=400, seed=1, depth=3)
        monkeypatch.setattr(montecarlo, "BATCH_BYTES", 1 << 20)
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 16 << 10)
        monkeypatch.setattr(montecarlo, "CPUS", 1)  # this process holds the whole budget
        assert 2 * montecarlo._batch_paths(cfg.steps, 1) < cfg.paths  # several batches
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a Dirac walk is degenerate
            simulate(mu, SimConfig(paths=10, steps=400, seed=1, depth=3))  # first-call allocations
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                simulate(mu, cfg)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= montecarlo.BATCH_BYTES + 2.25 * montecarlo.BLOCK_BYTES + (64 << 10)


class TestProcesses:
    MU = GroupMeasure.from_json_dict({"a": "1/5", "b": "1/5", "ba": "2/5", "aB": "1/5"})
    CFG = SimConfig(paths=1001, steps=200, seed=3, depth=3)
    TARGETS = [parse_word(w) for w in ("", "a", "ba", "aB")]

    def no_children(self):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_do_not_depend_on_the_process_count(self, monkeypatch):
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 128)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(montecarlo, "CPUS", cpus)
            runs.append((
                simulate(self.MU, self.CFG, targets=self.TARGETS).to_json(),
                estimate_alpha(self.MU, self.CFG),
                len(forks),
            ))
        assert [forked for *_, forked in runs] == [0, 2, 6]  # cpus - 1 per run
        assert runs[1][:2] == runs[0][:2] and runs[2][:2] == runs[0][:2]
        self.no_children()

    def test_one_support_table_per_run(self, monkeypatch):
        # The batches run on the table their caller built; no call builds a second.
        calls, support_table = [], montecarlo._support_table
        monkeypatch.setattr(
            montecarlo, "_support_table", lambda mu: calls.append(mu) or support_table(mu)
        )
        simulate(self.MU, self.CFG, targets=self.TARGETS)
        assert len(calls) == 1
        estimate_alpha(self.MU, self.CFG)
        assert len(calls) == 2

    def test_child_exception_reaches_the_parent(self, monkeypatch):
        # Two processes: the child's share starts at path 1001 // 2.
        monkeypatch.setattr(montecarlo, "CPUS", 2)
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 128)
        step_codes = montecarlo._step_codes

        def failing(cum, packed, seed, start, count, steps):
            if start == self.CFG.paths // 2:
                raise LookupError("raised in the child")
            return step_codes(cum, packed, seed, start, count, steps)

        monkeypatch.setattr(montecarlo, "_step_codes", failing)
        with pytest.raises(LookupError, match="raised in the child"):
            simulate(self.MU, self.CFG)
        self.no_children()

    @pytest.mark.parametrize(
        "exc, named",
        [
            (unpicklable_error(), "ValueError('raised in the child')"),
            (NeedsTwoArguments(1, 2), "NeedsTwoArguments('1 and 2')"),
        ],
        ids=["dumps fails", "loads fails"],
    )
    def test_child_exception_that_does_not_pickle(self, monkeypatch, exc, named):
        # The child cannot send the exception itself: pickle.dumps refuses a
        # lambda, and pickle.loads cannot rebuild a class whose __init__ needs
        # two arguments.  The parent raises a RuntimeError that names it.
        monkeypatch.setattr(montecarlo, "CPUS", 2)
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 128)
        children_raise(monkeypatch, exc)
        with pytest.raises(RuntimeError) as info:
            simulate(self.MU, self.CFG, targets=self.TARGETS)
        assert type(info.value) is RuntimeError
        assert str(info.value).endswith(f" raised {named}")
        self.no_children()

    @pytest.mark.parametrize("result", ["none", "cut short"])
    def test_child_without_a_whole_result(self, monkeypatch, result):
        # The child exits before it writes, or after the first half of its
        # pickled reads.
        monkeypatch.setattr(montecarlo, "CPUS", 2)
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 128)
        if result == "none":
            children_exit_at_once(monkeypatch)
        else:
            def half_dump(obj, pipe):
                data = pickle.dumps(obj)
                pipe.write(data[: len(data) // 2])

            monkeypatch.setattr(montecarlo, "pickle", SimpleNamespace(
                dump=half_dump, load=pickle.load, UnpicklingError=pickle.UnpicklingError
            ))
        with pytest.raises(RuntimeError, match="died without a result"):
            simulate(self.MU, self.CFG, targets=self.TARGETS)
        self.no_children()

    def test_results_larger_than_the_pipe_buffer(self, monkeypatch):
        # The NN walk at depth 12: the child's 10,000 paths stream about
        # 185 KB of reads, more than a pipe holds (64 KiB), so the child
        # writes while the parent reads.  The parent counts what it reads.
        cfg = SimConfig(paths=20_000, steps=800, seed=1, depth=12)
        sizes = []

        def counting_load(pipe):
            def read(*n):
                data = pipe.read(*n)
                sizes[-1] += len(data)
                return data

            sizes.append(0)
            return pickle.load(SimpleNamespace(read=read, readline=pipe.readline))

        monkeypatch.setattr(montecarlo, "pickle", SimpleNamespace(
            dump=pickle.dump, load=counting_load, UnpicklingError=pickle.UnpicklingError
        ))
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(montecarlo, "CPUS", cpus)
            runs.append((simulate(SYMMETRIC_NN, cfg).to_json(), estimate_alpha(SYMMETRIC_NN, cfg)))
        assert runs[1] == runs[0]
        assert len(sizes) == 2 and sizes[0] > 1 << 16  # one child per run at 2 CPUs
        self.no_children()

    def test_closing_early_leaves_no_child(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "CPUS", 3)
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 128)
        table = montecarlo._support_table(self.MU)
        batches = montecarlo._batches(table, self.CFG, (), lambda W, L, visited: L.size)
        assert next(batches) == 42  # 128 // 3 paths per batch
        batches.close()
        self.no_children()

    def test_one_batch_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(montecarlo, "CPUS", 3)
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", self.CFG.paths)
        monkeypatch.setattr(os, "fork", fork)
        report = simulate(self.MU, self.CFG, targets=self.TARGETS)
        assert report.paths_used == self.CFG.paths


class TestEstimates:
    def test_passage_matches_analytic(self):
        # x = 2/3 and y = 1/2 for the symmetric nearest-neighbour walk
        cfg = SimConfig(paths=40_000, steps=320, seed=2, depth=2)
        report = simulate(
            SYMMETRIC_NN, cfg, targets=[parse_word("a"), parse_word("ba")]
        )
        est_a, se_a = report.passage[parse_word("a")]
        est_ba, se_ba = report.passage[parse_word("ba")]
        assert abs(est_a - 2 / 3) <= 4 * se_a
        assert abs(est_ba - 1 / 2) <= 4 * se_ba

    def test_never_visits_unreachable_target(self):
        # a degenerate (free-semigroup) support: allowed, but flagged
        mu = GroupMeasure({parse_word("ba"): 1})
        cfg = small_cfg(paths=500)
        with pytest.warns(UserWarning, match="generate"):
            report = simulate(mu, cfg, targets=[parse_word("a")])
        assert report.passage_counts[parse_word("a")] == 0
        assert report.degenerate_support
        with pytest.raises(ValueError, match="degenerate"):
            compare_with_analytic(report, DenjoyParams(Fraction(1, 2), Fraction(1, 2)))

    def test_frequencies_partition(self):
        cfg = small_cfg(paths=5000)
        report = simulate(SYMMETRIC_NN, cfg)
        for depth in (1, 2):
            level = [c for c in report.cylinder_counts if str(c).count("a") == depth]
            assert sum(report.cylinder_counts[c] for c in level) == report.resolved
        parent = Cylinder.of("a")
        kids = parent.children()
        assert report.cylinder_counts[parent] == sum(
            report.cylinder_counts[k] for k in kids
        )

    def test_frequencies_match_harmonic_measure(self):
        mu_step = harmonic_params(StepOnS.from_group_measure(SYMMETRIC_NN))
        cfg = SimConfig(paths=40_000, steps=400, seed=8, depth=3)
        report = simulate(SYMMETRIC_NN, cfg)
        est, se = report.cylinder_freq[Cylinder.of("a")]
        assert abs(est - 0.4) <= 4 * se  # p = 2/5
        table = compare_with_analytic(report, mu_step)
        assert table.max_abs_z <= 4

    def test_unresolved_paths_error(self):
        # this walk never produces an 'a': every path stays unresolved
        mu = GroupMeasure({parse_word("b"): 1})
        with pytest.warns(UserWarning, match="generate"):
            with pytest.raises(UnresolvedPathsError):
                simulate(mu, small_cfg(paths=300))

    def test_total_mass_is_checked_first(self):
        # {b: 1/2} is degenerate too, but the total mass fails before any warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="probability measure"):
                simulate(GroupMeasure.from_json_dict({"b": "1/2"}), small_cfg(paths=10))

    def test_unresolved_after_drawing(self):
        # A generating walk passes the early refusal and draws its paths;
        # 8 steps leave most of them short of depth 3.
        with pytest.warns(UserWarning, match="floor"):
            cfg = SimConfig(paths=500, steps=8, seed=1, depth=3, allow_short_steps=True)
        with pytest.raises(
            UnresolvedPathsError,
            match="^463 of 500 paths never reached depth 3; raise steps or lower depth$",
        ):
            simulate(SYMMETRIC_NN, cfg)

    @pytest.mark.parametrize("weights, depth", [
        ({"": 1}, 1),
        ({"b": "1/2", "B": "1/2"}, 3),
        ({"": "1/2", "a": "1/2"}, 2),
    ])
    def test_unreachable_depth_draws_nothing(self, monkeypatch, weights, depth):
        # No 'a' keeps every word in the subgroup of b; only '' and 'a' keep
        # it in {'', 'a'}.  Either way the run is refused before any draw.
        def batches(*args):
            raise AssertionError("_batches entered")

        mu = GroupMeasure.from_json_dict(weights)
        cfg = small_cfg(paths=100, depth=depth)
        monkeypatch.setattr(montecarlo, "_batches", batches)
        with pytest.warns(UserWarning, match="generate"):
            with pytest.raises(UnresolvedPathsError, match="no path can reach"):
                simulate(mu, cfg)
        with pytest.warns(UserWarning, match="generate"):
            with pytest.raises(UnresolvedPathsError, match="no path can hold"):
                estimate_alpha(mu, cfg)
        # A fraction of 1 accepts every path unresolved, so the paths run.
        with pytest.warns(UserWarning, match="generate"):
            with pytest.raises(AssertionError, match="_batches entered"):
                simulate(mu, cfg, max_unresolved_fraction=1.0)

    def test_depth_one_is_reachable_through_a(self):
        # {'', 'a'} can sit on 'a', so depth 1 runs; paths on '' stay unresolved.
        mu = GroupMeasure.from_json_dict({"": "1/2", "a": "1/2"})
        with pytest.warns(UserWarning, match="generate"):
            report = simulate(mu, small_cfg(paths=400, depth=1), max_unresolved_fraction=1.0)
        assert 0 < report.resolved < report.paths_used
        assert report.cylinder_counts == {Cylinder.of("a"): report.resolved}

    def test_deep_tally_matches_the_ancestor_scan(self):
        # The tally as it was: one ancestor scan and one Cylinder per leaf
        # and depth.
        def ancestor(prefix, depth):
            seen = 0
            for i, ch in enumerate(prefix):
                if ch == "a":
                    seen += 1
                    if seen == depth:
                        return prefix[: i + 1]
            raise ValueError(f"prefix {prefix!r} is shallower than depth {depth}")

        mu = GroupMeasure.uniform(
            parse_word(w) for w in ("b", "ba", "ab", "aba", "B", "Ba", "aB", "aBa", "a")
        )
        cfg = SimConfig(paths=2000, steps=500, seed=4, depth=20)
        report = simulate(mu, cfg, targets=[parse_word("ba")])
        # the leaves are the depth-d cylinders, in the order they were read
        leaf_counts = {str(c): n for c, n in report.cylinder_counts.items() if str(c).count("a") == cfg.depth}
        counts = {}
        for leaf, n in leaf_counts.items():
            for depth in range(1, cfg.depth + 1):
                cyl = Cylinder.of(ancestor(leaf, depth))
                counts[cyl] = counts.get(cyl, 0) + n
        freq = {}
        for cyl, n in counts.items():
            est = n / report.resolved
            freq[cyl] = (est, math.sqrt(est * (1 - est) / report.resolved))
        old = dataclasses.replace(report, cylinder_freq=freq, cylinder_counts=counts)
        assert report.to_json() == old.to_json()
        assert list(report.cylinder_counts) == list(counts)  # same insertion order
        assert len(counts) > 10 * len(leaf_counts)  # deep prefixes are mostly distinct


class TestCompare:
    def test_one_row_per_cylinder(self):
        report = simulate(SYMMETRIC_NN, small_cfg(paths=400))
        params = DenjoyParams(Fraction(1, 2), Fraction(2, 5))
        table = compare_with_analytic(report, params)
        z = [
            abs(est - float(cylinder_mass(params, cyl))) / se
            for cyl, (est, se) in report.cylinder_freq.items()
        ]
        assert len(z) > 1 and table.max_abs_z == max(z)
    def test_no_standard_error(self):
        # One path gives each of its cylinders the estimate 1 with standard
        # error 0, which no measure of the family matches.
        report = simulate(SYMMETRIC_NN, SimConfig(paths=1, steps=120, seed=1, depth=1))
        assert report.cylinder_freq == {Cylinder.of("a"): (1.0, 0.0)}
        table = compare_with_analytic(report, DenjoyParams(Fraction(1, 2), Fraction(2, 5)))
        assert table.max_abs_z == math.inf

    def test_detects_wrong_alpha(self):
        cfg = SimConfig(paths=100_000, steps=400, seed=4, depth=3)
        report = simulate(SYMMETRIC_NN, cfg)
        good = compare_with_analytic(report, DenjoyParams(Fraction(1, 2), Fraction(2, 5)))
        bad = compare_with_analytic(
            report, DenjoyParams(Fraction(1, 2) + Fraction(1, 20), Fraction(2, 5))
        )
        assert good.max_abs_z <= 4
        assert bad.max_abs_z > 4


FROZEN_FIXTURES = [
    # ten S-supported step distributions of varied shape, each simulated at
    # 1e5 paths and compared against its analytic harmonic parameters
    {"a": "1/3", "b": "1/3", "bb": "1/3"},
    {"a": "1/2", "b": "1/2"},
    {"a": "1/5", "b": "2/5", "bb": "2/5"},
    {"a": "1/5", "b": "1/5", "ba": "3/5"},
    {"a": "1/4", "b": "1/4", "ba": "1/4", "bba": "1/4"},
    {"a": "1/6", "b": "1/6", "bb": "1/6", "ba": "1/4", "bba": "1/4"},
    {"b": "1/3", "ba": "1/3", "bba": "1/3"},
    {"a": "2/5", "ba": "3/10", "bba": "3/10"},
    {"a": "1/8", "b": "1/2", "ba": "1/4", "bba": "1/8"},
    {"a": "3/10", "b": "1/10", "bb": "3/10", "ba": "2/10", "bba": "1/10"},
]


class TestOracleAgreement:
    def test_ten_frozen_fixtures(self):
        from modwalk import StepOnS

        for i, data in enumerate(FROZEN_FIXTURES):
            mu = StepOnS.from_json_dict(data)
            params = harmonic_params(mu)
            cfg = SimConfig(paths=100_000, steps=400, seed=2024 + i, depth=3)
            report = simulate(mu.to_group_measure(), cfg)
            table = compare_with_analytic(report, params)
            assert table.max_abs_z <= 4, (data, table.max_abs_z)


def ex1_fixture():
    """The ex1 report whose combination walk acceptance criterion 4b runs."""
    return example_ex1(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2))


class TestLetterTest:
    CFG_4B = SimConfig(paths=100_000, steps=800, seed=1, depth=35)

    def test_z_without_standard_error(self):
        est = AlphaEstimate(0.5, 0.0, 10, 3)
        assert est.z(0.5) == 0.0
        assert est.z(0.25) == math.inf and est.z(0.75) == -math.inf

    def test_batch_invariance(self, monkeypatch):
        mu = ex1_fixture().combination.to_group_measure()
        cfg = SimConfig(paths=300, steps=200, seed=11, depth=5)
        full = estimate_alpha(mu, cfg)
        monkeypatch.setattr(montecarlo, "BATCH_PATHS", 7)
        assert estimate_alpha(mu, cfg) == full

    @pytest.mark.parametrize("words, cfg", [
        (None, SimConfig(paths=60, steps=200, seed=8, depth=5)),
        (_reduced_words(40_000), SimConfig(paths=8, steps=120, seed=3, depth=1)),
    ], ids=["ex1", "40000-atoms"])
    def test_matches_per_path_reference(self, words, cfg):
        # RNG contract v1; the uniform walk's 40,000 atoms overflow a signed
        # 16-bit atom count.
        if words is None:
            mu = ex1_fixture().combination.to_group_measure()
        else:
            mu = GroupMeasure.uniform(parse_word(w) for w in words)
        b_total = resolved = 0
        table = montecarlo._support_table(mu)  # built once for all paths
        for i in range(cfg.paths):
            word, _ = montecarlo._sample_path(*table, cfg.steps, _path_generator(cfg.seed, i))
            letters = [ch for ch in word.letters if ch != "a"][: cfg.depth]
            if len(letters) == cfg.depth:
                resolved += 1
                b_total += letters.count("b")
        est = estimate_alpha(mu, cfg)
        assert est.resolved == resolved and est.letters == cfg.depth
        assert est.estimate == b_total / (cfg.depth * resolved)

    def test_reads_letters_past_widened_rows(self, monkeypatch):
        # k = 40: rows start at the 41 cells the letter test reads, and the
        # kernel widens them as the words outgrow that; the estimate still
        # counts each path's own first 40 letters b/B.
        mu = GroupMeasure.uniform(
            parse_word(w) for w in ("b", "ba", "ab", "aba", "B", "Ba", "aB", "aBa", "a")
        )
        cfg = SimConfig(paths=60, steps=900, seed=3, depth=40)
        widths = []
        evolve = montecarlo._evolve

        def recording_evolve(codes, phases, targets, cells):
            W, L, visited = evolve(codes, phases, targets, cells)
            widths.append((cells, W.shape[1]))
            return W, L, visited

        monkeypatch.setattr(montecarlo, "_evolve", recording_evolve)
        monkeypatch.setattr(montecarlo, "CPUS", 1)  # calls are recorded here only
        est = estimate_alpha(mu, cfg)
        assert widths == [(41, widths[0][1])] and widths[0][1] > 2 * 41
        b_total = 0
        table = montecarlo._support_table(mu)
        for i in range(cfg.paths):
            word, _ = montecarlo._sample_path(*table, cfg.steps, _path_generator(cfg.seed, i))
            b_total += [ch for ch in word.letters if ch != "a"][: cfg.depth].count("b")
        assert est.resolved == cfg.paths and est.letters == cfg.depth
        assert est.estimate == b_total / (cfg.depth * cfg.paths)

    def test_single_path_has_no_stderr(self):
        cfg = SimConfig(paths=1, steps=400, seed=1, depth=3)
        with pytest.raises(ValueError, match="two resolved paths"):
            estimate_alpha(ex1_fixture().combination.to_group_measure(), cfg)

    def test_equal_counts_have_no_stderr(self):
        # Every path of the walk on {ba} ends at (ba)^steps: k letters b each.
        cfg = SimConfig(paths=20, steps=200, seed=1, depth=5)
        with pytest.warns(UserWarning, match="generate"):
            with pytest.raises(ValueError, match="no standard error"):
                estimate_alpha(GroupMeasure({parse_word("ba"): 1}), cfg)
        # The same on a walk that does generate: ex2's compound at two paths.
        cfg = SimConfig(paths=2, steps=120, seed=2, depth=1)
        with pytest.raises(ValueError, match="no standard error"):
            estimate_alpha(example_ex2(Fraction(1, 2)).mu_prime.to_group_measure(), cfg)

    def test_degenerate_support_warns(self):
        # {ba, Ba} is trapped in the free semigroup of words b/B...a: the
        # letter test still runs, and warns at its caller as simulate does
        mu = GroupMeasure.from_json_dict({"ba": "1/2", "Ba": "1/2"})
        cfg = SimConfig(paths=200, steps=200, seed=1, depth=5)
        with pytest.warns(UserWarning, match="generate") as record:
            est = estimate_alpha(mu, cfg)
            assert simulate(mu, cfg).degenerate_support
        assert est.resolved == cfg.paths
        assert [w.filename for w in record] == [__file__, __file__]

    def test_unresolved_paths_error(self):
        # 20 steps cannot build a word holding 35 letters b/B
        with pytest.warns(UserWarning, match="floor"):
            cfg = SimConfig(paths=50, steps=20, seed=0, depth=35, allow_short_steps=True)
        with pytest.raises(UnresolvedPathsError):
            estimate_alpha(SYMMETRIC_NN, cfg)

    def test_null_control(self):
        # A hyperbola endpoint is Minkowski-filling (alpha = 1/2), while its
        # b weight (~0.089) is far from its B weight (1/3), so a truncation
        # bias in the readout would push the z-score away from 0.
        mu = ex1_fixture().endpoints[0]
        assert abs(float(harmonic_params(mu).alpha) - 0.5) <= 1e-12
        est = estimate_alpha(mu.to_group_measure(), self.CFG_4B)
        assert abs(est.z(0.5)) <= 4, est

    def test_power(self):
        cfg, alpha = self.CFG_4B, ex1_fixture().alpha
        size = letter_test_power(0.5, 0.5, cfg.depth, cfg.paths)
        assert size == 2 * NormalDist().cdf(-4.0)
        assert letter_test_power(alpha, 0.5, cfg.depth, cfg.paths) >= 0.99
        # the steps floor lets 400 steps carry only k = 15: too weak a test
        assert letter_test_power(alpha, 0.5, 15, cfg.paths) < 0.6
        with pytest.raises(ValueError):
            letter_test_power(1.0, 0.5, cfg.depth, cfg.paths)

    @pytest.mark.parametrize("alpha0", [2, 0, True, "1/2"])
    def test_alpha0_is_validated(self, alpha0):
        with pytest.raises(ValueError, match="alpha0"):
            letter_test_power(0.6, alpha0, 35, 100)
        with pytest.raises(ValueError, match="alpha0"):
            paths_for_power(0.6, alpha0, 35, 0.9)
        if not isinstance(alpha0, str):  # z-scores read the class alpha as a float first
            with pytest.raises(ValueError, match="alpha0"):
                AlphaEstimate(0.6, 0.01, 100, 35).as_dict(class_alpha=alpha0, own_alpha=0.6)


def example_alphas() -> dict[str, tuple[Fraction, float]]:
    """The harmonic and the class alpha of each example at the CLI defaults."""
    ex0 = example_ex0(ts=(Fraction(1, 2),))
    ex0_step = ex0.pair[0].combine(ex0.pair[1], Fraction(1, 2))
    return {
        "ex0": (harmonic_params(ex0_step).alpha, ex0.alpha_common),
        "ex1": (harmonic_params(ex1_fixture().combination).alpha, 0.5),  # t = 1/2: either order
        "ex2": (harmonic_params(example_ex2(Fraction(1, 2)).mu_prime).alpha, 0.5),
    }


class TestPathsForPower:
    # paths for power 0.99 at k = 3, 15 and 35 letters, as tabled in the ROADMAP
    TABLE = {
        "ex0": (50_200, 10_040, 4_303),
        "ex1": (1_147_830, 229_566, 98_386),
        "ex2": (32, 7, 3),
    }

    @pytest.mark.parametrize("name", ["ex0", "ex1", "ex2"])
    def test_reproduces_the_table(self, name):
        alpha, alpha0 = example_alphas()[name]
        assert tuple(paths_for_power(alpha, alpha0, k, 0.99) for k in (3, 15, 35)) == self.TABLE[name]

    def test_lands_between_n_minus_1_and_n(self):
        rng = random.Random(4)
        cases = [
            (rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99), rng.randint(1, 40), rng.uniform(0.01, 0.999))
            for _ in range(200)
        ]
        # a gap of 1e-12 needs ~3e24 paths, where one path more moves no float
        for alpha, alpha0, k, power in cases + [(0.5 + 1e-12, 0.5, 3, 0.99)]:
            n = paths_for_power(alpha, alpha0, k, power)
            assert letter_test_power(alpha, alpha0, k, n) >= power
            assert n == 1 or letter_test_power(alpha, alpha0, k, n - 1) < power

    def test_rejects_what_no_count_reaches(self):
        size = letter_test_power(0.5, 0.5, 3, 1)
        for alpha, alpha0, power in ((0.3, 0.3, 0.9), (0.3, 0.5, size), (0.3, 0.5, 1.0), (0.3, 0.5, 0.0)):
            with pytest.raises(ValueError):
                paths_for_power(alpha, alpha0, 3, power)
        with pytest.raises(ValueError):
            paths_for_power(1.0, 0.5, 3, 0.9)
        with pytest.raises(ValueError):
            paths_for_power(0.3, 0.5, 0, 0.9)


class TestEmptyReport:
    def test_zero_resolution_report_rejected(self):
        from modwalk import SimReport

        empty = SimReport(
            cylinder_freq={},
            cylinder_counts={},
            passage={},
            passage_counts={},
            paths_used=0,
            resolved=0,
            unresolved=0,
            steps_used=0,
            seed=0,
            depth=1,
        )
        params = DenjoyParams(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            compare_with_analytic(empty, params)
