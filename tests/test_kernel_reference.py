"""The streamed simulator batch against the one it replaces.

The references below are the word-evolution kernel and the cylinder
readout that ``montecarlo`` used before each batch drew its uniforms in
blocks, read its increments from a packed step-major phase table, kept only
the ``b``/``B`` letters of each word on a stack and read cylinders off the
first ``d + 1`` cells only.  They keep that batch's input formats: a
``-1``-padded letter table of the support and the targets as one flat code
array with offsets.  The words the stacks spell, their lengths, target
visits and leaf counts must be equal to theirs.  The references take each
uniform's atom from ``np.searchsorted``, not from the simulator's lookup.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

import modwalk.montecarlo as montecarlo
from modwalk import GroupMeasure, SimConfig, parse_word, simulate


# ---------------------------------------------------------------------------
# References: the batch as it was.


def reference_table(words):
    """Row ``i`` holds the letter codes of ``words[i]``, padded with -1."""
    table = np.full((len(words), max(len(w) for w in words) or 1), -1, dtype=np.int8)
    for i, w in enumerate(words):
        for j, ch in enumerate(w.letters):
            table[i, j] = montecarlo._CODE[ch]
    return table


def reference_targets(targets):
    """``(tgt_flat, tgt_off)``: the targets' codes end to end, and offsets."""
    tgt_flat = np.array([montecarlo._CODE[ch] for t in targets for ch in t.letters], dtype=np.int8)
    tgt_off = np.cumsum([0] + [len(t.letters) for t in targets]).astype(np.int64)
    return tgt_flat, tgt_off


def reference_evolve(increments, table, width, tgt_flat, tgt_off):
    B, steps = increments.shape
    K = tgt_off.size - 1
    stride = width + 1
    W = np.full(B * stride, -1, dtype=np.int8)
    base = np.arange(B, dtype=np.int64) * stride
    top_at = base.copy()
    visited = np.zeros((B, K), dtype=np.bool_)
    targets = [tgt_flat[tgt_off[k] : tgt_off[k + 1]] for k in range(K)]
    letters = np.empty((steps, table.shape[1], B), dtype=np.int8)
    for p in range(table.shape[1]):
        letters[:, p] = table[:, p][increments.T]
    always = (table >= 0).all(axis=0)
    for t in range(steps):
        for p, c in enumerate(letters[t]):
            top = W[top_at]
            s = top + c
            cancel = (s == 3) | ((top | c) == 0)
            merge = (top == c) & (top > 0)
            append = ~(cancel | merge)
            W[top_at + append] = np.where(merge, top ^ 3, c)
            top_at += append if always[p] else append & (c >= 0)
            top_at -= cancel
        if K:
            L = top_at - base
            for k, tgt in enumerate(targets):
                idx = np.flatnonzero(L == tgt.size)
                hit = np.ones(idx.size, dtype=np.bool_)
                for j, letter in enumerate(tgt):
                    hit &= W[base[idx] + 1 + j] == letter
                visited[idx[hit], k] = True
    return W.reshape(B, stride)[:, 1:], top_at - base, visited


def reference_run(mu, cfg, targets, batch_paths):
    """Whole-batch uniforms, the reference kernel and the full-width readout."""
    tgt_flat, tgt_off = reference_targets(targets)
    words, cum = montecarlo._support_table(mu)
    table = reference_table(words)
    width = cfg.steps * table.shape[1] + 2
    visit_counts = np.zeros(len(targets), dtype=np.int64)
    leaf_counts = {}
    unresolved = 0
    for start in range(0, cfg.paths, batch_paths):
        count = min(batch_paths, cfg.paths - start)
        u = montecarlo._batch_uniforms(cfg.seed, start, count, cfg.steps)
        W, L, visited = reference_evolve(
            np.searchsorted(cum, u, side="right"), table, width, tgt_flat, tgt_off
        )
        for j, t in enumerate(targets):
            if t.is_identity():
                visited[:, j] = True
        visit_counts += visited.sum(axis=0)
        used = W[:, : max(int(L.max()), 1)]
        in_word = np.arange(used.shape[1]) < L[:, None]
        a_count = np.cumsum((used == 0) & in_word, axis=1, dtype=np.int32)
        resolved_mask = a_count[:, -1] >= cfg.depth
        unresolved += int(count - resolved_mask.sum())
        if resolved_mask.any():
            pos = np.argmax(a_count >= cfg.depth, axis=1)
            P = W[:, : 2 * cfg.depth].copy()
            P[np.arange(P.shape[1]) > pos[:, None]] = -1
            uniq, counts = np.unique(P[resolved_mask], axis=0, return_counts=True)
            for row, n in zip(uniq, counts):
                key = "".join("abB"[c] for c in row if c >= 0)
                leaf_counts[key] = leaf_counts.get(key, 0) + int(n)
    return visit_counts, leaf_counts, unresolved


# ---------------------------------------------------------------------------
# Walks: support widths 1, 3, 5 and 40, the identity, and 65 and 193 atoms.


def _reduced_words(max_len):
    for n in range(1, max_len + 1):
        for letters in itertools.product("abB", repeat=n):
            w = "".join(letters)
            if all((x == "a") != (y == "a") for x, y in zip(w, w[1:])):
                yield w


def _measure(words, seed):
    rng = random.Random(seed)
    weights = [Fraction(rng.randint(1, 9)) for _ in words]
    total = sum(weights)
    return GroupMeasure.from_json_dict({w: q / total for w, q in zip(words, weights)})


WALKS = {
    "width1": _measure(["a", "b", "B"], 1),
    "width3": _measure(["b", "ba", "ab", "aba", "B", "Ba", "aB", "aBa", "a"], 3),
    "width5": _measure(["a", "b", "babab", "aBaBa", "Ba"], 5),
    "width40": _measure(["a", "B", "ba", "ab" * 20], 40),
    "identity": _measure(["", "a", "b", "Ba"], 7),
    "atoms65": _measure(list(_reduced_words(7))[:65], 65),
    "atoms193": _measure(list(_reduced_words(10))[:193], 193),
}
TARGETS = [parse_word(w) for w in ("", "a", "ba", "aBa", "baBa")]  # lengths 0-4


def test_walks_cover_the_cases():
    widths = {
        name: reference_table(montecarlo._support_table(mu)[0]).shape[1] for name, mu in WALKS.items()
    }
    assert [widths[n] for n in ("width1", "width3", "width5", "width40")] == [1, 3, 5, 40]
    assert montecarlo._code_bytes(40) == 10  # codes span many bytes
    assert parse_word("") in WALKS["identity"].support()
    assert len(WALKS["atoms193"].support()) == 193  # a table of hundreds of atoms


@pytest.mark.parametrize("name", sorted(WALKS))
def test_kernel_matches_reference(name):
    mu = WALKS[name]
    words, cum = montecarlo._support_table(mu)
    table = reference_table(words)
    steps, paths = 150, 97
    u = montecarlo._batch_uniforms(3, 11, paths, steps)
    increments = np.searchsorted(cum, u, side="right")
    width = steps * table.shape[1] + 2
    W0, L0, v0 = reference_evolve(increments, table, width, *reference_targets(TARGETS))
    # the step-major phase codes that _step_codes draws
    packed, phases = montecarlo._phase_codes(words)
    W, L, visited = montecarlo._evolve(
        packed[:, increments.T], phases, [montecarlo._stack(t) for t in TARGETS], 1
    )
    nmax = max(len(w) - w.letters.count("a") for w in words)
    # rows as wide as the longest word, and never wider than steps * nmax + 1
    # made odd
    assert W.shape[0] == paths and L.max() < W.shape[1] <= (steps * nmax + 1) | 1
    for i in range(paths):
        word = montecarlo._spell(W[i, : L[i] + 1])
        assert word == "".join("abB"[c] for c in W0[i, : L0[i]])
        assert len(word) == L0[i]
    assert np.array_equal(visited, v0)
    # every nonempty target is hit by some path, so its checks were exercised
    assert v0[:, 1:].any(axis=0).sum() >= 2


# b/ab and ba/aba share their top cell and length, and bab shares both
# with Bab: only their lower cells tell them apart.
TWINS = [parse_word(w) for w in ("", "b", "ab", "ba", "aba", "bab")]


@pytest.mark.parametrize("name", ["width1", "width3"])
def test_targets_told_apart_by_lower_cells(name):
    mu = WALKS[name]
    words, cum = montecarlo._support_table(mu)
    seed, paths, steps = 5, 60, 30
    packed, phases = montecarlo._phase_codes(words)
    codes = montecarlo._step_codes(cum, packed, seed, 0, paths, steps)
    _, _, visited = montecarlo._evolve(codes, phases, [montecarlo._stack(t) for t in TWINS], 1)
    # "" counts revisits of the identity after step 0, as the reference does
    u = montecarlo._batch_uniforms(seed, 0, paths, steps)
    increments = np.searchsorted(cum, u, side="right")
    table = reference_table(words)
    width = steps * table.shape[1] + 2
    _, _, v0 = reference_evolve(increments, table, width, *reference_targets(TWINS))
    assert np.array_equal(visited, v0)
    for i in range(paths):
        _, seen = montecarlo._sample_path(words, cum, steps, montecarlo._path_generator(seed, i), TWINS[1:])
        assert {t for t, hit in zip(TWINS, visited[i]) if hit} - {TWINS[0]} == seen
    # each target is hit by some path and missed by another
    assert visited.any(axis=0).all() and not visited.all(axis=0).any()


@pytest.mark.parametrize("depth", [1, 3, 8, 16, 35, 64])
@pytest.mark.parametrize("name", sorted(WALKS))
def test_run_matches_reference(monkeypatch, name, depth):
    mu = WALKS[name]
    cfg = SimConfig(paths=100, steps=20 * depth + 100, seed=depth, depth=depth)
    monkeypatch.setattr(montecarlo, "BATCH_PATHS", 64)
    report = simulate(mu, cfg, TARGETS, max_unresolved_fraction=1.0)
    visits, leaves, unresolved = reference_run(mu, cfg, TARGETS, 64)
    assert [report.passage_counts[t] for t in TARGETS] == visits.tolist()
    # the depth-d cylinders are the leaves
    assert {str(c): n for c, n in report.cylinder_counts.items() if str(c).count("a") == depth} == leaves
    assert report.unresolved == unresolved
    assert unresolved < cfg.paths // 2  # most paths reach the readout's depth
