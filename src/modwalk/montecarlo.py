"""Seeded Monte Carlo estimation for walks with finitely supported steps.

Paths multiply i.i.d. increments on the right; the estimators report the
fraction of paths that ever visit given target words (passage
probabilities) and the distribution of the depth-``d`` cylinder read off
the position at the final time (limiting cylinder frequencies), both with
binomial standard errors.  A third estimator reads the fraction of ``b``
among the ``b``/``B`` letters of the final word, which estimates the
family parameter ``alpha`` directly (the letter test).

Randomness contract, version 1 (pinned so seeds reproduce across
platforms and across any batching of the work): path ``i`` draws its
uniform doubles from numpy's ``Philox`` bit generator keyed directly by
the 64-bit ``seed`` and advanced by ``i * 2**20`` before the first draw.
Processes, the batches of each process and the blocks in which a batch
draws its uniforms only decide which paths are simulated together, so
merged counts cannot depend on the layout, and rerunning a path with a
larger step budget extends the same trajectory.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import warnings
from dataclasses import dataclass
from signal import SIGKILL
from statistics import NormalDist
from typing import Iterable, Mapping, Sequence

import numpy as np

from .boundary import Cylinder
from .denjoy import DenjoyParams, _check_open_unit, _real_between, cylinder_mass
from .group import (
    IDENTITY,
    GroupMeasure,
    GroupWord,
    _integer,
    _provably_degenerate,
    _reach,
    _require_probability,
)

__all__ = [
    "PATH_STRIDE",
    "SimConfig",
    "SimReport",
    "AlphaEstimate",
    "UnresolvedPathsError",
    "sample_path",
    "simulate",
    "compare_with_analytic",
    "ZTable",
    "estimate_alpha",
    "letter_test_power",
    "paths_for_power",
]

PATH_STRIDE = 1 << 20  # counter positions reserved per path
_LIMB = (1 << 64) - 1  # one 64-bit limb of Philox's 256-bit counter
RNG_CONTRACT = "philox-per-path-v1"
Z_THRESHOLD = 4.0  # standard errors at which the z tests reject
BATCH_PATHS = 16384  # paths in one batch at most
BATCH_BYTES = 256 << 20  # memory budget of one batch of paths
BLOCK_BYTES = 512 << 10  # uniforms drawn at a time within a batch, L2-sized
# Processes a run's paths are split across; 1 where there is no os.fork.
CPUS = (
    len(os.sched_getaffinity(0))
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    else 1
)
_MAX_UNRESOLVED = 0.01  # fraction of unresolved paths an estimator accepts by default

_CODE = {"a": 0, "b": 1, "B": 2}


class UnresolvedPathsError(RuntimeError):
    """Too many paths ended with a word too short for the requested depth."""


@dataclass(frozen=True, slots=True)
class SimConfig:
    """Run parameters; ``steps`` should dominate ``depth`` so the truncation
    bias of the finite-time readout is negligible."""

    paths: int
    steps: int
    seed: int
    depth: int
    allow_short_steps: bool = False

    def __post_init__(self) -> None:
        for name in ("paths", "steps", "seed", "depth"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.paths < 1:
            raise ValueError("paths must be >= 1")
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if not 1 <= self.steps < PATH_STRIDE:
            raise ValueError(f"steps must lie in [1, {PATH_STRIDE})")
        floor = 20 * self.depth + 100
        if self.steps < floor:
            if not self.allow_short_steps:
                raise ValueError(
                    f"steps={self.steps} below the policy floor {floor} for depth={self.depth};"
                    " pass allow_short_steps=True to override"
                )
            warnings.warn(
                f"steps={self.steps} below the policy floor {floor}; truncation bias"
                " may not be negligible",
                stacklevel=3,  # past the dataclass's generated __init__
            )


@dataclass(frozen=True)
class SimReport:
    """Estimates with standard errors, plus the raw counts behind them."""

    cylinder_freq: Mapping[Cylinder, tuple[float, float]]
    cylinder_counts: Mapping[Cylinder, int]
    passage: Mapping[GroupWord, tuple[float, float]]
    passage_counts: Mapping[GroupWord, int]
    paths_used: int
    resolved: int
    unresolved: int
    steps_used: int
    seed: int
    depth: int
    degenerate_support: bool = False

    def to_json(self) -> str:
        payload = {
            "rng": RNG_CONTRACT,
            "paths": self.paths_used,
            "steps": self.steps_used,
            "seed": self.seed,
            "depth": self.depth,
            "resolved": self.resolved,
            "unresolved": self.unresolved,
            "degenerate_support": self.degenerate_support,
            "cylinders": {
                str(c): {"estimate": e, "stderr": s, "count": self.cylinder_counts[c]}
                for c, (e, s) in self.cylinder_freq.items()
            },
            "passage": {
                str(w): {"estimate": e, "stderr": s, "count": self.passage_counts[w]}
                for w, (e, s) in self.passage.items()
            },
        }
        return json.dumps(payload, sort_keys=True)

    def to_csv(self) -> str:
        lines = ["kind,key,estimate,stderr,n"]
        for c, (e, s) in sorted(self.cylinder_freq.items(), key=lambda kv: kv[0].sort_key()):
            lines.append(f"cylinder,{c},{e!r},{s!r},{self.resolved}")
        for w, (e, s) in sorted(self.passage.items(), key=lambda kv: kv[0].sort_key()):
            lines.append(f"passage,{w},{e!r},{s!r},{self.paths_used}")
        return "\n".join(lines) + "\n"


def _support_table(mu: GroupMeasure):
    """The support words in sort order and their cumulative weights."""
    _require_probability(mu, "mu")
    atoms = sorted(mu.weights.items(), key=lambda atom: atom[0].sort_key())
    words = [w for w, _ in atoms]
    cum = np.cumsum(np.array([float(m) for _, m in atoms], dtype=np.float64))
    cum[-1] = 1.0  # guard float rounding of the total mass
    return words, cum


def _nmax(words) -> int:
    """Most letters ``b``/``B`` in one support word."""
    return max(len(w) - w.letters.count("a") for w in words)


def _path_generator(seed: int, index: int) -> np.random.Generator:
    bg = np.random.Philox(key=seed)
    bg.advance(index * PATH_STRIDE)
    return np.random.Generator(bg)


def _batch_uniforms(seed: int, start: int, out: np.ndarray) -> np.ndarray:
    # Fills row j of the caller's float64 buffer ``out`` with the uniforms
    # of path start + j and returns it.  One bit generator walks the rows.
    # advance(i * PATH_STRIDE) on a fresh generator leaves the counter at
    # i * PATH_STRIDE, the key and an empty buffer, so path i assigns exactly
    # that state (the state of _path_generator(seed, i)) before its draws.
    # The assignment reads one reused dict of Python ints, about a quarter of
    # the cost of advance().
    bg = np.random.Philox(key=seed)
    counter = [0, 0, 0, 0]  # 64-bit limbs, least significant first
    state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": [int(k) for k in bg.state["state"]["key"]]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    gen = np.random.Generator(bg)
    for i, row in enumerate(out, start):
        c = i * PATH_STRIDE
        counter[0] = c & _LIMB
        if c > _LIMB:  # the upper limbs stay 0 below path 2**44
            counter[1:] = [c >> s & _LIMB for s in (64, 128, 192)]
        bg.state = state
        gen.random(out=row)
    return out


# Per-path vectors of the step loop: three int64 offsets (top, row base and
# the length), with room for a dozen uint8/bool temporaries.
_PATH_VECTOR_BYTES = 3 * 8 + 16


def _code_bytes(phases: int) -> int:
    """Bytes of one atom's codes: 2 bits per phase."""
    return (phases + 3) // 4


def _batch_paths(steps: int, nmax: int) -> int:
    """Paths per batch: at most ``BATCH_PATHS`` and, above a floor of one
    path, within ``BATCH_BYTES``.  Per step a path holds the codes of
    ``2 nmax + 1`` phases, where ``nmax`` is the most letters ``b``/``B`` in
    one support word.  Its word row is bounded by the worst case, a walk
    whose words never cancel: ``steps * nmax + 1`` cells, made odd, held
    twice while ``_evolve`` copies narrower rows into full-width ones.  On
    top of that come ``_PATH_VECTOR_BYTES`` of the step loop's per-path
    vectors.  The uniforms are drawn ``BLOCK_BYTES`` at a time outside this
    budget."""
    per_path = steps * _code_bytes(2 * nmax + 1) + 2 * ((steps * nmax + 1) | 1) + _PATH_VECTOR_BYTES
    return max(1, min(BATCH_PATHS, BATCH_BYTES // per_path))


def _step_codes(
    cum: np.ndarray, packed: np.ndarray, seed: int, start: int, count: int, steps: int
) -> np.ndarray:
    """Phase codes (``packed``, from ``_phase_codes``) of the increments of
    paths ``start`` to ``start + count - 1`` as a step-major uint8
    ``(code bytes, steps, count)`` array.  Uniforms are drawn and turned into
    codes (``_lookup``) in blocks of at most ``BLOCK_BYTES`` (and at least
    one path) into one reused buffer, so no batch-sized float64 array exists,
    and the heap is not cut up by a large buffer per block; each path keeps
    its own stream.  A block (163 paths at 400 steps) fits one core's L2
    cache with the lookup's uint8 temporaries, so its passes read the
    uniforms from cache."""
    out = np.empty((packed.shape[0], steps, count), dtype=np.uint8)
    block = max(1, BLOCK_BYTES // (8 * steps))
    u = np.empty((min(block, count), steps), dtype=np.float64)
    for lo in range(0, count, block):
        hi = min(lo + block, count)
        block_u = _batch_uniforms(seed, start + lo, u[: hi - lo])
        out[:, :, lo:hi] = _lookup(cum, packed, block_u).transpose(0, 2, 1)
    return out


def _lookup(cum: np.ndarray, packed: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``packed[:, searchsorted(cum, u, side="right")]`` without an atom
    index: each code byte starts at the first atom's and, for each
    cumulative weight a uniform reaches, adds the uint8 rise to the next
    atom's.  The rises wrap mod 256, so the sum telescopes to the atom's
    byte at any atom count.  One pass per weight covers all code bytes; the
    cost is linear in the atoms, and no workload has more than 12."""
    out = np.empty((packed.shape[0], *u.shape), dtype=np.uint8)
    out[...] = packed[:, :1, None]
    for edge, rise in zip(cum[:-1], np.diff(packed, axis=1).T):  # u < 1.0 == cum[-1]
        out += (u >= edge).view(np.uint8) * rise[:, None, None]
    return out


# A reduced word of Z2 * Z3 alternates 'a' with 'b'/'B', so it is held as a
# stack of cells: cell 0 is _BOTTOM, plus _A if the word starts with 'a', and
# cell j >= 1 is the code of the j-th letter 'b'/'B' (b=1, B=2), plus _A if
# an 'a' follows it.  Every letter cell but the top one has its _A bit.
_A = 4
_BOTTOM = 8
# _SPELL[cell] is the part of the word a cell holds.
_SPELL = ["", "b", "B", "", "", "ba", "Ba", "", "", "", "", "", "a"]


def _stack(word: GroupWord) -> np.ndarray:
    """The stack cells of ``word``: cell 0 and its letter cells, as uint8."""
    cells = [_BOTTOM]
    for ch in word.letters:
        if ch == "a":
            cells[-1] |= _A
        else:
            cells.append(_CODE[ch])
    return np.array(cells, dtype=np.uint8)


def _spell(cells) -> str:
    """The word held by stack ``cells``; cells of 0 add nothing."""
    return "".join(_SPELL[c] for c in cells)


def _phase_codes(words):
    """Code table of the support ``words`` and the phases the kernel runs.

    An atom is cut into the phases ``A0, B1, A1, ..., Bn, An`` with
    ``n = _nmax(words)``: B-phase ``j`` holds the code of the atom's ``j``-th
    letter ``b``/``B`` (0 if it has none), and A-phase ``j`` is 1 if an 'a'
    follows that letter (A0: if the atom starts with 'a').  Phase ``q`` sits
    in 2-bit slot ``q - 1`` and A0 in the last slot ``2n``, so B-phases fill
    the even slots and the 'a' bit of slots 1, 5, ... is bit 2 of its byte,
    as the register holds it; slot ``s`` is byte ``s // 4`` at bits
    ``2 (s % 4)`` of column ``i`` for atom ``i``.

    Returns the uint8 ``(bytes, atoms)`` table and the ``(slot, is A-phase)``
    pairs in time order, without A-phases that no atom has.
    """
    n = _nmax(words)
    packed = np.zeros((_code_bytes(2 * n + 1), len(words)), dtype=np.uint8)
    for i, w in enumerate(words):
        j = 0  # letters 'b'/'B' so far
        for ch in w.letters:
            if ch == "a":
                s, code = (2 * j - 1) % (2 * n + 1), 1
            else:
                j += 1
                s, code = 2 * j - 2, _CODE[ch]
            packed[s // 4, i] |= code << 2 * (s % 4)
    used = np.bitwise_or.reduce(packed, axis=1)
    phases = [
        (s, s % 2 == 1 or s == 2 * n)
        for s in [2 * n, *range(2 * n)]
        if used[s // 4] >> 2 * (s % 4) & 3
    ]
    return packed, phases


def _evolve(codes, phases, targets, cells):
    """Multiply each path by its increments on the right.

    ``codes[g, t, i]`` is byte ``g`` of the phase codes of path ``i``'s
    increment at step ``t``, as ``_step_codes`` draws them, and ``phases``
    lists their slots in time order (both from ``_phase_codes``).  Each of
    ``targets`` is the uint8 stack of a word (``_stack``), and ``cells`` is
    how many cells of each row the caller reads.

    A path's stack lives in a flat row, and its top cell in a register
    ``reg``.  An A-phase flips the register's _A bit and touches no memory.
    A B-phase with letter ``c`` spills the register to the top cell, moves
    the top up on a push (the word is empty or ends in 'a') or down on a
    cancel (``c`` inverts the top letter), gathers the new top cell and
    blends: ``c`` on a push, else the gathered cell, with its letter swapped
    (``^ 3``) on a merge (``c`` equals the top letter).  A B-phase without a
    letter changes nothing, and the register of an empty word spills to
    cell 0, so ``""`` and ``"a"`` need no special case.

    Rows start ``cells`` wide, or as wide as the longest target, and are
    never wider than full width: the ``steps * n + 1`` cells that ``n``
    B-phases a step can fill, made odd.  A step moves a top by at most
    ``n`` cells, so a bound on the longest word grows by ``n`` a step; only
    when it reaches the row width is the longest word measured, and if the
    next step might not fit, the rows are copied into rows about twice as
    wide (or as wide as that step needs), up to full width.  Every width is
    odd: the tops of rows a power of two apart share a few cache sets, and
    256-cell rows measured twice as slow as 255 or 257.

    After each step a path sits on a target of ``m`` letter cells when the
    register holds the target's top cell and, for ``m >= 1``, the word has
    ``m`` letter cells and the lower ones match.  Only cell 0 carries
    _BOTTOM, so ``""`` and ``"a"`` need the register alone; lengths are
    taken only for longer targets, and lower cells are read only where the
    register and the length match.

    Returns ``(W, L, visited)``: path ``i`` ends at the word of the stack
    ``W[i, :L[i] + 1]`` (``_spell``; cells past ``L[i]`` are scratch), and
    ``visited[i, k]`` says whether it sat on target ``k`` after some step.
    """
    _, steps, B = codes.shape
    n = sum(not a_phase for _, a_phase in phases)  # cells a step can push
    full = (steps * n + 1) | 1
    longest = max((tgt.size - 1 for tgt in targets), default=0)
    stride = min(full, max(cells, longest + 1) | 1)
    W = np.zeros(B * stride, dtype=np.uint8)
    base = np.arange(B, dtype=np.int64) * stride
    W[base] = _BOTTOM
    top_at = base.copy()
    bound = 0  # no word holds more than this many letter cells
    reg = np.full(B, _BOTTOM, dtype=np.uint8)
    visited = np.zeros((len(targets), B), dtype=np.bool_)
    hit = np.empty(B, dtype=np.bool_)
    length = np.empty(B, dtype=np.int64)
    of_length = {tgt.size - 1: np.empty(B, dtype=np.bool_) for tgt in targets if tgt.size > 1}
    c, x, g = (np.empty(B, dtype=np.uint8) for _ in range(3))
    push, cancel, merge = (np.empty(B, dtype=np.bool_) for _ in range(3))
    d = np.empty(B, dtype=np.int8)
    three = np.uint8(3)
    for t in range(steps):
        if bound + n >= stride:
            L = top_at - base
            bound = int(L.max())
            if bound + n >= stride:
                rows = W.reshape(B, stride)
                base //= stride
                stride = min(full, max(2 * stride + 1, (bound + n + 1) | 1))
                W = np.zeros(B * stride, dtype=np.uint8)
                W.reshape(B, stride)[:, : rows.shape[1]] = rows
                del rows
                base *= stride
                np.add(base, L, out=top_at)
            del L
        bound += n
        for s, a_phase in phases:
            # An A-phase moves its slot's 'a' bit to bit 2 (_A), a B-phase
            # its letter code to bits 0-1.
            byte = codes[s // 4, t]
            out, mask = (x, _A) if a_phase else (c, 3)
            shift = 2 * (s % 4) - 2 * a_phase
            if shift:
                (np.right_shift if shift > 0 else np.left_shift)(byte, abs(shift), out=out)
                out &= mask
            else:
                np.bitwise_and(byte, mask, out=out)
            if a_phase:
                reg ^= x
                continue
            W[top_at] = reg
            # reg * c is 0 without a letter, 1 to 4 on two letters (2 when
            # they cancel) and at least 5 when the word ends in 'a' or is empty.
            np.multiply(reg, c, out=x)
            np.greater(x, 4, out=push)
            np.equal(x, 2, out=cancel)
            np.equal(reg, c, out=merge)
            np.subtract(push.view(np.int8), cancel.view(np.int8), out=d)
            top_at += d
            np.take(W, top_at, out=g)
            np.multiply(merge, three, out=x)
            np.bitwise_xor(g, x, out=reg)
            np.subtract(c, g, out=x)
            x *= push
            reg += x
        if of_length:
            np.subtract(top_at, base, out=length)
            for m, mask in of_length.items():
                np.equal(length, m, out=mask)
        for row, tgt in zip(visited, targets):
            m = tgt.size - 1
            np.equal(reg, tgt[m], out=hit)
            if not m:
                row |= hit
                continue
            hit &= of_length[m]
            idx = np.flatnonzero(hit)
            for j in range(m):
                idx = idx[W[base[idx] + j] == tgt[j]]
            row[idx] = True
    W[top_at] = reg
    return W.reshape(B, stride), top_at - base, visited.T


def sample_path(
    mu: GroupMeasure,
    steps: int,
    rng: np.random.Generator,
    targets: Iterable[GroupWord] = (),
) -> tuple[GroupWord, frozenset[GroupWord]]:
    """One path of ``steps`` right-multiplications; flags the targets visited.

    The start position (the identity, time 0) counts as visited.
    """
    return _sample_path(*_support_table(mu), steps, rng, targets)


def _sample_path(words, cum, steps: int, rng: np.random.Generator, targets: Iterable[GroupWord] = ()):
    """``sample_path`` on the support table ``words, cum``, built once by a caller of many paths."""
    targets = frozenset(targets)
    visited = {t for t in targets if t.is_identity()}
    position = IDENTITY
    for _ in range(steps):
        u = rng.random()
        position = position * words[int(np.searchsorted(cum, u, side="right"))]
        if position in targets:
            visited.add(position)
    return position, frozenset(visited)


def _batches(table, cfg: SimConfig, targets, read):
    """Run ``cfg.paths`` paths of the walk with support table ``table``
    (``_support_table``'s ``(words, cum)``) under RNG contract v1; yields
    ``read(W, L, visited)`` of the kernel's output (``_evolve`` on
    ``targets``) for each batch, in path order.

    The paths are cut into up to ``CPUS`` contiguous shares, one per
    process: this process runs the first share, and each other share runs
    in a forked child that streams its reads back through a pipe.  All
    processes together batch at most ``BATCH_PATHS`` paths and
    ``BATCH_BYTES`` at a time (above a floor of one path each), and a run
    that fits in one batch forks nothing.  A child's exception is raised
    here, and a run that stops early kills and reaps its children.

    A batch draws the phase codes of its increments step-major,
    ``BLOCK_BYTES`` of uniforms at a time (``_step_codes``), and the kernel
    steps on them with one scatter and one gather per letter ``b``/``B`` of
    an increment.  Its word rows start ``cfg.depth + 1`` cells wide, the
    cells ``read`` looks at, and widen only as far as the longest word
    (``_evolve``).  The codes are freed when the kernel returns and the word
    array when ``read`` does, so no two batches of one process overlap."""
    words, cum = table
    packed, phases = _phase_codes(words)
    size = _batch_paths(cfg.steps, _nmax(words))
    n = min(CPUS, -(-cfg.paths // size))
    size = max(1, size // n)
    cuts = [cfg.paths * j // n for j in range(n + 1)]

    def share(lo, hi):
        for start in range(lo, hi, size):
            count = min(size, hi - start)
            yield read(
                *_evolve(
                    _step_codes(cum, packed, cfg.seed, start, count, cfg.steps),
                    phases, targets, cfg.depth + 1,
                )
            )

    children = []  # (pid, read end of its pipe), in share order
    try:
        for j in range(1, n):
            children.append(_fork(share(cuts[j], cuts[j + 1])))
        yield from share(cuts[0], cuts[1])
        while children:
            pid, pipe = children[0]
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # nothing, or a result cut short
                raise RuntimeError(f"simulator process {pid} died without a result") from None
            children.pop(0)
            pipe.close()
            os.waitpid(pid, 0)
            if not ok:
                raise value
            yield from value
    finally:
        for pid, pipe in children:
            os.kill(pid, SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _fork(reads):
    """Fork a child that runs the generator ``reads`` and pickles
    ``(True, list of its items)``, or ``(False, the exception it raised)``,
    straight into a pipe; returns the child's pid and the pipe's read end
    opened as a file.  An exception that fails a pickle round trip goes as a
    ``RuntimeError`` that names it.  The child calls only numpy's element-wise
    and sorting routines; the one other thread of a modwalk process is the
    BLAS pool, which they never use."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid:
        os.close(w)
        return pid, open(r, "rb")
    try:
        os.close(r)
        with open(w, "wb") as pipe:
            try:
                result = True, list(reads)
            except BaseException as exc:
                try:
                    result = False, pickle.loads(pickle.dumps(exc))
                except Exception:
                    result = False, RuntimeError(f"simulator process {os.getpid()} raised {exc!r}")
            pickle.dump(result, pipe)
    finally:
        os._exit(0)


def _warn_if_degenerate(words: Sequence[GroupWord]) -> bool:
    """Whether ``_provably_degenerate`` holds for the support ``words``; if so,
    warn the caller of the estimator that called this."""
    degenerate = _provably_degenerate(words)
    if degenerate:
        warnings.warn(
            "the support provably fails to generate the group as a semigroup;"
            " estimates describe this restricted walk only",
            stacklevel=3,
        )
    return degenerate


def _binomial(counts: Sequence[int], n: int) -> list[tuple[float, float]]:
    """Each count's fraction of ``n`` with its binomial standard error."""
    est = np.asarray(counts, dtype=np.int64) / n
    return list(zip(est.tolist(), np.sqrt(est * (1 - est) / n).tolist()))


def simulate(
    mu: GroupMeasure,
    cfg: SimConfig,
    targets: Iterable[GroupWord] = (),
    max_unresolved_fraction: float = _MAX_UNRESOLVED,
) -> SimReport:
    """Full run: passage estimates for ``targets`` plus cylinder frequencies
    for every depth up to ``cfg.depth``.

    A passage estimate is the fraction of paths visiting the target within
    ``cfg.steps`` steps, so it misses later visits (a one-sided bias that
    decays with the step budget).  Paths whose final word has fewer than
    ``cfg.depth`` letters ``a`` are counted as unresolved and dropped from
    the frequency table (at every depth, so parents stay the exact sums of
    their children); an unresolved fraction above
    ``max_unresolved_fraction`` raises :class:`UnresolvedPathsError`.  Below
    a fraction of 1 it is raised before any path is drawn when no path can
    reach the depth: the support has no 'a', or only ``""`` and ``"a"`` with
    ``cfg.depth >= 2``.  ``max_unresolved_fraction`` must be a real number
    in ``[0, 1]``; booleans, strings and NaN raise ``ValueError``.

    The tally adds each batch's leaf counts straight to their prefixes, in
    the order the leaves are read, and builds one ``Cylinder`` per distinct
    prefix from the readout's strings, without parsing them again.  The
    report itself still holds up to about ``paths * depth`` cylinders when
    most paths have their own depth-``depth`` leaf.
    """
    f = max_unresolved_fraction
    if _real_between(f, 1) is None or not 0 <= f <= 1:
        raise ValueError(f"max_unresolved_fraction must be a real number in [0, 1], got {f!r}")
    targets = sorted(set(targets), key=GroupWord.sort_key)
    table = _support_table(mu)
    degenerate = _warn_if_degenerate(table[0])
    d = cfg.depth
    most_a = _reach(table[0])[0]
    if d > most_a and max_unresolved_fraction < 1:
        raise UnresolvedPathsError(
            f"no path can reach depth {d}: on this degenerate support"
            f" every word holds at most {most_a} of the letters 'a'"
        )
    identity = [j for j, t in enumerate(targets) if t.is_identity()]

    def read(W, L, visited):
        visited[:, identity] = True  # the start position counts as visited
        # The depth-d cylinder is the prefix ending at the d-th 'a': the
        # first d letter cells, or d - 1 after a leading 'a' (cell 0), the
        # last of which must be followed by an 'a'.
        P = W[:, : d + 1]
        need = d - (P[:, 0] & _A > 0)
        last = P[np.arange(P.shape[0]), np.minimum(need, L)]
        resolved_mask = (need <= L) & (last & _A > 0)
        P = P[resolved_mask]
        P[np.arange(P.shape[1]) > need[resolved_mask, None]] = 0
        # Count equal prefixes as single items over their row bytes.
        uniq, counts = np.unique(P.view(np.dtype((np.void, P.shape[1]))), return_counts=True)
        leaves = [
            (_spell(row), int(n))
            for row, n in zip(uniq.view(np.uint8).reshape(-1, P.shape[1]), counts)
        ]
        return visited.sum(axis=0), leaves, int(W.shape[0] - resolved_mask.sum())

    # A leaf ends at its depth-th 'a', and the cylinder at depth j is the
    # prefix ending at its j-th 'a': letter 2j, or 2j - 1 after a leading
    # 'a', since reduced words alternate 'a' with 'b'/'B'.  Each prefix is
    # a valid cylinder, so it is built once without a second parse.
    visit_counts = np.zeros(len(targets), dtype=np.int64)
    prefix_counts: dict[str, int] = {}
    unresolved = 0
    for visits, leaves, short in _batches(table, cfg, [_stack(t) for t in targets], read):
        visit_counts += visits
        for leaf, n in leaves:
            first = leaf[0] == "a"
            for end in range(2 - first, 2 * d + 1 - first, 2):
                prefix = leaf[:end]
                prefix_counts[prefix] = prefix_counts.get(prefix, 0) + n
        unresolved += short

    if unresolved > max_unresolved_fraction * cfg.paths:
        raise UnresolvedPathsError(
            f"{unresolved} of {cfg.paths} paths never reached depth {d};"
            " raise steps or lower depth"
        )
    resolved = cfg.paths - unresolved
    cylinders = [Cylinder._unchecked(prefix) for prefix in prefix_counts]
    return SimReport(
        cylinder_freq=dict(zip(cylinders, _binomial(list(prefix_counts.values()), resolved))),
        cylinder_counts=dict(zip(cylinders, prefix_counts.values())),
        passage=dict(zip(targets, _binomial(visit_counts, cfg.paths))),
        passage_counts=dict(zip(targets, visit_counts.tolist())),
        paths_used=cfg.paths,
        resolved=resolved,
        unresolved=unresolved,
        steps_used=cfg.steps,
        seed=cfg.seed,
        depth=cfg.depth,
        degenerate_support=degenerate,
    )


def _z(gap: float, se: float) -> float:
    """z-score of ``gap`` at standard error ``se``.  Without a standard error
    (a single path, or paths that all agree) no gap scores 0 and any gap
    scores an infinity of its sign."""
    if se == 0.0:
        return 0.0 if gap == 0.0 else math.inf if gap > 0 else -math.inf
    return gap / se


@dataclass(frozen=True)
class ZTable:
    max_abs_z: float  # the z tests reject beyond Z_THRESHOLD


def compare_with_analytic(report: SimReport, params: DenjoyParams) -> ZTable:
    """Largest per-cylinder |z-score| of the report against a measure of the family."""
    if report.degenerate_support:
        raise ValueError(
            "the simulated walk had a provably degenerate support; its limit"
            " is not a measure of this family"
        )
    if report.resolved == 0 or not report.cylinder_freq:
        raise ValueError("report carries no resolved cylinder estimates")
    worst = max(
        abs(_z(est - float(cylinder_mass(params, cyl)), se))
        for cyl, (est, se) in report.cylinder_freq.items()
    )
    return ZTable(worst)


@dataclass(frozen=True, slots=True)
class AlphaEstimate:
    """Letter-test estimate of ``alpha``: the mean over resolved paths of the
    fraction of ``b`` among the first ``letters`` ``b``/``B`` letters of the
    final word.  The standard error is taken across paths, so correlation
    between the letters of one path is covered."""

    estimate: float
    stderr: float
    resolved: int
    letters: int

    def z(self, alpha: float) -> float:
        """z-score of the estimate against the value ``alpha``."""
        return _z(self.estimate - float(alpha), self.stderr)

    def as_dict(self, class_alpha: float, own_alpha: float) -> dict:
        """The letter-test report: z-scores against the class ``class_alpha``
        and the walk's own ``own_alpha``, and the power of rejecting the
        class at this sample size if ``own_alpha`` is the truth."""
        return {
            "letters": self.letters,
            "resolved": self.resolved,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "class_alpha": float(class_alpha),
            "z_vs_class": self.z(class_alpha),
            "z_vs_harmonic": self.z(own_alpha),
            "power": letter_test_power(own_alpha, class_alpha, self.letters, self.resolved),
        }


def estimate_alpha(mu: GroupMeasure, cfg: SimConfig) -> AlphaEstimate:
    """Estimate ``alpha`` from the first ``cfg.depth`` ``b``/``B`` letters of
    each path's final word.

    Under every measure of the family those letters are i.i.d. with
    ``P(b) = alpha`` whatever ``p`` is, so a single z-score against ``1/2``
    tests membership in the whole Minkowski class.  Paths whose final word
    holds fewer than ``cfg.depth`` such letters are unresolved and dropped;
    an unresolved fraction above ``_MAX_UNRESOLVED`` raises
    :class:`UnresolvedPathsError`, before any path is drawn when no path can
    hold ``cfg.depth`` such letters (``_reach``).  Fewer than two resolved
    paths, or resolved paths that all hold the same count of ``b``, leave no
    standard error to test with and raise ``ValueError``.  A provably
    degenerate support warns, as in :func:`simulate`.  Paths are tallied by
    their integer count of ``b``, so the result obeys RNG contract v1 exactly
    whatever the batch layout is.
    """
    k = cfg.depth
    table = _support_table(mu)
    _warn_if_degenerate(table[0])
    most = _reach(table[0])[1]
    if k > most:
        raise UnresolvedPathsError(
            f"no path can hold {k} letters 'b'/'B': on this degenerate support"
            f" every word holds at most {most} of them"
        )
    tally = np.zeros(k + 1, dtype=np.int64)  # resolved paths by count of 'b'

    def read(W, L, _):
        # The first k letters 'b'/'B' are the letter cells 1 to k.
        resolved_mask = L >= k
        b_count = (W[resolved_mask, 1 : k + 1] & 3 == 1).sum(axis=1)
        return np.bincount(b_count, minlength=k + 1)

    for counts in _batches(table, cfg, (), read):
        tally += counts

    resolved = int(tally.sum())
    unresolved = cfg.paths - resolved
    if unresolved > _MAX_UNRESOLVED * cfg.paths:
        raise UnresolvedPathsError(
            f"{unresolved} of {cfg.paths} paths ended with fewer than {k} letters"
            " 'b'/'B'; raise steps or lower depth"
        )
    if resolved < 2:
        raise ValueError(
            f"the letter test needs two resolved paths for a standard error, got {resolved}"
        )
    s1 = sum(j * int(n) for j, n in enumerate(tally))
    s2 = sum(j * j * int(n) for j, n in enumerate(tally))
    spread = resolved * s2 - s1 * s1  # resolved^2 times the paths' variance
    if spread == 0:
        raise ValueError(
            f"the letter test has no standard error: all {resolved} resolved paths"
            f" hold {s1 // resolved} letters 'b' among their first {k} 'b'/'B'"
        )
    var = spread / (resolved * (resolved - 1))
    return AlphaEstimate(s1 / (k * resolved), math.sqrt(var / resolved) / k, resolved, k)


def letter_test_power(alpha: float, alpha0: float, k: int, n: int) -> float:
    """Probability that the letter test rejects ``alpha0`` beyond
    ``Z_THRESHOLD`` standard errors, given ``n`` resolved paths of ``k``
    letters from a walk whose true parameter is ``alpha``.

    Normal approximation with the i.i.d. letter variance
    ``alpha (1 - alpha) / (k n)``; at ``alpha == alpha0`` it is the test's
    size ``2 Phi(-Z_THRESHOLD)``.
    """
    _check_open_unit(alpha, "alpha")
    _check_open_unit(alpha0, "alpha0")
    k, n = _integer(k, "k"), _integer(n, "n")
    if k < 1 or n < 1:
        raise ValueError("k and n must be >= 1")
    shift = float(alpha - alpha0) / math.sqrt(float(alpha * (1 - alpha)) / (k * n))
    cdf = NormalDist().cdf
    return cdf(shift - Z_THRESHOLD) + cdf(-shift - Z_THRESHOLD)


def paths_for_power(alpha: float, alpha0: float, k: int, power: float) -> int:
    """Least ``n`` with ``letter_test_power(alpha, alpha0, k, n) >= power``.

    The closed form of the normal approximation with its far tail dropped,
    ``n = alpha (1 - alpha) (Z_THRESHOLD + Phi^-1(power))^2 / (k (alpha - alpha0)^2)``,
    starts the search; ``letter_test_power`` rises with ``n``, so doubling
    that start until it reaches ``power`` and then bisecting finds the least
    ``n``.  ``power`` must lie between the test's size and 1, and ``alpha``
    must differ from ``alpha0``.
    """
    _check_open_unit(alpha0, "alpha0")
    size = letter_test_power(alpha, alpha, k, 1)  # also validates alpha and k
    gap = float(alpha - alpha0)
    if gap == 0:
        raise ValueError("alpha must differ from alpha0 as a float: the test has only its size")
    if not size < power < 1:
        raise ValueError(f"power must lie in ({size:.3g}, 1), got {power}")
    a, z = float(alpha), Z_THRESHOLD + NormalDist().inv_cdf(power)
    hi = max(1, math.ceil(a * (1 - a) * z * z / (k * gap * gap)))
    while letter_test_power(alpha, alpha0, k, hi) < power:
        hi *= 2
    lo = 0  # every n <= lo falls short of power
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if letter_test_power(alpha, alpha0, k, mid) >= power:
            hi = mid
        else:
            lo = mid
    return hi
