"""Trajectory-simulation kernel: one vectorized numpy path.

Every draw comes from a counter-based splitmix64 stream keyed by
``(seed, sample, step)``, so a sample's total depends only on the seed
and its index, not on how the samples are split into blocks or among
worker threads.  The simulate golden hash of ``varbench/`` checks the
output bit for bit; ``varbench`` reports throughput as
``kernels.msteps_per_s``.

Every step draws ``u = k * 2**-53`` with ``k = z >> 11`` the top 53 bits
of a splitmix64 output ``z``, and moves from ``x`` to the number of
prefix sums ``cum[x, :-1]`` that ``u`` reaches.  The kernel makes this
pick in integers: ``u >= p`` holds exactly when ``k >= ceil(p * 2**53)``,
so each row gets integer thresholds; it keeps those where its prefix
rises, so its tables are as wide as the largest out-degree.  The tests
keep the float compare as the reference.  A guide table splits the
draws of each row into ``2**B`` equal buckets by the top ``B`` bits of
``k``.  A bucket holds its pick when no threshold falls inside it; then
one flat gather gives the next state and another the step reward.  A
bucket that a threshold splits holds -1, and its draws fall back to the
full integer compare.  A row of out-degree ``d`` has at most ``d``
thresholds, so at most ``d / 2**B`` of its draws fall back.  ``B`` is
``ceil(log2 S) + 7``, lowered until the table has at most
``_GUIDE_CELLS`` cells; any ``B``, down to 0, is exact.  The start state
is picked from ``mu0`` through the same table, as an extra row.

Layout.  The blocks run on one worker per CPU of the process's affinity
mask (``os.sched_getaffinity``; ``os.cpu_count`` where the platform has
no affinity call), capped so that each worker gets at least
``_MIN_SHARE`` samples: a smaller run stays on the caller and starts no
thread.  The samples split evenly into a multiple of the worker count of
blocks, each of at most ``_BLOCK``; worker ``k`` runs the ``k``-th run of
consecutive blocks, and the caller is worker 0.  The other workers are
plain threads, started and joined within the call; an exception in any
of them is raised once all are joined.  With two workers or more, worker
``k`` pins itself to the ``k``-th CPU of the mask before its blocks
(``os.sched_setaffinity``, which on Linux sets the calling thread's
mask), and the caller puts back the mask it had, also when a worker
raises; where the platform has no affinity call or refuses the CPU, the
worker runs unpinned.  Unpinned, the scheduler can keep a new thread on
its creator's CPU for the whole kernel in a fresh process, and the
workers take turns on one CPU: with one BLAS thread, one kernel call per
fresh process on the ``mc-oracle`` witness chain below took 0.210 s of
wall time and 0.209 s of CPU time unpinned, 0.121 and 0.224 s pinned
(medians of 12).  Each worker owns its buffers (``words``,
``scratch``, ``rows``, ``picks``, ``rewards``), made once and written by
every step (``out=``), and writes its own slice of ``out``; the guide
table is shared and only read.  numpy lets go of the GIL inside each
call, but every handoff between threads costs latency, so a worker runs
one large block or a few.  On the 8-state ``mc-oracle`` witness chain
(50,000 x 500, 2-core host, one timed call per fresh process, median of
12), one worker took 0.215 s; two pinned workers took 0.200 s on blocks
of 6,250, 0.147 s on 12,500 and 0.134 s on one 25,000 block each.  One
thread on 25,000-sample blocks is within noise of 8,192.  Against one
worker on the same samples (medians of 16 processes), two pinned workers
lose at 5,000 samples a worker (0.052 against 0.043 s, slower in 15 of
16) and at 6,000 (slower in 13), break even at 7,000 and win from 8,000
(10,000 a worker: 0.070 against 0.087 s, faster in 14 of 16), so
``_MIN_SHARE`` keeps a margin above the crossover.  The draws of
``_CHUNK`` steps are mixed together, in one ``_CHUNK x block`` pass per
splitmix operation.

The bucket is read before splitmix's last ``z ^= z >> 31``.  That
xor-shift leaves bits 33-63 unchanged, and the top ``B`` bits of ``k``
are bits ``64 - B`` to 63 of ``z``; the cell bound keeps ``B <= 20``, so
those bits are the same before and after it.  Only a draw that falls back
gets its full ``k``.  The gathers run in ``take`` mode ``"clip"``: a cell
index is in range by construction, and mode ``"raise"`` would copy
through a buffer.
"""

from __future__ import annotations

import os
import threading
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TOP = 1 << 53  # every 53-bit draw k lies below it
_GUIDE_CELLS = 1 << 20  # bound on the cells of one guide table; keeps B <= 20
_BLOCK = 1 << 15  # most samples per vectorized pass; the totals do not depend on it
_CHUNK = 4  # steps whose draws are mixed in one pass
_MIN_SHARE = 10_000  # fewest samples per worker; below about 7,000 two workers lose to one


def numba_enabled() -> bool:
    """Always False: numpy is the only simulation backend.

    Kept only because ``varbench/run.py:328`` and ``varbench/tracing.py:25``
    import it to label their records.
    """
    return False


def _premix(z, tmp):
    """splitmix64's finalizer on ``z`` in place, without its last ``z ^= z >> 31``."""
    for shift, factor in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, factor, out=z)


def _mix(z):
    """splitmix64's finalizer of ``z``, as a new array."""
    z = np.array(z, dtype=np.uint64)
    _premix(z, np.empty_like(z))
    return z ^ (z >> np.uint64(31))


class _Guide(NamedTuple):
    """Integer pick tables of the kernel rows plus one start row (index ``S``).

    A draw ``k`` from row ``x`` that reaches ``i`` kept thresholds moves to
    ``successor[x, i]``: the count of the row's ``ceil(prefix * 2**53)`` at
    or below ``k``.
    """

    thresholds: np.ndarray   # (S + 1) x W int64: the rises below 2**53, padded with 2**53
    successor: np.ndarray    # (S + 1) x W: the next state y of each count of thresholds
    slot_reward: np.ndarray  # (S + 1) x W: R[x, y] of each successor, start row 0
    bits: int                # B: one cell per top-B-bit bucket of a 53-bit draw
    offset: np.ndarray       # flat (S + 1) * 2**B: next state y as the offset y * 2**B,
                             # -1 where a threshold splits the bucket
    reward: np.ndarray       # flat (S + 1) * 2**B: R[x, y] of each cell, 0 where -1
    split: bool              # whether any cell holds -1


def _rises(cum):
    """Row and column of each prefix of ``cum[:, :-1]`` (nondecreasing) rising, clipped at 1."""
    prefix = cum[:, :-1]
    up = np.empty(prefix.shape, dtype=bool)
    np.greater(prefix[:, :1], 0.0, out=up[:, :1])
    np.greater(prefix[:, 1:], prefix[:, :-1], out=up[:, 1:])
    up[:, 1:] &= prefix[:, :-1] < 1.0
    return np.nonzero(up)


def _guide(cum, mu0_cum, step_reward) -> _Guide:
    """Thresholds and guide table of the rows of ``cum`` and the start row ``mu0_cum``."""
    n = cum.shape[0]
    xs, ys = _rises(cum)
    _, start = _rises(mu0_cum[None])
    # u < 1 never reaches a prefix that rounded above 1: clip it to 2**53
    t = np.minimum(np.concatenate([cum[xs, ys], mu0_cum[start]]), 1.0)
    t = np.ceil(np.ldexp(t, 53)).astype(np.int64)
    xs, ys = np.concatenate([xs, np.full(len(start), n)]), np.concatenate([ys, start])
    counts = np.bincount(xs, minlength=n + 1)
    slot = np.arange(len(xs)) - np.repeat(np.cumsum(counts) - counts, counts)
    width = 1 + int(np.bincount(xs[t < _TOP], minlength=n + 1).max())  # no draw reaches 2**53
    thresholds = np.full((n + 1, width), _TOP, dtype=np.int64)
    successor = np.full((n + 1, width), n - 1, dtype=np.int64)
    thresholds[xs, slot], successor[xs, slot] = t, ys
    slot_reward = np.vstack([np.take_along_axis(step_reward, successor[:n], axis=1),
                             np.zeros(width)])
    bits = max(0, min((n - 1).bit_length() + 7,
                      max(_GUIDE_CELLS // (n + 1), 1).bit_length() - 1))
    shift, cells = 53 - bits, 1 << bits
    # a threshold counts from the first bucket whose first draw reaches it (2**53 from
    # none), and splits the bucket that holds it unless it is that bucket's first draw
    reached = np.bincount(xs * (cells + 1) + ((t + (1 << shift) - 1) >> shift),
                          minlength=(n + 1) * (cells + 1))
    count = np.cumsum(reached.reshape(n + 1, cells + 1), axis=1)[:, :cells]
    split = np.zeros((n + 1, cells), dtype=bool)
    inside = (t & ((1 << shift) - 1)) != 0
    split[xs[inside], t[inside] >> shift] = True
    pick = np.take_along_axis(successor, count, axis=1)
    reward = np.take_along_axis(slot_reward, count, axis=1)
    return _Guide(thresholds, successor, slot_reward, bits,
                  np.where(split, -1, pick << bits).ravel(),
                  np.where(split, 0.0, reward).ravel(), bool(split.any()))


def _guide_pick(guide, row, word, nxt, w):
    """Next row offsets into ``nxt`` and step rewards into ``w``.

    ``row`` holds row offsets ``x * 2**B`` and is overwritten with the
    cells; ``word`` holds splitmix64 outputs before their last xor-shift.
    A draw whose cell is split rebuilds its 53-bit ``k`` for the full compare.
    """
    np.right_shift(word, np.uint64(64 - guide.bits), out=nxt.view(np.uint64))
    np.add(row, nxt, out=row)
    guide.offset.take(row, out=nxt, mode="clip")
    guide.reward.take(row, out=w, mode="clip")
    if guide.split and nxt.min() < 0:
        miss = np.flatnonzero(nxt < 0)
        z = word[miss]
        k = ((z ^ (z >> np.uint64(31))) >> np.uint64(11)).view(np.int64)
        x = row[miss] >> guide.bits
        i = np.count_nonzero(k[:, None] >= guide.thresholds[x], axis=1)
        nxt[miss] = guide.successor[x, i] << guide.bits
        w[miss] = guide.slot_reward[x, i]


def _cpus() -> tuple[int, ...]:
    """Ids of the CPUs this process may run on: worker ``k`` runs on the ``k``-th."""
    try:
        return tuple(sorted(os.sched_getaffinity(0)))
    except AttributeError:  # no affinity call on this platform: count the CPUs
        return tuple(range(os.cpu_count() or 1))


def _pin(cpus):
    """Run the calling thread on ``cpus`` only; return the mask it had, None if it cannot.

    On Linux ``sched_setaffinity(0, ...)`` acts on the calling thread alone.
    """
    try:
        mask = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # no affinity call here, or a CPU outside the mask
        return None
    return mask


def _fill(guide, out, edges, n_steps, seed, final):
    """Totals of the samples ``edges[0] <= i < edges[-1]`` into ``out``, one block between edges.

    The buffers are this call's own, so calls on disjoint edges can run side by side.
    """
    n = len(guide.thresholds) - 1
    size = max(hi - lo for lo, hi in zip(edges, edges[1:]))
    chunk = min(_CHUNK, n_steps + 1)
    words, scratch = (np.empty((chunk, size), dtype=np.uint64) for _ in range(2))
    rows, picks = (np.empty(size, dtype=np.int64) for _ in range(2))
    rewards = np.empty(size)
    with np.errstate(over="ignore"):
        for lo, hi in zip(edges, edges[1:]):
            m = hi - lo
            keys = _mix(seed + _GOLD * np.arange(lo + 1, hi + 1, dtype=np.uint64))
            row, nxt, w, tot = rows[:m], picks[:m], rewards[:m], out[lo:hi]
            row.fill(n << guide.bits)
            tot.fill(0.0)
            # draw d of a sample mixes keys + d * GOLD: d = 1 picks the start state
            # (the start row pays 0), d = t + 2 makes the move of epoch t
            for d in range(1, n_steps + 2, chunk):
                z = words[:min(chunk, n_steps + 2 - d), :m]
                np.add(keys, _GOLD * np.arange(d, d + len(z), dtype=np.uint64)[:, None], out=z)
                _premix(z, scratch[:len(z), :m])
                for word in z:
                    _guide_pick(guide, row, word, nxt, w)
                    row, nxt = nxt, row
                    np.add(tot, w, out=tot)
            last = row >> guide.bits
            for terminal in final:
                tot += terminal[last]


def simulate_totals(cum, mu0_cum, n_steps, n_samples, seed, *, step_reward,
                    final=()) -> np.ndarray:
    """Draw total rewards for ``n_samples`` trajectories of ``n_steps`` epochs.

    A move from ``x`` to ``y`` pays ``step_reward[x, y]``; then each
    per-state vector of ``final`` is added at the last state, in order.
    One worker per CPU runs, each on at least ``_MIN_SHARE`` samples, so
    a run of fewer than ``2 * _MIN_SHARE`` samples starts no thread.
    """
    if n_samples < 1:
        raise PreconditionError("simulate_totals: samples must be >= 1")
    seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    guide = _guide(cum, mu0_cum, step_reward)
    out = np.empty(n_samples)
    cpus = _cpus()
    workers = max(1, min(len(cpus), n_samples // _MIN_SHARE))
    per = -(-n_samples // (workers * _BLOCK))  # blocks per worker
    edges = [n_samples * i // (workers * per) for i in range(workers * per + 1)]  # even blocks
    errors = []

    def work(k):
        mask = _pin({cpus[k]}) if workers > 1 else None
        try:
            _fill(guide, out, edges[k * per:(k + 1) * per + 1], n_steps, seed, final)
        except BaseException as exc:  # the caller re-raises it once every worker is joined
            errors.append(exc)
        finally:
            if mask is not None:  # the caller gets its own mask back
                _pin(mask)

    threads = []
    try:
        for k in range(1, workers):
            thread = threading.Thread(target=work, args=(k,))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return out
