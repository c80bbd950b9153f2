"""Hot trajectory-simulation kernels: numba-jitted with a pure-numpy fallback.

Backend selection: the jitted path is the default whenever numba imports
and the environment variable ``VARMDP_NO_NUMBA`` is unset/empty/"0";
setting it picks the vectorized numpy path.  Both paths consume the same
counter-based splitmix64 streams, keyed by ``(seed, sample, step)``, so
they produce bit-identical trajectories regardless of backend or thread
count.  The tier-1 test ``test_backends_bit_identical`` and the simulate
golden hash of ``varbench/`` check the bit-identity; ``varbench`` reports
throughput as ``kernels.msteps_per_s``.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import PreconditionError

try:
    from numba import njit, prange
    HAS_NUMBA = True
except ImportError:  # pragma: no cover - environment without numba
    HAS_NUMBA = False

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def numba_enabled() -> bool:
    return HAS_NUMBA and os.environ.get("VARMDP_NO_NUMBA", "").strip() in ("", "0")


def _mix_np(z):
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _sim_numpy(cum, mu0_cum, n_steps, n_samples, seed, state_reward,
               trans_reward, include_final, salvage, block=1 << 17):
    on_state = state_reward is not None
    prefix = cum[:, :-1]
    out = np.empty(n_samples)
    seed = np.uint64(seed)
    with np.errstate(over="ignore"):
        for lo in range(0, n_samples, block):
            hi = min(lo + block, n_samples)
            idx = np.arange(lo + 1, hi + 1, dtype=np.uint64)
            keys = _mix_np(seed + _GOLD * idx)
            u = (_mix_np(keys + _GOLD) >> np.uint64(11)) * _INV53
            x = (u[:, None] >= mu0_cum[None, :-1]).sum(axis=1)
            tot = np.zeros(hi - lo)
            for t in range(n_steps):
                if on_state:
                    tot += state_reward[x]
                u = (_mix_np(keys + _GOLD * np.uint64(t + 2)) >> np.uint64(11)) * _INV53
                nxt = (u[:, None] >= prefix[x]).sum(axis=1)
                if not on_state:
                    tot += trans_reward[x, nxt]
                x = nxt
            if on_state and include_final:
                tot += state_reward[x]
            if salvage is not None:
                tot += salvage[x]
            out[lo:hi] = tot
    return out


if HAS_NUMBA:

    @njit(cache=True, inline="always")
    def _mix(z):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    @njit(cache=True, inline="always")
    def _pick(cumrow, u):
        for j in range(cumrow.shape[0] - 1):
            if u < cumrow[j]:
                return j
        return cumrow.shape[0] - 1

    @njit(cache=True, parallel=True)
    def _sim_state_nb(cum, mu0_cum, n_steps, n_samples, seed, reward,
                      include_final, use_salvage, salvage):
        out = np.empty(n_samples)
        for i in prange(n_samples):
            key = _mix(np.uint64(seed) + _GOLD * np.uint64(i + 1))
            u = (_mix(key + _GOLD) >> np.uint64(11)) * _INV53
            x = _pick(mu0_cum, u)
            tot = 0.0
            for t in range(n_steps):
                tot += reward[x]
                u = (_mix(key + _GOLD * np.uint64(t + 2)) >> np.uint64(11)) * _INV53
                x = _pick(cum[x], u)
            if include_final:
                tot += reward[x]
            if use_salvage:
                tot += salvage[x]
            out[i] = tot
        return out

    @njit(cache=True, parallel=True)
    def _sim_trans_nb(cum, mu0_cum, n_steps, n_samples, seed, reward,
                      use_salvage, salvage):
        out = np.empty(n_samples)
        for i in prange(n_samples):
            key = _mix(np.uint64(seed) + _GOLD * np.uint64(i + 1))
            u = (_mix(key + _GOLD) >> np.uint64(11)) * _INV53
            x = _pick(mu0_cum, u)
            tot = 0.0
            for t in range(n_steps):
                u = (_mix(key + _GOLD * np.uint64(t + 2)) >> np.uint64(11)) * _INV53
                y = _pick(cum[x], u)
                tot += reward[x, y]
                x = y
            if use_salvage:
                tot += salvage[x]
            out[i] = tot
        return out


def simulate_totals(cum, mu0_cum, n_steps, n_samples, seed, *, state_reward=None,
                    trans_reward=None, include_final=False, salvage=None,
                    backend=None) -> np.ndarray:
    """Draw total rewards for ``n_samples`` trajectories of ``n_steps`` epochs.

    Exactly one of ``state_reward`` (length-S vector, collected on the
    visited state each epoch, optionally also at the final state) and
    ``trans_reward`` (SxS matrix, collected per transition) must be set.
    """
    if (state_reward is None) == (trans_reward is None):
        raise PreconditionError("simulate_totals: exactly one reward table required")
    if n_samples < 1:
        raise PreconditionError("simulate_totals: samples must be >= 1")
    if backend is None:
        backend = "numba" if numba_enabled() else "numpy"
    if backend == "numba" and not HAS_NUMBA:
        raise PreconditionError("simulate_totals: numba backend requested but unavailable")
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF

    if backend == "numpy":
        return _sim_numpy(cum, mu0_cum, n_steps, n_samples, seed, state_reward,
                          trans_reward, include_final, salvage)
    if backend != "numba":
        raise PreconditionError(f"simulate_totals: unknown backend {backend!r}")
    use_salvage = salvage is not None
    dummy = salvage if use_salvage else np.zeros(cum.shape[0])
    if state_reward is not None:
        return _sim_state_nb(cum, mu0_cum, n_steps, n_samples, seed, state_reward,
                             include_final, use_salvage, dummy)
    return _sim_trans_nb(cum, mu0_cum, n_steps, n_samples, seed, trans_reward,
                         use_salvage, dummy)
