"""Simulation oracle: reproducibility, exact integer pick, CDF distances."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from varmdp import (DeterministicPolicy, MarkovRewardProcess, PreconditionError,
                    exact_total_reward_distribution, induced_mrp, simulate, transform)
from varmdp import _kernels
from varmdp._kernels import _GOLD, _mix, simulate_totals

from conftest import empirical_cdf, ks_distance

F = Fraction
_INV53 = 2.0 ** -53


def deterministic_chain():
    return MarkovRewardProcess(
        horizon=4, states=("a", "b"), kernel=((F(0), F(1)), (F(0), F(1))),
        reward_on="state", state_reward=(F(2), F(-1)), transition_reward=None,
        mu0=(F(1), F(0)), salvage=(F(0), F(5)))


@pytest.fixture(scope="module")
def printed_chain_mrp(printed_sas):
    pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0})
    return induced_mrp(printed_sas, pol)


class TestSimulate:
    def test_deterministic_chain_single_value(self):
        totals = simulate(deterministic_chain(), samples=500, seed=1)
        # path: a,b,b,b,b -> rewards 2,-1,-1,-1 plus salvage 5
        assert np.all(totals == 2 - 1 - 1 - 1 + 5)

    def test_reproducible_from_seed(self, printed_chain_mrp):
        a = simulate(printed_chain_mrp, samples=5000, seed=99)
        b = simulate(printed_chain_mrp, samples=5000, seed=99)
        c = simulate(printed_chain_mrp, samples=5000, seed=100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_empirical_matches_exact_short_horizon(self, printed_chain_mrp):
        # step-vs-step: both CDFs are constant between support points, so the
        # sup distance is attained on the exact support grid
        exact = exact_total_reward_distribution(printed_chain_mrp)
        totals = simulate(printed_chain_mrp, samples=1_000_000, seed=2024)
        grid = [float(s) for s in exact.support]
        # at 1e6 samples the two-sided DKW bound at 95% is about 0.0014
        assert ks_distance(exact, totals, grid) <= 0.005

    def test_transformed_and_original_agree(self, printed_chain_mrp):
        orig = simulate(printed_chain_mrp, samples=200_000, seed=31)
        trans = simulate(transform(printed_chain_mrp), samples=200_000, seed=77)
        grid = np.unique(orig)
        assert ks_distance(empirical_cdf(orig), empirical_cdf(trans), grid) <= 0.01

    def test_salvage_and_final_epoch_accounting(self, printed_chain_mrp):
        exact = exact_total_reward_distribution(transform(printed_chain_mrp))
        totals = simulate(transform(printed_chain_mrp), samples=300_000, seed=5)
        grid = [float(s) for s in exact.support]
        assert ks_distance(exact, totals, grid) <= 0.005

    def test_invalid_sample_count(self, printed_chain_mrp):
        with pytest.raises(PreconditionError):
            simulate(printed_chain_mrp, samples=0, seed=1)

    def test_dkw_rate(self, printed_chain_mrp):
        exact = exact_total_reward_distribution(printed_chain_mrp)
        grid = [float(s) for s in exact.support]
        d3 = ks_distance(exact, simulate(printed_chain_mrp, samples=1_000, seed=11),
                         grid)
        d5 = ks_distance(exact, simulate(printed_chain_mrp, samples=100_000, seed=11),
                         grid)
        assert d5 < d3
        assert d3 / d5 > 2          # consistent with 1/sqrt(n) over two decades
        assert d5 < 0.01


def reference_totals(cum, mu0_cum, n_steps, n_samples, seed, state_reward=None,
                     trans_reward=None, include_final=False, salvage=None, block=1 << 17):
    """The float-compare numpy kernel: each draw ``u`` against every prefix sum."""
    on_state = state_reward is not None
    prefix = cum[:, :-1]
    out = np.empty(n_samples)
    seed = np.uint64(seed)
    with np.errstate(over="ignore"):
        for lo in range(0, n_samples, block):
            hi = min(lo + block, n_samples)
            idx = np.arange(lo + 1, hi + 1, dtype=np.uint64)
            keys = _mix(seed + _GOLD * idx)
            u = (_mix(keys + _GOLD) >> np.uint64(11)) * _INV53
            x = (u[:, None] >= mu0_cum[None, :-1]).sum(axis=1)
            tot = np.zeros(hi - lo)
            for t in range(n_steps):
                if on_state:
                    tot += state_reward[x]
                u = (_mix(keys + _GOLD * np.uint64(t + 2)) >> np.uint64(11)) * _INV53
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


def float_rows(rng, n, max_support=None):
    """Cumulative float rows as ``simulate`` builds them, from exact rational rows.

    Weights 1-11 give non-dyadic probabilities (1/3, 1/7, ...); states off
    the support give zero columns, so a row whose rounded sum exceeds 1
    has interior prefixes above 1.0.
    """
    P = np.zeros((n, n))
    for x in range(n):
        k = int(rng.integers(1, (max_support or n) + 1))
        support = rng.choice(n, size=k, replace=False)
        weights = rng.integers(1, 12, size=k)
        P[x, support] = [float(F(int(w), int(weights.sum()))) for w in weights]
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    return cum


def kernel_totals(cum, mu0_cum, n_steps, n_samples, seed, state_reward=None,
                  trans_reward=None, include_final=False, salvage=None):
    """``simulate_totals`` called with the reward arguments of ``reference_totals``."""
    if state_reward is not None:
        step_reward = np.broadcast_to(state_reward[:, None], cum.shape)
    else:
        step_reward = trans_reward
    final = [state_reward] if include_final else []
    if salvage is not None:
        final.append(salvage)
    return simulate_totals(cum, mu0_cum, n_steps, n_samples, seed,
                           step_reward=step_reward, final=tuple(final))


class TestIntegerPick:
    """The numpy kernel's integer guide-table pick against the float compare."""

    CASES = [  # (state rewards, include_final, salvage)
        (True, True, True), (True, False, False), (False, False, True), (False, False, False)]

    def assert_kernel_matches(self, cum, mu0, rng, n_steps, n_samples, seed):
        n = cum.shape[0]
        for on_state, final, with_salvage in self.CASES:
            rewards = dict(
                state_reward=rng.normal(size=n) if on_state else None,
                trans_reward=None if on_state else rng.normal(size=(n, n)),
                include_final=final,
                salvage=rng.normal(size=n) if with_salvage else None)
            got = kernel_totals(cum, mu0, n_steps, n_samples, seed, **rewards)
            want = reference_totals(cum, mu0, n_steps, n_samples, seed, **rewards)
            assert np.array_equal(got, want)

    def test_bit_identical_to_float_compare(self):
        rng = np.random.default_rng(2024)
        over_one = False
        for n in (2, 3, 4, 5, 8, 13, 21, 40):
            for _ in range(3):
                cum = float_rows(rng, n)
                over_one |= bool((cum[:, :-1] > 1.0).any())
                mu0 = float_rows(rng, n)[0]
                self.assert_kernel_matches(cum, mu0, rng, 25, 1500,
                                           int(rng.integers(2**63)))
        assert over_one  # the rounded-over prefixes were exercised

    def test_subnormal_dyadic_and_block_boundary(self, monkeypatch):
        rng = np.random.default_rng(7)
        cum = np.cumsum([[5e-324, 0.25, 0.0, 0.75 - 5e-324],
                         [0.5, 0.0, 0.25, 0.25],
                         [1 / 3, 0.0, 1 / 3, 1 / 3],
                         [0.0, 0.0, 0.0, 1.0]], axis=1)
        cum[:, -1] = 1.0
        monkeypatch.setattr(_kernels, "_BLOCK", 1000)
        self.assert_kernel_matches(cum, cum[2], rng, 12, 2500, 11)

    def test_small_guide_tables_fall_back_exactly(self, monkeypatch):
        rng = np.random.default_rng(99)
        for cells in (1, 16, 256):
            monkeypatch.setattr(_kernels, "_GUIDE_CELLS", cells)
            for n in (2, 6, 30):
                cum = float_rows(rng, n)
                guide = _kernels._guide(cum, cum[0], np.zeros((n, n)))
                if cells == 1:
                    assert guide.bits == 0 and np.mean(guide.offset < 0) > 0.5
                self.assert_kernel_matches(cum, cum[-1], rng, 10, 700, n + cells)

    def test_exact_at_threshold_draws(self, monkeypatch):
        # draws next to ceil/floor(p * 2**53) decide between >= and >, ceil and floor;
        # 1 - 2**-53 puts a threshold on the last draw of a bucket
        rng = np.random.default_rng(5)
        for cells in (1, 64, 1 << 20):
            monkeypatch.setattr(_kernels, "_GUIDE_CELLS", cells)
            cum = float_rows(rng, 9)
            cum[0] = [5e-324, 0.25, 0.5, 0.5, np.nextafter(1.0, 0.0), 1.0, 1.0, 1.0, 1.0]
            R = rng.normal(size=(9, 9))
            guide = _kernels._guide(cum, cum[1], R)
            for x in range(9):
                scaled = np.ldexp(cum[x, :-1], 53)
                k = np.concatenate([np.floor(scaled) + d for d in (-1, 0, 1)]
                                   + [np.ceil(scaled) + d for d in (0, 1)])
                k = np.clip(k, 0, 2.0**53 - 1).astype(np.uint64)
                want = np.count_nonzero(k[:, None] * _INV53 >= cum[x, None, :-1], axis=1)
                for low in (0, 0x7FF):  # bits below the draw
                    # the pick reads the word before splitmix's last z ^= z >> 31: invert it
                    z = (k << np.uint64(11)) | np.uint64(low)
                    word = z ^ (z >> np.uint64(31)) ^ (z >> np.uint64(62))
                    row, w = np.full(len(k), x << guide.bits), np.empty(len(k))
                    nxt = np.empty_like(row)
                    _kernels._guide_pick(guide, row, word, nxt, w)
                    assert np.array_equal(nxt >> guide.bits, want)
                    assert np.array_equal(w, R[x, want])

    def test_block_and_chunk_boundaries(self):
        rng = np.random.default_rng(41)
        cum = float_rows(rng, 6)
        block = _kernels._BLOCK
        for n_samples in (block - 1, block, block + 1, 2 * block + 3):  # the last splits unevenly
            self.assert_kernel_matches(cum, cum[3], rng, 3, n_samples, n_samples)
        for n_steps in (1, _kernels._CHUNK - 1, _kernels._CHUNK, 2 * _kernels._CHUNK + 3):
            self.assert_kernel_matches(cum, cum[1], rng, n_steps, 500, n_steps)

    def test_non_dyadic_chain_falls_back(self, monkeypatch):
        rng = np.random.default_rng(40)
        cum = float_rows(rng, 40)
        fallbacks = []
        pick = _kernels._guide_pick

        def counting_pick(guide, row, word, nxt, w):
            pick(guide, row, word, nxt, w)
            fallbacks.append(np.count_nonzero(guide.offset[row] < 0))  # row now holds cells

        monkeypatch.setattr(_kernels, "_guide_pick", counting_pick)
        self.assert_kernel_matches(cum, cum[7], rng, 30, 3000, 19)
        assert sum(fallbacks) > 0

    def test_guide_bits_fit_above_the_last_xor_shift(self):
        # z ^= z >> 31 keeps bits 33-63, so a bucket of B <= 31 top bits is read before it
        rng = np.random.default_rng(8)
        for n in (2, 3, 8, 40, 200, 1000, 3000):
            cum = float_rows(rng, n, max_support=3 if n > 200 else None)
            assert _kernels._guide(cum, cum[0], np.zeros((n, n))).bits <= 20

    def test_large_sparse_chain_table_is_bounded(self):
        rng = np.random.default_rng(3)
        n = 3000
        cum = float_rows(rng, n, max_support=3)
        guide = _kernels._guide(cum, cum[0], np.zeros((n, n)))
        assert len(guide.offset) <= _kernels._GUIDE_CELLS
        assert len(guide.offset) == (n + 1) << guide.bits
        reward = rng.normal(size=n)
        got = kernel_totals(cum, cum[0], 40, 300, 17, state_reward=reward)
        want = reference_totals(cum, cum[0], 40, 300, 17, state_reward=reward)
        assert np.array_equal(got, want)


class TestWorkers:
    """Sample blocks on worker threads: the totals do not depend on how many run."""

    @pytest.fixture
    def small_shares(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_BLOCK", 300)
        monkeypatch.setattr(_kernels, "_MIN_SHARE", 100)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    def test_totals_do_not_depend_on_the_worker_count(self, monkeypatch, small_shares,
                                                      thread_starts, cpus):
        # 64 CPUs: the workers are capped by the 100-sample shares, and there are
        # more of them than cores and than one worker would run blocks
        monkeypatch.setattr(_kernels, "_cpus", lambda: cpus)
        cases = TestIntegerPick()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # hand the interpreter between threads as often as it can
        try:
            cases.test_block_and_chunk_boundaries()
            cases.test_subnormal_dyadic_and_block_boundary(monkeypatch)
            cases.test_non_dyadic_chain_falls_back(monkeypatch)
        finally:
            sys.setswitchinterval(interval)
        assert bool(thread_starts) == (cpus > 1)
        assert not any(thread.is_alive() for thread in thread_starts)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_failure_is_raised_once_every_worker_is_joined(self, monkeypatch, small_shares,
                                                           thread_starts, failing):
        monkeypatch.setattr(_kernels, "_cpus", lambda: 3)
        pick, chosen = _kernels._guide_pick, {}

        def failing_pick(guide, row, word, nxt, w):
            me = threading.get_ident()
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (failing == "caller") and chosen.setdefault("thread", me) == me:
                raise MemoryError(f"{failing} block")  # in one thread only
            pick(guide, row, word, nxt, w)

        monkeypatch.setattr(_kernels, "_guide_pick", failing_pick)
        cum = float_rows(np.random.default_rng(6), 6)
        running = threading.active_count()
        with pytest.raises(MemoryError, match=f"{failing} block"):
            kernel_totals(cum, cum[0], 20, 900, 3, state_reward=np.arange(6.0))
        assert threading.active_count() == running
        assert len(thread_starts) == 2 and not any(t.is_alive() for t in thread_starts)

    def test_small_runs_start_no_thread(self, monkeypatch, printed_chain_mrp, thread_starts):
        # each worker gets at least _MIN_SHARE samples: the TINY warm-up's 2,000 run alone
        monkeypatch.setattr(_kernels, "_cpus", lambda: 8)
        simulate(printed_chain_mrp, samples=2_000, seed=1)
        simulate(printed_chain_mrp, samples=2 * _kernels._MIN_SHARE - 1, seed=1)
        assert thread_starts == []
        simulate(printed_chain_mrp, samples=2 * _kernels._MIN_SHARE, seed=1)
        assert len(thread_starts) == 1


def test_kernel_refuses_zero_samples():
    cum = float_rows(np.random.default_rng(1), 3)
    with pytest.raises(PreconditionError, match="samples must be >= 1"):
        kernel_totals(cum, cum[0], 5, 0, 1, state_reward=np.arange(3.0))


@pytest.mark.parametrize("count, want", [(6, 6), (None, 1)])
def test_cpus_without_an_affinity_call(monkeypatch, count, want):
    monkeypatch.delattr(_kernels.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(_kernels.os, "cpu_count", lambda: count)
    assert _kernels._cpus() == want


class TestKsDistance:
    def test_identical_cdfs(self):
        f = lambda t: ndtr(t)
        assert ks_distance(f, f, np.linspace(-3, 3, 100)) == 0.0

    def test_shifted_normal_closed_form(self):
        delta = 0.8
        a = lambda t: ndtr(t)
        b = lambda t: ndtr(t - delta)
        # the gap peaks at the midpoint: 2 g(delta/2) - 1
        grid = np.linspace(-6, 6, 4001)  # includes delta/2 = 0.4 up to grid spacing
        expected = 2 * ndtr(delta / 2) - 1
        assert ks_distance(a, b, grid) == pytest.approx(expected, abs=1e-6)

    def test_symmetry_and_objects(self, printed_chain_mrp):
        exact = exact_total_reward_distribution(printed_chain_mrp)
        totals = simulate(printed_chain_mrp, samples=10_000, seed=3)
        grid = np.unique(totals)
        assert ks_distance(exact, totals, grid) == ks_distance(totals, exact, grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(PreconditionError, match="grid"):
            ks_distance(lambda t: 0.0, lambda t: 0.0, [])
