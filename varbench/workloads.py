"""Workload definitions: seeded inputs and the CLI calls each workload makes.

Every input is generated before timing starts, from the benchmark seed,
and written as an ``mdp-v1``/``mrp-v1`` document; the CLI only ever sees
those documents.  The seed selects one of ``POOL`` input variants (the
threshold pair, the slow chain's rewards and the simulation seed), so
that every input has an output golden captured by ``capture.py``.

Why these workloads (all sizes are the ``FULL`` ones):

* ``exact-short`` runs only the rational layers.  ``pareto-short`` on
  ``paper-short`` enumerates 27,648 augmented policies (many tiny forward
  propagations); ``var-threshold`` on the capacity-10 / horizon-12
  inventory does one backward induction over 5,352 augmented pairs.  The
  two are the uses of the augmented slices that a merged routine would
  serve, so a gain for one that costs the other shows.
* ``estimate-long`` runs the Edgeworth layer two ways: ``pareto-long``
  over the 720 stationary policies of the capacity-5 inventory (many
  small fast-mixing pair chains, up to 18 states) and ``estimate-cdf`` on
  a 64-state lazy birth-death chain whose third-cumulant sum truncates at
  65,536 steps (one slow-mixing chain).
* ``mc-oracle`` is the one workload where the simulation kernel does most
  of the work: ``simulate`` (50,000 paths x 500 rewards) next to an
  ``estimate-cdf`` on the same 8-state ``paper-long`` witness pair chain,
  whose Kolmogorov-Smirnov distance guards the estimate's accuracy.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from varmdp import DeterministicPolicy, InventoryParams, build_inventory, policy_chain
from varmdp.documents import dump_document, mdp_to_document, mrp_to_document
from varmdp.inventory import PRESETS, paper_long
from varmdp.mdp import MarkovRewardProcess

POOL = 16
WORKLOADS = ("exact-short", "estimate-long", "mc-oracle")
# Stationary rule of the paper-long witness: order 2 when empty, else nothing.
WITNESS_RULE = {0: 2, 1: 0, 2: 0, 3: 0}


@dataclass(frozen=True)
class Sizes:
    name: str
    front_exact: str                          # inventory preset for the exact layers
    threshold: tuple[int, int]                # (capacity, horizon) for var-threshold
    tau_pool: tuple[int, ...]                 # thresholds; each variant takes two
    fronts_long: tuple[tuple[int, int, str], ...]  # (capacity, horizon, grid)
    chain_states: int                         # slow-mixing birth-death chain
    chain_steps: int
    witness_horizon: int
    witness_grid: str
    samples: int


FULL = Sizes(
    name="full", front_exact="paper-short", threshold=(10, 12),
    tau_pool=(40, 48, 56, 64, 72, 80, 88, 96, 104, 112),
    fronts_long=((5, 500, "2000:3000:2501"), (3, 500, "1700:2600:901")),
    chain_states=64, chain_steps=2000,
    witness_horizon=500, witness_grid="1500:2100:601", samples=50_000)

TINY = Sizes(
    name="tiny", front_exact="paper-short-printed", threshold=(4, 3),
    tau_pool=(4, 12, 16, 24),
    fronts_long=((2, 50, "80:300:221"), (3, 50, "100:320:221")),
    chain_states=8, chain_steps=200,
    witness_horizon=50, witness_grid="110:250:141", samples=2_000)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``python -m varmdp.cli <argv>``.

    ``metric`` names its answer time in the report; ``golden`` keys the
    expected output; ``context`` carries what the output check needs.
    """

    metric: str
    command: str
    argv: tuple[str, ...]
    output: str
    golden: str
    side_output: str | None = None
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    variant: int
    calls: tuple[Call, ...]
    target: str      # metric of the answer whose layer the workload stresses
    contrast: str    # metric of the answer that uses the same layer another way
    ks_pair: tuple[str, str] | None = None   # (estimate, simulate) metrics


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_document(doc))
    return path


def birth_death_chain(n: int, steps: int, rewards) -> MarkovRewardProcess:
    """Lazy symmetric birth-death chain on ``n`` states, started in state 0.

    Stays put with probability 1/2 and moves to each neighbour with 1/4
    (reflecting at the ends), so its stationary law is uniform and its
    spectral gap is of order ``1/n^2``: the slow-mixing case.
    """
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    kernel = []
    for x in range(n):
        row = [Fraction(0)] * n
        row[x] += half
        row[max(x - 1, 0)] += quarter
        row[min(x + 1, n - 1)] += quarter
        kernel.append(tuple(row))
    return MarkovRewardProcess(
        horizon=steps, states=tuple(f"s{x}" for x in range(n)), kernel=tuple(kernel),
        reward_on="state", state_reward=tuple(Fraction(r) for r in rewards),
        transition_reward=None,
        mu0=tuple(Fraction(int(x == 0)) for x in range(n)), salvage=None)


def body_grid(chain: MarkovRewardProcess, steps: int, points: int = 201) -> str:
    """Grid over mean +- 4 sd of the ``steps``-term total of a birth-death chain.

    Computed here with numpy from the fundamental matrix, independently of
    the library, and rounded outward to integers.  The chain's kernel is
    symmetric, so its stationary law is uniform.
    """
    P = np.array([[float(p) for p in row] for row in chain.kernel])
    r = np.array([float(v) for v in chain.state_reward])
    n = len(r)
    xi = np.full(n, 1.0 / n)
    centred = r - xi @ r
    Z = np.linalg.inv(np.eye(n) - P + np.outer(np.ones(n), xi))
    sigma2 = 2.0 * xi @ (centred * (Z @ centred)) - xi @ (centred * centred)
    mean = steps * float(xi @ r)
    half = 10 * int(np.ceil(4.0 * np.sqrt(sigma2 * steps) / 10.0))
    return f"{int(np.floor(mean - half))}:{int(np.ceil(mean + half))}:{points}"


def build(name: str, seed: int, workdir: str, sizes: Sizes = FULL) -> Workload:
    """Write the workload's input documents under ``workdir`` and list its calls."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    variant = seed % POOL
    rng = random.Random(variant)
    taus = sorted(rng.sample(sizes.tau_pool, 2))
    rewards = [rng.randrange(9) for _ in range(sizes.chain_states)]
    sim_seed = rng.randrange(2 ** 32)
    os.makedirs(workdir, exist_ok=True)

    def out(stem: str) -> str:
        return os.path.join(workdir, stem)

    # Grids are passed as ``--grid=lo:hi:steps``: a negative ``lo`` would read as a flag.

    if name == "exact-short":
        preset = sizes.front_exact
        front = _write(out("front.json"), mdp_to_document(PRESETS[preset]()))
        cap, hor = sizes.threshold
        thr = _write(out("threshold.json"), mdp_to_document(
            build_inventory(InventoryParams(horizon=hor, capacity=cap))))
        calls = [Call("front_exact_s", "pareto-short",
                      (front, "-o", out("front.csv"), "--policies-out", out("front-pol.csv")),
                      out("front.csv"), f"pareto-short:{preset}",
                      side_output=out("front-pol.csv"), context={"doc": front})]
        for tau in taus:
            calls.append(Call("threshold_s", "var-threshold",
                              (thr, "--tau", str(tau), "-o", out(f"tau{tau}.txt")),
                              out(f"tau{tau}.txt"), f"var-threshold:cap{cap}-h{hor}:tau{tau}",
                              context={"doc": thr, "tau": tau}))
        calls.append(Call("dist_exact_s", "dist-exact", (front, "-o", out("dist.csv")),
                          out("dist.csv"), f"dist-exact:{preset}"))
        calls.append(Call("expected_s", "solve-expected", (front, "-o", out("expected.txt")),
                          out("expected.txt"), f"solve-expected:{preset}",
                          context={"doc": front}))
        return Workload(name, variant, tuple(calls), "front_exact_s", "threshold_s")

    if name == "estimate-long":
        calls = []
        for i, (cap, hor, grid) in enumerate(sizes.fronts_long):
            doc = _write(out(f"long{i}.json"), mdp_to_document(
                build_inventory(InventoryParams(horizon=hor, capacity=cap))))
            calls.append(Call(
                "front_long_s" if i == 0 else "front_long_paper_s", "pareto-long",
                (doc, "--horizon", str(hor), f"--grid={grid}", "-o", out(f"long{i}.csv"),
                 "--policies-out", out(f"long{i}-pol.csv")),
                out(f"long{i}.csv"), f"pareto-long:cap{cap}-h{hor}:{grid}",
                side_output=out(f"long{i}-pol.csv"), context={"doc": doc, "horizon": hor}))
        n, steps = sizes.chain_states, sizes.chain_steps
        chain = birth_death_chain(n, steps, rewards)
        doc = _write(out("chain.json"), mrp_to_document(chain))
        calls.append(Call("estimate_mixing_s", "estimate-cdf",
                          (doc, "--n-steps", str(steps), f"--grid={body_grid(chain, steps)}",
                           "-o", out("chain.csv")),
                          out("chain.csv"), f"estimate-cdf:chain{n}-v{variant}-n{steps}"))
        return Workload(name, variant, tuple(calls), "front_long_s", "estimate_mixing_s")

    hor = sizes.witness_horizon
    chain = policy_chain(paper_long(hor), DeterministicPolicy.from_stationary(WITNESS_RULE))
    witness = _write(out("witness.json"), mrp_to_document(chain))
    terms = chain.horizon + int(chain.include_final_reward)
    calls = (
        Call("estimate_s", "estimate-cdf",
             (witness, "--n-steps", str(terms), f"--grid={sizes.witness_grid}",
              "-o", out("witness.csv")),
             out("witness.csv"), f"estimate-cdf:witness-h{hor}-n{terms}"),
        Call("simulate_s", "simulate",
             (witness, "--samples", str(sizes.samples), "--seed", str(sim_seed),
              "-o", out("sim.csv")),
             out("sim.csv"), f"simulate:witness-h{hor}-n{sizes.samples}-seed{sim_seed}"),
    )
    return Workload(name, variant, calls, "simulate_s", "estimate_s",
                    ks_pair=("estimate_s", "simulate_s"))
