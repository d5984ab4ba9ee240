"""Ablation benchmarks for the design choices DESIGN.md §6 calls out.

Each ablation sweeps one knob of the adversary and reports the survivor
outcome, so the contribution of each design choice is measured rather
than asserted:

* shift strategy (argmin vs the paper's averaging-only guarantee vs
  worst-case),
* the ``k`` parameter (paper: ``k = lg n``),
* survivor-set selection (largest vs random vs first),
* inter-block permutations (identity vs bit-reversal vs random).
"""

import numpy as np

from repro.core.adversary import run_lemma41
from repro.core.iterate import run_adversary
from repro.core.pattern import all_medium_pattern
from repro.experiments.harness import Table
from repro.networks.builders import random_iterated_rdn, random_reverse_delta
from repro.networks.delta import IteratedReverseDeltaNetwork
from repro.networks.permutations import bit_reversal_permutation, random_permutation


def _ablation_shift_strategies(n: int = 1024, k: int = 5, seed: int = 0) -> Table:
    table = Table(
        experiment="ABL-shift",
        title="Ablation: shift strategy in Lemma 4.1",
        claim="argmin >= averaging floor >= worst",
        columns=["strategy", "B", "floor", "retained"],
    )
    rng = np.random.default_rng(seed)
    block = random_reverse_delta(n, rng)
    p = all_medium_pattern(n)
    for strategy in ("argmin", "random", "worst"):
        res = run_lemma41(
            block, p, k, shift_strategy=strategy,
            rng=np.random.default_rng(seed),
        )
        table.add_row(
            strategy=strategy,
            B=res.b_size,
            floor=res.guarantee,
            retained=res.retained_fraction,
        )
    return table


def test_bench_ablation_shift_strategy(benchmark, record_table):
    table = benchmark(_ablation_shift_strategies)
    record_table(table)
    rows = {r["strategy"]: r for r in table.rows}
    assert rows["argmin"]["B"] >= rows["random"]["B"] >= rows["worst"]["B"]
    assert rows["argmin"]["B"] >= rows["argmin"]["floor"] - 1e-9


def _ablation_k(n: int = 512, seed: int = 0) -> Table:
    table = Table(
        experiment="ABL-k",
        title="Ablation: the k parameter (paper: k = lg n)",
        claim="larger k keeps more elements but multiplies the set count",
        columns=["k", "B", "floor", "nonempty_sets", "t_l"],
    )
    rng = np.random.default_rng(seed)
    block = random_reverse_delta(n, rng)
    p = all_medium_pattern(n)
    from repro.core.adversary import t_sets

    for k in (2, 3, 5, 9, 12):
        res = run_lemma41(block, p, k, rng=np.random.default_rng(seed))
        table.add_row(
            k=k, B=res.b_size, floor=res.guarantee,
            nonempty_sets=len(res.sets), t_l=t_sets(block.levels, k),
        )
    return table


def test_bench_ablation_k(benchmark, record_table):
    table = benchmark(_ablation_k)
    record_table(table)
    floors = table.column("floor")
    assert floors == sorted(floors)  # floor improves with k


def _ablation_set_choice(n: int = 256, blocks: int = 4, seed: int = 0) -> Table:
    table = Table(
        experiment="ABL-choice",
        title="Ablation: survivor-set selection in Theorem 4.1",
        claim="largest-set selection dominates",
        columns=["choice", "final_survivor", "trajectory"],
    )
    rng0 = np.random.default_rng(seed)
    net = random_iterated_rdn(n, blocks, rng0)
    for choice in ("largest", "random", "first"):
        run = run_adversary(
            net, set_choice=choice, rng=np.random.default_rng(seed),
            stop_when_dead=False,
        )
        table.add_row(
            choice=choice,
            final_survivor=len(run.special_set),
            trajectory=",".join(map(str, run.sizes())),
        )
    return table


def test_bench_ablation_set_choice(benchmark, record_table):
    table = benchmark(_ablation_set_choice)
    record_table(table)
    rows = {r["choice"]: r for r in table.rows}
    assert rows["largest"]["final_survivor"] >= rows["first"]["final_survivor"]


def _ablation_inter_perms(n: int = 256, blocks: int = 4, seed: int = 0) -> Table:
    table = Table(
        experiment="ABL-perm",
        title="Ablation: inter-block permutation family",
        claim="the adversary handles any fixed inter-block permutation",
        columns=["perm_family", "final_survivor", "blocks_survived"],
    )
    rng = np.random.default_rng(seed)
    block_rngs = [np.random.default_rng(seed + 1 + b) for b in range(blocks)]
    base_blocks = [random_reverse_delta(n, g) for g in block_rngs]
    families = {
        "identity": lambda b: None,
        "bit_reversal": lambda b: bit_reversal_permutation(n) if b else None,
        "random": lambda b: random_permutation(n, rng) if b else None,
    }
    for name, perm_fn in families.items():
        net = IteratedReverseDeltaNetwork(
            n, [(perm_fn(b), rdn) for b, rdn in enumerate(base_blocks)]
        )
        run = run_adversary(net, rng=np.random.default_rng(seed),
                            stop_when_dead=False)
        survived = sum(1 for r in run.records if r.chosen_size >= 2)
        table.add_row(
            perm_family=name,
            final_survivor=len(run.special_set),
            blocks_survived=survived,
        )
    return table


def test_bench_ablation_inter_perms(benchmark, record_table):
    table = benchmark(_ablation_inter_perms)
    record_table(table)
    for row in table.rows:
        assert row["final_survivor"] >= 1
