"""Perf analyzer throughput and the vectorization speedup evidence.

Two gates ride in one file.  First, ``repro perf src/`` runs in CI next
to sanitize and flow, so the whole pipeline -- program build, the
effective-depth fixpoint, six rule walks, worklist ranking -- must stay
inside an interactive edit loop; the envelope is archived to
``benchmarks/results/perf-selfcheck.json``.  Second, the loop the
analyzer exists to close: the Lemma 3.4 rename and the permutation
scatter it put at the top of its first worklist are now vectorised, and
the measured speedup over their scalar references is archived to
``benchmarks/results/perf-speedup.json`` so a regression back to scalar
(or an accidentally pessimised helper) fails loudly.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.core.alphabet import L, M, S, rename_against_pivot
from repro.core.propagate import SymbolicState
from repro.perf import analyze_paths, worklist_paths
from repro.sanitize import Baseline

#: A full-tree perf analysis may take at most this many seconds.
TIME_BUDGET_S = 10.0

#: The vectorised rename must beat the scalar reference by at least
#: this factor at the benchmark size (measured ~4.5x; see results).
RENAME_SPEEDUP_FLOOR = 1.5

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src"

#: Positions in the rename/permutation micro-workloads (the adversary
#: runs at n=1024; benchmark one size up to keep the ratio stable).
N = 4096


def test_bench_perf_full_tree(benchmark, results_dir, capsys):
    # time inside the workload as well: under --benchmark-disable (the
    # PR smoke mode) benchmark.stats is None, but the 10s gate must hold.
    durations = []
    baseline = Baseline.load(ROOT / "analyzer-baseline.json")

    def run():
        t0 = time.perf_counter()
        rep = analyze_paths([str(SRC)], baseline=baseline)
        durations.append(time.perf_counter() - t0)
        return rep

    report = benchmark(run)

    # the shipped tree ratchets at zero NEW findings; the benchmark
    # doubles as the gate
    assert report.exit_code == 0
    assert report.diagnostics == []
    assert report.suppressed > 0  # grandfathered work is declared
    assert report.files >= 90
    assert report.functions >= 700
    assert report.hot >= 200

    worklist = worklist_paths([str(SRC)])
    assert len(worklist.entries) >= report.suppressed

    mean_s = (
        benchmark.stats.stats.mean if benchmark.stats else min(durations)
    )
    doc = {
        "workload": "analyze_paths([src])",
        "files": report.files,
        "functions": report.functions,
        "hot": report.hot,
        "worklist": len(worklist.entries),
        "mean_s": mean_s,
        "files_per_s": report.files / mean_s,
        "budget_s": TIME_BUDGET_S,
    }
    (results_dir / "perf-selfcheck.json").write_text(
        json.dumps(doc, indent=2) + "\n"
    )
    with capsys.disabled():
        print()
        print(
            f"perf: {report.files} files, {report.hot} hot functions, "
            f"{len(worklist.entries)}-entry worklist in {mean_s:.3f}s "
            f"(budget {TIME_BUDGET_S:.0f}s)"
        )

    assert mean_s < TIME_BUDGET_S, (
        f"whole-program perf analysis took {mean_s:.2f}s, "
        f"over the {TIME_BUDGET_S:.0f}s budget"
    )


def _scalar_rename(symbols, pivot):
    """The pre-vectorization reference (the old Pattern.rho body)."""
    out = []
    for s in symbols:
        if s is pivot:
            out.append(M(0))
        elif s < pivot:
            out.append(S(0))
        else:
            out.append(L(0))
    return out


def _scalar_permute(state, mapping):
    """The pre-vectorization reference for apply_permutation."""
    new_symbols = [None] * state.n
    for pos, sym in enumerate(state.symbols):
        new_symbols[int(mapping[pos])] = sym
    return new_symbols, {
        int(mapping[pos]): w for pos, w in state.origin.items()
    }


def _best_of(fn, repeats=7, number=20):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def test_bench_vectorized_rename_speedup(results_dir, capsys):
    symbols = [
        M(3) if i % 7 == 0 else (S(1) if i % 2 else L(2)) for i in range(N)
    ]
    pivot = M(3)

    # behaviour first: byte-identical to the scalar reference
    assert rename_against_pivot(symbols, pivot) == _scalar_rename(
        symbols, pivot
    )

    scalar_s = _best_of(lambda: _scalar_rename(symbols, pivot))
    vector_s = _best_of(lambda: rename_against_pivot(symbols, pivot))
    rename_speedup = scalar_s / vector_s

    rng = np.random.default_rng(7)
    mapping = rng.permutation(N)
    state = SymbolicState(
        symbols=list(symbols), origin={i: i for i in range(0, N, 4)}
    )
    ref_symbols, ref_origin = _scalar_permute(state, mapping)

    def permute():
        s = SymbolicState(
            symbols=list(symbols), origin={i: i for i in range(0, N, 4)}
        )
        s.apply_permutation(mapping)
        return s

    applied = permute()
    assert applied.symbols == ref_symbols
    assert applied.origin == ref_origin

    permute_s = _best_of(permute)

    doc = {
        "n": N,
        "rename": {
            "scalar_s": scalar_s,
            "vectorized_s": vector_s,
            "speedup": rename_speedup,
        },
        "apply_permutation_s": permute_s,
        "speedup_floor": RENAME_SPEEDUP_FLOOR,
    }
    (results_dir / "perf-speedup.json").write_text(
        json.dumps(doc, indent=2) + "\n"
    )
    with capsys.disabled():
        print()
        print(
            f"rename n={N}: scalar {scalar_s * 1e6:.0f}us, "
            f"vectorised {vector_s * 1e6:.0f}us "
            f"({rename_speedup:.1f}x, floor {RENAME_SPEEDUP_FLOOR}x)"
        )

    assert rename_speedup >= RENAME_SPEEDUP_FLOOR, (
        f"vectorised rename is only {rename_speedup:.2f}x the scalar "
        f"reference at n={N}; floor is {RENAME_SPEEDUP_FLOOR}x"
    )
