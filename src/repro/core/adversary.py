"""The executable Lemma 4.1: special-set maintenance in one reverse delta block.

Lemma 4.1 (paper, Section 4).  Given an ``l``-level reverse delta network
:math:`\\Delta` and a pattern ``p`` over its wires using only
:math:`\\mathcal{S}_0, \\mathcal{M}_0, \\mathcal{L}_0`, with
:math:`[\\mathcal{M}_0]`-set ``A``, and any positive integer ``k``, there
is an ``A``-refinement ``q`` of ``p`` and ``t(l) = k^3 + l k^2`` disjoint
wire sets :math:`M_0, \\ldots, M_{t(l)-1}` such that

1. every :math:`M_i` is the :math:`[\\mathcal{M}_i]`-set of ``q``;
2. every :math:`M_i` is noncolliding in :math:`\\Delta` under ``q``;
3. :math:`B = \\bigcup_i M_i \\subseteq A`; and
4. :math:`|B| \\ge |A| - l|A|/k^2`.

The proof is by induction on the recursive structure of
Definition 3.4, and -- crucially for this library -- it is *algorithmic*:
this module runs the induction on a concrete
:class:`~repro.networks.delta.ReverseDeltaNetwork`, producing the refined
pattern, the sets, the symbolic output state, and a per-node trace.

Algorithmic skeleton (matching the proof text), per tree node:

* take the two children's refined set collections;
* scan the node's final level :math:`\\Gamma_{l+1}` for **collision
  sets** :math:`C_{i,j}` -- child-0 tokens of set :math:`M_{0,i}` meeting
  child-1 tokens of set :math:`M_{1,j}` at a comparator (token positions
  are deterministic by Lemma 3.2, so this scan is exact);
* for each shift ``s`` in ``[0, k^2)`` compute :math:`L_s =
  \\bigcup_j C_{j, j-s}` and pick :math:`i_0` -- the paper's averaging
  argument guarantees some :math:`|L_{i_0}| \\le |B_0|/k^2`; we default to
  the argmin, which is never worse (strategies are pluggable for the E2
  ablation);
* **demote** the wires of :math:`C_{j, j-i_0}` from :math:`\\mathcal{M}_j`
  to a fresh :math:`\\mathcal{X}_{j, j_0}` (refinement step 2), and
  **shift** every child-1 band symbol up by :math:`i_0` (step 2'), which
  merges :math:`M_{1, j-i_0}` into the new :math:`M_j`;
* steps 1/1' of the paper (clearing indices above ``t(l)``) are no-ops
  here because the induction never mints such indices -- asserted, not
  assumed.

How it runs: a height sweep over the block's own form, its leaf
``rank`` and one level per height (see :mod:`repro.networks.delta`).
The proof recurses, but a node's step reads and writes only the wires
of its own subtree, and same-height nodes own disjoint wires; so
running every height-1 node, then every height-2 node, and so on, gives
exactly the state the post-order recursion gives.  Each of the steps
above is one array operation per height over int64 **symbol codes**
that keep the paper's order::

    S0 = 0  <  X(i, j) = i*n + 1 + j  <  M(i) = (i+1)*n  <  L0 = 2**62

(``j < n - 1`` is a node's post-order number, so ``X(i, .) < M(i) <
X(i+1, .)``).  A band shift by ``s`` adds ``s*n`` to a code.  The fresh
second index ``j0`` of a node is its post-order number, as in the
recursion, and the trace is reported in post-order.  The built-in
``"random"`` strategy takes its per-node draws in post-order too, so
its results match the recursion's draw for draw; a custom
:data:`ShiftStrategy` is called once per node in height order.

The sweep's arrays are the result: symbols and node records are built
only when a caller reads ``pattern``, ``state`` or ``trace.nodes``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

from ..errors import GuaranteeError, PatternError, PropagationError, RefinementError
from ..networks.delta import ReverseDeltaNetwork
from ..networks.gates import OP_CODE, Op
from ..obs import events as obs_events
from ..obs.trace import get_tracer
from .alphabet import L, M, S, Symbol, X
from .pattern import Pattern, _keys
from .propagate import SymbolicState

__all__ = [
    "t_sets",
    "ShiftStrategy",
    "SHIFT_STRATEGIES",
    "NodeRecord",
    "Lemma41Trace",
    "Lemma41Result",
    "run_lemma41",
]


def t_sets(l: int, k: int) -> int:
    """The set count :math:`t(l) = k^3 + l k^2` of Lemma 4.1."""
    return k**3 + l * k * k


#: A shift strategy picks ``i_0`` from the per-shift loss table.  Called
#: with ``(losses, k, rng)`` where ``losses[s]`` is ``|L_s|`` for shifts
#: ``s`` in ``[0, k^2)``; must return the chosen shift.  It is called
#: once per internal node, nodes in height order (all height-1 nodes,
#: then height 2, ...), with that node's own list.
ShiftStrategy = Callable[[list[int], int, "np.random.Generator | None"], int]


def _shift_argmin(
    losses: list[int], k: int, rng: np.random.Generator | None
) -> int:
    return losses.index(min(losses))


def _shift_random(
    losses: list[int], k: int, rng: np.random.Generator | None
) -> int:
    if rng is None:
        raise PatternError(
            "shift_strategy='random' needs an explicit seed-derived rng"
        )
    return int(rng.integers(0, len(losses)))


def _shift_worst(
    losses: list[int], k: int, rng: np.random.Generator | None
) -> int:
    return losses.index(max(losses))


SHIFT_STRATEGIES: dict[str, ShiftStrategy] = {
    "argmin": _shift_argmin,
    "random": _shift_random,
    "worst": _shift_worst,
}


@dataclass(frozen=True)
class NodeRecord:
    """Statistics for one tree node's recombination step."""

    height: int
    collisions: int
    chosen_shift: int
    demoted: int
    elements_after: int


@dataclass(frozen=True, eq=False)
class Lemma41Trace:
    """Per-node statistics of one Lemma 4.1 run.

    One read-only int64 array per :class:`NodeRecord` field, with one
    entry per internal tree node in post-order.
    """

    height: np.ndarray
    collisions: np.ndarray
    chosen_shift: np.ndarray
    demoted: np.ndarray
    elements_after: np.ndarray

    @cached_property
    def nodes(self) -> list[NodeRecord]:
        """One record per node in post-order (built on first use)."""
        columns = (getattr(self, column.name).tolist() for column in fields(self))
        return list(map(NodeRecord, *columns))

    def demoted_by_height(self) -> dict[int, int]:
        """Total elements lost (demoted) per tree height."""
        heights, inverse = np.unique(self.height, return_inverse=True)
        totals = np.zeros(heights.size, dtype=np.int64)
        np.add.at(totals, inverse, self.demoted)
        return dict(zip(heights.tolist(), totals.tolist()))

    @property
    def total_demoted(self) -> int:
        """Elements lost to demotion across the whole run."""
        return int(self.demoted.sum())

    @property
    def total_collisions(self) -> int:
        """Token-token comparator meetings observed across all nodes."""
        return int(self.collisions.sum())


@dataclass(eq=False)
class Lemma41Result:
    """Everything Lemma 4.1 promises, computed for a concrete network.

    Attributes
    ----------
    refined_codes:
        The refined pattern ``q`` (an ``A``-refinement of the input
        pattern) as one symbol code per input wire.
    output_codes, tokens:
        Per *output* position under ``q``: the symbol code, and the
        input wire whose token sits there (``-1`` for none).
    sets:
        Sparse map ``i -> M_i`` (only nonempty sets are present).
    t:
        The nominal set count ``t(l)``; every key of ``sets`` is ``< t``.
    a_size, b_size:
        ``|A|`` and ``|B|``; Property 4 says
        ``b_size >= a_size - l * a_size / k**2``.
    trace:
        Per-node statistics.

    The three arrays are read-only; :attr:`pattern` and :attr:`state`
    decode them into symbols on first use.
    """

    refined_codes: np.ndarray
    output_codes: np.ndarray
    tokens: np.ndarray
    sets: dict[int, frozenset[int]]
    t: int
    k: int
    levels: int
    a_size: int
    b_size: int
    trace: Lemma41Trace

    @cached_property
    def pattern(self) -> Pattern:
        """The refined pattern ``q`` on the block's input wires."""
        return Pattern(_decode(self.refined_codes))

    @cached_property
    def state(self) -> SymbolicState:
        """Symbols per output position under ``q`` and the token map
        ``position -> input wire`` for every special-set element."""
        return _state_view(self.output_codes, self.tokens)

    @property
    def retained_fraction(self) -> float:
        """``|B| / |A|`` (1.0 when ``A`` is empty)."""
        return self.b_size / self.a_size if self.a_size else 1.0

    @property
    def guarantee(self) -> float:
        """The proof's floor ``|A| * (1 - l / k^2)`` for ``|B|``."""
        return self.a_size * (1.0 - self.levels / (self.k * self.k))

    def largest_set(self) -> tuple[int, frozenset[int]]:
        """The index and members of the largest special set."""
        if not self.sets:
            return (0, frozenset())
        idx = max(self.sets, key=lambda i: (len(self.sets[i]), -i))
        return idx, self.sets[idx]

    def union(self) -> frozenset[int]:
        """``B``: all wires surviving in some special set."""
        return frozenset().union(*self.sets.values())


def run_lemma41(
    rdn: ReverseDeltaNetwork,
    pattern: Pattern | np.ndarray,
    k: int,
    *,
    shift_strategy: str | ShiftStrategy = "argmin",
    rng: np.random.Generator | None = None,
) -> Lemma41Result:
    """Run the Lemma 4.1 adversary on one reverse delta network.

    Parameters
    ----------
    rdn:
        The block; must cover wires ``0 .. n-1`` exactly.
    pattern:
        Input pattern using only ``S0``/``M0``/``L0`` (the lemma's
        precondition; validated), as a :class:`Pattern` or as its code
        array (``0``, ``n`` and ``2**62`` per wire).
    k:
        The lemma's parameter; the paper uses ``k = lg n``.
    shift_strategy:
        How ``i_0`` is chosen per node: ``"argmin"`` (default; never
        worse than the paper's averaging bound), ``"random"``,
        ``"worst"``, or a custom callable.
    rng:
        Seed-derived generator, required only by stochastic strategies
        (``"random"``); deterministic strategies never draw, and an
        omitted rng on a stochastic path raises
        :class:`~repro.errors.PatternError` rather than silently
        pinning every caller to one default stream.

    Returns
    -------
    Lemma41Result
        Property 4 is asserted when the strategy is ``"argmin"``.
    """
    if k < 1:
        raise PatternError(f"k must be positive, got {k}")
    n = len(pattern)
    if not rdn.covers(n):
        raise PatternError(
            "the block must cover the pattern's wires 0..n-1 exactly"
        )
    codes = _sml_codes(pattern)
    strategy: ShiftStrategy = (
        SHIFT_STRATEGIES[shift_strategy]
        if isinstance(shift_strategy, str)
        else shift_strategy
    )
    if rng is None and strategy is _shift_random:
        raise PatternError(
            "shift_strategy='random' draws from rng; pass a seed-derived "
            "np.random.Generator (there is no implicit default stream)"
        )
    tracer = get_tracer()
    with tracer.span(obs_events.SPAN_LEMMA41, n=n, levels=rdn.levels, k=k):
        sweep = _HeightSweep(rdn, codes, k, strategy, rng, tracer.enabled)
        sweep.run()
        result = sweep.result()
        if tracer.enabled:
            sweep.emit_events(tracer, result)
    if strategy is _shift_argmin:
        if result.b_size < result.guarantee - 1e-9:
            raise GuaranteeError(
                f"Lemma 4.1 guarantee violated: |B|={result.b_size} < "
                f"{result.guarantee} = |A|(1 - l/k^2)"
            )
    return result


#: Symbol code of ``L0``; see the module notes for the code of each symbol.
_LARGE = 1 << 62
_PLUS = OP_CODE[Op.PLUS]
_MINUS = OP_CODE[Op.MINUS]
_SWAP = OP_CODE[Op.SWAP]


def _band(codes: np.ndarray) -> np.ndarray:
    """Mask of the ``M``/``X`` codes."""
    return (codes > 0) & (codes < _LARGE)


def _medium(codes: np.ndarray, n: int) -> np.ndarray:
    """Mask of the ``M`` codes."""
    return _band(codes) & (codes % n == 0)


def _symbol(code: int, n: int) -> Symbol:
    """The symbol a code stands for (the inverse of the code map)."""
    if code == 0:
        return S(0)
    if code == _LARGE:
        return L(0)
    i, j = divmod(code - 1, n)
    return M(i) if j == n - 1 else X(i, j)


def _sml_codes(pattern: Pattern | np.ndarray) -> np.ndarray:
    """Fresh ``S0``/``M0``/``L0`` codes of a pattern or code array."""
    if isinstance(pattern, Pattern):
        pattern.validate_sml()
        sml = {S(0): 0, M(0): pattern.n, L(0): _LARGE}
        return np.fromiter(map(sml.__getitem__, pattern), dtype=np.int64)
    codes = _keys(pattern)
    bad = (codes != 0) & (codes != codes.size) & (codes != _LARGE)
    if bad.any():
        raise RefinementError(
            "pattern contains codes other than S0/M0/L0 (0, n, 2**62): "
            f"{np.unique(codes[bad])[:8].tolist()}"
        )
    return codes.astype(np.int64)


def _rho(codes: np.ndarray, pivot: int, n: int) -> np.ndarray:
    """Lemma 3.4's :math:`\\rho_i` on codes, ``pivot`` the code of ``M(i)``:
    the pivot becomes ``M0``, lower codes ``S0`` and higher codes ``L0``."""
    return np.where(codes == pivot, n, np.where(codes < pivot, 0, _LARGE))


def _decode(codes: np.ndarray) -> list[Symbol]:
    """The symbols of a code array (one lookup per distinct code)."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    table = [_symbol(code, codes.size) for code in distinct.tolist()]
    return list(map(table.__getitem__, inverse.tolist()))


def _state_view(codes: np.ndarray, tokens: np.ndarray) -> SymbolicState:
    """A cut's symbols, and ``position -> input wire`` of its tokens."""
    held = np.flatnonzero(tokens >= 0)
    origin = dict(zip(held.tolist(), tokens[held].tolist()))
    return SymbolicState(symbols=_decode(codes), origin=origin)


def _post_order(levels: int, h: int, count: int) -> np.ndarray:
    """Post-order numbers, among internal nodes, of the height-``h`` nodes.

    Node ``q`` of height ``h`` comes after the internal nodes of the
    subtrees wholly left of it -- ``sum_g floor(q 2^h / 2^g)`` of them --
    and after its own ``2^h - 2`` internal descendants.
    """
    first_leaf = np.arange(count, dtype=np.int64) << h
    heights = np.arange(1, levels + 1, dtype=np.int64)
    left = (first_leaf[:, None] >> heights).sum(axis=1)
    return left + (1 << h) - 2


class _HeightSweep:
    """The state of one Lemma 4.1 run, advanced one tree height at a time.

    ``assign`` holds the refined input pattern per wire, ``sym`` the
    symbol at each position and ``tok`` the input wire whose token sits
    at each position (``-1`` for none), all as int64 arrays; ``columns``
    holds the :class:`Lemma41Trace` columns, one row each, with one entry
    per internal node, indexed by post-order number.
    """

    def __init__(self, rdn, codes, k, strategy, rng, traced=False):
        n = codes.size
        self.n, self.k, self.k2 = n, k, k * k
        self.levels = rdn.levels
        # band indices stay below levels * k^2, so every code fits under L0
        if (self.levels * self.k2 + 1) * n >= _LARGE:
            raise PatternError(
                f"k={k} is too large for the int64 symbol codes of an "
                f"{self.levels}-level block on {n} wires"
            )
        self.rdn, self.rank = rdn, rdn.rank
        self.strategy, self.rng = strategy, rng
        self.assign = codes
        self.a_size = int(np.count_nonzero(self.assign == n))
        self.sym = self.assign.copy()
        self.tok = np.where(
            self.sym == n, np.arange(n, dtype=np.int64), np.int64(-1)
        )
        nodes = max(n - 1, 0)
        self.columns = np.zeros((len(fields(Lemma41Trace)), nodes), dtype=np.int64)
        #: traced runs only: how many collision sets C_ij each node has
        #: of each size, keyed by (node post-order number, size)
        self.traced = traced
        self.set_sizes: Counter[tuple[int, int]] = Counter()
        # one draw per node in post-order -- the recursion's draw order;
        # a sized draw yields the same stream as one scalar draw per node
        self.draws = (
            rng.integers(0, self.k2, size=nodes)
            if strategy is _shift_random
            else None
        )

    def run(self) -> None:
        """Process heights ``1 .. levels``."""
        for h, level in zip(itertools.count(1), self.rdn.levels_flat()):
            self.step(h, *level.arrays)

    def step(self, h: int, a: np.ndarray, b: np.ndarray, ops: np.ndarray) -> None:
        """Every height-``h`` node's step, one array operation each."""
        n, rank, sym, tok = self.n, self.rank, self.sym, self.tok
        count = n >> h
        post = _post_order(self.levels, h, count)

        # collision scan: comparators whose both ends hold tokens
        compares = ops <= _MINUS
        hit = np.flatnonzero(compares & (tok[a] >= 0) & (tok[b] >= 0))
        pos = a[hit]
        sa, sb = sym[pos], sym[b[hit]]
        assert _medium(sa, n).all() and _medium(sb, n).all(), (
            "tracked token lost its symbol"
        )
        i, j = sa // n - 1, sb // n - 1
        owner = rank[pos] >> h
        if self.traced:
            self.tally(post[owner], i, j)
        collisions = np.bincount(owner, minlength=count)

        # i0 per node from its k^2-entry loss table
        i0 = self.choose(post, owner, i - j, count)

        # demotion of the matched child-0 tokens to X(i, j0)
        matched = (i - j) == i0[owner]
        pos, owner = pos[matched], owner[matched]
        demoted_code = i[matched] * n + 1 + post[owner]
        self.assign[tok[pos]] = demoted_code
        sym[pos] = demoted_code
        tok[pos] = -1

        # child-1 band symbols move up by i0
        if i0.any():
            side1 = ((rank >> (h - 1)) & 1).astype(bool)
            delta = np.where(side1, i0[rank >> h] * n, 0)
            self.assign += np.where(_band(self.assign), delta, 0)
            sym += np.where(_band(sym), delta, 0)

        # the final level on the symbolic state
        sa, sb = sym[a], sym[b]
        tie = compares & (sa == sb)
        if (tie & ((tok[a] >= 0) | (tok[b] >= 0))).any():
            raise PropagationError(
                "two equal-symbol tokens met at the final level after "
                "demotion; this indicates a bug in the recombination"
            )
        flip = (ops == _SWAP) | (compares & ~tie & ((sa < sb) != (ops == _PLUS)))
        fa, fb = a[flip], b[flip]
        sym[fa], sym[fb] = sym[fb], sym[fa]
        tok[fa], tok[fb] = tok[fb], tok[fa]

        mediums = rank[np.flatnonzero(_medium(self.assign, n))] >> h
        height, collided, shift, demoted, after = self.columns
        height[post] = h
        collided[post] = collisions
        shift[post] = i0
        demoted[post] = np.bincount(owner, minlength=count)
        after[post] = np.bincount(mediums, minlength=count)

    def tally(self, node: np.ndarray, i: np.ndarray, j: np.ndarray) -> None:
        """Count one height's collision sets into :attr:`set_sizes`;
        collision ``c`` joins set ``C_ij`` of node ``node[c]``."""
        sets = Counter(zip(node.tolist(), i.tolist(), j.tolist()))
        self.set_sizes.update((q, size) for (q, _, _), size in sets.items())

    def choose(
        self, post: np.ndarray, owner: np.ndarray, s: np.ndarray, count: int
    ) -> np.ndarray:
        """The shift ``i0`` of each of the ``count`` nodes of one height."""
        k2 = self.k2
        if self.draws is not None:
            return self.draws[post]
        valid = (s >= 0) & (s < k2)
        rows, row_of = np.unique(owner[valid], return_inverse=True)
        table = np.bincount(
            row_of * k2 + s[valid], minlength=len(rows) * k2
        ).reshape(len(rows), k2)
        i0 = np.zeros(count, dtype=np.int64)
        if self.strategy is _shift_argmin:
            i0[rows] = table.argmin(axis=1)
        elif self.strategy is _shift_worst:
            i0[rows] = table.argmax(axis=1)
        else:
            tables = dict(zip(rows.tolist(), table.tolist()))
            picks = [
                self.strategy(tables.get(q) or [0] * k2, self.k, self.rng)
                for q in range(count)
            ]
            bad = [p for p in picks if not 0 <= p < k2]
            if bad:
                raise PatternError(
                    f"shift strategy returned {bad[0]} outside [0, {k2})"
                )
            i0[:] = picks
        return i0

    def result(self) -> Lemma41Result:
        """The run's outcome; its arrays are the sweep's, made read-only."""
        n, k, levels = self.n, self.k, self.levels
        wires = np.flatnonzero(_medium(self.assign, n))
        index = self.assign[wires] // n - 1
        order = np.argsort(index, kind="stable")
        keys, starts = np.unique(index[order], return_index=True)
        groups = np.split(wires[order], starts[1:])
        sets = {
            key: frozenset(group.tolist())
            for key, group in zip(keys.tolist(), groups)
        }
        t = t_sets(levels, k)
        assert all(0 <= i < t for i in sets), "set index outside t(l)"
        for table in (self.assign, self.sym, self.tok, self.columns):
            table.setflags(write=False)
        return Lemma41Result(
            self.assign,
            self.sym,
            self.tok,
            sets=sets,
            t=t,
            k=k,
            levels=levels,
            a_size=self.a_size,
            b_size=len(wires),
            trace=Lemma41Trace(*self.columns),
        )

    def emit_events(self, tracer, result: Lemma41Result) -> None:
        """One ``EV_NODE`` event per node in post-order, then the summary."""
        trace = result.trace
        by_node = {
            q: {str(size): number for (_, size), number in group}
            for q, group in itertools.groupby(
                sorted(self.set_sizes.items()), key=lambda row: row[0][0]
            )
        }
        histograms = [by_node.get(q, {}) for q in range(trace.height.size)]
        for height, collisions, shift, demoted, after, histogram in zip(
            *self.columns.tolist(), histograms
        ):
            tracer.event(
                obs_events.EV_NODE,
                height=height,
                collisions=collisions,
                collision_sets=sum(histogram.values()),
                histogram=histogram,
                shift=shift,
                matched=demoted,
                demoted=demoted,
                elements_after=after,
            )
        tracer.event(
            obs_events.EV_SUMMARY,
            levels=result.levels,
            k=result.k,
            a_size=result.a_size,
            b_size=result.b_size,
            sets=len(result.sets),
            collisions=trace.total_collisions,
            demoted=trace.total_demoted,
            demote_steps=int(np.count_nonzero(trace.demoted)),
            shift_steps=int(np.count_nonzero(trace.chosen_shift)),
        )
