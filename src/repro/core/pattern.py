"""Input patterns and pattern refinement (Definitions 3.1-3.3).

An *input pattern* is a total mapping from the wire set ``W`` to the
pattern alphabet ``P``.  Here ``W`` is always ``range(n)`` (wire
positions), so a :class:`Pattern` is an immutable sequence of
:class:`~repro.core.alphabet.Symbol`.

``p`` *can be refined to* ``q`` (written :math:`p \\sqsupset_W q`) iff
``p(w) < p(w')`` implies ``q(w) < q(w')`` for all wires; refinement only
ever *adds* ordering constraints.  A pattern stands for the set ``p[V]``
of inputs it can be refined to; refinement therefore shrinks that set:
:math:`p \\sqsupset_W q \\Leftrightarrow p[V] \\supseteq q[V]`.

The module implements the refinement predicates, U-refinement, the
disjoint union :math:`\\oplus`, equivalence (order-preserving renaming),
refinement to concrete inputs, enumeration/counting of ``p[V]``, and the
:math:`\\rho_i` renaming of Lemma 3.4.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import PatternError, RefinementError
from ..obs import events as obs_events
from ..obs.trace import get_tracer
from .alphabet import L, M, S, Symbol, rename_against_pivot, sort_symbols

__all__ = ["Pattern", "sml_pattern", "all_medium_pattern", "combine", "oplus_parts"]


class Pattern:
    """An input pattern on wires ``0 .. n-1``.

    Parameters
    ----------
    symbols:
        One :class:`Symbol` per wire.
    """

    __slots__ = ("_symbols",)

    def __init__(self, symbols: Iterable[Symbol]):
        symbols = tuple(symbols)
        for s in symbols:
            if not isinstance(s, Symbol):
                raise PatternError(f"expected Symbol, got {type(s).__name__}")
        if not symbols:
            raise PatternError("a pattern needs at least one wire")
        self._symbols = symbols

    # -- protocol ------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of wires."""
        return len(self._symbols)

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        """The symbol per wire."""
        return self._symbols

    def __getitem__(self, wire: int) -> Symbol:
        return self._symbols[wire]

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self._symbols)

    def __len__(self) -> int:
        return len(self._symbols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:
        if self.n <= 16:
            return f"Pattern([{', '.join(map(repr, self._symbols))}])"
        return f"Pattern(n={self.n})"

    # -- structure -----------------------------------------------------------
    def symbol_set(self) -> set[Symbol]:
        """The distinct symbols occurring in the pattern."""
        return set(self._symbols)

    def positions_of(self, sym: Symbol) -> frozenset[int]:
        """The ``[sym]``-set: wires carrying exactly ``sym``."""
        return frozenset(w for w, s in enumerate(self._symbols) if s is sym)

    def m_set(self, i: int = 0) -> frozenset[int]:
        """The :math:`[\\mathcal{M}_i]`-set of the pattern."""
        return self.positions_of(M(i))

    def restrict(self, wires: Iterable[int]) -> dict[int, Symbol]:
        """The restriction ``p|_U`` of Definition 3.2, as a wire->symbol map.

        Sub-patterns on arbitrary wire subsets are represented as plain
        mappings; :func:`oplus_parts` reassembles them (Definition 3.3's
        general :math:`\\oplus`).
        """
        out: dict[int, Symbol] = {}
        for w in wires:
            if not 0 <= w < self.n:
                raise PatternError(f"wire {w} out of range [0, {self.n})")
            out[int(w)] = self._symbols[w]
        return out

    def groups_in_order(self) -> list[tuple[Symbol, list[int]]]:
        """Wires grouped by symbol, groups sorted by :math:`<_P`."""
        buckets: dict[Symbol, list[int]] = {}
        for w, s in enumerate(self._symbols):
            buckets.setdefault(s, []).append(w)
        return [(s, buckets[s]) for s in sorted(buckets, key=lambda s: s.key)]

    def with_symbols(self, replacements: Mapping[int, Symbol]) -> "Pattern":
        """A copy with the symbols of the given wires replaced."""
        syms = list(self._symbols)
        for w, s in replacements.items():
            syms[w] = s
        return Pattern(syms)

    # -- refinement (Definition 3.1) ------------------------------------------
    def refines_to(self, other: "Pattern") -> bool:
        """True iff ``self`` can be refined to ``other``.

        Checked in :math:`O(n \\lg n)`: order the wires by the coarse
        pattern's symbol, ties by the fine one; then every group's first
        fine symbol must exceed every fine symbol of the lower groups.
        """
        if other.n != self.n:
            return False
        coarse, fine = _keys(self), _keys(other)
        order = np.lexsort((fine, coarse))
        fine = fine[order]
        first = np.flatnonzero(np.diff(coarse[order])) + 1
        return bool((np.maximum.accumulate(fine)[first - 1] < fine[first]).all())

    def u_refines_to(self, other: "Pattern", U: Iterable[int]) -> bool:
        """U-refinement (Definition 3.2): refinement fixing wires outside U."""
        u_set = set(U)
        if other.n != self.n:
            return False
        for w in range(self.n):
            if w not in u_set and self._symbols[w] is not other._symbols[w]:
                return False
        return self.refines_to(other)

    def is_equivalent_to(self, other: "Pattern") -> bool:
        """Mutual refinement -- i.e. related by an order-preserving renaming."""
        return self.refines_to(other) and other.refines_to(self)

    # -- refinement to concrete inputs -----------------------------------------
    def admits_input(self, values: Sequence[int] | np.ndarray) -> bool:
        """True iff the pattern can be refined to this input permutation:
        the wires in order of value carry nondecreasing symbols."""
        values = np.asarray(values)
        if values.shape != (self.n,):
            return False
        if sorted(map(int, values)) != list(range(self.n)):
            return False
        return bool((np.diff(_keys(self)[np.argsort(values)]) >= 0).all())

    def refine_to_input(
        self, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """One concrete input in ``p[V]``.

        Wires are ranked by symbol; ties within a symbol group are broken
        by wire index, or uniformly at random when ``rng`` is given.
        Values ``0 .. n-1`` are assigned in rank order, so equal-symbol
        wires always receive *consecutive* values -- the property
        Corollary 4.1.1 uses to place adjacent values on the special set.
        """
        return _refine(_keys(self), rng)

    def input_count(self) -> int:
        """``|p[V]|`` -- the number of inputs the pattern refines to."""
        _, sizes = np.unique(_keys(self), return_counts=True)
        return math.prod(map(math.factorial, sizes.tolist()))

    def enumerate_inputs(self) -> Iterator[np.ndarray]:
        """Yield every input in ``p[V]`` (use only for small patterns)."""
        groups = [wires for _, wires in self.groups_in_order()]
        wires = list(itertools.chain(*groups))
        ends = np.cumsum([len(group) for group in groups]).tolist()
        blocks = [range(end - len(group), end) for group, end in zip(groups, ends)]
        for assignment in itertools.product(*map(itertools.permutations, blocks)):
            values = np.empty(self.n, dtype=np.int64)
            values[wires] = list(itertools.chain(*assignment))
            yield values

    # -- renamings --------------------------------------------------------------
    def rho(self, i: int) -> "Pattern":
        """The :math:`\\rho_i` renaming of Lemma 3.4.

        Symbols below :math:`\\mathcal{M}_i` become :math:`\\mathcal{S}_0`,
        symbols above become :math:`\\mathcal{L}_0`, and
        :math:`\\mathcal{M}_i` becomes :math:`\\mathcal{M}_0`.  The
        :math:`[\\mathcal{M}_i]`-set keeps its noncollision property under
        this renaming because the relative order of the medium tokens
        against everything else is unchanged.
        """
        pivot = M(i)
        renamed = Pattern(rename_against_pivot(self._symbols, pivot))
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                obs_events.EV_RHO,
                index=i,
                medium_before=sum(1 for s in self._symbols if s is pivot),
                medium_after=len(renamed.m_set(0)),
            )
        return renamed

    def validate_sml(self) -> None:
        """Assert only :math:`S_0, M_0, L_0` occur (Lemma 4.1 precondition)."""
        allowed = {S(0), M(0), L(0)}
        extra = self.symbol_set() - allowed
        if extra:
            raise RefinementError(
                f"pattern contains symbols other than S0/M0/L0: {sorted(extra, key=lambda s: s.key)}"
            )


def _keys(pattern: "Pattern | np.ndarray") -> np.ndarray:
    """An order-preserving integer key per wire: a code array as given,
    or the dense rank of each wire's symbol in a :class:`Pattern`."""
    if isinstance(pattern, Pattern):
        rank = {s: r for r, s in enumerate(sort_symbols(pattern.symbol_set()))}
        return np.fromiter(map(rank.__getitem__, pattern), dtype=np.int64)
    keys = np.asarray(pattern)
    if keys.ndim != 1 or keys.dtype.kind not in "iu":
        raise PatternError(f"codes must be 1-D integers, got {keys.dtype} {keys.shape}")
    return keys


def _refine(keys: np.ndarray, rng: np.random.Generator | None = None) -> np.ndarray:
    """Corollary 4.1.1's refinement of an order-preserving key per wire.

    Wires are ranked by key, ties broken by wire index (a stable
    argsort); with ``rng`` each tie group's slice of the rank order is
    shuffled, groups in key order.  Wire of rank ``r`` gets value ``r``.
    """
    order = np.argsort(keys, kind="stable")
    if rng is not None:
        for group in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
            rng.shuffle(group)  # a view: shuffles its slice of ``order``
    values = np.empty(keys.size, dtype=np.int64)
    values[order] = np.arange(keys.size, dtype=np.int64)
    return values


def sml_pattern(
    n: int,
    medium: Iterable[int],
    small: Iterable[int] = (),
    large: Iterable[int] = (),
) -> Pattern:
    """The canonical three-symbol pattern of Theorem 4.1.

    Wires in ``medium`` get :math:`\\mathcal{M}_0`; ``small`` and
    ``large`` get :math:`\\mathcal{S}_0` / :math:`\\mathcal{L}_0`.  Wires
    in none of the three default to :math:`\\mathcal{S}_0`; overlaps are
    an error.
    """
    syms: list[Symbol | None] = [None] * n
    for name, wires, sym in (
        ("medium", medium, M(0)),
        ("small", small, S(0)),
        ("large", large, L(0)),
    ):
        for w in wires:
            if not 0 <= w < n:
                raise PatternError(f"{name} wire {w} out of range [0, {n})")
            if syms[w] is not None:
                raise PatternError(f"wire {w} assigned two symbols")
            syms[w] = sym
    return Pattern(s if s is not None else S(0) for s in syms)


def all_medium_pattern(n: int) -> Pattern:
    """The starting pattern of Theorem 4.1: every wire :math:`\\mathcal{M}_0`."""
    return Pattern([M(0)] * n)


def combine(p0: Pattern, p1: Pattern) -> Pattern:
    """Disjoint union on consecutive wire blocks: ``p0`` then ``p1``.

    (Definition 3.3's :math:`\\oplus` for the common case where the two
    wire sets are the two halves of ``range(n)``.)
    """
    return Pattern(p0.symbols + p1.symbols)


def oplus_parts(n: int, *parts: Mapping[int, Symbol]) -> Pattern:
    """Definition 3.3's general :math:`\\oplus` on arbitrary wire subsets.

    Each part maps wires to symbols; the parts must be pairwise disjoint
    and together cover ``range(n)`` exactly.
    """
    syms: list[Symbol | None] = [None] * n
    for part in parts:
        for w, sym in part.items():
            if not 0 <= w < n:
                raise PatternError(f"wire {w} out of range [0, {n})")
            if syms[w] is not None:
                raise PatternError(f"wire {w} appears in two parts")
            if not isinstance(sym, Symbol):
                raise PatternError(f"expected Symbol for wire {w}")
            syms[w] = sym
    missing = [w for w, sym in enumerate(syms) if sym is None]
    if missing:
        raise PatternError(f"wires not covered by any part: {missing[:8]}")
    return Pattern(syms)  # type: ignore[arg-type]
