"""Unit tests for repro.networks.level."""

import numpy as np
import pytest

from repro.errors import LevelConflictError, WireError
from repro.networks.gates import OPS, Gate, Op, comparator, exchange, passthrough
from repro.networks.level import Level


class TestConstruction:
    def test_empty_level(self):
        lvl = Level()
        assert len(lvl) == 0
        assert lvl.comparator_count == 0
        assert lvl.max_wire == -1

    def test_rejects_shared_wire(self):
        with pytest.raises(LevelConflictError):
            Level([comparator(0, 1), comparator(1, 2)])

    def test_rejects_non_gate(self):
        with pytest.raises(WireError):
            Level([(0, 1)])  # type: ignore[list-item]

    def test_touched_wires(self):
        lvl = Level([comparator(0, 3), exchange(1, 2)])
        assert lvl.touched_wires == {0, 1, 2, 3}

    def test_gate_on(self):
        g = comparator(0, 3)
        lvl = Level([g])
        assert lvl.gate_on(3) is g
        assert lvl.gate_on(1) is None

    def test_comparator_count_excludes_switches(self):
        lvl = Level([comparator(0, 1), exchange(2, 3), passthrough(4, 5)])
        assert lvl.comparator_count == 1
        assert len(lvl) == 3

    def test_equality_hash(self):
        a = Level([comparator(0, 1)])
        b = Level([comparator(0, 1)])
        assert a == b and hash(a) == hash(b)


class TestApply:
    def test_plus_and_minus(self):
        lvl = Level([Gate(0, 1, Op.PLUS), Gate(2, 3, Op.MINUS)])
        x = np.array([9, 1, 1, 9])
        lvl.apply_inplace(x)
        assert list(x) == [1, 9, 9, 1]

    def test_swap_and_nop(self):
        lvl = Level([Gate(0, 1, Op.SWAP), Gate(2, 3, Op.NOP)])
        x = np.array([1, 2, 3, 4])
        lvl.apply_inplace(x)
        assert list(x) == [2, 1, 3, 4]

    def test_batch_matches_scalar(self, rng):
        gates = [Gate(0, 5, Op.PLUS), Gate(1, 4, Op.MINUS), Gate(2, 3, Op.SWAP)]
        lvl = Level(gates)
        batch = rng.integers(0, 100, size=(20, 6))
        expected = batch.copy()
        for row in expected:
            lvl.apply_inplace(row)
        got = batch.copy()
        lvl.apply_inplace(got)
        assert (got == expected).all()

    def test_untouched_wires_unchanged(self, rng):
        lvl = Level([comparator(1, 3)])
        x = rng.integers(0, 100, size=6)
        before = x.copy()
        lvl.apply_inplace(x)
        for w in (0, 2, 4, 5):
            assert x[w] == before[w]

    def test_apply_idempotent_for_comparators(self, rng):
        lvl = Level([comparator(0, 1), comparator(2, 3)])
        x = rng.integers(0, 100, size=4)
        lvl.apply_inplace(x)
        once = x.copy()
        lvl.apply_inplace(x)
        assert (x == once).all()


class TestNormalized:
    def test_normalized_sorts_and_orients(self):
        lvl = Level([Gate(5, 2, Op.PLUS), Gate(0, 1, Op.PLUS)])
        norm = lvl.normalized()
        assert [g.a for g in norm] == [0, 2]
        assert all(g.a < g.b for g in norm)

    def test_normalized_behaviour_equal(self, rng):
        lvl = Level([Gate(5, 2, Op.PLUS), Gate(4, 0, Op.MINUS)])
        norm = lvl.normalized()
        x = rng.integers(0, 50, size=6)
        y = x.copy()
        lvl.apply_inplace(x)
        norm.apply_inplace(y)
        assert (x == y).all()


class TestArrayForm:
    """The array form the checks and evaluation run on."""

    GATES = [Gate(0, 5, Op.PLUS), Gate(4, 1, Op.MINUS), Gate(2, 3, Op.SWAP),
             Gate(6, 7, Op.NOP)]

    def test_arrays_follow_gate_order(self):
        a, b, ops = Level(self.GATES).arrays
        assert a.tolist() == [0, 4, 2, 6] and b.tolist() == [5, 1, 3, 7]
        assert [OPS[c] for c in ops.tolist()] == [g.op for g in self.GATES]
        assert a.dtype == b.dtype == np.int64

    def test_arrays_are_read_only(self):
        a, b, ops = Level(self.GATES).arrays
        with pytest.raises(ValueError):
            a[0] = 3

    def test_derived_data(self):
        lvl = Level(self.GATES)
        assert len(lvl) == 4 and lvl.comparator_count == 2
        assert lvl.touched_wires == set(range(8)) and lvl.max_wire == 7

    def test_partners(self):
        partner, compares = Level(self.GATES).partners
        assert partner.tolist() == [5, 4, 3, 2, 1, 0, 7, 6]
        assert compares.tolist() == [True, True, False, False,
                                     True, True, False, False]
        empty_partner, _ = Level().partners
        assert empty_partner.size == 0

    @pytest.mark.parametrize(
        "gates, wire",
        [
            ([comparator(0, 1), comparator(1, 2)], 1),
            ([comparator(0, 3), exchange(2, 3)], 3),
            ([comparator(4, 5), comparator(0, 3), exchange(5, 2), exchange(3, 4)], 5),
        ],
    )
    def test_conflict_names_the_first_repeated_wire(self, gates, wire):
        with pytest.raises(LevelConflictError,
                           match=f"^wire {wire} is touched by two gates"):
            Level(gates)

    @pytest.mark.parametrize("bad", [1.0, 2.5, True])
    def test_non_integer_endpoint(self, bad):
        with pytest.raises(WireError, match="wire index must be an integer"):
            Level([comparator(2, 3), Gate(0, bad)])

    def test_numpy_integer_endpoints(self):
        lvl = Level([Gate(np.int64(0), np.int32(1))])
        assert lvl == Level([comparator(0, 1)])

    def test_endpoint_beyond_int64(self):
        with pytest.raises(WireError, match="int64"):
            Level([Gate(0, 2**63)])

    @pytest.mark.parametrize("gates, wire", [
        ([comparator(0, 1), comparator(9, 2)], 9),
        ([comparator(0, 1), comparator(2, 7)], 7),
    ])
    def test_range_check_names_the_first_bad_wire(self, gates, wire):
        from repro.networks.network import ComparatorNetwork

        with pytest.raises(WireError, match=rf"^wire index {wire} out of range \[0, 4\)$"):
            ComparatorNetwork(4, [Level(gates)])


def _from_gates(a, b, ops):
    return Level([Gate(x, y, OPS[c] if c < len(OPS) else "x")
                  for x, y, c in zip(a, b, ops)])


def _from_arrays(a, b, ops):
    """Arrays of NumPy's own dtype for the values (int64, or uint64 past
    the int64 range)."""
    a, b = (np.array(x) if x else np.zeros(0, dtype=np.int64) for x in (a, b))
    return Level.from_arrays(a, b, np.array(ops, dtype=np.int8))


class TestEntryParity:
    """``Level(gates)`` and ``Level.from_arrays`` make the same level and
    refuse the same inputs: both run one validation of the arrays."""

    @pytest.mark.parametrize(
        "a, b, ops",
        [
            ([], [], []),
            ([0], [1], [0]),
            ([5, 2, 7, 0], [4, 3, 6, 1], [0, 1, 2, 3]),
            ([9, 1], [2, 40], [1, 1]),
        ],
    )
    def test_entries_agree(self, a, b, ops):
        by_gates, by_arrays = _from_gates(a, b, ops), _from_arrays(a, b, ops)
        for x, y in zip(by_gates.arrays, by_arrays.arrays):
            assert x.dtype == y.dtype and x.tolist() == y.tolist()
        assert len(by_gates) == len(by_arrays) == len(a)
        assert by_gates == by_arrays and hash(by_gates) == hash(by_arrays)
        assert by_gates.gates == by_arrays.gates

    def test_gates_view_is_built_once_and_kept(self):
        level = _from_arrays([0, 2], [1, 3], [0, 3])
        assert level.gates is level.gates
        assert level.gates == (comparator(0, 1), exchange(2, 3))
        given = (comparator(0, 1),)
        assert Level(given).gates is given

    @pytest.mark.parametrize(
        "a, b, ops, error",
        [
            pytest.param([3], [3], [0], WireError, id="equal-endpoints"),
            pytest.param([-1], [2], [0], WireError, id="negative-endpoint"),
            pytest.param([0, 1], [1, 2], [0, 0], LevelConflictError, id="wire-twice"),
            pytest.param([0], [1], [len(OPS)], WireError, id="unknown-op"),
            pytest.param([0], [2**63], [0], WireError, id="beyond-int64"),
        ],
    )
    def test_entries_refuse_alike(self, a, b, ops, error):
        with pytest.raises(error):
            _from_gates(a, b, ops)
        with pytest.raises(error):
            _from_arrays(a, b, ops)

    @pytest.mark.parametrize(
        "arrays",
        [
            pytest.param(([0], [1], [0, 0]), id="lengths-differ"),
            pytest.param(([[0]], [[1]], [0]), id="two-dimensional"),
            pytest.param(([0.0], [1.0], [0]), id="float-endpoints"),
        ],
    )
    def test_array_entry_checks_its_arrays(self, arrays):
        a, b, ops = (np.array(x) for x in arrays)
        with pytest.raises(WireError):
            Level.from_arrays(a, b, ops)

    def test_reoriented_and_normalized(self):
        level = _from_arrays([5, 0, 2], [1, 4, 3], [0, 1, 3])
        turned = level.reoriented(np.array([True, False, True]))
        assert turned.gates == (Gate(1, 5, Op.MINUS), Gate(0, 4, Op.MINUS),
                                Gate(3, 2, Op.SWAP))
        assert [g.wires for g in level.normalized()] == [(0, 4), (1, 5), (2, 3)]
