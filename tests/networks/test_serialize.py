"""Round-trip tests for JSON serialisation."""

import numpy as np
import pytest

from repro.errors import ReproError, WireError
from repro.networks.gates import Gate, Op
from repro.networks.level import Level
from repro.networks import serialize
from repro.networks.builders import (
    bitonic_iterated_rdn,
    random_iterated_rdn,
    random_reverse_delta,
)
from repro.networks.registers import RegisterProgram
from repro.sorters.bitonic import bitonic_shuffle_program, bitonic_sorting_network


class TestRoundTrips:
    def test_network(self, rng):
        net = bitonic_sorting_network(8)
        restored = serialize.loads(serialize.dumps(net))
        assert restored == net

    def test_network_with_permutations(self, rng):
        net = bitonic_shuffle_program(8).to_network()
        restored = serialize.loads(serialize.dumps(net))
        assert restored == net
        x = rng.permutation(8)
        assert (restored.evaluate(x) == net.evaluate(x)).all()

    def test_rdn(self, rng):
        rdn = random_reverse_delta(16, rng)
        restored = serialize.loads(serialize.dumps(rdn))
        a, b = rdn.to_network(), restored.to_network()
        assert a == b

    def test_iterated(self, rng):
        it = random_iterated_rdn(8, 2, rng)
        restored = serialize.loads(serialize.dumps(it))
        x = rng.permutation(8)
        assert (restored.to_network().evaluate(x) == it.to_network().evaluate(x)).all()

    def test_program(self, rng):
        prog = bitonic_shuffle_program(8)
        restored = serialize.loads(serialize.dumps(prog))
        assert isinstance(restored, RegisterProgram)
        assert restored.is_shuffle_based()
        x = rng.permutation(8)
        assert (restored.to_network().evaluate(x) == np.arange(8)).all()

    def test_indent_readable(self):
        text = serialize.dumps(bitonic_iterated_rdn(4), indent=2)
        assert "\n" in text


class TestErrors:
    def test_unknown_object(self):
        with pytest.raises(ReproError):
            serialize.dumps(42)

    def test_bad_version(self):
        with pytest.raises(ReproError):
            serialize.loads('{"version": 99, "payload": {"kind": "network"}}')

    def test_bad_kind(self):
        with pytest.raises(ReproError):
            serialize.loads('{"version": 1, "payload": {"kind": "nope"}}')

    def test_kind_mismatch(self):
        doc = serialize.network_to_json(bitonic_sorting_network(4))
        with pytest.raises(WireError):
            serialize.rdn_from_json(doc)


def _gatewise(items):
    """How a level was read before it became one conversion per column:
    one ``Gate`` per ``[a, b, op]`` triple, then ``Level``."""
    return Level(_gate_from_json(item) for item in items)


def _gate_from_json(item):
    a, b, op = item
    return Gate(int(a), int(b), Op.from_str(op))


def _outcome(parse, items):
    try:
        level = parse(items)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("error", type(exc))
    return ("ok", *(arr.tolist() for arr in level.arrays))


class TestLevelDocuments:
    """A level's ``[a, b, op]`` triples are read a column at a time; the
    reader accepts and refuses what the gate-wise reader did, with the
    same exception types."""

    @pytest.mark.parametrize(
        "items",
        [
            pytest.param([], id="empty"),
            pytest.param([[0, 1, "+"], [3, 2, "-"], [4, 5, "0"], [7, 6, "1"]],
                         id="every-op"),
            pytest.param([["0", "1", "+"]], id="digit-strings"),
            pytest.param([[0.0, 1.9, "+"]], id="floats-truncate"),
            pytest.param([[True, 3, "+"]], id="bool-endpoint"),
            pytest.param(["01+"], id="string-triple"),
            pytest.param([[0, 1]], id="short"),
            pytest.param([[0, 1, "+", 5]], id="long"),
            pytest.param([[0, 1, "+"], [2, 3]], id="one-short"),
            pytest.param([[0, 1, "+"], [2, 3, "+", 4]], id="one-long"),
            pytest.param([5], id="not-a-triple"),
            pytest.param(None, id="not-a-list"),
            pytest.param([[0, "x", "+"]], id="bad-digits"),
            pytest.param([[0, None, "+"]], id="null-endpoint"),
            pytest.param([[float("inf"), 1, "+"]], id="infinite-endpoint"),
            pytest.param([[float("nan"), 1, "+"]], id="nan-endpoint"),
            pytest.param([[0, 1, "?"]], id="unknown-op"),
            pytest.param([[0, 1, ["+"]]], id="list-op"),
            pytest.param([[0, 1, 1]], id="numeric-op"),
            pytest.param([[1, 1, "+"]], id="equal-endpoints"),
            pytest.param([[-1, 2, "+"]], id="negative-endpoint"),
            pytest.param([[0, 2**63, "+"]], id="beyond-int64"),
            pytest.param([[0, 1, "+"], [1, 2, "-"]], id="wire-twice"),
        ],
    )
    def test_reads_like_the_gatewise_reader(self, items):
        expected = _outcome(_gatewise, items)
        assert _outcome(serialize._level_from_json, items) == expected
        doc = {"kind": "network", "n": 2**62, "stages": [{"gates": items}]}
        if expected[0] == "error":
            with pytest.raises(expected[1]):
                serialize.network_from_json(doc)

    def test_tree_level_with_a_repeated_wire_is_a_topology_error(self):
        from repro.errors import TopologyError

        leaf = [{"kind": "rdn", "wire": w} for w in range(4)]
        pair = [{"kind": "rdn", "child0": leaf[i], "child1": leaf[i + 1],
                 "final": []} for i in (0, 2)]
        doc = {"kind": "rdn", "child0": pair[0], "child1": pair[1],
               "final": [[0, 2, "+"], [0, 3, "+"]]}
        with pytest.raises(TopologyError, match="touched by two gates"):
            serialize.rdn_from_json(doc)
