"""Mutation fuzzing of the certificate verifier.

The verifier is the library's trust anchor: any mutation of a genuine
certificate must be rejected.  We fuzz all fields systematically, run a
fixed suite of one-defect mutations, and check the O(depth) judge
against the traced-evaluation definition of "m and m+1 never meet" on
random small networks with stage permutations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.certificates import NonSortingCertificate
from repro.core.fooling import prove_not_sorting
from repro.errors import CertificateError
from repro.networks.builders import butterfly_rdn
from repro.networks.delta import IteratedReverseDeltaNetwork


@pytest.fixture(scope="module")
def genuine():
    n = 16
    net = IteratedReverseDeltaNetwork(n, [(None, butterfly_rdn(n))])
    outcome = prove_not_sorting(net, rng=np.random.default_rng(0))
    assert outcome.certificate is not None
    return net.to_network(), outcome.certificate


def test_genuine_verifies(genuine):
    flat, cert = genuine
    assert cert.verify(flat)


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(["input_a", "input_b", "wires", "values"]),
    i=st.integers(0, 15),
    j=st.integers(0, 15),
)
def test_mutated_certificates_rejected(genuine, field, i, j):
    """Swapping any two entries of any field breaks verification, unless
    the mutation happens to be the identity."""
    flat, cert = genuine
    input_a = cert.input_a.copy()
    input_b = cert.input_b.copy()
    wires = list(cert.wires)
    values = list(cert.values)
    if field in ("input_a", "input_b"):
        arr = input_a if field == "input_a" else input_b
        if i == j:
            return
        arr[i], arr[j] = arr[j], arr[i]
        # identity mutation if both entries were equal (impossible for perms)
    elif field == "wires":
        wires = [i, j]
        if tuple(wires) == cert.wires or i == j:
            return
    else:
        values = [i, j]
        if tuple(values) == cert.values:
            return
    mutated = NonSortingCertificate(
        input_a=input_a,
        input_b=input_b,
        wires=(wires[0], wires[1]),
        values=(values[0], values[1]),
    )
    # a mutated certificate may only verify if it is accidentally another
    # *genuine* certificate: same swap semantics and uncompared values.
    if mutated.verify(flat, strict=False):
        # then it must itself be internally consistent: re-check manually
        trace = flat.trace(mutated.input_a)
        assert not trace.were_compared(*mutated.values)
        out_a = trace.output
        out_b = flat.evaluate(mutated.input_b)
        assert sorted(out_a.tolist()) == sorted(out_b.tolist())
    # and the common case: rejection


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["bitonic", "random_iterated"]),
    blocks=st.integers(1, 2),
    seed=st.integers(0, 5),
)
def test_roundtripped_certificates_still_verify(family, blocks, seed):
    """to_json/from_json is lossless where it matters: the deserialised
    certificate verifies against the same network the original did."""
    from repro.experiments.workloads import seeded_family

    net = seeded_family(family, 16, blocks, seed)
    outcome = prove_not_sorting(net, rng=np.random.default_rng(seed))
    if outcome.certificate is None:
        return
    flat = net.to_network()
    cert = outcome.certificate
    assert cert.verify(flat)
    back = NonSortingCertificate.from_json(cert.to_json())
    assert back.verify(flat)
    assert (back.input_a == cert.input_a).all()
    assert (back.input_b == cert.input_b).all()
    assert back.wires == cert.wires
    assert back.values == cert.values
    # the round trip is a fixed point
    assert NonSortingCertificate.from_json(back.to_json()).to_json() == cert.to_json()


def test_from_json_rejects_wrong_kind(genuine):
    from repro.errors import CertificateError

    _, cert = genuine
    doc = cert.to_json()
    doc["kind"] = "something-else"
    with pytest.raises(CertificateError):
        NonSortingCertificate.from_json(doc)


# -- the O(depth) judge against the trace-based definition ------------------


@st.composite
def staged_networks(draw):
    """Small networks whose stages carry permutations, exchanges and NOPs."""
    from repro.networks.gates import Gate, Op
    from repro.networks.level import Level
    from repro.networks.network import ComparatorNetwork, Stage
    from repro.networks.permutations import Permutation

    n = draw(st.integers(2, 12))
    depth = draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    stages = []
    for _ in range(depth):
        wires = rng.permutation(n).tolist()
        count = int(rng.integers(0, n // 2 + 1))
        ops = [Op.PLUS, Op.MINUS, Op.SWAP, Op.NOP]
        gates = [
            Gate(wires[2 * i], wires[2 * i + 1], ops[int(rng.integers(0, 4))])
            for i in range(count)
        ]
        perm = Permutation(rng.permutation(n)) if rng.random() < 0.5 else None
        stages.append(Stage(level=Level(gates), perm=perm))
    return ComparatorNetwork(n, stages), rng


def _swap_certificate(a, m):
    """The certificate claiming that ``m`` and ``m + 1`` never meet on ``a``."""
    w0, w1 = int(np.flatnonzero(a == m)[0]), int(np.flatnonzero(a == m + 1)[0])
    b = a.copy()
    b[[w0, w1]] = b[[w1, w0]]
    return NonSortingCertificate(input_a=a, input_b=b, wires=(w0, w1),
                                 values=(m, m + 1))


@settings(max_examples=300, deadline=None)
@given(case=staged_networks(), pick=st.integers(0, 2**31))
def test_judge_agrees_with_traced_evaluation(case, pick):
    """Accepted exactly when the traced evaluation never compares m, m+1."""
    network, rng = case
    n = network.n
    a = rng.permutation(n).astype(np.int64)
    m = pick % (n - 1)
    cert = _swap_certificate(a, m)
    compared = network.trace(a).were_compared(m, m + 1)
    assert cert.verify(network, strict=False) is (not compared)
    if compared:
        with pytest.raises(CertificateError, match="were compared"):
            cert.verify(network)


def _mutations(cert, network):
    """Certificates that are wrong in exactly one way, by name."""
    n = cert.n
    a, b = cert.input_a, cert.input_b
    w0, w1 = cert.wires
    m, m1 = cert.values
    other = next(w for w in range(n) if w not in (w0, w1))
    third = next(w for w in range(n) if w not in (w0, w1, other))
    yield "swapped wires", (b.copy(), b, (w0, w1), (m, m1))
    yield "wires point elsewhere", (a, b, (w0, other), (m, m1))
    swapped_elsewhere = a.copy()
    swapped_elsewhere[[other, third]] = swapped_elsewhere[[third, other]]
    yield "inputs swap other wires", (a, swapped_elsewhere, (w0, w1), (m, m1))
    duplicate = a.copy()
    duplicate[other] = duplicate[third]
    yield "non-permutation input", (duplicate, b, (w0, w1), (m, m1))
    perturbed = b.copy()
    perturbed[other] = (perturbed[other] + 1) % n
    yield "one perturbed value", (a, perturbed, (w0, w1), (m, m1))
    far = a.copy()
    v = int(a[other])
    far[w1], far[other] = v, m1
    far_b = far.copy()
    far_b[[w0, w1]] = far_b[[w1, w0]]
    if abs(v - m) != 1:
        yield "non-adjacent values", (far, far_b, (w0, w1), (m, v))
    for wires in ((w0, n), (n + 83, w1), (-1, w1), (w0, -n - 1)):
        yield f"out-of-range wires {wires}", (a, b, wires, (m, m1))
    # a pair the network does compare, on an otherwise consistent input
    trace = network.trace(a)
    for v in range(n - 1):
        if trace.were_compared(v, v + 1):
            c = _swap_certificate(a, v)
            yield "a compared pair", (c.input_a, c.input_b, c.wires, c.values)
            break


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_mutation_suite_always_rejected(blocks, seed):
    from repro.experiments.workloads import seeded_family

    net = seeded_family("random_iterated", 16, blocks, seed)
    outcome = prove_not_sorting(net, rng=np.random.default_rng(seed))
    assert outcome.certificate is not None
    flat = net.to_network()
    assert outcome.certificate.verify(flat)
    names = []
    for name, (a, b, wires, values) in _mutations(outcome.certificate, flat):
        names.append(name)
        bad = NonSortingCertificate(input_a=a, input_b=b, wires=wires,
                                    values=values)
        assert bad.verify(flat, strict=False) is False, name
        with pytest.raises(CertificateError):
            bad.verify(flat)
    assert {"swapped wires", "non-permutation input", "one perturbed value",
            "a compared pair"} <= set(names)
    assert any(name.startswith("out-of-range") for name in names)


def test_out_of_range_wire_from_json_is_rejected_not_index_error(genuine):
    flat, cert = genuine
    doc = cert.to_json()
    doc["wires"] = [0, 99]
    bad = NonSortingCertificate.from_json(doc)
    assert bad.verify(flat, strict=False) is False
    with pytest.raises(CertificateError, match="out of range"):
        bad.verify(flat)
