"""Round-trip tests for the wire message-envelope codec.

Two layers of evidence that :func:`repro.codec.encode_message` /
:func:`decode_message` faithfully carry every message the protocols
emit:

* **construction** — one handcrafted representative per wire kind in
  :data:`repro.codec.WIRE_KINDS`, checked for payload equality, unit
  preservation, and the byte-accounting invariants (``total_bytes ==
  len(envelope)``; for lattice payloads, the payload section is exactly
  the lattice codec's bytes);
* **emission** — every synchronization protocol (and the kv store with
  both repair modes, exercising the three ``kv-*`` repair kinds plus
  the shard framing) is run on a simulated cluster whose transport
  encodes and decodes *every* message before delivery.  Convergence to
  the same state as the un-encoded run proves the decoded payloads are
  semantically identical, not merely equal-looking.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import (
    WIRE_KINDS,
    CodecError,
    UnsupportedType,
    decode_message,
    encode,
    encode_message,
    frame_message,
)
from repro.kv.antientropy import AntiEntropyConfig
from repro.kv.cluster import KVCluster
from repro.kv.ring import HashRing
from repro.lattice.map_lattice import MapLattice
from repro.lattice.primitives import MaxInt
from repro.lattice.set_lattice import SetLattice
from repro.net.sim import SimTransport
from repro.sim.metrics import MetricsCollector
from repro.sim.network import Cluster, ClusterConfig
from repro.sim.topology import full_mesh, partial_mesh
from repro.sync import ALGORITHMS, EXTRA_ALGORITHMS, keyed_bp_rr
from repro.sync.opbased import OpEnvelope
from repro.sync.protocol import Message, Send
from repro.workloads import GSetWorkload
from repro.workloads.kv import KVZipfWorkload

from tests.conftest import ALL_LATTICE_STRATEGIES


def roundtrip(message: Message) -> Message:
    return decode_message(encode_message(message))


def make_message(kind, payload, payload_units=3, metadata_units=2) -> Message:
    """Model byte fields are arbitrary here: the wire carries measures."""
    return Message(
        kind=kind,
        payload=payload,
        payload_units=payload_units,
        payload_bytes=111,
        metadata_bytes=222,
        metadata_units=metadata_units,
    )


def _fp(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=8).digest()


_INNER_STATE = make_message("state", SetLattice({"a", "b"}))
_INNER_DELTA = make_message("delta", MapLattice({"k": MaxInt(4)}))

#: One representative payload per wire kind.
REPRESENTATIVES = {
    "state": SetLattice({"x", "y", "z"}),
    "delta": MapLattice({"k1": MaxInt(3), "k2": SetLattice({"a"})}),
    "keyed-delta": MapLattice({"obj": SetLattice({"e1", "e2"})}),
    "digest": {0: 3, 2: 7, 5: 1},
    "deltas": [((0, 1), SetLattice({"a"})), ((2, 4), MaxInt(9))],
    "ops": [
        OpEnvelope(origin=0, seq=1, clock={0: 1}, payload=SetLattice({"a"})),
        OpEnvelope(origin=2, seq=3, clock={0: 1, 2: 3}, payload=MaxInt(5)),
    ],
    "mt-node": (("", b"d" * 20), ("a3", b"e" * 20)),
    "mt-leaves": (("a", ((b"h" * 20, encode(MaxInt(3))),)),),
    "mt-leaves-final": (
        ("0", ((b"i" * 20, encode(SetLattice({"q"}))),)),
        ("f", ()),
    ),
    "kv-digest": b"r" * 16,
    "kv-diff": frozenset({_fp("one"), _fp("two")}),
    "kv-repair": (MapLattice({"k": MaxInt(2)}), frozenset({_fp("echo")})),
    "kv-batch": ((1, _INNER_STATE), (5, _INNER_DELTA)),
    "kv-handoff-offer": (b"r" * 16, 512),
    "kv-handoff-segment": (encode(SetLattice({"a"})), encode(MaxInt(7))),
    "kv-handoff-ack": (True, b"r" * 16),
}

#: Kinds whose payload object is pure lattice content.
LATTICE_KINDS = ("state", "delta", "keyed-delta")


class TestEveryKindRoundTrips:
    def test_registry_is_fully_covered(self):
        assert set(REPRESENTATIVES) == set(WIRE_KINDS)

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_payload_survives(self, kind):
        message = make_message(kind, REPRESENTATIVES[kind])
        decoded = roundtrip(message)
        assert decoded.kind == kind
        if kind == "kv-batch":
            # Nested messages come back with *measured* byte fields, so
            # compare the semantic content (shard routing, inner kind,
            # inner payload, units), not dataclass equality.
            assert len(decoded.payload) == len(message.payload)
            for (shard, inner), (want_shard, want_inner) in zip(
                decoded.payload, message.payload
            ):
                assert shard == want_shard
                assert inner.kind == want_inner.kind
                assert inner.payload == want_inner.payload
                assert inner.payload_units == want_inner.payload_units
                assert inner.metadata_units == want_inner.metadata_units
        else:
            assert decoded.payload == message.payload

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_units_travel_verbatim(self, kind):
        message = make_message(
            kind, REPRESENTATIVES[kind], payload_units=17, metadata_units=9
        )
        decoded = roundtrip(message)
        assert decoded.payload_units == 17
        assert decoded.metadata_units == 9

    @pytest.mark.parametrize("kind", sorted(REPRESENTATIVES))
    def test_measured_sizes_cover_the_envelope(self, kind):
        """payload + metadata == exactly what crosses the wire."""
        message = make_message(kind, REPRESENTATIVES[kind])
        frame = frame_message(message)
        decoded = decode_message(frame.data)
        assert decoded.total_bytes == len(frame.data)
        assert decoded.payload_bytes == frame.payload_bytes
        assert decoded.metadata_bytes == frame.metadata_bytes

    @pytest.mark.parametrize("kind", LATTICE_KINDS)
    def test_lattice_payload_section_is_the_lattice_codec(self, kind):
        """For lattice payloads the payload bytes are exactly
        ``len(encode(payload))`` — no hidden framing in the payload
        share of the measured split."""
        payload = REPRESENTATIVES[kind]
        frame = frame_message(make_message(kind, payload))
        assert frame.payload_bytes == len(encode(payload))
        decoded = decode_message(frame.data)
        assert decoded.payload_bytes == len(encode(payload))

    def test_metadata_only_kinds_measure_zero_payload(self):
        """Digests, vectors, and probes are pure metadata on the
        wire, matching the paper's payload/metadata split."""
        for kind in ("digest", "mt-node", "kv-digest", "kv-diff"):
            frame = frame_message(make_message(kind, REPRESENTATIVES[kind]))
            assert frame.payload_bytes == 0, kind

    def test_gc_digest_variant(self):
        payload = {
            "vector": {0: 4, 1: 2},
            "knowledge": {0: {0: 4, 1: 1}, 1: {}, 2: {0: 3}},
        }
        decoded = roundtrip(make_message("digest", payload))
        assert decoded.payload == payload

    def test_kv_repair_without_echo(self):
        decoded = roundtrip(
            make_message("kv-repair", (MapLattice({"k": MaxInt(1)}), None))
        )
        assert decoded.payload == (MapLattice({"k": MaxInt(1)}), None)

    def test_nested_batch_preserves_inner_kinds_and_units(self):
        decoded = roundtrip(make_message("kv-batch", REPRESENTATIVES["kv-batch"]))
        (shard_a, inner_a), (shard_b, inner_b) = decoded.payload
        assert (shard_a, shard_b) == (1, 5)
        assert inner_a.kind == "state" and inner_a.payload == _INNER_STATE.payload
        assert inner_b.kind == "delta" and inner_b.payload == _INNER_DELTA.payload
        assert inner_a.payload_units == _INNER_STATE.payload_units


class TestErrors:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(UnsupportedType):
            encode_message(make_message("carrier-pigeon", SetLattice()))

    def test_truncated_envelope(self):
        data = encode_message(make_message("state", SetLattice({"a"})))
        with pytest.raises(CodecError):
            decode_message(data[:-1])

    def test_trailing_bytes(self):
        data = encode_message(make_message("state", SetLattice({"a"})))
        with pytest.raises(CodecError):
            decode_message(data + b"\x00")

    def test_junk_is_a_codec_error(self):
        with pytest.raises(CodecError):
            decode_message(b"\xff\xff\xff\xff")


@given(
    family=st.sampled_from(
        sorted(set(ALL_LATTICE_STRATEGIES) - {"MaxElements"})
    ),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_arbitrary_lattice_payloads_roundtrip(family, data):
    """Property: any encodable lattice rides any lattice-payload kind."""
    value = data.draw(ALL_LATTICE_STRATEGIES[family])
    kind = data.draw(st.sampled_from(LATTICE_KINDS))
    frame = frame_message(make_message(kind, value))
    decoded = decode_message(frame.data)
    assert decoded.payload == value
    assert frame.payload_bytes == len(encode(value))
    assert decoded.total_bytes == len(frame.data)


# ---------------------------------------------------------------------------
# Emission coverage: every protocol, through the codec, still converges.
# ---------------------------------------------------------------------------


class CodecRoundtripTransport(SimTransport):
    """A sim transport that ships every message through the wire codec.

    Each outbound message is encoded and decoded before dispatch, so
    protocols receive exactly what a real socket would hand them.  The
    kinds observed are recorded for coverage assertions.
    """

    def __init__(self, config, metrics):
        super().__init__(config, metrics)
        self.kinds_seen = set()

    def send(self, src, sends):
        reencoded = []
        for send in sends:
            self._note_kinds(send.message)
            reencoded.append(
                Send(dst=send.dst, message=decode_message(encode_message(send.message)))
            )
        super().send(src, reencoded)

    def _note_kinds(self, message):
        self.kinds_seen.add(message.kind)
        if message.kind == "kv-batch":
            for _, inner in message.payload:
                self.kinds_seen.add(inner.kind)


PROTOCOLS = {**ALGORITHMS, **EXTRA_ALGORITHMS}

EXPECTED_KINDS = {
    "state-based": {"state"},
    "delta-based": {"delta"},
    "delta-based-bp": {"delta"},
    "delta-based-rr": {"delta"},
    "delta-based-bp-rr": {"delta"},
    "scuttlebutt": {"digest", "deltas"},
    "scuttlebutt-gc": {"digest", "deltas"},
    "op-based": {"ops"},
    "merkle": {"mt-node", "mt-leaves"},
}


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_protocol_converges_through_the_codec(name):
    topology = partial_mesh(5, 2)
    workload = GSetWorkload(5, rounds=4)

    def run(transport):
        cluster = Cluster(
            ClusterConfig(topology), PROTOCOLS[name], workload.bottom(), transport
        )
        cluster.run_rounds(workload.rounds, workload.updates_for)
        cluster.drain()
        assert cluster.converged()
        return cluster

    plain = run("sim")
    wired = CodecRoundtripTransport(
        ClusterConfig(topology), MetricsCollector(topology.n)
    )
    through = run(wired)
    assert through.nodes[0].state == plain.nodes[0].state
    assert EXPECTED_KINDS[name] <= wired.kinds_seen


@pytest.mark.parametrize("repair_mode", ["blanket", "digest"])
def test_kv_store_converges_through_the_codec(repair_mode):
    """The shard framing and all three kv-* repair kinds cross the codec."""
    ring = HashRing(range(6), n_shards=12, replication=2)
    workload = KVZipfWorkload(ring, 9, 3, keys=60, zipf_coefficient=1.0, seed=5)
    antientropy = AntiEntropyConfig(
        repair_interval=3, repair_fanout=8, repair_mode=repair_mode
    )
    config = ClusterConfig(full_mesh(6))
    wired = CodecRoundtripTransport(config, MetricsCollector(6))
    cluster = KVCluster(
        ring, keyed_bp_rr, antientropy=antientropy, config=config, transport=wired
    )
    phase = 3
    updates = workload.updates_for
    cluster.run_rounds(phase, updates)
    cluster.partition(range(3))
    for round_index in range(phase, 2 * phase):
        cluster.run_round(lambda node, r=round_index: updates(r, node))
    cluster.heal()
    cluster.crash(5, lose_state=True)
    for round_index in range(2 * phase, workload.rounds):
        cluster.run_round(lambda node, r=round_index: updates(r, node))
    cluster.recover(5)
    cluster.drain()
    assert cluster.converged()
    assert "kv-repair" in wired.kinds_seen
    if repair_mode == "digest":
        assert {"kv-digest", "kv-diff"} <= wired.kinds_seen
    assert "kv-batch" in wired.kinds_seen
