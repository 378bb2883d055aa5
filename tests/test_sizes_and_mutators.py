"""Byte accounting and the δ-mutator derivation, across the catalog.

Two cross-cutting contracts:

* :class:`~repro.sizes.SizeModel` prices every payload atom the
  evaluation ships (Figure 9's 20 B identifiers, Retwis' 31 B/270 B
  strings), and the wire codec's actual output should not undercut the
  model by more than framing overhead explains;
* ``optimal_delta_mutator`` must turn *any* inflationary mutator of
  *any* lattice family into its minimal δ-mutator — the paper's
  ``mδ(x) = ∆(m(x), x)`` recipe (Section III-B).
"""

import pytest

from repro.crdt import optimal_delta_mutator
from repro.codec import encode
from repro.lattice import MapLattice, MaxInt, PairLattice, SetLattice
from repro.sizes import DEFAULT_SIZE_MODEL, SizeModel


class TestSizeModel:
    def test_paper_constants(self):
        assert DEFAULT_SIZE_MODEL.id_bytes == 20
        assert DEFAULT_SIZE_MODEL.int_bytes == 8
        assert DEFAULT_SIZE_MODEL.vector_entry_bytes() == 28

    def test_strings_count_utf8_bytes(self):
        model = SizeModel()
        assert model.sizeof("abc") == 3
        assert model.sizeof("héllo") == 6  # é is two bytes

    def test_every_string_is_its_utf8_length_subclasses_included(self):
        """ASCII strings are sized without an encoded copy; the answer
        is the encoded length for every string all the same."""
        model = SizeModel()

        class Label(str):
            pass

        for text in ["", "key-0001", "κλειδί", "a\u00e9\u20ac\U0001f600", "\x7f\x80"]:
            assert model.sizeof(text) == len(text.encode("utf-8"))
            assert model.sizeof(Label(text)) == len(text.encode("utf-8"))

    def test_scalar_sizes(self):
        model = SizeModel()
        assert model.sizeof(None) == 0
        assert model.sizeof(True) == model.bool_bytes
        assert model.sizeof(12345) == model.int_bytes
        assert model.sizeof(1.5) == model.int_bytes
        assert model.sizeof(b"\x00\x01") == 2

    def test_composites_sum_their_parts(self):
        model = SizeModel()
        assert model.sizeof(("ab", 3)) == 2 + model.int_bytes
        assert model.sizeof(frozenset({"a", "bc"})) == 3

    def test_unknown_types_fall_back_to_repr(self):
        model = SizeModel()

        class Opaque:
            def __repr__(self):
                return "xxxx"

        assert model.sizeof(Opaque()) == 4

    def test_vector_bytes(self):
        model = SizeModel()
        assert model.vector_bytes(10) == 10 * 28

    def test_codec_output_tracks_the_model(self):
        """Encoded payload content is at least the model's string bytes.

        The codec adds framing (tags, varints) on top of raw content,
        so the model — which prices content only — must not exceed it
        by more than the per-atom framing allowance.
        """
        model = SizeModel()
        state = SetLattice({"x" * 20, "y" * 20})
        content = state.size_bytes(model)
        framed = len(encode(state))
        assert framed >= content
        assert framed <= content + 3 * (2 + 8)  # tag + varint per atom + headers


class TestDerivedDeltaMutators:
    """mδ(x) = ∆(m(x), x) across lattice families (Section III-B)."""

    CASES = [
        # (label, mutator, state where it acts, state where it is a no-op)
        (
            "gset-add",
            lambda s: s.join(SetLattice({"e"})),
            SetLattice({"a"}),
            SetLattice({"e", "a"}),
        ),
        (
            "gcounter-bump",
            lambda m: m.join(MapLattice({"A": MaxInt(5)})),
            MapLattice({"A": MaxInt(3)}),
            MapLattice({"A": MaxInt(9)}),
        ),
        (
            "pair-first",
            lambda p: PairLattice(p.first.join(MaxInt(4)), p.second),
            PairLattice(MaxInt(1), SetLattice({"k"})),
            PairLattice(MaxInt(7), SetLattice({"k"})),
        ),
    ]

    @pytest.mark.parametrize("label,mutator,acting,noop", CASES, ids=[c[0] for c in CASES])
    def test_delta_reconstructs_the_mutation(self, label, mutator, acting, noop):
        derived = optimal_delta_mutator(mutator)
        delta = derived(acting)
        assert acting.join(delta) == mutator(acting)

    @pytest.mark.parametrize("label,mutator,acting,noop", CASES, ids=[c[0] for c in CASES])
    def test_noop_mutation_yields_bottom(self, label, mutator, acting, noop):
        derived = optimal_delta_mutator(mutator)
        assert derived(noop).is_bottom

    @pytest.mark.parametrize("label,mutator,acting,noop", CASES, ids=[c[0] for c in CASES])
    def test_delta_is_minimal(self, label, mutator, acting, noop):
        """No strictly smaller state reconstructs the mutation."""
        derived = optimal_delta_mutator(mutator)
        delta = derived(acting)
        for candidate in delta.decompose():
            if candidate == delta:
                continue
            assert acting.join(candidate) != mutator(acting)

    def test_non_optimal_gset_add_is_repaired(self):
        """The paper's motivating example: the original addδ shipped
        {e} even when e was present; the derived mutator ships ⊥."""
        always_singleton = lambda s: s.join(SetLattice({"e"}))
        derived = optimal_delta_mutator(always_singleton)
        assert derived(SetLattice({"e"})).is_bottom
