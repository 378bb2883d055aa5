"""Finite functions ``U ↪→ L``: maps from keys to a value lattice.

This construct builds the grow-only counter (``I ↪→ MaxInt``), the
grow-only map of Table I, the PNCounter (``I ↪→ MaxInt × MaxInt``), and
— in the network simulator — the whole replicated store of a node
(object identifier ↪→ object state).

Join is pointwise; a key absent from the map is implicitly bound to the
value lattice's bottom.  Following Appendix C, the decomposition is

    ⇓f = { {k ↦ v} | k ∈ dom(f), v ∈ ⇓f(k) }

and the optimal delta recurses per key, dropping keys whose delta is
bottom.  Bottom-valued bindings are never stored, so two maps are equal
exactly when their stored bindings are equal.

Aliased bindings.  Values are immutable and shared, and the simulator
delivers the sender's own objects, so on a mesh the same δ reaches a
replica along a second path holding the very value objects the replica
already stores.  ``delta`` treats a binding both sides hold as one
object as ⊥ — ``x ⊑ x`` in every lattice — without calling the value's
``delta``.  Values decoded from the wire or a log never alias a
replica's, so there the rule costs one ``is`` per key.  ``leq`` and
``join`` carry no such test: the only callers meeting aliased pairs
there are the baselines (classic's inflation check, state-based's join).

Size lineage
------------
``size_units`` / ``size_bytes`` are memoised per frozen value, but every
inflation makes a fresh value, and re-summing a 1000-entry state after
a 7-key δ is O(|state|) where the paper's cost model promises O(|Δ|).
So a value produced by ``join`` from a parent whose size is known (or
itself owed) remembers, instead of nothing:

* the parent's ``(units, bytes)``, and
* for each key the join *touched* — bound anew, or bound to a value that
  is not the parent's own object — the parent's old value, ``None`` when
  the key was absent.  A redundant binding (``mine ⊔ theirs is mine``)
  touches nothing, so a state-sized δ-group that teaches three keys
  leaves a three-key lineage.  Nor does rebinding a key whose old value
  is ``fixed_size`` (``MaxInt``, ``Bool``: every non-bottom value has
  one size, see ``Lattice``): the new value is of the same class and
  not bottom, so neither total can move, and a join that only raises
  counters owes just its new keys.

The first size read settles it: parent total plus, per touched key,
``size(new) − size(old)`` (plus ``sizeof(key)`` when the key is new),
then caches the total and drops the lineage.  The rule is per touched
key because ``size(a ⊔ b) = size(b) + size(∆(a, b))`` holds only in
powerset lattices: ``{k ↦ 1} ⊔ {k ↦ 2}`` is one unit, not two.

Lineage is a memo, never state.  A chain of unsized joins carries the
touched map forward by *copy* — the parent's is never written, so an
unsized parent joined twice stays correct on both branches — and the
oldest value per key wins.  It is dropped, back to the full sum, once
the touched keys outnumber half the entries (where the sum is no
dearer).  Only old *values* are retained, each of which the parent's
map would have kept alive anyway until the parent itself is released; a
reference to the parent or to its ``entries`` dict would pin a whole
second copy of every hot state.

Born sized.  ``delta`` keeps a binding only after looking at it, so it
adds up ``sizeof(key)`` and the kept value's ``(units, bytes)`` on the
way and returns its result with both totals known.  The first
``fixed_size`` class it keeps is asked once per call, and its bindings
counted.  RR's ``∆(d, xᵢ)`` (Algorithm 1,
line 15) is therefore sized where it is made: the memory sample reads
it as a memo, and storing it into a state it shares no key with adds
totals (*Disjoint operands*) instead of leaving its keys owed.  A
``delta`` that keeps everything returns ``self`` and remembers the
totals as its own.

Disjoint operands.  When the operands share no key, no binding of
``self`` is rebound and ``∆(other, self)`` is ``other`` itself.  A state
meeting only new keys is such a join, and so are the joins that build a
δ-group (Algorithm 1, line 11) whenever the buffered δs are key-disjoint
— RR buffers only ``∆(d, xᵢ)``, so they are disjoint in irreducibles,
and on Table I's GMap, where a key is refreshed once a round, in keys.
That is the one case in which the powerset rule above does hold,
``size(a ⊔ b) = size(a) + size(b)``, keys included, and the join is a
dict union.  ``join`` probes for it first, with ``keys().isdisjoint``,
which walks the smaller side at C speed and stops at the first shared
key — but only after one look-up of ``other``'s first key, where a δ on
bound keys and a state-sized message already fail, and never for a
one-entry ``other``: every KV write is one, the pointwise loop costs it
no more than a probe would, and it leaves the same one-key lineage.
Then:

* ``other`` settled and knowing every total ``self``'s memo carries —
  the totals add.  If ``self`` is itself owed, its touched map is
  carried over as it stands (it is never written): those keys are still
  bound in the union to the values they were owed for, so the union
  owes exactly what ``self`` owed.  A group of sized key-disjoint parts
  is therefore born sized (owing one key per one-entry part).
* otherwise — ``other`` unsized, owed, or missing a total ``self``
  knows — the ordinary lineage with every key of ``other`` touched and
  absent before.  ``other``'s own memo is read, never settled.

Owned joins
-----------
``join`` copies ``self``'s dict, which on a replica's 1,000-key state
costs more than a 7-key δ's whole merge.  ``join_owned`` runs the same
merge (``_merge``: the union probe, the pointwise loop, the lineage)
over ``self``'s own dict and re-memoises ``_size`` as the fresh value's
would have been.  It is for the one caller that can prove no one else
reaches ``self``: a delta-based replica storing a δ into the state it
built itself and never handed out (``sync/deltabased.py``, lines
18–20).  Every value that was ever handed out stays frozen, so caches
keyed by identity stay right.  A lineage ``touched`` dict is never
written in place here either: one carried over from an ancestor may be
shared with it.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, Optional, Tuple

from repro import sizes
from repro.lattice.base import Lattice


class MapLattice(Lattice):
    """An immutable map with pointwise lattice join, ``(U ↪→ L, ⊑, ⊔)``.

    >>> from repro.lattice.primitives import MaxInt
    >>> a = MapLattice({"A": MaxInt(2)})
    >>> b = MapLattice({"A": MaxInt(1), "B": MaxInt(3)})
    >>> a.join(b) == MapLattice({"A": MaxInt(2), "B": MaxInt(3)})
    True

    The constructor silently drops bottom-valued bindings to maintain the
    canonical-form invariant.
    """

    #: ``_size`` is ``(units, bytes, touched)``.  With ``touched``
    #: ``None`` the totals are this value's own, each ``None`` while
    #: unknown; otherwise they are the sized ancestor's and ``touched``
    #: maps every key joined since to the ancestor's value (see *Size
    #: lineage* in the module docstring).
    __slots__ = ("entries", "_size")

    def __new__(cls, entries: Mapping[Hashable, Lattice] | None = None) -> "MapLattice":
        if not entries:
            return _fresh({})
        return _fresh({k: v for k, v in entries.items() if not v.is_bottom})

    # ------------------------------------------------------------------
    # Lattice protocol.
    # ------------------------------------------------------------------

    def join(self, other: "MapLattice") -> "MapLattice":
        theirs = other.entries
        if not theirs:
            return self
        mine = self.entries
        if not mine:
            return other
        merged = dict(mine)
        return _fresh(merged, self._merge(merged, other))

    def join_owned(self, other: "MapLattice") -> None:
        """``self := self ⊔ other``, in place (see *Owned joins*).

        Only for a value no one but its creator has seen, and never with
        ``other is self``.
        """
        if other.entries:
            object.__setattr__(self, "_size", self._merge(self.entries, other))

    def _merge(self, merged: dict, other: "MapLattice") -> "_Size":
        """Join ``other``'s bindings into ``merged`` — ``self``'s entries
        or a copy of them — and return the result's ``_size``."""
        theirs = other.entries
        size = self._size
        if (
            # A one-entry δ (every KV write) is never probed, and a δ on
            # bound keys fails the probe at its first key.
            len(theirs) > 1
            and next(iter(theirs)) not in merged
            and merged.keys().isdisjoint(theirs.keys())
        ):
            # A union (see *Disjoint operands*): no value of mine is rebound.
            merged.update(theirs)
            if size is _UNSIZED:
                return _UNSIZED
            units, nbytes, touched = size
            their_units, their_bytes, owed = other._size
            if (
                owed is None
                and (units is None or their_units is not None)
                and (nbytes is None or their_bytes is not None)
            ):
                if units is not None:
                    units += their_units
                if nbytes is not None:
                    nbytes += their_bytes
                return (units, nbytes, touched)
            touched = dict.fromkeys(theirs)
        else:
            # Old values are owed only to a parent whose size is known or owed.
            touched = {} if size is not _UNSIZED else None
            for key, value in theirs.items():
                current = merged.get(key)
                if current is not None:
                    value = current.join(value)
                    if value is current:
                        continue
                merged[key] = value
                if touched is not None and (current is None or not current.fixed_size):
                    touched[key] = current
            if touched is None:
                return _UNSIZED
        units, nbytes, earlier = size
        if earlier:
            # The sized ancestor's values, not an unsized parent's, are owed.
            touched.update(earlier)
        if 2 * len(touched) > len(merged):
            return _UNSIZED
        return (units, nbytes, touched)

    def leq(self, other: "MapLattice") -> bool:
        if len(self.entries) > len(other.entries):
            return False
        for key, value in self.entries.items():
            theirs = other.entries.get(key)
            if theirs is None or not value.leq(theirs):
                return False
        return True

    def bottom_like(self) -> "MapLattice":
        return _EMPTY

    @property
    def is_bottom(self) -> bool:
        return not self.entries

    def decompose(self) -> Iterator["MapLattice"]:
        for key, value in self.entries.items():
            for irreducible in value.decompose():
                yield _fresh({key: irreducible})

    def delta(self, other: "MapLattice") -> "MapLattice":
        theirs = other.entries
        out: dict[Hashable, Lattice] = {}
        filtered = False
        # The result is born sized (see *Born sized*).
        sizeof = sizes.sizeof
        units = nbytes = count = 0
        fixed_class = None
        for key, value in self.entries.items():
            known = theirs.get(key)
            if known is not None:
                diff = None if known is value else value.delta(known)
                if diff is not value:
                    filtered = True
                    if diff is None or diff.is_bottom:
                        continue
                    value = diff
            out[key] = value
            nbytes += sizeof(key)
            if value.__class__ is fixed_class:
                count += 1
            elif fixed_class is None and value.fixed_size:
                fixed_class, fixed, count = value.__class__, value, 1
            else:
                units += value.size_units()
                nbytes += value.size_bytes()
        if count:
            units += count * fixed.size_units()
            nbytes += count * fixed.size_bytes()
        if not filtered:
            # Wholly novel: the same value, and the totals are its own.
            self._remember(units, nbytes)
            return self
        return _fresh(out, (units, nbytes, None)) if out else _EMPTY

    def size_units(self) -> int:
        size = self._size
        if size[2] is not None:
            size = self._settle(size)
        units = size[0]
        if units is None:
            units = sum(value.size_units() for value in self.entries.values())
            self._remember(units, size[1])
        return units

    def size_bytes(self) -> int:
        size = self._size
        if size[2] is not None:
            size = self._settle(size)
        nbytes = size[1]
        if nbytes is None:
            sizeof = sizes.sizeof
            nbytes = 0
            for key, value in self.entries.items():
                nbytes += sizeof(key) + value.size_bytes()
            self._remember(size[0], nbytes)
        return nbytes

    def _settle(self, size: "_Size") -> "_Size":
        """Spend the lineage: the ancestor's totals moved by each touched key."""
        units, nbytes, touched = size
        entries = self.entries
        for key, old in touched.items():
            new = entries[key]
            if units is not None:
                units += new.size_units() - (0 if old is None else old.size_units())
            if nbytes is not None:
                nbytes += new.size_bytes() - (
                    -sizes.sizeof(key) if old is None else old.size_bytes()
                )
        return self._remember(units, nbytes)

    def _remember(self, units: int | None, nbytes: int | None) -> "_Size":
        size = (units, nbytes, None)
        # A memo, not a mutation: the sizes are a pure function of the frozen entries.
        object.__setattr__(self, "_size", size)
        return size

    # ------------------------------------------------------------------
    # Map conveniences.
    # ------------------------------------------------------------------

    def get(self, key: Hashable, default: Lattice | None = None) -> Lattice | None:
        """Return the binding for ``key`` or ``default`` when absent."""
        return self.entries.get(key, default)

    def keys(self) -> Iterator[Hashable]:
        return iter(self.entries.keys())

    def items(self) -> Iterator[Tuple[Hashable, Lattice]]:
        return iter(self.entries.items())

    def __contains__(self, key: Hashable) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MapLattice) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((MapLattice, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        entries = self.entries
        if len(entries) == 1:
            # One binding (every irreducible): nothing to sort.
            ((key, value),) = entries.items()
            return f"MapLattice({{{key!r}: {value!r}}})"
        inner = ", ".join(
            f"{key!r}: {value!r}" for key, value in sorted(entries.items(), key=lambda kv: repr(kv[0]))
        )
        return f"MapLattice({{{inner}}})"


#: ``(units, bytes, touched)``; see ``MapLattice._size``.
_Size = Tuple[Optional[int], Optional[int], Optional[dict]]
_UNSIZED: _Size = (None, None, None)


def _fresh(entries: dict, size: _Size = _UNSIZED) -> MapLattice:
    """The one place a ``MapLattice`` is put together.

    ``entries`` must hold no bottom value and is owned by the result.
    """
    result = object.__new__(MapLattice)
    object.__setattr__(result, "entries", entries)
    object.__setattr__(result, "_size", size)
    return result


_EMPTY = MapLattice()
