"""Boolean formulas over analysis primitives, and the DNF machinery.

This module implements the formula domain ``M`` of a *disjunctive
meta-analysis* (Section 4.1 of the paper):

* formulas are built from client-declared :class:`Primitive` atoms with
  negation, conjunction, and disjunction;
* :func:`to_dnf` converts to disjunctive normal form, sorting disjuncts
  by syntactic size (``toDNF`` of Figure 8);
* :func:`simplify` removes disjuncts subsumed by earlier, shorter ones
  (``simplify`` of Figure 8);
* :func:`drop_k` is the beam under-approximation (``dropk`` of
  Figure 8): it keeps the ``k - 1`` smallest disjuncts plus the
  smallest disjunct containing the current ``(p, d)``, guaranteeing the
  current abstraction stays eliminated.

Meaning is given by a client :class:`Theory`, which evaluates
primitives on pairs ``(p, d)`` of abstraction and abstract state
(the ``gamma`` function of Section 4), decides which primitives depend
only on the abstraction component, and declares the structure that
keeps cubes small: exclusive-value groups and cross-primitive
exclusions.  All rewrites performed here except ``drop_k`` are
semantics-preserving; ``drop_k`` only ever shrinks ``gamma``.

Representation.  Primitives and literals are hash-consed: each
distinct value is one object, so equality is identity.  Inside a
:class:`Dnf` a cube is not a set of literals but an ``int``: the
theory's :class:`CubeCodec` gives every exclusive-value group a bit
field, and a cube sets the bits of the values it *excludes*.
Conjunction is ``|``, a contradiction is a full field, and
subsumption is a subset test on masks.  ``Dnf.cubes`` decodes the
masks back to frozensets of :class:`Literal` for readers.
"""

from __future__ import annotations

import dataclasses
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.obs import metrics as obs_metrics


class FormulaExplosion(RuntimeError):
    """Raised when DNF conversion exceeds the configured cube budget."""


# ---------------------------------------------------------------------------
# Hash-consed primitives and literals
# ---------------------------------------------------------------------------

#: Every live dataclass primitive, keyed by ``(class, field values)``.
#: Entries are weak: a primitive lives exactly as long as something
#: (a theory's codec, a formula, a forward table) still uses it.
_PRIMITIVES: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()


def _value_hash(self) -> int:
    return self._hash


def _intern_fields(cls) -> Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
    """``(compared, hashed)`` field names of a dataclass primitive, or
    ``None`` for a plain class (which keeps identity semantics)."""
    cached = cls.__dict__.get("_interned_fields")
    if cached is None:
        if dataclasses.is_dataclass(cls):
            fields = dataclasses.fields(cls)
            cached = (
                tuple(f.name for f in fields if f.compare),
                # The dataclass-generated __hash__'s field selection.
                tuple(
                    f.name
                    for f in fields
                    if (f.compare if f.hash is None else f.hash)
                ),
            )
        else:
            cached = False
        type.__setattr__(cls, "_interned_fields", cached)
    return cached or None


def _intern(obj: "Primitive") -> "Primitive":
    cls = type(obj)
    names = _intern_fields(cls)
    if names is None:
        object.__setattr__(obj, "_hash", object.__hash__(obj))
        return obj
    compared, hashed = names
    values = tuple(getattr(obj, name) for name in compared)
    key = (cls, values)
    with _INTERN_LOCK:
        existing = _PRIMITIVES.get(key)
        if existing is not None:
            return existing
        # The same value a frozen dataclass's generated hash gives, so
        # set and dict iteration orders do not move.
        if hashed != compared:
            values = tuple(getattr(obj, name) for name in hashed)
        object.__setattr__(obj, "_hash", hash(values))
        _PRIMITIVES[key] = obj
    return obj


def _reintern(cls, values: Tuple) -> "Primitive":
    """Unpickling/copying hook: rebuild a dataclass primitive from its
    field values and return the interned instance."""
    obj = object.__new__(cls)
    for field, value in zip(dataclasses.fields(cls), values):
        object.__setattr__(obj, field.name, value)
    return _intern(obj)


class _InternedType(type):
    """Metaclass of :class:`Primitive`: construction returns the one
    interned instance per value, and equality is identity.

    The class body gets identity ``__eq__`` and a cached-value
    ``__hash__`` *before* ``@dataclass`` runs, so the decorator keeps
    them instead of generating structural ones."""

    def __new__(mcls, name, bases, namespace, **kwargs):
        namespace.setdefault("__eq__", object.__eq__)
        namespace.setdefault("__hash__", _value_hash)
        return super().__new__(mcls, name, bases, namespace, **kwargs)

    def __call__(cls, *args, **kwargs):
        return _intern(super().__call__(*args, **kwargs))


class Primitive(metaclass=_InternedType):
    """Base class for primitive formulas (``PForm`` in the paper).

    Subclasses should be frozen dataclasses; they are hash-consed, so
    two primitives with equal fields are the same object.  The hash is
    the one the dataclass would compute, cached.  ``sort_key`` induces
    the deterministic order used when sorting literals and cubes; the
    default key is derived from the dataclass fields.
    """

    __slots__ = ("_hash", "_literals", "__weakref__")

    def sort_key(self) -> Tuple:
        fields = getattr(self, "__dataclass_fields__", None)
        if fields is None:
            return (type(self).__name__, repr(self))
        return (type(self).__name__,) + tuple(
            str(getattr(self, name)) for name in fields
        )

    def __reduce_ex__(self, protocol):
        # Pickling and copying must come back through the intern
        # table: a structurally equal copy would be a distinct object,
        # and under identity equality every set or dict lookup with it
        # would silently miss.
        if _intern_fields(type(self)) is None:
            return object.__reduce_ex__(self, protocol)
        return (
            _reintern,
            (
                type(self),
                tuple(getattr(self, f.name) for f in dataclasses.fields(self)),
            ),
        )


class Literal:
    """A primitive or its negation.

    Hash-consed on the primitive: each primitive owns its two literals,
    so ``Literal(prim, positive)`` always returns the same object,
    equality is identity, and :meth:`negate` is a field read."""

    __slots__ = ("prim", "positive", "_hash", "_negation")

    def __new__(cls, prim: Primitive, positive: bool = True):
        try:
            pair = prim._literals
        except AttributeError:
            pair = _literal_pair(prim)
        return pair[1] if positive else pair[0]

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Literal, (self.prim, self.positive))

    def __repr__(self) -> str:
        return f"Literal({self.prim!r}, {self.positive})"

    def negate(self) -> "Literal":
        return self._negation

    def sort_key(self) -> Tuple:
        return self.prim.sort_key() + (not self.positive,)

    def __str__(self) -> str:
        return str(self.prim) if self.positive else f"!{self.prim}"


def _literal_pair(prim: Primitive) -> Tuple[Literal, Literal]:
    """Create ``prim``'s ``(negative, positive)`` literals, once."""
    with _INTERN_LOCK:
        try:
            return prim._literals
        except AttributeError:
            pass
        pair = (object.__new__(Literal), object.__new__(Literal))
        for literal, positive in zip(pair, (False, True)):
            literal.prim = prim
            literal.positive = positive
            literal._hash = hash((prim, positive))
        pair[0]._negation, pair[1]._negation = pair[1], pair[0]
        object.__setattr__(prim, "_literals", pair)
    return pair


Cube = FrozenSet[Literal]


def cube_sort_key(cube: Cube) -> Tuple:
    return (len(cube), tuple(sorted(lit.sort_key() for lit in cube)))


def pretty_cube(cube: Cube) -> str:
    if not cube:
        return "true"
    return " & ".join(str(l) for l in sorted(cube, key=Literal.sort_key))


# ---------------------------------------------------------------------------
# Formula AST (negation-normal-form friendly)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Top:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class Bottom:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True)
class Lit:
    literal: Literal

    def __str__(self) -> str:
        return str(self.literal)


@dataclass(frozen=True)
class And:
    args: Tuple["Formula", ...]

    def __str__(self) -> str:
        return "(" + " & ".join(str(a) for a in self.args) + ")"


@dataclass(frozen=True)
class Or:
    args: Tuple["Formula", ...]

    def __str__(self) -> str:
        return "(" + " | ".join(str(a) for a in self.args) + ")"


Formula = object  # Union[Top, Bottom, Lit, And, Or]

TRUE = Top()
FALSE = Bottom()


def lit(prim: Primitive) -> Formula:
    """The formula asserting ``prim``."""
    return Lit(Literal(prim, True))


def nlit(prim: Primitive) -> Formula:
    """The formula asserting the negation of ``prim``."""
    return Lit(Literal(prim, False))


def conj(*args: Formula) -> Formula:
    """Smart conjunction: flattens, drops ``true``, absorbs ``false``."""
    flat: List[Formula] = []
    for arg in args:
        if isinstance(arg, Bottom):
            return FALSE
        if isinstance(arg, Top):
            continue
        if isinstance(arg, And):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*args: Formula) -> Formula:
    """Smart disjunction: flattens, drops ``false``, absorbs ``true``."""
    flat: List[Formula] = []
    for arg in args:
        if isinstance(arg, Top):
            return TRUE
        if isinstance(arg, Bottom):
            continue
        if isinstance(arg, Or):
            flat.extend(arg.args)
        else:
            flat.append(arg)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(formula: Formula) -> Formula:
    """Negation, pushed to the literals (classical duality)."""
    if isinstance(formula, Top):
        return FALSE
    if isinstance(formula, Bottom):
        return TRUE
    if isinstance(formula, Lit):
        return Lit(formula.literal.negate())
    if isinstance(formula, And):
        return disj(*(neg(a) for a in formula.args))
    if isinstance(formula, Or):
        return conj(*(neg(a) for a in formula.args))
    raise TypeError(f"not a formula: {formula!r}")


# ---------------------------------------------------------------------------
# Theories
# ---------------------------------------------------------------------------


class Theory:
    """Client-supplied semantics of primitives.

    A theory gives primitives their meaning (:meth:`holds`,
    :meth:`is_param`) and declares the structure the cube codec
    exploits to keep cubes small and canonical:

    * :meth:`group_of` puts a primitive in an *exclusive-value group*
      (``location = value`` facts: exactly one value holds per
      location).  Ungrouped primitives are boolean, i.e. two-valued
      groups.
    * :meth:`exclusion_of` declares cross-primitive exclusions between
      boolean primitives: positive literals on opposite sides of one
      family cannot hold together.

    Cube normalisation, literal and cube entailment (Figure 9) and
    exhaustion are all derived from these two hooks by the theory's
    :class:`CubeCodec`; the frozenset methods below are thin
    encode/decode wrappers around it.
    """

    def holds(self, prim: Primitive, p: object, d: object) -> bool:
        """Whether ``(p, d)`` is in ``gamma(prim)``."""
        raise NotImplementedError

    def is_param(self, prim: Primitive) -> bool:
        """Whether ``gamma(prim)`` depends only on the abstraction ``p``."""
        raise NotImplementedError

    def group_of(self, prim: Primitive) -> Optional[Tuple[object, object, Tuple]]:
        """``(group_key, value, all_values)`` when ``prim`` asserts
        ``group_key = value`` in an exhaustive group of mutually
        exclusive values, else ``None`` (a boolean primitive)."""
        return None

    def make_primitive(self, group_key: object, value: object) -> Primitive:
        """Build the primitive asserting ``group_key = value``; needed
        only by theories whose :meth:`group_of` returns groups."""
        raise NotImplementedError

    def exclusion_of(self, prim: Primitive) -> Optional[Tuple[object, int]]:
        """``(family, side)`` with ``side`` 0 or 1 when ``prim`` is a
        boolean primitive that excludes every primitive on the other
        side of ``family`` (both cannot hold together), else ``None``.
        The codec derives the rules from it: opposite-side positives
        contradict, and a positive makes the opposite side's negative
        literals redundant (and entailed)."""
        return None

    @property
    def codec(self) -> "CubeCodec":
        """The theory's cube codec, created on first use."""
        codec = self.__dict__.get("_codec")
        if codec is None:
            codec = self._codec = CubeCodec(self)
        return codec

    # -- frozenset views, derived from the codec -------------------------

    def normalize_cube(self, literals: Cube) -> Optional[Cube]:
        """Semantics-preserving canonicalisation of a conjunction, or
        ``None`` when it is unsatisfiable."""
        codec = self.codec
        mask = codec.normalize(codec.encode(literals))
        return None if mask is None else codec.cube(mask)

    def lit_entails(self, a: Literal, b: Literal) -> bool:
        """Whether ``gamma(a) <= gamma(b)`` (sound, per Figure 9)."""
        codec = self.codec
        return codec.entails(codec.literal_bits(a), codec.literal_bits(b))

    def cube_entails_literal(self, stronger: Cube, b: Literal) -> bool:
        """Whether the conjunction ``stronger`` entails literal ``b``."""
        codec = self.codec
        return codec.entails(codec.encode(stronger), codec.literal_bits(b))

    def literals_exhaust(self, literals: FrozenSet[Literal]) -> bool:
        """Whether the disjunction of ``literals`` covers every pair,
        i.e. ``union of gamma(l) = P x D``.  Used by :func:`merge_cubes`
        to drop a literal whose siblings enumerate all cases: a
        complementary pair, or every value of one group."""
        codec = self.codec
        return any(l.negate() in literals for l in literals) or any(
            all(e in literals for e in codec.field(l.prim).equals)
            for l in literals
            if l.positive
        )


class ExclusiveValueTheory(Theory):
    """A theory whose primitives all assert ``location = value`` facts.

    Many dataflow abstract domains (including the thread-escape domain
    of Figure 5) map each *location* to exactly one of a small set of
    *values*.  Primitives then come in exhaustive, mutually exclusive
    groups: one per location, one primitive per value.  Subclasses
    provide :meth:`group_of` and :meth:`make_primitive`; the codec then
    derives cube normalisation:

    * two distinct positive values for one location -> ``false``;
    * a positive value makes every negative literal of the same group
      redundant (or contradictory);
    * all-but-one value negated -> replaced by the remaining positive;
    * all values negated -> ``false``.
    """

    def group_of(self, prim: Primitive) -> Tuple[object, object, Tuple]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The cube codec
# ---------------------------------------------------------------------------


class _Field:
    """One group's bits in a cube mask: ``size`` value bits starting at
    ``offset`` (bit ``offset + j`` set = value ``j`` excluded), then one
    guard bit that a full field carries into."""

    __slots__ = ("offset", "size", "values", "full", "equals", "differs")

    def __init__(
        self,
        offset: int,
        equals: Tuple[Literal, ...],
        differs: Tuple[Literal, ...],
    ):
        self.offset = offset
        self.size = len(equals)
        self.values = (1 << self.size) - 1
        self.full = self.values << offset
        #: ``equals[j]`` asserts value ``j``; ``differs[j]`` denies it.
        self.equals = equals
        self.differs = differs


class CubeCodec:
    """Integer encoding of one theory's cubes.

    Fields are allocated lazily, the first time a primitive of a group
    is seen, so masks only ever grow new high fields and existing masks
    stay valid.  A cube mask is in normal form (the codec's image of
    :meth:`Theory.normalize_cube`) when no field is full and the
    exclusion families' redundant negatives are cleared; the bijection
    with normalised frozenset cubes is :meth:`cube` / :meth:`encode`.

    Per mask the codec memoises the literal ids, the primitive support
    and the :func:`cube_sort_key` of the decoded cube; its ``hits`` and
    ``misses`` are registered as ``cube_memo.<Theory>``.
    """

    #: Bound on the per-mask memo; overflow evicts the oldest entry.
    #: A plain dict rather than an ``LruCache``: the memo is consulted
    #: for every cube the backward pass sorts, and the dict lookup is
    #: the fast path.
    CUBE_CACHE_SIZE = 200_000

    def __init__(self, theory: Theory):
        self.theory = theory
        #: The lowest value bit of every field, and every guard bit:
        #: ``(mask + ones) & guards`` is non-zero iff a field is full.
        self.ones = 0
        self.guards = 0
        #: Every positive literal bit of an exclusion family.
        self.family_pos = 0
        self._width = 0
        #: Bit position -> the field owning it.
        self._bit_field: List[_Field] = []
        self._slot: Dict[Primitive, Tuple[_Field, int]] = {}
        self._bits: Dict[Literal, int] = {}
        self._literal_dnfs: Dict[Literal, "Dnf"] = {}
        self._families: Dict[object, List[int]] = {}
        #: Literal ids: dense ints naming the literals masks decode to.
        self._literals: List[Literal] = []
        self._literal_ids: Dict[Literal, int] = {}
        self._literal_keys: List[Tuple] = []
        self._literal_atoms: List[int] = []
        #: One bit per primitive, for support masks.
        self._atoms: Dict[Primitive, int] = {}
        self._atom_prims: List[Primitive] = []
        self._info: Dict[int, Tuple[Tuple[int, ...], int, Tuple]] = {}
        self.hits = 0
        self.misses = 0
        obs_metrics.register_cache(f"cube_memo.{type(theory).__name__}", self)

    # -- fields -------------------------------------------------------------

    def field(self, prim: Primitive) -> _Field:
        """The field ``prim`` belongs to (allocated on first sight)."""
        return self._slot_of(prim)[0]

    def _slot_of(self, prim: Primitive) -> Tuple[_Field, int]:
        slot = self._slot.get(prim)
        if slot is None:
            self._allocate(prim)
            slot = self._slot[prim]
        return slot

    def _allocate(self, prim: Primitive) -> None:
        theory = self.theory
        group = theory.group_of(prim)
        if group is None:
            positive, negative = Literal(prim, True), Literal(prim, False)
            # A boolean primitive is the group {true, false}.
            field = self._add_field((positive, negative), (negative, positive))
            self._slot[prim] = (field, 0)
            family = theory.exclusion_of(prim)
            if family is not None:
                key, side = family
                masks = self._families.setdefault(key, [0, 0, 0, 0])
                pos_bit, neg_bit = 2 << field.offset, 1 << field.offset
                masks[2 * side] |= pos_bit
                masks[2 * side + 1] |= neg_bit
                self.family_pos |= pos_bit
            return
        key, value, values = group
        prims = tuple(theory.make_primitive(key, v) for v in values)
        field = self._add_field(
            tuple(Literal(q, True) for q in prims),
            tuple(Literal(q, False) for q in prims),
        )
        for j, q in enumerate(prims):
            self._slot[q] = (field, j)
        self._slot[prim] = (field, values.index(value))

    def _add_field(self, equals, differs) -> _Field:
        if len(equals) < 2:
            raise ValueError(f"a group needs at least two values: {equals!r}")
        field = _Field(self._width, equals, differs)
        self._bit_field.extend([field] * (field.size + 1))
        self._width += field.size + 1
        self.ones |= 1 << field.offset
        self.guards |= 1 << (field.offset + field.size)
        for literal in equals + differs:
            if literal not in self._literal_ids:
                self._literal_ids[literal] = len(self._literals)
                self._literals.append(literal)
                self._literal_keys.append(literal.sort_key())
                atom = self._atoms.get(literal.prim)
                if atom is None:
                    atom = self._atoms[literal.prim] = 1 << len(self._atoms)
                    self._atom_prims.append(literal.prim)
                self._literal_atoms.append(atom)
        return field

    # -- encoding -----------------------------------------------------------

    def literal_bits(self, literal: Literal) -> int:
        """The mask of the single-literal cube ``{literal}``."""
        bits = self._bits.get(literal)
        if bits is None:
            field, j = self._slot_of(literal.prim)
            bit = 1 << (field.offset + j)
            bits = self._bits[literal] = (
                field.full & ~bit if literal.positive else bit
            )
        return bits

    def literal_dnf(self, literal: Literal) -> "Dnf":
        """The DNF ``{literal}``: one shared object per literal, the wp
        of every literal a command leaves unchanged."""
        dnf = self._literal_dnfs.get(literal)
        if dnf is None:
            dnf = Dnf((self.literal_bits(literal),), self)
            self._literal_dnfs[literal] = dnf
        return dnf

    def encode(self, literals: Iterable[Literal]) -> int:
        """The (not necessarily normal) mask of a conjunction."""
        mask = 0
        for literal in literals:
            mask |= self.literal_bits(literal)
        return mask

    def atom(self, prim: Primitive) -> int:
        """``prim``'s bit in support masks."""
        self._slot_of(prim)
        return self._atoms[prim]

    def atom_prim(self, atom: int) -> Primitive:
        """The primitive of a single support bit."""
        return self._atom_prims[atom.bit_length() - 1]

    def literal_id(self, literal: Literal) -> int:
        self._slot_of(literal.prim)
        return self._literal_ids[literal]

    # -- normal forms and entailment -----------------------------------------

    def normalize(self, mask: int) -> Optional[int]:
        """The normal form of ``mask``, or ``None`` when unsatisfiable."""
        if (mask + self.ones) & self.guards:
            return None
        if mask & self.family_pos:
            for pos0, neg0, pos1, neg1 in self._families.values():
                if mask & pos0:
                    if mask & pos1:
                        return None
                    mask &= ~neg1
                elif mask & pos1:
                    mask &= ~neg0
        return mask

    def closure(self, mask: int) -> int:
        """``mask`` plus every negative literal its positives entail
        through an exclusion family (Figure 9's cross-primitive rules)."""
        if mask & self.family_pos:
            for pos0, neg0, pos1, neg1 in self._families.values():
                if mask & pos0:
                    mask |= neg1
                if mask & pos1:
                    mask |= neg0
        return mask

    def entails(self, stronger: int, weaker: int) -> bool:
        """Whether every literal of ``weaker`` is entailed by a literal
        of ``stronger`` (the check of Figure 9), on normal masks."""
        return not weaker & ~self.closure(stronger)

    # -- decoding -----------------------------------------------------------

    def _describe(self, mask: int) -> Tuple[Tuple[int, ...], int, Tuple]:
        """``(literal ids, support, sort key)`` of a normal mask."""
        info = self._info.get(mask)
        if info is not None:
            self.hits += 1
            return info
        self.misses += 1
        ids: List[int] = []
        literal_ids = self._literal_ids
        rest = mask
        while rest:
            field = self._bit_field[(rest & -rest).bit_length() - 1]
            rest &= ~field.full
            excluded = (mask >> field.offset) & field.values
            if bin(excluded).count("1") == field.size - 1:
                remaining = (excluded ^ field.values).bit_length() - 1
                ids.append(literal_ids[field.equals[remaining]])
            else:
                ids.extend(
                    literal_ids[field.differs[j]]
                    for j in range(field.size)
                    if excluded >> j & 1
                )
        support = 0
        for i in ids:
            support |= self._literal_atoms[i]
        keys = self._literal_keys
        info = (
            tuple(ids),
            support,
            (len(ids), tuple(sorted(keys[i] for i in ids))),
        )
        if len(self._info) >= self.CUBE_CACHE_SIZE:
            del self._info[next(iter(self._info))]
        self._info[mask] = info
        return info

    def cube(self, mask: int) -> Cube:
        """The frozenset of literals a normal mask denotes."""
        literals = self._literals
        return frozenset(literals[i] for i in self._describe(mask)[0])

    def literal_ids(self, mask: int) -> Tuple[int, ...]:
        return self._describe(mask)[0]

    def literal(self, literal_id: int) -> Literal:
        return self._literals[literal_id]

    def support(self, mask: int) -> int:
        """The atom bits of the primitives a normal mask mentions."""
        return self._describe(mask)[1]

    def sort_key(self, mask: int) -> Tuple:
        """:func:`cube_sort_key` of the decoded cube."""
        return self._describe(mask)[2]

    def sort_unique(self, masks: Iterable[int]) -> Tuple[int, ...]:
        """Distinct masks in ``toDNF`` order (syntactic size, then the
        literals' sort keys)."""
        unique = set(masks)
        if len(unique) < 2:
            return tuple(unique)
        describe = self._describe
        keys = {mask: describe(mask)[2] for mask in unique}
        return tuple(sorted(unique, key=keys.__getitem__))

    def point(self, p: object, d: object) -> "_Point":
        """The pair ``(p, d)`` as a lazily evaluated mask."""
        return _Point(self, p, d)


class _Point:
    """A pair ``(p, d)`` seen through the codec: ``bits`` holds, for
    every field evaluated so far (``known``), the bit of the value that
    holds at ``(p, d)``.  A normal cube contains the pair iff it
    excludes none of those values: one AND."""

    __slots__ = ("codec", "p", "d", "known", "bits")

    def __init__(self, codec: CubeCodec, p: object, d: object):
        self.codec = codec
        self.p = p
        self.d = d
        self.known = 0
        self.bits = 0

    def contains(self, mask: int) -> bool:
        if mask & ~self.known:
            self._evaluate(mask)
        return not mask & self.bits

    def _evaluate(self, mask: int) -> None:
        codec, p, d = self.codec, self.p, self.d
        rest = mask & ~self.known
        while rest:
            field = codec._bit_field[(rest & -rest).bit_length() - 1]
            rest &= ~field.full
            self.known |= field.full
            for j, literal in enumerate(field.equals):
                if evaluate_literal(literal, codec.theory, p, d):
                    self.bits |= 1 << (field.offset + j)
                    break


# ---------------------------------------------------------------------------
# DNF conversion and the Figure 8 operators
# ---------------------------------------------------------------------------


class Dnf:
    """A formula in disjunctive normal form: a disjunction of cubes.

    ``masks`` are the cubes as normal masks of ``codec``, sorted by
    syntactic size (then deterministically); the empty disjunction is
    ``false`` and a single empty cube is ``true``.  ``cubes`` is the
    decoded frozenset view.  ``peak`` is the largest number of cubes
    live at once while the DNF was built (the quantity the
    ``max_cubes`` budget bounds).
    """

    __slots__ = ("masks", "codec", "peak", "_cubes", "_support")

    def __init__(self, masks: Tuple[int, ...], codec: CubeCodec, peak: int = 0):
        self.masks = masks
        self.codec = codec
        self.peak = max(peak, len(masks))
        self._cubes: Optional[Tuple[Cube, ...]] = None
        self._support: Optional[int] = None

    @property
    def cubes(self) -> Tuple[Cube, ...]:
        if self._cubes is None:
            self._cubes = tuple(self.codec.cube(m) for m in self.masks)
        return self._cubes

    @property
    def support(self) -> int:
        """The atom bits of every primitive the formula mentions."""
        if self._support is None:
            support = 0
            for mask in self.masks:
                support |= self.codec.support(mask)
            self._support = support
        return self._support

    @property
    def is_false(self) -> bool:
        return not self.masks

    @property
    def is_true(self) -> bool:
        return self.masks == (0,)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dnf)
            and self.masks == other.masks
            and self.codec is other.codec
        )

    def __hash__(self) -> int:
        return hash(self.masks)

    def __repr__(self) -> str:
        return f"Dnf({self.cubes!r})"

    def __str__(self) -> str:
        if self.is_false:
            return "false"
        return " | ".join(f"({pretty_cube(c)})" for c in self.cubes)

    def to_formula(self) -> Formula:
        return disj(*(conj(*(Lit(l) for l in cube)) for cube in self.cubes))


def to_dnf(
    formula: Formula, theory: Theory, max_cubes: Optional[int] = None
) -> Dnf:
    """Convert ``formula`` to DNF, normalising every cube via ``theory``.

    ``max_cubes`` bounds the number of cubes live at any point during
    the conversion; exceeding it raises :class:`FormulaExplosion`.
    The result's cubes are sorted by size, matching ``toDNF`` of
    Figure 8.  A :class:`Dnf` of the same theory may appear as a leaf
    of ``formula`` (the backward pass substitutes memoised wp DNFs);
    its recorded ``peak`` is held to the same budget.
    """
    codec = theory.codec
    budget = _Budget(max_cubes)
    masks = _dnf_masks(formula, codec, budget)
    return Dnf(codec.sort_unique(masks), codec, budget.peak)


class _Budget:
    __slots__ = ("limit", "peak")

    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.peak = 0

    def check(self, count: int) -> None:
        if count > self.peak:
            self.peak = count
            if self.limit is not None and count > self.limit:
                raise FormulaExplosion(
                    f"DNF conversion produced {count} cubes "
                    f"(budget {self.limit})"
                )


def _dnf_masks(
    formula: Formula, codec: CubeCodec, budget: _Budget
) -> Sequence[int]:
    if type(formula) is Dnf:
        budget.check(formula.peak)
        return formula.masks
    if isinstance(formula, Lit):
        return (codec.literal_bits(formula.literal),)
    if isinstance(formula, Top):
        return (0,)
    if isinstance(formula, Bottom):
        return ()
    if isinstance(formula, Or):
        out: List[int] = []
        seen = set()
        for arg in formula.args:
            for mask in _dnf_masks(arg, codec, budget):
                if mask not in seen:
                    seen.add(mask)
                    out.append(mask)
            budget.check(len(out))
        return out
    if isinstance(formula, And):
        acc: Sequence[int] = (0,)
        for arg in formula.args:
            if type(arg) is Dnf:
                # The backward pass's memoised wp leaves: no recursion.
                budget.check(arg.peak)
                arg_masks = arg.masks
            else:
                arg_masks = _dnf_masks(arg, codec, budget)
            # Read after the argument: converting it may add fields.
            ones, guards = codec.ones, codec.guards
            if len(arg_masks) == 1:
                (right,) = arg_masks
                merged = {left | right for left in acc}
            else:
                merged = {left | right for left in acc for right in arg_masks}
            # A full field (the add carries into its guard bit) is a
            # contradiction.
            product = {m for m in merged if not (m + ones) & guards}
            if codec.family_pos:
                normalize = codec.normalize
                product = {normalize(m) for m in product}
                product.discard(None)
            budget.check(len(product))
            acc = product
        return acc
    raise TypeError(f"not a formula: {formula!r}")


def cube_entails(stronger: Cube, weaker: Cube, theory: Theory) -> bool:
    """Whether ``gamma(stronger) <= gamma(weaker)`` (cube subsumption).

    Holds when every literal of ``weaker`` is entailed by some literal
    of ``stronger`` — the (sound, incomplete) check of Figure 9.
    """
    codec = theory.codec
    return codec.entails(codec.encode(stronger), codec.encode(weaker))


def simplify(dnf: Dnf, theory: Theory) -> Dnf:
    """Remove disjuncts subsumed by earlier (shorter) kept disjuncts.

    This is ``simplify`` of Figure 8 and is semantics-preserving: a
    removed cube denotes a subset of a kept one.  On masks a cube is
    subsumed by an earlier one when the earlier one's bits are a
    subset of the cube's (closed under the theory's exclusions).
    """
    codec = theory.codec
    closure = codec.closure if codec.family_pos else None
    kept: List[int] = []
    for mask in dnf.masks:
        outside = ~(closure(mask) if closure else mask)
        for earlier in kept:
            if not earlier & outside:
                break
        else:
            kept.append(mask)
    if len(kept) == len(dnf.masks):
        return dnf
    return Dnf(tuple(kept), codec)


def merge_cubes(dnf: Dnf, theory: Theory) -> Dnf:
    """Semantics-preserving cube merging (a one-literal Quine-McCluskey
    pass, iterated to fixpoint).

    Whenever a set of cubes share a common *rest* and their remaining
    literals exhaust all cases (``l`` and ``!l``, or a full value sweep
    of an exclusive group), the whole set collapses to the rest.  Used
    to compact formulas produced by wp *synthesis*, whose raw output
    enumerates one cube per footprint assignment.

    Runs on the decoded frozenset view: which merge fires first follows
    set iteration order, and the derived wp formulas must not change."""
    cubes = set(dnf.cubes)
    changed = True
    while changed:
        changed = False
        by_rest: Dict[Cube, set] = {}
        for cube in cubes:
            for l in cube:
                by_rest.setdefault(cube - {l}, set()).add(l)
        for rest, literals in by_rest.items():
            if len(literals) < 2 or rest in cubes:
                continue
            if theory.literals_exhaust(frozenset(literals)):
                for l in literals:
                    cubes.discard(rest | {l})
                normalized = theory.normalize_cube(rest)
                if normalized is not None:
                    cubes.add(normalized)
                changed = True
                break
    codec = theory.codec
    return simplify(
        Dnf(codec.sort_unique(codec.encode(c) for c in cubes), codec), theory
    )


def drop_k(
    dnf: Dnf, k: int, contains_current: Callable[[Cube], bool]
) -> Dnf:
    """The beam under-approximation ``dropk`` of Figure 8.

    Keeps the first ``k - 1`` disjuncts (the input is size-sorted) plus
    the first disjunct for which ``contains_current`` holds, i.e. the
    smallest disjunct containing the current ``(p, d)``.  The result
    under-approximates the input and still contains ``(p, d)`` whenever
    the input did — the two requirements on ``approx`` in Section 4.

    Raises ``ValueError`` when no disjunct contains the current pair,
    which would violate the meta-analysis invariant.
    """
    codec = dnf.codec
    return drop_k_masks(dnf, k, lambda mask: contains_current(codec.cube(mask)))


def drop_k_masks(dnf: Dnf, k: int, contains_current: Callable[[int], bool]) -> Dnf:
    """:func:`drop_k` with the containment test taking a cube mask
    (e.g. :meth:`_Point.contains`)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    masks = dnf.masks
    if len(masks) <= k:
        return dnf
    kept = list(masks[: k - 1])
    for mask in masks:
        if contains_current(mask):
            if mask not in kept:
                kept.append(mask)
            return Dnf(tuple(kept), dnf.codec)
    raise ValueError(
        "drop_k: no disjunct contains the current (p, d); "
        "the meta-analysis invariant is broken"
    )


# ---------------------------------------------------------------------------
# Evaluation and weakest-precondition substitution
# ---------------------------------------------------------------------------


def evaluate_literal(literal: Literal, theory: Theory, p: object, d: object) -> bool:
    value = theory.holds(literal.prim, p, d)
    return value if literal.positive else not value


def evaluate_cube(cube: Cube, theory: Theory, p: object, d: object) -> bool:
    return all(evaluate_literal(l, theory, p, d) for l in cube)


def evaluate(formula: Formula, theory: Theory, p: object, d: object) -> bool:
    """Whether ``(p, d)`` is in ``gamma(formula)``."""
    if isinstance(formula, Dnf):
        return any(evaluate_cube(cube, theory, p, d) for cube in formula.cubes)
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bottom):
        return False
    if isinstance(formula, Lit):
        return evaluate_literal(formula.literal, theory, p, d)
    if isinstance(formula, And):
        return all(evaluate(a, theory, p, d) for a in formula.args)
    if isinstance(formula, Or):
        return any(evaluate(a, theory, p, d) for a in formula.args)
    raise TypeError(f"not a formula: {formula!r}")


def wp_substitute(dnf: Dnf, wp_prim: Callable[[Primitive], Formula]) -> Formula:
    """Substitute every primitive by its weakest precondition.

    Because the forward transfer functions are total and deterministic,
    weakest precondition is a boolean homomorphism: it distributes over
    conjunction, disjunction, *and* negation.  Clients therefore only
    define ``wp`` on primitives; this function lifts it to DNF formulas
    (negative literals become the negation of the primitive's wp).
    """
    disjuncts = []
    for cube in dnf.cubes:
        parts = []
        for l in cube:
            pre = wp_prim(l.prim)
            parts.append(pre if l.positive else neg(pre))
        disjuncts.append(conj(*parts))
    return disj(*disjuncts)
