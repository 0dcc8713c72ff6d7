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
only on the abstraction component, and supplies semantic rewrites that
keep cubes small (mutual exclusion between primitives and literal
entailment).  All rewrites performed here except ``drop_k`` are
semantics-preserving; ``drop_k`` only ever shrinks ``gamma``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.lru import LruCache
from repro.obs import metrics as obs_metrics

#: Distinguishes "absent" from a cached ``None`` (an unsatisfiable cube).
_CACHE_MISS = object()


class FormulaExplosion(RuntimeError):
    """Raised when DNF conversion exceeds the configured cube budget."""


class Primitive:
    """Base class for primitive formulas (``PForm`` in the paper).

    Subclasses should be frozen dataclasses.  ``sort_key`` induces the
    deterministic order used when sorting literals and cubes; the
    default key is derived from the dataclass fields.
    """

    __slots__ = ()

    def sort_key(self) -> Tuple:
        fields = getattr(self, "__dataclass_fields__", None)
        if fields is None:
            return (type(self).__name__, repr(self))
        return (type(self).__name__,) + tuple(
            str(getattr(self, name)) for name in fields
        )


class Literal:
    """A primitive or its negation.

    Implemented as a hash-caching value class: literals live in
    frozensets that are unioned, compared, and re-hashed constantly on
    the meta-analysis hot path, so the hash is computed once."""

    __slots__ = ("prim", "positive", "_hash")

    def __init__(self, prim: Primitive, positive: bool = True):
        self.prim = prim
        self.positive = positive
        self._hash = hash((prim, positive))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Literal)
            and self.positive == other.positive
            and self.prim == other.prim
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Literal({self.prim!r}, {self.positive})"

    def negate(self) -> "Literal":
        return Literal(self.prim, not self.positive)

    def sort_key(self) -> Tuple:
        return self.prim.sort_key() + (not self.positive,)

    def __str__(self) -> str:
        return str(self.prim) if self.positive else f"!{self.prim}"


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

    The base implementation knows nothing about the primitives beyond
    syntactic identity; clients override the hooks to plug in domain
    knowledge (mutual exclusion, entailment), which keeps the cubes the
    meta-analysis manipulates small and canonical.
    """

    def holds(self, prim: Primitive, p: object, d: object) -> bool:
        """Whether ``(p, d)`` is in ``gamma(prim)``."""
        raise NotImplementedError

    def is_param(self, prim: Primitive) -> bool:
        """Whether ``gamma(prim)`` depends only on the abstraction ``p``."""
        raise NotImplementedError

    def lit_entails(self, a: Literal, b: Literal) -> bool:
        """Whether ``gamma(a) <= gamma(b)``.  Must be sound; syntactic
        equality is the (complete-enough per Figure 9) default."""
        return a == b

    def cube_entails_literal(self, stronger: Cube, b: Literal) -> bool:
        """Whether the conjunction ``stronger`` entails literal ``b``.

        The default scans for an entailing literal; theories with
        structured primitives override this with set lookups, which
        turns cube subsumption from quadratic to linear."""
        return b in stronger or any(self.lit_entails(a, b) for a in stronger)

    def literals_exhaust(self, literals: FrozenSet[Literal]) -> bool:
        """Whether the disjunction of ``literals`` covers every pair,
        i.e. ``union of gamma(l) = P x D``.  Used by :func:`merge_cubes`
        to drop a literal whose siblings enumerate all cases.  The
        default recognises complementary pairs; exclusive-value
        theories also recognise a full positive value sweep."""
        return any(l.negate() in literals for l in literals)

    def normalize_cube(self, literals: Cube) -> Optional[Cube]:
        """Semantics-preserving canonicalisation of a conjunction.

        Returns ``None`` when the conjunction is unsatisfiable.  The
        default detects complementary literal pairs; clients may also
        resolve exclusive-value groups and drop entailed literals.
        """
        for l in literals:
            if l.negate() in literals:
                return None
        return literals

    #: Bound on the per-theory normalisation memo; crossing it evicts
    #: one cold entry at a time (LRU) rather than the whole working set.
    NORMALIZE_CACHE_SIZE = 500_000

    def normalize_cached(self, literals: Cube) -> Optional[Cube]:
        """Memoised :meth:`normalize_cube` — the DNF machinery
        re-normalises the same cubes constantly on long traces."""
        cache = getattr(self, "_normalize_cache", None)
        if cache is None:
            cache = self._normalize_cache = LruCache(self.NORMALIZE_CACHE_SIZE)
            obs_metrics.register_cache(
                f"normalize_memo.{type(self).__name__}", cache
            )
        result = cache.get(literals, _CACHE_MISS)
        if result is _CACHE_MISS:
            result = self.normalize_cube(literals)
            cache.put(literals, result)
        return result

    #: Bounds on the per-theory :func:`to_dnf` / :func:`simplify` memos.
    #: The backward pass converts and simplifies the same post-state
    #: formulas once per trace suffix; both operations are pure
    #: functions of (hashable) formula identity, so results are shared
    #: across iterations and queries of one theory instance.
    DNF_CACHE_SIZE = 100_000
    SIMPLIFY_CACHE_SIZE = 100_000

    def _dnf_memo(self) -> LruCache:
        cache = getattr(self, "_dnf_cache", None)
        if cache is None:
            cache = self._dnf_cache = LruCache(self.DNF_CACHE_SIZE)
            obs_metrics.register_cache(
                f"dnf_memo.{type(self).__name__}", cache
            )
        return cache

    def _simplify_memo(self) -> LruCache:
        cache = getattr(self, "_simplify_cache", None)
        if cache is None:
            cache = self._simplify_cache = LruCache(self.SIMPLIFY_CACHE_SIZE)
            obs_metrics.register_cache(
                f"simplify_memo.{type(self).__name__}", cache
            )
        return cache


class ExclusiveValueTheory(Theory):
    """A theory whose primitives assert ``location = value`` facts.

    Many dataflow abstract domains (including the thread-escape domain
    of Figure 5) map each *location* to exactly one of a small set of
    *values*.  Primitives then come in exhaustive, mutually exclusive
    groups: one per location, one primitive per value.  Subclasses
    provide :meth:`group_of`; this class derives cube normalisation:

    * two distinct positive values for one location -> ``false``;
    * a positive value makes every negative literal of the same group
      redundant (or contradictory);
    * all-but-one value negated -> replaced by the remaining positive;
    * all values negated -> ``false``.
    """

    def group_of(self, prim: Primitive) -> Optional[Tuple[object, object, Tuple]]:
        """Return ``(group_key, value, all_values)`` or ``None``."""
        raise NotImplementedError

    def make_primitive(self, group_key: object, value: object) -> Primitive:
        """Build the primitive asserting ``group_key = value``."""
        raise NotImplementedError

    #: Bound on the primitive-group memo (one entry per distinct
    #: primitive, so this only matters for very large universes).
    GROUP_CACHE_SIZE = 65_536

    def _group_cached(self, prim: Primitive):
        cache = getattr(self, "_group_cache", None)
        if cache is None:
            cache = self._group_cache = LruCache(self.GROUP_CACHE_SIZE)
            obs_metrics.register_cache(
                f"group_memo.{type(self).__name__}", cache
            )
        result = cache.get(prim, _CACHE_MISS)
        if result is _CACHE_MISS:
            result = self.group_of(prim)
            cache.put(prim, result)
        return result

    def normalize_cube(self, literals: Cube) -> Optional[Cube]:
        groups: Dict[object, Dict[object, bool]] = {}
        values_of: Dict[object, Tuple] = {}
        rest: List[Literal] = []
        for l in literals:
            info = self._group_cached(l.prim)
            if info is None:
                if l.negate() in literals:
                    return None
                rest.append(l)
                continue
            key, value, all_values = info
            bucket = groups.setdefault(key, {})
            if value in bucket and bucket[value] != l.positive:
                return None
            bucket[value] = l.positive
            values_of[key] = all_values
        out: List[Literal] = list(rest)
        for key, bucket in groups.items():
            all_values = values_of[key]
            positives = [v for v, sign in bucket.items() if sign]
            negatives = [v for v, sign in bucket.items() if not sign]
            if len(positives) >= 2:
                return None
            if positives:
                value = positives[0]
                if value in negatives:
                    return None
                out.append(Literal(self.make_primitive(key, value), True))
                continue
            remaining = [v for v in all_values if v not in negatives]
            if not remaining:
                return None
            if len(remaining) == 1:
                out.append(Literal(self.make_primitive(key, remaining[0]), True))
            else:
                out.extend(
                    Literal(self.make_primitive(key, v), False) for v in negatives
                )
        return frozenset(out)

    def lit_entails(self, a: Literal, b: Literal) -> bool:
        if a == b:
            return True
        ga = self._group_cached(a.prim)
        gb = self._group_cached(b.prim)
        if ga is None or gb is None or ga[0] != gb[0]:
            return False
        # Same exclusive group: `loc = v` entails `loc != w` for w != v.
        if a.positive and not b.positive and ga[1] != gb[1]:
            return True
        return False

    def cube_entails_literal(self, stronger: Cube, b: Literal) -> bool:
        if b in stronger:
            return True
        info = self._group_cached(b.prim)
        if info is None or b.positive:
            # Positive exclusive-value literals are entailed only by
            # themselves (normalised cubes carry at most one positive
            # value per group).
            return False
        key, value, all_values = info
        return any(
            Literal(self.make_primitive(key, other), True) in stronger
            for other in all_values
            if other != value
        )

    def literals_exhaust(self, literals: FrozenSet[Literal]) -> bool:
        if super().literals_exhaust(literals):
            return True
        by_group: Dict[object, set] = {}
        values_of: Dict[object, Tuple] = {}
        for l in literals:
            if not l.positive:
                continue
            info = self._group_cached(l.prim)
            if info is None:
                continue
            key, value, all_values = info
            by_group.setdefault(key, set()).add(value)
            values_of[key] = all_values
        return any(
            by_group[key] >= set(values_of[key]) for key in by_group
        )


# ---------------------------------------------------------------------------
# DNF conversion and the Figure 8 operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dnf:
    """A formula in disjunctive normal form: a disjunction of cubes.

    Invariants: cubes are normalised by the theory that produced the
    Dnf, sorted by syntactic size (then deterministically), and the
    empty disjunction is ``false`` while a single empty cube is
    ``true``.
    """

    cubes: Tuple[Cube, ...]

    @property
    def is_false(self) -> bool:
        return not self.cubes

    @property
    def is_true(self) -> bool:
        return len(self.cubes) == 1 and not self.cubes[0]

    def __str__(self) -> str:
        if self.is_false:
            return "false"
        return " | ".join(f"({pretty_cube(c)})" for c in self.cubes)

    def to_formula(self) -> Formula:
        return disj(*(conj(*(Lit(l) for l in cube)) for cube in self.cubes))


def _sorted_cubes(cubes: Iterable[Cube]) -> Tuple[Cube, ...]:
    unique = sorted(set(cubes), key=cube_sort_key)
    return tuple(unique)


def to_dnf(
    formula: Formula, theory: Theory, max_cubes: Optional[int] = None
) -> Dnf:
    """Convert ``formula`` to DNF, normalising every cube via ``theory``.

    ``max_cubes`` bounds the number of cubes live at any point during
    the conversion; exceeding it raises :class:`FormulaExplosion`.
    The result's cubes are sorted by size, matching ``toDNF`` of
    Figure 8.

    Successful conversions are memoised per theory, keyed on the
    (hashable) formula plus the budget — the budget must be in the key
    because whether a conversion explodes depends on the *intermediate*
    cube counts it allows.  Explosions are never cached: a later call
    with a larger budget must get its chance to succeed.
    """
    cache = theory._dnf_memo()
    key = (formula, max_cubes)
    result = cache.get(key, _CACHE_MISS)
    if result is _CACHE_MISS:
        cubes = _dnf_cubes(formula, theory, max_cubes)
        result = Dnf(_sorted_cubes(cubes))
        cache.put(key, result)
    return result


def _dnf_cubes(
    formula: Formula, theory: Theory, max_cubes: Optional[int]
) -> List[Cube]:
    if isinstance(formula, Top):
        return [frozenset()]
    if isinstance(formula, Bottom):
        return []
    if isinstance(formula, Lit):
        normalized = theory.normalize_cached(frozenset([formula.literal]))
        return [] if normalized is None else [normalized]
    if isinstance(formula, Or):
        out: List[Cube] = []
        seen = set()
        for arg in formula.args:
            for cube in _dnf_cubes(arg, theory, max_cubes):
                if cube not in seen:
                    seen.add(cube)
                    out.append(cube)
            _check_budget(out, max_cubes)
        return out
    if isinstance(formula, And):
        acc: List[Cube] = [frozenset()]
        for arg in formula.args:
            arg_cubes = _dnf_cubes(arg, theory, max_cubes)
            next_acc: List[Cube] = []
            seen = set()
            for left in acc:
                for right in arg_cubes:
                    merged = theory.normalize_cached(left | right)
                    if merged is not None and merged not in seen:
                        seen.add(merged)
                        next_acc.append(merged)
            _check_budget(next_acc, max_cubes)
            acc = next_acc
        return acc
    raise TypeError(f"not a formula: {formula!r}")


def _check_budget(cubes: Sequence[Cube], max_cubes: Optional[int]) -> None:
    if max_cubes is not None and len(cubes) > max_cubes:
        raise FormulaExplosion(
            f"DNF conversion produced {len(cubes)} cubes (budget {max_cubes})"
        )


def cube_entails(stronger: Cube, weaker: Cube, theory: Theory) -> bool:
    """Whether ``gamma(stronger) <= gamma(weaker)`` (cube subsumption).

    Holds when every literal of ``weaker`` is entailed by some literal
    of ``stronger`` — the (sound, incomplete) check of Figure 9.
    """
    rest = weaker - stronger  # entailment is reflexive
    return all(theory.cube_entails_literal(stronger, b) for b in rest)


def simplify(dnf: Dnf, theory: Theory) -> Dnf:
    """Remove disjuncts subsumed by earlier (shorter) kept disjuncts.

    This is ``simplify`` of Figure 8 and is semantics-preserving: a
    removed cube denotes a subset of a kept one.

    Memoised per theory on the cube tuple: the backward pass simplifies
    the same post-state DNFs once per trace suffix.
    """
    cache = theory._simplify_memo()
    result = cache.get(dnf.cubes, _CACHE_MISS)
    if result is _CACHE_MISS:
        kept: List[Cube] = []
        for cube in dnf.cubes:
            if any(cube_entails(cube, earlier, theory) for earlier in kept):
                continue
            kept.append(cube)
        result = Dnf(tuple(kept))
        cache.put(dnf.cubes, result)
    return result


def merge_cubes(dnf: Dnf, theory: Theory) -> Dnf:
    """Semantics-preserving cube merging (a one-literal Quine-McCluskey
    pass, iterated to fixpoint).

    Whenever a set of cubes share a common *rest* and their remaining
    literals exhaust all cases (``l`` and ``!l``, or a full value sweep
    of an exclusive group), the whole set collapses to the rest.  Used
    to compact formulas produced by wp *synthesis*, whose raw output
    enumerates one cube per footprint assignment."""
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
                normalized = theory.normalize_cached(rest)
                if normalized is not None:
                    cubes.add(normalized)
                changed = True
                break
    return simplify(Dnf(_sorted_cubes(cubes)), theory)


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(dnf.cubes) <= k:
        return dnf
    kept = list(dnf.cubes[: k - 1])
    return Dnf(tuple(_with_current(dnf, kept, contains_current)))


def _with_current(
    dnf: Dnf, kept: List[Cube], contains_current: Callable[[Cube], bool]
) -> List[Cube]:
    for cube in dnf.cubes:
        if contains_current(cube):
            if cube not in kept:
                kept.append(cube)
            return kept
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
