"""The cube codec against brute force, one seeded property test per
client theory.

Random cubes over small universes are checked against enumeration of
every ``(p, d)`` pair: mask conjunction and normalisation preserve
``gamma`` exactly, a contradiction is reported exactly when ``gamma``
is empty, mask entailment is sound and equals the literal-level
Figure 9 check the theories used before the codec (restated below as
the reference), and decoding a normal mask gives the reference normal
form of the cube.
"""

import random

import pytest

from repro.core.formula import (
    ExclusiveValueTheory,
    Literal,
    cube_sort_key,
    evaluate_cube,
)
from repro.escape.meta import EscapeTheory
from repro.provenance.domain import PT_TOP
from repro.provenance.meta import ProvenanceTheory, PtHas, PtTop
from repro.typestate import TypestateTheory
from repro.typestate.meta import TsErr, TsType, TsVar
from tests.core.test_theories import (
    ESCAPE_LITS,
    PT_LITS,
    PT_SCHEMA,
    SITES,
    TS_LITS,
    escape_pairs,
    typestate_pairs,
)


def provenance_pairs():
    """Every pair over two variables and two sites, including each
    variable bound to every subset of the sites (exactness of the
    contradiction check needs the whole domain)."""
    values = [PT_TOP] + [
        frozenset(s for i, s in enumerate(SITES) if bits >> i & 1)
        for bits in range(4)
    ]
    for p_bits in range(4):
        p = frozenset(s for i, s in enumerate(SITES) if p_bits >> i & 1)
        for vx in values:
            for vy in values:
                yield p, PT_SCHEMA.state({"x": vx, "y": vy})


# -- the pre-codec rules, as reference ---------------------------------------


def _reference_normalize_exclusive(theory, literals):
    groups, values_of, out = {}, {}, []
    for l in literals:
        key, value, all_values = theory.group_of(l.prim)
        bucket = groups.setdefault(key, {})
        if bucket.get(value, l.positive) != l.positive:
            return None
        bucket[value] = l.positive
        values_of[key] = all_values
    for key, bucket in groups.items():
        positives = [v for v, sign in bucket.items() if sign]
        negatives = [v for v, sign in bucket.items() if not sign]
        if len(positives) >= 2:
            return None
        if positives:
            out.append(Literal(theory.make_primitive(key, positives[0]), True))
            continue
        remaining = [v for v in values_of[key] if v not in negatives]
        if not remaining:
            return None
        if len(remaining) == 1:
            out.append(Literal(theory.make_primitive(key, remaining[0]), True))
        else:
            out.extend(
                Literal(theory.make_primitive(key, v), False) for v in negatives
            )
    return frozenset(out)


def _reference_normalize_family(literals, side):
    """The type-state / provenance rules: opposite-side positives of
    one family contradict; a positive drops the other side's
    negatives.  ``side(prim)`` is ``(family, 0 or 1)`` or ``None``."""
    if any(l.negate() in literals for l in literals):
        return None
    positive_sides = {}
    for l in literals:
        info = side(l.prim)
        if l.positive and info is not None:
            positive_sides.setdefault(info[0], set()).add(info[1])
    if any(len(sides) > 1 for sides in positive_sides.values()):
        return None
    out = set()
    for l in literals:
        info = side(l.prim)
        if (
            info is not None
            and not l.positive
            and (1 - info[1]) in positive_sides.get(info[0], ())
        ):
            continue
        out.add(l)
    return frozenset(out)


def _ts_side(prim):
    if isinstance(prim, TsErr):
        return ("top", 0)
    if isinstance(prim, (TsVar, TsType)):
        return ("top", 1)
    return None


def _pt_side(prim):
    if isinstance(prim, PtTop):
        return (prim.var, 0)
    if isinstance(prim, PtHas):
        return (prim.var, 1)
    return None


def _reference_lit_entails(theory, a, b, side):
    if a is b:
        return True
    if isinstance(theory, ExclusiveValueTheory):
        ga, gb = theory.group_of(a.prim), theory.group_of(b.prim)
        return (
            ga[0] == gb[0] and a.positive and not b.positive and ga[1] != gb[1]
        )
    sa, sb = side(a.prim), side(b.prim)
    return (
        sa is not None
        and sb is not None
        and sa[0] == sb[0]
        and sa[1] != sb[1]
        and a.positive
        and not b.positive
    )


def _reference_entails(theory, stronger, weaker, side):
    """Figure 9: every literal of ``weaker`` is entailed by one of
    ``stronger``."""
    return all(
        any(_reference_lit_entails(theory, a, b, side) for a in stronger)
        for b in weaker
    )


CASES = [
    ("escape", EscapeTheory, ESCAPE_LITS, list(escape_pairs()), None),
    ("typestate", TypestateTheory, TS_LITS, list(typestate_pairs()), _ts_side),
    ("provenance", ProvenanceTheory, PT_LITS, list(provenance_pairs()), _pt_side),
]


def _reference_normalize(theory, cube, side):
    if side is None:
        return _reference_normalize_exclusive(theory, cube)
    return _reference_normalize_family(cube, side)


def _gamma(cube, theory, pairs):
    if cube is None:
        return frozenset()
    return frozenset(
        i for i, (p, d) in enumerate(pairs) if evaluate_cube(cube, theory, p, d)
    )


def _random_cubes(rng, literals, count):
    return [
        frozenset(rng.sample(literals, rng.randint(0, 5))) for _ in range(count)
    ]


@pytest.mark.parametrize(
    "name,make_theory,literals,pairs,side",
    CASES,
    ids=[case[0] for case in CASES],
)
class TestCodecAgainstBruteForce:
    def test_conjunction_and_normalisation_preserve_gamma(
        self, name, make_theory, literals, pairs, side
    ):
        theory = make_theory()
        codec = theory.codec
        rng = random.Random(f"conj-{name}")
        cubes = _random_cubes(rng, literals, 120)
        for left, right in zip(cubes, reversed(cubes)):
            mask = codec.normalize(codec.encode(left) | codec.encode(right))
            expected = _gamma(left | right, theory, pairs)
            if mask is None:
                assert expected == frozenset(), (left, right)
                continue
            assert expected, ("contradiction missed", left, right)
            assert _gamma(codec.cube(mask), theory, pairs) == expected
            for p, d in pairs:
                assert codec.point(p, d).contains(mask) == evaluate_cube(
                    left | right, theory, p, d
                )

    def test_decode_is_the_reference_normal_form(
        self, name, make_theory, literals, pairs, side
    ):
        theory = make_theory()
        codec = theory.codec
        rng = random.Random(f"norm-{name}")
        for cube in _random_cubes(rng, literals, 300):
            mask = codec.normalize(codec.encode(cube))
            reference = _reference_normalize(theory, cube, side)
            if mask is None:
                assert reference is None, cube
                continue
            decoded = codec.cube(mask)
            assert decoded == reference, cube
            assert theory.normalize_cube(cube) == reference
            assert codec.encode(decoded) == mask
            assert codec.sort_key(mask) == cube_sort_key(decoded)

    def test_entailment_is_sound_and_matches_figure_9(
        self, name, make_theory, literals, pairs, side
    ):
        theory = make_theory()
        codec = theory.codec
        rng = random.Random(f"entails-{name}")
        masks = []
        for cube in _random_cubes(rng, literals, 200):
            mask = codec.normalize(codec.encode(cube))
            if mask is not None:
                masks.append(mask)
        decoded = [codec.cube(m) for m in masks]
        gammas = [_gamma(c, theory, pairs) for c in decoded]
        for i in range(len(masks)):
            for j in range(len(masks)):
                entails = codec.entails(masks[i], masks[j])
                assert entails == _reference_entails(
                    theory, decoded[i], decoded[j], side
                ), (decoded[i], decoded[j])
                if entails:
                    assert gammas[i] <= gammas[j], (decoded[i], decoded[j])
