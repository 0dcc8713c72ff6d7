"""Hash-consed primitives and literals: one object per value.

Equality is identity, so anything that can produce a second,
structurally equal object (pickling, copying) must hand back the
interned one; and the intern tables must not keep the atoms of a
dropped analysis alive.
"""

import copy
import gc
import pickle
from dataclasses import dataclass

import pytest

from repro.core.formula import _PRIMITIVES, Literal, Primitive
from repro.escape.meta import FieldIs, SiteIs, VarIs
from repro.typestate.meta import ERR, TsParam


@dataclass(frozen=True)
class PlainFact(Primitive):
    """The form docs/WRITING_A_CLIENT.md documents: a frozen dataclass
    with no interning code of its own."""

    name: str
    arity: int = 0


ATOMS = [
    VarIs("u", "L"),
    SiteIs("h1", "E"),
    ERR,
    TsParam("x"),
    PlainFact("p", 2),
]


class TestHashConsing:
    def test_equal_values_are_one_object(self):
        assert VarIs("u", "L") is VarIs("u", "L")
        assert PlainFact("p") is PlainFact("p", 0)
        assert VarIs("u", "L") is not FieldIs("u", "L")

    def test_hash_is_the_dataclass_hash(self):
        assert hash(VarIs("u", "L")) == hash(("u", "L"))
        assert hash(ERR) == hash(())
        assert hash(Literal(VarIs("u", "L"), False)) == hash(
            (VarIs("u", "L"), False)
        )

    def test_literals_are_interned_and_negation_cached(self):
        positive = Literal(VarIs("u", "L"), True)
        assert positive is Literal(VarIs("u", "L"))
        assert positive.negate() is Literal(VarIs("u", "L"), False)
        assert positive.negate().negate() is positive


@pytest.mark.parametrize("prim", ATOMS, ids=repr)
@pytest.mark.parametrize("positive", [None, True, False])
class TestSurvivesPickleAndCopy:
    def _value(self, prim, positive):
        return prim if positive is None else Literal(prim, positive)

    def test_pickle_round_trip_is_identity(self, prim, positive):
        value = self._value(prim, positive)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) is value

    def test_copy_is_identity(self, prim, positive):
        value = self._value(prim, positive)
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert copy.deepcopy({value: [value]}) == {value: [value]}


def _escape_program(tag: str):
    from repro.lang import parse_program

    return parse_program(
        f"{tag}_u = new {tag}_h1\n"
        f"{tag}_v = new {tag}_h2\n"
        f"{tag}_v.{tag}_f = {tag}_u\n"
        f"$g = {tag}_v\n"
        "observe pc\n"
    )


def _interned_names():
    names = set()
    for (_cls, values) in list(_PRIMITIVES.keys()):
        names.update(v for v in values if isinstance(v, str))
    return names


class TestInternTablesDoNotLeak:
    def test_dropped_clients_leave_no_atoms(self):
        """A daemon builds custom programs' clients per request; once a
        request's client is gone, none of its atoms may stay interned."""
        from repro.core.tracer import Tracer, TracerConfig
        from repro.escape import EscSchema, EscapeClient, EscapeQuery

        tags = ["leakA", "leakB", "leakC"]
        for tag in tags:
            client = EscapeClient(
                _escape_program(tag),
                EscSchema([f"{tag}_u", f"{tag}_v"], [f"{tag}_f"]),
                frozenset({f"{tag}_h1", f"{tag}_h2"}),
            )
            record = Tracer(client, TracerConfig(k=2)).solve(
                EscapeQuery("pc", f"{tag}_u")
            )
            assert record.status.value in ("proven", "impossible")
            assert any(name.startswith(tag) for name in _interned_names())
            del client, record
        gc.collect()
        leaked = sorted(
            name
            for name in _interned_names()
            if any(name.startswith(tag) for tag in tags)
        )
        assert leaked == []
