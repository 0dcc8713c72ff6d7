"""The type-state abstract domain (Figure 4)."""

from repro.typestate.domain import TsState


def test_equal_states_repr_identically_whatever_the_set_order():
    """``states_at`` orders states by ``repr``, so equal states must
    repr identically even when their frozensets iterate differently
    (insertion order decides who wins a hash collision)."""
    names = [f"v{i}" for i in range(200)]
    forward, backward = frozenset(names), frozenset(reversed(names))
    assert forward == backward
    # With 200 strings some collide, so the two sets iterate in
    # different orders — the case a dataclass repr would expose.
    assert list(forward) != list(backward)
    a = TsState(forward, forward)
    b = TsState(backward, backward)
    assert a == b
    assert repr(a) == repr(b)
