"""The backward meta-analysis ``B[t]`` (Figure 7, Section 4).

Given a trace ``t`` on which the forward analysis instantiated with
abstraction ``p`` failed to prove a query, the meta-analysis propagates
a *sufficient condition for failure* backwards through ``t``.  The
resulting formula ``B[t](p, dI, not(q))`` denotes a set of pairs
``(p', d')`` such that running the ``p'``-instance from ``d'`` along
``t`` is guaranteed to end in a state violating the query
(Theorem 3.2); and it always contains the current ``(p, dI)``
(Theorem 3.1), so at least the current abstraction is eliminated.

Each backward step is ``approx(p, d, [[a]]b(f))``:

* ``[[a]]b`` is the weakest precondition of the forward transfer
  function.  Transfer functions are total and deterministic, so wp is a
  boolean homomorphism and clients only supply wp on *primitive*
  formulas (:meth:`BackwardMetaAnalysis.wp_primitive`).
* ``approx`` is the generic under-approximation of Section 4.1:
  DNF-normalise, ``simplify``, then ``drop_k`` with beam width ``k``,
  always retaining a disjunct containing the current ``(p, d)``.

Setting ``k = None`` disables the beam (the "without
under-approximation" mode of Figure 6(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core import formula as _formula
from repro.core.formula import (
    And,
    Dnf,
    Formula,
    Lit,
    Literal,
    Or,
    Theory,
    drop_k_masks,
    evaluate,
    neg,
    simplify,
    to_dnf,
)
from repro.core.lru import LruCache
from repro.core.parametric import ParametricAnalysis
from repro.lang.ast import AtomicCommand, Trace
from repro.obs import metrics as obs_metrics
from repro.robust import budget as robust_budget


def _wp_counters(meta: "BackwardMetaAnalysis"):
    from repro.core.stats import CacheCounters

    return CacheCounters(hits=meta.wp_hits, misses=meta.wp_misses)


class _CommandWp:
    """One command's slice of the wp memo."""

    __slots__ = ("known", "moving", "dnfs")

    def __init__(self):
        #: Atom bits of the primitives whose wp has been derived, and of
        #: those among them the command does not leave unchanged.
        self.known = 0
        self.moving = 0
        #: Literal id -> the DNF of the literal's weakest precondition.
        self.dnfs: Dict[int, Dnf] = {}


class BackwardMetaAnalysis:
    """Client interface: the theory plus primitive weakest preconditions."""

    theory: Theory

    def wp_primitive(self, command: AtomicCommand, prim) -> Formula:
        """The weakest precondition of ``[[command]]p`` w.r.t. ``prim``.

        Must satisfy requirement (2) of Section 4:
        ``gamma(wp(prim)) = {(p, d) | (p, [[command]]p(d)) in gamma(prim)}``.
        """
        raise NotImplementedError

    #: Bound on the wp memo, in commands; eviction is LRU, one command
    #: (with every literal's wp under it) at a time.
    WP_CACHE_SIZE = 50_000

    #: Memo counters, surfaced in the evaluation's cache statistics
    #: through the metrics registry (registered on first memo use
    #: under ``"wp_memo.<metrics_name>"``).  One miss is one
    #: ``(command, literal)`` wp DNF built; one hit is one lookup of a
    #: literal's wp (a backward step's substitution, or
    #: :meth:`wp_dnf`) that found its DNF already built.
    wp_hits: int = 0
    wp_misses: int = 0

    #: Registry suffix naming this client's wp memo; concrete meta
    #: bindings override it (``"typestate"``, ``"escape"``, ...).
    metrics_name: str = "meta"

    def _wp_entry(self, command: AtomicCommand) -> _CommandWp:
        cache = getattr(self, "_wp_memo", None)
        if cache is None:
            cache = self._wp_memo = LruCache(self.WP_CACHE_SIZE)
            obs_metrics.register_cache(
                f"wp_memo.{self.metrics_name}", self, _wp_counters
            )
        entry = cache.get(command)
        if entry is None:
            entry = _CommandWp()
            cache.put(command, entry)
        return entry

    def wp_dnf(self, command: AtomicCommand, literal: Literal) -> Dnf:
        """The memoised weakest precondition of ``literal`` under
        ``command``, as a DNF of the theory's codec."""
        entry = self._wp_entry(command)
        codec = self.theory.codec
        literal_id = codec.literal_id(literal)
        dnf = entry.dnfs.get(literal_id)
        if dnf is not None:
            self.wp_hits += 1
            return dnf
        atom = codec.atom(literal.prim)
        if not atom & entry.known:
            self._derive(command, entry, atom)
            dnf = entry.dnfs.get(literal_id)
            if dnf is not None:
                return dnf
        return self._negative_wp(command, entry, literal_id)

    def wp_step(self, command: AtomicCommand, post: Dnf) -> Optional[Formula]:
        """``post`` with every literal replaced by the DNF of its
        weakest precondition under ``command`` (wp is a boolean
        homomorphism, so this is ``wp(post)``), or ``None`` when the
        command leaves every primitive of ``post`` unchanged — the
        common case on long traces, decided by one AND of support
        masks once the command's primitives are known."""
        entry = self._wp_entry(command)
        support = post.support
        unknown = support & ~entry.known
        if unknown:
            self._derive(command, entry, unknown)
        if not support & entry.moving:
            return None
        codec = post.codec
        dnfs = entry.dnfs
        disjuncts = []
        for mask in post.masks:
            factors = []
            for literal_id in codec.literal_ids(mask):
                dnf = dnfs.get(literal_id)
                if dnf is None:
                    dnf = self._negative_wp(command, entry, literal_id)
                else:
                    self.wp_hits += 1
                factors.append(dnf)
            # The factors are DNF leaves, never constants or nested
            # connectives, so ``conj``/``disj`` would only copy them.
            disjuncts.append(
                factors[0] if len(factors) == 1 else And(tuple(factors))
            )
        return disjuncts[0] if len(disjuncts) == 1 else Or(tuple(disjuncts))

    def _derive(
        self, command: AtomicCommand, entry: _CommandWp, atoms: int
    ) -> None:
        """Derive the wp of every primitive in ``atoms`` (positive
        literals), recording which ones ``command`` moves."""
        codec = self.theory.codec
        while atoms:
            atom = atoms & -atoms
            atoms ^= atom
            prim = codec.atom_prim(atom)
            pre = self.wp_primitive(command, prim)
            self.wp_misses += 1
            positive = Literal(prim, True)
            if type(pre) is Lit and pre.literal is positive:
                dnf = codec.literal_dnf(positive)
            else:
                entry.moving |= atom
                # Through the formula module, not this module's name:
                # the per-layer profile counts one ``to_dnf`` per
                # backward step.
                dnf = _formula.to_dnf(pre, self.theory)
            entry.dnfs[codec.literal_id(positive)] = dnf
            entry.known |= atom

    def _negative_wp(
        self, command: AtomicCommand, entry: _CommandWp, literal_id: int
    ) -> Dnf:
        """Build the wp DNF of a negative literal: the literal itself
        when ``command`` does not move its primitive, else the DNF of
        the negated primitive wp."""
        codec = self.theory.codec
        literal = codec.literal(literal_id)
        self.wp_misses += 1
        if codec.atom(literal.prim) & entry.moving:
            pre = neg(self.wp_primitive(command, literal.prim))
            dnf = _formula.to_dnf(pre, self.theory)
        else:
            dnf = codec.literal_dnf(literal)
        entry.dnfs[literal_id] = dnf
        return dnf


@dataclass
class MetaResult:
    """The outcome of one backward pass over a counterexample trace."""

    condition: Dnf
    """``B[t](p, dI, not(q))`` — sufficient condition for failure."""

    intermediate: Tuple[Dnf, ...]
    """Backward states at every trace point, ``intermediate[i]`` holding
    before command ``i`` (so ``intermediate[0]`` is ``condition`` and
    ``intermediate[-1]`` is the normalised post-condition)."""

    max_disjuncts: int
    """Largest number of disjuncts in any *tracked* (post-``approx``)
    formula — the formula-compactness statistic Figure 6 is about."""

    subsumption_drops: int = 0
    """Cubes removed by ``simplify`` (subsumption/merging) over the
    whole backward pass — how much work the normalisation saved."""

    beam_prunes: int = 0
    """Cubes removed by the ``drop_k`` beam over the whole pass — how
    aggressively the under-approximation narrowed the formula."""


def approx(
    dnf: Dnf,
    theory: Theory,
    p: object,
    d: object,
    k: Optional[int],
    stats: Optional[dict] = None,
) -> Dnf:
    """``approx(p, d, f)`` of Section 4.1: simplify, then beam-prune.

    When ``stats`` is given, the cubes dropped by each stage are
    accumulated into its ``"subsumption_drops"`` / ``"beam_prunes"``
    keys (the per-pass telemetry behind the trace's backward spans)."""
    simplified = simplify(dnf, theory)
    if stats is not None:
        stats["subsumption_drops"] += len(dnf.masks) - len(simplified.masks)
    if k is None:
        return simplified
    pruned = drop_k_masks(simplified, k, theory.codec.point(p, d).contains)
    if stats is not None:
        stats["beam_prunes"] += len(simplified.masks) - len(pruned.masks)
    return pruned


def backward_trace(
    meta: BackwardMetaAnalysis,
    analysis: ParametricAnalysis,
    trace: Trace,
    p: object,
    d_init: object,
    post: Formula,
    k: Optional[int] = 5,
    max_cubes: Optional[int] = 100_000,
) -> MetaResult:
    """Run ``B[t](p, d_init, post)`` (Figure 7).

    ``post`` is the failure condition at the end of the trace,
    typically ``not(q)``.  The forward states along the trace are
    replayed first (``B[t ; t'](p, d, f) = B[t](p, d, B[t'](p,
    Fp[t](d), f))`` threads them through), then the weakest
    precondition is folded backwards with ``approx`` applied at every
    step.

    Precondition (checked): ``(p, Fp[t](d_init))`` satisfies ``post`` —
    the trace really is a counterexample.  Guarantee (Theorem 3): the
    returned condition contains ``(p, d_init)``.
    """
    theory = meta.theory
    states = analysis.trace_states(trace, p, d_init)
    stats = {"subsumption_drops": 0, "beam_prunes": 0}
    current = to_dnf(post, theory, max_cubes)
    current = approx(current, theory, p, states[-1], k, stats)
    if not evaluate(current, theory, p, states[-1]):
        raise ValueError(
            "backward_trace: the final forward state does not satisfy the "
            "post-condition; the given trace is not a counterexample"
        )
    intermediate = [current]
    max_disjuncts = len(current.masks)
    for index in range(len(trace) - 1, -1, -1):
        # One backward command can hide a lot of formula work, so the
        # cooperative budget check here always consults the clock.
        robust_budget.checkpoint()
        pre_formula = meta.wp_step(trace[index], current)
        if pre_formula is None:
            intermediate.append(current)
            continue
        pre = to_dnf(pre_formula, theory, max_cubes)
        current = approx(pre, theory, p, states[index], k, stats)
        max_disjuncts = max(max_disjuncts, len(current.masks))
        intermediate.append(current)
    intermediate.reverse()
    return MetaResult(
        condition=current,
        intermediate=tuple(intermediate),
        max_disjuncts=max_disjuncts,
        subsumption_drops=stats["subsumption_drops"],
        beam_prunes=stats["beam_prunes"],
    )
