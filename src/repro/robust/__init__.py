"""Fault-tolerant solver runtime: budgets, fault injection, graceful
degradation, and a crash-surviving parallel harness.

The pieces (see ``docs/ROBUSTNESS.md`` for the full story):

* :mod:`repro.robust.budget` — cooperative wall-clock/step budgets the
  forward worklists and the backward meta-analysis honour mid-loop;
* :mod:`repro.robust.faults` — deterministic, replayable fault
  injection keyed on the observability span sites;
* :mod:`repro.robust.degrade` — the beam-width degradation ladder the
  TRACER driver walks on formula explosions;
* :mod:`repro.robust.pool` — a process pool with per-unit timeouts,
  ``BrokenProcessPool`` recovery, and bounded retries;
* :mod:`repro.robust.recordlog` — the durable record log every
  append-only JSONL log shares: torn-tail scans, per-record checksums,
  versioned headers, locked appends, lock-free polls and the atomic
  rewrite (rules in ``docs/ROBUSTNESS.md``, "Durable record logs");
* :mod:`repro.robust.checkpoint` — checkpoints of completed evaluation
  units behind ``repro eval --resume``;
* :mod:`repro.robust.journal` — the CEGAR search journal behind
  ``--journal`` / ``--resume-journal``;
* :mod:`repro.robust.leases`, :mod:`repro.robust.clausebus` and
  :mod:`repro.robust.scheduler` — the lease log, the clause bus and
  the work-stealing scheduler on top of them;
* :mod:`repro.robust.certify` — verdict certificates and their
  independent checker (``--certify-out`` / ``repro certify``).

:mod:`repro.robust.certify` is deliberately *not* re-exported here:
it imports :mod:`repro.core.selfcheck` (and through it the meta
machinery), which itself imports :mod:`repro.robust.budget` — pulling
certify in at package-import time would re-enter this partially
initialised package.  Import it as ``repro.robust.certify`` directly.
"""

from repro.robust.budget import (
    Budget,
    BudgetExceeded,
    budget_scope,
    current_budget,
)
from repro.robust.degrade import beam_ladder, run_with_degradation
from repro.robust.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    current_plan,
    fault_scope,
)
from repro.robust.journal import JournalMismatch, SearchJournal

__all__ = [
    "Budget",
    "BudgetExceeded",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "JournalMismatch",
    "SearchJournal",
    "beam_ladder",
    "budget_scope",
    "current_budget",
    "current_plan",
    "fault_scope",
    "run_with_degradation",
]
