"""Analysis-as-a-service: resident sessions, a persistent knowledge
store, and a JSON-over-socket batch server.

* :mod:`repro.serve.session` — :class:`AnalysisSession`, the resident
  execution layer the CLI, the bench harness, and the server all share:
  prepared programs, client setups, the shared
  :class:`~repro.core.tracer.ForwardRunCache`, and the warm-start logic
  that seeds new searches from the store.
* :mod:`repro.serve.store` — :class:`KnowledgeStore`, the on-disk
  crash-safe store keyed by program digest that persists learned
  clauses, round records, verdicts, and annotation digests across
  daemon restarts.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the
  ``repro serve`` daemon (asyncio JSON-over-unix-socket) and the
  blocking client behind ``repro submit``.

See ``docs/SERVING.md`` for the protocol and the store format.
"""

from repro.serve.session import AnalysisSession, SessionResult
from repro.serve.store import KnowledgeStore, config_key, program_digest

__all__ = [
    "AnalysisSession",
    "KnowledgeStore",
    "SessionResult",
    "config_key",
    "program_digest",
]
