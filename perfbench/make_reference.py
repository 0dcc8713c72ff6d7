"""Regenerate the reference verdicts under ``reference/``.

Usage (from the repository root)::

    PYTHONPATH=src python3 perfbench/make_reference.py

Solves every pair of the two suite workloads serially on the named
suite programs (seed 0), with the harness ``DEFAULT_CONFIG``, and emits a
certificate per query.  Every PROVEN and IMPOSSIBLE verdict is
confirmed with the independent checker
``repro.robust.certify.check_certificate`` against a freshly built
client before anything is written; one failed check writes nothing.
One file per analysis: every other workload's pairs are a subset of
the suite workloads' pairs, and ``inputs.load_reference`` draws them
from these files (``evaluate_many`` promises records identical to the
serial harness).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    import inputs
    from repro.bench.harness import DEFAULT_CONFIG

    analyses = ("escape", "typestate")
    pairs = sorted(pair for a in analyses for pair in inputs.WORKLOAD_PAIRS[f"{a}-suite"])
    verdicts = {}
    problems = []
    for name, analysis in pairs:
        certified, found = inputs.certify_pair(name, analysis)
        verdicts.update(certified)
        problems.extend(found)
        print(f"{name}/{analysis}: {len(certified)} verdicts, resolved ones certified")
    if problems:
        for problem in problems:
            print(f"FAIL {problem}", file=sys.stderr)
        return 1
    config = {
        "k": DEFAULT_CONFIG.k,
        "max_iterations": DEFAULT_CONFIG.max_iterations,
        "strict": DEFAULT_CONFIG.strict,
    }
    os.makedirs(inputs.REFERENCE_DIR, exist_ok=True)
    for analysis in analyses:
        data = {
            "workload": f"{analysis}-suite",
            "config": config,
            "checked_by": "repro.robust.certify.check_certificate",
            "verdicts": {
                k: v for k, v in sorted(verdicts.items()) if k.split("/")[1] == analysis
            },
        }
        with open(inputs.reference_path(analysis), "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {inputs.reference_path(analysis)}: {len(data['verdicts'])} verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
