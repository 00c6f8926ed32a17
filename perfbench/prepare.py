"""Prepare one commit's benchmark inputs (run once per source tree).

Usage: ``python3 perfbench/prepare.py <reference.json>`` under the pinned
environment, with ``XDG_CACHE_HOME`` pointing at the per-commit cache.
Builds the registered quick WorkLogs into that cache and writes the
reference document the workloads check their outputs against: the WorkLog
digests and the SHA-256 of every served target's offline rendering.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path


def main(out: str) -> int:
    from repro.experiments.workloads import (
        eos_problem_worklog,
        hydro_problem_worklog,
    )
    from repro.serve.soak import DEFAULT_TARGETS, offline_reference

    eos = eos_problem_worklog(quick=True)
    hydro = hydro_problem_worklog(quick=True)
    doc = {
        "eos_quick_digest": eos.digest(),
        "hydro_quick_digest": hydro.digest(),
        "serve_targets": list(DEFAULT_TARGETS),
        "serve_sha256": offline_reference(DEFAULT_TARGETS, quick=True),
    }
    path = Path(out)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
