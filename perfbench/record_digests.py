#!/usr/bin/env python3
"""Record the sha256 of every artifact the default seed writes, into digests.json.

Run from the root of a checkout, on the commit whose artifacts are the
reference (``run.py --trace 1`` compares later commits against them):

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    root = Path.cwd()
    cli = run.import_cli(root)
    digests = {}
    for name in workloads.WORKLOADS:
        workdir = root / ".perfbench_work" / f"digests-{name}"
        try:
            result = run.measure(cli, workloads.make(name, workloads.DEFAULT_SEED), 0, workdir, None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if result.failed:
            print("\n".join(result.problems), file=sys.stderr)
            return 1
        digests[name] = run.artifact_digests(result.artifacts)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
