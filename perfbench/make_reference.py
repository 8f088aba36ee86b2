"""Rewrite ``reference.json``: the digest of every output any seed can ask
for.  Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/make_reference.py

Every op must pass its own gates (exit code, verified, diagonal) first.
"""

from __future__ import annotations

import json
import sys

from run import HERE, OUT, load_library


def main() -> int:
    load_library()
    import workloads

    OUT.mkdir(exist_ok=True)
    ops = [
        *workloads.build("selftest", 0, OUT),
        *workloads.build("staircase-json", 0, OUT),
        *workloads.all_long_row_ops(),
    ]
    reference = {}
    for op in ops:
        op.prepare()
        output = op.run()
        fingerprint = op.fingerprint(output)
        error = op.check(output, fingerprint)
        if error is not None:
            sys.exit(f"error: {op.key}: {error}")
        reference[op.key] = fingerprint
        print(op.key, fingerprint[:16], flush=True)
    path = HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
