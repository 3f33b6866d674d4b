"""Capture the outcomes the benchmark's correctness check compares against.

Run from the root of the repository, at the commit whose outcomes are the
reference:

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``: for every default-grid case of
``sign_grids`` and every check of ``certified_eval``, the verdict, the
per-index signs, the first violation, the profile flags, the overlap flags
and the scan steps.  Drawn parameters (``fresh_params``) have no stored
reference; they are checked against what the theorems predict.
"""

import json
import sys

import check
import workloads


def capture(items) -> dict:
    return {item.key: check.record(item, item.bind()()) for item in items}


def main() -> int:
    reference = {
        "sign_grids": capture(workloads.default_grid_items()),
        "certified_eval": capture(workloads.certified_items()),
        "scan_key": workloads.scan_item().key,
    }
    # one record a line, so that a changed outcome shows as a one-line diff
    sections = []
    for name in ("certified_eval", "sign_grids"):
        records = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                             for k, v in sorted(reference[name].items()))
        sections.append(f" {json.dumps(name)}: {{\n{records}\n }}")
    sections.append(f' "scan_key": {json.dumps(reference["scan_key"])}')
    with open(check.REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(sections) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
