#!/usr/bin/env python3
"""Regenerate perfbench/references.json.

    python3 perfbench/make_refs.py      # from the repository root

Solves every pool item of every workload cold through both backends (the
materialized CSR chain and the matrix-free Kronecker operator) with
`pbench refs`. Every number must agree across the backends within
answers.BACKEND_TOL relative, or nothing is written. The CSR answers become
the references; the Kronecker ones are stored beside them. Takes a few
minutes (the grid-128 Kronecker solves dominate).
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import answers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    run.build()
    items = [it for wl in workloads.WORKLOADS.values() for it in wl.pool]
    lines = [it.request(it.name) for it in items]
    out = subprocess.run(
        [run.PBENCH_EXE, "refs"], input="\n".join(lines) + "\n", capture_output=True, text=True, check=True
    ).stdout.splitlines()
    refs, bad = {}, []
    for it, raw in zip(items, out):
        got = json.loads(raw)
        kron = dict(answers.numbers(got["kron"]))
        gap = max(answers.rel_gap(kron.get(label), c) for label, c in answers.numbers(got["csr"]))
        if gap > answers.BACKEND_TOL:
            bad.append(f"{it.name}: backends differ by {gap:.2e} relative")
        refs[it.name] = {
            "request": it.template(),
            "cache_key": got["cache_key"],
            "answers": got["csr"],
            "kron": got["kron"],
            "backend_gap": gap,
        }
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    doc = {
        "about": "reference answers for every pool item, solved cold through the CSR and Kronecker "
        "backends; regenerate with perfbench/make_refs.py",
        "backend_tolerance": answers.BACKEND_TOL,
        "items": refs,
    }
    with open(answers.REFS_PATH, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {len(refs)} references; largest backend gap {max(r['backend_gap'] for r in refs.values()):.2e}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.Abort as e:
        print(f"make_refs: {e}", file=sys.stderr)
        sys.exit(1)
