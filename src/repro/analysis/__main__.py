"""CLI for the determinism contract: ``python -m repro.analysis [paths...]``.

Runs the AST lint over the given files/directories (default: the installed
``repro`` package sources), the knob-provenance pass (KNOB3xx — the whole-
package cross-check of declared provenance against knob dataflow), and,
unless ``--no-audit`` is passed, a seeded schedule
audit that drives the production conflict graph + Cyclades scheduler on
random geometry and verifies every emitted batch with the independent box
checker.  This is the CI ``analysis`` job.

``--list-knobs`` prints the knob manifest — every config field and
registered env var with its declared provenance — and exits.

Exit status is a bitmask so CI can distinguish failure modes:

====  =====================================
bit   meaning
====  =====================================
0     clean (exit 0)
1     lint violations
2     schedule audit failure
4     knob-provenance violations
====  =====================================

``--json`` emits a machine-readable report on stdout instead of the
human-readable lines (exit status is unchanged).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.lint import lint_paths
from repro.analysis.provenance import (
    analyze_provenance,
    knob_inventory,
    render_inventory,
)
from repro.analysis.schedule import ScheduleError, audit_random_schedule

#: exit-code bits (bitwise OR'd into the process status)
EXIT_LINT = 1
EXIT_AUDIT = 2
EXIT_PROVENANCE = 4


def _provenance_root(paths: list[str]) -> str | None:
    """The package tree the provenance pass scans: the single directory
    argument when there is one (the CI invocation ``... src/repro``),
    else the installed package (None selects it)."""
    if len(paths) == 1 and os.path.isdir(paths[0]):
        return paths[0]
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism-contract checks: AST lint + knob "
                    "provenance + schedule audit.",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the repro package)")
    parser.add_argument(
        "--no-audit", action="store_true",
        help="skip the seeded schedule audit (lint only)")
    parser.add_argument(
        "--no-provenance", action="store_true",
        help="skip the knob-provenance pass (KNOB3xx)")
    parser.add_argument(
        "--list-knobs", action="store_true",
        help="print the knob manifest (every config field and env var "
             "with declared provenance) and exit")
    parser.add_argument(
        "--audit-seed", type=int, default=20180131,
        help="seed for the schedule audit's random geometry")
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit a machine-readable JSON report instead of text")
    args = parser.parse_args(argv)

    if args.list_knobs:
        knobs = knob_inventory(_provenance_root(args.paths))
        if args.as_json:
            print(json.dumps([
                {"knob": k.qualname, "kind": k.kind,
                 "provenance": k.provenance,
                 "resolves_to": k.resolves_to,
                 "declared_at": "%s:%d" % (k.rel_path, k.line),
                 "read_paths": list(k.read_paths)}
                for k in knobs
            ], indent=2, sort_keys=True))
        else:
            print(render_inventory(knobs))
        return 0

    paths = args.paths
    if not paths:
        paths = [os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]

    status = 0
    violations = lint_paths(paths)
    if violations:
        status |= EXIT_LINT

    provenance_ran = not args.no_provenance
    provenance_violations = []
    if provenance_ran:
        provenance_violations = analyze_provenance(_provenance_root(paths))
        if provenance_violations:
            status |= EXIT_PROVENANCE

    audit_ran = not args.no_audit
    audit_error: str | None = None
    audit_batches = 0
    if audit_ran:
        try:
            audit_batches = audit_random_schedule(seed=args.audit_seed)
        except ScheduleError as exc:
            audit_error = str(exc)
            status |= EXIT_AUDIT

    if args.as_json:
        report = {
            "paths": paths,
            "violations": [
                {"path": v.path, "line": v.line, "rule": v.rule,
                 "message": v.message}
                for v in violations
            ],
            "provenance": {
                "ran": provenance_ran,
                "violations": [
                    {"path": v.path, "line": v.line, "rule": v.rule,
                     "message": v.message}
                    for v in provenance_violations
                ],
            } if provenance_ran else {"ran": False},
            "audit": {
                "ran": audit_ran,
                "seed": args.audit_seed if audit_ran else None,
                "batches": audit_batches if audit_error is None else None,
                "error": audit_error,
            } if audit_ran else {"ran": False},
            "exit_code": status,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return status

    for v in violations:
        print(v.render())
    if violations:
        print("lint: %d violation(s)" % len(violations))
    else:
        print("lint: clean (%s)" % ", ".join(paths))
    if provenance_ran:
        for v in provenance_violations:
            print(v.render())
        if provenance_violations:
            print("knob provenance: %d violation(s)"
                  % len(provenance_violations))
        else:
            print("knob provenance: clean")
    if audit_ran:
        if audit_error is not None:
            print("schedule audit: FAILED\n%s" % audit_error)
        else:
            print("schedule audit: %d batches proven safe" % audit_batches)
    return status


if __name__ == "__main__":
    sys.exit(main())
