#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON produced by --trace / dumpTrace.

Asserts the file parses as JSON, has the traceEvents array, and
contains at least one of each required span — the smoke proof that the
defrag pipeline's tracer is actually wired (a trace without its
mode's signature span means that mode never ran or the tracer broke).
Prints a one-line event summary on success.

Usage: check_trace.py trace.json [required_event ...]
The arguments name the events that must each appear at least once and
*replace* the default, so mode-specific gates (a serving run has
`request` spans but no `campaign`) can name exactly their own
signature spans. With no arguments, "campaign" is required.
"""

import collections
import json
import sys


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    path = sys.argv[1]
    required = set(sys.argv[2:]) or {"campaign"}

    with open(path, "r", encoding="utf-8") as f:
        trace = json.load(f)

    events = trace.get("traceEvents")
    if not isinstance(events, list):
        print(f"FAIL: {path}: no traceEvents array", file=sys.stderr)
        return 1

    counts = collections.Counter()
    for ev in events:
        if not isinstance(ev, dict) or "name" not in ev or "ph" not in ev:
            print(f"FAIL: {path}: malformed event {ev!r}", file=sys.stderr)
            return 1
        counts[ev["name"]] += 1

    missing = sorted(name for name in required if counts[name] == 0)
    if missing:
        print(
            f"FAIL: {path}: no '{', '.join(missing)}' events "
            f"(saw: {dict(counts) or 'nothing'})",
            file=sys.stderr,
        )
        return 1

    summary = ", ".join(f"{name}={n}" for name, n in sorted(counts.items()))
    print(f"trace OK: {len(events)} events ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
