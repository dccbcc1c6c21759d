#!/usr/bin/env python3
"""Check that docs/OBSERVABILITY.md catalogues exactly what the source emits.

Source side, per kind:
  * counters, histograms: the names counterName() and histName()
    return in src/telemetry/telemetry.cc;
  * trace events: the string literals passed to TraceSpan,
    traceInstant() or traceComplete() anywhere under src/.

Docs side: the backticked names in the first column of the table under
the matching OBSERVABILITY.md section ("Counters", "Histograms",
"Trace events"). A row may name several metrics, e.g.
`limbo_seal` / `limbo_retire`.

Fails when a source name has no row, and when a row names something the
source no longer emits.

Usage: check_observability_docs.py [REPO_ROOT]
Exit: 0 ok, 1 catalogue mismatch, 2 usage/IO error.
"""

import pathlib
import re
import sys

# Source kind -> OBSERVABILITY.md section heading.
SECTIONS = {
    "counter": "Counters",
    "histogram": "Histograms",
    "trace event": "Trace events",
}

ENUM_OF = {"counter": "Counter", "histogram": "Hist"}

TRACE_CALL = re.compile(
    r'\b(?:TraceSpan(?:\s+\w+)?|traceInstant|traceComplete)\s*\(\s*"(\w+)"')


def source_names(root):
    telemetry = (root / "src/telemetry/telemetry.cc").read_text()
    names = {}
    for kind, enum in ENUM_OF.items():
        names[kind] = set(re.findall(
            rf'case {enum}::\w+:\s*return "(\w+)";', telemetry))
    names["trace event"] = set()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".h", ".cc"):
            names["trace event"].update(
                TRACE_CALL.findall(path.read_text()))
    return names


def doc_names(root):
    """Backticked first-column names of each section's table."""
    names = {kind: set() for kind in SECTIONS}
    by_heading = {heading: kind for kind, heading in SECTIONS.items()}
    kind = None
    doc = root / "docs/OBSERVABILITY.md"
    for line in doc.read_text().splitlines():
        if line.startswith("## "):
            kind = by_heading.get(line[3:].strip())
        elif kind is not None and line.startswith("|"):
            first_cell = line.split("|")[1]
            names[kind].update(re.findall(r"`(\w+)`", first_cell))
    return names


def main(argv):
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = pathlib.Path(argv[1] if len(argv) == 2 else
                        pathlib.Path(__file__).resolve().parent.parent)
    try:
        source, docs = source_names(root), doc_names(root)
    except OSError as e:
        print(f"check_observability_docs: {e}", file=sys.stderr)
        return 2

    failed = False
    for kind, heading in SECTIONS.items():
        if not source[kind]:
            print(f"FAIL: found no {kind} names in the source "
                  f"(has the emitting code moved?)")
            failed = True
        for name in sorted(source[kind] - docs[kind]):
            print(f"FAIL: {kind} `{name}` has no row under "
                  f"'## {heading}' in docs/OBSERVABILITY.md")
            failed = True
        for name in sorted(docs[kind] - source[kind]):
            print(f"FAIL: docs/OBSERVABILITY.md '## {heading}' lists "
                  f"{kind} `{name}`, which the source no longer emits")
            failed = True
    if failed:
        return 1
    print("check_observability_docs: " + ", ".join(
        f"{len(source[kind])} {kind}s" for kind in SECTIONS) +
        " catalogued")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
