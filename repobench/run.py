#!/usr/bin/env python3
"""Repository benchmark: one command for the kv-serve, kv-defrag and
cache-churn workloads.

    python3 repobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the workload binary
(repobench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/repobench, default .bench_build/repobench, then runs
one workload.

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics. --trace 1 runs it twice with the same seed, untraced and then
with telemetry tracing on, and reports the per-layer metrics: the
untraced run's counters, count / total / self time per span from the
traced run, and the tracing overhead (traced minus untraced) of every
end-to-end metric. Earlier stdout lines carry the host stamp and the
per-layer record; the last line is the result object. The exit code is
non-zero when any operation failed or the run could not be made.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv-serve", "kv-defrag", "cache-churn")
# The benchmark's own spans (around its calls into each layer) first,
# then the program's: serve, kv, daemon, policy, campaign, core.
SPANS = ("submit", "kv_set", "daemon_start", "daemon_stop", "request",
         "controller_tick", "policy_decision", "campaign", "limbo_stall",
         "grace_wait", "barrier")
RUN_TIMEOUT_S = 170
EVENT = re.compile(r'\{"name": "([^"]+)", "cat": "alaska", "ph": "X", '
                   r'"ts": ([0-9.]+), "dur": ([0-9.]+), "pid": \d+, '
                   r'"tid": (\d+)\}')
DROPPED = re.compile(r'"name": "dropped_events: (\d+)"')


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "repobench")


def build(bdir):
    """Configure once, then (re)build; a no-op when up to date."""
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, "build.log"), "w") as out:
        steps = []
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=800).returncode != 0:
                out.flush()
                with open(out.name) as f:
                    log(f.read()[-4000:])
                raise SystemExit("repobench: build failed")
    return os.path.join(bdir, "repobench")


def run_binary(binary, args, trace_file=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit("repobench: workload binary exited with %d"
                         % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def span_stats(path):
    """Count, total and self time per span name. Self time is a span's
    duration minus the direct child spans it covers on its thread."""
    by_tid = {}
    dropped = 0
    with open(path) as f:
        for line in f:
            m = EVENT.search(line)
            if m:
                name, ts, dur, tid = m.groups()
                begin = round(float(ts) * 1000)
                end = begin + round(float(dur) * 1000)
                by_tid.setdefault(tid, []).append((begin, -end, name))
            else:
                d = DROPPED.search(line)
                if d:
                    dropped += int(d.group(1))
    stats = {name: [0, 0, 0] for name in SPANS}
    events = 0

    def close(span):
        begin, end, name, covered = span
        s = stats.setdefault(name, [0, 0, 0])
        s[0] += 1
        s[1] += end - begin
        s[2] += end - begin - covered

    for spans in by_tid.values():
        spans.sort()
        stack = []
        for begin, neg_end, name in spans:
            end = -neg_end
            events += 1
            while stack and stack[-1][1] <= begin:
                close(stack.pop())
            if stack and end <= stack[-1][1]:
                stack[-1][3] += end - begin
            stack.append([begin, end, name, 0])
        while stack:
            close(stack.pop())
    return stats, events, dropped


def metric(value, unit):
    return {"value": value, "unit": unit}


def declared_names(kind):
    """Metric names BENCHMARK.json declares, or None without one."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return [m["name"] for m in json.load(f)[kind]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    base = run_binary(binary, args)
    print("host: " + json.dumps(base["host"]))
    print("layers: " + json.dumps(base["layers"]))
    runs = [base]

    if args.trace == 0:
        metrics = dict(base["e2e"])
        kind = "end_to_end"
    else:
        trace_file = os.path.join(
            bdir, "trace-%s-%d.json" % (args.workload, args.seed))
        traced = run_binary(binary, args, trace_file)
        runs.append(traced)
        stats, events, dropped = span_stats(trace_file)
        os.remove(trace_file)
        metrics = dict(base["layers"])
        for name in SPANS:
            count, total, self_ns = stats[name]
            metrics["span.%s.count" % name] = metric(count, "count")
            metrics["span.%s.total_ms" % name] = metric(total / 1e6, "ms")
            metrics["span.%s.self_ms" % name] = metric(self_ns / 1e6, "ms")
        metrics["trace.events"] = metric(events, "count")
        metrics["trace.dropped"] = metric(dropped, "count")
        for name, m in base["e2e"].items():
            metrics["overhead." + name] = metric(
                traced["e2e"][name]["value"] - m["value"], m["unit"])
        kind = "per_layer"

    failures = [f for r in runs for f in r["failures"]]
    if failures:
        print("failures: " + json.dumps(failures))
    declared = declared_names(kind)
    if declared is not None:
        missing = [n for n in declared if n not in metrics]
        if missing:
            raise SystemExit("repobench: no value for " + ", ".join(missing))
        metrics = {n: metrics[n] for n in declared}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
