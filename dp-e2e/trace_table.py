#!/usr/bin/env python3
"""Turn dp-e2e Chrome trace files into the per-layer span table.

    python3 dp-e2e/trace_table.py TRACE.json [TRACE.json ...]

Each file is one traced repetition. A row is one span kind, keyed
"<stage>:<name>" because the executor's task spans reuse the names of
the work they run (an exec:epoch-run task wraps an ep:epoch-run span).
Columns: count, sum, self time, p50, tail (the highest of p90/p75/p50
with at least ten samples beyond it), and share of wall time, where
wall time is the summed duration of the benchmark's "rep" spans. The
ladder stops at p90: on a shared VM the higher percentiles measure host
stalls more than the program (mysql-commit's p95 commit gap spread 40%
across ten seeded runs; in six more runs p90 spread half as much as p95).

A span's parent is the smallest span that encloses it on the same
(pid, tid) track; a span with no such parent belongs to the smallest
enclosing benchmark span (pid 100), i.e. the public call that caused
it. Self time is a span's duration minus the part its children cover.
"""

import json
import math
import sys

BENCH_PID = 100
STAGES = {1: "tp", 2: "ep", 3: "journal", 4: "replay", 5: "exec",
          BENCH_PID: "bench"}
TAIL_LADDER = (90.0, 75.0, 50.0)
MIN_BEYOND = 10


class Span:
    __slots__ = ("key", "pid", "tid", "start", "end", "children")

    def __init__(self, key, pid, tid, start, end):
        self.key = key
        self.pid = pid
        self.tid = tid
        self.start = start
        self.end = end
        self.children = []

    @property
    def dur(self):
        return self.end - self.start


def nearest_rank(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(n):
    """Highest ladder percentile with >= MIN_BEYOND of n samples above
    it, or None when n is too small for any."""
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= MIN_BEYOND:
            return pct
    return None


def load_trace(path):
    """The complete ("X") events of a Chrome trace as spans, in ms."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    spans = []
    for e in doc["traceEvents"]:
        if e.get("ph") != "X":
            continue
        pid = int(e["pid"])
        key = "%s:%s" % (STAGES.get(pid, str(pid)), e["name"])
        start = float(e["ts"]) / 1e3
        spans.append(Span(key, pid, int(e["tid"]), start,
                          start + float(e["dur"]) / 1e3))
    return spans


def link_parents(spans):
    """Attach every span to its parent (see module docstring)."""
    tracks = {}
    for s in spans:
        tracks.setdefault((s.pid, s.tid), []).append(s)
    orphans = []
    for track in tracks.values():
        track.sort(key=lambda s: (s.start, -s.end))
        stack = []
        for s in track:
            while stack and stack[-1].end <= s.start:
                stack.pop()
            if stack and stack[-1].end >= s.end:
                stack[-1].children.append(s)
            elif s.pid != BENCH_PID:
                orphans.append(s)
            stack.append(s)
    bench = sorted((s for s in spans if s.pid == BENCH_PID),
                   key=lambda s: s.dur)
    for s in orphans:
        for b in bench:
            if b.start <= s.start and s.end <= b.end:
                b.children.append(s)
                break


def self_time(span):
    """Duration minus the union of the children's intervals."""
    covered, cur_start, cur_end = 0.0, None, None
    for c in sorted(span.children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.dur - covered


def span_table(traces):
    """Rows keyed by span kind over one or more traces (each a list of
    spans from load_trace). A row also keeps its raw durations and its
    per-trace sums, for per-repetition figures."""
    rows, wall = {}, 0.0
    for i, spans in enumerate(traces):
        link_parents(spans)
        for s in spans:
            row = rows.setdefault(s.key, {"durs": [], "self": 0.0,
                                          "sums": [0.0] * len(traces)})
            row["durs"].append(s.dur)
            row["sums"][i] += s.dur
            row["self"] += self_time(s)
            if s.key == "bench:rep":
                wall += s.dur
    for row in rows.values():
        durs = sorted(row["durs"])
        row["count"] = len(durs)
        row["sum"] = sum(durs)
        row["p50"] = nearest_rank(durs, 50.0)
        pct = tail_percentile(len(durs))
        row["tail_pct"] = pct
        row["tail"] = nearest_rank(durs, pct) if pct else None
        row["share"] = row["sum"] / wall if wall > 0 else None
    return rows, wall


def format_table(rows, wall):
    lines = ["%-28s %7s %11s %11s %10s %14s %7s" % (
        "span", "count", "sum_ms", "self_ms", "p50_ms", "tail_ms",
        "share")]
    for key, r in sorted(rows.items(), key=lambda kv: -kv[1]["sum"]):
        tail = ("%.4f@p%g" % (r["tail"], r["tail_pct"])
                if r["tail"] is not None else "n/a")
        share = "%.1f%%" % (100 * r["share"]) if r["share"] else "n/a"
        lines.append("%-28s %7d %11.3f %11.3f %10.4f %14s %7s" % (
            key, r["count"], r["sum"], r["self"], r["p50"], tail, share))
    lines.append("wall (sum of bench:rep spans): %.3f ms" % wall)
    return "\n".join(lines)


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rows, wall = span_table([load_trace(p) for p in argv[1:]])
    print(format_table(rows, wall))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
