#!/usr/bin/env python3
"""dp-e2e: end-to-end and per-layer benchmark of
record -> journal -> ship -> recover -> replay.

    python3 dp-e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the dp_e2e binary (dp-e2e/CMakeLists.txt: the uniplay sources
from src/ plus dp_e2e.cc) under .bench_build/, runs it for S seconds,
checks that every repetition passed its output checks, and prints a
report whose last line is one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports the end-to-end metrics;
--trace 1 the per-layer metrics of a run in which every other cycle
through the sub-seeds is traced. Metric
definitions and the reasons for each workload are in dp-e2e/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in dp-e2e/
import trace_table  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def load_benchmark():
    """BENCHMARK.json: the workload names and the metrics' units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Unknown(Exception):
    """A metric the run could not measure; the message is the reason."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "dp-e2e")


def build():
    """Configure once, then (re)build dp_e2e; exits on failure."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out, *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "dp_e2e",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            log("dp-e2e: build step failed: %s" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(out, "dp_e2e")


def git_rev():
    """HEAD's commit, or None with a reason (the benchmark may run from
    an exported tree)."""
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
    except OSError as e:
        return None, "cannot run git: %s" % e
    if r.returncode != 0:
        return None, r.stderr.strip() or "git rev-parse failed"
    return r.stdout.strip(), None


def nearest_rank(values, pct):
    return trace_table.nearest_rank(sorted(values), pct)


def median(values):
    if not values:
        raise Unknown("no samples")
    return statistics.median(values)


def e2e_metrics(reps, doc, notes):
    """End-to-end metrics over the timed (non-warm-up) repetitions."""
    timed = [r for r in reps[1:] if not r["traced"]]
    # One repetition per sub-seed: the deterministic figures repeat
    # exactly within a sub-seed (the binary checks that).
    per_seed = list({r["sub_seed"]: r for r in reps}.values())
    gaps = [g for r in timed for g in r["commit_gaps_ms"]]
    # Fixed per workload and seed: the percentile the binary's minimum
    # repetition count already supports with ten samples beyond it.
    tail_pct = trace_table.tail_percentile(
        (min(r["epochs"] for r in per_seed) - 1) * doc["min_reps"])
    if tail_pct is None:
        raise Unknown("too few epochs for a commit-gap tail")
    notes["commit_gap_ms_p50"] = "median of %d gaps" % len(gaps)
    notes["commit_gap_ms_tail"] = "p%g of %d gaps" % (tail_pct, len(gaps))
    notes["setup_s"] = "median of %d set-ups" % len(reps)
    notes["peak_rss_mb"] = "VmHWM after the warm-up repetition"
    for name in ("overhead_vt", "log_bytes_per_minstr"):
        notes[name] = "median of %d sub-seeds" % len(per_seed)
    for name in ("record_mips", "failover_ms", "recover_ms",
                 "replay_seq_mips", "replay_par_mips", "pipeline_s"):
        notes[name] = "median of %d repetitions" % len(timed)
    return {
        "record_mips": median(
            [r["instrs"] / r["record_s"] for r in timed]) / 1e6,
        "commit_gap_ms_p50": median(gaps),
        "commit_gap_ms_tail": nearest_rank(gaps, tail_pct),
        "failover_ms": median([r["failover_s"] for r in timed]) * 1e3,
        "recover_ms": median([r["recover_s"] for r in timed]) * 1e3,
        "replay_seq_mips": median(
            [r["seq_instrs"] / r["load_seq_s"] for r in timed]) / 1e6,
        "replay_par_mips": median(
            [r["par_instrs"] / r["par_replay_s"] for r in timed]) / 1e6,
        "pipeline_s": median([r["pipeline_s"] for r in timed]),
        "overhead_vt": median([r["overhead_vt"] for r in per_seed]),
        "log_bytes_per_minstr": median(
            [r["log_bytes"] / (r["instrs"] / 1e6) for r in per_seed]),
        "peak_rss_mb": doc["peak_rss_mb"],
        "setup_s": median([r["setup_s"] for r in reps]),
    }


def layer_metrics(reps, doc, notes):
    """Per-layer metrics: span-derived figures from the traced
    repetitions, counters from every timed repetition."""
    traced = [r for r in reps[1:] if r["traced"]]
    untraced = [r for r in reps[1:] if not r["traced"]]
    timed = reps[1:]
    rows, wall = trace_table.span_table(
        [trace_table.load_trace(r["trace_file"]) for r in traced])
    print(trace_table.format_table(rows, wall))

    def row(key):
        if key not in rows:
            raise Unknown("no %s spans in the trace" % key)
        return rows[key]

    def per_rep(key, scale=1.0):
        return lambda: median(row(key)["sums"]) * scale

    def p50(key, scale=1.0):
        return lambda: row(key)["p50"] * scale

    def tail(name, key, scale=1.0):
        def f():
            r = row(key)
            if r["tail"] is None:
                raise Unknown("%d %s spans: too few for a tail"
                              % (r["count"], key))
            notes[name] = "p%g of %d spans" % (r["tail_pct"], r["count"])
            return r["tail"] * scale
        return f

    def counter(field):
        return lambda: median([r[field] for r in timed])

    def ratio_per_rep(num_key, den_key):
        def f():
            num, den = row(num_key)["sums"], row(den_key)["sums"]
            return median([a / b for a, b in zip(num, den) if b > 0])
        return f

    def mips(rs):
        return median([r["instrs"] / r["record_s"] for r in rs])

    def recover_rate():
        return (median([r["journal_bytes"] for r in timed]) / 1e6
                / (row("bench:recover")["p50"] / 1e3))

    def retry_ratio():
        batches = median([r["ship_batches"] for r in timed])
        if batches == 0:
            raise Unknown("no batches were shipped")
        return median([r["ship_retries"] for r in timed]) / batches

    def useful_ratio():
        return median([r["instrs"] / r["tp_instrs"] for r in timed])

    def native_mips():
        return median([r["native_instrs"] / r["native_s"]
                       for r in timed]) / 1e6

    sources = {
        "os.native_pass_ms": per_rep("bench:setup.native"),
        "os.native_mips": native_mips,
        "os.tp_epoch_ms.sum": per_rep("tp:tp-epoch"),
        "os.tp_epoch_ms.p50": p50("tp:tp-epoch"),
        "os.tp_epoch_ms.tail": tail("os.tp_epoch_ms.tail", "tp:tp-epoch"),
        "os.tp_share": ratio_per_rep("tp:tp-epoch", "bench:record"),
        "os.tp_instrs": counter("tp_instrs"),
        "ckpt.capture_ms.sum": per_rep("tp:checkpoint"),
        "ckpt.capture_ms.p50": p50("tp:checkpoint"),
        "ckpt.capture_ms.tail": tail("ckpt.capture_ms.tail",
                                     "tp:checkpoint"),
        "ckpt.dirty_pages": counter("ckpt_pages"),
        "core.epoch_run_ms.sum": per_rep("ep:epoch-run"),
        "core.epoch_run_ms.p50": p50("ep:epoch-run"),
        "core.epoch_run_ms.tail": tail("core.epoch_run_ms.tail",
                                       "ep:epoch-run"),
        "core.ep_instrs": counter("instrs"),
        "core.rollbacks": counter("rollbacks"),
        "core.tp_useful_ratio": useful_ratio,
        "exec.tasks": counter("exec_tasks"),
        "exec.cancelled": counter("exec_cancelled"),
        "exec.peak_queue": counter("exec_peak_queue"),
        "exec.backpressure_waits": counter("exec_backpressure_waits"),
        "journal.append_us.p50": p50("bench:journal.appendEpoch", 1e3),
        "journal.append_us.tail": tail("journal.append_us.tail",
                                       "bench:journal.appendEpoch", 1e3),
        "journal.flush_ms": per_rep("bench:journal.flush"),
        "journal.bytes": counter("journal_bytes"),
        "journal.recover_mb_per_s": recover_rate,
        "ship.pump_us.p50": p50("bench:ship.pump", 1e3),
        "ship.pump_us.tail": tail("ship.pump_us.tail", "bench:ship.pump",
                                  1e3),
        "ship.batches": counter("ship_batches"),
        "ship.retry_ratio": retry_ratio,
        "ship.bytes": counter("ship_bytes"),
        "ship.standby_max_lag": counter("standby_max_lag"),
        "ship.standby_lag_waits": counter("standby_lag_waits"),
        "ship.standby_promote_ms": per_rep("bench:standby.promote"),
        "replay.serialize_ms": p50("bench:artifact.serialize"),
        "replay.load_ms": p50("bench:artifact.load"),
        "replay.artifact_bytes": counter("artifact_bytes"),
        "replay.epoch_ms.p50": p50("replay:replay-epoch"),
        "replay.epoch_ms.tail": tail("replay.epoch_ms.tail",
                                     "replay:replay-epoch"),
        "replay.par_speedup": ratio_per_rep("bench:replay.sequential",
                                            "bench:replay.parallel"),
        "trace.events": lambda: median([r["trace_events"] for r in traced]),
        "trace.overhead_ratio": lambda: mips(traced) / mips(untraced),
        "fail_ratio": lambda: doc["failed"] / doc["attempted"],
    }
    notes["trace.overhead_ratio"] = (
        "traced / untraced record_mips, %d vs %d repetitions"
        % (len(traced), len(untraced)))
    values = {}
    for name, f in sources.items():
        try:
            values[name] = f()
        except Unknown as e:
            values[name] = e
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = load_benchmark()
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        trace_dir = os.path.join(build_dir(), "traces")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        cmd += ["--trace-dir", trace_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("dp-e2e: dp_e2e exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    if r.returncode != 0:
        log("dp-e2e: dp_e2e exited with %d" % r.returncode)
        return 1
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    reps = doc["reps"]

    host = dict(doc["host"])
    host["git_rev"], reason = git_rev()
    if reason:
        host["git_rev_reason"] = reason
    print("dp-e2e workload=%s seed=%d seconds=%g trace=%d repetitions=%d"
          % (args.workload, args.seed, args.seconds, args.trace,
             len(reps)))
    print("host " + json.dumps(host, sort_keys=True))
    for rep in reps:
        if not rep["ok"]:
            print("FAILED repetition %d: %s" % (rep["rep"], rep["fail"]))

    notes = {}
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    if args.trace:
        values = layer_metrics(reps, doc, notes)
    else:
        try:
            values = e2e_metrics(reps, doc, notes)
        except Unknown as e:
            log("dp-e2e: end-to-end metric not measured: %s" % e)
            return 1
    metrics = {}
    for name, unit in units.items():
        v = values[name]
        if isinstance(v, Unknown):
            metrics[name] = {"value": None, "unit": unit,
                             "reason": str(v)}
            print("%-28s %14s %-9s %s" % (name, "null", unit, v))
        else:
            metrics[name] = {"value": v, "unit": unit}
            print("%-28s %14.6g %-9s %s" % (name, v, unit,
                                            notes.get(name, "")))
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
