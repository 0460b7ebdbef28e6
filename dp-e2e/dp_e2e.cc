/**
 * @file
 * dp_e2e: one closed-loop, single-client pass over the whole
 * record -> journal -> ship -> recover -> replay path, repeated for a
 * time box.
 *
 * Each repetition, on one host shape fixed for every workload
 * (4 worker CPUs, 2 host workers, 2 async journal streams, standby lag
 * bound 8 with 1 apply worker, parallel replay on 4 tracks x 2 jobs):
 *
 *   1. build the workload bundle             \  setup
 *   2. runNativeBaseline                      /
 *   3. UniparallelRecorder::record(); the commit observer appends to a
 *      ShardedJournalWriter and pumps a ShipSender -> ShipLink ->
 *      StandbyApplier hot standby; then journal flush()
 *   4. final pump() + promote()                  (failover)
 *   5. recoverShardedJournal over the stream images, jobs = 2
 *   6. serializeRecording + loadRecording
 *   7. replaySequential (loaded artifact) and replayParallel (the
 *      in-memory recording, which keeps its checkpoints)
 *
 * Steps 5-7 then run offlinePasses - 1 more times, so each of those
 * millisecond calls reports a per-repetition median.
 *
 * A run covers subSeeds sub-seeds of its --seed: timed repetition r
 * uses sub-seed (r - 1) % subSeeds, and the run stops only at the end
 * of a cycle through all of them. Recorder interleavings, and with them
 * the rollback count, differ by seed, so one seed alone is not a
 * representative sample.
 *
 * Every call is timed from outside and every output is checked; a
 * repetition failing any check is counted, never dropped. Repetition 0
 * is the warm-up. The first repetition of each sub-seed is the
 * reference its later repetitions must repeat byte for byte.
 *
 * With --trace-dir, every other cycle attaches a TraceRecorder to the
 * recorder, the journal and the replayers, adds the benchmark's own
 * spans around each public call (pid 100; the span category names the
 * parent stage, the "rep" arg the repetition), and writes one Chrome
 * trace file per traced repetition. The other cycles stay untraced, so
 * the run also yields the tracing overhead over the same sub-seeds, and
 * traced repetitions are checked against untraced ones.
 *
 * It prints raw per-repetition samples as one JSON document on
 * its last stdout line; run.py turns them into metrics.
 *
 *   dp_e2e --workload NAME --seed N --seconds S [--trace-dir DIR]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "baseline/baselines.hh"
#include "common/crc32.hh"
#include "common/hash.hh"
#include "core/recorder.hh"
#include "fault/fault.hh"
#include "journal/sharded.hh"
#include "replay/recording_io.hh"
#include "replay/replayer.hh"
#include "ship/link.hh"
#include "ship/sender.hh"
#include "ship/standby.hh"
#include "timing/pipeline.hh"
#include "trace/json.hh"
#include "trace/trace.hh"
#include "vm/interp.hh"
#include "workloads/registry.hh"

using namespace dp;

namespace
{

/// @name Host shape: busy host threads stay within a 4-core host.
/// @{
constexpr CpuId workerCpus = 4;
constexpr unsigned hostWorkers = 2;
constexpr unsigned journalStreams = 2;
constexpr std::uint64_t lagBound = 8;
constexpr unsigned applyWorkers = 1;
constexpr unsigned replayTracks = 4;
constexpr unsigned replayJobs = 2;
constexpr unsigned recoverJobs = 2;
/// @}

/** Machine CPUs of the virtual-time overhead model: N workers plus N
 *  spare cores, the paper's 15%/28% configuration. */
constexpr CpuId vtTotalCpus = 8;
constexpr Cycles epochLength = 100'000;
constexpr std::uint32_t registryScale = 32;

/** racy-lossy: E7's 1-in-1024 race density rolls back a few percent
 *  of its ~48 epochs (1-in-64 rolls back a fifth of them at 4 CPUs). */
constexpr std::uint64_t racyUpdatesPerThread = 320'000;
constexpr std::uint64_t racyOneIn = 1024;

/** Chrome-trace pid of the benchmark's own spans. */
constexpr auto benchStage = static_cast<TraceStage>(100);

struct WorkloadSpec
{
    const char *name;
    /** Registry workload; nullptr builds makeRacyUpdates. */
    const char *registryName;
    /** Ship over a seeded drop/duplicate/torn link. */
    bool lossyLink;
};

constexpr WorkloadSpec workloadSpecs[] = {
    {"aget-osstate", "aget", false},
    {"racy-lossy", nullptr, true},
};

const WorkloadSpec *
findSpec(std::string_view name)
{
    for (const WorkloadSpec &w : workloadSpecs)
        if (name == w.name)
            return &w;
    return nullptr;
}

workloads::WorkloadBundle
makeBundle(const WorkloadSpec &w, std::uint64_t seed)
{
    if (!w.registryName)
        return workloads::makeRacyUpdates(
            workerCpus, racyUpdatesPerThread, racyOneIn);
    return workloads::findWorkload(w.registryName)
        ->make({.threads = workerCpus,
                .scale = registryScale,
                .seed = seed});
}

FaultPlan
linkFaultPlan(std::uint64_t seed)
{
    FaultPlan plan;
    plan.seed = seed;
    plan.with(FaultSite::LinkDrop, 0.05)
        .with(FaultSite::LinkDuplicate, 0.05)
        .with(FaultSite::LinkTornBatch, 0.05);
    return plan;
}

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Benchmark span: no-op without a sink; @p parent names the stage it
 *  runs under. */
class BenchSpan
{
  public:
    BenchSpan(TraceRecorder *tr, const char *name, const char *parent,
              std::uint64_t rep)
        : span_(tr, benchStage, 0, name, parent)
    {
        span_.arg("rep", rep);
    }

  private:
    ScopedTraceSpan span_;
};

/** Passes over recover -> codec -> replay per repetition. */
constexpr std::size_t offlinePasses = 3;

/** Sub-seeds per run: sub-seed i of seed N is mix64(N * subSeeds + i),
 *  hashed because the recorder derives its streams by adding to the
 *  seed, so neighbouring seeds roll back alike. About one racy-lossy
 *  seed in five rolls back two or three epochs, not one. */
constexpr std::uint64_t subSeeds = 8;

/** Timed repetitions every run makes however short --seconds is: two
 *  cycles, so every sub-seed repeats at least once. The report's
 *  commit-gap tail percentile assumes this many. */
constexpr std::uint64_t minReps = 2 * subSeeds;

/** Wall seconds of the timed calls of one such pass. */
struct OfflineTimes
{
    double recover = 0.0;
    /** loadRecording + replaySequential: the `uniplay replay` path. */
    double loadSeq = 0.0;
    double par = 0.0;
    /** When replayParallel returned: the first pass ends the pipeline. */
    Clock::time_point end;
};

double
medianOf(const std::vector<OfflineTimes> &passes,
         double OfflineTimes::*field)
{
    std::vector<double> v;
    for (const OfflineTimes &t : passes)
        v.push_back(t.*field);
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/** What one repetition produced, outputs included, for the checks. */
struct RepOutput
{
    std::vector<std::uint8_t> artifact;
    std::vector<std::vector<std::uint8_t>> journal;
    std::uint64_t epochs = 0;
    std::uint64_t logBytes = 0;
    double overheadVt = 0.0;
    std::uint64_t rollbacks = 0;
    std::uint64_t shipRetries = 0;
};

JsonValue
num(double v)
{
    return JsonValue::number(v);
}

JsonValue
num(std::uint64_t v)
{
    return JsonValue::number(v);
}

/**
 * Run one repetition. Returns its samples; @p fail collects every
 * failed check ("" when all pass). @p ref, when set, is the output of
 * the first repetition of @p seed, which the deterministic results must
 * repeat.
 */
JsonValue
runRep(const WorkloadSpec &w, std::uint64_t seed, std::uint64_t rep,
       TraceRecorder *tr, const RepOutput *ref, RepOutput &out,
       std::string &fail)
{
    auto check = [&](bool ok, const char *what) {
        if (!ok && fail.empty())
            fail = what;
    };
    JsonValue s = JsonValue::object();
    s.set("rep", num(rep));
    s.set("traced", JsonValue::boolean(tr != nullptr));

    // 1-2. Setup: bundle + native baseline.
    const Clock::time_point tSetup = Clock::now();
    std::optional<workloads::WorkloadBundle> bundle;
    {
        BenchSpan sp(tr, "setup.bundle", "setup", rep);
        bundle = makeBundle(w, seed);
    }
    const double bundleS = secondsSince(tSetup);
    const Clock::time_point tNative = Clock::now();
    NativeResult native;
    {
        BenchSpan sp(tr, "setup.native", "setup", rep);
        native = runNativeBaseline(bundle->program, bundle->config,
                                   workerCpus, seed);
    }
    const double nativeS = secondsSince(tNative);
    s.set("setup_s", num(bundleS + nativeS));
    s.set("native_s", num(nativeS));
    s.set("native_instrs", num(native.instrs));
    check(native.reason == StopReason::AllExited,
          "native baseline did not run to completion");
    check(bundle->expectedExit == 0 ||
              native.exitCode == bundle->expectedExit,
          "native exit code != expectedExit");

    // 3. Record with the journal and the hot standby attached.
    RecorderOptions opts;
    opts.workerCpus = workerCpus;
    opts.epochLength = epochLength;
    opts.seed = seed;
    opts.hostWorkers = hostWorkers;
    opts.keepCheckpoints = true; // parallel replay needs them
    opts.trace = tr;

    std::optional<FaultInjector> faults;
    if (w.lossyLink)
        faults.emplace(linkFaultPlan(seed));
    FaultInjector *linkFaults = faults ? &*faults : nullptr;

    ShardedJournalWriter journal(bundle->program, bundle->config,
                                 recorderOptionsFingerprint(opts),
                                 {.streams = journalStreams});
    journal.setTrace(tr);
    journal.enableAsyncCommit();
    StandbyApplier standby(
        {.lagBound = lagBound, .applyWorkers = applyWorkers});
    ShipLink link(standby, linkFaults);
    ShipSender sender(
        link, journalStreams,
        [&journal](unsigned st) -> std::span<const std::uint8_t> {
            return journal.streamBytes(st);
        },
        {.seed = seed});

    JsonValue gaps = JsonValue::array();
    std::optional<Clock::time_point> lastCommit;
    RecordObserver obs;
    obs.addEpochSink([&](const EpochRecord &e, EpochId index) {
        const Clock::time_point now = Clock::now();
        if (lastCommit)
            gaps.push(num(
                std::chrono::duration<double, std::milli>(now -
                                                          *lastCommit)
                    .count()));
        lastCommit = now;
        {
            BenchSpan sp(tr, "journal.appendEpoch", "record", rep);
            journal.appendEpoch(e, index);
        }
        sender.noteEpochCommitted();
        BenchSpan sp(tr, "ship.pump", "record", rep);
        sender.pump();
    });

    UniparallelRecorder recorder(bundle->program, bundle->config, opts);
    const Clock::time_point tRecord = Clock::now();
    std::optional<RecordOutcome> rec;
    {
        BenchSpan sp(tr, "record", "rep", rep);
        rec = recorder.record(&obs);
    }
    const Clock::time_point tRecordRet = Clock::now();
    {
        BenchSpan sp(tr, "journal.flush", "record", rep);
        journal.flush();
    }
    const double recordS = secondsSince(tRecord);
    const Recording &recording = rec->recording;
    check(rec->ok, "record() failed");
    check(bundle->expectedExit == 0 ||
              rec->mainExitCode == bundle->expectedExit,
          "recorded exit code != expectedExit");
    check(journal.alive() &&
              journal.epochsWritten() == recording.epochs.size(),
          "journal did not commit every epoch");

    // 4. Failover: final pump, apply drain, promotion.
    std::optional<Promotion> promo;
    {
        BenchSpan sp(tr, "ship.finalPump", "failover", rep);
        sender.pump();
    }
    {
        BenchSpan sp(tr, "standby.promote", "failover", rep);
        promo = standby.promote();
    }
    const double failoverS =
        std::chrono::duration<double>(Clock::now() - tRecordRet)
            .count();
    check(!sender.failed(), "shipping failed");
    check(promo->report.promoted && promo->machine &&
              promo->report.replayedEpochs == recording.epochs.size() &&
              promo->report.finalStateHash == recording.finalStateHash,
          "promoted standby != finalStateHash");

    const std::uint64_t epochs = recording.epochs.size();
    std::vector<std::span<const std::uint8_t>> images;
    for (unsigned st = 0; st < journalStreams; ++st)
        images.emplace_back(journal.streamBytes(st));

    // 5-7. Recovery, artifact codec, sequential replay of the loaded
    // artifact, parallel replay of the in-memory recording. The first
    // pass closes the pipeline; the calls take milliseconds, so further
    // passes give each repetition a median of offlinePasses timings.
    std::optional<RecoveredShardedJournal> recovered;
    std::optional<RecordingLoadResult> loaded;
    ReplayResult seq, par;
    auto offlinePass = [&]() {
        OfflineTimes t;
        Clock::time_point t0 = Clock::now();
        {
            BenchSpan sp(tr, "recover", "rep", rep);
            recovered = recoverShardedJournal(images, recoverJobs);
        }
        t.recover = secondsSince(t0);

        {
            BenchSpan sp(tr, "artifact.serialize", "rep", rep);
            out.artifact = serializeRecording(recording);
        }
        t0 = Clock::now();
        {
            BenchSpan sp(tr, "artifact.load", "rep", rep);
            loaded = loadRecording(out.artifact);
        }
        if (loaded->ok()) {
            Replayer seqReplayer(*loaded->recording);
            seqReplayer.setTrace(tr);
            BenchSpan sp(tr, "replay.sequential", "rep", rep);
            seq = seqReplayer.replaySequential();
        }
        t.loadSeq = secondsSince(t0);
        Replayer parReplayer(recording);
        parReplayer.setTrace(tr);
        t0 = Clock::now();
        {
            BenchSpan sp(tr, "replay.parallel", "rep", rep);
            par = parReplayer.replayParallel(replayTracks, replayJobs);
        }
        t.end = Clock::now();
        t.par = std::chrono::duration<double>(t.end - t0).count();
        return t;
    };
    // Output checks of one pass, outside every timed region.
    auto checkPass = [&]() {
        check(loaded->ok(), "artifact failed to load");
        check(seq.ok && seq.epochsVerified == epochs,
              "sequential replay did not verify every epoch");
        check(par.ok && par.epochsVerified == epochs,
              "parallel replay did not verify every epoch");
        check(seq.stdoutBytes == par.stdoutBytes,
              "sequential and parallel replay stdout differ");
        check(recovered->report.clean() && recovered->recording &&
                  recovered->consistentEpochs == epochs,
              "journal recovery was not clean");
        check(recovered->recording &&
                  serializeRecording(*recovered->recording) ==
                      out.artifact,
              "recovered recording != recorded artifact");
    };
    std::vector<OfflineTimes> passes{offlinePass()};
    const double pipelineS =
        std::chrono::duration<double>(passes[0].end - tRecord).count();
    checkPass();
    while (passes.size() < offlinePasses) {
        passes.push_back(offlinePass());
        checkPass();
    }
    out.journal = journal.imageSet();
    check(recording.hasCheckpoints(), "recording lost its checkpoints");

    std::uint64_t instrs = 0;
    std::vector<EpochTiming> timings;
    timings.reserve(epochs);
    for (const EpochRecord &e : recording.epochs) {
        instrs += e.epInstrs;
        timings.push_back({e.tpCycles, e.epCycles, e.diverged});
    }
    const PipelineResult model = PipelineModel::run(
        timings,
        {.workerCpus = workerCpus, .totalCpus = vtTotalCpus});
    out.epochs = epochs;
    out.logBytes = recording.replayLogBytes();
    out.overheadVt = native.cycles
                         ? static_cast<double>(model.completion) /
                                   static_cast<double>(native.cycles) -
                               1.0
                         : 0.0;
    out.rollbacks = recording.stats.rollbacks;
    out.shipRetries = sender.stats().retries;
    check(native.cycles > 0 && instrs > 0, "empty run");

    if (ref) {
        check(out.epochs == ref->epochs, "epoch count changed");
        check(out.logBytes == ref->logBytes, "log bytes changed");
        check(out.overheadVt == ref->overheadVt,
              "virtual-time overhead changed");
        check(out.rollbacks == ref->rollbacks, "rollbacks changed");
        check(out.shipRetries == ref->shipRetries,
              "ship retries changed");
        check(out.artifact == ref->artifact, "artifact bytes changed");
        check(out.journal == ref->journal, "journal bytes changed");
    }

    s.set("record_s", num(recordS));
    s.set("instrs", num(instrs));
    s.set("failover_s", num(failoverS));
    s.set("recover_s", num(medianOf(passes, &OfflineTimes::recover)));
    s.set("load_seq_s", num(medianOf(passes, &OfflineTimes::loadSeq)));
    s.set("seq_instrs", num(seq.instrs));
    s.set("par_replay_s", num(medianOf(passes, &OfflineTimes::par)));
    s.set("par_instrs", num(par.instrs));
    s.set("pipeline_s", num(pipelineS));
    s.set("commit_gaps_ms", std::move(gaps));

    s.set("epochs", num(epochs));
    s.set("log_bytes", num(std::uint64_t{out.logBytes}));
    s.set("overhead_vt", num(out.overheadVt));
    s.set("rollbacks", num(out.rollbacks));
    s.set("tp_instrs", num(recording.stats.tpInstrs));
    s.set("ckpt_pages", num(recording.stats.checkpointPages));

    const ExecutorStats &ex = rec->execStats;
    s.set("exec_tasks", num(ex.tasksExecuted));
    s.set("exec_cancelled", num(ex.tasksCancelled));
    s.set("exec_peak_queue", num(ex.peakQueueDepth));
    s.set("exec_backpressure_waits", num(ex.backpressureWaits));

    std::uint64_t journalBytes = 0;
    for (const std::vector<std::uint8_t> &img : out.journal)
        journalBytes += img.size();
    s.set("journal_bytes", num(journalBytes));
    s.set("artifact_bytes", num(std::uint64_t{out.artifact.size()}));

    const ShipSenderStats &ss = sender.stats();
    const StandbyStats sb = standby.stats();
    s.set("ship_batches", num(ss.batchesSent));
    s.set("ship_retries", num(ss.retries));
    s.set("ship_bytes", num(ss.bytesShipped));
    s.set("standby_max_lag", num(sb.maxLag));
    s.set("standby_lag_waits", num(sb.lagWaits));

    s.set("ok", JsonValue::boolean(fail.empty()));
    if (!fail.empty())
        s.set("fail", JsonValue::str(fail));
    return s;
}

/** VmHWM in MiB: this process's peak RSS; 0 if unreadable. */
double
peakRssMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

int
usage(const char *msg)
{
    std::cerr << "dp_e2e: " << msg
              << "\nusage: dp_e2e --workload NAME --seed N --seconds S "
                 "[--trace-dir DIR]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const WorkloadSpec *spec = nullptr;
    std::optional<std::uint64_t> seed;
    double seconds = 0.0;
    std::string traceDir;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (i + 1 >= argc)
            return usage("missing option value");
        const char *v = argv[++i];
        try {
            if (a == "--workload") {
                spec = findSpec(v);
                if (!spec)
                    return usage("unknown workload");
            } else if (a == "--seed") {
                seed = std::stoull(v);
            } else if (a == "--seconds") {
                seconds = std::stod(v);
            } else if (a == "--trace-dir") {
                traceDir = v;
            } else {
                return usage("unknown option");
            }
        } catch (const std::exception &) {
            return usage("malformed option value");
        }
    }
    if (!spec || !seed || !(seconds > 0.0))
        return usage("--workload, --seed and --seconds are required");
    const bool traced = !traceDir.empty();

    JsonValue reps = JsonValue::array();
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::optional<RepOutput>> refs(subSeeds);
    double warmupPeakRss = 0.0;
    const Clock::time_point tStart = Clock::now();
    for (std::uint64_t rep = 0;; ++rep) {
        // Repetition 0 is the warm-up on sub-seed 0; in a traced run,
        // the even cycles of timed repetitions are traced.
        const std::uint64_t sub = rep == 0 ? 0 : (rep - 1) % subSeeds;
        const bool traceRep =
            traced && rep > 0 && (rep - 1) / subSeeds % 2 == 0;
        std::unique_ptr<TraceRecorder> tr;
        if (traceRep)
            tr = std::make_unique<TraceRecorder>();
        RepOutput out;
        std::string fail;
        JsonValue s;
        {
            BenchSpan sp(tr.get(), "rep", "run", rep);
            s = runRep(*spec, mix64(*seed * subSeeds + sub), rep,
                       tr.get(), refs[sub] ? &*refs[sub] : nullptr, out,
                       fail);
        }
        // Peak RSS is that of a fresh process running the path once:
        // the warm-up's. Later repetitions' peaks include heap the
        // allocator kept from earlier ones, which varies with how the
        // threads' allocation arenas happened to fill. On aget-osstate
        // they flipped between ~170 and ~230 MiB within and across
        // runs; the warm-up's peak was 114-115 MiB in each of six runs.
        if (rep == 0) {
            warmupPeakRss = peakRssMiB();
            if (!(warmupPeakRss > 0.0)) {
                std::cerr << "dp_e2e: cannot read VmHWM from "
                             "/proc/self/status\n";
                return 1;
            }
        }
        s.set("sub_seed", num(sub));
        if (tr) {
            const std::string path = traceDir + "/rep" +
                                     std::to_string(rep) + ".json";
            s.set("trace_events", num(std::uint64_t{tr->size()}));
            s.set("trace_file", JsonValue::str(path));
            if (!tr->writeChromeJson(path) && fail.empty()) {
                fail = "cannot write trace file";
                s.set("ok", JsonValue::boolean(false));
                s.set("fail", JsonValue::str(fail));
            }
        }
        ++attempted;
        if (!fail.empty()) {
            ++failed;
            std::cerr << "dp_e2e: repetition " << rep
                      << " failed: " << fail << "\n";
        }
        if (!refs[sub])
            refs[sub] = std::move(out);
        reps.push(std::move(s));
        // Timed repetitions are 1..rep; stop once the time box is
        // spent and enough repetitions exist, at the end of a cycle.
        if (secondsSince(tStart) >= seconds && rep >= minReps &&
            rep % subSeeds == 0)
            break;
    }

    JsonValue host = JsonValue::object();
    host.set("nproc",
             num(std::uint64_t{std::thread::hardware_concurrency()}));
    host.set("compiler", JsonValue::str(DP_E2E_COMPILER));
    host.set("build_type", JsonValue::str(DP_E2E_BUILD_TYPE));
    host.set("dispatch", JsonValue::str(Interpreter::dispatchKindName()));
    host.set("crc32c", JsonValue::str(crc32cBackendName()));

    JsonValue doc = JsonValue::object();
    doc.set("workload", JsonValue::str(spec->name));
    doc.set("seed", num(*seed));
    doc.set("host", std::move(host));
    doc.set("peak_rss_mb", num(warmupPeakRss));
    doc.set("min_reps", num(minReps));
    doc.set("attempted", num(attempted));
    doc.set("failed", num(failed));
    doc.set("reps", std::move(reps));
    std::cout << doc.dump() << "\n";
    return 0;
}
