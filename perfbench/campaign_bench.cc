/**
 * @file
 * Campaign benchmark binary. Runs one benchmark workload through the
 * simulator's public entry points and prints one JSON object per
 * line; perfbench/run.py checks the per-op records against the
 * stored reference and derives the metrics.
 *
 *   campaign_bench --workload W --mode setup|run|trace
 *                  [--fault-seeds S1,S2,..] [--seconds T]
 *                  [--trace-file F]
 *
 * A round is one public call per listed campaign fault seed (the
 * sweep is fault-free and ignores the seeds).
 *
 *   setup  the workload's public call with zero ops, then "ready".
 *   run    repeat rounds until T seconds have passed; each call
 *          prints its ops' deterministic records and its wall time.
 *   trace  repeat rounds of (untraced public call, traced pass over
 *          the same ops) until T seconds have passed. The traced pass
 *          drives every op through each layer's public function with a
 *          span around each call, must reproduce the untraced call's
 *          records exactly, and ends with the per-layer metrics. The
 *          spans stay in memory and are written to F at exit. On the
 *          sweep the traced pass must also match the host phase
 *          profile runCampaign returns (the drift check), or the
 *          exit status is 1.
 *
 * The worker count is TURNPIKE_JOBS, as for every campaign.
 */

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/avf.hh"
#include "core/parallel.hh"
#include "core/replay.hh"
#include "core/rootcause.hh"
#include "machine/minterp.hh"
#include "machine/mverifier.hh"
#include "sim/pipeline.hh"
#include "util/logging.hh"

using namespace turnpike;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- workloads ------------------------------------------------------

enum class Kind { Avf, RootCause, Sweep };

/** Trials per public call of the two campaign workloads. */
constexpr uint32_t kAvfTrials = 256;
constexpr uint32_t kRootCauseTrials = 32;
/** Dynamic-instruction budget of every sweep cell. */
constexpr uint64_t kSweepIcount = 1000000;

struct Workload
{
    Kind kind = Kind::Avf;
    /** Campaign workloads only (the sweep's cells carry their own). */
    AvfCampaignConfig campaign;
};

Workload
makeWorkload(const std::string &name, uint64_t faultSeed)
{
    Workload w;
    AvfCampaignConfig &c = w.campaign;
    c.icount = 200000;
    c.seed = faultSeed;
    if (name == "avf_hmmer") {
        w.kind = Kind::Avf;
        c.spec = findWorkload("CPU2006", "hmmer");
        c.scheme = ResilienceConfig::turnpike(10);
        c.trials = kAvfTrials;
        c.sensorMissRate = 0.0;
    } else if (name == "rootcause_mcf") {
        w.kind = Kind::RootCause;
        c.spec = findWorkload("CPU2006", "mcf");
        c.scheme = ResilienceConfig::turnpike(10);
        c.trials = kRootCauseTrials;
        c.sensorMissRate = 0.3;
    } else if (name == "wcdl_sweep") {
        w.kind = Kind::Sweep;
    } else {
        fatal("unknown workload '%s' (avf_hmmer, rootcause_mcf, "
              "wcdl_sweep)", name.c_str());
    }
    return w;
}

/** The sweep grid: every workload under the five Fig. 19/20 points. */
std::vector<RunRequest>
sweepRequests()
{
    const ResilienceConfig schemes[] = {
        ResilienceConfig::baseline(), ResilienceConfig::turnpike(10),
        ResilienceConfig::turnpike(50), ResilienceConfig::turnstile(10),
        ResilienceConfig::turnstile(50)};
    std::vector<RunRequest> reqs;
    for (const WorkloadSpec &spec : workloadSuite())
        for (const ResilienceConfig &s : schemes)
            reqs.push_back({spec, s, kSweepIcount});
    return reqs;
}

// -- per-op records -------------------------------------------------

/** One op's deterministic result, as printed and compared. */
struct OpRecord
{
    std::string key;
    std::vector<uint64_t> fields;

    bool operator==(const OpRecord &) const = default;
};

std::string
u64(uint64_t v)
{
    return std::to_string(v);
}

/** A trial: outcome, cycles, recoveries, detections. */
std::vector<OpRecord>
trialRecords(const std::vector<AvfTrial> &trials)
{
    std::vector<OpRecord> out;
    for (size_t t = 0; t < trials.size(); t++) {
        const AvfTrial &a = trials[t];
        out.push_back({"t" + u64(t),
                       {uint64_t(a.outcome), a.cycles, a.recoveries,
                        a.detections}});
    }
    return out;
}

/** A bisected trial appends: divergence kind, index, pc, probes. */
void
appendDivergence(OpRecord &rec, DivergenceKind kind, uint64_t index,
                 uint32_t pc, uint32_t probes)
{
    rec.fields.insert(rec.fields.end(),
                      {uint64_t(kind), index, pc, probes});
}

/** The pc a bisection blames (the rule runRootCauseAnalysis uses). */
uint32_t
blamedPc(const DivergencePoint &dp)
{
    if (dp.kind == DivergenceKind::StateOnly)
        return kNoTracePc;
    return dp.kind == DivergenceKind::Extended ? dp.faulty.pc
                                               : dp.golden.pc;
}

/** A sweep cell: cycles, insts, final data hash. */
OpRecord
cellRecord(const RunRequest &q, const RunResult &r)
{
    return {q.spec.suite + "/" + q.spec.name + "@" + q.cfg.label +
                "/dl" + u64(q.cfg.wcdl),
            {r.pipe.cycles, r.pipe.insts, r.dataHash}};
}

std::string
fieldsJson(const OpRecord &rec)
{
    std::string out = "[";
    for (size_t i = 0; i < rec.fields.size(); i++)
        out += (i ? "," : "") + u64(rec.fields[i]);
    return out + "]";
}

// -- the untraced public calls --------------------------------------

/** Ops one call covers. */
size_t
opsPerCall(const Workload &w)
{
    return w.kind == Kind::Sweep ? sweepRequests().size()
                                 : w.campaign.trials;
}

/**
 * The workload's public call over its first @p ops ops. For the sweep,
 * @p profile (when given) accumulates the host phase profile that
 * runCampaign returns with each cell.
 */
std::vector<OpRecord>
publicCall(const Workload &w, uint32_t ops, PhaseProfile *profile = nullptr)
{
    AvfCampaignConfig cfg = w.campaign;
    cfg.trials = ops;
    switch (w.kind) {
      case Kind::Avf:
        return trialRecords(runAvfCampaign(cfg).perTrial);
      case Kind::RootCause: {
        RootCauseReport rep = runRootCauseAnalysis(cfg);
        std::vector<OpRecord> out = trialRecords(rep.screen.perTrial);
        for (const RootCauseAttribution &a : rep.attributions)
            appendDivergence(out[a.trial], a.kind, a.divergeIndex, a.pc,
                             a.probes);
        return out;
      }
      case Kind::Sweep: {
        std::vector<RunRequest> reqs = sweepRequests();
        reqs.resize(std::min<size_t>(reqs.size(), ops));
        std::vector<RunResult> res = runCampaign(reqs);
        std::vector<OpRecord> out;
        for (size_t i = 0; i < reqs.size(); i++) {
            out.push_back(cellRecord(reqs[i], res[i]));
            if (profile)
                profile->merge(res[i].profile);
        }
        return out;
      }
    }
    return {};
}

// -- tracing --------------------------------------------------------

/** One recorded call into a layer (or one whole op). */
struct Span
{
    const char *name;
    uint32_t pass;
    int64_t op; ///< -1: not part of an op (golden run, set-up)
    uint64_t startNs;
    uint64_t durNs;
};

/** Work counters recorded at the same boundaries as the spans. */
struct Counters
{
    uint64_t interpInsts = 0;
    uint64_t simRuns = 0;
    uint64_t cycles = 0;
    uint64_t insts = 0;
    uint64_t recoveries = 0;
    uint64_t recoveryCycles = 0;
    uint64_t sbFull = 0;
    uint64_t dataHazard = 0;
    uint64_t rbbFull = 0;
    uint64_t l1dHits = 0;
    uint64_t l1dMisses = 0;
    uint64_t hashCalls = 0;
    uint64_t faultedCycles = 0;
    uint64_t prefixCycles = 0;
    uint64_t probes = 0;
    uint64_t harmful = 0;
    uint64_t outcomes[kNumFaultOutcomes] = {};

    Counters &operator+=(const Counters &x)
    {
        interpInsts += x.interpInsts;
        simRuns += x.simRuns;
        cycles += x.cycles;
        insts += x.insts;
        recoveries += x.recoveries;
        recoveryCycles += x.recoveryCycles;
        sbFull += x.sbFull;
        dataHazard += x.dataHazard;
        rbbFull += x.rbbFull;
        l1dHits += x.l1dHits;
        l1dMisses += x.l1dMisses;
        hashCalls += x.hashCalls;
        faultedCycles += x.faultedCycles;
        prefixCycles += x.prefixCycles;
        probes += x.probes;
        harmful += x.harmful;
        for (int o = 0; o < kNumFaultOutcomes; o++)
            outcomes[o] += x.outcomes[o];
        return *this;
    }
};

/** One pool worker's spans and counters (written by it alone). */
struct WorkerLog
{
    std::vector<Span> spans;
    Counters c;
    PhaseProfile passes;
    /**
     * runWorkload's own host.* phases (core/runner.cc), timed here at
     * the same boundaries, to compare with the profile runCampaign
     * returns (the drift check).
     */
    PhaseProfile mirror;
    /** (pass, compile key) of every compile, for redundancy. */
    std::vector<std::pair<uint32_t, std::string>> compiles;
};

class LayerTrace
{
  public:
    explicit LayerTrace(unsigned jobs) : logs_(std::max(1u, jobs)) {}

    /** The calling worker's log (worker 0 is also the main thread). */
    WorkerLog &log() { return logs_.at(currentCampaignWorker()); }
    const std::vector<WorkerLog> &logs() const { return logs_; }

    uint64_t nowNs() const
    {
        return uint64_t(std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            Clock::now() - origin_).count());
    }

    /** Seconds of @p log's last span. */
    static double lastSpanS(const WorkerLog &log)
    {
        return double(log.spans.back().durNs) * 1e-9;
    }

    /** Run fn() inside a span named @p name; returns fn's result. */
    template <class F>
    auto span(WorkerLog &log, const char *name, uint32_t pass,
              int64_t op, F &&fn)
    {
        uint64_t t0 = nowNs();
        auto result = fn();
        log.spans.push_back({name, pass, op, t0, nowNs() - t0});
        return result;
    }

  private:
    Clock::time_point origin_ = Clock::now();
    std::vector<WorkerLog> logs_;
};

/** The config fields compileWorkload reads (core/compiler.cc). */
std::string
compileKey(const WorkloadSpec &spec, const ResilienceConfig &cfg,
           uint64_t icount)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "|%" PRIu64 "|%d%d%d%d%d%d|%u|%u", icount,
                  int(cfg.resilience), int(cfg.livm), int(cfg.pruning),
                  int(cfg.licm), int(cfg.scheduling),
                  int(cfg.storeAwareRa), cfg.sbSize,
                  cfg.regionStoreBudget);
    return spec.suite + "/" + spec.name + buf;
}

/**
 * runWorkload's steps, each through its layer's public function and
 * inside its own span: build, compile, golden interpret + hash,
 * simulate, hash. This mirrors prepare() and runWorkload() in
 * core/runner.cc step by step, and must change with them; the drift
 * check compares the two.
 */
RunResult
tracedRun(LayerTrace &tr, WorkerLog &log, uint32_t pass, int64_t op,
          const WorkloadSpec &spec, const ResilienceConfig &cfg,
          uint64_t icount, const std::vector<FaultEvent> &faults,
          const RunOptions &opts)
{
    std::unique_ptr<Module> mod =
        tr.span(log, "workloads.buildWorkload", pass, op,
                [&] { return buildWorkload(spec, icount); });
    log.mirror.add("host.build_workload", LayerTrace::lastSpanS(log));
    CompiledProgram prog =
        tr.span(log, "compiler.compileWorkload", pass, op, [&] {
            CompiledProgram p = compileWorkload(*mod, cfg);
            verifyOrDie(*p.mf);
            return p;
        });
    log.mirror.add("host.compile", LayerTrace::lastSpanS(log));
    log.passes.merge(prog.profile);
    log.compiles.emplace_back(pass, compileKey(spec, cfg, icount));

    RunResult r;
    r.workload = spec.suite + "/" + spec.name;
    r.scheme = cfg.label;
    {
        InterpResult golden =
            tr.span(log, "machine.interpretMachine", pass, op,
                    [&] { return interpretMachine(*mod, *prog.mf); });
        double interpS = LayerTrace::lastSpanS(log);
        TP_ASSERT(golden.reason == StopReason::Halted,
                  "workload %s did not halt functionally",
                  r.workload.c_str());
        r.goldenHash =
            tr.span(log, "ir.dataHash", pass, op,
                    [&] { return golden.memory.dataHash(*mod); });
        log.mirror.add("host.interpret",
                       interpS + LayerTrace::lastSpanS(log));
        log.c.interpInsts += golden.stats.insts;
        log.c.hashCalls++;
    }

    PipelineConfig pcfg = cfg.toPipelineConfig();
    if (opts.maxCycles != 0)
        pcfg.maxCycles = opts.maxCycles;
    PipelineResult pr =
        tr.span(log, "sim.InOrderPipeline::run", pass, op, [&] {
            InOrderPipeline pipe(*mod, *prog.mf, pcfg);
            return pipe.run(faults);
        });
    double simS = LayerTrace::lastSpanS(log);
    TP_ASSERT(pr.halted || opts.allowNoHalt,
              "workload %s did not halt in the pipeline (scheme %s)",
              r.workload.c_str(), cfg.label.c_str());
    r.halted = pr.halted;
    r.dataHash = tr.span(log, "ir.dataHash", pass, op,
                         [&] { return pr.memory.dataHash(*mod); });
    log.mirror.add("host.simulate", simS + LayerTrace::lastSpanS(log));
    r.archHash = pr.archHash;
    r.pipe = std::move(pr.stats);

    Counters &c = log.c;
    c.hashCalls++;
    c.simRuns++;
    c.cycles += r.pipe.cycles;
    c.insts += r.pipe.insts;
    c.recoveries += r.pipe.recoveries;
    c.recoveryCycles += r.pipe.recoveryCycles;
    c.sbFull += r.pipe.sbFullStallCycles;
    c.dataHazard += r.pipe.dataHazardStallCycles;
    c.rbbFull += r.pipe.rbbFullStallCycles;
    c.l1dHits += r.pipe.l1dHits;
    c.l1dMisses += r.pipe.l1dMisses;
    return r;
}

/** A traced AVF campaign: golden run, then every trial on the pool. */
std::vector<AvfTrial>
tracedAvfPass(LayerTrace &tr, uint32_t pass,
              const AvfCampaignConfig &cfg)
{
    const std::vector<FaultTarget> &targets = allFaultTargets();
    RunResult golden = tracedRun(tr, tr.log(), pass, -1, cfg.spec,
                                 cfg.scheme, cfg.icount, {}, {});
    uint64_t budget = avfCycleBudget(cfg.hangFactor,
                                     golden.pipe.cycles);
    TrialNoise noise = detectorTrialNoise(cfg.scheme.detector);

    std::vector<AvfTrial> out(cfg.trials);
    CampaignService::instance().run(cfg.trials, [&](size_t i) {
        WorkerLog &log = tr.log();
        uint32_t t = static_cast<uint32_t>(i);
        out[t] = tr.span(log, "op", pass, t, [&] {
            FaultEvent f = tr.span(log, "avf.makeTrialFault", pass, t,
                                   [&] {
                return makeTrialFault(cfg.seed, t, golden.pipe.cycles,
                                      cfg.scheme.wcdl, targets,
                                      cfg.sensorMissRate, noise);
            });
            RunResult r = tracedRun(tr, log, pass, t, cfg.spec,
                                    cfg.scheme, cfg.icount, {f},
                                    RunOptions(budget, true));
            FaultOutcome o = tr.span(log, "avf.classifyOutcome", pass,
                                     t, [&] {
                return classifyOutcome(golden, r, f.spurious);
            });
            log.c.outcomes[int(o)]++;
            log.c.faultedCycles += r.pipe.cycles;
            log.c.prefixCycles += std::min(f.cycle, r.pipe.cycles);
            AvfTrial a;
            a.fault = f;
            a.outcome = o;
            a.cycles = r.pipe.cycles;
            a.recoveries = r.pipe.recoveries;
            a.detections = r.pipe.detectedFaults;
            return a;
        });
    });
    return out;
}

std::vector<OpRecord>
tracedPass(LayerTrace &tr, uint32_t pass, const Workload &w)
{
    if (w.kind == Kind::Avf)
        return trialRecords(tracedAvfPass(tr, pass, w.campaign));

    if (w.kind == Kind::RootCause) {
        const AvfCampaignConfig &cfg = w.campaign;
        std::vector<AvfTrial> screen = tracedAvfPass(tr, pass, cfg);
        std::vector<OpRecord> out = trialRecords(screen);
        std::vector<uint32_t> harmful;
        for (uint32_t t = 0; t < screen.size(); t++)
            if (screen[t].outcome == FaultOutcome::Sdc ||
                screen[t].outcome == FaultOutcome::Hang)
                harmful.push_back(t);
        if (!harmful.empty()) {
            // runRootCauseAnalysis's region snapshot compile and the
            // replayer's golden run, before the bisections fan out.
            WorkerLog &main = tr.log();
            std::unique_ptr<Module> mod =
                tr.span(main, "workloads.buildWorkload", pass, -1, [&] {
                    return buildWorkload(cfg.spec, cfg.icount);
                });
            CompiledProgram prog =
                tr.span(main, "compiler.compileWorkload", pass, -1,
                        [&] { return compileWorkload(*mod, cfg.scheme); });
            main.passes.merge(prog.profile);
            main.compiles.emplace_back(
                pass, compileKey(cfg.spec, cfg.scheme, cfg.icount));
            auto replayer = tr.span(
                main, "rootcause.TrialReplayer", pass, -1,
                [&] { return std::make_unique<TrialReplayer>(cfg); });
            GoldenPrefixCache cache;
            std::vector<DivergencePoint> points(harmful.size());
            CampaignService::instance().run(
                harmful.size(), [&](size_t i) {
                    WorkerLog &log = tr.log();
                    points[i] = tr.span(
                        log, "rootcause.bisectDivergence", pass,
                        harmful[i], [&] {
                            return bisectDivergence(*replayer,
                                                    harmful[i], cache);
                        });
                    log.c.probes += points[i].probes;
                    log.c.harmful++;
                });
            for (size_t i = 0; i < harmful.size(); i++) {
                const DivergencePoint &dp = points[i];
                appendDivergence(out[harmful[i]], dp.kind, dp.index,
                                 blamedPc(dp), dp.probes);
            }
        }
        return out;
    }

    std::vector<RunRequest> reqs = sweepRequests();
    std::vector<RunResult> res(reqs.size());
    CampaignService::instance().run(reqs.size(), [&](size_t i) {
        WorkerLog &log = tr.log();
        const RunRequest &q = reqs[i];
        res[i] = tr.span(log, "op", pass, int64_t(i), [&] {
            return tracedRun(tr, log, pass, int64_t(i), q.spec, q.cfg,
                             q.targetDynInsts, q.faults, q.opts);
        });
    });
    std::vector<OpRecord> out;
    for (size_t i = 0; i < reqs.size(); i++)
        out.push_back(cellRecord(reqs[i], res[i]));
    return out;
}

// -- per-layer metrics ----------------------------------------------

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Nearest-rank percentile of sorted @p v (0 < p <= 100). */
double
percentile(const std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

struct TraceTotals
{
    uint32_t rounds = 0;
    uint32_t passes = 0;
    double untracedWall = 0;
    double tracedWall = 0;
    uint64_t fidelityMismatches = 0;
    /** The sweep's untraced host.* profile, summed over its cells. */
    PhaseProfile untracedProfile;
};

/** runner.cc's host phases, as RunResult::profile names them. */
constexpr const char *kHostPhases[] = {
    "host.build_workload", "host.compile", "host.interpret",
    "host.simulate"};

/**
 * Largest |traced / untraced - 1| of a host phase's time the drift
 * check lets pass. The two sums cover the same cells on the same
 * pool, so host noise moves them together; a phase the program
 * stops running, or runs twice as fast, does not.
 */
constexpr double kMaxProfileDrift = 0.3;

struct ProfileDrift
{
    bool checked = false; ///< only the sweep's call returns a profile
    bool callsMatch = true;
    double maxFrac = 0;   ///< largest |traced / untraced - 1|
};

/**
 * The drift check: the traced pass mirrors core/runner.cc by hand, so
 * compare it with the profile runCampaign returns for the same cells.
 * Every host.* phase must run as often in both, and take about as
 * long. Per-phase detail goes to stderr.
 */
ProfileDrift
profileDrift(const LayerTrace &tr, const TraceTotals &tt)
{
    ProfileDrift d;
    const auto &untraced = tt.untracedProfile.entries();
    if (untraced.empty())
        return d;
    d.checked = true;
    PhaseProfile mirror;
    for (const WorkerLog &log : tr.logs())
        mirror.merge(log.mirror);
    for (const char *phase : kHostPhases) {
        auto u = untraced.find(phase);
        auto t = mirror.entries().find(phase);
        uint64_t uCalls = u == untraced.end() ? 0 : u->second.calls;
        uint64_t tCalls = t == mirror.entries().end() ? 0 : t->second.calls;
        double uS = u == untraced.end() ? 0 : u->second.seconds;
        double tS = t == mirror.entries().end() ? 0 : t->second.seconds;
        double frac = uS > 0 ? std::fabs(tS / uS - 1) : 1;
        d.callsMatch = d.callsMatch && uCalls == tCalls;
        d.maxFrac = std::max(d.maxFrac, frac);
        std::fprintf(stderr, "drift: %-20s calls %" PRIu64 " traced / %"
                     PRIu64 " untraced, %.4f s / %.4f s\n", phase,
                     tCalls, uCalls, tS, uS);
    }
    return d;
}

void
printJsonField(bool &first, const std::string &name, double v)
{
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), v);
    first = false;
}

void
printLayerMetrics(const LayerTrace &tr, const TraceTotals &tt,
                  const ProfileDrift &drift, unsigned jobs)
{
    Counters c;
    PhaseProfile passes;
    std::map<std::string, double> layerS;
    std::map<std::pair<uint32_t, int64_t>, double> opS;
    std::map<uint32_t, std::pair<uint64_t, std::set<std::string>>>
        compiles;
    for (const WorkerLog &log : tr.logs()) {
        c += log.c;
        passes.merge(log.passes);
        for (const Span &s : log.spans) {
            double sec = double(s.durNs) * 1e-9;
            bool opLevel = std::strcmp(s.name, "op") == 0 ||
                std::strcmp(s.name, "rootcause.bisectDivergence") == 0;
            if (opLevel && s.op >= 0)
                opS[{s.pass, s.op}] += sec;
            if (std::strcmp(s.name, "op") != 0)
                layerS[s.name] += sec;
        }
        for (const auto &[pass, key] : log.compiles) {
            compiles[pass].first++;
            compiles[pass].second.insert(key);
        }
    }
    uint64_t nCompiles = 0, nRedundant = 0;
    for (const auto &kv : compiles) {
        nCompiles += kv.second.first;
        nRedundant += kv.second.first - kv.second.second.size();
    }
    auto passS = [&](const char *name) {
        auto it = passes.entries().find(name);
        return it == passes.entries().end() ? 0.0 : it->second.seconds;
    };
    std::vector<double> opMs;
    double opTotalS = 0;
    for (const auto &kv : opS) {
        opMs.push_back(kv.second * 1e3);
        opTotalS += kv.second;
    }
    std::sort(opMs.begin(), opMs.end());
    // The highest percentile with at least ten samples beyond it.
    double tailPct = 50;
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0})
        if (double(opMs.size()) * (1.0 - p / 100.0) >= 10.0) {
            tailPct = p;
            break;
        }
    size_t tailN = opMs.size() -
        std::min(opMs.size(),
                 size_t(std::ceil(tailPct / 100.0 * double(opMs.size()))));
    uint64_t trials = 0;
    for (uint64_t n : c.outcomes)
        trials += n;
    double simS = layerS["sim.InOrderPipeline::run"];
    double bisectS = layerS["rootcause.bisectDivergence"];

    bool first = true;
    std::printf("{\"layers\":{");
    auto f = [&](const std::string &n, double v) {
        printJsonField(first, n, v);
    };
    // Times and counts are per round, so they do not depend on how
    // many rounds fit in the run; times are summed over workers.
    const double rounds = std::max(1u, tt.rounds);
    auto perRound = [&](const std::string &n, double v) {
        f(n, v / rounds);
    };
    perRound("workloads.build_s", layerS["workloads.buildWorkload"]);
    perRound("compiler.compile_s", layerS["compiler.compileWorkload"]);
    perRound("compiler.compiles", double(nCompiles));
    f("compiler.redundant_frac", ratio(nRedundant, nCompiles));
    perRound("passes.checkpointing_s", passS("compile.checkpointing"));
    perRound("passes.checkpoint_pruning_s",
             passS("compile.checkpoint_pruning"));
    perRound("passes.scheduling_s", passS("compile.scheduling_generic") +
                                        passS("compile.scheduling_ckpt"));
    perRound("passes.strength_reduction_s",
             passS("compile.strength_reduction"));
    perRound("machine.interpret_s", layerS["machine.interpretMachine"]);
    perRound("machine.interpret_insts", double(c.interpInsts));
    perRound("sim.simulate_s", simS);
    perRound("sim.runs", double(c.simRuns));
    perRound("sim.cycles", double(c.cycles));
    perRound("sim.insts", double(c.insts));
    f("sim.mips", ratio(double(c.insts) * 1e-6, simS));
    f("sim.mcps", ratio(double(c.cycles) * 1e-6, simS));
    f("sim.prefix_frac", ratio(c.prefixCycles, c.faultedCycles));
    perRound("sim.recoveries", double(c.recoveries));
    perRound("sim.recovery_cycles", double(c.recoveryCycles));
    f("sim.sb_full_stall_frac", ratio(c.sbFull, c.cycles));
    f("sim.data_hazard_stall_frac", ratio(c.dataHazard, c.cycles));
    f("sim.rbb_full_stall_frac", ratio(c.rbbFull, c.cycles));
    f("sim.l1d_miss_rate", ratio(c.l1dMisses, c.l1dHits + c.l1dMisses));
    perRound("ir.hash_s", layerS["ir.dataHash"]);
    perRound("ir.hash_calls", double(c.hashCalls));
    f("avf.masked_frac",
      ratio(c.outcomes[int(FaultOutcome::Masked)], trials));
    f("avf.recovered_frac",
      ratio(c.outcomes[int(FaultOutcome::Recovered)], trials));
    f("avf.sdc_frac", ratio(c.outcomes[int(FaultOutcome::Sdc)], trials));
    f("op.p50_ms", percentile(opMs, 50));
    f("op.tail_pct", tailPct);
    f("op.tail_ms", percentile(opMs, tailPct));
    f("op.tail_n", double(tailN));
    f("parallel.busy_frac", ratio(opTotalS, tt.untracedWall * jobs));
    perRound("rootcause.harmful", double(c.harmful));
    perRound("rootcause.probes", double(c.probes));
    perRound("rootcause.bisect_s", bisectS);
    f("rootcause.ms_per_probe", ratio(bisectS * 1e3, c.probes));
    f("rootcause.bisect_frac", ratio(bisectS, opTotalS));
    f("trace.rounds", double(tt.rounds));
    f("trace.untraced_s", tt.untracedWall);
    f("trace.traced_s", tt.tracedWall);
    f("trace.overhead_frac", ratio(tt.tracedWall, tt.untracedWall) - 1);
    f("trace.fidelity_mismatches", double(tt.fidelityMismatches));
    f("trace.profile_drift_frac", drift.maxFrac);
    std::printf("}}\n");
}

/** Chrome trace-event JSON: one complete event per span. */
void
writeSpans(const LayerTrace &tr, const std::string &path)
{
    FILE *fp = std::fopen(path.c_str(), "w");
    if (!fp)
        fatal("cannot write spans to %s", path.c_str());
    std::fprintf(fp, "{\"traceEvents\":[");
    bool first = true;
    for (size_t w = 0; w < tr.logs().size(); w++)
        for (const Span &s : tr.logs()[w].spans) {
            const char *dot = std::strchr(s.name, '.');
            std::string cat = dot ? std::string(s.name, dot) : s.name;
            std::fprintf(fp,
                         "%s\n{\"name\":\"%s\",\"cat\":\"%s\","
                         "\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                         "\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"pass\":%u,\"op\":%" PRId64 "}}",
                         first ? "" : ",", s.name, cat.c_str(), w + 1,
                         double(s.startNs) * 1e-3,
                         double(s.durNs) * 1e-3, s.pass, s.op);
            first = false;
        }
    std::fprintf(fp, "\n]}\n");
    if (std::fclose(fp) != 0)
        fatal("error writing %s", path.c_str());
}

// -- main -----------------------------------------------------------

/**
 * One untraced public call: announced before it starts, so a crash
 * fails its ops, then its records and its wall time.
 */
std::vector<OpRecord>
untracedCall(const Workload &w, uint32_t round, double &seconds,
             PhaseProfile *profile = nullptr)
{
    size_t ops = opsPerCall(w);
    std::printf("{\"call\":%u,\"seed\":%" PRIu64 ",\"ops\":%zu}\n",
                round, w.campaign.seed, ops);
    std::fflush(stdout);
    Clock::time_point t0 = Clock::now();
    std::vector<OpRecord> recs = publicCall(w, uint32_t(ops), profile);
    seconds = secondsSince(t0);
    for (const OpRecord &r : recs)
        std::printf("{\"op\":\"%s\",\"rec\":%s}\n", r.key.c_str(),
                    fieldsJson(r).c_str());
    std::printf("{\"call_s\":%.9f}\n", seconds);
    std::fflush(stdout);
    return recs;
}

/**
 * One untraced public call, then a traced pass over the same ops that
 * must reproduce its records exactly (the fidelity check).
 */
void
tracedCall(LayerTrace &tr, TraceTotals &tt, const Workload &w,
           uint32_t round)
{
    double s = 0;
    std::vector<OpRecord> recs =
        untracedCall(w, round, s, &tt.untracedProfile);
    tt.untracedWall += s;

    Clock::time_point t0 = Clock::now();
    std::vector<OpRecord> traced = tracedPass(tr, tt.passes, w);
    double ts = secondsSince(t0);
    tt.tracedWall += ts;
    uint64_t mismatches = 0;
    for (size_t i = 0; i < recs.size(); i++)
        if (i >= traced.size() || !(traced[i] == recs[i])) {
            mismatches++;
            std::fprintf(stderr, "fidelity: op %s traced %s, "
                         "untraced %s\n", recs[i].key.c_str(),
                         i < traced.size() ? fieldsJson(traced[i]).c_str()
                                           : "(missing)",
                         fieldsJson(recs[i]).c_str());
        }
    tt.fidelityMismatches += mismatches;
    std::printf("{\"traced_ops\":%zu,\"traced_s\":%.9f,"
                "\"fidelity_mismatches\":%" PRIu64 "}\n",
                recs.size(), ts, mismatches);
    std::fflush(stdout);
    tt.passes++;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: campaign_bench --workload W --mode "
                 "setup|run|trace [--fault-seeds S1,S2,..] "
                 "[--seconds T] [--trace-file F]\n");
    std::exit(2);
}

/** A comma-separated list of unsigned seeds. */
std::vector<uint64_t>
parseSeeds(const std::string &list)
{
    std::vector<uint64_t> seeds;
    for (const char *p = list.c_str(); *p;) {
        char *end = nullptr;
        seeds.push_back(std::strtoull(p, &end, 10));
        if (end == p)
            usage();
        p = *end == ',' ? end + 1 : end;
    }
    return seeds;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, mode, traceFile;
    std::vector<uint64_t> faultSeeds{1};
    double seconds = 10;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string v = argv[++i];
        if (a == "--workload")
            workload = v;
        else if (a == "--mode")
            mode = v;
        else if (a == "--fault-seeds")
            faultSeeds = parseSeeds(v);
        else if (a == "--seconds")
            seconds = std::strtod(v.c_str(), nullptr);
        else if (a == "--trace-file")
            traceFile = v;
        else
            usage();
    }
    if (workload.empty() ||
        (mode != "setup" && mode != "run" && mode != "trace") ||
        (mode == "trace" && traceFile.empty()) || faultSeeds.empty())
        usage();

    std::vector<Workload> round;
    for (uint64_t seed : faultSeeds)
        round.push_back(makeWorkload(workload, seed));
    if (round.front().kind == Kind::Sweep)
        round.resize(1);
    const unsigned jobs = campaignJobs();
    std::printf("{\"stamp\":{\"compiler\":\"%s\",\"build_type\":"
                "\"%s\",\"lto\":%s,\"nproc\":%u,\"jobs\":%u}}\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                PERFBENCH_LTO ? "true" : "false",
                std::thread::hardware_concurrency(), jobs);

    if (mode == "setup") {
        publicCall(round.front(), 0);
        std::printf("{\"ready\":true}\n");
        std::fflush(stdout);
        return 0;
    }

    Clock::time_point t0 = Clock::now();
    if (mode == "run") {
        uint32_t r = 0;
        do {
            for (const Workload &w : round) {
                double s = 0;
                untracedCall(w, r, s);
            }
            r++;
        } while (secondsSince(t0) < seconds);
        return 0;
    }

    LayerTrace tr(jobs);
    TraceTotals tt;
    uint32_t r = 0;
    do {
        for (const Workload &w : round)
            tracedCall(tr, tt, w, r);
        tt.rounds = ++r;
    } while (secondsSince(t0) < seconds);

    ProfileDrift drift = profileDrift(tr, tt);
    printLayerMetrics(tr, tt, drift, jobs);
    writeSpans(tr, traceFile);
    if (drift.checked &&
        (!drift.callsMatch || drift.maxFrac > kMaxProfileDrift)) {
        std::fprintf(stderr, "drift: the traced pass no longer matches "
                     "runCampaign's own profile; update it together "
                     "with core/runner.cc\n");
        return 1;
    }
    return 0;
}
