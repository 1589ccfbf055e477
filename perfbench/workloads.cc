#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>

#include "check/digest.hh"
#include "check/why_reconcile.hh"
#include "metrics.hh"
#include "metrics/json_stats.hh"
#include "obs/why_ledger.hh"
#include "perfbench.hh"
#include "prof/progress.hh"
#include "spec/spec_suite.hh"
#include "splash/splash_suite.hh"
#include "system/uni_system.hh"

namespace perfbench {

using namespace mtsim;

namespace {

/** The paper's workstation run: 600k cycles to warm, 600k measured. */
constexpr Cycle kWarm = 600000;
constexpr Cycle kMeasure = 600000;
/** The paper's DASH-like multiprocessor has 8 nodes. */
constexpr std::uint16_t kProcs = 8;
/** mtsim_run's default digest window. */
constexpr Cycle kDigestWindow = 10000;
constexpr Cycle kSampleInterval = 10000;
/** Ops drained per workstation kernel when timing decode. */
constexpr std::uint64_t kDecodeDrainOps = 200000;

enum class Observe {
    None,    ///< the sweeps: no probe sink at all
    Digest,  ///< a windowed ProbeDigest only
    All,     ///< checker, why ledger, sampler, progress and digest
};

struct Spec
{
    bool mp;
    std::string name;  ///< mix (workstation) or SPLASH application
    Scheme scheme;
    std::uint8_t contexts;

    std::string
    label() const
    {
        return std::string(mp ? "mp/" : "uni/") + name + "/" +
               schemeName(scheme) + "/" + std::to_string(contexts);
    }
};

/** How a multiprocessor run's retired ops are checked against the
 *  drained program. */
enum class Oracle {
    None,
    /** Each thread: issued == program, retired <= program. */
    Issue,
    /** Whole run: retired == program, as a drained run loop gives. */
    Exact,
};

/**
 * MpSystem::run stops at the first 64-cycle boundary after every
 * context has issued its last op, so ops still in flight never
 * retire. Which configurations that hits depends on the seed; these
 * two are hit at seed 1 and run there under the exact oracle every
 * round, so the fault shows as the same two failures on any --seed.
 */
constexpr std::uint64_t kWitnessSeed = 1;
const std::vector<Spec> kEarlyStopWitnesses{
    {true, "pthor", Scheme::Single, 1},
    {true, "barnes", Scheme::Blocked, 2},
};

struct RunResult
{
    std::uint64_t digest = 0;
    std::vector<std::string> problems;
};

/** Figures 6-7: single/1, then blocked and interleaved at 2 and 4. */
const std::vector<std::pair<Scheme, std::uint8_t>> kUniLadder{
    {Scheme::Single, 1},      {Scheme::Blocked, 2},
    {Scheme::Blocked, 4},     {Scheme::Interleaved, 2},
    {Scheme::Interleaved, 4}};

/** Figures 8-10: single/1, then blocked and interleaved at 2, 4, 8. */
const std::vector<std::pair<Scheme, std::uint8_t>> kMpLadder{
    {Scheme::Single, 1},      {Scheme::Blocked, 2},
    {Scheme::Blocked, 4},     {Scheme::Blocked, 8},
    {Scheme::Interleaved, 2}, {Scheme::Interleaved, 4},
    {Scheme::Interleaved, 8}};

/** The seven Table 5 mixes, in paper order (as bench/harness.cc). */
std::vector<std::string>
allMixes()
{
    std::vector<std::string> mixes = uniWorkloadNames();
    mixes.push_back("SP");
    return mixes;
}

std::vector<std::pair<std::string, KernelFn>>
mixKernels(const std::string &mix)
{
    std::vector<std::pair<std::string, KernelFn>> apps;
    if (mix == "SP") {
        for (const std::string &a : spWorkload())
            apps.emplace_back(a, splashUniKernel(a));
    } else {
        for (const std::string &a : uniWorkload(mix))
            apps.emplace_back(a, specKernel(a));
    }
    return apps;
}

Config
configOf(const Spec &s, std::uint64_t seed)
{
    Config cfg = s.mp ? Config::makeMp(s.scheme, s.contexts, kProcs)
                      : Config::make(s.scheme, s.contexts);
    cfg.seed = seed;
    return cfg;
}

std::vector<Processor *>
procsOf(UniSystem &sys)
{
    return {&sys.processor()};
}

std::vector<Processor *>
procsOf(MpSystem &sys)
{
    std::vector<Processor *> procs;
    for (ProcId p = 0; p < sys.config().numProcessors; ++p)
        procs.push_back(&sys.processor(p));
    return procs;
}

CycleBreakdown
breakdownOf(UniSystem &sys)
{
    return sys.breakdown();
}

CycleBreakdown
breakdownOf(MpSystem &sys)
{
    return sys.aggregateBreakdown();
}

/** Progress heartbeats are formatted and then discarded. */
std::ostream &
nullStream()
{
    static std::ostream os(nullptr);
    return os;
}

/** The observers one run attaches; they outlive the system. */
struct Observers
{
    std::optional<WhyLedger> why;
    std::optional<ProbeDigest> digest;
    std::optional<IntervalSampler> sampler;
    std::optional<prof::ProgressMeter> progress;

    /** Attach in mtsim_run's order: checker, ledger, digest,
     *  sampler, progress. */
    template <class System>
    void
    attach(System &sys, const Config &cfg, Observe mode)
    {
        if (mode == Observe::All) {
            CheckConfig cc;
            cc.abortOnViolation = false;
            sys.enableChecking(cc);
            why.emplace(cfg, procsOf(sys));
            sys.attachWhyLedger(&*why);
        }
        digest.emplace(kDigestWindow);
        sys.probes().addSink(&*digest);
        if (mode == Observe::All) {
            sampler.emplace(kSampleInterval);
            sys.setSampler(&*sampler);
            progress.emplace(0.1, nullStream());
            sys.setProgress(&*progress);
        }
    }

    /** The stats-JSON document mtsim_run writes, minus its host
     *  block, built through the library's writers. */
    template <class System>
    std::string
    exportStats(System &sys)
    {
        std::ostringstream out;
        JsonWriter w(out);
        w.beginObject();
        w.kv("retired", sys.retired());
        w.key("breakdown");
        writeBreakdownJson(w, breakdownOf(sys));
        w.key("counters");
        writeCountersJson(w, sys.mem().counters());
        w.key("dmiss_latency");
        writeHistogramJson(w, sys.mem().dmissLatency());
        w.key("samples");
        writeSamplerJson(w, *sampler);
        digest->finishWindows(sys.now());
        w.key("digest");
        w.beginArray();
        for (const DigestWindow &d : digest->windows()) {
            w.beginObject();
            w.kv("index", d.index);
            w.kv("hash", d.hash);
            w.kv("events", d.events);
            w.endObject();
        }
        w.endArray();
        w.endObject();
        return out.str();
    }

    /** Checker and ledger verdicts, and the exported document. */
    template <class System>
    void
    audit(System &sys, SpanLog &sp, std::vector<std::string> &problems)
    {
        const auto &v = sys.checker()->violations();
        if (!v.empty())
            problems.push_back("checker: " + std::to_string(v.size()) +
                               " violations, first " + v[0].str());
        std::vector<Violation> unreconciled;
        sp.time("reconcile",
                [&] { unreconciled = auditWhyReconciliation(*why); });
        if (!unreconciled.empty())
            problems.push_back("why ledger does not reconcile: " +
                               unreconciled[0].str());
        std::string doc;
        sp.time("export", [&] { doc = exportStats(sys); });
        if (doc.find("\"breakdown\"") == std::string::npos)
            problems.push_back("stats export lacks a breakdown");
    }
};

void
countWork(Round &r, const Observers &obs, Cycle simulated,
          Cycle skipped, Cycle batched)
{
    r.simulatedCycles += simulated;
    r.ffCycles += skipped;
    r.batchedCycles += batched;
    if (obs.digest)
        r.probeEvents += obs.digest->events();
}

RunResult
runUni(const Spec &s, std::uint64_t seed, Observe mode, Round &r)
{
    const Config cfg = configOf(s, seed);
    SpanLog &sp = r.spans;
    sp.setConfig(s.label());
    Observers obs;
    std::unique_ptr<UniSystem> sys;
    sp.time("construct", [&] { sys = std::make_unique<UniSystem>(cfg); });
    const auto apps = mixKernels(s.name);
    sp.time("load", [&] {
        for (const auto &[name, kernel] : apps)
            sys->addApp(name, kernel);
    });
    if (mode != Observe::None)
        sp.time("attach", [&] { obs.attach(*sys, cfg, mode); });
    // run(w, 0) then run(0, m) is run(w, m) split in two: the second
    // call's stats clear lands on the cycle the first one's did.
    sp.time("warmup", [&] { sys->run(kWarm, 0); });
    sp.time("run", [&] { sys->run(0, kMeasure); });

    RunResult res;
    std::vector<std::string> &problems = res.problems;
    const std::uint64_t width = cfg.issueWidth;
    const std::uint64_t slots = width * sys->measuredCycles();
    if (sys->breakdown().total() != slots)
        problems.push_back("breakdown total " +
                           std::to_string(sys->breakdown().total()) +
                           " != width x measured cycles " +
                           std::to_string(slots));
    const double ipc = sys->throughput();
    if (!(ipc > 0.0 && ipc <= static_cast<double>(width)))
        problems.push_back("IPC " + std::to_string(ipc) +
                           " outside (0, width]");
    std::uint64_t per_app = 0;
    for (std::size_t a = 0; a < sys->scheduler().numApps(); ++a)
        per_app += sys->retiredForApp(static_cast<std::uint32_t>(a));
    if (per_app != sys->retired())
        problems.push_back("sum of retiredForApp " +
                           std::to_string(per_app) + " != retired " +
                           std::to_string(sys->retired()));
    if (mode == Observe::All)
        obs.audit(*sys, sp, problems);

    r.retiredMeasured += sys->retired();
    countWork(r, obs, sys->now(), sys->fastForwardedCycles(),
              sys->stallBatchedCycles());
    if (obs.digest)
        res.digest = obs.digest->digest();
    sp.time("teardown", [&] { sys.reset(); });
    return res;
}

RunResult
runMp(const Spec &s, std::uint64_t seed, Observe mode, Oracle oracle,
      Round &r)
{
    const Config cfg = configOf(s, seed);
    SpanLog &sp = r.spans;
    sp.setConfig(s.label());
    Observers obs;
    std::unique_ptr<MpSystem> sys;
    sp.time("construct", [&] { sys = std::make_unique<MpSystem>(cfg); });
    // No stats barrier: caches start empty and the whole run is
    // measured, so every program op must retire inside it.
    sp.time("load", [&] { sys->loadApp(splashApp(s.name)); });
    if (mode != Observe::None)
        sp.time("attach", [&] { obs.attach(*sys, cfg, mode); });
    Cycle cycles = 0;
    sp.time("run", [&] { cycles = sys->run(); });

    RunResult res;
    std::vector<std::string> &problems = res.problems;
    if (!sys->finished())
        problems.push_back("application did not finish");
    if (sys->retired() == 0)
        problems.push_back("nothing retired");
    // The end-of-run tail is left unattributed by design, so the MP
    // breakdown is bounded by, not equal to, the slot count.
    const std::uint64_t slots =
        static_cast<std::uint64_t>(cfg.numProcessors) * cfg.issueWidth *
        cycles;
    const std::uint64_t total = sys->aggregateBreakdown().total();
    if (total > slots)
        problems.push_back("breakdown total " + std::to_string(total) +
                           " exceeds P x width x cycles " +
                           std::to_string(slots));
    if (mode == Observe::All)
        obs.audit(*sys, sp, problems);

    r.retiredMeasured += sys->retired();
    countWork(r, obs, sys->now(), sys->fastForwardedCycles(), 0);
    if (obs.digest)
        res.digest = obs.digest->digest();
    const std::uint64_t retired = sys->retired();
    const ThreadTally tally = tallyThreads(*sys);
    sp.time("teardown", [&] { sys.reset(); });

    if (oracle == Oracle::None)
        return res;
    ProgramOps prog;
    sp.time("drain",
            [&] { prog = countProgramOps(cfg, splashApp(s.name)); });
    r.decodedOps += prog.ops;
    r.unretiredOps += prog.ops > retired ? prog.ops - retired : 0;
    const std::string why = oracle == Oracle::Exact
                                ? retireOracle(retired, prog.ops)
                                : issueOracle(tally, prog);
    if (!why.empty())
        problems.push_back(why);
    return res;
}

/** Run one configuration; an exception fails only it. */
RunResult
runGuarded(const Spec &s, std::uint64_t seed, Observe mode, Oracle oracle,
           Round &r)
{
    try {
        return s.mp ? runMp(s, seed, mode, oracle, r)
                    : runUni(s, seed, mode, r);
    } catch (const std::exception &e) {
        RunResult failed;
        failed.problems.push_back(std::string("exception: ") + e.what());
        return failed;
    }
}

// A configuration reports back to the benchmark process as lines of
// "<tag> <fields>" over a pipe: its spans, work counts, profiler
// scopes, digest and failed checks.

std::string
encodeChild(const RunResult &res, const Round &r)
{
    std::ostringstream out;
    for (const SpanLog::Span &sp : r.spans.spans())
        out << "span " << sp.name << ' ' << sp.config << ' ' << sp.startNs
            << ' ' << sp.endNs << ' ' << sp.cpuNs << '\n';
    out << "counts " << r.retiredMeasured << ' ' << r.simulatedCycles
        << ' ' << r.ffCycles << ' ' << r.batchedCycles << ' '
        << r.probeEvents << ' ' << r.decodedOps << ' ' << r.unretiredOps
        << '\n';
    for (const auto &[name, t] : r.scopes)
        out << "scope " << name << ' ' << t.calls << ' ' << std::hexfloat
            << t.seconds << std::defaultfloat << '\n';
    out << "digest " << res.digest << '\n';
    for (const std::string &p : res.problems)
        out << "problem " << p << '\n';
    return out.str();
}

void
decodeChild(const std::string &msg, RunResult &res, Round &r)
{
    std::istringstream in(msg);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream f(line);
        std::string tag;
        f >> tag;
        if (tag == "span") {
            SpanLog::Span sp;
            f >> sp.name >> sp.config >> sp.startNs >> sp.endNs >> sp.cpuNs;
            r.spans.add(std::move(sp));
        } else if (tag == "counts") {
            std::uint64_t v[7] = {};
            for (std::uint64_t &x : v)
                f >> x;
            r.retiredMeasured += v[0];
            r.simulatedCycles += v[1];
            r.ffCycles += v[2];
            r.batchedCycles += v[3];
            r.probeEvents += v[4];
            r.decodedOps += v[5];
            r.unretiredOps += v[6];
        } else if (tag == "scope") {
            std::string name;
            std::uint64_t calls = 0;
            std::string secs;
            f >> name >> calls >> secs;
            ScopeTotal &t = r.scopes[name];
            t.calls += calls;
            t.seconds += std::strtod(secs.c_str(), nullptr);
        } else if (tag == "digest") {
            f >> res.digest;
        } else if (tag == "problem") {
            res.problems.push_back(line.substr(8));
        }
    }
}

/**
 * One configuration as one operation, in a process of its own, as a
 * one-shot mtsim_run is: it starts from a fresh heap, and its peak
 * resident set is its own. The host probe runs first, in this process.
 */
RunResult
runSpec(const Spec &s, std::uint64_t seed, Observe mode, Oracle oracle,
        Round &r)
{
    r.spans.setConfig(s.label());
    r.spans.time("probe", [] {
        volatile std::uint32_t sink = hostProbe();
        (void)sink;
    });
    ++r.probes;

    RunResult res;
    int fds[2];
    if (pipe(fds) != 0) {
        res.problems.push_back("pipe failed");
        return res;
    }
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        Round child;
        if (prof::Profiler::enabled())
            prof::Profiler::instance().reset();
        const RunResult out = runGuarded(s, seed, mode, oracle, child);
        if (prof::Profiler::enabled())
            child.scopes = scopeTotals(prof::Profiler::instance().root());
        const std::string msg = encodeChild(out, child);
        std::size_t done = 0;
        while (done < msg.size()) {
            const ssize_t n =
                write(fds[1], msg.data() + done, msg.size() - done);
            if (n <= 0)
                _exit(1);
            done += static_cast<std::size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);
    if (pid < 0) {
        close(fds[0]);
        res.problems.push_back("fork failed");
        return res;
    }
    std::string msg;
    char buf[4096];
    for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) != 0;) {
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            break;
        msg.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        res.problems.push_back("configuration process ended with status " +
                               std::to_string(status));
        return res;
    }
    decodeChild(msg, res, r);
    r.peakRssMb.push_back(static_cast<double>(ru.ru_maxrss) / 1024.0);
    return res;
}

/** Time the front end's decode of every workstation kernel in
 *  @p mixes from outside, a bounded prefix each. */
void
timeDecode(const std::vector<std::string> &mixes, std::uint64_t seed,
           Round &r)
{
    Config cfg = Config::make(Scheme::Single, 1);
    cfg.seed = seed;
    for (const std::string &mix : mixes) {
        r.spans.setConfig("uni/" + mix + "/decode");
        const auto apps = mixKernels(mix);
        for (std::uint32_t a = 0; a < apps.size(); ++a) {
            r.spans.time("drain", [&] {
                r.decodedOps += drainUniKernel(cfg, apps[a].second, a,
                                               kDecodeDrainOps)
                                    .ops;
            });
        }
    }
}

void
workstationRound(std::uint64_t seed, bool time_decode, Round &r)
{
    for (const std::string &mix : allMixes()) {
        for (const auto &[scheme, ctx] : kUniLadder) {
            const Spec s{false, mix, scheme, ctx};
            r.record(s.label(), runSpec(s, seed, Observe::None,
                                        Oracle::None, r)
                                    .problems);
        }
    }
    if (time_decode)
        timeDecode(allMixes(), seed, r);
}

void
multiprocessorRound(std::uint64_t seed, Round &r)
{
    for (const std::string &app : splashApps()) {
        for (const auto &[scheme, ctx] : kMpLadder) {
            const Spec s{true, app, scheme, ctx};
            r.record(s.label(), runSpec(s, seed, Observe::None,
                                        Oracle::Issue, r)
                                    .problems);
        }
    }
    for (const Spec &s : kEarlyStopWitnesses) {
        r.record(s.label() + "/seed" + std::to_string(kWitnessSeed),
                 runSpec(s, kWitnessSeed, Observe::None, Oracle::Exact, r)
                     .problems);
    }
}

/**
 * Each configuration runs with the digest alone and then with every
 * observer; the two digests must agree (the observers are passive).
 * The first configuration's digest-only run is repeated
 * (determinism), and the interleaved/1 run must match single/1.
 */
void
observedRound(std::uint64_t seed, bool time_decode, Round &r)
{
    const std::vector<Spec> specs{
        {false, "R0", Scheme::Interleaved, 4},
        {false, "DC", Scheme::Blocked, 4},
        {true, "water", Scheme::Interleaved, 4},
        {true, "ocean", Scheme::Blocked, 4},
        {false, "DC", Scheme::Single, 1},
        {false, "DC", Scheme::Interleaved, 1},
    };
    const std::size_t single1 = 4;
    const std::size_t inter1 = 5;
    std::vector<std::uint64_t> digests(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const Spec &s = specs[i];
        RunResult bare = runSpec(s, seed, Observe::Digest, Oracle::None, r);
        digests[i] = bare.digest;
        if (i == inter1 && bare.digest != digests[single1])
            bare.problems.push_back(
                "interleaved/1 digest differs from single/1");
        r.record(s.label() + "/digest", bare.problems);

        RunResult all = runSpec(s, seed, Observe::All, Oracle::None, r);
        if (all.digest != bare.digest)
            all.problems.push_back(
                "digest changes when every observer is attached");
        r.record(s.label() + "/observed", all.problems);
    }
    RunResult again =
        runSpec(specs[0], seed, Observe::Digest, Oracle::None, r);
    if (again.digest != digests[0])
        again.problems.push_back("a second digest-only run differs");
    r.record(specs[0].label() + "/rerun", again.problems);

    if (time_decode) {
        timeDecode({"R0", "DC"}, seed, r);
        for (const Spec &s : specs) {
            if (!s.mp)
                continue;
            r.spans.setConfig(s.label() + "/decode");
            r.spans.time("drain", [&] {
                r.decodedOps +=
                    countProgramOps(configOf(s, seed), splashApp(s.name))
                        .ops;
            });
        }
    }
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "workstation", "multiprocessor", "observed"};
    return names;
}

void
runRound(const std::string &workload, std::uint64_t seed,
         bool time_decode, Round &r)
{
    if (workload == "workstation")
        workstationRound(seed, time_decode, r);
    else if (workload == "multiprocessor")
        multiprocessorRound(seed, r);
    else
        observedRound(seed, time_decode, r);
}

} // namespace perfbench
