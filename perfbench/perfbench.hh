/**
 * @file
 * The mtsim end-to-end and per-layer benchmark. Three workloads drive
 * the library through its public calls (Config::make/makeMp,
 * UniSystem/MpSystem construction, addApp/loadApp, run), one
 * configuration after another, each in a process of its own, with no
 * decoded-program cache. Every call into the simulator is wrapped in a
 * span recorded here, in the benchmark's own code; the per-layer host
 * costs come from the simulator's existing prof::Profiler tree.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/config.hh"
#include "system/mp_system.hh"

namespace perfbench {

/** Monotonic host clock in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPU time of the calling thread in nanoseconds. */
inline std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

/**
 * Spans recorded around each public call the benchmark makes. A span
 * belongs to the configuration (its parent) that was current when it
 * was opened; per-name wall and thread-CPU totals feed the metrics.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string config;
        std::uint64_t startNs;
        std::uint64_t endNs;
        std::uint64_t cpuNs;  ///< thread CPU time inside the span
    };

    /** Make @p config the parent of the spans that follow. */
    void setConfig(std::string config) { config_ = std::move(config); }

    /** Run @p f inside a span named @p name. */
    template <class F>
    void
    time(const char *name, F &&f)
    {
        const std::uint64_t cpu = threadCpuNs();
        const std::uint64_t start = nowNs();
        f();
        const std::uint64_t end = nowNs();
        add({name, config_, start, end, threadCpuNs() - cpu});
    }

    /** Record a span measured elsewhere (in a configuration's own
     *  process). */
    void
    add(Span span)
    {
        totals_[span.name] +=
            static_cast<double>(span.endNs - span.startNs) * 1e-9;
        cpuTotals_[span.name] += static_cast<double>(span.cpuNs) * 1e-9;
        spans_.push_back(std::move(span));
    }

    /** Seconds spent in spans named @p name (0 when none). */
    double
    total(const std::string &name) const
    {
        auto it = totals_.find(name);
        return it == totals_.end() ? 0.0 : it->second;
    }

    /** Thread CPU seconds spent in spans named @p name. */
    double
    cpuTotal(const std::string &name) const
    {
        auto it = cpuTotals_.find(name);
        return it == cpuTotals_.end() ? 0.0 : it->second;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::string config_;
    std::vector<Span> spans_;
    std::map<std::string, double> totals_;
    std::map<std::string, double> cpuTotals_;
};

// ---- host measurements --------------------------------------------------

/**
 * A fixed CPU-bound computation, random read-modify-writes over a
 * 2 MiB table with data-dependent branches, that stands for the
 * host's speed at the moment. The benchmark runs it before every
 * configuration: on a host shared with other machines the CPU time of
 * identical work drifts by 10-25% over minutes, and the probe's time
 * drifts with it, so time scaled by the probe stays steady.
 */
std::uint32_t hostProbe();

constexpr std::uint32_t kProbeIterations = 4000000;

/** The probe's CPU time on the reference host (see README.md);
 *  scaled times read as CPU seconds on that host. */
constexpr double kProbeRefSeconds = 0.05;

/**
 * Spans that are the simulator's own work, as a user of mtsim_run
 * pays it. Their sum is a round's time; the first four are its
 * set-up. The oracle's drain is the benchmark's check and is left out.
 */
inline const std::vector<std::string> &
setupSpans()
{
    static const std::vector<std::string> s{"construct", "load",
                                            "attach", "warmup"};
    return s;
}

inline const std::vector<std::string> &
workSpans()
{
    static const std::vector<std::string> s{
        "construct", "load",      "attach", "warmup",
        "run",       "reconcile", "export", "teardown"};
    return s;
}

/** Self time and calls of one profiler scope, summed by name. */
struct ScopeTotal
{
    double seconds = 0.0;
    std::uint64_t calls = 0;
};

/** Everything one round of a workload measured and checked. */
struct Round
{
    SpanLog spans;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** "config: reason" for every failed operation. */
    std::vector<std::string> failures;

    /** Peak resident set of each configuration's process. */
    std::vector<double> peakRssMb;
    /** prof::Profiler scopes of the configurations' processes. */
    std::map<std::string, ScopeTotal> scopes;
    /** Host probes run, one per configuration ("probe" spans). */
    std::uint64_t probes = 0;

    /** Instructions retired inside the measured run() calls. */
    std::uint64_t retiredMeasured = 0;

    // Deterministic work counts.
    std::uint64_t simulatedCycles = 0;
    std::uint64_t ffCycles = 0;
    std::uint64_t batchedCycles = 0;
    std::uint64_t probeEvents = 0;
    std::uint64_t decodedOps = 0;
    /** Program ops an MP run left unretired when it stopped. */
    std::uint64_t unretiredOps = 0;

    /** Record one operation and its failed checks (none = pass). */
    void
    record(const std::string &config,
           const std::vector<std::string> &problems)
    {
        ++attempted;
        if (problems.empty())
            return;
        ++failed;
        std::string line = config + ":";
        for (const std::string &p : problems)
            line += " " + p + ";";
        failures.push_back(line);
    }
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Run one whole round of @p workload with every configuration's
 * Config::seed set to @p seed. When @p time_decode is set, the
 * workstation and observed rounds also time a front-end drain of
 * their kernels (the multiprocessor oracle drains in every round).
 */
void runRound(const std::string &workload, std::uint64_t seed,
              bool time_decode, Round &r);

// ---- retire-count oracle ---------------------------------------------

/** Program ops per thread. */
struct ProgramOps
{
    std::vector<std::uint64_t> perThread;
    std::uint64_t ops = 0;  ///< sum over threads
};

/**
 * Drain every thread's kernel of @p app, as MpSystem::loadApp would
 * build it under @p cfg, through the front end's decode interface
 * (ThreadSource::drainTo) with no timing model, and count the ops.
 */
ProgramOps countProgramOps(const mtsim::Config &cfg,
                           const mtsim::ParallelAppFn &app);

/** Empty when @p retired equals @p program_ops, else the reason. */
std::string retireOracle(std::uint64_t retired,
                         std::uint64_t program_ops);

/** Per-thread counts one finished MP run left in its contexts. */
struct ThreadTally
{
    std::vector<std::uint64_t> retired;
    /** Ops the thread issued: its next issue sequence number. */
    std::vector<std::uint64_t> issued;
};

/** Read the tally of thread t = context t / P of processor t % P,
 *  the placement MpSystem::loadApp uses. */
ThreadTally tallyThreads(mtsim::MpSystem &sys);

/**
 * Empty when every thread issued exactly its program's ops and
 * retired none of them twice: issued == program and retired <=
 * program, thread by thread. This is the part of the retire oracle
 * that holds on every seed while MpSystem::run may stop with ops in
 * flight; retireOracle() is the whole of it.
 */
std::string issueOracle(const ThreadTally &tally,
                        const ProgramOps &prog);

/**
 * Drain up to @p max_ops of one workstation kernel the way
 * UniSystem::addApp would seed it as application @p app_index.
 */
ProgramOps drainUniKernel(const mtsim::Config &cfg,
                          const mtsim::KernelFn &kernel,
                          std::uint32_t app_index,
                          std::uint64_t max_ops);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
