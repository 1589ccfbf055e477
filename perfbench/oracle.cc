#include <vector>

#include "perfbench.hh"
#include "prof/profiler.hh"
#include "workload/emitter.hh"

namespace perfbench {

using namespace mtsim;

namespace {

// The thread and application layouts below mirror MpSystem::loadApp
// and UniSystem::addApp (system/mp_system.cc, system/uni_system.cc).
// Kernels emit the same op count at any base, but the shared
// segment's bump allocations and the per-thread seeds must match so
// the drained program is the one the system fetches.

Addr
codeBase(std::uint32_t index)
{
    return ((static_cast<Addr>(index) + 1) << 32) +
           static_cast<Addr>(index) * 0x7000;
}

Addr
dataBase(std::uint32_t index)
{
    return codeBase(index) + 0x10000000ull +
           static_cast<Addr>(index) * 0x13000;
}

constexpr Addr kSharedBase = 0x4000000000ull;

/** Ops per drainTo burst; the buffer is reused, so memory stays flat
 *  however long the program is. */
constexpr std::size_t kBurst = 4096;

/** The drains are timed from outside, by the caller's span: keep
 *  them out of the profiler's front-end scopes in a traced round. */
class ProfilerPause
{
  public:
    ProfilerPause() : was_(prof::Profiler::enabled())
    {
        prof::Profiler::instance().enable(false);
    }
    ~ProfilerPause() { prof::Profiler::instance().enable(was_); }
    ProfilerPause(const ProfilerPause &) = delete;
    ProfilerPause &operator=(const ProfilerPause &) = delete;

  private:
    bool was_;
};

std::uint64_t
drain(ThreadSource &src, std::uint64_t max_ops)
{
    std::vector<MicroOp> buf;
    buf.reserve(2 * kBurst);
    std::uint64_t n = 0;
    while (n < max_ops) {
        buf.clear();
        const bool more = src.drainTo(buf, kBurst);
        n += buf.size();
        if (!more)
            break;
    }
    return n;
}

} // namespace

ProgramOps
countProgramOps(const Config &cfg, const ParallelAppFn &app)
{
    ProfilerPause pause;
    const std::uint32_t n = static_cast<std::uint32_t>(
        cfg.numProcessors * cfg.numContexts);
    AddressSpace shared(kSharedBase);
    std::vector<KernelFn> kernels = app(n, shared, cfg.seed);
    ProgramOps r;
    for (std::uint32_t t = 0; t < n; ++t) {
        ThreadSource src(codeBase(t), dataBase(t),
                         cfg.seed + 577 * (t + 1), kernels[t]);
        r.perThread.push_back(drain(src, ~std::uint64_t(0)));
        r.ops += r.perThread.back();
    }
    return r;
}

std::string
retireOracle(std::uint64_t retired, std::uint64_t program_ops)
{
    if (retired == program_ops)
        return {};
    return "retired " + std::to_string(retired) + " of " +
           std::to_string(program_ops) + " program ops";
}

ThreadTally
tallyThreads(MpSystem &sys)
{
    const std::uint32_t procs = sys.config().numProcessors;
    ThreadTally tally;
    for (std::uint32_t t = 0; t < sys.numThreads(); ++t) {
        const ThreadContext &ctx =
            sys.processor(static_cast<ProcId>(t % procs))
                .context(static_cast<CtxId>(t / procs));
        tally.retired.push_back(ctx.retired());
        tally.issued.push_back(ctx.nextIssueSeq());
    }
    return tally;
}

std::string
issueOracle(const ThreadTally &tally, const ProgramOps &prog)
{
    if (tally.issued.size() != prog.perThread.size())
        return "thread count " + std::to_string(tally.issued.size()) +
               " != drained programs " +
               std::to_string(prog.perThread.size());
    for (std::size_t t = 0; t < prog.perThread.size(); ++t) {
        const std::uint64_t want = prog.perThread[t];
        if (tally.issued[t] != want || tally.retired[t] > want)
            return "thread " + std::to_string(t) + " issued " +
                   std::to_string(tally.issued[t]) + " and retired " +
                   std::to_string(tally.retired[t]) + " of " +
                   std::to_string(want) + " program ops";
    }
    return {};
}

ProgramOps
drainUniKernel(const Config &cfg, const KernelFn &kernel,
               std::uint32_t app_index, std::uint64_t max_ops)
{
    ProfilerPause pause;
    ThreadSource src(codeBase(app_index), dataBase(app_index),
                     cfg.seed + 101 * (app_index + 1), kernel);
    ProgramOps r;
    r.ops = drain(src, max_ops);
    r.perThread = {r.ops};
    return r;
}

} // namespace perfbench
