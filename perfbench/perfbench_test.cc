#include <gtest/gtest.h>

#include <regex>
#include <set>

#include "check/digest.hh"
#include "metrics.hh"
#include "perfbench.hh"
#include "spec/spec_suite.hh"
#include "splash/splash_suite.hh"
#include "system/mp_system.hh"
#include "system/uni_system.hh"
#include "workload/emitter.hh"

namespace {

using namespace perfbench;
using namespace mtsim;

/** A two-thread application of exactly kOps integer ops per thread. */
constexpr std::uint32_t kOps = 3000;

ParallelAppFn
fixedLengthApp()
{
    return [](std::uint32_t n, AddressSpace &, std::uint64_t) {
        std::vector<KernelFn> kernels;
        for (std::uint32_t t = 0; t < n; ++t) {
            kernels.push_back([](Emitter &e) -> KernelCoro {
                for (std::uint32_t i = 0; i < kOps; ++i) {
                    e.iop();
                    if (i % 64 == 63)
                        co_await e.pause();
                }
            });
        }
        return kernels;
    };
}

TEST(RetireOracle, CountsEveryProgramOp)
{
    Config cfg = Config::makeMp(Scheme::Interleaved, 1, 2);
    const ProgramOps prog = countProgramOps(cfg, fixedLengthApp());
    EXPECT_EQ(prog.ops, 2u * kOps);
    EXPECT_TRUE(retireOracle(prog.ops, 2u * kOps).empty());
}

TEST(RetireOracle, FlagsAWrongProgramLength)
{
    Config cfg = Config::makeMp(Scheme::Single, 1, 8);
    cfg.seed = 7;
    MpSystem sys(cfg);
    sys.loadApp(splashApp("water"));
    sys.run();
    ASSERT_TRUE(sys.finished());
    const ThreadTally tally = tallyThreads(sys);
    ProgramOps prog = countProgramOps(cfg, splashApp("water"));
    ASSERT_EQ(prog.perThread.size(), 8u);
    EXPECT_EQ(issueOracle(tally, prog), "");
    // One op more or less in one thread's program must be flagged.
    prog.perThread[3] += 1;
    EXPECT_NE(issueOracle(tally, prog), "");
    prog.perThread[3] -= 2;
    EXPECT_NE(issueOracle(tally, prog), "");
    prog.perThread.pop_back();
    EXPECT_NE(issueOracle(tally, prog), "");

    EXPECT_EQ(retireOracle(prog.ops, prog.ops), "");
    EXPECT_NE(retireOracle(prog.ops, prog.ops + 1), "");
    EXPECT_NE(retireOracle(prog.ops + 1, prog.ops), "");
}

/** Digest, retired count and breakdown of one DC/interleaved/2 run. */
struct UniOutcome
{
    std::uint64_t digest;
    std::uint64_t retired;
    Cycle busy;
    Cycle total;

    bool operator==(const UniOutcome &) const = default;
};

UniOutcome
runDc(bool split)
{
    Config cfg = Config::make(Scheme::Interleaved, 2);
    cfg.seed = 3;
    UniSystem sys(cfg);
    for (const std::string &app : uniWorkload("DC"))
        sys.addApp(app, specKernel(app));
    ProbeDigest digest(10000);
    sys.probes().addSink(&digest);
    if (split) {
        sys.run(30000, 0);
        sys.run(0, 30000);
    } else {
        sys.run(30000, 30000);
    }
    return {digest.digest(), sys.retired(),
            sys.breakdown().get(CycleClass::Busy), sys.breakdown().total()};
}

TEST(Workstation, SplitWarmupAndRunMatchOneCall)
{
    // The benchmark times warm-up and the measured run as two calls.
    EXPECT_EQ(runDc(true), runDc(false));
}

TEST(Metrics, NamesAreWellFormedAndUnique)
{
    const std::regex well_formed("[A-Za-z0-9_.-]+");
    std::set<std::string> seen;
    for (const MetricSpec &m : metricCatalog()) {
        EXPECT_TRUE(std::regex_match(m.name, well_formed)) << m.name;
        EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
    }
}

TEST(Metrics, EveryLayerMetricIsComputed)
{
    Round r;
    const Metrics m = perLayer(r, r);
    const Metrics e = endToEnd({r});
    for (const MetricSpec &spec : metricCatalog()) {
        const Metrics &which = spec.endToEnd ? e : m;
        EXPECT_EQ(which.count(spec.name), 1u) << spec.name;
    }
    EXPECT_EQ(m.size() + e.size(), metricCatalog().size());
}

} // namespace
