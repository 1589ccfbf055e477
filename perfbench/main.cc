/**
 * @file
 * perfbench: run one workload of the mtsim benchmark and print its
 * metrics. See README.md in this directory.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE]
 *
 * Untraced (--trace 0), whole rounds of the workload run until S
 * seconds have passed (at least one) and the end-to-end metrics are
 * medians over the rounds. Traced (--trace 1), one untraced round is
 * followed by one round under prof::Profiler; the per-layer metrics
 * come from the traced round, and their ratio is the tracing overhead.
 * The last line of standard output is the JSON result.
 */


#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "metrics.hh"
#include "perfbench.hh"
#include "prof/profiler.hh"

namespace {

using namespace perfbench;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
};

void
usage()
{
    std::cerr << "usage: perfbench --workload {workstation|"
                 "multiprocessor|observed} --seed N --seconds S "
                 "--trace {0|1} [--spans-out FILE]\n";
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument(a + " needs a value");
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            o.seed = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = std::stod(v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--spans-out") {
            o.spansOut = v;
        } else {
            throw std::invalid_argument("unknown flag " + a);
        }
    }
    if (!have_workload)
        throw std::invalid_argument("--workload is required");
    bool known = false;
    for (const std::string &w : workloadNames())
        known = known || w == o.workload;
    if (!known)
        throw std::invalid_argument("unknown workload " + o.workload);
    if (!(o.seconds > 0.0))
        throw std::invalid_argument("--seconds must be positive");
    return o;
}

/** Deterministic outcomes two rounds of one workload must share. */
bool
sameWork(const Round &a, const Round &b)
{
    return a.attempted == b.attempted && a.failed == b.failed &&
           a.failures == b.failures &&
           a.retiredMeasured == b.retiredMeasured &&
           a.simulatedCycles == b.simulatedCycles &&
           a.ffCycles == b.ffCycles &&
           a.batchedCycles == b.batchedCycles &&
           a.probeEvents == b.probeEvents &&
           a.unretiredOps == b.unretiredOps;
}

void
writeSpans(const std::string &path, const std::vector<Round> &rounds)
{
    std::ofstream out(path);
    out << "[\n";
    bool first = true;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        for (const SpanLog::Span &s : rounds[i].spans.spans()) {
            out << (first ? "" : ",\n") << "{\"round\": " << i
                << ", \"config\": \"" << s.config << "\", \"name\": \""
                << s.name << "\", \"start_ns\": " << s.startNs
                << ", \"end_ns\": " << s.endNs << "}";
            first = false;
        }
    }
    out << "\n]\n";
    if (!out)
        std::cerr << "perfbench: cannot write " << path << '\n';
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    try {
        o = parse(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        usage();
        return 2;
    }
    std::vector<Round> rounds;
    Metrics metrics;
    if (!o.trace) {
        const std::uint64_t start = nowNs();
        do {
            rounds.emplace_back();
            runRound(o.workload, o.seed, false, rounds.back());
        } while (static_cast<double>(nowNs() - start) * 1e-9 <
                 o.seconds);
        metrics = endToEnd(rounds);
    } else {
        rounds.emplace_back();
        runRound(o.workload, o.seed, false, rounds.back());
        auto &profiler = mtsim::prof::Profiler::instance();
        profiler.enable(true);
        rounds.emplace_back();
        runRound(o.workload, o.seed, true, rounds.back());
        profiler.enable(false);
        metrics = perLayer(rounds[0], rounds[1]);
    }

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const Round &r : rounds) {
        correct = correct && sameWork(r, rounds.front());
        attempted += r.attempted;
        failed += r.failed;
    }

    std::cout << "perfbench " << o.workload << " seed " << o.seed
              << (o.trace ? " traced" : "") << ": " << rounds.size()
              << " round(s), " << attempted << " operations, " << failed
              << " failed"
              << (correct ? "" : ", rounds disagree on deterministic work")
              << '\n';
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        std::cout << "  round " << i << ": wall "
                  << spanSeconds(rounds[i], workSpans(), false)
                  << " s, cpu " << spanSeconds(rounds[i], workSpans(), true)
                  << " s, host scale " << hostScale(rounds[i]) << '\n';
    }
    for (const std::string &f : rounds.front().failures)
        std::cout << "  FAILED " << f << '\n';
    for (const MetricSpec &m : metricCatalog()) {
        if (m.endToEnd == o.trace)
            continue;
        std::cout << "  " << m.name << ' ' << metrics[m.name] << ' '
                  << m.unit << '\n';
    }
    if (!o.spansOut.empty())
        writeSpans(o.spansOut, rounds);
    std::cout << resultJson(correct, attempted, failed, metrics,
                            !o.trace)
              << std::endl;
    return 0;
}
