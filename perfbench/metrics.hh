/**
 * @file
 * Turning rounds into the benchmark's named metrics: end-to-end ones
 * from untraced rounds, per-layer ones from one traced round and the
 * prof::Profiler cost tree, and the one-line JSON result.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "prof/profiler.hh"

namespace perfbench {

struct MetricSpec
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

/** Every metric the benchmark reports, end-to-end ones first. */
const std::vector<MetricSpec> &metricCatalog();

/** Metric name -> value; the unit comes from metricCatalog(). */
using Metrics = std::map<std::string, double>;

/** Summed seconds of the spans named in @p names: host CPU time of
 *  the benchmark's thread when @p cpu, else wall time. */
double spanSeconds(const Round &r, const std::vector<std::string> &names,
                   bool cpu);

/** Factor scaling @p r's CPU times to the reference host: the
 *  probes' reference time over their measured CPU time. */
double hostScale(const Round &r);

/** The simulator's CPU seconds in @p r, scaled by hostScale(). */
double scaledWorkSeconds(const Round &r);

/** cpu_s, setup_s and sim_kips (scaled, median over @p rounds) and
 *  peak_rss_mb (the largest configuration's peak). */
Metrics endToEnd(const std::vector<Round> &rounds);

/** Self time and calls of every profiler scope, summed by name over
 *  every place it appears in the tree under @p root. */
std::map<std::string, ScopeTotal>
scopeTotals(const mtsim::prof::ProfNode &root);

/** Per-layer metrics of the @p traced round; @p bare is the
 *  untraced round run just before it. */
Metrics perLayer(const Round &bare, const Round &traced);

/** The result line: end-to-end or per-layer catalog entries only. */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const Metrics &metrics,
                       bool end_to_end);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
