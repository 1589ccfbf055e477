#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The largest configuration's peak resident set over @p rounds. */
double
peakOf(const std::vector<Round> &rounds)
{
    double peak = 0.0;
    for (const Round &r : rounds) {
        for (double mb : r.peakRssMb)
            peak = std::max(peak, mb);
    }
    return peak;
}

} // namespace

const std::vector<MetricSpec> &
metricCatalog()
{
    static const std::vector<MetricSpec> catalog{
        // End to end, measured untraced: thread CPU time scaled by
        // the host probe, and the largest configuration's peak RSS.
        {"cpu_s", "s", true},
        {"setup_s", "s", true},
        {"sim_kips", "kinst/s", true},
        {"peak_rss_mb", "MB", true},
        // Spans around the benchmark's own calls.
        {"system.construct_s", "s", false},
        {"workload.load_s", "s", false},
        {"system.warmup_s", "s", false},
        {"system.run_s", "s", false},
        {"system.teardown_s", "s", false},
        {"check.reconcile_s", "s", false},
        {"metrics.export_s", "s", false},
        {"workload.decode_mops", "Mops/s", false},
        // Deterministic work counts.
        {"system.ff_cycles", "cycles", false},
        {"system.batched_cycles", "cycles", false},
        {"system.stepped_cycles", "cycles", false},
        {"obs.probe_events", "count", false},
        {"system.unretired_ops", "count", false},
        // prof::Profiler scopes: self time and calls.
        {"system.fastforward_s", "s", false},
        {"system.fastforward_calls", "count", false},
        {"core.pipeline_s", "s", false},
        {"core.pipeline_calls", "count", false},
        {"workload.frontend_s", "s", false},
        {"workload.frontend_calls", "count", false},
        {"cache.icache_s", "s", false},
        {"cache.dcache_s", "s", false},
        {"cache.write_buffer_s", "s", false},
        {"cache.mshr_s", "s", false},
        {"mem.tick_s", "s", false},
        {"mem.events_s", "s", false},
        {"mem.bus_s", "s", false},
        {"coherence.directory_s", "s", false},
        {"coherence.directory_calls", "count", false},
        {"sync.sync_s", "s", false},
        {"sync.sync_calls", "count", false},
        {"os.os_s", "s", false},
        {"os.os_calls", "count", false},
        {"obs.probe_s", "s", false},
        {"obs.why_s", "s", false},
        {"check.checker_s", "s", false},
        {"prof.overhead_ratio", "ratio", false},
        // The untraced round as measured, and the host's speed.
        {"host.wall_s", "s", false},
        {"host.cpu_s", "s", false},
        {"host.probe_ms", "ms", false},
    };
    return catalog;
}

double
spanSeconds(const Round &r, const std::vector<std::string> &names,
            bool cpu)
{
    double s = 0.0;
    for (const std::string &name : names)
        s += cpu ? r.spans.cpuTotal(name) : r.spans.total(name);
    return s;
}

double
hostScale(const Round &r)
{
    const double probe = r.spans.cpuTotal("probe");
    return probe > 0.0 ? static_cast<double>(r.probes) * kProbeRefSeconds /
                             probe
                       : 1.0;
}

double
scaledWorkSeconds(const Round &r)
{
    return spanSeconds(r, workSpans(), true) * hostScale(r);
}

Metrics
endToEnd(const std::vector<Round> &rounds)
{
    std::vector<double> cpu;
    std::vector<double> setup;
    std::vector<double> kips;
    for (const Round &r : rounds) {
        const double scale = hostScale(r);
        cpu.push_back(scaledWorkSeconds(r));
        setup.push_back(spanSeconds(r, setupSpans(), true) * scale);
        const double run = r.spans.cpuTotal("run") * scale;
        kips.push_back(run > 0.0 ? static_cast<double>(r.retiredMeasured) /
                                       run / 1e3
                                 : 0.0);
    }
    return {{"cpu_s", median(cpu)},
            {"setup_s", median(setup)},
            {"sim_kips", median(kips)},
            {"peak_rss_mb", peakOf(rounds)}};
}

std::map<std::string, ScopeTotal>
scopeTotals(const mtsim::prof::ProfNode &root)
{
    std::map<std::string, ScopeTotal> totals;
    std::vector<const mtsim::prof::ProfNode *> stack{&root};
    while (!stack.empty()) {
        const mtsim::prof::ProfNode *n = stack.back();
        stack.pop_back();
        if (n != &root) {
            ScopeTotal &t = totals[n->name];
            t.seconds += static_cast<double>(n->selfNs()) * 1e-9;
            t.calls += n->calls;
        }
        for (const auto &c : n->children)
            stack.push_back(c.get());
    }
    return totals;
}

Metrics
perLayer(const Round &bare, const Round &traced)
{
    const std::map<std::string, ScopeTotal> &scopes = traced.scopes;
    auto scope = [&](const char *name) {
        auto it = scopes.find(name);
        return it == scopes.end() ? ScopeTotal{} : it->second;
    };
    auto secs = [&](const char *name) { return scope(name).seconds; };
    auto calls = [&](const char *name) {
        return static_cast<double>(scope(name).calls);
    };
    const SpanLog &sp = traced.spans;
    const double drain = sp.total("drain");
    const std::uint64_t stepped = traced.simulatedCycles -
                                  traced.ffCycles - traced.batchedCycles;
    return {
        {"system.construct_s", sp.total("construct")},
        {"workload.load_s", sp.total("load")},
        {"system.warmup_s", sp.total("warmup")},
        {"system.run_s", sp.total("run")},
        {"system.teardown_s", sp.total("teardown")},
        {"check.reconcile_s", sp.total("reconcile")},
        {"metrics.export_s", sp.total("export")},
        {"workload.decode_mops",
         drain > 0.0 ? static_cast<double>(traced.decodedOps) / drain / 1e6
                     : 0.0},
        {"system.ff_cycles", static_cast<double>(traced.ffCycles)},
        {"system.batched_cycles",
         static_cast<double>(traced.batchedCycles)},
        {"system.stepped_cycles", static_cast<double>(stepped)},
        {"obs.probe_events", static_cast<double>(traced.probeEvents)},
        {"system.unretired_ops", static_cast<double>(traced.unretiredOps)},
        {"system.fastforward_s", secs("fastforward")},
        {"system.fastforward_calls", calls("fastforward")},
        {"core.pipeline_s", secs("pipeline")},
        {"core.pipeline_calls", calls("pipeline")},
        // The replay buffer's refill scope wraps the emitter's; their
        // self times add up, and each refill is one emitter burst.
        {"workload.frontend_s",
         secs("frontend.replay") + secs("frontend.emit")},
        {"workload.frontend_calls", calls("frontend.emit")},
        {"cache.icache_s", secs("icache")},
        {"cache.dcache_s", secs("dcache")},
        {"cache.write_buffer_s", secs("write_buffer")},
        {"cache.mshr_s", secs("mshr")},
        {"mem.tick_s", secs("mem.tick")},
        {"mem.events_s", secs("events")},
        {"mem.bus_s", secs("bus")},
        {"coherence.directory_s", secs("directory")},
        {"coherence.directory_calls", calls("directory")},
        {"sync.sync_s", secs("sync")},
        {"sync.sync_calls", calls("sync")},
        {"os.os_s", secs("os")},
        {"os.os_calls", calls("os")},
        {"obs.probe_s", secs("probe")},
        {"obs.why_s", secs("why")},
        {"check.checker_s", secs("checker")},
        {"prof.overhead_ratio",
         scaledWorkSeconds(traced) / scaledWorkSeconds(bare)},
        {"host.wall_s", spanSeconds(bare, workSpans(), false)},
        {"host.cpu_s", spanSeconds(bare, workSpans(), true)},
        {"host.probe_ms", bare.probes > 0
                              ? bare.spans.cpuTotal("probe") /
                                    static_cast<double>(bare.probes) * 1e3
                              : 0.0},
    };
}

std::string
resultJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const Metrics &metrics, bool end_to_end)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const MetricSpec &m : metricCatalog()) {
        if (m.endToEnd != end_to_end)
            continue;
        auto it = metrics.find(m.name);
        double v = it == metrics.end() ? 0.0 : it->second;
        if (!std::isfinite(v))
            v = 0.0;
        char num[64];
        std::snprintf(num, sizeof num, "%.17g", v);
        out += first ? "" : ", ";
        first = false;
        out += std::string("\"") + m.name + "\": {\"value\": " + num +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

} // namespace perfbench
