/**
 * @file
 * `sysbench`: the system-level benchmark of the FaaSFlow simulator. Runs
 * one workload on the real faasflow::System, checks its outputs, and
 * prints one JSON result line as the last line of stdout.
 *
 *   sysbench --workload montage2k-contended --seed 1 --seconds 40 --trace 0
 *
 * --trace 0 reports the end-to-end metrics of untraced passes repeated
 * for --seconds; --trace 1 reports the per-layer metrics of three fixed
 * passes (README.md lists both). --smoke shrinks the inputs for quick
 * checks. Exit status: 0 when every output check passed, 1 on a check
 * failure, 2 on bad usage, 3 on a build whose host times would be
 * meaningless.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "net/network.h"

namespace {

using sysbench::Deployment;
using sysbench::Inputs;
using sysbench::PassResult;
using sysbench::Workload;

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

/** Output-check tally of a whole run. */
struct Checks
{
    size_t attempted = 0;
    size_t failed = 0;

    void
    add(const PassResult& pass)
    {
        attempted += pass.attempted;
        failed += pass.violations;
        for (const std::string& error : pass.errors)
            std::printf("violation: %s\n", error.c_str());
    }

    /** A later pass must repeat the first one's simulated results. */
    void
    same(const PassResult& first, const PassResult& pass, const char* what)
    {
        if (pass.sim_digest == first.sim_digest)
            return;
        failed += pass.attempted;
        std::printf("violation: %s changed simulated results "
                    "(sim digest %016llx != %016llx)\n",
                    what, static_cast<unsigned long long>(pass.sim_digest),
                    static_cast<unsigned long long>(first.sim_digest));
    }
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

double
ratio(double part, double whole)
{
    return whole > 0 ? part / whole : 0.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

void
printResult(const Checks& checks, const std::vector<Metric>& metrics)
{
    std::string json = "{\"correct\": ";
    json += checks.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(checks.attempted);
    json += ", \"failed\": " + std::to_string(checks.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
        json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
                value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

void
describe(const Inputs& inputs, const Deployment& deployment,
         const PassResult& pass)
{
    const size_t pinned = static_cast<size_t>(
        std::count_if(deployment.cells.begin(), deployment.cells.end(),
                      [](const sysbench::Cell& cell) {
                          return cell.expected_output_digest != 0;
                      }));
    std::printf("%s seed %llu: %zu systems (%zu with pinned outputs), "
                "%zu invocations/pass, dag digest %016llx, "
                "output digest %016llx, sim digest %016llx\n",
                sysbench::workloadName(inputs.workload),
                static_cast<unsigned long long>(inputs.seed),
                deployment.cells.size(), pinned, pass.attempted,
                static_cast<unsigned long long>(deployment.dag_digest),
                static_cast<unsigned long long>(pass.output_digest),
                static_cast<unsigned long long>(pass.sim_digest));
}

/** Median of the reference samples, or of one fresh sample when the
 *  windows were too short to take any. */
double
referenceOf(std::vector<double> samples)
{
    if (samples.empty())
        samples.push_back(sysbench::referenceMs());
    return sysbench::median(std::move(samples));
}

/** End-to-end metrics: untraced passes, each on a fresh set-up, as many
 *  as fit in `seconds` (at least two). The first is a warm-up: it gives
 *  the digests and peak RSS, and is not timed. Each later pass's host
 *  times are scaled to the reference speed by the median reference
 *  sample of its window; the metrics are medians over those passes. */
int
plainRun(const Inputs& inputs, double seconds)
{
    const auto start = std::chrono::steady_clock::now();
    Checks checks;
    PassResult first;
    {
        Deployment deployment = sysbench::setup(inputs);
        first = sysbench::measure(deployment, false);
        describe(inputs, deployment, first);
    }
    checks.add(first);
    const double peak_rss_mb = peakRssMb();

    std::vector<double> setups, walls, refs, scaled_setups, scaled_walls;
    for (;;) {
        const auto t0 = std::chrono::steady_clock::now();
        Deployment deployment = sysbench::setup(inputs);
        setups.push_back(secondsSince(t0));
        const PassResult result = sysbench::measure(deployment);
        walls.push_back(result.wall_s);
        refs.push_back(referenceOf(result.ref_ms));
        const double scale = sysbench::kReferenceMs / refs.back();
        scaled_setups.push_back(setups.back() * scale);
        scaled_walls.push_back(walls.back() * scale);
        checks.add(result);
        checks.same(first, result, "a repeated pass");
        // Stop when another pass as long as this one would overrun.
        if (secondsSince(start) + secondsSince(t0) > seconds)
            break;
    }

    const sysbench::Tail tail = sysbench::tailOf(first.e2e_ms);
    const double wall = sysbench::median(scaled_walls);
    std::printf("%zu timed passes after a warm-up; sim_tail_ms is p%.2f "
                "of %zu samples; raw wall/set-up s and reference ms of each "
                "timed pass:",
                walls.size(), tail.percentile, tail.samples);
    for (size_t i = 0; i < walls.size(); ++i)
        std::printf(" %.3f/%.3f/%.3f", walls[i], setups[i], refs[i]);
    std::printf("\n");
    printResult(
        checks,
        {{"wall_s", wall, "s"},
         {"inv_per_s", ratio(static_cast<double>(first.e2e_ms.size()), wall),
          "1/s"},
         {"setup_s", sysbench::median(scaled_setups), "s"},
         {"peak_rss_mb", peak_rss_mb, "MB"},
         {"sim_p50_ms", sysbench::median(first.e2e_ms), "ms"},
         {"sim_tail_ms", tail.value_ms, "ms"},
         {"ok_frac",
          1.0 - std::min(1.0, ratio(static_cast<double>(checks.failed),
                                    static_cast<double>(checks.attempted))),
          "ratio"}});
    return checks.failed == 0 ? 0 : 1;
}

/** Per-layer metrics: an untraced pass for the counters, a traced pass
 *  for spans and the network replay, and a pass with the profiler
 *  flipped for its overhead. */
int
tracedRun(const Inputs& inputs)
{
    Checks checks;
    PassResult plain;
    double parse_s = 0, repartition_s = 0;
    {
        Deployment deployment = sysbench::setup(inputs);
        parse_s = deployment.parse_s;
        repartition_s = deployment.repartition_s;
        plain = sysbench::measure(deployment);
        describe(inputs, deployment, plain);
    }
    checks.add(plain);

    PassResult traced;
    sysbench::TraceFindings trace;
    {
        Deployment deployment = sysbench::setup(inputs, {.trace = true});
        traced = sysbench::measure(deployment);
        trace = sysbench::analyseTrace(deployment);
    }
    checks.add(traced);
    checks.same(plain, traced, "tracing");
    const auto& replay = trace.replay;
    if (replay.flows != traced.counters.flows) {
        ++checks.failed;
        std::printf("violation: the trace holds %zu of the %llu flows the "
                    "traced pass started\n",
                    replay.flows,
                    static_cast<unsigned long long>(traced.counters.flows));
    }
    if (replay.exact != replay.flows) {
        ++checks.failed;
        std::printf("violation: network replay reproduced %zu of %zu flow "
                    "finish times\n",
                    replay.exact, replay.flows);
    }

    PassResult toggled;
    {
        Deployment deployment =
            sysbench::setup(inputs, {.toggle_profile = true});
        toggled = sysbench::measure(deployment);
    }
    checks.add(toggled);
    checks.same(plain, toggled, "the profiler");
    // Overheads compare passes run at different moments, so each pass's
    // host time is taken at the reference speed.
    const auto atReference = [](const PassResult& pass) {
        return pass.wall_s * sysbench::kReferenceMs / referenceOf(pass.ref_ms);
    };
    // paper-ctl runs with the profiler on, the Montage workloads with it
    // off; the overhead is always profiled / unprofiled - 1.
    const bool profiled = inputs.workload == Workload::PaperCtl;
    const double profile_overhead =
        profiled ? ratio(atReference(plain), atReference(toggled)) - 1.0
                 : ratio(atReference(toggled), atReference(plain)) - 1.0;

    const sysbench::Counters& c = plain.counters;
    const auto count = [](auto v) { return static_cast<double>(v); };
    printResult(
        checks,
        {{"sim.events", count(c.fired), "count"},
         {"sim.cancel_frac", ratio(count(c.cancelled), count(c.scheduled)),
          "ratio"},
         {"sim.peak_heap", count(c.peak_heap), "count"},
         {"sim.host_ns_per_event", ratio(plain.wall_s * 1e9, count(c.fired)),
          "ns"},
         {"net.flows", count(c.flows), "count"},
         {"net.storage_nic_mb", count(c.storage_nic_bytes) / 1e6, "MB"},
         {"net.replay_s", replay.host_s, "s"},
         {"net.replay_share", ratio(replay.host_s, plain.wall_s), "ratio"},
         {"net.replay_exact_frac",
          traced.counters.flows
              ? ratio(count(replay.exact), count(traced.counters.flows))
              : 1.0,
          "ratio"},
         {"storage.remote_mb_per_inv",
          ratio(count(c.remote_bytes) / 1e6, count(plain.attempted)),
          "MB/inv"},
         {"storage.local_save_frac",
          ratio(count(c.local_saves), count(c.local_saves + c.remote_saves)),
          "ratio"},
         {"storage.remote_ops", count(c.remote_ops), "count"},
         {"cluster.cold_starts", count(c.cold_starts), "count"},
         {"cluster.warm_hit_frac",
          ratio(count(c.warm_hits), count(c.warm_hits + c.cold_starts)),
          "ratio"},
         {"cluster.queue_share", trace.queue_share, "ratio"},
         {"scheduler.repartition_s", repartition_s, "s"},
         {"workflow.parse_s", parse_s, "s"},
         {"engine.sched_overhead_ms", plain.sched_overhead_ms, "ms"},
         {"engine.fetch_share", trace.fetch_share, "ratio"},
         {"engine.save_share", trace.save_share, "ratio"},
         {"engine.hops_share", trace.hops_share, "ratio"},
         {"engine.mastersp_s", plain.master_s, "s"},
         {"engine.workersp_s", plain.worker_s, "s"},
         {"obs.trace_overhead",
          ratio(atReference(traced), atReference(plain)) - 1.0, "ratio"},
         {"obs.trace_spans", count(trace.spans), "count"},
         {"obs.profile_overhead", profile_overhead, "ratio"},
         {"host.ref_ms", referenceOf(plain.ref_ms), "ms"}});
    return checks.failed == 0 ? 0 : 1;
}

int
usage(const char* error)
{
    std::fprintf(stderr,
                 "error: %s\nusage: sysbench --workload "
                 "<montage2k-contended|montage2k-wide|paper-ctl> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--smoke]\n",
                 error);
    return 2;
}

}  // namespace

int
main(int argc, char** argv)
{
    std::string workload_name;
    uint64_t seed = 1;
    double seconds = 40;
    bool trace = false;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char* value = argv[++i];
        if (arg == "--workload")
            workload_name = value;
        else if (arg == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (arg == "--trace")
            trace = std::strcmp(value, "0") != 0;
        else
            return usage(("unknown flag " + arg).c_str());
    }
    Workload workload;
    if (!sysbench::workloadFromName(workload_name, workload))
        return usage(("unknown workload '" + workload_name + "'").c_str());

    // Without NDEBUG the network cross-checks every rate update against
    // a full recompute, several times slower with identical results.
    if (faasflow::net::Network::Config{}.verify_rates) {
        std::fprintf(stderr, "error: built without NDEBUG (network rate "
                             "oracle on); refusing to report host times\n");
        return 3;
    }
    std::printf("host: nproc %d, compiler \"%s\", build %s\n", cpuCount(),
                __VERSION__, SYSBENCH_BUILD_TYPE);

    try {
        const Inputs inputs = sysbench::makeInputs(workload, seed, smoke);
        return trace ? tracedRun(inputs) : plainRun(inputs, seconds);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
