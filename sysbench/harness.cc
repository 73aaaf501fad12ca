#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "benchmarks/specs.h"
#include "engine/metrics.h"
#include "faasflow/client.h"
#include "obs/attribution.h"
#include "obs/trace_model.h"
#include "workflow/dagen.h"
#include "workflow/wdl.h"

namespace sysbench {

namespace {

using faasflow::SimTime;
using faasflow::System;
using faasflow::SystemConfig;

constexpr size_t kMontageWarmup = 2;
// paper-ctl warms up as the figure benches do (bench/harness.h): 10
// invocations, repartition, then 6 more.
constexpr size_t kCtlWarmup = 10;
constexpr size_t kCtlSettle = 6;
constexpr size_t kMontageInvocations = 40;
constexpr size_t kCtlArrivals = 2400;    // per Table-1 benchmark
constexpr double kCtlRatePerMinute = 6;  // the Fig. 13 rate
// Simulated seconds per window step: about 100 arrivals of a paper-ctl
// System, or 1/20 of a Montage invocation's latency; 2-8 ms of host time.
constexpr double kCtlSlotS = 1000;
constexpr double kContendedSlotS = 2;
constexpr double kWideSlotS = 0.5;
// Host seconds of window between two samples of the reference kernel.
constexpr double kRefEveryS = 0.25;
constexpr size_t kRefEvents = 20000;

// Keeps the reference kernel's result live, so the compiler cannot
// drop its work.
volatile uint64_t reference_sink;

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t
fold(uint64_t hash, uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (8 * i)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

uint64_t
fold(uint64_t hash, const std::string& text)
{
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return fold(hash, text.size());
}

uint64_t
dagDigest(uint64_t hash, const faasflow::workflow::Dag& dag)
{
    hash = fold(hash, dag.name());
    for (const auto& node : dag.nodes()) {
        hash = fold(hash, node.name);
        hash = fold(hash, node.function);
    }
    for (const auto& edge : dag.edges()) {
        hash = fold(hash, static_cast<uint64_t>(edge.from));
        hash = fold(hash, static_cast<uint64_t>(edge.to));
        hash = fold(hash, static_cast<uint64_t>(edge.dataBytes()));
    }
    return hash;
}

/** SplitMix64: a fully specified generator, so inputs are the same on
 *  every platform. */
uint64_t
splitmix(uint64_t& state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

/** The output digest of an invocation of `deployed` that ran every node
 *  and skipped none, or 0 when a switch makes outputs run-dependent. */
uint64_t
expectedOutputDigest(const faasflow::engine::DeployedWorkflow& deployed)
{
    faasflow::engine::DeployedWorkflow wf;
    wf.dag = deployed.dag;
    const size_t nodes = wf.dag.nodeCount();
    for (const auto& node : wf.dag.nodes()) {
        if (node.switch_id >= 0)
            return 0;
    }
    faasflow::engine::Invocation inv;
    inv.wf = &wf;
    inv.node_done.assign(nodes, 1);
    inv.node_skipped.assign(nodes, false);
    inv.node_payload.resize(nodes);
    return faasflow::engine::invocationOutputDigest(inv);
}

/** `warmup` closed-loop invocations, one Algorithm-1 iteration, then
 *  `settle` more so the red-black switch's cold starts stay out of the
 *  measured window. */
void
warmUp(Cell& cell, Deployment& deployment, bool trace, size_t warmup,
       size_t settle)
{
    System& system = *cell.system;
    faasflow::ClosedLoopClient client(system, cell.workflow, warmup);
    client.start();
    system.run();

    const auto start = std::chrono::steady_clock::now();
    system.repartition(cell.workflow);
    deployment.repartition_s += secondsSince(start);

    if (settle > 0) {
        faasflow::ClosedLoopClient again(system, cell.workflow, settle);
        again.start();
        system.run();
    }
    system.metrics().clear();
    system.trace().clear();
    if (trace)
        system.trace().enable();
}

Counters
snapshot(System& system)
{
    Counters c;
    const auto& queue = system.simulator().queueStats();
    c.scheduled = queue.scheduled;
    c.fired = queue.fired;
    c.cancelled = queue.cancelled;
    c.peak_heap = queue.max_heap;
    auto& network = system.network();
    for (size_t i = 0; i < network.nodeCount(); ++i)
        c.flows += network.stats(static_cast<int>(i)).flows_started;
    const auto& storage_nic = network.stats(system.cluster().storageNodeId());
    c.storage_nic_bytes = storage_nic.bytes_sent + storage_nic.bytes_received;
    const auto& remote = system.remoteStore().stats();
    c.remote_ops = remote.puts + remote.gets;
    c.remote_bytes = remote.bytes_written + remote.bytes_read;
    for (size_t w = 0; w < system.cluster().workerCount(); ++w) {
        c.local_saves += system.store(w).localSaves();
        c.remote_saves += system.store(w).remoteSaves();
        c.cold_starts += system.cluster().worker(w).pool().coldStarts();
        c.warm_hits += system.cluster().worker(w).pool().warmHits();
    }
    return c;
}

/** Adds the window `after - before` of one cell into `total`. */
void
accumulate(Counters& total, const Counters& before, const Counters& after)
{
    total.scheduled += after.scheduled - before.scheduled;
    total.fired += after.fired - before.fired;
    total.cancelled += after.cancelled - before.cancelled;
    total.peak_heap = std::max(total.peak_heap, after.peak_heap);
    total.flows += after.flows - before.flows;
    total.storage_nic_bytes +=
        after.storage_nic_bytes - before.storage_nic_bytes;
    total.remote_ops += after.remote_ops - before.remote_ops;
    total.remote_bytes += after.remote_bytes - before.remote_bytes;
    total.local_saves += after.local_saves - before.local_saves;
    total.remote_saves += after.remote_saves - before.remote_saves;
    total.cold_starts += after.cold_starts - before.cold_starts;
    total.warm_hits += after.warm_hits - before.warm_hits;
}

/** What the benchmark keeps of one delivered InvocationRecord. */
struct Delivered
{
    uint64_t id = 0;
    int64_t e2e_us = 0;
    int64_t overhead_us = 0;
    bool timed_out = false;
    uint64_t duplicate_executions = 0;
    uint64_t output_digest = 0;
};

void
violation(PassResult& result, size_t count, std::string what)
{
    if (count == 0)
        return;
    result.violations += count;
    result.errors.push_back(std::move(what));
}

}  // namespace

const char*
workloadName(Workload workload)
{
    switch (workload) {
    case Workload::MontageContended:
        return "montage2k-contended";
    case Workload::MontageWide:
        return "montage2k-wide";
    case Workload::PaperCtl:
        return "paper-ctl";
    }
    return "?";
}

bool
workloadFromName(const std::string& name, Workload& out)
{
    for (const Workload w : {Workload::MontageContended,
                             Workload::MontageWide, Workload::PaperCtl}) {
        if (name == workloadName(w)) {
            out = w;
            return true;
        }
    }
    return false;
}

Inputs
makeInputs(Workload workload, uint64_t seed, bool smoke)
{
    Inputs inputs;
    inputs.workload = workload;
    inputs.seed = seed;
    if (workload == Workload::PaperCtl) {
        uint64_t state = seed;
        const size_t per_bench = smoke ? 6 : kCtlArrivals;
        const size_t benches = faasflow::benchmarks::allBenchmarks().size();
        for (size_t b = 0; b < benches; ++b) {
            std::vector<double> offsets;
            double at = 0;
            for (size_t i = 0; i < per_bench; ++i) {
                const double u =
                    static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
                at += -std::log1p(-u) * 60.0 / kCtlRatePerMinute;
                offsets.push_back(at);
            }
            inputs.arrivals.push_back(std::move(offsets));
        }
        return inputs;
    }
    // The DAG of examples/montage_2k.yaml (dagen montage, seed 7) with
    // every edge payload scaled by its own seeded factor in [0.95, 1.05]:
    // the seed changes every payload but not the mosaic's shape or the
    // partition it gets. Raw dagen seeds re-draw the heavy payload tail,
    // which moves Algorithm 1's partition and simulated latency by +-20%
    // from seed to seed (README.md).
    faasflow::workflow::GenSpec spec;
    spec.regime = faasflow::workflow::Regime::Montage;
    spec.seed = 7;
    spec.nodes = smoke ? 60 : 2000;
    const faasflow::workflow::GeneratedWorkflow base =
        faasflow::workflow::generate(spec, "montage-2k");
    faasflow::workflow::Dag dag(base.dag.name());
    for (faasflow::workflow::DagNode node : base.dag.nodes()) {
        node.id = -1;
        dag.addNode(std::move(node));
    }
    uint64_t state = seed;
    for (const auto& edge : base.dag.edges()) {
        const double u =
            static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
        dag.addEdge(edge.from, edge.to,
                    std::llround(static_cast<double>(edge.dataBytes()) *
                                 (0.95 + 0.1 * u)));
    }
    inputs.wdl = faasflow::workflow::emitWdl(dag, base.functions);
    inputs.invocations = smoke ? 2 : kMontageInvocations;
    return inputs;
}

Deployment
setup(const Inputs& inputs, const SetupOptions& options)
{
    Deployment deployment;
    deployment.dag_digest = kFnvBasis;
    if (inputs.workload == Workload::PaperCtl) {
        const auto start = std::chrono::steady_clock::now();
        auto benches = faasflow::benchmarks::allBenchmarks();
        for (auto& bench : benches)
            bench.dag = faasflow::benchmarks::stripPayloads(bench.dag);
        deployment.parse_s = secondsSince(start);
        deployment.slot = SimTime::seconds(kCtlSlotS);
        for (size_t b = 0; b < benches.size(); ++b) {
            deployment.dag_digest =
                dagDigest(deployment.dag_digest, benches[b].dag);
            for (const bool master : {true, false}) {
                SystemConfig config =
                    master ? SystemConfig::hyperflowServerless()
                           : SystemConfig::faasflowFaastore();
                config.seed = inputs.seed;
                config.profile_enabled = !options.toggle_profile;
                Cell cell;
                cell.system = std::make_unique<System>(config);
                cell.system->registerFunctions(benches[b].functions);
                cell.workflow = cell.system->deploy(benches[b].dag);
                cell.master = master;
                cell.arrivals = &inputs.arrivals.at(b);
                cell.expected_output_digest = expectedOutputDigest(
                    cell.system->deployed(cell.workflow));
                warmUp(cell, deployment, options.trace, kCtlWarmup, kCtlSettle);
                deployment.cells.push_back(std::move(cell));
            }
        }
        return deployment;
    }

    const auto start = std::chrono::steady_clock::now();
    faasflow::workflow::WdlResult wdl =
        faasflow::workflow::parseWdlYaml(inputs.wdl);
    deployment.parse_s = secondsSince(start);
    if (!wdl.ok())
        throw std::runtime_error("workflow error: " + wdl.error);
    deployment.dag_digest = dagDigest(deployment.dag_digest, wdl.dag);

    SystemConfig config = SystemConfig::faasflowFaastore();
    config.cluster.storage_bandwidth =
        inputs.workload == Workload::MontageContended ? 50e6 : 1000e6;
    config.seed = inputs.seed;
    config.profile_enabled = options.toggle_profile;
    Cell cell;
    cell.system = std::make_unique<System>(config);
    cell.system->registerFunctions(wdl.functions);
    cell.workflow = cell.system->deploy(std::move(wdl.dag));
    cell.expected_output_digest =
        expectedOutputDigest(cell.system->deployed(cell.workflow));
    warmUp(cell, deployment, options.trace, kMontageWarmup, 0);
    deployment.cells.push_back(std::move(cell));
    deployment.closed_loop = inputs.invocations;
    deployment.slot = SimTime::seconds(
        inputs.workload == Workload::MontageContended ? kContendedSlotS
                                                      : kWideSlotS);
    return deployment;
}

PassResult
measure(Deployment& deployment, bool sample_reference)
{
    PassResult result;
    result.output_digest = kFnvBasis;
    result.sim_digest = kFnvBasis;
    std::vector<uint64_t> cell_digests;
    int64_t overhead_us = 0;
    auto last_ref = std::chrono::steady_clock::now();

    for (Cell& cell : deployment.cells) {
        System& system = *cell.system;
        const Counters before = snapshot(system);
        std::vector<Delivered> delivered;
        const auto deliver =
            [&delivered](const faasflow::engine::InvocationRecord& r) {
                delivered.push_back(Delivered{
                    r.invocation_id, r.e2e().micros(),
                    r.schedOverhead().micros(), r.timed_out,
                    r.duplicate_executions, r.output_digest});
            };

        // The closed-loop client: the next invocation leaves when the
        // previous one has returned.
        size_t attempted = 0;
        std::function<void()> next = [&] {
            ++attempted;
            system.invoke(cell.workflow,
                          [&](const faasflow::engine::InvocationRecord& r) {
                              deliver(r);
                              if (attempted < deployment.closed_loop)
                                  next();
                          });
        };
        // The open-loop client: each arrival schedules the next one, so
        // one arrival per cell is pending at a time.
        const SimTime origin = system.simulator().now();
        std::function<void()> arrive = [&] {
            system.invoke(cell.workflow, deliver);
            if (++attempted < cell.arrivals->size()) {
                system.simulator().scheduleAt(
                    origin + SimTime::seconds((*cell.arrivals)[attempted]),
                    [&arrive] { arrive(); });
            }
        };
        if (cell.arrivals != nullptr && !cell.arrivals->empty()) {
            system.simulator().scheduleAt(
                origin + SimTime::seconds(cell.arrivals->front()),
                [&arrive] { arrive(); });
        } else if (cell.arrivals == nullptr && deployment.closed_loop > 0) {
            next();
        }

        // The window runs in steps of deployment.slot simulated time.
        // Between steps, once kRefEveryS of host time has passed, the
        // reference kernel samples the host's speed, off the clock.
        double host_s = 0;
        auto from = std::chrono::steady_clock::now();
        while (system.simulator().pendingEvents() > 0) {
            system.runFor(deployment.slot);
            if (sample_reference && secondsSince(last_ref) >= kRefEveryS) {
                host_s += secondsSince(from);
                result.ref_ms.push_back(referenceMs());
                from = last_ref = std::chrono::steady_clock::now();
            }
        }
        system.run();  // the queue is empty; closes what run() closes
        host_s += secondsSince(from);
        result.wall_s += host_s;
        (cell.master ? result.master_s : result.worker_s) += host_s;
        accumulate(result.counters, before, snapshot(system));

        // Every submitted invocation is expected, so a closed loop that
        // stalled still counts its remaining requests as attempted.
        const size_t expected =
            cell.arrivals ? cell.arrivals->size() : deployment.closed_loop;
        attempted = std::max(attempted, expected);
        result.attempted += attempted;

        std::stable_sort(delivered.begin(), delivered.end(),
                         [](const Delivered& a, const Delivered& b) {
                             return a.id < b.id;
                         });
        size_t unique = 0, repeated = 0, timed_out = 0, duplicated = 0,
               mismatched = 0;
        uint64_t digest = kFnvBasis;
        for (size_t i = 0; i < delivered.size(); ++i) {
            const Delivered& d = delivered[i];
            if (i > 0 && delivered[i - 1].id == d.id) {
                ++repeated;
                continue;
            }
            ++unique;
            timed_out += d.timed_out ? 1 : 0;
            duplicated += d.duplicate_executions > 0 ? 1 : 0;
            if (cell.expected_output_digest != 0 &&
                d.output_digest != cell.expected_output_digest)
                ++mismatched;
            digest = fold(digest, d.output_digest);
            result.sim_digest = fold(result.sim_digest,
                                     static_cast<uint64_t>(d.e2e_us));
            result.e2e_ms.push_back(static_cast<double>(d.e2e_us) / 1e3);
            overhead_us += d.overhead_us;
        }
        violation(result, attempted - std::min(attempted, unique),
                  cell.workflow + ": invocations never completed");
        violation(result, repeated,
                  cell.workflow + ": results delivered more than once");
        violation(result, timed_out, cell.workflow + ": invocations timed out");
        violation(result, duplicated,
                  cell.workflow + ": invocations executed a node twice");
        violation(result, mismatched,
                  cell.workflow + ": outputs differ from the deployed DAG's");
        violation(result, system.recoveryStats().replay_mismatches,
                  cell.workflow + ": progress-log replay mismatches");
        cell_digests.push_back(digest);
        result.output_digest = fold(result.output_digest, digest);
    }

    // paper-ctl cells come in (MasterSP, WorkerSP) pairs per benchmark:
    // both engines must produce the same outputs.
    for (size_t i = 0; i + 1 < deployment.cells.size(); i += 2) {
        const Cell& a = deployment.cells[i];
        const Cell& b = deployment.cells[i + 1];
        if (a.master && !b.master && cell_digests[i] != cell_digests[i + 1]) {
            violation(result, a.arrivals ? a.arrivals->size() : 1,
                      a.workflow + ": MasterSP and WorkerSP outputs differ");
        }
    }
    result.sim_digest = fold(result.sim_digest, result.output_digest);
    if (!result.e2e_ms.empty()) {
        result.sched_overhead_ms = static_cast<double>(overhead_us) / 1e3 /
                                   static_cast<double>(result.e2e_ms.size());
    }
    return result;
}

TraceFindings
analyseTrace(const Deployment& deployment)
{
    TraceFindings findings;
    int64_t e2e = 0, queue = 0, fetch = 0, save = 0, hops = 0;
    for (const Cell& cell : deployment.cells) {
        const auto& trace = cell.system->trace();
        findings.spans += trace.eventCount();
        {
            const faasflow::obs::TraceModel model =
                faasflow::obs::modelFromRecorder(trace);
            for (const auto& a : faasflow::obs::attributeInvocations(model)) {
                e2e += a.e2eUs();
                queue += a.queue_us;
                fetch += a.fetch_us;
                save += a.save_us;
                hops += a.sched_us;
            }
        }
        const ReplayResult replay =
            replayFlows(trace, cell.system->network());
        findings.replay.flows += replay.flows;
        findings.replay.exact += replay.exact;
        findings.replay.host_s += replay.host_s;
    }
    if (e2e > 0) {
        const auto share = [e2e](int64_t part) {
            return static_cast<double>(part) / static_cast<double>(e2e);
        };
        findings.queue_share = share(queue);
        findings.fetch_share = share(fetch);
        findings.save_share = share(save);
        findings.hops_share = share(hops);
    }
    return findings;
}

Tail
tailOf(std::vector<double> samples_ms)
{
    Tail tail;
    tail.samples = samples_ms.size();
    if (samples_ms.empty())
        return tail;
    std::sort(samples_ms.begin(), samples_ms.end());
    constexpr size_t kBeyond = 10;
    if (samples_ms.size() <= kBeyond) {
        tail.value_ms = samples_ms.back();
        return tail;
    }
    const size_t n = samples_ms.size();
    tail.value_ms = samples_ms[n - kBeyond - 1];
    tail.percentile = 100.0 * static_cast<double>(n - kBeyond) /
                      static_cast<double>(n);
    return tail;
}

double
referenceMs()
{
    using Event = std::pair<uint64_t, std::function<uint64_t()>>;
    const auto later = [](const Event& a, const Event& b) {
        return a.first > b.first;
    };
    const auto start = std::chrono::steady_clock::now();
    std::vector<Event> heap;
    uint64_t state = 9, sum = 0;
    for (size_t i = 0; i < kRefEvents; ++i) {
        const uint64_t r = splitmix(state);
        heap.emplace_back(r >> 20, [r] { return r * 3; });
        std::push_heap(heap.begin(), heap.end(), later);
    }
    while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        sum += heap.back().second();
        heap.pop_back();
    }
    reference_sink = sum;
    return secondsSince(start) * 1e3;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace sysbench
