#ifndef SYSBENCH_HARNESS_H_
#define SYSBENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faasflow/system.h"
#include "replay.h"

namespace sysbench {

/** The benchmark's workloads (README.md says why each was chosen). */
enum class Workload {
    MontageContended,  ///< Montage-2k, WorkerSP + FaaStore, 50 MB/s storage NIC
    MontageWide,       ///< the same DAG with a 1000 MB/s storage NIC
    PaperCtl           ///< 8 Table-1 benchmarks x 2 engines, no payloads
};

const char* workloadName(Workload workload);
bool workloadFromName(const std::string& name, Workload& out);

/**
 * Everything the simulated system receives, generated from the workload
 * seed alone: the same seed gives the same inputs.
 */
struct Inputs
{
    Workload workload = Workload::MontageContended;
    uint64_t seed = 1;
    /** Montage: the WDL document of the 2001-node DAG and its functions,
     *  parsed during set-up. */
    std::string wdl;
    /** Montage: measured invocations of the one closed-loop client. */
    size_t invocations = 0;
    /** paper-ctl: Poisson arrival offsets in simulated seconds, one
     *  stream per Table-1 benchmark, replayed under both engines. */
    std::vector<std::vector<double>> arrivals;
};

/** Full-size inputs, or tiny ones (`smoke`) for the benchmark's tests. */
Inputs makeInputs(Workload workload, uint64_t seed, bool smoke = false);

/** One independent System with its deployed workflow. */
struct Cell
{
    std::unique_ptr<faasflow::System> system;
    std::string workflow;
    bool master = false;
    /** Open-loop arrival offsets, pointing into the Inputs (which must
     *  outlive the Deployment); null for the closed-loop client. */
    const std::vector<double>* arrivals = nullptr;
    /** Output digest every invocation must produce, folded from the
     *  deployed DAG (every node done, none skipped); 0 when the
     *  workflow's outputs depend on the run (switches). */
    uint64_t expected_output_digest = 0;
};

/** Systems that are set up (deployed, warmed, repartitioned). */
struct Deployment
{
    std::vector<Cell> cells;
    size_t closed_loop = 0;
    /** Digest of every deployed DAG's nodes, edges and payload bytes. */
    uint64_t dag_digest = 0;
    double parse_s = 0;        ///< host s in WDL parse / DAG generation
    double repartition_s = 0;  ///< host s in System::repartition
    /** Simulated time per step of a measured window; the host-speed
     *  reference is sampled between steps. */
    faasflow::SimTime slot;
};

struct SetupOptions
{
    bool trace = false;  ///< record spans during the measured window
    /** Flips the workload's profiler setting (on for Montage, off for
     *  paper-ctl), for the profiler-overhead measurement. */
    bool toggle_profile = false;
};

/** Parses/generates, builds the Systems, deploys, warms up and
 *  repartitions: 2 closed-loop invocations then `repartition` on
 *  Montage; 10, `repartition`, then 6 more on paper-ctl. */
Deployment setup(const Inputs& inputs, const SetupOptions& options = {});

/** Layer counters over the measured window, summed over all cells. */
struct Counters
{
    uint64_t scheduled = 0;   ///< sim: events scheduled
    uint64_t fired = 0;       ///< sim: events fired
    uint64_t cancelled = 0;   ///< sim: events cancelled
    size_t peak_heap = 0;     ///< sim: largest event heap (max, not sum)
    uint64_t flows = 0;       ///< net: bulk flows started
    int64_t storage_nic_bytes = 0;  ///< net: bytes through the storage NIC
    uint64_t remote_ops = 0;        ///< storage: remote puts + gets
    int64_t remote_bytes = 0;       ///< storage: remote bytes moved
    uint64_t local_saves = 0;       ///< storage: FaaStore local saves
    uint64_t remote_saves = 0;      ///< storage: FaaStore remote saves
    uint64_t cold_starts = 0;       ///< cluster: container cold starts
    uint64_t warm_hits = 0;         ///< cluster: warm container hits
};

/** Result of one measured window over a Deployment. */
struct PassResult
{
    double wall_s = 0;      ///< host s in System::run, all cells
    /** referenceMs() samples taken during the window, off its clock. */
    std::vector<double> ref_ms;
    double master_s = 0;    ///< ... of the MasterSP cells
    double worker_s = 0;    ///< ... of the WorkerSP cells
    size_t attempted = 0;   ///< invocations submitted
    /** Invocations that timed out, never completed, completed twice or
     *  executed a node twice, plus replay mismatches and cross-engine
     *  digest disagreements. */
    size_t violations = 0;
    std::vector<std::string> errors;  ///< one line per violation kind
    std::vector<double> e2e_ms;       ///< simulated latency, all records
    double sched_overhead_ms = 0;     ///< mean e2e - critical-path exec
    uint64_t output_digest = 0;  ///< fold of per-invocation output digests
    uint64_t sim_digest = 0;     ///< fold of outputs and simulated timings
    Counters counters;
};

/** Runs the measured window on every cell and checks the outputs;
 *  with `sample_reference`, samples referenceMs() into
 *  PassResult::ref_ms. The kernel's allocations land at moments that
 *  depend on host time, so a pass whose peak RSS is reported runs
 *  without it. */
PassResult measure(Deployment& deployment, bool sample_reference = true);

/** Per-layer findings taken from the spans of a traced pass. */
struct TraceFindings
{
    double queue_share = 0;  ///< container queueing / simulated e2e
    double fetch_share = 0;  ///< input fetches / simulated e2e
    double save_share = 0;   ///< output saves / simulated e2e
    double hops_share = 0;   ///< scheduling hops / simulated e2e
    size_t spans = 0;        ///< recorded span events
    ReplayResult replay;     ///< network replay of every xfer span
};

/** Attributes every traced invocation's latency and replays its flows. */
TraceFindings analyseTrace(const Deployment& deployment);

/** Latency at the highest percentile with at least 10 samples beyond. */
struct Tail
{
    double value_ms = 0;
    double percentile = 100;
    size_t samples = 0;
};

Tail tailOf(std::vector<double> samples_ms);
double median(std::vector<double> values);

/**
 * The host-speed reference: a fixed, self-contained kernel in the
 * simulator's event-queue pattern (20,000 events carrying
 * std::function callbacks pushed onto a binary heap, then popped in
 * time order). Returns its host milliseconds. It shares none of the
 * simulator's code, so a change to the program does not move it, while
 * a slower host slows it as it slows the simulator.
 */
double referenceMs();

/** referenceMs() time at which the end-to-end host metrics are
 *  reported: host seconds x kReferenceMs / the run's median sample. */
constexpr double kReferenceMs = 5.0;

}  // namespace sysbench

#endif  // SYSBENCH_HARNESS_H_
