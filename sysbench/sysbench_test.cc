// Tests of the benchmark harness itself, on smoke-sized inputs.
#include <gtest/gtest.h>

#include "harness.h"

namespace {

using sysbench::Workload;

struct Outcome
{
    uint64_t dag_digest = 0;
    sysbench::PassResult pass;
};

Outcome
runOnce(Workload workload, uint64_t seed, sysbench::SetupOptions options = {})
{
    const sysbench::Inputs inputs = sysbench::makeInputs(workload, seed, true);
    sysbench::Deployment deployment = sysbench::setup(inputs, options);
    Outcome outcome;
    outcome.dag_digest = deployment.dag_digest;
    outcome.pass = sysbench::measure(deployment);
    return outcome;
}

TEST(Sysbench, SameSeedRepeatsSimulatedResultsAndDigests)
{
    for (const Workload w : {Workload::MontageContended, Workload::MontageWide,
                             Workload::PaperCtl}) {
        const Outcome a = runOnce(w, 3);
        const Outcome b = runOnce(w, 3);
        EXPECT_EQ(a.dag_digest, b.dag_digest) << sysbench::workloadName(w);
        EXPECT_EQ(a.pass.output_digest, b.pass.output_digest);
        EXPECT_EQ(a.pass.sim_digest, b.pass.sim_digest);
        EXPECT_EQ(a.pass.e2e_ms, b.pass.e2e_ms);
        EXPECT_EQ(a.pass.violations, 0u);
        EXPECT_GT(a.pass.attempted, 0u);
    }
}

// Pinned folds of the smoke runs at seed 1. A change that moves them
// changed what the simulated system computes or how long it takes; such
// a change re-pins here and says why.
TEST(Sysbench, PinnedDigests)
{
    struct Pin
    {
        Workload workload;
        uint64_t output_digest;
        uint64_t sim_digest;
    };
    for (const Pin& pin : {Pin{Workload::MontageContended,
                               0x3b959ffc0b1e271aULL, 0x2a05733b275f3cceULL},
                           Pin{Workload::MontageWide, 0x3b959ffc0b1e271aULL,
                               0xcaa8d133c5685e88ULL},
                           Pin{Workload::PaperCtl, 0xdae790d732abc385ULL,
                               0x507c219d5fcaf743ULL}}) {
        const Outcome outcome = runOnce(pin.workload, 1);
        EXPECT_EQ(outcome.pass.output_digest, pin.output_digest)
            << sysbench::workloadName(pin.workload);
        EXPECT_EQ(outcome.pass.sim_digest, pin.sim_digest)
            << sysbench::workloadName(pin.workload);
    }
}

TEST(Sysbench, DifferentSeedGivesDifferentDag)
{
    EXPECT_NE(runOnce(Workload::MontageContended, 1).dag_digest,
              runOnce(Workload::MontageContended, 2).dag_digest);
}

TEST(Sysbench, InputsDependOnlyOnTheSeed)
{
    const auto a = sysbench::makeInputs(Workload::PaperCtl, 5);
    const auto b = sysbench::makeInputs(Workload::PaperCtl, 5);
    const auto c = sysbench::makeInputs(Workload::PaperCtl, 6);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_NE(a.arrivals, c.arrivals);
    EXPECT_EQ(sysbench::makeInputs(Workload::MontageWide, 5).wdl,
              sysbench::makeInputs(Workload::MontageWide, 5).wdl);
}

TEST(Sysbench, ReplayIsExactOnSmallGeneratedDag)
{
    const sysbench::Inputs inputs =
        sysbench::makeInputs(Workload::MontageContended, 1, true);
    sysbench::Deployment deployment =
        sysbench::setup(inputs, {.trace = true});
    const sysbench::PassResult pass = sysbench::measure(deployment);
    EXPECT_EQ(pass.violations, 0u);
    const sysbench::TraceFindings findings =
        sysbench::analyseTrace(deployment);
    EXPECT_GT(findings.replay.flows, 0u);
    EXPECT_EQ(findings.replay.flows, pass.counters.flows);
    EXPECT_EQ(findings.replay.exact, findings.replay.flows);
    EXPECT_GT(findings.spans, findings.replay.flows);
    EXPECT_GT(findings.fetch_share, 0.0);
}

// Montage has no switch, so every invocation's outputs are pinned by the
// deployed DAG; paper-ctl pins every benchmark but the one with a switch.
TEST(Sysbench, OutputsArePinnedByTheDeployedDag)
{
    for (const Workload w : {Workload::MontageContended, Workload::PaperCtl}) {
        const sysbench::Inputs inputs = sysbench::makeInputs(w, 1, true);
        sysbench::Deployment deployment = sysbench::setup(inputs);
        size_t pinned = 0;
        for (const sysbench::Cell& cell : deployment.cells)
            pinned += cell.expected_output_digest != 0 ? 1 : 0;
        EXPECT_EQ(pinned, w == Workload::PaperCtl ? 14u : 1u);
        EXPECT_EQ(sysbench::measure(deployment).violations, 0u);

        // A pin the outputs do not match is a violation per invocation.
        for (sysbench::Cell& cell : deployment.cells)
            cell.expected_output_digest ^= cell.expected_output_digest ? 1 : 0;
        const sysbench::PassResult broken = sysbench::measure(deployment);
        EXPECT_GT(broken.violations, 0u) << sysbench::workloadName(w);
    }
}

TEST(Sysbench, ReferenceKernelTakesHostTime)
{
    const double ms = sysbench::referenceMs();
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, 1000.0);
}

TEST(Sysbench, TracingAndProfilerLeaveResultsUnchanged)
{
    for (const Workload w : {Workload::MontageContended, Workload::PaperCtl}) {
        const Outcome plain = runOnce(w, 2);
        EXPECT_EQ(runOnce(w, 2, {.trace = true}).pass.sim_digest,
                  plain.pass.sim_digest);
        EXPECT_EQ(runOnce(w, 2, {.toggle_profile = true}).pass.sim_digest,
                  plain.pass.sim_digest);
    }
}

TEST(Sysbench, TailIsHighestPercentileWithTenBeyond)
{
    std::vector<double> samples;
    for (int i = 1; i <= 40; ++i)
        samples.push_back(i);
    const sysbench::Tail tail = sysbench::tailOf(samples);
    EXPECT_DOUBLE_EQ(tail.value_ms, 30.0);
    EXPECT_DOUBLE_EQ(tail.percentile, 75.0);
    EXPECT_EQ(tail.samples, 40u);
    EXPECT_DOUBLE_EQ(sysbench::median({3, 1, 2, 4}), 2.5);
}

}  // namespace
