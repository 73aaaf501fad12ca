#ifndef SYSBENCH_REPLAY_H_
#define SYSBENCH_REPLAY_H_

#include <cstddef>

#include "net/network.h"
#include "obs/trace.h"

namespace sysbench {

/** Outcome of replaying a trace's bulk flows through a fresh network. */
struct ReplayResult
{
    size_t flows = 0;  ///< closed xfer spans replayed
    size_t exact = 0;  ///< replayed flows finishing at the traced µs
    double host_s = 0; ///< host s of the replay's Simulator::run
};

/**
 * Measures the network layer's host cost from outside the System: every
 * closed "xfer" span of `trace` is started again, at its recorded µs
 * start, on a fresh sim::Simulator + net::Network with the same nodes
 * and NIC bandwidths as `network`, and its replayed finish is compared
 * with the traced one. Only the Simulator::run that drives the flows is
 * timed.
 */
ReplayResult replayFlows(const faasflow::obs::TraceRecorder& trace,
                         const faasflow::net::Network& network);

}  // namespace sysbench

#endif  // SYSBENCH_REPLAY_H_
