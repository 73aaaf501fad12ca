#include "replay.h"

#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.h"

namespace sysbench {

namespace {

using faasflow::SimTime;
using faasflow::obs::TraceRecorder;

/** One traced bulk flow, as the network layer recorded it. */
struct TracedFlow
{
    faasflow::net::NodeId src = 0;
    faasflow::net::NodeId dst = 0;
    int64_t bytes = 0;
    int64_t start_us = 0;
    int64_t end_us = 0;
};

/** Reads the closed "xfer" spans ("<src>-><dst>", detail "<n> B"). */
std::vector<TracedFlow>
tracedFlows(const TraceRecorder& trace, const faasflow::net::Network& network)
{
    std::map<std::string, faasflow::net::NodeId, std::less<>> ids;
    for (size_t i = 0; i < network.nodeCount(); ++i)
        ids.emplace(network.nodeName(static_cast<int>(i)), static_cast<int>(i));

    std::vector<TracedFlow> flows;
    for (const TraceRecorder::Event& event : trace.events()) {
        if (event.dur_us < 0 || trace.str(event.category) != "xfer")
            continue;
        const std::string& name = trace.str(event.name);
        const size_t arrow = name.find("->");
        if (arrow == std::string::npos)
            continue;
        const auto src = ids.find(std::string_view(name).substr(0, arrow));
        const auto dst = ids.find(std::string_view(name).substr(arrow + 2));
        if (src == ids.end() || dst == ids.end())
            continue;
        const int64_t bytes = std::strtoll(event.detail.c_str(), nullptr, 10);
        flows.push_back(TracedFlow{src->second, dst->second, bytes,
                                   event.start_us,
                                   event.start_us + event.dur_us});
    }
    return flows;
}

}  // namespace

ReplayResult
replayFlows(const TraceRecorder& trace, const faasflow::net::Network& network)
{
    const std::vector<TracedFlow> flows = tracedFlows(trace, network);

    faasflow::sim::Simulator sim;
    faasflow::net::Network replay(sim);
    for (size_t i = 0; i < network.nodeCount(); ++i) {
        const int id = static_cast<int>(i);
        replay.addNode(network.nodeName(id), network.egressBandwidth(id),
                       network.ingressBandwidth(id));
    }

    // Trace order is flow start order, so same-µs starts keep the order
    // the original run gave them.
    std::vector<int64_t> finish_us(flows.size(), -1);
    for (size_t i = 0; i < flows.size(); ++i) {
        sim.scheduleAt(SimTime::micros(flows[i].start_us), [&, i] {
            const TracedFlow& f = flows[i];
            replay.startFlow(f.src, f.dst, f.bytes, [&, i](SimTime elapsed) {
                finish_us[i] = flows[i].start_us + elapsed.micros();
            });
        });
    }

    const auto t0 = std::chrono::steady_clock::now();
    sim.run();
    const auto t1 = std::chrono::steady_clock::now();

    ReplayResult result;
    result.flows = flows.size();
    result.host_s = std::chrono::duration<double>(t1 - t0).count();
    for (size_t i = 0; i < flows.size(); ++i)
        result.exact += finish_us[i] == flows[i].end_us ? 1 : 0;
    return result;
}

}  // namespace sysbench
