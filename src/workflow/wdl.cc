#include "workflow/wdl.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <string_view>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/units.h"
#include "workflow/analysis.h"
#include "workflow/dagen.h"
#include "yamllite/yaml.h"

namespace faasflow::workflow {

namespace {

using json::Value;

/** A construct's outgoing attachment point: the node successors hook to,
 *  plus the data that flows out through it. */
struct Terminal
{
    NodeId node = -1;
    std::vector<DataItem> payload;
};

/** (entries, exits) of a parsed step or step list. */
struct Segment
{
    std::vector<NodeId> entries;
    std::vector<Terminal> exits;
};

/** Per-branch switch context applied to nodes created inside it. */
struct SwitchContext
{
    int switch_id = -1;
    int branch = -1;
};

class WdlParser
{
  public:
    explicit WdlParser(const json::Value& doc) : doc_(doc) {}

    WdlResult run();

  private:
    const json::Value& doc_;
    WdlResult result_;
    std::map<std::string, SimTime> exec_estimates_;
    std::map<std::string, int> name_counters_;
    int next_switch_id_ = 0;

    bool
    fail(const std::string& msg)
    {
        if (result_.error.empty())
            result_.error = msg;
        return false;
    }

    /** Closed vocabulary: fails on the first key of `block` outside
     *  `known`. A misspelled knob (batch_window_ms for batch_window_us)
     *  silently falling back to its default would change the run
     *  without any signal. */
    bool
    checkKeys(const Value& block, std::string_view what,
              std::initializer_list<std::string_view> known)
    {
        for (const auto& [key, value] : block.asObject()) {
            if (std::find(known.begin(), known.end(), key) != known.end())
                continue;
            std::string expected;
            for (const std::string_view k : known) {
                if (!expected.empty())
                    expected += '/';
                expected += k;
            }
            return fail("unknown " + std::string(what) + " key '" + key +
                        "' (expected " + expected + ")");
        }
        return true;
    }

    std::string uniqueName(const std::string& base);
    bool parseFunctions(const Value* funcs);
    bool parseDag(const Value& block);
    bool parseGenerate(const Value& block, const std::string& doc_name);
    bool parseFaults(const Value* faults);
    bool parseCluster(const Value* cluster);
    bool parseDurability(const Value* durability);
    bool parseSlo(const Value* slo);
    bool parseSteps(const Value& steps, const SwitchContext& ctx,
                    int foreach_width, Segment& out);
    bool parseStep(const Value& step, const SwitchContext& ctx,
                   int foreach_width, Segment& out);
    bool parseTask(const Value& step, const SwitchContext& ctx,
                   int foreach_width, Segment& out);
    bool parseBranches(const Value& construct, bool is_switch,
                       const SwitchContext& outer_ctx, int foreach_width,
                       Segment& out);
    bool parseForeach(const Value& construct, const SwitchContext& ctx,
                      Segment& out);

    /** Connects every exit terminal of `prev` to every entry of `next`. */
    void connect(const std::vector<Terminal>& prev_exits,
                 const std::vector<NodeId>& next_entries);

    /**
     * Pushes a payload through a virtual fence onto the edges reaching
     * its first real (task) consumers. Data never "stops" at a virtual
     * node — it belongs to whichever tasks consume it next.
     */
    void propagatePayload(NodeId virtual_node,
                          const std::vector<DataItem>& payload);

    static SimTime seedWeight(const std::vector<DataItem>& payload);
    static std::vector<DataItem>
    mergedPayload(const std::vector<Terminal>& exits);
};

std::string
WdlParser::uniqueName(const std::string& base)
{
    int& n = name_counters_[base];
    ++n;
    if (n == 1 && result_.dag.findByName(base) == -1)
        return base;
    std::string name;
    do {
        name = strFormat("%s#%d", base.c_str(), n);
        ++n;
    } while (result_.dag.findByName(name) != -1);
    return name;
}

SimTime
WdlParser::seedWeight(const std::vector<DataItem>& payload)
{
    int64_t bytes = 0;
    for (const auto& item : payload)
        bytes += item.bytes;
    return SimTime::seconds(static_cast<double>(bytes) /
                            kInitialBandwidthEstimate);
}

std::vector<DataItem>
WdlParser::mergedPayload(const std::vector<Terminal>& exits)
{
    std::vector<DataItem> merged;
    for (const Terminal& t : exits) {
        merged.insert(merged.end(), t.payload.begin(), t.payload.end());
    }
    return merged;
}

void
WdlParser::propagatePayload(NodeId virtual_node,
                            const std::vector<DataItem>& payload)
{
    if (payload.empty())
        return;
    Dag& dag = result_.dag;
    for (size_t e : dag.outEdges(virtual_node)) {
        DagEdge& edge = dag.edge(e);
        if (dag.node(edge.to).isVirtual()) {
            propagatePayload(edge.to, payload);
        } else {
            edge.payload.insert(edge.payload.end(), payload.begin(),
                                payload.end());
            edge.weight = seedWeight(edge.payload);
        }
    }
}

void
WdlParser::connect(const std::vector<Terminal>& prev_exits,
                   const std::vector<NodeId>& next_entries)
{
    for (const Terminal& exit : prev_exits) {
        for (const NodeId entry : next_entries) {
            if (result_.dag.node(entry).isVirtual()) {
                // The fence consumes nothing; the data rides the edges to
                // the first real consumers inside the construct.
                result_.dag.addEdgeWithPayload(exit.node, entry, {});
                propagatePayload(entry, exit.payload);
            } else {
                result_.dag.addEdgeWithPayload(exit.node, entry, exit.payload,
                                               seedWeight(exit.payload));
            }
        }
    }
}

bool
WdlParser::parseFunctions(const Value* funcs)
{
    if (!funcs)
        return true;
    if (!funcs->isArray())
        return fail("'functions' must be a list");
    for (const Value& f : funcs->asArray()) {
        if (!f.isObject())
            return fail("each function declaration must be a mapping");
        cluster::FunctionSpec spec;
        spec.name = f.getOr("name", std::string());
        if (spec.name.empty())
            return fail("function declaration needs a name");
        spec.exec_mean = SimTime::millis(f.getOr("exec_ms", 100.0));
        spec.exec_sigma = f.getOr("sigma", 0.08);
        spec.mem_provisioned =
            static_cast<int64_t>(f.getOr("mem_mb", 256.0) * 1e6);
        spec.mem_peak = static_cast<int64_t>(
            f.getOr("peak_mb", toMB(spec.mem_provisioned) * 0.5) * 1e6);
        spec.failure_rate = f.getOr("failure_rate", 0.0);
        if (spec.failure_rate < 0.0 || spec.failure_rate >= 1.0)
            return fail("failure_rate must be in [0, 1) for " + spec.name);
        // Exact-unit keys override the human-friendly ms/mb forms. The
        // mb -> bytes conversion truncates, so a document emitted from a
        // parsed spec could drift by a byte per round trip; emitWdl
        // writes these keys to keep round trips byte-exact.
        if (const Value* v = f.find("exec_us")) {
            if (!v->isInt() || v->asInt() < 1)
                return fail("'exec_us' must be a positive integer for " +
                            spec.name);
            spec.exec_mean = SimTime::micros(v->asInt());
        }
        if (const Value* v = f.find("mem_bytes")) {
            if (!v->isInt() || v->asInt() < 1)
                return fail("'mem_bytes' must be a positive integer for " +
                            spec.name);
            spec.mem_provisioned = v->asInt();
        }
        if (const Value* v = f.find("peak_bytes")) {
            if (!v->isInt() || v->asInt() < 1)
                return fail("'peak_bytes' must be a positive integer for " +
                            spec.name);
            spec.mem_peak = v->asInt();
        }
        exec_estimates_[spec.name] = spec.exec_mean;
        result_.functions.push_back(std::move(spec));
    }
    return true;
}

bool
WdlParser::parseFaults(const Value* faults)
{
    if (!faults)
        return true;
    if (!faults->isObject())
        return fail("'faults' must be a mapping");

    if (const Value* events = faults->find("events")) {
        if (!events->isArray())
            return fail("'faults.events' must be a list");
        for (const Value& e : events->asArray()) {
            if (!e.isObject())
                return fail("each fault event must be a mapping");
            const std::string kind = e.getOr("kind", std::string());
            const SimTime at = SimTime::millis(e.getOr("at_ms", 0.0));
            const SimTime down = SimTime::millis(e.getOr("down_ms", 0.0));
            const int worker =
                static_cast<int>(e.getOr("worker", int64_t{-1}));
            if (at < SimTime::zero())
                return fail("fault event 'at_ms' must be >= 0");
            if (down <= SimTime::zero())
                return fail("fault event needs a positive 'down_ms'");
            if (kind == "worker_crash") {
                if (worker < 0)
                    return fail("worker_crash needs a worker index");
                result_.faults.addWorkerCrash(worker, at, down);
            } else if (kind == "link_down") {
                result_.faults.addLinkDown(worker, at, down);
            } else if (kind == "storage_brownout") {
                const double factor = e.getOr("factor", 4.0);
                if (factor < 1.0)
                    return fail("storage_brownout 'factor' must be >= 1");
                result_.faults.addStorageBrownout(at, down, factor);
            } else if (kind == "master_crash") {
                result_.faults.addMasterCrash(at, down);
            } else {
                return fail("unknown fault kind '" + kind +
                            "' (expected worker_crash/link_down/"
                            "storage_brownout/master_crash)");
            }
        }
        result_.has_faults = true;
        return true;
    }

    if (const Value* seed = faults->find("seed")) {
        if (!seed->isNumber())
            return fail("'faults.seed' must be a number");
        const double horizon_ms = faults->getOr("horizon_ms", 10000.0);
        const int workers =
            static_cast<int>(faults->getOr("workers", int64_t{7}));
        if (horizon_ms <= 0.0)
            return fail("'faults.horizon_ms' must be positive");
        if (workers < 1)
            return fail("'faults.workers' must be >= 1");
        sim::RandomFaultParams params;
        if (const Value* profile = faults->find("profile")) {
            if (!profile->isString() ||
                !sim::RandomFaultParams::preset(profile->asString(),
                                                params)) {
                return fail("unknown fault profile (expected light/heavy/"
                            "storage-hostile)");
            }
        }
        params.crash_rate_per_min =
            faults->getOr("crash_rate_per_min", params.crash_rate_per_min);
        params.link_rate_per_min =
            faults->getOr("link_rate_per_min", params.link_rate_per_min);
        params.brownout_rate_per_min = faults->getOr(
            "brownout_rate_per_min", params.brownout_rate_per_min);
        params.master_crash_rate_per_min = faults->getOr(
            "master_crash_rate_per_min", params.master_crash_rate_per_min);
        if (params.crash_rate_per_min < 0.0 ||
            params.link_rate_per_min < 0.0 ||
            params.brownout_rate_per_min < 0.0 ||
            params.master_crash_rate_per_min < 0.0) {
            return fail("fault rates must be >= 0");
        }
        result_.faults = sim::FaultSchedule::random(
            static_cast<uint64_t>(seed->asDouble()), workers,
            SimTime::millis(horizon_ms), params);
        result_.has_faults = true;
        return true;
    }

    return fail("'faults' needs an 'events' list or a 'seed'");
}

bool
WdlParser::parseCluster(const Value* cluster)
{
    if (!cluster)
        return true;
    if (!cluster->isObject())
        return fail("'cluster' must be a mapping");
    if (!checkKeys(*cluster, "'cluster'",
                   {"nodes", "seed", "cores", "memory_gb", "nic_mb_s",
                    "big_fraction", "big_multiplier", "slow_nic_fraction",
                    "slow_nic_multiplier", "hop_latency_ms"}))
        return false;
    cluster::FleetSpec spec;
    const int64_t nodes = cluster->getOr("nodes", int64_t{0});
    if (nodes < 1)
        return fail("'cluster.nodes' must be >= 1");
    spec.nodes = static_cast<uint32_t>(nodes);
    spec.seed = static_cast<uint64_t>(
        cluster->getOr("seed", int64_t{42}));
    spec.base_cores =
        static_cast<int>(cluster->getOr("cores", int64_t{8}));
    if (spec.base_cores < 1)
        return fail("'cluster.cores' must be >= 1");
    const double memory_gb = cluster->getOr("memory_gb", 32.0);
    if (memory_gb <= 0.0)
        return fail("'cluster.memory_gb' must be positive");
    spec.base_memory =
        static_cast<int64_t>(memory_gb * static_cast<double>(kGiB));
    const double nic_mb_s = cluster->getOr("nic_mb_s", 100.0);
    if (nic_mb_s <= 0.0)
        return fail("'cluster.nic_mb_s' must be positive");
    spec.base_bandwidth = nic_mb_s * 1e6;
    spec.big_node_fraction = cluster->getOr("big_fraction", 0.0);
    spec.big_core_multiplier = cluster->getOr("big_multiplier", 2.0);
    spec.slow_nic_fraction = cluster->getOr("slow_nic_fraction", 0.0);
    spec.slow_nic_multiplier =
        cluster->getOr("slow_nic_multiplier", 0.25);
    if (spec.big_node_fraction < 0.0 || spec.big_node_fraction > 1.0 ||
        spec.slow_nic_fraction < 0.0 || spec.slow_nic_fraction > 1.0)
        return fail("cluster heterogeneity fractions must lie in [0, 1]");
    if (spec.big_core_multiplier < 1.0)
        return fail("'cluster.big_multiplier' must be >= 1");
    if (spec.slow_nic_multiplier <= 0.0 ||
        spec.slow_nic_multiplier > 1.0)
        return fail("'cluster.slow_nic_multiplier' must lie in (0, 1]");
    const double hop_ms = cluster->getOr("hop_latency_ms", 0.5);
    if (hop_ms <= 0.0)
        return fail("'cluster.hop_latency_ms' must be positive");
    spec.hop_latency = SimTime::millis(hop_ms);
    result_.fleet = spec;
    result_.has_cluster = true;
    return true;
}

bool
WdlParser::parseDurability(const Value* durability)
{
    if (!durability)
        return true;
    if (!durability->isObject())
        return fail("'durability' must be a mapping");
    if (!checkKeys(*durability, "'durability'",
                   {"mode", "append_latency_us", "batch_window_us",
                    "batch_max_records"}))
        return false;
    WdlResult::DurabilitySpec spec;
    spec.mode = durability->getOr("mode", std::string("sync"));
    if (spec.mode != "sync" && spec.mode != "group_commit" &&
        spec.mode != "speculative") {
        return fail("'durability.mode' must be sync, group_commit or "
                    "speculative");
    }
    spec.append_latency_us =
        durability->getOr("append_latency_us", 800.0);
    if (spec.append_latency_us < 0.0)
        return fail("'durability.append_latency_us' must be >= 0");
    spec.batch_window_us = durability->getOr("batch_window_us", 300.0);
    if (spec.batch_window_us < 0.0)
        return fail("'durability.batch_window_us' must be >= 0");
    spec.batch_max_records = static_cast<int>(
        durability->getOr("batch_max_records", int64_t{16}));
    if (spec.batch_max_records < 1)
        return fail("'durability.batch_max_records' must be >= 1");
    result_.durability = spec;
    result_.has_durability = true;
    return true;
}

bool
WdlParser::parseSlo(const Value* slo)
{
    if (!slo)
        return true;
    if (!slo->isObject())
        return fail("'slo' must be a mapping");
    if (!checkKeys(*slo, "'slo'",
                   {"deadline_ms", "target_p99_ms", "miss_budget",
                    "short_window_ms", "long_window_ms", "fire_burn",
                    "clear_burn"}))
        return false;
    WdlResult::SloSpec spec;
    spec.deadline_ms = slo->getOr("deadline_ms", 1000.0);
    if (spec.deadline_ms <= 0.0)
        return fail("'slo.deadline_ms' must be > 0");
    spec.target_p99_ms = slo->getOr("target_p99_ms", 0.0);
    if (spec.target_p99_ms < 0.0)
        return fail("'slo.target_p99_ms' must be >= 0");
    spec.miss_budget = slo->getOr("miss_budget", 0.01);
    if (spec.miss_budget <= 0.0 || spec.miss_budget > 1.0)
        return fail("'slo.miss_budget' must be in (0, 1]");
    spec.short_window_ms = slo->getOr("short_window_ms", 1000.0);
    spec.long_window_ms = slo->getOr("long_window_ms", 10000.0);
    if (spec.short_window_ms <= 0.0 || spec.long_window_ms <= 0.0)
        return fail("'slo' windows must be > 0");
    if (spec.short_window_ms > spec.long_window_ms)
        return fail("'slo.short_window_ms' must be <= long_window_ms");
    spec.fire_burn = slo->getOr("fire_burn", 2.0);
    spec.clear_burn = slo->getOr("clear_burn", 1.0);
    if (spec.fire_burn <= 0.0)
        return fail("'slo.fire_burn' must be > 0");
    if (spec.clear_burn < 0.0 || spec.clear_burn >= spec.fire_burn) {
        return fail("'slo.clear_burn' must be in [0, fire_burn) — "
                    "clear >= fire would flap");
    }
    result_.slo = spec;
    result_.has_slo = true;
    return true;
}

bool
WdlParser::parseDag(const Value& block)
{
    if (!block.isObject())
        return fail("'dag' must be a mapping");
    if (!checkKeys(block, "'dag'", {"nodes", "edges"}))
        return false;
    const Value* nodes = block.find("nodes");
    if (!nodes || !nodes->isArray() || nodes->asArray().empty())
        return fail("'dag' needs a non-empty 'nodes' list");
    for (const Value& n : nodes->asArray()) {
        if (!n.isObject())
            return fail("each dag node must be a mapping");
        if (!checkKeys(n, "dag node",
                       {"name", "function", "kind", "foreach_width",
                        "switch_id", "switch_branch"}))
            return false;
        DagNode node;
        node.name = n.getOr("name", std::string());
        if (node.name.empty())
            return fail("dag node needs a name");
        if (result_.dag.findByName(node.name) != -1)
            return fail("duplicate dag node name '" + node.name + "'");
        const std::string kind = n.getOr("kind", std::string("task"));
        if (kind == "task") {
            node.kind = StepKind::Task;
        } else if (kind == "virtual_start") {
            node.kind = StepKind::VirtualStart;
        } else if (kind == "virtual_end") {
            node.kind = StepKind::VirtualEnd;
        } else {
            return fail("unknown dag node kind '" + kind +
                        "' (expected task/virtual_start/virtual_end)");
        }
        node.function = n.getOr("function", std::string());
        if (node.isTask() && node.function.empty())
            return fail("dag task node '" + node.name +
                        "' needs a function");
        if (!node.isTask() && !node.function.empty())
            return fail("virtual dag node '" + node.name +
                        "' cannot carry a function");
        node.foreach_width = static_cast<int>(
            n.getOr("foreach_width", int64_t{1}));
        if (node.foreach_width < 1)
            return fail("dag node 'foreach_width' must be >= 1");
        node.switch_id =
            static_cast<int>(n.getOr("switch_id", int64_t{-1}));
        node.switch_branch =
            static_cast<int>(n.getOr("switch_branch", int64_t{-1}));
        if (node.isTask()) {
            const auto it = exec_estimates_.find(node.function);
            node.exec_estimate = it != exec_estimates_.end()
                                     ? it->second
                                     : SimTime::millis(100);
        }
        result_.dag.addNode(std::move(node));
    }
    if (const Value* edges = block.find("edges")) {
        if (!edges->isArray())
            return fail("'dag.edges' must be a list");
        for (const Value& e : edges->asArray()) {
            if (!e.isObject())
                return fail("each dag edge must be a mapping");
            if (!checkKeys(e, "dag edge", {"from", "to", "bytes", "payload"}))
                return false;
            const std::string from_name = e.getOr("from", std::string());
            const std::string to_name = e.getOr("to", std::string());
            const NodeId from = result_.dag.findByName(from_name);
            const NodeId to = result_.dag.findByName(to_name);
            if (from == -1)
                return fail("dag edge 'from' names unknown node '" +
                            from_name + "'");
            if (to == -1)
                return fail("dag edge 'to' names unknown node '" +
                            to_name + "'");
            if (from == to)
                return fail("dag edge endpoints must differ ('" +
                            from_name + "')");
            std::vector<DataItem> payload;
            if (const Value* items = e.find("payload")) {
                if (e.find("bytes"))
                    return fail("dag edge takes 'bytes' or 'payload', "
                                "not both");
                if (!items->isArray())
                    return fail("dag edge 'payload' must be a list");
                for (const Value& item : items->asArray()) {
                    if (!item.isObject())
                        return fail("each payload item must be a mapping");
                    const std::string origin_name =
                        item.getOr("origin", std::string());
                    const NodeId origin =
                        result_.dag.findByName(origin_name);
                    if (origin == -1)
                        return fail("payload 'origin' names unknown "
                                    "node '" + origin_name + "'");
                    const int64_t bytes =
                        item.getOr("bytes", int64_t{0});
                    if (bytes < 0)
                        return fail("payload 'bytes' must be >= 0");
                    payload.push_back(DataItem{origin, bytes});
                }
            } else {
                const int64_t bytes = e.getOr("bytes", int64_t{0});
                if (bytes < 0)
                    return fail("dag edge 'bytes' must be >= 0");
                if (bytes > 0)
                    payload.push_back(DataItem{from, bytes});
            }
            result_.dag.addEdgeWithPayload(from, to, std::move(payload));
            const size_t idx = result_.dag.edgeCount() - 1;
            result_.dag.edge(idx).weight =
                seedWeight(result_.dag.edge(idx).payload);
        }
    }
    const ValidationResult check = validate(result_.dag);
    if (!check.ok)
        return fail("invalid 'dag': " + check.error);
    return true;
}

bool
WdlParser::parseGenerate(const Value& block, const std::string& doc_name)
{
    GenSpec spec;
    std::string error;
    if (!genSpecFromJson(block, spec, error))
        return fail(error);
    GeneratedWorkflow gen = generate(spec, doc_name);
    if (!gen.ok())
        return fail(gen.error);
    result_.dag = std::move(gen.dag);
    for (auto& f : gen.functions) {
        exec_estimates_[f.name] = f.exec_mean;
        result_.functions.push_back(std::move(f));
    }
    return true;
}

bool
WdlParser::parseTask(const Value& step, const SwitchContext& ctx,
                     int foreach_width, Segment& out)
{
    const std::string function = step.getOr("task", std::string());
    if (function.empty())
        return fail("task step needs a function name");

    int64_t output_bytes = step.getOr("output_bytes", int64_t{0});
    if (const Value* v = step.find("output_kb"); v && v->isNumber())
        output_bytes = static_cast<int64_t>(v->asDouble() * 1e3);
    if (const Value* v = step.find("output_mb"); v && v->isNumber())
        output_bytes = static_cast<int64_t>(v->asDouble() * 1e6);
    if (output_bytes < 0)
        return fail("task '" + function + "' has negative output size");

    DagNode node;
    node.name = uniqueName(step.getOr("name", function));
    node.function = function;
    node.kind = StepKind::Task;
    node.foreach_width = foreach_width;
    node.switch_id = ctx.switch_id;
    node.switch_branch = ctx.branch;
    const auto it = exec_estimates_.find(function);
    node.exec_estimate =
        it != exec_estimates_.end() ? it->second : SimTime::millis(100);

    const NodeId id = result_.dag.addNode(std::move(node));
    out.entries = {id};
    Terminal t;
    t.node = id;
    if (output_bytes > 0)
        t.payload.push_back(DataItem{id, output_bytes});
    out.exits = {t};
    return true;
}

bool
WdlParser::parseBranches(const Value& construct, bool is_switch,
                         const SwitchContext& outer_ctx, int foreach_width,
                         Segment& out)
{
    const Value* branches = construct.find("branches");
    if (!branches || !branches->isArray() || branches->asArray().empty())
        return fail("parallel/switch step needs a non-empty 'branches' list");
    if (is_switch && outer_ctx.switch_id >= 0)
        return fail("nested switch steps are not supported");

    const int switch_id = is_switch ? next_switch_id_++ : -1;
    const std::string label =
        construct.getOr("name", std::string(is_switch ? "switch" : "parallel"));

    DagNode vstart;
    vstart.name = uniqueName(label + ".start");
    vstart.kind = StepKind::VirtualStart;
    vstart.switch_id = switch_id;
    const NodeId start_id = result_.dag.addNode(std::move(vstart));

    DagNode vend;
    vend.name = uniqueName(label + ".end");
    vend.kind = StepKind::VirtualEnd;
    const NodeId end_id = result_.dag.addNode(std::move(vend));

    std::vector<Terminal> branch_exits;
    int branch_index = 0;
    for (const Value& branch : branches->asArray()) {
        const Value* steps = &branch;
        if (branch.isObject()) {
            steps = branch.find("steps");
            if (!steps)
                return fail("branch mapping needs a 'steps' list");
        }
        if (!steps->isArray() || steps->asArray().empty())
            return fail("each branch must be a non-empty step list");

        // A switch stamps its branch identity on the nodes inside; any
        // other construct inherits its enclosing switch context so that
        // tasks nested in a non-taken branch are still skipped.
        SwitchContext ctx = outer_ctx;
        if (is_switch) {
            ctx.switch_id = switch_id;
            ctx.branch = branch_index;
        }
        Segment seg;
        if (!parseSteps(*steps, ctx, foreach_width, seg))
            return false;
        // VirtualStart relays the incoming payload to each branch entry;
        // the actual payload is attached when the construct is wired to
        // its predecessor (see parseSteps), so the fence edges here carry
        // none. Data still reaches branch entries: the predecessor's
        // terminal payload is attached to the start->entry edges below.
        for (const NodeId entry : seg.entries)
            result_.dag.addEdge(start_id, entry, 0);
        for (const Terminal& t : seg.exits) {
            result_.dag.addEdge(t.node, end_id, 0);
            branch_exits.push_back(t);
        }
        ++branch_index;
    }

    out.entries = {start_id};
    Terminal t;
    t.node = end_id;
    t.payload = mergedPayload(branch_exits);
    out.exits = {t};
    return true;
}

bool
WdlParser::parseForeach(const Value& construct, const SwitchContext& ctx,
                        Segment& out)
{
    const int width = static_cast<int>(construct.getOr("width", int64_t{2}));
    if (width < 1)
        return fail("foreach width must be >= 1");
    const Value* steps = construct.find("steps");
    if (!steps || !steps->isArray() || steps->asArray().empty())
        return fail("foreach step needs a non-empty 'steps' list");

    const std::string label = construct.getOr("name", std::string("foreach"));

    DagNode vstart;
    vstart.name = uniqueName(label + ".start");
    vstart.kind = StepKind::VirtualStart;
    const NodeId start_id = result_.dag.addNode(std::move(vstart));

    DagNode vend;
    vend.name = uniqueName(label + ".end");
    vend.kind = StepKind::VirtualEnd;
    const NodeId end_id = result_.dag.addNode(std::move(vend));

    Segment body;
    if (!parseSteps(*steps, ctx, width, body))
        return false;
    for (const NodeId entry : body.entries)
        result_.dag.addEdge(start_id, entry, 0);
    for (const Terminal& t : body.exits)
        result_.dag.addEdge(t.node, end_id, 0);

    out.entries = {start_id};
    Terminal t;
    t.node = end_id;
    t.payload = mergedPayload(body.exits);
    out.exits = {t};
    return true;
}

bool
WdlParser::parseStep(const Value& step, const SwitchContext& ctx,
                     int foreach_width, Segment& out)
{
    if (!step.isObject())
        return fail("each step must be a mapping");
    if (step.find("task"))
        return parseTask(step, ctx, foreach_width, out);
    if (const Value* c = step.find("parallel")) {
        if (!c->isObject())
            return fail("'parallel' must be a mapping");
        return parseBranches(*c, false, ctx, foreach_width, out);
    }
    if (const Value* c = step.find("switch")) {
        if (!c->isObject())
            return fail("'switch' must be a mapping");
        return parseBranches(*c, true, ctx, foreach_width, out);
    }
    if (const Value* c = step.find("foreach")) {
        if (!c->isObject())
            return fail("'foreach' must be a mapping");
        if (foreach_width != 1)
            return fail("nested foreach steps are not supported");
        return parseForeach(*c, ctx, out);
    }
    if (const Value* c = step.find("sequence")) {
        const Value* steps = c->isObject() ? c->find("steps") : c;
        if (!steps || !steps->isArray())
            return fail("'sequence' needs a 'steps' list");
        return parseSteps(*steps, ctx, foreach_width, out);
    }
    return fail("unknown step type (expected task/sequence/parallel/"
                "switch/foreach)");
}

bool
WdlParser::parseSteps(const Value& steps, const SwitchContext& ctx,
                      int foreach_width, Segment& out)
{
    if (!steps.isArray() || steps.asArray().empty())
        return fail("'steps' must be a non-empty list");

    std::vector<Terminal> prev_exits;
    bool first = true;
    for (const Value& step : steps.asArray()) {
        Segment seg;
        if (!parseStep(step, ctx, foreach_width, seg))
            return false;
        if (first) {
            out.entries = seg.entries;
            first = false;
        } else {
            connect(prev_exits, seg.entries);
        }
        prev_exits = std::move(seg.exits);
    }
    out.exits = std::move(prev_exits);
    return true;
}

WdlResult
WdlParser::run()
{
    if (!doc_.isObject()) {
        fail("workflow document must be a mapping");
        return std::move(result_);
    }
    const std::string doc_name = doc_.getOr("name", std::string());
    result_.dag = Dag(doc_name.empty() ? "workflow" : doc_name);

    if (!parseFunctions(doc_.find("functions")))
        return std::move(result_);
    if (!parseFaults(doc_.find("faults")))
        return std::move(result_);
    if (!parseCluster(doc_.find("cluster")))
        return std::move(result_);
    if (!parseDurability(doc_.find("durability")))
        return std::move(result_);
    if (!parseSlo(doc_.find("slo")))
        return std::move(result_);

    const Value* steps = doc_.find("steps");
    const Value* dag = doc_.find("dag");
    const Value* gen = doc_.find("generate");
    const int bodies = (steps ? 1 : 0) + (dag ? 1 : 0) + (gen ? 1 : 0);
    if (bodies != 1) {
        fail("workflow needs exactly one of 'steps', 'dag' or "
             "'generate'");
        return std::move(result_);
    }
    if (gen) {
        if (doc_.find("functions")) {
            fail("'generate' supplies its own functions — drop the "
                 "'functions' block");
            return std::move(result_);
        }
        // An absent document name means the generator derives one from
        // its spec ("gen-<regime>-s<seed>-n<nodes>").
        if (!parseGenerate(*gen, doc_name))
            return std::move(result_);
        return std::move(result_);
    }
    if (dag) {
        if (!parseDag(*dag))
            return std::move(result_);
        return std::move(result_);
    }
    Segment top;
    SwitchContext no_switch;
    if (!parseSteps(*steps, no_switch, 1, top))
        return std::move(result_);
    return std::move(result_);
}

}  // namespace

WdlResult
parseWdl(const json::Value& doc)
{
    return WdlParser(doc).run();
}

namespace {

/** True when yamllite's scalar inference would not read `s` back as the
 *  same string (number/bool/null literals, or empty). */
bool
looksNonString(const std::string& s)
{
    if (s.empty() || s == "~" || s == "null" || s == "Null" ||
        s == "NULL" || s == "true" || s == "True" || s == "TRUE" ||
        s == "false" || s == "False" || s == "FALSE") {
        return true;
    }
    char* end = nullptr;
    std::strtod(s.c_str(), &end);
    return end && *end == '\0' && end != s.c_str();
}

/** Renders a string scalar, double-quoting only when required, so the
 *  common identifier-shaped names stay stable and readable. */
std::string
yamlScalar(const std::string& s)
{
    bool plain = !looksNonString(s);
    if (plain) {
        for (const char c : s) {
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '_' && c != '.' && c != '-') {
                plain = false;
                break;
            }
        }
    }
    if (plain)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    out += '"';
    return out;
}

/** Shortest round-trip decimal rendering (std::to_chars): the emitted
 *  text re-parses to the identical double, so emit-parse-emit cycles are
 *  byte-stable. */
std::string
fmtDouble(double d)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), d);
    return std::string(buf, res.ptr);
}

}  // namespace

std::string
emitWdl(const Dag& dag, const std::vector<cluster::FunctionSpec>& functions)
{
    std::string out;
    out += "name: " + yamlScalar(dag.name()) + "\n";
    if (!functions.empty()) {
        out += "functions:\n";
        for (const cluster::FunctionSpec& f : functions) {
            out += "  - {name: " + yamlScalar(f.name) +
                   ", exec_us: " + std::to_string(f.exec_mean.micros()) +
                   ", sigma: " + fmtDouble(f.exec_sigma) +
                   ", mem_bytes: " + std::to_string(f.mem_provisioned) +
                   ", peak_bytes: " + std::to_string(f.mem_peak);
            if (f.failure_rate != 0.0)
                out += ", failure_rate: " + fmtDouble(f.failure_rate);
            out += "}\n";
        }
    }
    out += "dag:\n";
    out += "  nodes:\n";
    for (const DagNode& node : dag.nodes()) {
        out += "    - {name: " + yamlScalar(node.name);
        if (node.kind == StepKind::VirtualStart)
            out += ", kind: virtual_start";
        else if (node.kind == StepKind::VirtualEnd)
            out += ", kind: virtual_end";
        else
            out += ", function: " + yamlScalar(node.function);
        if (node.foreach_width > 1)
            out += ", foreach_width: " + std::to_string(node.foreach_width);
        if (node.switch_id >= 0)
            out += ", switch_id: " + std::to_string(node.switch_id);
        if (node.switch_branch >= 0)
            out +=
                ", switch_branch: " + std::to_string(node.switch_branch);
        out += "}\n";
    }
    if (dag.edgeCount() > 0) {
        out += "  edges:\n";
        for (const DagEdge& edge : dag.edges()) {
            out += "    - {from: " + yamlScalar(dag.node(edge.from).name) +
                   ", to: " + yamlScalar(dag.node(edge.to).name);
            if (edge.payload.size() == 1 &&
                edge.payload[0].origin == edge.from) {
                out += ", bytes: " + std::to_string(edge.payload[0].bytes);
            } else if (!edge.payload.empty()) {
                out += ", payload: [";
                for (size_t i = 0; i < edge.payload.size(); ++i) {
                    if (i > 0)
                        out += ", ";
                    out += "{origin: " +
                           yamlScalar(dag.node(edge.payload[i].origin).name) +
                           ", bytes: " +
                           std::to_string(edge.payload[i].bytes) + "}";
                }
                out += "]";
            }
            out += "}\n";
        }
    }
    return out;
}

WdlResult
parseWdlYaml(std::string_view yaml_text)
{
    json::ParseResult parsed = yaml::parse(yaml_text);
    if (!parsed.ok()) {
        WdlResult result;
        result.error = strFormat("yaml error at line %zu: %s", parsed.line,
                                 parsed.error.c_str());
        return result;
    }
    return parseWdl(*parsed.value);
}

}  // namespace faasflow::workflow
