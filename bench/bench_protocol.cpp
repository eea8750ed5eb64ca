// Experiment TAB-PROTOCOL — what the batched wire path buys.
//
// The classic rendezvous profile is 2 packets per message, each carrying
// a full d-component vector. The batched path (docs/PROTOCOL.md) attacks
// both factors: ACK coalescing rides acknowledgements on the next
// outbound packet to the same peer (v4 batch containers), and delta
// encoding (v3) ships only the components that moved since the channel's
// last frame. This bench sweeps the option stacks over a wide
// decomposition with per-channel bursty traffic — the workload shape the
// extensions are built for — and reports bytes per message *including a
// nominal 28-byte per-packet transport overhead* (IPv4 20 + UDP 8: the
// cost a real deployment pays per packet, which batching amortizes),
// packets per message, the batch factor (frames per wire packet),
// rendezvous throughput, and heap allocations per message (counted by
// bench_json.hpp's allocator over the timed runs). Every run is verified
// bit-identical to the direct Fig. 5 simulator. A final row repeats the
// full stack on a lossy network: resyncs cost bytes but correctness and
// most of the savings survive.

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_json.hpp"
#include "clocks/online_clock.hpp"
#include "decomp/cover_decomposer.hpp"
#include "graph/generators.hpp"
#include "runtime/synchronizer.hpp"

using namespace syncts;

namespace {

/// Nominal per-packet transport overhead: IPv4 (20) + UDP (8) headers.
constexpr double kPacketOverheadBytes = 28.0;

struct Row {
    const char* name;
    double bytes_per_msg;    // payload + 28B/packet overhead
    double payload_per_msg;  // frame/container bytes only
    double packets_per_msg;
    double batch_factor;  // frames per wire packet
    double msgs_per_sec;
    std::size_t allocs;  // heap allocations across the timed runs
    std::uint64_t acks_coalesced;
    std::uint64_t delta_frames;
    std::uint64_t delta_resyncs;
    bool exact;
};

/// Per-channel bursts in both directions: each edge exchanges `burst`
/// alternating messages, so a receiver's pending ACK can ride its own
/// next REQ back to the sender (the coalescing win) and consecutive
/// frames on a channel differ in only a few components (the delta win).
/// Uniform random traffic has neither property — deltas break even there
/// because most of a wide vector moves between two visits to a channel.
SyncComputation bursty_workload(const Graph& topology, std::size_t burst) {
    SyncComputation script(topology);
    for (const Edge& edge : topology.edges()) {
        for (std::size_t k = 0; k < burst; ++k) {
            if (k % 2 == 0) {
                script.add_message(edge.u, edge.v);
            } else {
                script.add_message(edge.v, edge.u);
            }
        }
    }
    return script;
}

Row run_stack(const char* name, const SyncComputation& script,
              const std::vector<VectorTimestamp>& expected,
              std::shared_ptr<const EdgeDecomposition> decomposition,
              const ProtocolOptions& protocol, double drop, int repeats) {
    Row row{.name = name,
            .bytes_per_msg = 0,
            .payload_per_msg = 0,
            .packets_per_msg = 0,
            .batch_factor = 0,
            .msgs_per_sec = 0,
            .allocs = 0,
            .acks_coalesced = 0,
            .delta_frames = 0,
            .delta_resyncs = 0,
            .exact = true};
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::uint64_t frames = 0;
    std::uint64_t messages = 0;
    const std::size_t allocs_before = bench::allocations();
    const auto start = std::chrono::steady_clock::now();
    for (int repeat = 1; repeat <= repeats; ++repeat) {
        SynchronizerOptions options;
        options.seed = static_cast<std::uint64_t>(repeat);
        options.latency_lo = 1;
        options.latency_hi = 4;
        options.protocol = protocol;
        options.faults.seed = static_cast<std::uint64_t>(repeat) * 6271;
        options.faults.drop_probability = drop;
        const SynchronizerResult result =
            run_rendezvous_protocol(decomposition, script, options);
        bytes += result.protocol.bytes_sent;
        packets += result.protocol.wire_packets;
        frames += result.protocol.delta_frames + result.protocol.full_frames;
        messages += result.message_stamps.size();
        row.acks_coalesced += result.protocol.acks_coalesced;
        row.delta_frames += result.protocol.delta_frames;
        row.delta_resyncs += result.protocol.delta_resyncs;
        for (std::size_t i = 0; i < result.message_stamps.size(); ++i) {
            row.exact = row.exact && result.message_stamps[i] ==
                                         expected[result.script_message[i]];
        }
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    row.allocs = bench::allocations() - allocs_before;
    const double m = static_cast<double>(messages);
    row.payload_per_msg = static_cast<double>(bytes) / m;
    row.packets_per_msg = static_cast<double>(packets) / m;
    row.bytes_per_msg =
        row.payload_per_msg + kPacketOverheadBytes * row.packets_per_msg;
    row.batch_factor =
        static_cast<double>(frames) / static_cast<double>(packets);
    row.msgs_per_sec = m / elapsed;
    return row;
}

void emit_protocol_json(const Row& row, std::size_t messages) {
    // Canonical bench_to_json.sh shape plus the two protocol columns;
    // ns_per_msg is derived from the row's own throughput so the merged
    // table stays comparable across stacks, and allocs counts every heap
    // allocation of the row's timed runs.
    std::printf("{\"bench\":\"protocol_%s\",\"n\":%zu,\"ns_per_msg\":%.1f,"
                "\"allocs\":%zu,\"threads\":1,\"epochs\":1,"
                "\"bytes_per_msg\":%.1f,\"batch_factor\":%.2f}\n",
                row.name, messages, 1e9 / row.msgs_per_sec, row.allocs,
                row.bytes_per_msg,
                row.batch_factor);
}

}  // namespace

int main() {
    const Graph topology = topology::grid(16, 16);
    const SyncComputation script = bursty_workload(topology, 32);
    auto decomposition = std::make_shared<const EdgeDecomposition>(
        default_decomposition(topology));
    OnlineTimestamper direct(decomposition);
    const std::vector<VectorTimestamp> expected =
        direct.timestamp_computation(script);

    std::printf(
        "TAB-PROTOCOL: batched wire path vs the classic profile "
        "(grid 16x16, d=%zu, %zu msgs x 3 runs, +%g B/packet overhead)\n",
        decomposition->size(), script.num_messages(), kPacketOverheadBytes);

    ProtocolOptions baseline;  // all off: classic 2-packets-per-message
    ProtocolOptions batched;
    batched.batching = true;
    batched.coalesce_acks = true;
    ProtocolOptions delta_only;
    delta_only.delta = true;
    ProtocolOptions full;
    full.batching = true;
    full.coalesce_acks = true;
    full.delta = true;

    const int repeats = 3;
    std::vector<Row> rows;
    rows.push_back(run_stack("baseline", script, expected, decomposition,
                             baseline, 0.0, repeats));
    rows.push_back(run_stack("batch", script, expected, decomposition,
                             batched, 0.0, repeats));
    rows.push_back(run_stack("delta", script, expected, decomposition,
                             delta_only, 0.0, repeats));
    rows.push_back(run_stack("full", script, expected, decomposition, full,
                             0.0, repeats));
    rows.push_back(run_stack("full_lossy", script, expected, decomposition,
                             full, 0.05, repeats));

    std::printf("%12s %11s %13s %10s %12s %10s %11s %10s %8s %8s\n",
                "stack", "bytes/msg", "payload/msg", "pkts/msg",
                "batchfactor", "msgs/s", "allocs/msg", "coalesced",
                "resyncs", "exact");
    const double timed_msgs =
        static_cast<double>(script.num_messages()) * repeats;
    for (const Row& row : rows) {
        std::printf("%12s %11.1f %13.1f %10.3f %11.2fx %10.0f %11.1f %10llu "
                    "%8llu %8s\n",
                    row.name, row.bytes_per_msg, row.payload_per_msg,
                    row.packets_per_msg, row.batch_factor, row.msgs_per_sec,
                    static_cast<double>(row.allocs) / timed_msgs,
                    static_cast<unsigned long long>(row.acks_coalesced),
                    static_cast<unsigned long long>(row.delta_resyncs),
                    row.exact ? "yes" : "NO");
    }
    const double reduction =
        rows[0].bytes_per_msg / rows[3].bytes_per_msg;
    std::printf(
        "\nfull stack: %.2fx fewer bytes/msg than the classic profile\n"
        "(every row verified bit-identical to the direct Fig. 5 simulator;\n"
        " the lossy row pays full-vector resyncs for every shadow break)\n",
        reduction);

    for (const Row& row : rows) {
        emit_protocol_json(row, script.num_messages());
    }
    bool ok = reduction >= 3.0;
    for (const Row& row : rows) ok = ok && row.exact;
    if (!ok) {
        std::printf("FAIL: reduction %.2fx below 3x or inexact stamps\n",
                    reduction);
        return 1;
    }
    return 0;
}
