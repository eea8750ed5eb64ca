#pragma once

// The benchmark's workloads: one fixed configuration of the pipeline per
// name, and the seeded script generators that feed it. The generators use
// their own splitmix64 stream rather than the library's Rng, so a change
// to the library can never change the benchmark's inputs.

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "graph/generators.hpp"
#include "trace/computation.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

using syncts::Graph;
using syncts::SyncComputation;

/// One workload: topology, traffic shape and the protocol / index /
/// verification configuration the pipeline runs it with.
struct WorkloadSpec {
    const char* name;
    bool complete_topology;  ///< complete(16); otherwise grid 16x16
    std::size_t messages;
    std::size_t burst;  ///< per-channel burst length; 0 = edge-uniform
    bool batched_wire;  ///< batching + ACK coalescing + delta frames
    bool durable;       ///< WAL and snapshot recovery layer on
    double drop;        ///< network drop probability
    bool observed;      ///< MetricsRegistry + FlightRecorder attached
    std::size_t window;  ///< IncrementalPrecedenceIndex resident stamps
    /// StreamingClosure attached to the index; every other query then
    /// asks about stamps that have left the window, so the closure
    /// answers it.
    bool closure;
    bool audit;          ///< Theorem 4 verification with a 2-wide pool
};

/// Precedence queries per pipeline pass: 256 timed runs of kQueryBatch
/// per round where all are resident. The list (64 KB) stays in the core's
/// private cache with the pool's stamps.
inline constexpr std::size_t kQueriesPerPass = 8192;

/// Resident queries are timed in runs of this many; a latency sample is
/// one run's wall time ÷ kQueryBatch, so the clock read costs each query
/// about 1 ns.
inline constexpr std::size_t kQueryBatch = 32;

/// Times each pass runs its resident queries; the pass reports the
/// lowest round median as its p50, and the run the lowest pass.
inline constexpr std::size_t kQueryRounds = 64;

/// Resident queries pair ids from a pool of this many messages spread
/// over the index window's final contents. The pooled stamps (88 KB at
/// d=176) stay in the core's private cache, so a query times the O(d)
/// compare rather than other tenants' use of the shared cache: with the
/// newest 1024 stamps (1.4 MB) as the pool the p50's quartile spread over
/// ten seeds of durable_bursty reached 30%. How far a compare scans before it exits depends on which
/// channels were busy around the pooled messages; on durable_bursty,
/// pooling from the whole 16384-message window instead of its newest half
/// halved how much the mean scan length moves between seeds.
inline constexpr std::size_t kQueryPoolStamps = 64;

inline constexpr WorkloadSpec kWorkloads[] = {
    {.name = "live_grid",
     .complete_topology = false,
     .messages = 60000,
     .burst = 0,
     .batched_wire = false,
     .durable = false,
     .drop = 0.0,
     .observed = false,
     .window = 16384,
     .closure = false,
     .audit = false},
    {.name = "durable_bursty",
     .complete_topology = false,
     .messages = 40000,
     .burst = 16,
     .batched_wire = true,
     .durable = true,
     .drop = 0.01,
     .observed = true,
     .window = 16384,
     .closure = false,
     .audit = false},
    {.name = "audit_small",
     .complete_topology = true,
     .messages = 8000,
     .burst = 0,
     .batched_wire = false,
     .durable = false,
     .drop = 0.0,
     .observed = false,
     .window = 16384,
     .closure = false,
     .audit = true},
    {.name = "audit_large",
     .complete_topology = true,
     .messages = 17000,
     .burst = 0,
     .batched_wire = false,
     .durable = false,
     .drop = 0.0,
     .observed = false,
     .window = 4096,
     .closure = true,
     .audit = true},
};

inline const WorkloadSpec* find_workload(std::string_view name) {
    for (const WorkloadSpec& spec : kWorkloads) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

/// splitmix64: the benchmark's own deterministic stream.
class SeedStream {
public:
    explicit SeedStream(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        state_ += 0x9E3779B97F4A7C15ull;
        std::uint64_t z = state_;
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /// Uniform in [0, bound), bound >= 1 (multiply-shift reduction).
    std::uint64_t below(std::uint64_t bound) {
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

private:
    std::uint64_t state_;
};

/// Derives independent streams (script, queries, network) from one seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    SeedStream mix(seed ^ (stream * 0xD1B54A32D192ED03ull));
    return mix.next();
}

inline Graph workload_topology(const WorkloadSpec& spec) {
    return spec.complete_topology ? syncts::topology::complete(16)
                                  : syncts::topology::grid(16, 16);
}

/// Edge-uniform random traffic: every message picks a channel uniformly
/// and its direction by a fair coin.
inline SyncComputation edge_uniform_script(const Graph& topology,
                                           std::size_t messages,
                                           std::uint64_t seed) {
    SeedStream rng(seed);
    SyncComputation script(topology);
    const auto edges = topology.edges();
    for (std::size_t i = 0; i < messages; ++i) {
        const syncts::Edge& edge = edges[rng.below(edges.size())];
        if (rng.below(2) == 0) {
            script.add_message(edge.u, edge.v);
        } else {
            script.add_message(edge.v, edge.u);
        }
    }
    return script;
}

/// Per-channel bursts: each burst picks a channel uniformly and exchanges
/// `burst` messages on it, alternating direction from a random first
/// sender. `messages` is rounded down to whole bursts.
inline SyncComputation bursty_script(const Graph& topology,
                                     std::size_t messages, std::size_t burst,
                                     std::uint64_t seed) {
    SeedStream rng(seed);
    SyncComputation script(topology);
    const auto edges = topology.edges();
    for (std::size_t b = 0; b < messages / burst; ++b) {
        const syncts::Edge& edge = edges[rng.below(edges.size())];
        const bool forward_first = rng.below(2) == 0;
        for (std::size_t k = 0; k < burst; ++k) {
            if ((k % 2 == 0) == forward_first) {
                script.add_message(edge.u, edge.v);
            } else {
                script.add_message(edge.v, edge.u);
            }
        }
    }
    return script;
}

inline SyncComputation workload_script(const WorkloadSpec& spec,
                                       const Graph& topology,
                                       std::uint64_t seed) {
    const std::uint64_t script_seed = derive_seed(seed, 1);
    return spec.burst == 0
               ? edge_uniform_script(topology, spec.messages, script_seed)
               : bursty_script(topology, spec.messages, spec.burst,
                               script_seed);
}

inline std::string sytr_bytes(const SyncComputation& script) {
    std::ostringstream out;
    syncts::write_binary_computation(out, script);
    return std::move(out).str();
}

/// Self-test of the generators: the same seed gives a byte-identical
/// SYTR encoding of the script, another seed a different one, and a
/// bursty script is exactly whole bursts of `burst` alternating messages
/// on one channel. Returns an empty string on success, else the failure.
inline std::string generator_self_test(const WorkloadSpec& spec,
                                       std::uint64_t seed) {
    const Graph topology = workload_topology(spec);
    const SyncComputation first = workload_script(spec, topology, seed);
    const SyncComputation again = workload_script(spec, topology, seed);
    const SyncComputation other = workload_script(spec, topology, seed + 1);
    if (sytr_bytes(first) != sytr_bytes(again)) {
        return "same seed gave different SYTR bytes";
    }
    if (sytr_bytes(first) == sytr_bytes(other)) {
        return "different seeds gave identical SYTR bytes";
    }
    const std::size_t expected =
        spec.burst == 0 ? spec.messages
                        : spec.messages / spec.burst * spec.burst;
    if (first.num_messages() != expected) return "wrong message count";
    if (spec.burst == 0) return {};
    const auto messages = first.messages();
    for (std::size_t start = 0; start < messages.size(); start += spec.burst) {
        const syncts::SyncMessage& head = messages[start];
        for (std::size_t k = 1; k < spec.burst; ++k) {
            const syncts::SyncMessage& m = messages[start + k];
            const syncts::SyncMessage& prev = messages[start + k - 1];
            if (m.sender != prev.receiver || m.receiver != prev.sender ||
                !(m.involves(head.sender) && m.involves(head.receiver))) {
                return "burst at message " + std::to_string(start) +
                       " is not one channel alternating direction";
            }
        }
    }
    return {};
}

}  // namespace perfbench
