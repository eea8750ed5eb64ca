// Experiment TAB-PAR — the offline analyses.
//
// The offline analyses (ground-truth transitive closure, the O(M²)
// encoding verification, repeated precedence queries) are the only parts
// of the reproduction whose cost grows faster than the trace. For each
// topology family the bench times:
//   closure — message_poset, one serial leg (Poset::close is serial)
//   verify  — the Theorem 4 sweep twice: serial (AnalysisOptions{}) and
//             sharded across a Pool at the machine's width
// and reports wall ms for each plus the verify speedup. Determinism
// contract: both verify legs must produce identical mismatch counts
// (checked here), so the speedup column is the only difference. Every
// JSON row's "bench" key names its family (analysis_closure_complete16,
// analysis_verify_tri8, ...); the two verify legs differ in "threads".
//
// A third section hammers PrecedenceIndex with K queries drawn from a
// small pair pool, so repeats dominate: the memo turns the O(width)
// compare into a hash probe, and the hit-rate column shows the memo
// doing the work.
//
// A fourth section (TAB-STREAM, docs/STREAMING.md) covers the
// out-of-core refactor: it first proves the frontier-retiring
// StreamingClosure bit-identical to the batch closure at bench scale,
// then drives a procedurally generated trace (no materialized
// SyncComputation, so the only resident state is the streaming stack
// itself) through IncrementalPrecedenceIndex and gates on a flat RSS
// plateau — if memory grows past the warmed-up plateau the bench exits
// nonzero, which is the regression tripwire CI's streaming-soak job
// leans on. Its JSON row carries two extra columns, "resident_mb" and
// "stream_msgs_per_sec".
//
// Usage: bench_analysis [messages] [threads] [stream_msgs] [budget_mb]
//   messages     workload size per study (default 20000)
//   threads      pool width for the pooled verify leg (default: hardware)
//   stream_msgs  streamed-ingestion row size (default 2000000; the
//                10M-trace acceptance run passes 10000000)
//   budget_mb    absolute peak-RSS budget for the streamed row, on top
//                of the always-on plateau-flatness gate (0 = plateau
//                gate only, the default — sanitized builds inflate RSS)
//
// On a 1-core host the pooled verify leg still runs through the pool's
// chunked path with a single participant, so the speedup column reads
// ~1.0x — the point there is the determinism check, not the scaling.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "core/causality.hpp"
#include "core/precedence_index.hpp"
#include "core/streaming_index.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"
#include "poset/streaming_closure.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"

using namespace syncts;

namespace {

/// "<prefix>_<family>", the row's unique `bench` key.
std::string row_name(const char* prefix, const char* family) {
    return std::string(prefix) + "_" + family;
}

void study(const char* family, const Graph& g, std::size_t messages,
           std::uint64_t seed, Pool& pool) {
    Rng rng(seed);
    WorkloadOptions workload;
    workload.num_messages = messages;
    const SyncComputation c = random_computation(g, workload, rng);
    const SyncSystem system{Graph(g)};
    const TimestampedTrace trace = system.analyze(c);

    AnalysisOptions parallel;
    parallel.pool = &pool;
    parallel.threads = pool.threads();

    // Untimed warm-up closure: faulting in ~2·M²/8 bytes of bitset pages
    // dominates a cold first run, and the allocator hands the warmed
    // pages to the timed closure once this Poset dies.
    { const Poset warmup = message_poset(c); (void)warmup.size(); }

    // Closure: one serial leg — Poset::close has no pooled path.
    Poset truth(0);
    const double closure_ns = bench::measure_and_emit(
        row_name("analysis_closure", family).c_str(), messages,
        [&] { truth = message_poset(c); }, 1);

    // Verification: the O(M²) Theorem 4 sweep over the closed poset.
    const std::string verify = row_name("analysis_verify", family);
    std::size_t serial_mismatches = 0;
    const double verify_serial_ns = bench::measure_and_emit(
        verify.c_str(), messages,
        [&] {
            serial_mismatches = encoding_mismatches(truth, trace.stamps());
        },
        1);
    std::size_t parallel_mismatches = 0;
    const double verify_parallel_ns = bench::measure_and_emit(
        verify.c_str(), messages,
        [&] {
            parallel_mismatches =
                encoding_mismatches(truth, trace.stamps(), parallel);
        },
        pool.threads());

    const double ms = static_cast<double>(messages) / 1e6;
    std::printf("%-18s %6zu %2zu %9.1f %9zu %9.1f %9.1f %7.2fx %s\n", family,
                messages, pool.threads(), closure_ns * ms,
                truth.relation_count(), verify_serial_ns * ms,
                verify_parallel_ns * ms, verify_serial_ns / verify_parallel_ns,
                serial_mismatches == parallel_mismatches
                    ? (serial_mismatches == 0 ? "exact" : "FAIL")
                    : "DIVERGED");
}

void query_study(const Graph& g, std::size_t messages, std::size_t queries,
                 std::uint64_t seed) {
    Rng rng(seed);
    WorkloadOptions workload;
    workload.num_messages = messages;
    const SyncComputation c = random_computation(g, workload, rng);
    const SyncSystem system{Graph(g)};
    const TimestampedTrace trace = system.analyze(c);
    const PrecedenceIndex index = system.make_precedence_index(trace);

    // A pool of queries/4 distinct pairs hit `queries` times: monitoring
    // workloads revisit hot pairs, so ~75% of lookups should memo-hit.
    const std::size_t distinct = queries / 4 == 0 ? 1 : queries / 4;
    std::vector<std::pair<MessageId, MessageId>> pairs;
    pairs.reserve(distinct);
    for (std::size_t i = 0; i < distinct; ++i) {
        pairs.emplace_back(static_cast<MessageId>(rng.below(messages)),
                           static_cast<MessageId>(rng.below(messages)));
    }
    std::size_t yes = 0;
    const double ns =
        bench::measure_and_emit("analysis_queries_complete16", queries, [&] {
            for (std::size_t q = 0; q < queries; ++q) {
                const auto& [m1, m2] = pairs[q % distinct];
                yes += index.precedes(m1, m2) ? 1u : 0u;
            }
        });
    const std::uint64_t lookups = index.memo_hits() + index.memo_misses();
    std::printf(
        "\nqueries: %zu lookups (%zu distinct pairs)  %0.1f ns/query  "
        "memo hit-rate %.1f%%  (%zu precede)\n",
        queries, distinct, ns,
        lookups == 0 ? 0.0
                     : 100.0 * static_cast<double>(index.memo_hits()) /
                           static_cast<double>(lookups),
        yes);
}

// Current resident set in MB, read from /proc/self/status (Linux).
// Returns 0.0 where the file is absent so the gate degrades to a no-op
// rather than a false failure on exotic hosts.
double read_rss_mb() {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    double mb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmRSS:", 6) == 0) {
            mb = std::strtod(line + 6, nullptr) / 1024.0;
            break;
        }
    }
    std::fclose(f);
    return mb;
}

// Leg 1 of TAB-STREAM: the frontier-retiring closure must agree with
// the batch closure bit-for-bit — same relation count, same answer on a
// sample of precedence queries. chunk_rows is deliberately tiny so the
// equivalence run crosses many retired chunks.
bool streaming_equivalence(const Graph& g, std::size_t messages,
                           std::uint64_t seed) {
    Rng rng(seed);
    WorkloadOptions workload;
    workload.num_messages = messages;
    const SyncComputation c = random_computation(g, workload, rng);
    const Poset truth = message_poset(c);

    StreamingClosureOptions options;
    options.chunk_rows = 512;
    StreamingClosure closure(g.num_vertices(), messages, options);
    const double ns = bench::measure_and_emit(
        "analysis_stream_closure_complete16", messages, [&] {
            for (const SyncMessage& m : c.messages()) {
                closure.ingest(m.sender, m.receiver);
            }
            closure.finish();
        });

    bool identical = closure.relation_count() == truth.relation_count();
    Rng probes(seed ^ 0x57AE);
    for (std::size_t q = 0; q < 4096 && identical; ++q) {
        const auto a = static_cast<MessageId>(probes.below(messages));
        const auto b = static_cast<MessageId>(probes.below(messages));
        identical = closure.less(a, b) == truth.less(a, b);
    }
    std::printf("\nstreamed closure: %zu msgs  %0.1f ms  %llu relations  %s\n",
                messages, ns * static_cast<double>(messages) / 1e6,
                static_cast<unsigned long long>(closure.relation_count()),
                identical ? "exact" : "DIVERGED");
    return identical;
}

// Leg 2 of TAB-STREAM: the flat-RSS streamed-ingestion row. Events are
// generated procedurally — nothing O(stream_msgs) is ever materialized,
// so any RSS growth is the streaming stack leaking residency. The gate:
// after a warm-up tenth of the run the window is full and RSS must
// plateau; peak RSS past that point may exceed the plateau only by an
// allocator-jitter allowance (10% + 48MB — a leak at 10M messages is
// ~1.3GB, two orders of magnitude above it). A nonzero budget_mb adds
// an absolute ceiling on top.
bool streaming_row(const Graph& g, std::size_t stream_msgs,
                   std::size_t budget_mb) {
    const SyncSystem system{Graph(g)};
    StreamingIndexOptions options;
    const std::size_t width = g.num_vertices();
    if (budget_mb > 0) {
        // Spend at most half the budget on resident stamps.
        const std::size_t stamp_bytes = width * 8;
        const std::size_t slots = budget_mb * 1024 * 1024 / 2 / stamp_bytes;
        options.window = std::max<std::size_t>(1024, slots);
    }
    IncrementalPrecedenceIndex index(system, options);

    const std::size_t num_procs = g.num_vertices();
    Rng rng(0x5757EA11);
    const std::size_t warmup = stream_msgs / 10 + 1;
    const std::size_t sample_every = stream_msgs / 64 + 1;
    double plateau_mb = 0.0;
    double peak_mb = 0.0;
    std::uint64_t probe_hits = 0;

    const std::size_t allocs_before = bench::allocations();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < stream_msgs; ++i) {
        const auto sender = static_cast<ProcessId>(rng.below(num_procs));
        const auto receiver = static_cast<ProcessId>(
            (sender + 1 + rng.below(num_procs - 1)) % num_procs);
        const MessageId id = index.ingest_message(sender, receiver);
        if ((i & 4095u) == 0 && i > 0) {
            // Keep the query path hot: probe two resident pairs.
            const std::uint64_t lo = index.resident_frontier();
            const auto a = static_cast<MessageId>(
                lo + rng.below(static_cast<std::uint64_t>(id) - lo + 1));
            probe_hits += index.precedes(a, id) ? 1u : 0u;
            probe_hits += index.precedes(id, a) ? 1u : 0u;
        }
        if (i == warmup) plateau_mb = read_rss_mb();
        if (i > warmup && i % sample_every == 0) {
            peak_mb = std::max(peak_mb, read_rss_mb());
        }
    }
    const auto stop = std::chrono::steady_clock::now();
    const std::size_t allocs = bench::allocations() - allocs_before;
    peak_mb = std::max(peak_mb, read_rss_mb());

    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    const double ns_per_msg =
        seconds * 1e9 / static_cast<double>(stream_msgs);
    const double msgs_per_sec =
        static_cast<double>(stream_msgs) / (seconds > 0 ? seconds : 1e-9);

    const double allowance = plateau_mb * 0.10 + 48.0;
    const bool flat = plateau_mb == 0.0 || peak_mb <= plateau_mb + allowance;
    const bool under_budget =
        budget_mb == 0 || peak_mb <= static_cast<double>(budget_mb);

    std::printf("\n== TAB-STREAM: streamed ingestion (window %zu stamps) "
                "==\n\n",
                options.window);
    std::printf("streamed: %zu msgs  %0.1f ns/msg  %0.2f Mmsg/s  "
                "(%llu probes precede)\n",
                stream_msgs, ns_per_msg, msgs_per_sec / 1e6,
                static_cast<unsigned long long>(probe_hits));
    std::printf("rss: plateau %.1f MB  peak %.1f MB  %s%s\n", plateau_mb,
                peak_mb, flat ? "flat" : "GREW",
                budget_mb == 0 ? ""
                               : (under_budget ? " (under budget)"
                                               : " (OVER BUDGET)"));
    // The canonical JSON shape plus the two streaming columns
    // tools/bench_to_json.sh back-fills for the other benches.
    std::printf("{\"bench\":\"analysis_stream_complete16\",\"n\":%zu,"
                "\"ns_per_msg\":%.1f,\"allocs\":%zu,\"threads\":1,"
                "\"epochs\":1,\"resident_mb\":%.1f,"
                "\"stream_msgs_per_sec\":%.0f}\n",
                stream_msgs, ns_per_msg, allocs, peak_mb, msgs_per_sec);
    return flat && under_budget;
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t messages = 20000;
    std::size_t threads = Pool::resolve_threads(0);
    std::size_t stream_msgs = 2000000;
    std::size_t budget_mb = 0;
    if (argc > 1) messages = std::strtoull(argv[1], nullptr, 10);
    if (argc > 2) threads = std::strtoull(argv[2], nullptr, 10);
    if (argc > 3) stream_msgs = std::strtoull(argv[3], nullptr, 10);
    if (argc > 4) budget_mb = std::strtoull(argv[4], nullptr, 10);
    if (messages == 0 || threads == 0 || stream_msgs == 0) {
        std::fprintf(stderr, "usage: bench_analysis [messages] [threads] "
                             "[stream_msgs] [budget_mb]\n");
        return 2;
    }
    Pool pool(threads);

    std::printf("== TAB-PAR: closure + parallel verification (%zu threads) "
                "==\n\n",
                pool.threads());
    std::printf("%-18s %6s %2s %9s %9s %9s %9s %7s %s\n", "family", "msgs",
                "T", "close ms", "relations", "verify ms", "verify ms",
                "speedup", "check");
    std::printf("%-18s %6s %2s %9s %9s %9s %9s %7s\n", "", "", "", "(1T)", "",
                "(1T)", "(pool)", "");

    Rng seeds(20002);
    study("complete16", topology::complete(16), messages, seeds(), pool);
    study("tri8", topology::disjoint_triangles(8), messages, seeds(), pool);

    query_study(topology::complete(16), messages, messages * 10, seeds());

    const bool stream_exact =
        streaming_equivalence(topology::complete(16), messages, seeds());
    const bool stream_flat =
        streaming_row(topology::complete(16), stream_msgs, budget_mb);

    std::printf(
        "\nshape check: the check column must read 'exact' on every row —\n"
        "the serial and pooled verify legs must agree on the mismatch\n"
        "count (the determinism contract in docs/PARALLELISM.md), and the\n"
        "Theorem 4 sweep must find 0 mismatches. The closure is serial by\n"
        "design (one two-sweep Poset::close); only the verify speedup\n"
        "scales with the thread count, and on 1 core it reads ~1.0x. The\n"
        "TAB-STREAM rows must read 'exact' and 'flat': the\n"
        "frontier-retiring closure is bit-identical to the batch one, and\n"
        "streamed ingestion holds a flat RSS plateau (docs/STREAMING.md) —\n"
        "any growth or budget overrun makes this binary exit nonzero.\n");
    return (stream_exact && stream_flat) ? 0 : 1;
}
