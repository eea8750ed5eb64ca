#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "clocks/vector_timestamp.hpp"
#include "common/pool.hpp"
#include "common/timestamp_arena.hpp"
#include "trace/computation.hpp"

/// \file timestamped_trace.hpp
/// A computation plus per-message timestamps, with the precedence queries
/// the paper motivates (Section 1: monitoring, debugging visualization,
/// orphan detection). All queries are O(d) vector comparisons — no graph
/// search at query time, which is the whole point of timestamping.
///
/// Stamps live in one TimestampArena (slot m = message m's timestamp), so
/// the whole-trace scans (concurrent_with, minimal/maximal fronts,
/// concurrent_pair_count) stream the flat slab through the batch kernels
/// instead of chasing one heap vector per message.

namespace syncts {

class SpillStore;

/// Tuning for Theorem 4 verification (docs/STREAMING.md §4). There is
/// one path at every size: a `StreamingClosure` builds the ground truth
/// and its rows are checked window by window; the options only choose
/// the window and where retired closure chunks live.
struct StreamedVerifyOptions {
    /// Closure rows per retired chunk (and per verification window).
    std::size_t chunk_rows = 4096;

    /// Destination for retired chunks; nullptr retains them in memory
    /// (still chunked — useful when no spill directory is available).
    SpillStore* spill = nullptr;

    /// Below this message count the closure is one window of all n rows
    /// (`chunk_rows` is ignored); at or above it, windows of
    /// `chunk_rows`. It picks only the window, never a second code path;
    /// the count is identical either way.
    std::size_t min_streamed_messages = 16384;

    /// Sharding for the per-window row sweep; the count is bit-identical
    /// to the serial sweep at every thread count.
    AnalysisOptions analysis = {};

    obs::MetricsRegistry* metrics = nullptr;
};

class TimestampedTrace {
public:
    /// Adopts an arena whose slot m holds message m's timestamp.
    TimestampedTrace(SyncComputation computation, TimestampArena stamps);

    /// Compat shim: packs materialized stamps (one per message, uniform
    /// width) into a fresh arena.
    TimestampedTrace(SyncComputation computation,
                     std::vector<VectorTimestamp> message_stamps);

    const SyncComputation& computation() const noexcept {
        return computation_;
    }
    std::size_t num_messages() const noexcept {
        return computation_.num_messages();
    }

    /// Components per timestamp.
    std::size_t width() const noexcept { return stamps_.width(); }

    /// The arena holding every stamp (slot m = message m).
    const TimestampArena& stamps() const noexcept { return stamps_; }

    /// Message m's components, zero-copy.
    std::span<const std::uint64_t> stamp_span(MessageId m) const {
        return stamps_.span(m);
    }

    /// Message m's timestamp as an owning value (compat shim).
    VectorTimestamp timestamp(MessageId m) const;

    /// m1 ↦ m2, answered from the timestamps.
    bool precedes(MessageId m1, MessageId m2) const;

    /// m1 ‖ m2 (distinct, neither precedes the other).
    bool concurrent(MessageId m1, MessageId m2) const;

    /// All messages concurrent with m. One batch relate_many pass.
    std::vector<MessageId> concurrent_with(MessageId m) const;

    /// All messages strictly after m (m ↦ m') — the paper's "orphan"
    /// query direction. One batch pass.
    std::vector<MessageId> successors_of(MessageId m) const;

    /// Messages m with no m' ↦ m (the computation's first wave).
    std::vector<MessageId> minimal_messages() const;

    /// Messages m with no m ↦ m' (the current frontier).
    std::vector<MessageId> maximal_messages() const;

    /// Count of unordered concurrent pairs — a measure of how much
    /// parallelism the timestamps must preserve.
    std::size_t concurrent_pair_count() const;

    /// Checks Theorem 4 against ground truth (the transitively closed ▷
    /// relation): returns the number of disagreeing ordered pairs, 0 when
    /// the timestamps encode the poset exactly. O(M²·d) — verification
    /// tool. Forwards to the StreamedVerifyOptions overload with default
    /// windows and `options` as its sharding.
    std::size_t verify_against_ground_truth(
        const AnalysisOptions& options = {}) const;

    /// The verifier: the ground truth is built by the out-of-core
    /// `StreamingClosure` (chunks retired to `options.spill` when set),
    /// and each closure row b is checked by one fused order-mask kernel
    /// call over an SoA mirror of the stamps — "stamp a < stamp b" must
    /// equal the closure bit for every a < b, and "stamp b < stamp a" must
    /// never hold. Rows are swept one window at a time across the
    /// analysis pool, so closure residency stays O(window · M/64) words.
    /// The count is identical at every thread count and window size.
    std::size_t verify_against_ground_truth(
        const StreamedVerifyOptions& options) const;

    /// "m3 = (1,1,1)"-style listing, 1-based like the paper's figures.
    std::string to_string() const;

private:
    /// relate_many of message m's stamp vs every slot, into scratch;
    /// returns the flag view.
    std::span<const std::uint8_t> relate_row(MessageId m) const;

    SyncComputation computation_;
    TimestampArena stamps_;
    /// Reusable flag buffer for the batch scans (one byte per message).
    mutable std::vector<std::uint8_t> relate_scratch_;
};

}  // namespace syncts
