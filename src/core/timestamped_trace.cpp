#include "core/timestamped_trace.hpp"

#include <bit>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/ts_kernels.hpp"
#include "poset/streaming_closure.hpp"

namespace syncts {

namespace {

TimestampArena pack_stamps(const std::vector<VectorTimestamp>& stamps) {
    const std::size_t width = stamps.empty() ? 0 : stamps.front().width();
    TimestampArena arena(width, stamps.size());
    for (const VectorTimestamp& stamp : stamps) {
        SYNCTS_REQUIRE(stamp.width() == width,
                       "all message timestamps must share one width");
        arena.allocate(stamp.components());
    }
    return arena;
}

}  // namespace

TimestampedTrace::TimestampedTrace(SyncComputation computation,
                                   TimestampArena stamps)
    : computation_(std::move(computation)), stamps_(std::move(stamps)) {
    SYNCTS_REQUIRE(stamps_.size() == computation_.num_messages(),
                   "one timestamp per message required");
}

TimestampedTrace::TimestampedTrace(SyncComputation computation,
                                   std::vector<VectorTimestamp> message_stamps)
    : TimestampedTrace(std::move(computation), pack_stamps(message_stamps)) {}

VectorTimestamp TimestampedTrace::timestamp(MessageId m) const {
    return VectorTimestamp(stamps_.span(m));
}

bool TimestampedTrace::precedes(MessageId m1, MessageId m2) const {
    return ts::less(stamps_.span(m1), stamps_.span(m2));
}

bool TimestampedTrace::concurrent(MessageId m1, MessageId m2) const {
    return m1 != m2 && ts::concurrent(stamps_.span(m1), stamps_.span(m2));
}

std::span<const std::uint8_t> TimestampedTrace::relate_row(
    MessageId m) const {
    relate_scratch_.resize(stamps_.size());
    relate_many(stamps_, stamps_.span(m), relate_scratch_);
    return relate_scratch_;
}

std::vector<MessageId> TimestampedTrace::concurrent_with(MessageId m) const {
    const std::span<const std::uint8_t> flags = relate_row(m);
    std::vector<MessageId> result;
    for (MessageId other = 0; other < flags.size(); ++other) {
        if (other != m && flags[other] == 0) result.push_back(other);
    }
    return result;
}

std::vector<MessageId> TimestampedTrace::successors_of(MessageId m) const {
    // probe = stamp(m); kProbeLeq alone ⇒ stamp(m) < stamp(other).
    const std::span<const std::uint8_t> flags = relate_row(m);
    std::vector<MessageId> result;
    for (MessageId other = 0; other < flags.size(); ++other) {
        if (flags[other] == ts::kProbeLeq) result.push_back(other);
    }
    return result;
}

std::vector<MessageId> TimestampedTrace::minimal_messages() const {
    std::vector<MessageId> result;
    for (MessageId m = 0; m < stamps_.size(); ++m) {
        // Minimal ⇔ no other stamp is strictly below m's (flag kRowLeq
        // alone).
        const std::span<const std::uint8_t> flags = relate_row(m);
        bool minimal = true;
        for (MessageId other = 0; other < flags.size() && minimal; ++other) {
            if (other != m && flags[other] == ts::kRowLeq) minimal = false;
        }
        if (minimal) result.push_back(m);
    }
    return result;
}

std::vector<MessageId> TimestampedTrace::maximal_messages() const {
    std::vector<MessageId> result;
    for (MessageId m = 0; m < stamps_.size(); ++m) {
        const std::span<const std::uint8_t> flags = relate_row(m);
        bool maximal = true;
        for (MessageId other = 0; other < flags.size() && maximal; ++other) {
            if (other != m && flags[other] == ts::kProbeLeq) maximal = false;
        }
        if (maximal) result.push_back(m);
    }
    return result;
}

std::size_t TimestampedTrace::concurrent_pair_count() const {
    std::size_t count = 0;
    for (MessageId m = 0; m < stamps_.size(); ++m) {
        const std::span<const std::uint8_t> flags = relate_row(m);
        for (MessageId other = m + 1; other < flags.size(); ++other) {
            if (flags[other] == 0) ++count;
        }
    }
    return count;
}

std::size_t TimestampedTrace::verify_against_ground_truth(
    const AnalysisOptions& options) const {
    StreamedVerifyOptions streamed;
    streamed.analysis = options;
    return verify_against_ground_truth(streamed);
}

std::size_t TimestampedTrace::verify_against_ground_truth(
    const StreamedVerifyOptions& options) const {
    SYNCTS_REQUIRE(options.chunk_rows > 0, "chunk_rows must be positive");
    const std::size_t n = num_messages();
    if (n == 0) return 0;
    // Below the threshold the whole closure is one window of n rows.
    const std::size_t window_rows =
        n < options.min_streamed_messages ? n : options.chunk_rows;

    StreamingClosureOptions closure_options;
    closure_options.chunk_rows = window_rows;
    closure_options.cached_chunks = 1;
    closure_options.spill = options.spill;
    closure_options.metrics = options.metrics;
    StreamingClosure closure(computation_.num_processes(), n, closure_options);
    for (const SyncMessage& m : computation_.messages()) {
        closure.ingest(m.sender, m.receiver);
    }
    closure.finish();

    // Row b settles every ordered pair of b and a smaller id in one fused
    // kernel call over the SoA mirror: the "row < probe" mask must equal
    // the closure row (a ↦ b), and the "probe < row" mask must be empty
    // (b ↦ a is impossible in commit order). Each ordered pair is counted
    // exactly once, and the sum is independent of grouping, so it is
    // thread-count and window-size invariant.
    const SoaStripes mirror(stamps_);
    const std::size_t max_words = StreamingClosure::row_words(
        static_cast<MessageId>(n - 1));
    std::size_t mismatches = 0;
    std::optional<PoolLease> lease;
    if (options.analysis.parallel()) lease.emplace(options.analysis);
    std::vector<std::pair<MessageId, std::span<const std::uint64_t>>> window;
    window.reserve(window_rows);
    // Per-chunk mask scratch and partial counts grow once and are reused
    // by every later window; partials reduce in chunk order.
    std::vector<std::uint64_t> masks;
    std::vector<std::size_t> partial;
    const auto run_chunk = [&](std::size_t chunk, std::size_t begin,
                               std::size_t end) {
        std::uint64_t* scratch = masks.data() + chunk * 2 * max_words;
        std::size_t count = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const auto [b, truth] = window[i];
            const std::span<std::uint64_t> lt{scratch, truth.size()};
            const std::span<std::uint64_t> gt{scratch + max_words,
                                              truth.size()};
            mirror.order_masks(stamps_.span(b), b, lt, gt);
            for (std::size_t w = 0; w < truth.size(); ++w) {
                count += static_cast<std::size_t>(
                    std::popcount(lt[w] ^ truth[w]) + std::popcount(gt[w]));
            }
        }
        partial[chunk] = count;
    };
    const auto flush = [&]() {
        if (window.empty()) return;
        const std::size_t rows = window.size();
        const std::size_t chunks =
            lease ? Pool::num_chunks(rows,
                                     lease->pool().effective_grain(rows, 0))
                  : 1;
        masks.resize(chunks * 2 * max_words);
        partial.assign(chunks, 0);
        if (lease) {
            // std::ref keeps the std::function wrapper allocation-free.
            lease->pool().parallel_for_chunks(rows, 0, std::ref(run_chunk));
        } else {
            run_chunk(0, 0, rows);
        }
        mismatches +=
            std::accumulate(partial.begin(), partial.end(), std::size_t{0});
        window.clear();
    };
    // The window flushes exactly at chunk boundaries (same row count), so
    // every collected span points into the currently loaded chunk; the
    // tail flush runs before any further closure access, while the last
    // chunk is still cached.
    closure.for_each_row(
        0, static_cast<MessageId>(n),
        [&](MessageId m, std::span<const std::uint64_t> words) {
            window.emplace_back(m, words);
            if (window.size() == window_rows) flush();
        });
    flush();
    return mismatches;
}

std::string TimestampedTrace::to_string() const {
    std::ostringstream os;
    for (MessageId m = 0; m < stamps_.size(); ++m) {
        const SyncMessage& msg = computation_.message(m);
        os << 'm' << (m + 1) << ": P" << (msg.sender + 1) << " -> P"
           << (msg.receiver + 1) << "  " << timestamp(m).to_string() << '\n';
    }
    return os.str();
}

}  // namespace syncts
