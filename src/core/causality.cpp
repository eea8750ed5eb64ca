#include "core/causality.hpp"

#include <bit>
#include <numeric>

#include "common/check.hpp"
#include "common/ts_kernels.hpp"

namespace syncts {

namespace {

/// Shards rows [0, n) across the analysis pool, sums the per-shard counts
/// in shard order. count_rows(begin, end) must be a pure function of its
/// range — every sweep below is — so the reduction equals the serial scan.
template <typename CountRows>
std::size_t sharded_count(std::size_t n, const AnalysisOptions& options,
                          CountRows&& count_rows) {
    if (n == 0) return 0;
    if (!options.parallel()) return count_rows(std::size_t{0}, n);
    PoolLease lease(options);
    const std::vector<std::size_t> partial =
        lease.pool().map_chunks<std::size_t>(
            n, 0,
            [&](std::size_t begin, std::size_t end) {
                return count_rows(begin, end);
            });
    return std::accumulate(partial.begin(), partial.end(), std::size_t{0});
}

}  // namespace

Order compare(const VectorTimestamp& a, const VectorTimestamp& b) {
    return compare(a.components(), b.components());
}

Order compare(std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) {
    SYNCTS_REQUIRE(a.size() == b.size(),
                   "comparing timestamps of different widths");
    switch (ts::relate(a, b)) {
        case ts::kRowLeq | ts::kProbeLeq: return Order::equal;
        case ts::kRowLeq: return Order::before;
        case ts::kProbeLeq: return Order::after;
        default: return Order::concurrent;
    }
}

const char* to_string(Order order) {
    switch (order) {
        case Order::before: return "before";
        case Order::after: return "after";
        case Order::concurrent: return "concurrent";
        case Order::equal: return "equal";
    }
    return "unknown";
}

std::size_t count_concurrent_pairs(std::span<const VectorTimestamp> stamps) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < stamps.size(); ++i) {
        for (std::size_t j = i + 1; j < stamps.size(); ++j) {
            if (stamps[i].concurrent_with(stamps[j])) ++count;
        }
    }
    return count;
}

std::size_t count_concurrent_pairs(const TimestampArena& stamps,
                                   const AnalysisOptions& options) {
    return sharded_count(
        stamps.size(), options, [&](std::size_t begin, std::size_t end) {
            std::size_t count = 0;
            for (std::size_t i = begin; i < end; ++i) {
                const auto row = stamps.span(static_cast<TsHandle>(i));
                for (std::size_t j = i + 1; j < stamps.size(); ++j) {
                    if (ts::concurrent(row,
                                       stamps.span(static_cast<TsHandle>(j)))) {
                        ++count;
                    }
                }
            }
            return count;
        });
}

std::size_t encoding_mismatches(const Poset& poset,
                                std::span<const VectorTimestamp> stamps) {
    std::size_t mismatches = 0;
    for (std::size_t a = 0; a < stamps.size(); ++a) {
        for (std::size_t b = 0; b < stamps.size(); ++b) {
            if (a == b) continue;
            if (poset.less(a, b) != stamps[a].less(stamps[b])) ++mismatches;
        }
    }
    return mismatches;
}

std::size_t encoding_mismatches(const Poset& poset,
                                const TimestampArena& stamps,
                                const AnalysisOptions& options) {
    const std::size_t n = stamps.size();
    SYNCTS_REQUIRE(poset.size() == n, "one timestamp per poset element");
    // Row a: the fused kernel's "probe < row" mask is {b : stamps[a] <
    // stamps[b]}, so XOR against up_set(a) leaves exactly the
    // disagreeing pairs (the diagonal is clear in both).
    const SoaStripes mirror(stamps);
    const std::size_t words = (n + 63) / 64;
    return sharded_count(n, options, [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t> masks(2 * words);
        const std::span<std::uint64_t> lt{masks.data(), words};
        const std::span<std::uint64_t> gt{masks.data() + words, words};
        std::size_t mismatches = 0;
        for (std::size_t a = begin; a < end; ++a) {
            mirror.order_masks(stamps.span(static_cast<TsHandle>(a)), n, lt,
                               gt);
            const DynBitset& up = poset.up_set(a);
            for (std::size_t w = 0; w < words; ++w) {
                mismatches += static_cast<std::size_t>(
                    std::popcount(gt[w] ^ up.word(w)));
            }
        }
        return mismatches;
    });
}

std::vector<std::pair<std::size_t, std::size_t>> encoding_mismatch_pairs(
    const Poset& poset, const TimestampArena& stamps,
    const AnalysisOptions& options) {
    using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;
    const std::size_t n = stamps.size();
    const auto scan = [&](std::size_t begin, std::size_t end) {
        Pairs found;
        for (std::size_t a = begin; a < end; ++a) {
            const auto row = stamps.span(static_cast<TsHandle>(a));
            for (std::size_t b = 0; b < n; ++b) {
                if (a == b) continue;
                const bool stamp_less =
                    ts::less(row, stamps.span(static_cast<TsHandle>(b)));
                if (poset.less(a, b) != stamp_less) found.emplace_back(a, b);
            }
        }
        return found;
    };
    if (!options.parallel() || n == 0) return scan(0, n);
    PoolLease lease(options);
    // Per-shard lists concatenate in shard order: shard s covers a-range
    // [s·grain, (s+1)·grain), so the merged list is exactly the serial
    // visit order.
    std::vector<Pairs> shards =
        lease.pool().map_chunks<Pairs>(n, 0, scan);
    Pairs merged;
    for (Pairs& shard : shards) {
        merged.insert(merged.end(), shard.begin(), shard.end());
    }
    return merged;
}

std::size_t consistency_violations(const Poset& poset,
                                   std::span<const VectorTimestamp> stamps) {
    std::size_t violations = 0;
    for (std::size_t a = 0; a < stamps.size(); ++a) {
        for (std::size_t b = 0; b < stamps.size(); ++b) {
            if (a == b) continue;
            if (poset.less(a, b) && !stamps[a].less(stamps[b])) ++violations;
        }
    }
    return violations;
}

std::size_t consistency_violations(const Poset& poset,
                                   const TimestampArena& stamps,
                                   const AnalysisOptions& options) {
    return sharded_count(
        stamps.size(), options, [&](std::size_t begin, std::size_t end) {
            std::size_t violations = 0;
            for (std::size_t a = begin; a < end; ++a) {
                const auto row = stamps.span(static_cast<TsHandle>(a));
                for (std::size_t b = 0; b < stamps.size(); ++b) {
                    if (a == b) continue;
                    if (poset.less(a, b) &&
                        !ts::less(row, stamps.span(static_cast<TsHandle>(b)))) {
                        ++violations;
                    }
                }
            }
            return violations;
        });
}

std::size_t total_components(std::span<const VectorTimestamp> stamps) {
    std::size_t total = 0;
    for (const auto& s : stamps) total += s.width();
    return total;
}

std::size_t total_components(const TimestampArena& stamps) {
    return stamps.size() * stamps.width();
}

}  // namespace syncts
