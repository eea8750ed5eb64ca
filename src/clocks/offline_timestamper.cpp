#include "clocks/offline_timestamper.hpp"

#include <utility>

#include "common/check.hpp"
#include "trace/ground_truth.hpp"

namespace syncts {

OfflineResult offline_timestamps(const Poset& message_order,
                                 std::size_t num_processes,
                                 bool minimize_dimension,
                                 const AnalysisOptions& analysis) {
    OfflineResult result;
    result.theorem8_bound = num_processes / 2;
    result.realizer = chain_realizer(message_order);
    if (minimize_dimension && !result.realizer.extensions.empty()) {
        result.realizer = minimize_realizer(
            message_order, std::move(result.realizer), analysis);
    }
    result.width = result.realizer.size();
    if (message_order.size() == 0) return result;

    const auto ranks = realizer_timestamps(result.realizer);
    result.timestamps.reserve(ranks.size());
    for (const auto& components : ranks) {
        result.timestamps.emplace_back(components);
    }
    SYNCTS_ENSURE(result.width <= result.theorem8_bound || num_processes < 2,
                  "message poset width exceeded Theorem 8's floor(N/2) bound");
    return result;
}

OfflineResult offline_timestamps(const SyncComputation& computation,
                                 bool minimize_dimension,
                                 const AnalysisOptions& analysis) {
    return offline_timestamps(message_poset(computation),
                              computation.num_processes(),
                              minimize_dimension, analysis);
}

}  // namespace syncts
