#include "poset/poset.hpp"

#include <vector>

namespace syncts {

Poset::Poset(std::size_t n) : n_(n), direct_(n) {}

void Poset::add_relation(std::size_t a, std::size_t b) {
    SYNCTS_REQUIRE(a < n_ && b < n_, "poset element out of range");
    SYNCTS_REQUIRE(a != b, "irreflexive order admits no a < a");
    SYNCTS_REQUIRE(!closed_, "cannot add relations after close()");
    direct_[a].push_back(b);
}

void Poset::close() {
    SYNCTS_REQUIRE(!closed_, "poset already closed");

    // Kahn topological sort over the generating edges; elements left
    // unsorted sit on a cycle.
    std::vector<std::size_t> indegree(n_, 0);
    for (std::size_t a = 0; a < n_; ++a) {
        for (const std::size_t b : direct_[a]) ++indegree[b];
    }
    std::vector<std::size_t> order;
    order.reserve(n_);
    for (std::size_t v = 0; v < n_; ++v) {
        if (indegree[v] == 0) order.push_back(v);
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
        for (const std::size_t w : direct_[order[head]]) {
            if (--indegree[w] == 0) order.push_back(w);
        }
    }
    SYNCTS_REQUIRE(order.size() == n_,
                   "generating relation has a cycle: not a partial order");

    // Forward sweep: a's down-set is final once every predecessor has
    // pushed into it, so it can be pushed on to a's direct successors.
    below_.assign(n_, DynBitset(n_));
    for (const std::size_t a : order) {
        for (const std::size_t b : direct_[a]) {
            below_[b].or_with(below_[a]);
            below_[b].set(a);
        }
    }
    // Reverse sweep, the mirror image: a's up-set is the union of its
    // direct successors' up-sets, each already final.
    above_.assign(n_, DynBitset(n_));
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const std::size_t a = *it;
        for (const std::size_t b : direct_[a]) {
            above_[a].or_with(above_[b]);
            above_[a].set(b);
        }
    }
    closed_ = true;
}

bool Poset::less(std::size_t a, std::size_t b) const {
    require_closed();
    SYNCTS_REQUIRE(a < n_ && b < n_, "poset element out of range");
    return below_[b].test(a);
}

bool Poset::incomparable(std::size_t a, std::size_t b) const {
    return a != b && !less(a, b) && !less(b, a);
}

const DynBitset& Poset::down_set(std::size_t b) const {
    require_closed();
    SYNCTS_REQUIRE(b < n_, "poset element out of range");
    return below_[b];
}

const DynBitset& Poset::up_set(std::size_t a) const {
    require_closed();
    SYNCTS_REQUIRE(a < n_, "poset element out of range");
    return above_[a];
}

std::size_t Poset::relation_count() const {
    require_closed();
    std::size_t total = 0;
    for (const auto& bits : below_) total += bits.count();
    return total;
}

std::vector<std::size_t> Poset::minimal_elements() const {
    require_closed();
    std::vector<std::size_t> result;
    for (std::size_t v = 0; v < n_; ++v) {
        if (below_[v].count() == 0) result.push_back(v);
    }
    return result;
}

std::vector<std::size_t> Poset::maximal_elements() const {
    require_closed();
    std::vector<std::size_t> result;
    for (std::size_t v = 0; v < n_; ++v) {
        if (above_[v].count() == 0) result.push_back(v);
    }
    return result;
}

bool Poset::is_linear_extension(const std::vector<std::size_t>& order) const {
    require_closed();
    if (order.size() != n_) return false;
    std::vector<std::size_t> position(n_, n_);
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (order[i] >= n_ || position[order[i]] != n_) return false;
        position[order[i]] = i;
    }
    for (std::size_t b = 0; b < n_; ++b) {
        bool ok = true;
        below_[b].for_each([&](std::size_t a) {
            if (position[a] >= position[b]) ok = false;
        });
        if (!ok) return false;
    }
    return true;
}

}  // namespace syncts
