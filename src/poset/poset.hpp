#pragma once

#include <cstddef>
#include <vector>

#include "common/check.hpp"
#include "common/dyn_bitset.hpp"

/// \file poset.hpp
/// Finite irreflexive poset over elements 0..n-1, stored as full
/// reachability bitsets after transitive closure.
///
/// In this library the elements are usually the messages of a synchronous
/// computation and the order is the synchronously-precedes relation ↦
/// (Section 2 of the paper); the offline algorithm (Fig. 9) and all
/// ground-truth verification run on this representation.

namespace syncts {

class Poset {
public:
    /// Creates an n-element poset with the empty order.
    explicit Poset(std::size_t n);

    std::size_t size() const noexcept { return n_; }

    /// Records the generating relation a < b (a != b). Relations may be
    /// added in any order; call close() before querying.
    void add_relation(std::size_t a, std::size_t b);

    /// Computes the transitive closure of the added relations. Throws
    /// std::invalid_argument when the generating relation has a cycle
    /// (i.e., it does not define a partial order).
    ///
    /// Two serial word-OR sweeps over a Kahn topological order: forward,
    /// below_[b] |= below_[a] ∪ {a} for every generating edge a < b;
    /// then in reverse, above_[a] |= above_[b] ∪ {b}. Each row is final
    /// before any other row reads it.
    void close();

    bool closed() const noexcept { return closed_; }

    /// True when a < b in the closed order.
    bool less(std::size_t a, std::size_t b) const;

    /// True when a and b are distinct and incomparable.
    bool incomparable(std::size_t a, std::size_t b) const;

    /// Bitset of all x with x < b.
    const DynBitset& down_set(std::size_t b) const;

    /// Bitset of all x with a < x.
    const DynBitset& up_set(std::size_t a) const;

    /// Direct (generating) successor lists, before closure. Useful for
    /// linear-extension algorithms that want sparse edges.
    const std::vector<std::vector<std::size_t>>& generators() const noexcept {
        return direct_;
    }

    /// Number of ordered pairs (a, b) with a < b.
    std::size_t relation_count() const;

    /// Minimal elements of the closed order.
    std::vector<std::size_t> minimal_elements() const;

    /// Maximal elements of the closed order.
    std::vector<std::size_t> maximal_elements() const;

    /// True when `order` is a permutation of 0..n-1 that extends the poset.
    bool is_linear_extension(const std::vector<std::size_t>& order) const;

private:
    void require_closed() const {
        SYNCTS_REQUIRE(closed_, "poset must be closed before querying");
    }

    std::size_t n_;
    bool closed_ = false;
    std::vector<std::vector<std::size_t>> direct_;
    std::vector<DynBitset> below_;  // below_[b] = { a : a < b }
    std::vector<DynBitset> above_;  // above_[a] = { b : a < b }
};

}  // namespace syncts
