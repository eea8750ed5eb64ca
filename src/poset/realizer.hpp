#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/pool.hpp"
#include "poset/dilworth.hpp"
#include "poset/poset.hpp"

/// \file realizer.hpp
/// Chain realizers: families of linear extensions whose intersection is the
/// poset. The offline algorithm (Fig. 9) timestamps message m with the
/// vector of m's ranks across the realizer's extensions, giving vectors of
/// size width(P) ≤ ⌊N/2⌋ (Theorem 8).

namespace syncts {

struct Realizer {
    /// extensions[i] is a permutation of 0..n-1 extending the poset.
    std::vector<std::vector<std::size_t>> extensions;

    std::size_t size() const noexcept { return extensions.size(); }
};

/// Builds a realizer with width(P) extensions: take a Dilworth chain
/// partition and, for each chain C, the linear extension that places every
/// element of C below everything incomparable to it. For an incomparable
/// pair (u, v), the extension of u's chain puts u first and the extension
/// of v's chain puts v first, so the intersection of the extensions is
/// exactly P (the constructive proof of dim ≤ width).
Realizer chain_realizer(const Poset& poset);

/// True when every extension is a linear extension of the poset and the
/// intersection of the extensions equals the poset exactly. The O(n²·w)
/// incomparable-pair sweep shards across the analysis pool (element
/// ranges; a verdict is a conjunction, so sharding cannot change it).
bool realizes(const Poset& poset, const Realizer& realizer,
              const AnalysisOptions& options = {});

/// Best-effort shrink: greedily drops extensions whose removal keeps the
/// intersection equal to the poset. dim(P) can be strictly below the
/// Dilworth width bound (Fig. 9 stops at width), so the chain realizer is
/// sometimes redundant; the result still realizes P and is never larger.
/// At least one extension is always kept. The per-candidate validation
/// sweeps run through `options` (this is the O(w²·n²) hot spot of
/// offline minimize_dimension).
Realizer minimize_realizer(const Poset& poset, Realizer realizer,
                           const AnalysisOptions& options = {});

/// Fig. 9 step 3: timestamp element m with V_m where V_m[i] is the number
/// of elements below m in extension i (its rank). For a valid realizer,
/// a < b in P ⟺ timestamp(a) < timestamp(b) component-wise.
std::vector<std::vector<std::uint64_t>> realizer_timestamps(
    const Realizer& realizer);

}  // namespace syncts
