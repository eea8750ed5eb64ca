#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "poset/linear_extension.hpp"
#include "poset/poset.hpp"

namespace syncts {
namespace {

Poset diamond() {
    // 0 < 1, 0 < 2, 1 < 3, 2 < 3.
    Poset p(4);
    p.add_relation(0, 1);
    p.add_relation(0, 2);
    p.add_relation(1, 3);
    p.add_relation(2, 3);
    p.close();
    return p;
}

TEST(Poset, TransitiveClosure) {
    Poset p(4);
    p.add_relation(0, 1);
    p.add_relation(1, 2);
    p.add_relation(2, 3);
    p.close();
    EXPECT_TRUE(p.less(0, 3));
    EXPECT_TRUE(p.less(0, 2));
    EXPECT_TRUE(p.less(1, 3));
    EXPECT_FALSE(p.less(3, 0));
    EXPECT_FALSE(p.less(0, 0));
    EXPECT_EQ(p.relation_count(), 6u);
}

TEST(Poset, DiamondShape) {
    const Poset p = diamond();
    EXPECT_TRUE(p.less(0, 3));
    EXPECT_TRUE(p.incomparable(1, 2));
    EXPECT_FALSE(p.incomparable(0, 3));
    EXPECT_FALSE(p.incomparable(1, 1));
    EXPECT_EQ(p.minimal_elements(), (std::vector<std::size_t>{0}));
    EXPECT_EQ(p.maximal_elements(), (std::vector<std::size_t>{3}));
}

TEST(Poset, UpAndDownSets) {
    const Poset p = diamond();
    EXPECT_EQ(p.down_set(3).count(), 3u);
    EXPECT_EQ(p.up_set(0).count(), 3u);
    EXPECT_TRUE(p.down_set(1).test(0));
    EXPECT_FALSE(p.down_set(1).test(2));
}

TEST(Poset, CycleDetection) {
    Poset p(3);
    p.add_relation(0, 1);
    p.add_relation(1, 2);
    p.add_relation(2, 0);
    EXPECT_THROW(p.close(), std::invalid_argument);
}

TEST(Poset, SelfRelationRejected) {
    Poset p(3);
    EXPECT_THROW(p.add_relation(1, 1), std::invalid_argument);
    EXPECT_THROW(p.add_relation(0, 5), std::invalid_argument);
}

TEST(Poset, QueriesBeforeCloseRejected) {
    Poset p(3);
    p.add_relation(0, 1);
    EXPECT_THROW(p.less(0, 1), std::invalid_argument);
    p.close();
    EXPECT_THROW(p.add_relation(1, 2), std::invalid_argument);
    EXPECT_THROW(p.close(), std::invalid_argument);
}

TEST(Poset, DuplicateGeneratorsAreHarmless) {
    Poset p(3);
    p.add_relation(0, 1);
    p.add_relation(0, 1);
    p.add_relation(1, 2);
    p.close();
    EXPECT_TRUE(p.less(0, 2));
    EXPECT_EQ(p.relation_count(), 3u);
}

TEST(Poset, EmptyAndAntichain) {
    Poset p(5);
    p.close();
    EXPECT_EQ(p.relation_count(), 0u);
    EXPECT_EQ(p.minimal_elements().size(), 5u);
    EXPECT_EQ(p.maximal_elements().size(), 5u);
    EXPECT_TRUE(p.incomparable(0, 4));
}

// Every digraph on n <= 4 labelled elements — all 2^(n(n-1)) arc sets,
// 4096 at n = 4 — closed by Poset::close and by Floyd–Warshall. close()
// throws exactly on the cyclic ones; on the rest every down-set, up-set,
// the relation count and the minimal/maximal elements match the
// reference.
TEST(PosetClosure, ExhaustiveSmallDigraphs) {
    for (std::size_t n = 0; n <= 4; ++n) {
        std::vector<std::pair<std::size_t, std::size_t>> arcs;
        for (std::size_t a = 0; a < n; ++a) {
            for (std::size_t b = 0; b < n; ++b) {
                if (a != b) arcs.emplace_back(a, b);
            }
        }
        const std::uint64_t digraphs = std::uint64_t{1} << arcs.size();
        for (std::uint64_t mask = 0; mask < digraphs; ++mask) {
            Poset p(n);
            std::vector<std::vector<bool>> reach(n, std::vector<bool>(n));
            for (std::size_t i = 0; i < arcs.size(); ++i) {
                if ((mask >> i) & 1) {
                    p.add_relation(arcs[i].first, arcs[i].second);
                    reach[arcs[i].first][arcs[i].second] = true;
                }
            }
            for (std::size_t k = 0; k < n; ++k) {
                for (std::size_t a = 0; a < n; ++a) {
                    for (std::size_t b = 0; b < n; ++b) {
                        if (reach[a][k] && reach[k][b]) reach[a][b] = true;
                    }
                }
            }
            bool cyclic = false;
            for (std::size_t a = 0; a < n; ++a) cyclic = cyclic || reach[a][a];
            if (cyclic) {
                EXPECT_THROW(p.close(), std::invalid_argument)
                    << "n " << n << " arcs " << mask;
                continue;
            }
            ASSERT_NO_THROW(p.close()) << "n " << n << " arcs " << mask;

            std::size_t relations = 0;
            std::vector<std::size_t> minimal;
            std::vector<std::size_t> maximal;
            for (std::size_t a = 0; a < n; ++a) {
                bool has_below = false;
                bool has_above = false;
                for (std::size_t b = 0; b < n; ++b) {
                    ASSERT_EQ(p.down_set(b).test(a), reach[a][b])
                        << "n " << n << " arcs " << mask << " down-set of "
                        << b << " bit " << a;
                    ASSERT_EQ(p.up_set(a).test(b), reach[a][b])
                        << "n " << n << " arcs " << mask << " up-set of " << a
                        << " bit " << b;
                    relations += reach[a][b] ? 1 : 0;
                    has_below = has_below || reach[b][a];
                    has_above = has_above || reach[a][b];
                }
                if (!has_below) minimal.push_back(a);
                if (!has_above) maximal.push_back(a);
            }
            EXPECT_EQ(p.relation_count(), relations)
                << "n " << n << " arcs " << mask;
            EXPECT_EQ(p.minimal_elements(), minimal)
                << "n " << n << " arcs " << mask;
            EXPECT_EQ(p.maximal_elements(), maximal)
                << "n " << n << " arcs " << mask;
        }
    }
}

TEST(Poset, IsLinearExtension) {
    const Poset p = diamond();
    EXPECT_TRUE(p.is_linear_extension({0, 1, 2, 3}));
    EXPECT_TRUE(p.is_linear_extension({0, 2, 1, 3}));
    EXPECT_FALSE(p.is_linear_extension({1, 0, 2, 3}));
    EXPECT_FALSE(p.is_linear_extension({0, 1, 2}));      // wrong size
    EXPECT_FALSE(p.is_linear_extension({0, 1, 1, 3}));   // not a permutation
}

TEST(LinearExtension, ProducesValidExtension) {
    const Poset p = diamond();
    EXPECT_TRUE(p.is_linear_extension(linear_extension(p)));
}

TEST(LinearExtension, DeterministicSmallestFirst) {
    Poset p(4);
    p.add_relation(2, 0);
    p.close();
    // Ready set initially {1,2,3}; smallest-index rule gives 1,2,0,3.
    EXPECT_EQ(linear_extension(p), (std::vector<std::size_t>{1, 2, 0, 3}));
}

TEST(ChainLowExtension, PlacesChainBelowIncomparables) {
    const Poset p = diamond();
    const std::vector<std::size_t> chain{0, 1, 3};
    const auto ext = chain_low_extension(p, chain);
    EXPECT_TRUE(p.is_linear_extension(ext));
    const auto pos = positions_of(ext);
    // 1 is in the chain and incomparable to 2, so 1 must precede 2.
    EXPECT_LT(pos[1], pos[2]);
}

TEST(ChainLowExtension, RejectsNonChain) {
    const Poset p = diamond();
    EXPECT_THROW(chain_low_extension(p, {1, 2}), std::invalid_argument);
    EXPECT_THROW(chain_low_extension(p, {3, 0}), std::invalid_argument);
    EXPECT_THROW(chain_low_extension(p, {0, 0}), std::invalid_argument);
}

TEST(ChainLowExtension, EmptyChainIsPlainExtension) {
    const Poset p = diamond();
    const auto ext = chain_low_extension(p, {});
    EXPECT_TRUE(p.is_linear_extension(ext));
}

TEST(PositionsOf, InvertsPermutation) {
    const std::vector<std::size_t> order{2, 0, 3, 1};
    const auto pos = positions_of(order);
    EXPECT_EQ(pos[2], 0u);
    EXPECT_EQ(pos[0], 1u);
    EXPECT_EQ(pos[3], 2u);
    EXPECT_EQ(pos[1], 3u);
}

}  // namespace
}  // namespace syncts
