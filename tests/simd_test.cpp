#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/region.hpp"
#include "common/rng.hpp"
#include "common/timestamp_arena.hpp"
#include "common/ts_kernels.hpp"
#include "common/ts_simd.hpp"

/// Satellite acceptance sweep for the SIMD backends (docs/MEMORY.md):
/// every batch-kernel entry point — row-major and stripe layout, scalar
/// and AVX2 — must be *bit-identical* across 500 seeded random slabs
/// covering every width 1..64. Kernel outputs are small integers (0/1
/// flags, relate bits, handle lists), so equality is exact, not a
/// tolerance. On hosts without AVX2 the _avx2 symbols alias the scalar
/// bodies and the sweep degenerates to a self-check; on AVX2 hosts it
/// pins the vector paths (including the unsigned sign-flip compare and
/// the scalar tail) against the portable kernels.

namespace syncts {
namespace {

constexpr std::uint64_t kSeeds = 500;

struct Case {
    std::size_t width = 0;
    std::size_t rows = 0;
    std::vector<std::uint64_t> slab;
    std::vector<std::uint64_t> probe;
};

/// Adversarial value mix: dense small values for heavy leq/equality
/// ties, occasional full-range 64-bit values to cross the 2^63 signed
/// boundary the AVX2 compare works around, and occasional copies of the
/// probe for exact-equality rows.
Case make_case(std::uint64_t seed) {
    Rng rng(seed);
    Case c;
    c.width = 1 + static_cast<std::size_t>(seed % 64);  // every width 1..64
    // Include rows == 0, partial stripes, and multi-stripe slabs; go past
    // 4x the AVX2 block so the vector main loop and tail both run.
    c.rows = static_cast<std::size_t>(rng.below(41));
    const auto draw = [&]() -> std::uint64_t {
        if (rng.chance(1, 10)) return rng();  // full range, straddles 2^63
        return rng.below(4);
    };
    c.probe.resize(c.width);
    for (auto& v : c.probe) v = draw();
    c.slab.resize(c.rows * c.width);
    for (std::size_t i = 0; i < c.rows; ++i) {
        if (rng.chance(1, 8)) {
            std::copy(c.probe.begin(), c.probe.end(),
                      c.slab.begin() + static_cast<std::ptrdiff_t>(
                                           i * c.width));
        } else {
            for (std::size_t k = 0; k < c.width; ++k) {
                c.slab[i * c.width + k] = draw();
            }
        }
    }
    return c;
}

/// Reference semantics, written independently of both backends.
std::uint8_t ref_leq(const Case& c, std::size_t row) {
    for (std::size_t k = 0; k < c.width; ++k) {
        if (c.probe[k] > c.slab[row * c.width + k]) return 0;
    }
    return 1;
}

TEST(SimdDifferential, LeqManyBackendsAreBitIdentical) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Case c = make_case(seed);
        std::vector<std::uint8_t> scalar(c.rows, 0xAA);
        std::vector<std::uint8_t> vec(c.rows, 0x55);
        simd::leq_many_scalar(c.slab.data(), c.rows, c.width,
                              c.probe.data(), scalar.data());
        simd::leq_many_avx2(c.slab.data(), c.rows, c.width, c.probe.data(),
                            vec.data());
        ASSERT_EQ(scalar, vec) << "seed " << seed << " width " << c.width;
        for (std::size_t i = 0; i < c.rows; ++i) {
            ASSERT_EQ(scalar[i], ref_leq(c, i))
                << "seed " << seed << " row " << i;
        }
    }
}

TEST(SimdDifferential, RelateManyBackendsAreBitIdentical) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Case c = make_case(seed);
        std::vector<std::uint8_t> scalar(c.rows, 0xAA);
        std::vector<std::uint8_t> vec(c.rows, 0x55);
        simd::relate_many_scalar(c.slab.data(), c.rows, c.width,
                                 c.probe.data(), scalar.data());
        simd::relate_many_avx2(c.slab.data(), c.rows, c.width,
                               c.probe.data(), vec.data());
        ASSERT_EQ(scalar, vec) << "seed " << seed << " width " << c.width;
        for (std::size_t i = 0; i < c.rows; ++i) {
            ASSERT_EQ(scalar[i],
                      ts::relate({c.slab.data() + i * c.width, c.width},
                                 c.probe))
                << "seed " << seed << " row " << i;
        }
    }
}

TEST(SimdDifferential, DominatorsOfBackendsAreBitIdentical) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Case c = make_case(seed);
        std::vector<std::uint32_t> scalar;
        std::vector<std::uint32_t> vec;
        simd::dominators_of_scalar(c.slab.data(), c.rows, c.width,
                                   c.probe.data(), scalar);
        simd::dominators_of_avx2(c.slab.data(), c.rows, c.width,
                                 c.probe.data(), vec);
        ASSERT_EQ(scalar, vec) << "seed " << seed << " width " << c.width;
        for (const std::uint32_t h : scalar) {
            ASSERT_TRUE(
                ts::less(c.probe, {c.slab.data() + h * c.width, c.width}))
                << "seed " << seed << " handle " << h;
        }
    }
}

TEST(SimdDifferential, StripeBackendsMatchRowMajorScalar) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Case c = make_case(seed);

        // Build the stripe mirror through the public SoA type so the
        // layout under test is the one production scans use.
        TimestampArena arena(c.width, c.rows);
        for (std::size_t i = 0; i < c.rows; ++i) {
            arena.allocate(
                std::span<const std::uint64_t>{c.slab.data() + i * c.width,
                                               c.width});
        }
        const SoaStripes stripes(arena);
        ASSERT_EQ(stripes.rows(), c.rows);

        std::vector<std::uint8_t> row_major(c.rows, 0xAA);
        std::vector<std::uint8_t> stripe_scalar(c.rows, 0x55);
        std::vector<std::uint8_t> stripe_vec(c.rows, 0x11);

        simd::leq_many_scalar(c.slab.data(), c.rows, c.width,
                              c.probe.data(), row_major.data());
        simd::leq_many_stripes_scalar(stripes.stripes().data(), c.rows,
                                      c.width, c.probe.data(),
                                      stripe_scalar.data());
        simd::leq_many_stripes_avx2(stripes.stripes().data(), c.rows,
                                    c.width, c.probe.data(),
                                    stripe_vec.data());
        ASSERT_EQ(row_major, stripe_scalar)
            << "leq seed " << seed << " width " << c.width;
        ASSERT_EQ(stripe_scalar, stripe_vec)
            << "leq seed " << seed << " width " << c.width;

        simd::relate_many_scalar(c.slab.data(), c.rows, c.width,
                                 c.probe.data(), row_major.data());
        simd::relate_many_stripes_scalar(stripes.stripes().data(), c.rows,
                                         c.width, c.probe.data(),
                                         stripe_scalar.data());
        simd::relate_many_stripes_avx2(stripes.stripes().data(), c.rows,
                                       c.width, c.probe.data(),
                                       stripe_vec.data());
        ASSERT_EQ(row_major, stripe_scalar)
            << "relate seed " << seed << " width " << c.width;
        ASSERT_EQ(stripe_scalar, stripe_vec)
            << "relate seed " << seed << " width " << c.width;
    }
}

TEST(SimdDifferential, DispatchedArenaKernelsMatchScalarBackend) {
    // The public arena entry points pick a backend at runtime; whatever
    // they picked must agree with the scalar reference on this host.
    for (std::uint64_t seed = 0; seed < kSeeds; seed += 5) {
        const Case c = make_case(seed);
        TimestampArena arena(c.width, c.rows);
        for (std::size_t i = 0; i < c.rows; ++i) {
            arena.allocate(
                std::span<const std::uint64_t>{c.slab.data() + i * c.width,
                                               c.width});
        }

        std::vector<std::uint8_t> got(c.rows, 0xAA);
        std::vector<std::uint8_t> want(c.rows, 0x55);
        leq_many(arena, c.probe, got);
        simd::leq_many_scalar(c.slab.data(), c.rows, c.width,
                              c.probe.data(), want.data());
        ASSERT_EQ(got, want) << "leq seed " << seed;

        relate_many(arena, c.probe, got);
        simd::relate_many_scalar(c.slab.data(), c.rows, c.width,
                                 c.probe.data(), want.data());
        ASSERT_EQ(got, want) << "relate seed " << seed;

        std::vector<std::uint32_t> want_doms;
        simd::dominators_of_scalar(c.slab.data(), c.rows, c.width,
                                   c.probe.data(), want_doms);
        const std::vector<TsHandle> got_doms = dominators_of(arena, c.probe);
        ASSERT_EQ(got_doms.size(), want_doms.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want_doms.size(); ++i) {
            ASSERT_EQ(got_doms[i], want_doms[i]) << "seed " << seed;
        }

        const SoaStripes stripes(arena);
        stripes.leq_many(c.probe, got);
        simd::leq_many_stripes_scalar(stripes.stripes().data(), c.rows,
                                      c.width, c.probe.data(), want.data());
        ASSERT_EQ(got, want) << "stripes leq seed " << seed;
        stripes.relate_many(c.probe, got);
        simd::relate_many_stripes_scalar(stripes.stripes().data(), c.rows,
                                         c.width, c.probe.data(),
                                         want.data());
        ASSERT_EQ(got, want) << "stripes relate seed " << seed;
        const std::vector<TsHandle> stripe_doms =
            stripes.dominators_of(c.probe);
        ASSERT_EQ(stripe_doms, got_doms) << "stripes dominators seed "
                                         << seed;
    }
}

TEST(SimdDifferential, PartialStripePadLanesAreInert) {
    // Rows not divisible by kSoaLane leave pad lanes in the last stripe;
    // the scans must neither read garbage from them (they are zeroed)
    // nor write outputs past `rows`.
    for (std::size_t rows = 1; rows <= 2 * kSoaLane + 1; ++rows) {
        Case c = make_case(900 + rows);
        c.rows = rows;
        c.slab.assign(rows * c.width, 1);
        TimestampArena arena(c.width, rows);
        for (std::size_t i = 0; i < rows; ++i) {
            arena.allocate(
                std::span<const std::uint64_t>{c.slab.data() + i * c.width,
                                               c.width});
        }
        const SoaStripes stripes(arena);
        // Zero probe ≤ every all-ones row; the canary byte after the
        // output range must survive.
        const std::vector<std::uint64_t> probe(c.width, 0);
        std::vector<std::uint8_t> out(rows + 1, 0x7F);
        stripes.leq_many(probe, {out.data(), rows});
        for (std::size_t i = 0; i < rows; ++i) {
            ASSERT_EQ(out[i], 1) << "rows " << rows << " i " << i;
        }
        ASSERT_EQ(out[rows], 0x7F) << "canary clobbered at rows " << rows;
    }
}

// ---- Fused order-mask kernel -----------------------------------------

/// Stripe mirror of `rows` random rows of `width` components (same value
/// mix as make_case), plus a probe.
struct MaskCase {
    std::vector<std::uint64_t> slab;
    std::vector<std::uint64_t> probe;
    TimestampArena arena;
};

MaskCase make_mask_case(std::uint64_t seed, std::size_t width,
                        std::size_t rows) {
    Rng rng(seed);
    const auto draw = [&]() -> std::uint64_t {
        if (rng.chance(1, 10)) return rng();
        return rng.below(4);
    };
    MaskCase c{{}, std::vector<std::uint64_t>(width), TimestampArena(width)};
    for (auto& v : c.probe) v = draw();
    c.slab.resize(rows * width);
    for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t k = 0; k < width; ++k) {
            // Every eighth row copies the probe: exact-equality lanes.
            c.slab[i * width + k] = i % 8 == 5 ? c.probe[k] : draw();
        }
        c.arena.allocate(std::span<const std::uint64_t>{
            c.slab.data() + i * width, width});
    }
    return c;
}

constexpr std::uint64_t kCanary = 0xC0FFEE0DDBA11ull;

/// Runs one backend into canary-guarded buffers: the words past
/// ceil(prefix/64) must survive untouched.
template <typename Kernel>
std::pair<std::vector<std::uint64_t>, std::vector<std::uint64_t>> run_masks(
    Kernel kernel, const SoaStripes& stripes, std::size_t prefix,
    std::span<const std::uint64_t> probe) {
    const std::size_t words = (prefix + 63) / 64;
    std::vector<std::uint64_t> lt(words + 1, kCanary);
    std::vector<std::uint64_t> gt(words + 1, kCanary);
    kernel(stripes.stripes().data(), prefix, stripes.width(), probe.data(),
           lt.data(), gt.data());
    EXPECT_EQ(lt[words], kCanary) << "lt canary clobbered, prefix " << prefix;
    EXPECT_EQ(gt[words], kCanary) << "gt canary clobbered, prefix " << prefix;
    lt.pop_back();
    gt.pop_back();
    return {lt, gt};
}

TEST(SimdDifferential, OrderMaskBackendsAreBitIdentical) {
    // Row counts off every multiple of 4 (pad lanes) and 64 (tail word);
    // prefixes shorter than the mirror leave live lanes past the prefix.
    const std::size_t row_counts[] = {1, 2, 3, 5, 63, 65, 66, 131};
    for (std::size_t width = 1; width <= 64; ++width) {
        for (const std::size_t rows : row_counts) {
            const std::uint64_t seed = width * 1000 + rows;
            const MaskCase c = make_mask_case(seed, width, rows);
            const SoaStripes stripes(c.arena);
            for (const std::size_t prefix : {rows, rows - 1, rows / 2}) {
                const auto scalar = run_masks(simd::order_masks_stripes_scalar,
                                              stripes, prefix, c.probe);
                const auto vec = run_masks(simd::order_masks_stripes_avx2,
                                           stripes, prefix, c.probe);
                ASSERT_EQ(scalar, vec) << "width " << width << " rows "
                                       << rows << " prefix " << prefix;
                // Reference semantics, independent of both backends.
                for (std::size_t i = 0; i < 64 * scalar.first.size(); ++i) {
                    const bool lt = (scalar.first[i / 64] >> (i % 64)) & 1;
                    const bool gt = (scalar.second[i / 64] >> (i % 64)) & 1;
                    bool want_lt = false;
                    bool want_gt = false;
                    if (i < prefix) {
                        const std::span<const std::uint64_t> row{
                            c.slab.data() + i * width, width};
                        want_lt = ts::less(row, c.probe);
                        want_gt = ts::less(c.probe, row);
                    }
                    ASSERT_EQ(lt, want_lt) << "width " << width << " prefix "
                                           << prefix << " row " << i;
                    ASSERT_EQ(gt, want_gt) << "width " << width << " prefix "
                                           << prefix << " row " << i;
                }
                // The dispatched SoaStripes entry point agrees too.
                std::vector<std::uint64_t> lt(scalar.first.size());
                std::vector<std::uint64_t> gt(scalar.first.size());
                stripes.order_masks(c.probe, prefix, lt, gt);
                ASSERT_EQ(lt, scalar.first) << "width " << width;
                ASSERT_EQ(gt, scalar.second) << "width " << width;
            }
        }
    }
}

TEST(SimdDifferential, OrderMaskEarlyExitOnConcurrentStripes) {
    // Rows concurrent with the probe from the first two components on:
    // the AVX2 kernel stops loading a stripe once all four lanes are
    // concurrent. Row 7 (the last lane of stripe 1) only turns concurrent
    // at the last component, so its stripe must be read to the end
    // (stopping early would report row 7 < probe). Row 9 is ordered below
    // the probe.
    const std::size_t kRowCounts[] = {4, 67, 130};
    for (std::size_t width = 64; width <= 96; width += 8) {
        for (const std::size_t rows : kRowCounts) {
            MaskCase c = make_mask_case(width + rows, width, 0);
            c.probe[0] = 5;
            c.probe[1] = 0;
            c.probe[width - 1] = 7;
            Rng rng(width ^ rows);
            for (std::size_t i = 0; i < rows; ++i) {
                std::vector<std::uint64_t> row(width);
                for (auto& v : row) v = rng.below(3);
                row[0] = 4;
                row[1] = 1;
                if (i == 7 || i == 9) {
                    row[0] = 0;
                    row[1] = 0;
                    for (std::size_t k = 2; k < width; ++k) {
                        row[k] = std::min(row[k], c.probe[k]);
                    }
                }
                if (i == 7) row[width - 1] = 8;
                c.arena.allocate(row);
            }
            const SoaStripes stripes(c.arena);
            const auto scalar = run_masks(simd::order_masks_stripes_scalar,
                                          stripes, rows, c.probe);
            const auto vec = run_masks(simd::order_masks_stripes_avx2,
                                       stripes, rows, c.probe);
            ASSERT_EQ(scalar, vec) << "width " << width << " rows " << rows;
            for (std::size_t i = 0; i < rows; ++i) {
                const bool lt = (scalar.first[i / 64] >> (i % 64)) & 1;
                const bool gt = (scalar.second[i / 64] >> (i % 64)) & 1;
                ASSERT_EQ(lt, i == 9) << "width " << width << " row " << i;
                ASSERT_FALSE(gt) << "width " << width << " row " << i;
            }
        }
    }
}

}  // namespace
}  // namespace syncts
