#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file ts_simd.hpp
/// Runtime-dispatched SIMD backends for the batch timestamp kernels.
///
/// The public arena kernels (timestamp_arena.hpp leq_many/relate_many/
/// dominators_of and the SoaStripes scans) call through here: on hosts
/// with AVX2 the `*_avx2` bodies run (compiled with a per-function
/// target attribute, so the rest of the library keeps the portable
/// baseline ISA); everywhere else the `*_scalar` bodies — the PR 4
/// 4-way-unrolled kernels — run. Both backends are exposed by name so
/// the differential tests can pin them against each other on the same
/// host: every output is a small integer (0/1 or relate flags), so
/// "bit-identical" is an exact contract, not a tolerance.
///
/// Layout contracts:
///  - Row-major: `slab` is rows*width words, row i at slab[i*width].
///  - Stripes (SoA): blocks of kSoaLane=4 rows; stripe s stores
///    component k of its four lanes at stripes[(s*width + k)*4 .. +4);
///    pad lanes of the last partial stripe are zero and their outputs
///    are not written.
///  - Order masks: bit i of word i/64 is row i's flag; words past the
///    last row are not written and bits at or above `rows` in the last
///    word are zero.
///
/// The unsigned 64-bit vector compare uses the classic sign-flip trick:
/// x >u y  ⟺  (x ^ 2^63) >s (y ^ 2^63), since AVX2 only has a signed
/// 64-bit compare (_mm256_cmpgt_epi64).

namespace syncts::simd {

/// True when the running CPU supports AVX2 (cached after the first
/// call). The dispatched kernels below consult this once per batch, not
/// per row.
bool avx2_available() noexcept;

// ---- Row-major backends ----------------------------------------------

void leq_many_scalar(const std::uint64_t* slab, std::size_t rows,
                     std::size_t width, const std::uint64_t* probe,
                     std::uint8_t* out) noexcept;
void relate_many_scalar(const std::uint64_t* slab, std::size_t rows,
                        std::size_t width, const std::uint64_t* probe,
                        std::uint8_t* out) noexcept;
void dominators_of_scalar(const std::uint64_t* slab, std::size_t rows,
                          std::size_t width, const std::uint64_t* probe,
                          std::vector<std::uint32_t>& out);

/// AVX2 bodies; falling back to the scalar bodies on hosts without
/// AVX2 support (callers normally go through the dispatched forms).
void leq_many_avx2(const std::uint64_t* slab, std::size_t rows,
                   std::size_t width, const std::uint64_t* probe,
                   std::uint8_t* out) noexcept;
void relate_many_avx2(const std::uint64_t* slab, std::size_t rows,
                      std::size_t width, const std::uint64_t* probe,
                      std::uint8_t* out) noexcept;
void dominators_of_avx2(const std::uint64_t* slab, std::size_t rows,
                        std::size_t width, const std::uint64_t* probe,
                        std::vector<std::uint32_t>& out);

// ---- Stripe (SoA) backends -------------------------------------------

void leq_many_stripes_scalar(const std::uint64_t* stripes, std::size_t rows,
                             std::size_t width, const std::uint64_t* probe,
                             std::uint8_t* out) noexcept;
void relate_many_stripes_scalar(const std::uint64_t* stripes,
                                std::size_t rows, std::size_t width,
                                const std::uint64_t* probe,
                                std::uint8_t* out) noexcept;

void leq_many_stripes_avx2(const std::uint64_t* stripes, std::size_t rows,
                           std::size_t width, const std::uint64_t* probe,
                           std::uint8_t* out) noexcept;
void relate_many_stripes_avx2(const std::uint64_t* stripes,
                              std::size_t rows, std::size_t width,
                              const std::uint64_t* probe,
                              std::uint8_t* out) noexcept;

/// Fused strict-order masks of stripe rows [0, rows) against `probe`:
/// bit i of `lt_words` is row i < probe and bit i of `gt_words` is
/// probe < row i, each written as ceil(rows/64) whole words — no byte
/// flags in between, so a caller can XOR and popcount them against a
/// bitset row directly. `rows` may be any prefix of the mirror.
void order_masks_stripes_scalar(const std::uint64_t* stripes,
                                std::size_t rows, std::size_t width,
                                const std::uint64_t* probe,
                                std::uint64_t* lt_words,
                                std::uint64_t* gt_words) noexcept;
void order_masks_stripes_avx2(const std::uint64_t* stripes,
                              std::size_t rows, std::size_t width,
                              const std::uint64_t* probe,
                              std::uint64_t* lt_words,
                              std::uint64_t* gt_words) noexcept;

// ---- Dispatched entry points -----------------------------------------

inline void leq_many(const std::uint64_t* slab, std::size_t rows,
                     std::size_t width, const std::uint64_t* probe,
                     std::uint8_t* out) noexcept {
    if (avx2_available()) {
        leq_many_avx2(slab, rows, width, probe, out);
    } else {
        leq_many_scalar(slab, rows, width, probe, out);
    }
}

inline void relate_many(const std::uint64_t* slab, std::size_t rows,
                        std::size_t width, const std::uint64_t* probe,
                        std::uint8_t* out) noexcept {
    if (avx2_available()) {
        relate_many_avx2(slab, rows, width, probe, out);
    } else {
        relate_many_scalar(slab, rows, width, probe, out);
    }
}

inline void dominators_of(const std::uint64_t* slab, std::size_t rows,
                          std::size_t width, const std::uint64_t* probe,
                          std::vector<std::uint32_t>& out) {
    if (avx2_available()) {
        dominators_of_avx2(slab, rows, width, probe, out);
    } else {
        dominators_of_scalar(slab, rows, width, probe, out);
    }
}

inline void leq_many_stripes(const std::uint64_t* stripes, std::size_t rows,
                             std::size_t width, const std::uint64_t* probe,
                             std::uint8_t* out) noexcept {
    if (avx2_available()) {
        leq_many_stripes_avx2(stripes, rows, width, probe, out);
    } else {
        leq_many_stripes_scalar(stripes, rows, width, probe, out);
    }
}

inline void relate_many_stripes(const std::uint64_t* stripes,
                                std::size_t rows, std::size_t width,
                                const std::uint64_t* probe,
                                std::uint8_t* out) noexcept {
    if (avx2_available()) {
        relate_many_stripes_avx2(stripes, rows, width, probe, out);
    } else {
        relate_many_stripes_scalar(stripes, rows, width, probe, out);
    }
}

inline void order_masks_stripes(const std::uint64_t* stripes,
                                std::size_t rows, std::size_t width,
                                const std::uint64_t* probe,
                                std::uint64_t* lt_words,
                                std::uint64_t* gt_words) noexcept {
    if (avx2_available()) {
        order_masks_stripes_avx2(stripes, rows, width, probe, lt_words,
                                 gt_words);
    } else {
        order_masks_stripes_scalar(stripes, rows, width, probe, lt_words,
                                   gt_words);
    }
}

}  // namespace syncts::simd
