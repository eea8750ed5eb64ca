#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "clocks/online_clock.hpp"
#include "clocks/wire.hpp"
#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"
#include "trace/generator.hpp"

namespace syncts {
namespace {

TEST(Varint, SmallValuesAreOneByte) {
    std::vector<std::uint8_t> out;
    encode_varint(0, out);
    encode_varint(1, out);
    encode_varint(127, out);
    EXPECT_EQ(out.size(), 3u);
    std::size_t offset = 0;
    EXPECT_EQ(decode_varint(out, offset), 0u);
    EXPECT_EQ(decode_varint(out, offset), 1u);
    EXPECT_EQ(decode_varint(out, offset), 127u);
    EXPECT_EQ(offset, out.size());
}

TEST(Varint, BoundaryValuesRoundTrip) {
    for (const std::uint64_t value :
         {0ull, 127ull, 128ull, 16383ull, 16384ull, 0xFFFFFFFFull,
          0xFFFFFFFFFFFFFFFFull}) {
        std::vector<std::uint8_t> out;
        encode_varint(value, out);
        std::size_t offset = 0;
        EXPECT_EQ(decode_varint(out, offset), value);
        EXPECT_EQ(offset, out.size());
    }
}

TEST(Varint, TruncatedInputRejected) {
    std::vector<std::uint8_t> out;
    encode_varint(300, out);
    out.pop_back();
    std::size_t offset = 0;
    EXPECT_THROW(decode_varint(out, offset), std::invalid_argument);
}

TEST(Varint, OverlongInputRejected) {
    const std::vector<std::uint8_t> bytes(11, 0x80);
    std::size_t offset = 0;
    EXPECT_THROW(decode_varint(bytes, offset), std::invalid_argument);
}

TEST(TimestampWire, RoundTrip) {
    const VectorTimestamp stamp(
        std::vector<std::uint64_t>{0, 1, 127, 128, 1'000'000});
    const auto bytes = encode_timestamp(stamp);
    EXPECT_EQ(bytes.size(), encoded_size(stamp));
    EXPECT_EQ(decode_timestamp(bytes), stamp);
}

TEST(TimestampWire, EmptyTimestamp) {
    const VectorTimestamp stamp(0);
    const auto bytes = encode_timestamp(stamp);
    EXPECT_EQ(bytes.size(), 1u);
    EXPECT_EQ(decode_timestamp(bytes), stamp);
}

TEST(TimestampWire, MalformedInputs) {
    EXPECT_THROW(decode_timestamp({}), std::invalid_argument);
    // Claims width 5 with no component bytes.
    const std::vector<std::uint8_t> lying{5};
    EXPECT_THROW(decode_timestamp(lying), std::invalid_argument);
    // Trailing garbage after a valid stamp.
    auto bytes = encode_timestamp(VectorTimestamp(2));
    bytes.push_back(0);
    EXPECT_THROW(decode_timestamp(bytes), std::invalid_argument);
}

TEST(TimestampWire, FreshClocksCostWidthPlusOneBytes) {
    // The practical O(d) claim: a fresh width-4 clock costs 5 bytes.
    EXPECT_EQ(encoded_size(VectorTimestamp(4)), 5u);
    EXPECT_EQ(encoded_size(VectorTimestamp(64)), 65u);
}

TEST(TimestampWire, ExpectedWidthOverloadRejectsWrongWidth) {
    const VectorTimestamp stamp(std::vector<std::uint64_t>{3, 1, 4});
    const auto bytes = encode_timestamp(stamp);
    EXPECT_EQ(decode_timestamp(bytes, 3), stamp);
    // Width is validated against the decomposition size d before any
    // component is decoded or allocated.
    for (const std::size_t wrong : {0u, 2u, 4u, 1'000'000u}) {
        try {
            decode_timestamp(bytes, wrong);
            FAIL() << "width " << wrong << " accepted";
        } catch (const WireError& e) {
            EXPECT_EQ(e.kind(), WireError::Kind::width_mismatch);
        }
    }
}

TEST(TimestampWire, TypedErrorsCarryTheirKind) {
    try {
        decode_timestamp({});
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::truncated);
    }
    const std::vector<std::uint8_t> lying{5};
    try {
        decode_timestamp(lying);
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::length_mismatch);
    }
    auto trailing = encode_timestamp(VectorTimestamp(2));
    trailing.push_back(0);
    try {
        decode_timestamp(trailing);
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::trailing_bytes);
    }
}

TEST(Checksum, Fnv1a64KnownVectors) {
    EXPECT_EQ(fnv1a64({}), 0xCBF29CE484222325ull);
    const std::vector<std::uint8_t> a{'a'};
    EXPECT_EQ(fnv1a64(a), 0xAF63DC4C8601EC8Cull);
}

/// Frames `frame` with encode_frame_into.
std::vector<std::uint8_t> encode_sync_frame(const SyncFrame& frame) {
    std::vector<std::uint8_t> bytes;
    encode_frame_into(frame.sequence, frame.message,
                      frame.stamp.components(), bytes);
    return bytes;
}

/// decode_frame_into at `expected_width`, reassembled into a SyncFrame.
SyncFrame decode_sync_frame(std::span<const std::uint8_t> bytes,
                            std::size_t expected_width) {
    SyncFrame frame;
    frame.stamp = VectorTimestamp(expected_width);
    const FrameHeader header =
        decode_frame_into(bytes, frame.stamp.mutable_components());
    frame.sequence = header.sequence;
    frame.message = header.message;
    return frame;
}

TEST(SyncFrameWire, RoundTrip) {
    const SyncFrame frame{
        .sequence = 1234,
        .message = 9,
        .stamp = VectorTimestamp(std::vector<std::uint64_t>{7, 0, 300})};
    const auto bytes = encode_sync_frame(frame);
    EXPECT_EQ(decode_sync_frame(bytes, 3), frame);
}

TEST(SyncFrameWire, EveryByteFlipIsDetected) {
    const SyncFrame frame{
        .sequence = 2,
        .message = 5,
        .stamp = VectorTimestamp(std::vector<std::uint64_t>{1, 130})};
    const auto bytes = encode_sync_frame(frame);
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            auto corrupted = bytes;
            corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_THROW(decode_sync_frame(corrupted, 2), WireError)
                << "byte " << byte << " bit " << bit;
        }
    }
}

TEST(SyncFrameWire, TruncationAndExtensionAreDetected) {
    const SyncFrame frame{
        .sequence = 3,
        .message = 1,
        .stamp = VectorTimestamp(std::vector<std::uint64_t>{42})};
    const auto bytes = encode_sync_frame(frame);
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
        const std::vector<std::uint8_t> cut(bytes.begin(),
                                            bytes.begin() + static_cast<std::ptrdiff_t>(keep));
        EXPECT_THROW(decode_sync_frame(cut, 1), WireError) << "kept " << keep;
    }
    auto extended = bytes;
    extended.push_back(0x00);
    EXPECT_THROW(decode_sync_frame(extended, 1), WireError);
}

TEST(SyncFrameWire, WidthMismatchRejectedBeforeComponents) {
    const SyncFrame frame{
        .sequence = 1,
        .message = 0,
        .stamp = VectorTimestamp(std::vector<std::uint64_t>{5, 6})};
    const auto bytes = encode_sync_frame(frame);
    try {
        decode_sync_frame(bytes, 3);
        FAIL();
    } catch (const WireError& e) {
        EXPECT_EQ(e.kind(), WireError::Kind::width_mismatch);
    }
}

TEST(SyncFrameWire, RealWorkloadFramesRoundTrip) {
    const Graph g = topology::client_server(2, 5);
    const SyncSystem system{Graph(g)};
    Rng rng(4242);
    WorkloadOptions options;
    options.num_messages = 150;
    const SyncComputation c = random_computation(g, options, rng);
    auto timestamper = system.make_timestamper();
    std::uint64_t sequence = 0;
    for (const SyncMessage& m : c.messages()) {
        const SyncFrame frame{
            .sequence = ++sequence,
            .message = m.id,
            .stamp = timestamper.timestamp_message(m.sender, m.receiver)};
        const auto bytes = encode_sync_frame(frame);
        EXPECT_EQ(decode_sync_frame(bytes, frame.stamp.width()), frame);
    }
}

TEST(TimestampWire, RealWorkloadRoundTrips) {
    const Graph g = topology::client_server(3, 9);
    const SyncSystem system{Graph(g)};
    Rng rng(909);
    WorkloadOptions options;
    options.num_messages = 300;
    const SyncComputation c = random_computation(g, options, rng);
    auto timestamper = system.make_timestamper();
    std::size_t total_bytes = 0;
    for (const SyncMessage& m : c.messages()) {
        const VectorTimestamp stamp =
            timestamper.timestamp_message(m.sender, m.receiver);
        const auto bytes = encode_timestamp(stamp);
        total_bytes += bytes.size();
        EXPECT_EQ(decode_timestamp(bytes), stamp);
    }
    // 300 messages over d=3: varints keep the piggyback close to d+1
    // bytes even as counters grow into the hundreds (2-byte varints).
    EXPECT_LT(total_bytes, 300u * (2 * 3 + 1));
}

// ---------------------------------------------------------------------------
// The single-pass reader: peek_frame_info + decode_frame_stamp_into must
// agree with the public per-version readers on every input.

/// Outcome of one decode: the header and stamp, or the error kind.
struct Decoded {
    bool ok = false;
    WireError::Kind kind = WireError::Kind::truncated;
    FrameHeader header;
    std::vector<std::uint64_t> stamp;
    std::uint64_t version = 0;  ///< frame version (pair decodes only)
};

bool same_header(const FrameHeader& a, const FrameHeader& b) {
    return a.sequence == b.sequence && a.message == b.message &&
           a.epoch == b.epoch;
}

/// Decodes with the single-pass pair.
Decoded decode_by_pair(std::span<const std::uint8_t> bytes,
                       std::span<const std::uint64_t> base) {
    Decoded out;
    out.stamp.assign(base.size(), 0);
    try {
        const FrameInfo info = peek_frame_info(bytes);
        out.version = info.version;
        decode_frame_stamp_into(info, base, out.stamp);
        out.header = info.header;
        out.ok = true;
    } catch (const WireError& e) {
        out.kind = e.kind();
    }
    return out;
}

/// Decodes with the public reader for a frame of `version`: the delta
/// decoder for v3, the epoch-frame decoder for v1/v2.
Decoded decode_by_wrapper(std::span<const std::uint8_t> bytes,
                          std::span<const std::uint64_t> base,
                          std::uint64_t version) {
    Decoded out;
    out.stamp.assign(base.size(), 0);
    try {
        out.header = version == kDeltaFrameVersion
                         ? decode_delta_frame_into(bytes, base, out.stamp)
                         : decode_epoch_frame_into(bytes, out.stamp);
        out.ok = true;
    } catch (const WireError& e) {
        out.kind = e.kind();
    }
    return out;
}

bool same_family(std::uint64_t a, std::uint64_t b) {
    return (a == kDeltaFrameVersion) == (b == kDeltaFrameVersion);
}

TEST(SyncFrameWire, SinglePassReaderAgreesWithWrappers) {
    Rng rng(7117);
    std::uint64_t resealed_accepted = 0;
    for (const std::size_t width : {1u, 2u, 5u, 64u, 176u}) {
        std::vector<std::uint64_t> base(width);
        std::vector<std::uint64_t> stamp(width);
        for (std::size_t i = 0; i < width; ++i) {
            base[i] = rng.below(1u << (7 * (i % 4)));
            stamp[i] = base[i] + (i % 3 == 0 ? rng.below(300) : 0);
        }
        for (const std::uint64_t version : {1u, 2u, 3u}) {
            std::vector<std::uint8_t> frame;
            const EpochId epoch = version == 1 ? EpochId{0} : EpochId{7};
            if (version == kDeltaFrameVersion) {
                ASSERT_TRUE(encode_delta_frame_into(epoch, 41, 9, base,
                                                    stamp, frame));
            } else {
                encode_epoch_frame_into(epoch, 41, 9, stamp, frame);
            }
            const Decoded clean = decode_by_pair(frame, base);
            ASSERT_TRUE(clean.ok) << "width " << width << " v" << version;
            EXPECT_EQ(clean.version, version);
            EXPECT_EQ(clean.stamp, stamp);
            EXPECT_TRUE(same_header(clean.header, FrameHeader{41, 9, epoch}));

            std::vector<std::vector<std::uint8_t>> mutations;
            for (std::size_t bit = 0; bit < 8 * frame.size(); ++bit) {
                mutations.push_back(frame);
                mutations.back()[bit / 8] ^=
                    static_cast<std::uint8_t>(1u << (bit % 8));
            }
            for (std::size_t keep = 0; keep < frame.size(); ++keep) {
                mutations.emplace_back(frame.begin(),
                                       frame.begin() +
                                           static_cast<std::ptrdiff_t>(keep));
            }
            mutations.push_back(frame);
            mutations.back().push_back(0x5A);
            for (const std::vector<std::uint8_t>& bytes : mutations) {
                // As damaged in flight: both readers see the same bytes
                // and must agree exactly, errors included.
                const Decoded pair = decode_by_pair(bytes, base);
                const Decoded wrapper =
                    decode_by_wrapper(bytes, base, version);
                ASSERT_EQ(pair.ok, wrapper.ok);
                if (pair.ok) {
                    EXPECT_TRUE(same_header(pair.header, wrapper.header));
                    EXPECT_EQ(pair.stamp, wrapper.stamp);
                } else {
                    EXPECT_EQ(pair.kind, wrapper.kind);
                }
                // Re-sealed under a fresh checksum, the damage reaches the
                // header and body parsers. The pair accepts every version,
                // so it may take frames the wrapper refuses — never the
                // reverse — and agrees whenever the version stays in the
                // wrapper's family.
                if (bytes.size() <= common::kChecksumTrailerBytes) continue;
                std::vector<std::uint8_t> sealed(
                    bytes.begin(),
                    bytes.end() - static_cast<std::ptrdiff_t>(
                                      common::kChecksumTrailerBytes));
                common::append_checksum_trailer(sealed);
                const Decoded sealed_pair = decode_by_pair(sealed, base);
                const Decoded sealed_wrapper =
                    decode_by_wrapper(sealed, base, version);
                if (sealed_wrapper.ok) {
                    ++resealed_accepted;
                    ASSERT_TRUE(sealed_pair.ok);
                    EXPECT_TRUE(
                        same_header(sealed_pair.header, sealed_wrapper.header));
                    EXPECT_EQ(sealed_pair.stamp, sealed_wrapper.stamp);
                } else if (sealed_pair.ok) {
                    EXPECT_FALSE(same_family(sealed_pair.version, version));
                } else if (sealed_wrapper.kind !=
                           WireError::Kind::unsupported_version) {
                    EXPECT_EQ(sealed_pair.kind, sealed_wrapper.kind);
                }
            }
        }
    }
    // Re-sealed value flips decode to a different stamp; the comparison
    // above must have seen such accepted frames, not only rejections.
    EXPECT_GT(resealed_accepted, 0u);
}

}  // namespace
}  // namespace syncts
