#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>
#include <utility>

/// Strict numeric flag parsing shared by the syncts tools. Every value is
/// one whole token: no sign, no leading space, no trailing text, no
/// overflow. A nullopt result is a usage error for the caller to report
/// (exit 2), never a silent default.

namespace syncts::tools {

/// Whole-token unsigned decimal.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || stop != end) return std::nullopt;
    return value;
}

/// Whole-token probability in [0, 1].
inline std::optional<double> parse_probability(std::string_view text) {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    // The negated range test also rejects nan.
    if (ec != std::errc{} || stop != end || !(value >= 0.0 && value <= 1.0)) {
        return std::nullopt;
    }
    return value;
}

/// "LO:HI" link-latency range with 1 <= LO <= HI.
inline std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_latency(
    std::string_view text) {
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    const std::optional<std::uint64_t> lo = parse_u64(text.substr(0, colon));
    const std::optional<std::uint64_t> hi = parse_u64(text.substr(colon + 1));
    if (!lo || !hi || *lo < 1 || *lo > *hi) return std::nullopt;
    return std::pair{*lo, *hi};
}

}  // namespace syncts::tools
