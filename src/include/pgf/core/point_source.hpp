// Streaming point producers — the input side of the out-of-core build
// pipeline (pgf/core/extsort.hpp, GridFileCore::bulk_load_stream).
//
// A PointSource delivers a point sequence in bounded blocks: next(out)
// fills a prefix of `out` and returns the count, 0 meaning exhausted.
// Nothing about the interface fixes the block size, and the consumers are
// chunking-independent (bulk_load_stream produces byte-identical grid
// files for any block partition of the same sequence), so sources are
// free to return short fills.
//
// Provided sources:
//   VectorPointSource     — replays an in-memory vector (tests, goldens)
//   GeneratorPointSource  — n points from a stateful generator functor;
//                           the workload layer uses it to stream the
//                           paper's distributions without materializing
//                           them (pgf/workload/datasets.hpp)
//   BinaryFilePointSource — reads the flat binary format written by
//                           write_binary_points (pgfcli ingestion)
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/file.hpp"

namespace pgf {

template <std::size_t D>
class PointSource {
public:
    virtual ~PointSource() = default;

    /// Fills a prefix of `out` with the next points of the sequence and
    /// returns how many were written; 0 means the source is exhausted
    /// (and every later call must also return 0).
    virtual std::size_t next(std::span<Point<D>> out) = 0;
};

/// Replays an in-memory point vector (borrowed, not copied).
template <std::size_t D>
class VectorPointSource final : public PointSource<D> {
public:
    explicit VectorPointSource(const std::vector<Point<D>>& points)
        : points_(points) {}

    std::size_t next(std::span<Point<D>> out) override {
        std::size_t k = 0;
        while (k < out.size() && pos_ < points_.size()) {
            out[k++] = points_[pos_++];
        }
        return k;
    }

private:
    const std::vector<Point<D>>& points_;
    std::size_t pos_ = 0;
};

/// Exactly `count` points pulled one at a time from a stateful generator.
/// The generator is invoked in sequence order, so RNG-driven generators
/// reproduce their in-memory counterparts point for point.
template <std::size_t D>
class GeneratorPointSource final : public PointSource<D> {
public:
    GeneratorPointSource(std::uint64_t count,
                         std::function<Point<D>()> generate)
        : remaining_(count), generate_(std::move(generate)) {}

    std::size_t next(std::span<Point<D>> out) override {
        std::size_t k = 0;
        while (k < out.size() && remaining_ > 0) {
            out[k++] = generate_();
            --remaining_;
        }
        return k;
    }

private:
    std::uint64_t remaining_;
    std::function<Point<D>()> generate_;
};

// -- flat binary point files -------------------------------------------------
//
// Layout (little-endian): 8-byte magic "PGFPTS1\0", u64 dims, u64 count,
// then count * dims doubles (IEEE-754 bit patterns as u64). The header
// makes dimension mismatches a hard error instead of silent garbage.

namespace binary_points {
inline constexpr char kMagic[8] = {'P', 'G', 'F', 'P', 'T', 'S', '1', '\0'};
inline constexpr std::size_t kHeaderBytes = 24;

/// Reads and validates the header; returns the file's (dims, count).
/// Bad magic and a header cut short are CheckErrors.
inline std::pair<std::uint64_t, std::uint64_t> read_header(FileReader& in) {
    const auto header = in.next(kHeaderBytes);
    PGF_CHECK(header.size() >= sizeof(kMagic) &&
                  std::memcmp(header.data(), kMagic, sizeof(kMagic)) == 0,
              "binary points: bad magic in " + in.path());
    PGF_CHECK(header.size() == kHeaderBytes,
              "binary points: truncated header in " + in.path());
    return {load_le<std::uint64_t>(header.data() + 8), load_le<std::uint64_t>(header.data() + 16)};
}
}  // namespace binary_points

/// Writes `points` as a flat binary point file (see layout above).
template <std::size_t D>
void write_binary_points(const std::filesystem::path& path,
                         std::span<const Point<D>> points) {
    File out(path.string(), File::Mode::kCreate);
    std::byte header[binary_points::kHeaderBytes];
    std::memcpy(header, binary_points::kMagic, sizeof(binary_points::kMagic));
    store_le<std::uint64_t>(header + 8, D);
    store_le<std::uint64_t>(header + 16, points.size());
    out.append(header);
    constexpr std::size_t kBlockPoints = 4096;
    std::vector<std::byte> block;
    for (std::size_t k = 0; k < points.size(); k += kBlockPoints) {
        const std::size_t n = std::min(kBlockPoints, points.size() - k);
        block.resize(n * D * 8);
        for (std::size_t j = 0; j < n; ++j) {
            for (std::size_t i = 0; i < D; ++i) {
                store_le<std::uint64_t>(block.data() + (j * D + i) * 8,
                            std::bit_cast<std::uint64_t>(points[k + j][i]));
            }
        }
        out.append(block);
    }
}

/// Streams a flat binary point file written by write_binary_points.
/// Validates the magic and dimension up front; a truncated body fails at
/// read time.
template <std::size_t D>
class BinaryFilePointSource final : public PointSource<D> {
public:
    explicit BinaryFilePointSource(const std::filesystem::path& path)
        : in_(path.string()) {
        const auto [dims, count] = binary_points::read_header(in_);
        PGF_CHECK(dims == D, "binary points: file is " +
                                 std::to_string(dims) + "-d, expected " +
                                 std::to_string(D) + "-d: " + in_.path());
        remaining_ = count;
    }

    std::size_t next(std::span<Point<D>> out) override {
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(out.size(), remaining_));
        if (want == 0) return 0;
        const auto bytes = in_.next(want * D * 8);
        PGF_CHECK(bytes.size() == want * D * 8,
                  "binary points: truncated body in " + in_.path());
        for (std::size_t k = 0; k < want; ++k) {
            for (std::size_t i = 0; i < D; ++i) {
                out[k][i] = std::bit_cast<double>(
                    load_le<std::uint64_t>(bytes.data() + (k * D + i) * 8));
            }
        }
        remaining_ -= want;
        return want;
    }

    std::uint64_t remaining() const { return remaining_; }

private:
    FileReader in_;
    std::uint64_t remaining_ = 0;
};

}  // namespace pgf
