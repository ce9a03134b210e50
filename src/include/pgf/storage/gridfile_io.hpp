// Grid file persistence: save/load a GridFile<D> to a page file.
//
// Format (ByteWriter stream starting at page 0):
//   magic "PGFGRID1" (string), u32 dims, domain lo/hi (f64 each per dim),
//   u64 bucket_capacity, u8 split rule (0 = midpoint; any other value is
//   rejected),
//   per dim: u32 split count + f64 splits,
//   u32 bucket count, per bucket:
//     cell lo/hi (u32 each per dim), u64 record count,
//     per record: point (f64 per dim) + u64 id.
// The directory is not stored — it is reconstructed from the bucket cell
// boxes on load (GridFile<D>::restore validates the tiling).
#pragma once

#include <string>

#include "pgf/gridfile/grid_file.hpp"
#include "pgf/storage/serializer.hpp"

namespace pgf {

inline constexpr const char kGridFileMagic[] = "PGFGRID1";

/// Dimensionality recorded in a persisted grid file (so callers can
/// dispatch to the right load_grid_file<D> instantiation).
inline std::uint32_t stored_grid_file_dims(const std::string& path) {
    PageFile file = PageFile::open(path);
    BufferPool pool(file, 4);
    ByteReader r(pool, 0);
    PGF_CHECK(r.get_string() == kGridFileMagic,
              "stored_grid_file_dims: bad magic in " + path);
    return r.get_u32();
}

/// Saves `gf` to `path` (created/truncated). `pool_pages` bounds the write
/// cache. Returns the number of data pages written. Works for any backend
/// of the shared engine — an in-memory GridFile and a disk-backed
/// PagedGridFile with the same structure write byte-identical snapshots
/// (the streaming bulk loader leans on this: a stream-built paged file
/// persists through the same path the in-memory golden uses).
template <std::size_t D, typename Store>
std::uint64_t save_grid_file(const GridFileCore<D, Store>& gf,
                             const std::string& path,
                             std::size_t page_size = PageFile::kDefaultPageSize,
                             std::size_t pool_pages = 64) {
    PageFile file = PageFile::create(path, page_size);
    BufferPool pool(file, pool_pages);
    ByteWriter w(pool);
    w.put_string(kGridFileMagic);
    w.put_u32(static_cast<std::uint32_t>(D));
    for (std::size_t i = 0; i < D; ++i) {
        w.put_f64(gf.domain().lo[i]);
        w.put_f64(gf.domain().hi[i]);
    }
    w.put_u64(gf.bucket_capacity());
    w.put_u8(kSplitRuleMidpoint);
    for (std::size_t i = 0; i < D; ++i) {
        const auto& splits = gf.scale(i).splits();
        w.put_u32(static_cast<std::uint32_t>(splits.size()));
        for (double s : splits) w.put_f64(s);
    }
    w.put_u32(static_cast<std::uint32_t>(gf.bucket_count()));
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        const auto& cells = gf.bucket_cells(b);
        for (std::size_t i = 0; i < D; ++i) {
            w.put_u32(cells.lo[i]);
            w.put_u32(cells.hi[i]);
        }
        // On a paged backend this reads the bucket through the pool; the
        // reference stays valid until the next bucket's read.
        const auto& records = gf.bucket_records(b);
        w.put_u64(records.size());
        for (const auto& rec : records) {
            for (std::size_t i = 0; i < D; ++i) w.put_f64(rec.point[i]);
            w.put_u64(rec.id);
        }
    }
    w.finish();
    file.sync();
    return file.page_count();
}

/// Loads a grid file previously written by save_grid_file. Throws
/// CheckError on any format violation (wrong magic, wrong dimensionality,
/// an unknown split rule, non-tiling bucket boxes).
template <std::size_t D>
GridFile<D> load_grid_file(const std::string& path,
                           std::size_t pool_pages = 64) {
    PageFile file = PageFile::open(path);
    BufferPool pool(file, pool_pages);
    ByteReader r(pool, 0);
    PGF_CHECK(r.get_string() == kGridFileMagic,
              "load_grid_file: bad magic in " + path);
    PGF_CHECK(r.get_u32() == D,
              "load_grid_file: stored dimensionality does not match D");
    Rect<D> domain;
    for (std::size_t i = 0; i < D; ++i) {
        domain.lo[i] = r.get_f64();
        domain.hi[i] = r.get_f64();
    }
    typename GridFile<D>::Config config;
    config.bucket_capacity = r.get_u64();
    PGF_CHECK(r.get_u8() == kSplitRuleMidpoint,
              "load_grid_file: unknown split rule in " + path);
    std::vector<LinearScale> scales;
    scales.reserve(D);
    for (std::size_t i = 0; i < D; ++i) {
        LinearScale scale(domain.lo[i], domain.hi[i]);
        std::uint32_t n = r.get_u32();
        for (std::uint32_t k = 0; k < n; ++k) {
            PGF_CHECK(scale.insert_split(r.get_f64(), nullptr),
                      "load_grid_file: duplicate scale split");
        }
        scales.push_back(std::move(scale));
    }
    std::uint32_t bucket_count = r.get_u32();
    std::vector<typename GridFile<D>::Bucket> buckets;
    buckets.reserve(bucket_count);
    for (std::uint32_t b = 0; b < bucket_count; ++b) {
        typename GridFile<D>::Bucket bucket;
        for (std::size_t i = 0; i < D; ++i) {
            bucket.cells.lo[i] = r.get_u32();
            bucket.cells.hi[i] = r.get_u32();
        }
        std::uint64_t records = r.get_u64();
        bucket.records.reserve(records);
        for (std::uint64_t k = 0; k < records; ++k) {
            GridRecord<D> rec;
            for (std::size_t i = 0; i < D; ++i) rec.point[i] = r.get_f64();
            rec.id = r.get_u64();
            bucket.records.push_back(rec);
        }
        buckets.push_back(std::move(bucket));
    }
    return GridFile<D>::restore(domain, config, std::move(scales),
                                std::move(buckets));
}

}  // namespace pgf
