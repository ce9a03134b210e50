// The in-memory grid file: GridFileCore over a VectorBucketStore (every
// bucket's records held resident in a std::vector).
//
// All structure and query logic lives in the shared engine
// (grid_file_core.hpp); this subclass adds the in-memory-only surface:
// direct Bucket access (records + cell box as one unit, consumed by the
// snapshot save path) and restore(), which reassembles a file from
// persisted scales and buckets.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/bucket_store.hpp"
#include "pgf/gridfile/directory.hpp"
#include "pgf/gridfile/grid_file_core.hpp"
#include "pgf/gridfile/scales.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

template <std::size_t D>
class GridFile : public GridFileCore<D, VectorBucketStore<D>> {
    using Core = GridFileCore<D, VectorBucketStore<D>>;

public:
    using BucketId = std::uint32_t;
    using Bucket = typename VectorBucketStore<D>::Bucket;

    struct Config {
        /// Maximum records per bucket. The paper fixes bucket size at 4 KB;
        /// with ~72-byte records that is 56 records per bucket.
        std::size_t bucket_capacity = 56;
    };

    GridFile(const Rect<D>& domain, Config config = {})
        : Core(domain, config.bucket_capacity), config_(config) {}

    const Config& config() const { return config_; }

    /// Direct access to a bucket's records and cell box (in-memory only;
    /// the storage layer's save path serializes buckets through this).
    const Bucket& bucket(BucketId b) const {
        return this->store_.entries()[b];
    }

    /// Reassembles a grid file from persisted state: the per-dimension
    /// scales and the buckets (records + cell boxes). The directory is
    /// rebuilt from the bucket cell boxes, which must tile the grid exactly
    /// (checked by retile()). Used by the storage layer's load path.
    static GridFile restore(const Rect<D>& domain, Config config,
                            std::vector<LinearScale> scales,
                            std::vector<Bucket> buckets) {
        PGF_CHECK(scales.size() == D, "restore: one scale per dimension");
        for (std::size_t i = 0; i < D; ++i) {
            PGF_CHECK(scales[i].lo() == domain.lo[i] &&
                          scales[i].hi() == domain.hi[i],
                      "restore: scale does not span the domain");
        }
        GridFile gf(domain, config);
        gf.scales_ = std::move(scales);
        gf.store_.entries() = std::move(buckets);
        gf.retile();
        return gf;
    }

private:
    Config config_;
};

}  // namespace pgf
