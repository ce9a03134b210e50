// The in-memory grid file: GridFileCore over a VectorBucketStore (every
// bucket's records held resident in a std::vector). All structure and
// query logic lives in the shared engine (grid_file_core.hpp). To keep a
// grid file on disk, build a PagedGridFile (pgf/storage/paged_grid_file.hpp)
// instead: it reopens from its own catalog.
#pragma once

#include <cstdint>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/bucket_store.hpp"
#include "pgf/gridfile/grid_file_core.hpp"

namespace pgf {

template <std::size_t D>
class GridFile : public GridFileCore<D, VectorBucketStore<D>> {
    using Core = GridFileCore<D, VectorBucketStore<D>>;

public:
    using BucketId = std::uint32_t;

    struct Config {
        /// Maximum records per bucket. The paper fixes bucket size at 4 KB;
        /// with ~72-byte records that is 56 records per bucket.
        std::size_t bucket_capacity = 56;
    };

    GridFile(const Rect<D>& domain, Config config = {})
        : Core(domain, config.bucket_capacity), config_(config) {}

    const Config& config() const { return config_; }

private:
    Config config_;
};

}  // namespace pgf
