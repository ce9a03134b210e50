// A worker node's private view of the shared page image: its own file
// handle plus its own latched buffer pool. Shared-nothing nodes cache
// independently, so a consumer of a paged grid file's disk image — the
// concurrent QueryEngine (query_engine.hpp) or a per-node serial replay —
// opens one NodeBacking per cluster node over the same backing path.
//
// The backing file must be flushed (PagedGridFile::flush) before any
// NodeBacking opens it, so the node pools read current page images.
#pragma once

#include <string>

#include "pgf/storage/buffer_pool.hpp"
#include "pgf/storage/page_file.hpp"

namespace pgf {

struct NodeBacking {
    PageFile file;
    BufferPool pool;
    NodeBacking(const std::string& path, std::size_t pool_pages,
                ReplacementPolicy policy = ReplacementPolicy::kLru)
        : file(PageFile::open(path)), pool(file, pool_pages, policy) {}
};

}  // namespace pgf
