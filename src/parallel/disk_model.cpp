#include "pgf/parallel/disk_model.hpp"

#include "pgf/util/check.hpp"

namespace pgf {

SimulatedDisk::SimulatedDisk(DiskParams params) : params_(params) {
    PGF_CHECK(params_.transfer_bytes_per_s > 0.0,
              "disk transfer rate must be positive");
    PGF_CHECK(params_.block_bytes > 0, "disk block size must be positive");
}

sim::SimTime SimulatedDisk::read(std::uint64_t block) {
    if (params_.cache_blocks > 0 && index_.count(block) > 0) {
        ++cache_hits_;
        // Refresh recency.
        lru_.splice(lru_.begin(), lru_, index_[block]);
        return params_.cache_hit_s;
    }
    ++physical_reads_;
    double transfer = static_cast<double>(params_.block_bytes) /
                      params_.transfer_bytes_per_s;
    double positioning = 0.0;
    if (!(has_last_ && block == last_block_ + 1)) {
        positioning = params_.avg_seek_s + params_.avg_rotation_s;
    }
    last_block_ = block;
    has_last_ = true;
    if (params_.cache_blocks > 0) cache_insert(block);
    return positioning + transfer;
}

void SimulatedDisk::cache_insert(std::uint64_t block) {
    lru_.push_front(block);
    index_[block] = lru_.begin();
    if (lru_.size() > params_.cache_blocks) {
        index_.erase(lru_.back());
        lru_.pop_back();
    }
}

void SimulatedDisk::reset_counters() {
    physical_reads_ = 0;
    cache_hits_ = 0;
}

void SimulatedDisk::drop_cache() {
    lru_.clear();
    index_.clear();
    has_last_ = false;
}

}  // namespace pgf
