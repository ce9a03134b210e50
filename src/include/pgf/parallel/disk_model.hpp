// Service-time model of a mid-90s SCSI disk with an LRU block cache.
//
// The paper's SP-2 nodes read 8 KB grid-file buckets from local disks; it
// explicitly notes that "caching effects come into play" in the animation
// experiment because consecutive snapshot queries re-fetch the same blocks.
// The model therefore charges a full seek + rotation + transfer for a cold
// random block, transfer only for a sequentially-next block, and a small
// constant for a cache hit.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "pgf/sim/des.hpp"

namespace pgf {

struct DiskParams {
    double avg_seek_s = 0.010;        ///< average seek
    double avg_rotation_s = 0.0042;   ///< half a revolution at 7200 rpm
    double transfer_bytes_per_s = 4.0e6;
    double cache_hit_s = 0.0001;      ///< buffer-copy cost of a cached block
    std::size_t block_bytes = 8192;
    std::size_t cache_blocks = 1024;  ///< per-node LRU capacity (0 = no cache)
};

class SimulatedDisk {
public:
    explicit SimulatedDisk(DiskParams params = {});

    /// Service time for reading `block`, updating the cache and the
    /// sequential-access state.
    sim::SimTime read(std::uint64_t block);

    std::uint64_t physical_reads() const { return physical_reads_; }
    std::uint64_t cache_hits() const { return cache_hits_; }

    void reset_counters();
    void drop_cache();

    const DiskParams& params() const { return params_; }

private:
    void cache_insert(std::uint64_t block);

    DiskParams params_;
    std::uint64_t physical_reads_ = 0;
    std::uint64_t cache_hits_ = 0;
    std::uint64_t last_block_ = ~std::uint64_t{0};
    bool has_last_ = false;
    // LRU: most recent at the front.
    std::list<std::uint64_t> lru_;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> index_;
};

}  // namespace pgf
