// Record storage backends for the shared grid-file engine.
//
// GridFileCore (grid_file_core.hpp) owns the *access structure* of a grid
// file — linear scales, grid directory, bucket cell boxes, the
// split/refinement rules — and delegates where bucket *records* live to a
// BucketStore policy. A BucketStore models:
//
//   using Records = std::vector<GridRecord<D>>;
//   static constexpr bool kStrictCapacity;    // may a bucket stay oversized?
//   std::size_t bucket_count() const;
//   std::uint32_t create_bucket(const CellBox<D>& cells,
//                               std::size_t reserve_hint);
//   const CellBox<D>& cells(std::uint32_t b) const;   // + mutable overload
//   std::size_t size(std::uint32_t b) const;  // records held by bucket b
//   const Records& read(std::uint32_t b) const;       // query access
//   void append(std::uint32_t b, std::span<const GridRecord<D>> run);
//   Records& edit(std::uint32_t b);           // open an edit session on b
//   Records& active();                        // the session's open buffer
//   void split_active(std::uint32_t b, std::uint32_t new_id,
//                     std::size_t pivot, bool continue_with_upper);
//   void commit(std::uint32_t b);             // close the session
//
// append(b, run) adds a run of records, in order, to a bucket with room
// for all of them (size(b) + run.size() at most the engine's capacity)
// without opening a session: it leaves the store exactly as edit(b), a
// push_back of each record and commit(b) would, so a store may write just
// the run and the count instead of the whole bucket. The engine calls it
// with a one-record run for every insert that does not overflow, and the
// bulk loader with each bucket's pending run at the end of a block. Runs
// are never empty.
//
// Edit protocol: the engine opens at most one session at a time with
// edit(b), mutates the returned buffer, and finishes with commit() on the
// session's *final* bucket. During overflow handling the engine partitions
// active() at `pivot` (lower half [0, pivot), upper half [pivot, end)) and
// calls split_active: the lower half belongs to bucket `b`, the upper half
// to the freshly created `new_id`, and the session continues on whichever
// half `continue_with_upper` selects — the store must durably place the
// other half itself. The reference returned by read() stays valid only
// until the next read() or edit() call on the same store.
//
// kStrictCapacity declares whether the store can represent an oversized
// bucket: the in-memory vector store tolerates one (duplicate-heavy data
// that refinement cannot separate simply leaves the bucket over capacity),
// while a paged store, whose bucket is one fixed-size page, must reject
// the insert instead (the engine raises CheckError).
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/directory.hpp"

namespace pgf {

/// A stored record: an indexing point plus an opaque record id (in a real
/// deployment the id keys the non-indexed payload).
template <std::size_t D>
struct GridRecord {
    Point<D> point;
    std::uint64_t id = 0;
};

/// The in-memory backend: one record vector per bucket, held resident.
/// Edit sessions operate directly on the stored vectors, so commit() is a
/// no-op and read() hands out the live vector.
template <std::size_t D>
class VectorBucketStore {
public:
    using Records = std::vector<GridRecord<D>>;

    /// One bucket: the record vector plus the box of grid cells it covers.
    struct Bucket {
        Records records;
        CellBox<D> cells;
    };

    static constexpr bool kStrictCapacity = false;

    std::size_t bucket_count() const { return buckets_.size(); }

    std::uint32_t create_bucket(const CellBox<D>& cells,
                                std::size_t reserve_hint) {
        auto id = static_cast<std::uint32_t>(buckets_.size());
        Bucket b;
        b.cells = cells;
        b.records.reserve(reserve_hint);
        buckets_.push_back(std::move(b));
        return id;
    }

    const CellBox<D>& cells(std::uint32_t b) const { return buckets_[b].cells; }
    CellBox<D>& cells(std::uint32_t b) { return buckets_[b].cells; }
    std::size_t size(std::uint32_t b) const {
        return buckets_[b].records.size();
    }
    const Records& read(std::uint32_t b) const { return buckets_[b].records; }

    void append(std::uint32_t b, std::span<const GridRecord<D>> run) {
        Records& records = buckets_[b].records;
        for (const GridRecord<D>& record : run) records.push_back(record);
    }

    Records& edit(std::uint32_t b) {
        active_ = b;
        return buckets_[b].records;
    }
    Records& active() { return buckets_[active_].records; }

    void split_active(std::uint32_t b, std::uint32_t new_id, std::size_t pivot,
                      bool continue_with_upper) {
        Records& lower = buckets_[b].records;
        Records& upper = buckets_[new_id].records;
        auto split = lower.begin() + static_cast<std::ptrdiff_t>(pivot);
        upper.assign(std::make_move_iterator(split),
                     std::make_move_iterator(lower.end()));
        lower.erase(split, lower.end());
        active_ = continue_with_upper ? new_id : b;
    }

    void commit(std::uint32_t /*b*/) {}

private:
    std::vector<Bucket> buckets_;
    std::uint32_t active_ = 0;
};

}  // namespace pgf
