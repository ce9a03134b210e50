// The shared grid-file engine behind GridFile (in-memory) and
// PagedGridFile (disk-resident).
//
// The grid file of Nievergelt & Hinterberger: an adaptive, symmetric,
// multi-key file structure over d attributes. One linear scale per
// dimension partitions the domain into a grid of cells; a grid directory
// maps each cell to a data bucket; several adjacent cells may share one
// bucket (a "merged" bucket), and the set of cells sharing a bucket always
// forms a box. Buckets hold up to `bucket_capacity` records. When a bucket
// overflows:
//   - if it spans more than one cell along some axis, the bucket is split
//     along an existing grid line (no directory growth);
//   - otherwise the grid itself is refined (a new split point enters one
//     scale at the midpoint of the cell's interval and the directory
//     doubles along that axis), after which the bucket spans two cells and
//     is split as above.
//
// GridFileCore owns exactly this access structure — scales, directory,
// cell-box bookkeeping, the relative-longest-axis refinement rule and the
// split loop — and is parameterized over a BucketStore (bucket_store.hpp)
// that decides where record payloads live. The split decisions depend only
// on record *sets* (counts and coordinate multisets), never on record
// order, so every store that receives the same insertion sequence produces
// byte-identical scales, directory, and bucket numbering.
//
// Both builds (bulk_load, bulk_load_stream) go through one block loader
// that makes the insert() loop's file while writing each touched page once
// per block (load_block). Both paths remember the last cell they located
// (bounds and bucket): sorted input lands in one cell record after record,
// and such a record skips the scale searches and the directory read.
// retile() alone rebuilds the directory from bucket boxes (catalog open,
// crash recovery); range and partial-match queries share one cell walk and
// one record filter.
//
// Supports insertion, deletion (without bucket re-merging: emptied buckets
// simply stay under-full, which is the common simplification and does not
// affect any experiment in the paper, which only loads and queries), exact
// multidimensional range queries, partial-match queries, and a structural
// export for the declustering layer.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/bucket_store.hpp"
#include "pgf/gridfile/directory.hpp"
#include "pgf/gridfile/partial_match.hpp"
#include "pgf/gridfile/scales.hpp"
#include "pgf/gridfile/structure.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

/// Reusable cursor for the query hot path: an epoch-stamped visited array
/// replaces the fresh `seen` vector (and its allocation) every query would
/// otherwise pay. Bumping the epoch invalidates all stamps at once, so
/// between queries nothing is cleared. One scratch per thread — instances
/// must not be shared concurrently.
class QueryScratch {
public:
    /// Starts a new query over a file with `bucket_count` buckets.
    void begin(std::size_t bucket_count) {
        if (stamp_.size() < bucket_count) stamp_.resize(bucket_count, 0);
        ++epoch_;
    }

    /// True the first time bucket `b` is seen in the current query.
    bool visit(std::uint32_t b) {
        if (stamp_[b] == epoch_) return false;
        stamp_[b] = epoch_;
        return true;
    }

    /// Scratch buffer for bucket-id lists (used by the record-query paths
    /// so they don't allocate a fresh id vector per query).
    std::vector<std::uint32_t> buckets;

private:
    std::vector<std::uint64_t> stamp_;
    std::uint64_t epoch_ = 0;
};

/// The byte the paged file's catalog and the WAL genesis record keep for
/// the split rule, 0 = midpoint. Midpoint is the only rule, so writers
/// write this value and readers reject any other.
inline constexpr std::uint8_t kSplitRuleMidpoint = 0;

/// The two query kinds the engine answers: a half-open range box and a
/// partial match. Both filter records through contains(point).
template <typename Q, std::size_t D>
concept GridQuery =
    std::same_as<Q, Rect<D>> || std::same_as<Q, PartialMatch<D>>;

/// One journaled grid refinement (axis, created interval index, split
/// coordinate) — the unit crash recovery replays to rebuild the scales
/// exactly as the interrupted run grew them.
struct GridRefineOp {
    std::uint32_t axis = 0;
    std::uint32_t interval = 0;
    double coord = 0.0;
};

template <std::size_t D, typename Store>
class GridFileCore {
public:
    using BucketId = std::uint32_t;
    using Records = std::vector<GridRecord<D>>;
    using StoreType = Store;
    static constexpr std::size_t kDims = D;

    // -- modification ------------------------------------------------------

    /// Points per block of the bulk loader: bulk_load cuts its input into
    /// blocks of this size, and bulk_load_stream refills one buffer of it.
    static constexpr std::size_t kLoadBlock = 16384;

    /// Inserts one record. Out-of-domain coordinates are clamped into the
    /// boundary cells (the scales' locate() semantics). On a strict-
    /// capacity store (paged), records that cannot be separated by
    /// refinement — more identical points than one bucket holds — are
    /// rejected with CheckError instead of growing an oversized bucket;
    /// every record already accepted stays (the refinements and splits
    /// the attempt made stay too, as empty buckets). A bucket with room
    /// takes the record as a one-record run through the store's append();
    /// only an overflow opens an edit session.
    void insert(const Point<D>& p, std::uint64_t id) {
        const BucketId b = locate_bucket(p);
        const GridRecord<D> record{p, id};
        bool accepted = true;
        if (store_.size(b) < bucket_capacity_) {
            store_.append(b, {&record, 1});
        } else {
            store_.edit(b).push_back(record);
            accepted = resolve_overflow(b, record);
        }
        if (!accepted) note_op_end();
        PGF_CHECK(accepted, kInseparable);
        ++record_count_;
        note_op_end();
    }

    /// Bulk insertion of `points` in order, with ids
    /// id_base..id_base+n-1, through the block loader (load_block): the
    /// same file as the insert() loop, with each touched page written once
    /// per kLoadBlock points.
    void bulk_load(const std::vector<Point<D>>& points,
                   std::uint64_t id_base = 0) {
        const std::span<const Point<D>> all(points);
        LoadScratch scratch;
        for (std::size_t i = 0; i < all.size(); i += kLoadBlock) {
            load_block(all.subspan(i, std::min(kLoadBlock, all.size() - i)),
                       id_base + i, scratch);
        }
    }

    /// Streaming bulk load: drains `source` — any object with
    /// `std::size_t next(std::span<Point<D>> out)` filling a prefix of
    /// `out` and returning the count (0 = exhausted) — through the block
    /// loader, never holding more than one kLoadBlock-point refill buffer.
    /// The structure is independent of how the source chunks its output.
    ///
    /// Ids are assigned sequentially from `id_base` in arrival order.
    /// Returns the number of records loaded. Sorted input (a Hilbert-
    /// ordered stream) touches few buckets per block, so each block writes
    /// few pages.
    template <typename Source>
    std::uint64_t bulk_load_stream(Source& source, std::uint64_t id_base = 0) {
        std::vector<Point<D>> buf(kLoadBlock);
        LoadScratch scratch;
        std::uint64_t loaded = 0;
        for (;;) {
            const std::size_t filled =
                source.next(std::span<Point<D>>(buf.data(), buf.size()));
            if (filled == 0) break;
            PGF_CHECK(filled <= buf.size(),
                      "bulk_load_stream: source overfilled the block");
            load_block({buf.data(), filled}, id_base + loaded, scratch);
            loaded += filled;
        }
        return loaded;
    }

    /// Erases the record with the given point and id; returns true when a
    /// record was removed. The bucket's last record moves into the hole,
    /// so the page write changes the count word and the hole, not the
    /// whole tail after it. Buckets are not re-merged on underflow.
    bool erase(const Point<D>& p, std::uint64_t id) {
        BucketId b = dir_.at(locate_cell(p));
        Records& records = store_.edit(b);
        auto it = std::find_if(records.begin(), records.end(),
                               [&](const GridRecord<D>& r) {
                                   return r.id == id && r.point == p;
                               });
        if (it == records.end()) return false;
        *it = records.back();
        records.pop_back();
        store_.commit(b);
        note_op_end();
        --record_count_;
        return true;
    }

    // -- queries -----------------------------------------------------------

    /// Ids of the buckets query `q` must read — the unit of I/O the
    /// response-time metric counts. A range query reads the buckets whose
    /// region overlaps the box; a partial match pins one scale interval per
    /// specified attribute and spans the whole axis for the others.
    template <GridQuery<D> Query>
    std::vector<BucketId> query_buckets(const Query& q) const {
        QueryScratch scratch;
        std::vector<BucketId> out;
        query_buckets(q, scratch, out);
        return out;
    }

    /// Allocation-free variant of the hot path: appends the touched bucket
    /// ids into `out` (cleared first) in the same first-visit cell order as
    /// query_buckets(q), deduplicating through the caller's scratch. After
    /// the first few queries neither `scratch` nor `out` reallocates.
    template <GridQuery<D> Query>
    void query_buckets(const Query& q, QueryScratch& scratch,
                       std::vector<BucketId>& out) const {
        out.clear();
        CellBox<D> box;
        if (!query_cell_box(q, &box)) return;
        scratch.begin(store_.bucket_count());
        for_each_cell(box, [&](const std::array<std::uint32_t, D>& cell) {
            BucketId b = dir_.at(cell);
            if (scratch.visit(b)) out.push_back(b);
        });
    }

    /// Exact query: the records `q` contains (a range query is half-open;
    /// a partial match compares its specified attributes exactly). On a
    /// paged store every touched bucket costs one buffer-pool fetch (hit or
    /// page read).
    template <GridQuery<D> Query>
    std::vector<GridRecord<D>> query_records(const Query& q) const {
        QueryScratch scratch;
        std::vector<GridRecord<D>> out;
        query_records(q, scratch, out);
        return out;
    }

    /// Scratch-reusing form of the exact query; `out` is cleared and
    /// reserved for the candidate count before filtering.
    template <GridQuery<D> Query>
    void query_records(const Query& q, QueryScratch& scratch,
                       std::vector<GridRecord<D>>& out) const {
        out.clear();
        query_buckets(q, scratch, scratch.buckets);
        out.reserve(candidate_records(scratch.buckets));
        for (BucketId b : scratch.buckets) {
            for (const GridRecord<D>& r : store_.read(b)) {
                if (q.contains(r.point)) out.push_back(r);
            }
        }
    }

    // -- structure accessors ------------------------------------------------

    const Rect<D>& domain() const { return domain_; }
    std::size_t record_count() const { return record_count_; }
    std::size_t bucket_count() const { return store_.bucket_count(); }
    const LinearScale& scale(std::size_t axis) const { return scales_[axis]; }
    const GridDirectory<D>& directory() const { return dir_; }

    std::array<std::uint32_t, D> grid_shape() const { return dir_.shape(); }

    /// Maximum records per bucket (page-derived for paged stores).
    std::size_t bucket_capacity() const { return bucket_capacity_; }

    /// Box of grid cells covered by bucket `b`.
    const CellBox<D>& bucket_cells(BucketId b) const {
        return store_.cells(b);
    }

    /// Records held by bucket `b`. For paged stores this fetches the page
    /// through the buffer pool and the reference is valid only until the
    /// next read or edit on the file.
    const Records& bucket_records(BucketId b) const { return store_.read(b); }

    /// Record count of bucket `b` from metadata alone (no page I/O).
    std::size_t bucket_record_count(BucketId b) const {
        return store_.size(b);
    }

    /// Data-space region covered by bucket `b` (union of its cells).
    Rect<D> bucket_region(BucketId b) const {
        const CellBox<D>& c = store_.cells(b);
        Rect<D> r;
        for (std::size_t i = 0; i < D; ++i) {
            r.lo[i] = scales_[i].interval_lo(c.lo[i]);
            r.hi[i] = scales_[i].interval_hi(c.hi[i] - 1);
        }
        return r;
    }

    /// Number of grid refinements performed so far (scale splits that grew
    /// the directory). Bucket splits along existing grid lines don't count.
    std::uint64_t refinement_count() const { return refinements_; }

    std::size_t merged_bucket_count() const {
        std::size_t n = 0;
        for (BucketId b = 0; b < store_.bucket_count(); ++b) {
            n += store_.cells(b).cell_count() > 1 ? 1u : 0u;
        }
        return n;
    }

    /// Number of buckets that exceed capacity because their records could
    /// not be separated by further refinement (duplicate-heavy data; always
    /// zero on strict-capacity stores, which reject such inserts).
    std::size_t oversized_bucket_count() const {
        std::size_t n = 0;
        for (BucketId b = 0; b < store_.bucket_count(); ++b) {
            n += store_.size(b) > bucket_capacity_ ? 1u : 0u;
        }
        return n;
    }

    /// Grid cell containing point `p` (out-of-domain values clamp).
    std::array<std::uint32_t, D> locate_cell(const Point<D>& p) const {
        std::array<std::uint32_t, D> cell;
        for (std::size_t i = 0; i < D; ++i) cell[i] = scales_[i].locate(p[i]);
        return cell;
    }

    /// True when insert(p) skips the scale searches and the directory
    /// read: `p` lies inside the last cell insert() located, lo <= p < hi
    /// on every axis of that cell's half-open bounds. A cell's upper edge,
    /// a coordinate the scales clamp (out of the domain, at its upper
    /// bound) and NaN never do. Splits and refinements forget the cell.
    bool memo_covers(const Point<D>& p) const {
        for (std::size_t i = 0; i < D; ++i) {
            if (!(memo_.lo[i] <= p[i] && p[i] < memo_.hi[i])) return false;
        }
        return true;
    }

    /// Exports the dimension-erased structural snapshot consumed by the
    /// declustering layer.
    GridStructure structure() const {
        GridStructure gs;
        gs.shape.assign(dir_.shape().begin(), dir_.shape().end());
        gs.domain_lo.assign(domain_.lo.x.begin(), domain_.lo.x.end());
        gs.domain_hi.assign(domain_.hi.x.begin(), domain_.hi.x.end());
        gs.buckets.reserve(store_.bucket_count());
        for (BucketId b = 0; b < store_.bucket_count(); ++b) {
            const CellBox<D>& cells = store_.cells(b);
            BucketInfo info;
            info.cell_lo.assign(cells.lo.begin(), cells.lo.end());
            info.cell_hi.assign(cells.hi.begin(), cells.hi.end());
            Rect<D> region = bucket_region(b);
            info.region_lo.assign(region.lo.x.begin(), region.lo.x.end());
            info.region_hi.assign(region.hi.x.begin(), region.hi.x.end());
            info.record_count = store_.size(b);
            gs.buckets.push_back(std::move(info));
        }
        return gs;
    }

protected:
    /// Builds the one-cell, one-bucket initial state. Store constructor
    /// arguments are forwarded in place because stores may be immovable
    /// (the paged store pins a BufferPool).
    template <typename... StoreArgs>
    explicit GridFileCore(const Rect<D>& domain, std::size_t bucket_capacity,
                          StoreArgs&&... store_args)
        : store_(std::forward<StoreArgs>(store_args)...),
          domain_(domain),
          bucket_capacity_(bucket_capacity),
          dir_(BucketId{0}) {
        init_scales();
        CellBox<D> root;
        root.lo.fill(0);
        for (std::size_t i = 0; i < D; ++i) root.hi[i] = 1;
        store_.create_bucket(root, bucket_capacity_ + 1);
    }

    /// Rebuilds the access structure over a store that already holds the
    /// buckets (crash recovery, the paged file's catalog open): no root
    /// bucket is created; the scales are regrown by replaying the
    /// refinements in order, and the directory is retiled from the
    /// store's bucket cell boxes.
    struct RestoreTag {};
    template <typename... StoreArgs>
    GridFileCore(RestoreTag, const Rect<D>& domain,
                 std::size_t bucket_capacity,
                 const std::vector<GridRefineOp>& refines,
                 StoreArgs&&... store_args)
        : store_(std::forward<StoreArgs>(store_args)...),
          domain_(domain),
          bucket_capacity_(bucket_capacity),
          dir_(BucketId{0}) {
        init_scales();
        for (const GridRefineOp& op : refines) {
            PGF_CHECK(op.axis < D, "restore: refinement axis out of range");
            std::uint32_t interval = 0;
            PGF_CHECK(scales_[op.axis].insert_split(op.coord, &interval),
                      "restore: journaled scale split no longer inserts");
            PGF_CHECK(interval == op.interval,
                      "restore: journaled scale split landed elsewhere");
        }
        refinements_ = refines.size();
        retile();
    }

    /// Rebuilds the directory from the store's bucket cell boxes and
    /// recounts the records — the one retile behind the catalog open and
    /// crash recovery. The boxes must tile the scales' grid exactly
    /// (checked: a damaged catalog or a failed replay cannot silently
    /// produce a half-mapped grid).
    void retile() {
        memo_ = CellMemo{};
        std::array<std::uint32_t, D> shape;
        for (std::size_t i = 0; i < D; ++i) shape[i] = scales_[i].intervals();
        dir_ = GridDirectory<D>(shape, GridDirectory<D>::kNoBucket);
        const std::size_t n = store_.bucket_count();
        PGF_CHECK(n > 0, "restore: at least one bucket required");
        record_count_ = 0;
        std::uint64_t covered = 0;
        for (BucketId b = 0; b < n; ++b) {
            const CellBox<D>& box = store_.cells(b);
            for (std::size_t i = 0; i < D; ++i) {
                PGF_CHECK(box.lo[i] < box.hi[i] && box.hi[i] <= shape[i],
                          "restore: bucket cell box out of grid");
            }
            for_each_cell(box, [&](const std::array<std::uint32_t, D>& cell) {
                PGF_CHECK(dir_.at(cell) == GridDirectory<D>::kNoBucket,
                          "restore: overlapping bucket cell boxes");
                dir_.set(cell, b);
            });
            covered += box.cell_count();
            record_count_ += store_.size(b);
        }
        PGF_CHECK(covered == dir_.cell_count(),
                  "restore: buckets must tile the whole grid");
    }

    Store& store() { return store_; }
    const Store& store() const { return store_; }

    Store store_;
    Rect<D> domain_;
    std::size_t bucket_capacity_;
    std::vector<LinearScale> scales_;
    GridDirectory<D> dir_;
    std::size_t record_count_ = 0;
    std::uint64_t refinements_ = 0;

private:
    /// The last cell insert() located: its half-open bounds on every axis
    /// and its bucket. The empty memo (lo = +inf, hi = -inf) covers no
    /// point.
    struct CellMemo {
        static constexpr double kInf = std::numeric_limits<double>::infinity();
        std::array<double, D> lo = filled(kInf);
        std::array<double, D> hi = filled(-kInf);
        BucketId bucket = 0;

        static constexpr std::array<double, D> filled(double v) {
            std::array<double, D> a{};
            a.fill(v);
            return a;
        }
    };
    CellMemo memo_;

    /// The bucket of `p`'s cell: the memo's when it covers `p`, otherwise
    /// found through the scales and the directory and remembered.
    BucketId locate_bucket(const Point<D>& p) {
        if (memo_covers(p)) return memo_.bucket;
        std::array<std::uint32_t, D> cell;
        for (std::size_t i = 0; i < D; ++i) {
            cell[i] = scales_[i].locate(p[i]);
            memo_.lo[i] = scales_[i].interval_lo(cell[i]);
            memo_.hi[i] = scales_[i].interval_hi(cell[i]);
        }
        memo_.bucket = dir_.at(cell);
        return memo_.bucket;
    }

    /// Checks the capacity and builds one unsplit scale per dimension
    /// over the domain (both constructors start here).
    void init_scales() {
        PGF_CHECK(bucket_capacity_ >= 2,
                  "bucket capacity must be at least 2");
        scales_.reserve(D);
        for (std::size_t i = 0; i < D; ++i) {
            scales_.emplace_back(domain_.lo[i], domain_.hi[i]);
        }
    }

    /// Tells durability-aware stores that one logical operation completed
    /// (they journal a commit marker); a no-op for everything else.
    void note_op_end() {
        if constexpr (requires { store_.note_op_end(); }) {
            store_.note_op_end();
        }
    }

    /// Cell box of grid cells overlapping range query `q`; false when the
    /// query misses the domain entirely or is empty.
    bool query_cell_box(const Rect<D>& q, CellBox<D>* box) const {
        for (std::size_t i = 0; i < D; ++i) {
            if (q.hi[i] <= q.lo[i]) return false;
            if (q.hi[i] <= domain_.lo[i] || q.lo[i] >= domain_.hi[i])
                return false;
            // First interval whose upper bound exceeds q.lo[i].
            std::uint32_t first =
                scales_[i].locate(std::max(q.lo[i], domain_.lo[i]));
            // Last interval whose lower bound is below q.hi[i].
            std::uint32_t last =
                scales_[i].locate(std::min(q.hi[i], domain_.hi[i]));
            if (scales_[i].interval_lo(last) >= q.hi[i] && last > 0) --last;
            box->lo[i] = first;
            box->hi[i] = last + 1;
        }
        return true;
    }

    /// Cell box of a partial match: specified attributes pin one scale
    /// interval, unspecified attributes span the whole axis.
    bool query_cell_box(const PartialMatch<D>& q, CellBox<D>* box) const {
        PGF_CHECK(q.valid(),
                  "partial match must leave at least one attribute free");
        for (std::size_t i = 0; i < D; ++i) {
            if (q.key[i].has_value()) {
                box->lo[i] = scales_[i].locate(*q.key[i]);
                box->hi[i] = box->lo[i] + 1;
            } else {
                box->lo[i] = 0;
                box->hi[i] = dir_.shape()[i];
            }
        }
        return true;
    }

    /// Total records held by the given buckets — the reserve() upper bound
    /// for record-query results.
    std::size_t candidate_records(
        const std::vector<BucketId>& bucket_ids) const {
        std::size_t n = 0;
        for (BucketId b : bucket_ids) n += store_.size(b);
        return n;
    }

    static constexpr const char* kInseparable =
        "records cannot be separated (too many duplicates for one bucket "
        "page)";

    /// Resolves an overflow of the session's bucket `b` after `added`
    /// joined it, and commits the session. A split may leave one half
    /// still overflowing (skewed data), so iterate until resolved or
    /// refinement becomes impossible. Returns false when a strict-capacity
    /// store cannot separate the records: `added` then leaves the session,
    /// and the rest is committed.
    bool resolve_overflow(BucketId b, const GridRecord<D>& added) {
        memo_ = CellMemo{};  // the splits below redraw the directory
        while (store_.active().size() > bucket_capacity_) {
            if (max_cell_extent(b) == 1 && !refine_grid(b)) {
                if constexpr (Store::kStrictCapacity) {
                    // The bucket held at most a page before `added`, so
                    // all of it is still in the session.
                    Records& records = store_.active();
                    auto it = std::find_if(
                        records.rbegin(), records.rend(),
                        [&](const GridRecord<D>& r) {
                            return r.id == added.id && r.point == added.point;
                        });
                    PGF_CHECK(it != records.rend(),
                              "rejected record left the session");
                    records.erase(std::next(it).base());
                    store_.commit(b);
                    return false;
                }
                break;  // cannot separate further; bucket stays oversized
            }
            b = split_bucket(b);
        }
        store_.commit(b);
        return true;
    }

    // -- the block loader ----------------------------------------------------
    //
    // A block's records wait in per-bucket runs instead of reaching their
    // pages one by one. Split decisions, bucket numbering and each
    // bucket's record order are the insert() loop's, because every record
    // meets the stored-plus-pending count that loop's page would have
    // shown it, and an overflow's session holds that page's records in
    // that page's order.

    /// A bucket's pending run: a list through LoadScratch::next of block
    /// indices, in arrival order.
    struct Run {
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
        std::uint32_t count = 0;
    };

    /// The loader's working memory, kept across the blocks of one load.
    /// Between blocks every run is empty.
    struct LoadScratch {
        std::vector<Run> runs;               ///< one per bucket
        std::vector<std::uint32_t> next;     ///< run links, per block index
        std::vector<BucketId> touched;       ///< buckets given a run
        Records landing;                     ///< one run, gathered to land
    };

    /// Loads `block` (ids from `id_base`). A record joins its bucket's run
    /// while the stored records plus the run stay below capacity; one that
    /// would overflow takes the run into an edit session (the run never
    /// reaches the page on its own) and splits exactly as insert() does.
    /// The runs land at the end (land_runs). record_count() grows as each
    /// run lands. A record rejected as inseparable lands every run
    /// gathered before it, then throws as insert() does.
    void load_block(std::span<const Point<D>> block, std::uint64_t id_base,
                    LoadScratch& s) {
        s.runs.resize(store_.bucket_count());
        s.next.resize(block.size());
        for (std::uint32_t i = 0; i < block.size(); ++i) {
            const BucketId b = locate_bucket(block[i]);
            Run& run = s.runs[b];
            if (store_.size(b) + run.count < bucket_capacity_) {
                if (run.count == 0) {
                    run.head = i;
                    s.touched.push_back(b);
                } else {
                    s.next[run.tail] = i;
                }
                run.tail = i;
                ++run.count;
                continue;
            }
            Records& records = store_.edit(b);
            gather(run, block, id_base, s, records);
            const std::size_t taken = run.count;
            run.count = 0;
            const GridRecord<D> record{block[i], id_base + i};
            records.push_back(record);
            const bool accepted = resolve_overflow(b, record);
            record_count_ += taken + (accepted ? 1 : 0);
            s.runs.resize(store_.bucket_count());  // the splits' buckets
            if (!accepted) land_runs(block, id_base, s);
            PGF_CHECK(accepted, kInseparable);
        }
        land_runs(block, id_base, s);
    }

    /// Lands the block's pending runs through the store's append(), in
    /// ascending bucket order (bucket b lives on page b, so one page fetch
    /// per touched bucket, in page order), then writes the block's commit
    /// marker. A bucket listed twice (its run went into a split, and a new
    /// one began) lands once.
    void land_runs(std::span<const Point<D>> block, std::uint64_t id_base,
                   LoadScratch& s) {
        std::sort(s.touched.begin(), s.touched.end());
        for (BucketId b : s.touched) {
            Run& run = s.runs[b];
            if (run.count == 0) continue;
            s.landing.clear();
            gather(run, block, id_base, s, s.landing);
            store_.append(b, s.landing);
            record_count_ += run.count;
            run.count = 0;
        }
        s.touched.clear();
        note_op_end();
    }

    /// Appends `run`'s records to `out`, in arrival order.
    static void gather(const Run& run, std::span<const Point<D>> block,
                       std::uint64_t id_base, const LoadScratch& s,
                       Records& out) {
        for (std::uint32_t k = run.head, n = run.count; n > 0;
             --n, k = s.next[k]) {
            out.push_back({block[k], id_base + k});
        }
    }

    std::uint32_t max_cell_extent(BucketId b) const {
        std::uint32_t m = 0;
        for (std::size_t i = 0; i < D; ++i)
            m = std::max(m, store_.cells(b).extent(i));
        return m;
    }

    /// Refines the grid through bucket `b`'s single cell. Returns false if
    /// no axis can be split (degenerate region or duplicate coordinates).
    bool refine_grid(BucketId b) {
        // Prefer the axis where the cell is relatively longest, so the grid
        // adapts its shape to the data distribution.
        Rect<D> region = bucket_region(b);
        std::array<std::size_t, D> axes;
        for (std::size_t i = 0; i < D; ++i) axes[i] = i;
        std::sort(axes.begin(), axes.end(), [&](std::size_t a, std::size_t c) {
            return region.extent(a) / domain_.extent(a) >
                   region.extent(c) / domain_.extent(c);
        });
        for (std::size_t axis : axes) {
            double lo = region.lo[axis];
            double hi = region.hi[axis];
            if (hi - lo <= domain_.extent(axis) * 1e-12) continue;
            double x = 0.5 * (lo + hi);
            if (!(x > lo && x < hi)) continue;
            std::uint32_t interval = 0;
            if (!scales_[axis].insert_split(x, &interval)) continue;
            dir_.expand(axis, interval);
            shift_cell_boxes(axis, interval);
            ++refinements_;
            if constexpr (requires { store_.note_refine(axis, interval, x); })
                store_.note_refine(axis, interval, x);
            return true;
        }
        return false;
    }

    /// After a directory expansion at (axis, interval), renumber every
    /// bucket's cell box: intervals above the split shift up by one, and
    /// boxes containing the split interval grow by one.
    void shift_cell_boxes(std::size_t axis, std::uint32_t interval) {
        const std::size_t n = store_.bucket_count();
        for (BucketId b = 0; b < n; ++b) {
            CellBox<D>& cells = store_.cells(b);
            if (cells.lo[axis] > interval) {
                ++cells.lo[axis];
                ++cells.hi[axis];
            } else if (cells.hi[axis] > interval) {
                ++cells.hi[axis];
            }
        }
    }

    /// Splits the session's bucket `b` along its widest cell axis at the
    /// middle grid line; returns whichever half is overflowing (or `b` if
    /// neither — callers re-check the loop condition).
    BucketId split_bucket(BucketId b) {
        std::size_t axis = 0;
        std::uint32_t widest = 0;
        for (std::size_t i = 0; i < D; ++i) {
            if (store_.cells(b).extent(i) > widest) {
                widest = store_.cells(b).extent(i);
                axis = i;
            }
        }
        PGF_CHECK(widest >= 2, "split_bucket requires a multi-cell bucket");

        const std::uint32_t mid =
            store_.cells(b).lo[axis] + store_.cells(b).extent(axis) / 2;

        CellBox<D> upper_cells = store_.cells(b);
        upper_cells.lo[axis] = mid;
        // Reserve to capacity + 1 up front (the lower half keeps its
        // original reservation) so neither half reallocates its record
        // vector again before its own overflow.
        const BucketId new_id =
            store_.create_bucket(upper_cells, bucket_capacity_ + 1);
        store_.cells(b).hi[axis] = mid;
        for_each_cell(upper_cells,
                      [&](const std::array<std::uint32_t, D>& cell) {
                          dir_.set(cell, new_id);
                      });

        // Partition the session's records: lower half [0, pivot) stays with
        // b, upper half [pivot, end) moves to new_id. The partition is
        // unstable, but split decisions never depend on record order.
        Records& records = store_.active();
        auto pivot = std::partition(
            records.begin(), records.end(), [&](const GridRecord<D>& r) {
                return scales_[axis].locate(r.point[axis]) < mid;
            });
        const auto pivot_idx =
            static_cast<std::size_t>(pivot - records.begin());
        const std::size_t upper_size = records.size() - pivot_idx;
        const bool continue_with_upper = upper_size > pivot_idx;
        store_.split_active(b, new_id, pivot_idx, continue_with_upper);
        if constexpr (requires { store_.note_split(b, new_id, axis); })
            store_.note_split(b, new_id, axis);
        return continue_with_upper ? new_id : b;
    }
};

}  // namespace pgf
