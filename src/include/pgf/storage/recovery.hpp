// Crash recovery for the paged grid file: replays a write-ahead log
// (pgf/storage/wal.hpp) over the data PageFile left behind by a crash.
//
// Two passes, both bounded by the last commit marker in the log's valid
// prefix (everything after it belongs to an interrupted operation and is
// discarded — including a physical truncation of the log, so later
// appends cannot resurrect half an operation):
//
//   physical  — the *final* journaled image of every page is applied,
//               LSN-checked for idempotency: a page whose on-disk image
//               already verifies at exactly the record's LSN is skipped,
//               so replaying twice produces byte-identical files. An
//               on-disk image with a *different* LSN — older (never
//               flushed) or newer (flushed by the interrupted operation)
//               — is overwritten with the committed image.
//   logical   — bucket metadata is rebuilt from the metadata records:
//               kCreate adds a bucket with its box, kSplit shrinks the
//               split bucket, kRefine shifts every box exactly as
//               GridFileCore::shift_cell_boxes did, and record counts
//               come from the replayed page images. The refinement list
//               is returned for GridFileCore's RestoreTag constructor to
//               regrow the scales and retile() the directory.
//
// Initialization is not crash-protected (like a real system's mkfs): the
// data file's superblock and the log's genesis + first commit must be on
// disk, which PagedGridFile guarantees by flushing the log once at the
// end of construction. From then on, a crash at *any* write yields a
// recoverable state (swept exhaustively by tests/storage/
// test_crash_recovery.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "pgf/geom/point.hpp"
#include "pgf/gridfile/grid_file_core.hpp"
#include "pgf/storage/page.hpp"
#include "pgf/storage/page_file.hpp"
#include "pgf/storage/paged_bucket_store.hpp"
#include "pgf/storage/wal.hpp"
#include "pgf/util/check.hpp"

namespace pgf {

/// What a replay did — surfaced by `pgfcli recover` and asserted on by
/// the idempotency tests.
struct ReplayStats {
    std::uint64_t wal_records = 0;        ///< records in the valid prefix
    std::uint64_t applied_records = 0;    ///< records at or before the commit
    std::uint64_t discarded_records = 0;  ///< uncommitted suffix (truncated)
    std::uint64_t pages_replayed = 0;     ///< page images written to disk
    std::uint64_t pages_skipped = 0;      ///< already durable at that LSN
    std::uint64_t last_commit_lsn = 0;
};

/// Everything a reopen reconstructs — replay_wal from the log, or
/// PagedGridFile's catalog open: the data file, the reopened log (null
/// for a catalog open), and the logical state GridFileCore needs to
/// rebuild its access structure.
template <std::size_t D>
struct RecoveredGrid {
    std::unique_ptr<PageFile> file;
    std::unique_ptr<WriteAheadLog> wal;
    std::vector<typename PagedBucketStore<D>::Meta> metas;
    Rect<D> domain{};
    std::size_t page_size = 0;
    std::size_t bucket_capacity = 0;
    std::vector<GridRefineOp> refines;
    ReplayStats stats;
    bool read_only = false;  ///< journaled, but reopened without its log
};

/// Dimension count recorded in a log's genesis record — lets a CLI
/// dispatch to the right replay_wal<D> without external metadata. Reads
/// only the file header and the first record.
inline std::uint32_t wal_probe_dims(const std::string& wal_path) {
    WalReader reader(wal_path);
    WalReader::Record rec;
    PGF_CHECK(reader.first(rec) && rec.kind == WalRecordKind::kGenesis &&
                  rec.body.size() >= 4,
              "recover: " + wal_path + " does not start with a genesis");
    std::size_t off = 0;
    return wal_get_u32(rec.body, off);
}

/// Replays the committed prefix of `wal_path` over the page file at
/// `data_path` (see the file comment). Throws CheckError when the log has
/// no genesis or no commit marker — nothing recoverable was ever durable.
template <std::size_t D>
RecoveredGrid<D> replay_wal(const std::string& data_path,
                            const std::string& wal_path) {
    using Store = PagedBucketStore<D>;
    RecoveredGrid<D> out;

    WalReader reader(wal_path);
    const auto scan = reader.scan();
    PGF_CHECK(scan.has_genesis,
              "recover: no genesis record in " + wal_path);
    PGF_CHECK(scan.last_commit_lsn > 0,
              "recover: no commit marker in " + wal_path +
                  " (nothing consistent was ever durable)");
    out.stats.wal_records = scan.records;
    out.stats.last_commit_lsn = scan.last_commit_lsn;

    // Logical pass over the committed prefix; page images are collected
    // (final image per page wins) and applied afterwards.
    bool saw_genesis = false;
    std::map<std::uint64_t, std::pair<std::uint64_t, std::vector<std::byte>>>
        images;  // page -> (lsn, payload)
    WalReader::Record rec;
    while (reader.next(rec)) {
        if (rec.lsn > scan.last_commit_lsn) {
            ++out.stats.discarded_records;
            continue;
        }
        ++out.stats.applied_records;
        std::size_t off = 0;
        switch (rec.kind) {
            case WalRecordKind::kGenesis: {
                PGF_CHECK(!saw_genesis, "recover: duplicate genesis record");
                PGF_CHECK(rec.body.size() == 4 + 8 + 8 + 1 + 16 * D,
                          "recover: genesis record has the wrong size");
                const std::uint32_t dims = wal_get_u32(rec.body, off);
                PGF_CHECK(dims == D,
                          "recover: log is for a different dimension count");
                out.page_size = wal_get_u64(rec.body, off);
                out.bucket_capacity = wal_get_u64(rec.body, off);
                PGF_CHECK(std::to_integer<std::uint8_t>(rec.body[off++]) ==
                              kSplitRuleMidpoint,
                          "recover: genesis names an unknown split rule");
                for (std::size_t i = 0; i < D; ++i) {
                    out.domain.lo[i] = wal_get_f64(rec.body, off);
                    out.domain.hi[i] = wal_get_f64(rec.body, off);
                }
                PGF_CHECK(Store::capacity_for(out.page_size) ==
                              out.bucket_capacity,
                          "recover: genesis capacity does not match its "
                          "page size");
                saw_genesis = true;
                break;
            }
            case WalRecordKind::kCreate: {
                PGF_CHECK(rec.body.size() == 4 + 8 + 8 * D,
                          "recover: create record has the wrong size");
                const std::uint32_t id = wal_get_u32(rec.body, off);
                PGF_CHECK(id == out.metas.size(),
                          "recover: bucket create out of sequence");
                typename Store::Meta meta;
                meta.page = wal_get_u64(rec.body, off);
                for (std::size_t i = 0; i < D; ++i) {
                    meta.cells.lo[i] = wal_get_u32(rec.body, off);
                    meta.cells.hi[i] = wal_get_u32(rec.body, off);
                }
                out.metas.push_back(meta);
                break;
            }
            case WalRecordKind::kSplit: {
                PGF_CHECK(rec.body.size() == 12,
                          "recover: split record has the wrong size");
                const std::uint32_t from = wal_get_u32(rec.body, off);
                const std::uint32_t to = wal_get_u32(rec.body, off);
                const std::uint32_t axis = wal_get_u32(rec.body, off);
                PGF_CHECK(from < out.metas.size() && to < out.metas.size() &&
                              axis < D,
                          "recover: split record references unknown state");
                out.metas[from].cells.hi[axis] =
                    out.metas[to].cells.lo[axis];
                break;
            }
            case WalRecordKind::kRefine: {
                PGF_CHECK(rec.body.size() == 16,
                          "recover: refine record has the wrong size");
                GridRefineOp op;
                op.axis = wal_get_u32(rec.body, off);
                op.interval = wal_get_u32(rec.body, off);
                op.coord = wal_get_f64(rec.body, off);
                PGF_CHECK(op.axis < D,
                          "recover: refine record axis out of range");
                out.refines.push_back(op);
                // Shift every bucket's cell box exactly as the engine's
                // shift_cell_boxes did when the record was written.
                for (auto& meta : out.metas) {
                    if (meta.cells.lo[op.axis] > op.interval) {
                        ++meta.cells.lo[op.axis];
                        ++meta.cells.hi[op.axis];
                    } else if (meta.cells.hi[op.axis] > op.interval) {
                        ++meta.cells.hi[op.axis];
                    }
                }
                break;
            }
            case WalRecordKind::kPage: {
                PGF_CHECK(rec.body.size() >= 8,
                          "recover: page record has the wrong size");
                const std::uint64_t page = wal_get_u64(rec.body, off);
                auto& slot = images[page];
                slot.first = rec.lsn;
                slot.second.assign(rec.body.begin() + 8, rec.body.end());
                break;
            }
            case WalRecordKind::kCommit:
                break;
        }
    }
    PGF_CHECK(saw_genesis, "recover: genesis outside the committed prefix");

    // Physical pass: apply the final committed image of every page.
    out.file = std::make_unique<PageFile>(PageFile::open(data_path));
    PGF_CHECK(out.file->page_size() == out.page_size,
              "recover: data file page size disagrees with the log");
    std::uint64_t needed = 0;
    for (const auto& meta : out.metas) needed = std::max(needed, meta.page + 1);
    for (const auto& [page, image] : images) needed = std::max(needed, page + 1);
    out.file->ensure_page_count(needed);
    std::vector<std::byte> disk(out.page_size);
    for (const auto& [page, image] : images) {
        PGF_CHECK(image.second.size() == out.file->payload_size(),
                  "recover: page image has the wrong payload size");
        const bool intact = out.file->try_read(page, disk);
        if (intact && page_lsn(disk) == image.first) {
            ++out.stats.pages_skipped;  // already durable at this LSN
            continue;
        }
        out.file->write_payload(page, image.second, image.first);
        ++out.stats.pages_replayed;
    }
    out.file->sync();

    // Record counts come from the committed images (every committed bucket
    // has one: create_bucket journals its empty page).
    for (auto& meta : out.metas) {
        auto it = images.find(meta.page);
        PGF_CHECK(it != images.end(),
                  "recover: committed bucket has no page image");
        meta.count = Store::page_record_count(it->second.second);
        PGF_CHECK(meta.count <= out.bucket_capacity,
                  "recover: page image overflows its bucket");
    }

    // Drop the uncommitted log suffix for good and reopen the log for
    // appending — new operations continue the LSN sequence from the
    // commit marker. The scan above already found both.
    out.wal = WriteAheadLog::resume(wal_path, scan.commit_bytes,
                                    scan.last_commit_lsn);
    return out;
}

}  // namespace pgf
