// Crash recovery for the paged grid file: replays a write-ahead log
// (pgf/storage/wal.hpp) over the data PageFile left behind by a crash.
//
// After WalReader::scan has found the valid prefix, replay reads the log
// forward once more, and a third time only when some page needs
// rebuilding. Every pass stops at the last commit marker (everything after
// it belongs to an interrupted operation and is discarded — including a
// physical truncation of the log, so later appends cannot resurrect half
// an operation):
//
//   logical   — bucket metadata is rebuilt from the metadata records:
//               kCreate adds a bucket with its box, kSplit shrinks the
//               split bucket, kRefine shifts every box exactly as
//               GridFileCore::shift_cell_boxes did. Of each page it keeps
//               two things, in a vector indexed by page id: the LSN of its
//               last committed kPage record and its count word (payload
//               bytes 0-7 as the ranges wrote them), which becomes the
//               bucket's record count. The refinement list is returned for
//               GridFileCore's RestoreTag constructor to regrow the scales
//               and retile() the directory.
//   pages     — a page whose on-disk image verifies at exactly its last
//               committed LSN is skipped, so replaying twice produces
//               byte-identical files. Any other page — an image older
//               (never flushed) or newer (flushed by the interrupted
//               operation), or torn — is rebuilt from the zero page its
//               allocation wrote plus its committed kPage ranges, applied
//               in log order by one more forward pass that runs only when
//               some page is stale; it holds one payload per stale page.
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
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
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

/// Walks the byte ranges of a kPage body (see pgf/storage/wal.hpp) for a
/// payload of `payload_size` bytes, calling fn(offset, bytes) for each in
/// log order. Every range is checked before use: its header fits in the
/// body, its length is positive and fits in the rest of the body, and it
/// lies inside the payload. A range that fails is a CheckError naming the
/// record's LSN; nothing is allocated from a length word.
template <class Fn>
void for_each_page_range(std::span<const std::byte> body,
                         std::size_t payload_size, std::uint64_t lsn,
                         Fn&& fn) {
    const auto where = [lsn] {
        return "recover: page record at LSN " + std::to_string(lsn);
    };
    PGF_CHECK(body.size() >= 8, where() + " has no page id");
    std::size_t off = 8;
    while (off < body.size()) {
        PGF_CHECK(body.size() - off >= 8,
                  where() + " ends inside a range header");
        const std::uint32_t offset = wal_get_u32(body, off);
        const std::uint32_t length = wal_get_u32(body, off);
        PGF_CHECK(length > 0, where() + " has a zero-length range");
        PGF_CHECK(length <= body.size() - off,
                  where() + " has a range longer than the rest of its body");
        PGF_CHECK(std::uint64_t{offset} + length <= payload_size,
                  where() + " has a range past the page payload");
        fn(offset, body.subspan(off, length));
        off += length;
    }
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
    out.file = std::make_unique<PageFile>(PageFile::open(data_path));
    // Pages are allocated densely, so a committed bucket's page lies below
    // the data file's count plus one page per log record; the bound keeps
    // a corrupt page id from sizing the per-page state.
    const std::uint64_t page_bound = out.file->page_count() + scan.records;

    // Logical pass over the committed prefix (see the file comment).
    struct PageState {
        std::uint64_t lsn = 0;  ///< last committed kPage record, 0 = none
        std::byte count[Store::kCountBytes] = {};  ///< payload bytes 0-7
    };
    std::vector<PageState> pages;  // by page id, grown by kCreate
    std::size_t payload_size = 0;
    bool saw_genesis = false;
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
                PGF_CHECK(out.bucket_capacity > 0 &&
                              Store::capacity_for(out.page_size) ==
                                  out.bucket_capacity,
                          "recover: genesis capacity does not match its "
                          "page size");
                payload_size = out.page_size - kPageHeaderBytes;
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
                PGF_CHECK(meta.page < page_bound,
                          "recover: bucket create at LSN " +
                              std::to_string(rec.lsn) + " names page " +
                              std::to_string(meta.page) +
                              ", past the data file and the log");
                for (std::size_t i = 0; i < D; ++i) {
                    meta.cells.lo[i] = wal_get_u32(rec.body, off);
                    meta.cells.hi[i] = wal_get_u32(rec.body, off);
                }
                out.metas.push_back(meta);
                if (meta.page >= pages.size()) pages.resize(meta.page + 1);
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
                PGF_CHECK(saw_genesis && rec.body.size() >= 8,
                          "recover: page record at LSN " +
                              std::to_string(rec.lsn) +
                              " before the genesis or without a page id");
                const std::uint64_t page = wal_get_u64(rec.body, off);
                PGF_CHECK(page < pages.size(),
                          "recover: page record at LSN " +
                              std::to_string(rec.lsn) +
                              " names a page no bucket create allocated");
                PageState& state = pages[page];
                for_each_page_range(
                    rec.body, payload_size, rec.lsn,
                    [&](std::uint32_t offset,
                        std::span<const std::byte> bytes) {
                        if (offset >= Store::kCountBytes) return;
                        std::memcpy(state.count + offset, bytes.data(),
                                    std::min<std::size_t>(
                                        bytes.size(),
                                        Store::kCountBytes - offset));
                    });
                state.lsn = rec.lsn;
                break;
            }
            case WalRecordKind::kCommit:
                break;
        }
    }
    PGF_CHECK(saw_genesis, "recover: genesis outside the committed prefix");

    // Skip test: which pages already hold their last committed image.
    PGF_CHECK(out.file->page_size() == out.page_size,
              "recover: data file page size disagrees with the log");
    out.file->ensure_page_count(pages.size());
    std::vector<std::byte> disk(out.page_size);
    std::vector<std::uint64_t> stale;  // page ids, ascending
    for (std::uint64_t page = 0; page < pages.size(); ++page) {
        if (pages[page].lsn == 0) continue;  // no committed record
        if (out.file->try_read(page, disk) &&
            page_lsn(disk) == pages[page].lsn) {
            ++out.stats.pages_skipped;  // already durable at this LSN
            continue;
        }
        stale.push_back(page);
    }

    // Rebuild pass: zero pages plus the committed ranges, in log order.
    if (!stale.empty()) {
        constexpr auto kFresh = std::numeric_limits<std::size_t>::max();
        std::vector<std::size_t> slot(pages.size(), kFresh);
        for (std::size_t i = 0; i < stale.size(); ++i) slot[stale[i]] = i;
        std::vector<std::byte> images(stale.size() * payload_size);
        reader.rewind();
        while (reader.next(rec) && rec.lsn <= scan.last_commit_lsn) {
            if (rec.kind != WalRecordKind::kPage) continue;
            std::size_t off = 0;
            const std::uint64_t page = wal_get_u64(rec.body, off);
            if (page >= slot.size() || slot[page] == kFresh) continue;
            std::byte* image = images.data() + slot[page] * payload_size;
            for_each_page_range(
                rec.body, payload_size, rec.lsn,
                [&](std::uint32_t offset, std::span<const std::byte> bytes) {
                    std::memcpy(image + offset, bytes.data(), bytes.size());
                });
        }
        for (std::size_t i = 0; i < stale.size(); ++i) {
            out.file->write_payload(
                stale[i],
                std::span(images).subspan(i * payload_size, payload_size),
                pages[stale[i]].lsn);
            ++out.stats.pages_replayed;
        }
    }
    out.file->sync();

    // Record counts come from the committed count words (every committed
    // bucket has a page record: create_bucket journals its empty page).
    for (auto& meta : out.metas) {
        const PageState& state = pages[meta.page];
        PGF_CHECK(state.lsn != 0,
                  "recover: committed bucket has no page record");
        meta.count = load_le<std::uint64_t>(state.count);
        PGF_CHECK(meta.count <= out.bucket_capacity,
                  "recover: page record overflows its bucket");
    }

    // Drop the uncommitted log suffix for good and reopen the log for
    // appending — new operations continue the LSN sequence from the
    // commit marker. The scan above already found both.
    out.wal = WriteAheadLog::resume(wal_path, scan.commit_bytes,
                                    scan.last_commit_lsn);
    return out;
}

}  // namespace pgf
