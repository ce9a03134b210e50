// Page-level invariant checks for the disk-backed grid file.
//
// audit_paged_grid_file runs the full backend-generic structural audit
// (grid_file_audit.hpp) and layers on the checks only a paged backend can
// violate:
//   - every bucket owns a distinct page (no aliased storage);
//   - the scales are reconstructible from the bucket cell boxes alone —
//     every grid line is the boundary of at least one bucket box, so an
//     open-from-disk path that only sees boxes can rebuild the directory
//     tiling (the split dynamics guarantee this: a refinement immediately
//     splits the refined bucket along the new line, and later splits only
//     add boundaries);
//   - (standard) each page header's record count agrees with the in-memory
//     metadata and fits the page capacity;
//   - (deep) page-record roundtrip: decoding a page and re-encoding the
//     records reproduces the page's meaningful bytes exactly, so the codec
//     loses nothing on any stored record.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "pgf/analysis/grid_file_audit.hpp"
#include "pgf/analysis/report.hpp"
#include "pgf/storage/paged_grid_file.hpp"

namespace pgf::analysis {

template <std::size_t D>
ValidationReport audit_paged_grid_file(const PagedGridFile<D>& gf,
                                       ValidationLevel level) {
    using Store = PagedBucketStore<D>;
    ValidationReport r("paged-gridfile", level);
    r.merge(audit_grid_file(gf, level));

    // -- page ownership (O(buckets)) ---------------------------------------
    std::vector<std::uint64_t> pages;
    pages.reserve(gf.bucket_count());
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        pages.push_back(gf.bucket_page(b));
    }
    std::vector<std::uint64_t> sorted = pages;
    std::sort(sorted.begin(), sorted.end());
    r.require(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end(),
              "paged.page.unique",
              "two buckets share one backing page");

    // -- pool pin discipline (O(frames)) -----------------------------------
    // Every PageRef the engine takes is scoped to one operation, so a
    // quiescent grid file holds no pins; a nonzero count means a pin leaked
    // (and its frame is permanently unevictable). Checked before the
    // standard-level page reads below take (and release) pins of their own.
    r.require_lazy(gf.pool().pinned_frames() == 0, "paged.pool.pins", [&] {
        return "buffer pool holds " +
               std::to_string(gf.pool().pinned_frames()) +
               " pinned frame(s) on a quiescent grid file — a PageRef "
               "outlived its operation";
    });

    // -- scale reconstruction from bucket boxes (O(buckets · D)) -----------
    for (std::size_t i = 0; i < D; ++i) {
        const std::uint32_t intervals = gf.directory().shape()[i];
        std::vector<char> boundary(intervals + 1, 0);
        for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
            const CellBox<D>& cells = gf.bucket_cells(b);
            if (cells.lo[i] <= intervals) boundary[cells.lo[i]] = 1;
            if (cells.hi[i] <= intervals) boundary[cells.hi[i]] = 1;
        }
        for (std::uint32_t k = 0; k <= intervals; ++k) {
            r.require_lazy(boundary[k] == 1, "paged.scale.reconstruction",
                           [&] {
                               return "axis " + std::to_string(i) +
                                      " grid line " + std::to_string(k) +
                                      " is not a boundary of any bucket box"
                                      " — the scales cannot be rebuilt from"
                                      " the boxes";
                           });
        }
    }

    if (level < ValidationLevel::kStandard) return r;

    // -- durability headers straight from disk (O(buckets) raw reads) ------
    // Checksums must verify even while the pool holds newer dirty copies
    // (the on-disk image is then simply the previous version, which was
    // stamped on its way out too). The LSN obeys WAL-before-data: no data
    // page may ever be ahead of the durable log (and without a log, no
    // page is ever stamped at all). A journaled file opened without its
    // log has no log to compare with, so its LSNs go unchecked.
    {
        const bool check_lsn = gf.wal() != nullptr || !gf.journaled();
        const std::uint64_t durable =
            gf.wal() != nullptr ? gf.wal()->durable_lsn() : 0;
        for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
            const auto probe = gf.probe_bucket_page(b);
            r.require_lazy(probe.checksum_ok, "paged.page.checksum", [&] {
                return "bucket " + std::to_string(b) +
                       " page fails its checksum on disk (torn or corrupt "
                       "page)";
            });
            if (!probe.checksum_ok) continue;
            r.require_lazy(probe.version == kPageFormatVersion,
                           "paged.page.version", [&] {
                               return "bucket " + std::to_string(b) +
                                      " page carries format version " +
                                      std::to_string(probe.version);
                           });
            if (!check_lsn) continue;
            r.require_lazy(probe.lsn <= durable, "paged.page.lsn", [&] {
                return "bucket " + std::to_string(b) + " page LSN " +
                       std::to_string(probe.lsn) +
                       " is ahead of the durable log LSN " +
                       std::to_string(durable) +
                       " — WAL-before-data ordering was violated";
            });
        }
    }

    // -- page headers vs metadata (O(buckets) page reads) ------------------
    std::vector<std::byte> raw;
    std::vector<GridRecord<D>> decoded;
    std::vector<std::byte> reencoded;
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        const std::string which = "bucket " + std::to_string(b);
        gf.read_bucket_page(b, raw);
        const std::uint64_t header = Store::page_record_count(raw);
        const bool header_ok = header == gf.bucket_record_count(b);
        r.require_lazy(header_ok, "paged.page.header", [&] {
            return which + " page header claims " + std::to_string(header) +
                   " records, metadata says " +
                   std::to_string(gf.bucket_record_count(b));
        });
        r.require_lazy(header <= gf.capacity(), "paged.page.capacity", [&] {
            return which + " page header claims " + std::to_string(header) +
                   " records but the page holds at most " +
                   std::to_string(gf.capacity());
        });
        if (level < ValidationLevel::kDeep || !header_ok ||
            header > gf.capacity()) {
            continue;
        }

        // -- roundtrip (deep, O(records)): decode -> encode -> byte-equal --
        Store::decode_page(raw, decoded);
        reencoded.assign(raw.size(), std::byte{0});
        Store::encode_page(reencoded, decoded.data(), decoded.size());
        const std::size_t meaningful =
            Store::kCountBytes + decoded.size() * Store::kRecordBytes;
        r.require_lazy(std::equal(raw.begin(),
                                  raw.begin() + static_cast<std::ptrdiff_t>(
                                                    meaningful),
                                  reencoded.begin()),
                       "paged.page.roundtrip", [&] {
                           return which + " page bytes do not survive a "
                                          "decode/encode roundtrip";
                       });
    }
    return r;
}

}  // namespace pgf::analysis
