// Deep structural audit of a live grid file (any backend).
//
// Unlike audit_structure (which sees only the dimension-erased snapshot),
// this audit has access to the real linear scales, the grid directory and
// every stored record, so it can check the full grid-file contract of
// Nievergelt & Hinterberger:
//   - scales span the domain, split points sorted/unique/strictly interior;
//   - the directory's shape matches the scales' interval counts;
//   - every directory cell maps to a live bucket, and bucket cell boxes
//     agree with the directory both ways (rectangular, disjoint regions);
//   - record bookkeeping: the per-bucket record sum matches record_count(),
//     oversized buckets only where refinement cannot separate records;
//   - (deep) every record lies in the bucket that the directory assigns to
//     its coordinates.
//
// The audit is generic over the BucketStore backend: it reads records
// through GridFileCore's bucket_records()/bucket_cells() accessors, so the
// same checks run against an in-memory GridFile or a disk-backed
// PagedGridFile. The paged audit (paged_audit.hpp) runs the structural
// part here and feeds the per-record check the records it decoded from
// its own single read of each page, so a corrupt page is reported there
// instead of thrown from a pool read here.
#pragma once

#include <cstdint>
#include <span>
#include <sstream>
#include <string>

#include "pgf/analysis/report.hpp"
#include "pgf/gridfile/grid_file_core.hpp"

namespace pgf::analysis {

/// Every check of audit_grid_file but the deep per-record walk, into `r`.
/// Returns whether that walk may run: the level is deep and every bucket
/// cell box is well formed.
template <std::size_t D, typename Store>
bool audit_grid_structure(const GridFileCore<D, Store>& gf,
                          ValidationLevel level, ValidationReport& r) {
    // -- scales ------------------------------------------------------------
    for (std::size_t i = 0; i < D; ++i) {
        const LinearScale& scale = gf.scale(i);
        const std::string axis = "axis " + std::to_string(i);
        r.require(scale.lo() == gf.domain().lo[i] &&
                      scale.hi() == gf.domain().hi[i],
                  "gridfile.scale.domain", axis + " scale does not span the "
                  "domain");
        r.require(scale.lo() < scale.hi(), "gridfile.scale.empty",
                  axis + " scale interval is empty");
        const auto& splits = scale.splits();
        for (std::size_t k = 0; k < splits.size(); ++k) {
            r.require_lazy(splits[k] > scale.lo() && splits[k] < scale.hi(),
                           "gridfile.scale.interior", [&] {
                               return axis + " split " + std::to_string(k) +
                                      " lies outside the open domain "
                                      "interval";
                           });
            if (k > 0) {
                r.require_lazy(splits[k - 1] < splits[k],
                               "gridfile.scale.sorted", [&] {
                                   return axis + " splits " +
                                          std::to_string(k - 1) + " and " +
                                          std::to_string(k) +
                                          " are not strictly increasing";
                               });
            }
        }
        r.require_lazy(scale.intervals() == gf.directory().shape()[i],
                       "gridfile.directory.shape", [&] {
                           return axis + " has " +
                                  std::to_string(scale.intervals()) +
                                  " scale intervals but the directory spans " +
                                  std::to_string(gf.directory().shape()[i]) +
                                  " cells";
                       });
    }

    // -- bucket bookkeeping (O(buckets)) -----------------------------------
    const auto shape = gf.directory().shape();
    std::size_t record_sum = 0;
    bool boxes_ok = true;
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        const CellBox<D>& cells = gf.bucket_cells(b);
        const std::size_t records = gf.bucket_record_count(b);
        const std::string which = "bucket " + std::to_string(b);
        bool ok = true;
        for (std::size_t i = 0; i < D; ++i) {
            if (cells.lo[i] >= cells.hi[i] || cells.hi[i] > shape[i]) {
                ok = false;
            }
        }
        r.require(ok, "gridfile.bucket.cellbox",
                  which + " cell box is empty or out of the grid");
        boxes_ok = boxes_ok && ok;
        record_sum += records;
        r.require_lazy(records <= gf.bucket_capacity() ||
                           cells.cell_count() == 1,
                       "gridfile.bucket.oversized_merged", [&] {
                           return which + " is over capacity (" +
                                  std::to_string(records) +
                                  " records) yet spans multiple cells — it "
                                  "should have been split along a grid line";
                       });
    }
    r.require_lazy(record_sum == gf.record_count(), "gridfile.records.total",
                   [&] {
                       return "buckets hold " + std::to_string(record_sum) +
                              " records, file reports " +
                              std::to_string(gf.record_count());
                   });

    if (level < ValidationLevel::kStandard || !boxes_ok) return false;

    // -- directory <-> bucket agreement (O(cells)) -------------------------
    CellBox<D> all;
    all.lo.fill(0);
    all.hi = shape;
    for_each_cell(all, [&](const std::array<std::uint32_t, D>& cell) {
        const std::uint32_t b = gf.directory().at(cell);
        r.require_lazy(b < gf.bucket_count(), "gridfile.directory.dangling",
                       [&] {
                           std::string name;
                           for (std::size_t i = 0; i < D; ++i) {
                               name += i ? "," : "(";
                               name += std::to_string(cell[i]);
                           }
                           return "cell " + name + ") maps to bucket " +
                                  std::to_string(b) + " of " +
                                  std::to_string(gf.bucket_count());
                       });
        if (b < gf.bucket_count()) {
            r.require_lazy(gf.bucket_cells(b).contains(cell),
                           "gridfile.directory.box_mismatch", [&] {
                               return "a directory cell maps to bucket " +
                                      std::to_string(b) +
                                      " outside that bucket's cell box";
                           });
        }
    });
    // The converse — every cell of a bucket's box maps back to it — plus
    // the total-coverage identity makes merged regions rectangular and
    // disjoint.
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        for_each_cell(gf.bucket_cells(b),
                      [&](const std::array<std::uint32_t, D>& cell) {
                          r.require_lazy(gf.directory().at(cell) == b,
                                         "gridfile.bucket.box_mismatch", [&] {
                                             return "bucket " +
                                                    std::to_string(b) +
                                                    "'s box contains a cell "
                                                    "the directory assigns "
                                                    "elsewhere";
                                         });
                      });
    }

    return level >= ValidationLevel::kDeep;
}

/// The deep check of bucket `b` (O(records · D)): each of its `records`
/// lies in the region the directory assigns to `b`.
template <std::size_t D, typename Store>
void audit_record_placement(const GridFileCore<D, Store>& gf,
                            std::uint32_t b,
                            std::span<const GridRecord<D>> records,
                            ValidationReport& r) {
    const CellBox<D>& cells = gf.bucket_cells(b);
    for (std::size_t k = 0; k < records.size(); ++k) {
        const auto cell = gf.locate_cell(records[k].point);
        r.require_lazy(cells.contains(cell), "gridfile.record.misplaced", [&] {
            std::ostringstream os;
            os << "bucket " << b << " record " << k << " (id "
               << records[k].id << ") at " << records[k].point
               << " belongs to a different bucket's region";
            return os.str();
        });
    }
}

template <std::size_t D, typename Store>
ValidationReport audit_grid_file(const GridFileCore<D, Store>& gf,
                                 ValidationLevel level) {
    ValidationReport r("gridfile", level);
    detail::CheckReportScope scope(
        [&r] { return "audit context:\n" + r.summary(); });
    if (!audit_grid_structure(gf, level, r)) return r;
    for (std::uint32_t b = 0; b < gf.bucket_count(); ++b) {
        audit_record_placement(gf, b, std::span(gf.bucket_records(b)), r);
    }
    return r;
}

}  // namespace pgf::analysis
