// Crash-injection sweep for the durability layer: a deterministic insert/
// erase workload runs against a WAL-backed PagedGridFile with a fault
// injector armed to crash at the b-th durability-relevant write, for every
// budget b (or a >=100-point sample when the op count is large). After
// each injected crash the test replays the log and demands the full
// contract:
//
//   - replay_wal succeeds and the recovered file passes the deep audit;
//   - replay is idempotent — running it twice leaves the data file and the
//     log byte-for-byte identical, with zero pages rewritten on the second
//     pass;
//   - the recovered state is a committed prefix of the operation sequence:
//     record_count equals the count after exactly (durable commits - 1)
//     workload ops (the extra commit is construction's baseline).
//
// Construction itself is not crash-protected (mkfs analogy — see
// recovery.hpp), so every sweep arms the injector only after the
// constructor returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "pgf/analysis/paged_audit.hpp"
#include "pgf/core/point_source.hpp"
#include "pgf/storage/paged_grid_file.hpp"
#include "pgf/storage/recovery.hpp"
#include "pgf/storage/wal.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/file.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

struct Op {
    Point<2> p;
    std::uint64_t id;
    bool insert;
};

/// Deterministic mixed workload plus the record count after each prefix.
struct Workload {
    std::vector<Op> ops;
    std::vector<std::size_t> count_after;  // count_after[k]: after k ops
};

Workload make_workload(std::size_t n_ops, std::uint64_t seed) {
    Workload w;
    Rng rng(seed);
    std::vector<std::pair<Point<2>, std::uint64_t>> live;
    std::uint64_t next_id = 0;
    w.count_after.push_back(0);
    for (std::size_t i = 0; i < n_ops; ++i) {
        const bool erase = i % 6 == 5 && !live.empty();
        if (erase) {
            const std::size_t pick =
                rng.below(static_cast<std::uint32_t>(live.size()));
            w.ops.push_back({live[pick].first, live[pick].second, false});
            live[pick] = live.back();
            live.pop_back();
        } else {
            Point<2> p{};
            p[0] = rng.uniform();
            p[1] = rng.uniform();
            w.ops.push_back({p, next_id, true});
            live.emplace_back(p, next_id);
            ++next_id;
        }
        w.count_after.push_back(live.size());
    }
    return w;
}

PagedGridFile<2>::Config durable_config(const std::string& wal_path,
                                        FaultInjector* injector) {
    PagedGridFile<2>::Config cfg;
    cfg.page_size = PagedBucketStore<2>::page_size_for(8);
    cfg.pool_pages = 6;  // tiny pool: most ops evict, maximizing crash sites
    cfg.wal_path = wal_path;
    cfg.fault_injector = injector;
    return cfg;
}

void apply_ops(PagedGridFile<2>& pf, const std::vector<Op>& ops) {
    for (const auto& op : ops) {
        if (op.insert) {
            pf.insert(op.p, op.id);
        } else {
            pf.erase(op.p, op.id);
        }
    }
}

std::vector<char> file_bytes(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

std::uint64_t count_commits(const std::string& wal_path) {
    WalReader reader(wal_path);
    reader.scan();
    reader.rewind();
    std::uint64_t commits = 0;
    WalReader::Record rec;
    while (reader.next(rec)) {
        if (rec.kind == WalRecordKind::kCommit) ++commits;
    }
    return commits;
}

class CrashRecoveryTest : public ::testing::Test {
protected:
    std::filesystem::path data_ = test::unique_temp_path("pgf_crash_data");
    std::filesystem::path wal_ = test::unique_temp_path("pgf_crash_wal");

    void TearDown() override {
        std::filesystem::remove(data_);
        std::filesystem::remove(wal_);
    }

    void fresh_files() {
        std::filesystem::remove(data_);
        std::filesystem::remove(wal_);
    }

    /// Runs the workload with a crash armed at `budget` post-construction
    /// writes. Returns true when the crash fired (it must for budgets below
    /// the uninjured op count).
    bool run_until_crash(const Workload& w, std::uint64_t budget) {
        fresh_files();
        FaultInjector injector;
        auto cfg = durable_config(wal_.string(), &injector);
        PagedGridFile<2> pf(data_.string(), domain_, cfg);
        injector.arm(budget);
        try {
            apply_ops(pf, w.ops);
            pf.flush();
        } catch (const CrashError&) {
            return true;
        }
        return injector.crashed();
    }

    /// The full post-crash contract for the current data_/wal_ pair.
    void expect_recoverable(const Workload& w, std::uint64_t budget) {
        // Replay twice through the low-level entry point: byte idempotency.
        {
            ReplayStats first;
            {
                auto rec = replay_wal<2>(data_.string(), wal_.string());
                first = rec.stats;
            }
            const auto data_after_first = file_bytes(data_);
            const auto wal_after_first = file_bytes(wal_);
            {
                auto rec = replay_wal<2>(data_.string(), wal_.string());
                EXPECT_EQ(rec.stats.pages_replayed, 0u)
                    << "budget " << budget
                    << ": second replay rewrote pages";
                EXPECT_EQ(rec.stats.last_commit_lsn, first.last_commit_lsn);
            }
            EXPECT_EQ(file_bytes(data_), data_after_first)
                << "budget " << budget << ": data file not idempotent";
            EXPECT_EQ(file_bytes(wal_), wal_after_first)
                << "budget " << budget << ": wal not idempotent";
        }

        // Recovered grid passes the deep audit and lands on a committed
        // prefix of the op sequence.
        PagedGridFile<2>::Config cfg = durable_config(wal_.string(), nullptr);
        PagedGridFile<2> pf(PagedGridFile<2>::RecoverTag{}, data_.string(),
                            cfg);
        const auto report =
            analysis::audit_paged_grid_file(
                pf, analysis::ValidationLevel::kDeep);
        EXPECT_TRUE(report.ok())
            << "budget " << budget << ":\n" << report.summary();

        const std::uint64_t commits = count_commits(wal_.string());
        ASSERT_GE(commits, 1u) << "budget " << budget;
        const std::size_t k = std::min<std::size_t>(
            static_cast<std::size_t>(commits - 1), w.ops.size());
        EXPECT_EQ(pf.record_count(), w.count_after[k])
            << "budget " << budget << ": not the state after " << k
            << " ops";
    }

    Rect<2> domain_{{{0.0, 0.0}}, {{1.0, 1.0}}};
};

TEST_F(CrashRecoveryTest, SweepEveryInjectionPointRecovers) {
    const Workload w = make_workload(220, 77);

    // Uninjured run counts the durability-relevant writes (the injection
    // points). The count-only injector never fires at kUnlimited.
    std::uint64_t total_ops = 0;
    std::size_t final_count = 0;
    {
        fresh_files();
        FaultInjector counter;
        auto cfg = durable_config(wal_.string(), &counter);
        PagedGridFile<2> pf(data_.string(), domain_, cfg);
        const std::uint64_t base = counter.ops_seen();
        apply_ops(pf, w.ops);
        pf.flush();
        total_ops = counter.ops_seen() - base;
        final_count = pf.record_count();
        EXPECT_FALSE(counter.crashed());
    }
    ASSERT_GE(total_ops, 100u)
        << "workload too small to exercise 100 injection points";
    EXPECT_EQ(final_count, w.count_after.back());

    // Sweep budgets: every early point (construction aftermath, first
    // splits), every late point (final flush), and a randomized sample of
    // the middle — at least 100 distinct crash sites total.
    std::set<std::uint64_t> picked;
    for (std::uint64_t b = 0; b < std::min<std::uint64_t>(30, total_ops); ++b)
        picked.insert(b);
    for (std::uint64_t b = total_ops > 20 ? total_ops - 20 : 0;
         b < total_ops; ++b)
        picked.insert(b);
    Rng rng(2026);
    const std::uint64_t target = std::min<std::uint64_t>(110, total_ops);
    while (picked.size() < target) {
        picked.insert(rng.below(static_cast<std::uint32_t>(total_ops)));
    }
    const std::vector<std::uint64_t> budgets(picked.begin(), picked.end());
    ASSERT_GE(budgets.size(), 100u);

    for (const std::uint64_t b : budgets) {
        ASSERT_TRUE(run_until_crash(w, b)) << "budget " << b;
        expect_recoverable(w, b);
        if (::testing::Test::HasFailure()) {
            FAIL() << "stopping sweep at budget " << b;
        }
    }
}

TEST_F(CrashRecoveryTest, SweepCoversTheFirstSplitDensely) {
    // Twelve inserts (two ops are erases) overflow the first capacity-8
    // bucket: every budget in this micro-workload lands
    // construction-adjacent or inside the first splits (create+split+refine
    // records, two page rewrites). Sweep all of them.
    const Workload w = make_workload(14, 5);
    std::uint64_t total_ops = 0;
    {
        fresh_files();
        FaultInjector counter;
        auto cfg = durable_config(wal_.string(), &counter);
        PagedGridFile<2> pf(data_.string(), domain_, cfg);
        const std::uint64_t base = counter.ops_seen();
        apply_ops(pf, w.ops);
        pf.flush();
        EXPECT_GT(pf.bucket_count(), 1u) << "workload never split";
        total_ops = counter.ops_seen() - base;
    }
    for (std::uint64_t b = 0; b < total_ops; ++b) {
        ASSERT_TRUE(run_until_crash(w, b)) << "budget " << b;
        expect_recoverable(w, b);
        if (::testing::Test::HasFailure()) {
            FAIL() << "stopping sweep at budget " << b;
        }
    }
}

TEST_F(CrashRecoveryTest, RecoveredFileAcceptsNewOpsAndRecoversAgain) {
    const Workload w = make_workload(120, 9);
    ASSERT_TRUE(run_until_crash(w, 40));

    std::size_t count_after_recovery = 0;
    {
        auto cfg = durable_config(wal_.string(), nullptr);
        PagedGridFile<2> pf(PagedGridFile<2>::RecoverTag{}, data_.string(),
                            cfg);
        count_after_recovery = pf.record_count();
        // The reopened log keeps journaling: run more inserts, flush, and
        // the *next* recovery must see them.
        Rng rng(13);
        for (std::uint64_t id = 10'000; id < 10'025; ++id) {
            Point<2> p{};
            p[0] = rng.uniform();
            p[1] = rng.uniform();
            pf.insert(p, id);
        }
        pf.flush();
    }
    auto cfg = durable_config(wal_.string(), nullptr);
    PagedGridFile<2> pf(PagedGridFile<2>::RecoverTag{}, data_.string(), cfg);
    EXPECT_EQ(pf.record_count(), count_after_recovery + 25);
    const auto report =
        analysis::audit_paged_grid_file(pf,
                                        analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(CrashRecoveryTest, ProbeDimsReadsGenesisAndRejectsJunk) {
    {
        FaultInjector counter;
        auto cfg = durable_config(wal_.string(), &counter);
        PagedGridFile<2> pf(data_.string(), domain_, cfg);
    }
    EXPECT_EQ(wal_probe_dims(wal_.string()), 2u);

    // A log whose committed prefix lacks genesis (empty log) is a typed
    // error, as is replaying it.
    fresh_files();
    { auto wal = WriteAheadLog::create(wal_.string()); }
    EXPECT_THROW(wal_probe_dims(wal_.string()), CheckError);
    EXPECT_THROW(replay_wal<2>(data_.string(), wal_.string()), CheckError);
}

TEST_F(CrashRecoveryTest, ReplayNeedsACommitMarker) {
    // Genesis alone (no commit) is not a recoverable state: nothing was
    // ever durable, and replay must say so rather than invent a grid.
    {
        auto wal = WriteAheadLog::create(wal_.string());
        std::vector<std::byte> body;
        wal_put_u32(body, 2);
        wal_put_u64(body, 240);
        wal_put_u64(body, 8);
        body.push_back(std::byte{0});
        for (int i = 0; i < 2; ++i) {
            wal_put_f64(body, 0.0);
            wal_put_f64(body, 1.0);
        }
        wal->append(WalRecordKind::kGenesis, body);
        wal->flush();
    }
    EXPECT_EQ(wal_probe_dims(wal_.string()), 2u);
    EXPECT_THROW(replay_wal<2>(data_.string(), wal_.string()), CheckError);
}

TEST_F(CrashRecoveryTest, GenesisWithUnknownSplitRuleRejected) {
    // A committed genesis whose split-rule byte is `rule`, over an empty
    // data file of the matching page size.
    const std::size_t page_size = PagedBucketStore<2>::page_size_for(8);
    { auto file = PageFile::create(data_.string(), page_size); }
    auto write_log = [&](std::uint8_t rule) {
        auto wal = WriteAheadLog::create(wal_.string());
        std::vector<std::byte> body;
        wal_put_u32(body, 2);
        wal_put_u64(body, page_size);
        wal_put_u64(body, 8);
        body.push_back(std::byte{rule});
        for (int i = 0; i < 2; ++i) {
            wal_put_f64(body, 0.0);
            wal_put_f64(body, 1.0);
        }
        wal->append(WalRecordKind::kGenesis, body);
        wal->append(WalRecordKind::kCommit, {});
        wal->flush();
    };
    write_log(kSplitRuleMidpoint);
    EXPECT_NO_THROW(replay_wal<2>(data_.string(), wal_.string()));
    write_log(1);
    EXPECT_EQ(wal_probe_dims(wal_.string()), 2u);
    EXPECT_THROW(replay_wal<2>(data_.string(), wal_.string()), CheckError);
}

TEST_F(CrashRecoveryTest, RecoveryRejectsAnOverlappingBucketBox) {
    // A committed bucket create whose box overlaps an existing bucket
    // replays cleanly at the log level; the directory retile must refuse
    // the tiling when the file is reopened.
    const Workload w = make_workload(60, 31);
    auto cfg = durable_config(wal_.string(), nullptr);
    std::uint32_t buckets = 0;
    std::uint64_t fresh_page = 0;
    CellBox<2> taken;
    {
        PagedGridFile<2> pf(data_.string(), domain_, cfg);
        apply_ops(pf, w.ops);
        pf.flush();
        buckets = static_cast<std::uint32_t>(pf.bucket_count());
        ASSERT_GT(buckets, 1u) << "workload never split";
        taken = pf.bucket_cells(buckets - 1);
        for (std::uint32_t b = 0; b < buckets; ++b) {
            fresh_page = std::max(fresh_page, pf.bucket_page(b) + 1);
        }
    }
    {
        auto wal = WriteAheadLog::open(wal_.string());
        std::vector<std::byte> create;
        wal_put_u32(create, buckets);
        wal_put_u64(create, fresh_page);
        for (std::size_t i = 0; i < 2; ++i) {
            wal_put_u32(create, taken.lo[i]);
            wal_put_u32(create, taken.hi[i]);
        }
        wal->append(WalRecordKind::kCreate, create);
        std::vector<std::byte> empty;  // the new bucket's empty page:
        wal_put_u64(empty, fresh_page);  // no range changes the zero page
        wal->append(WalRecordKind::kPage, empty);
        wal->append(WalRecordKind::kCommit, {});
        wal->flush();
    }
    EXPECT_NO_THROW(replay_wal<2>(data_.string(), wal_.string()));
    EXPECT_THROW(PagedGridFile<2>(PagedGridFile<2>::RecoverTag{},
                                  data_.string(), cfg),
                 CheckError);
}

TEST_F(CrashRecoveryTest, RejectedDuplicateInsertKeepsAcceptedRecords) {
    // Capacity 4 and six copies of one point: the last two are rejected.
    // The log must replay to the four accepted records, not to the empty
    // pages the rejected split cascade wrote.
    PagedGridFile<2>::Config cfg = durable_config(wal_.string(), nullptr);
    cfg.page_size = PagedBucketStore<2>::page_size_for(4);
    const Point<2> p{{0.5, 0.5}};
    {
        PagedGridFile<2> pf(data_.string(), domain_, cfg);
        for (std::uint64_t i = 0; i < 4; ++i) pf.insert(p, i);
        EXPECT_THROW(pf.insert(p, 4), CheckError);
        EXPECT_THROW(pf.insert(p, 5), CheckError);
        EXPECT_EQ(pf.record_count(), 4u);
        pf.flush();
    }
    PagedGridFile<2> pf(PagedGridFile<2>::RecoverTag{}, data_.string(), cfg);
    EXPECT_EQ(pf.record_count(), 4u);
    EXPECT_EQ(pf.query_records(domain_).size(), 4u);
    const auto report = analysis::audit_paged_grid_file(
        pf, analysis::ValidationLevel::kDeep);
    EXPECT_TRUE(report.ok()) << report.summary();
}

TEST_F(CrashRecoveryTest, RejectedDuplicateInMidBlockKeepsEarlierRecords) {
    // Capacity 4, one bulk_load block: 500 scattered points, five copies
    // of one point, then 500 more. The fifth copy cannot be separated, so
    // the load throws. The 504 records before it are kept and counted
    // (the pending runs of the block land first), the file takes more
    // records, and the log recovers all of them.
    PagedGridFile<2>::Config cfg = durable_config(wal_.string(), nullptr);
    cfg.page_size = PagedBucketStore<2>::page_size_for(4);
    Rng rng(67);
    std::vector<Point<2>> points;
    for (int i = 0; i < 500; ++i) points.push_back({{rng.uniform(), rng.uniform()}});
    for (int i = 0; i < 5; ++i) points.push_back({{0.3, 0.3}});
    for (int i = 0; i < 500; ++i) points.push_back({{rng.uniform(), rng.uniform()}});
    std::vector<Point<2>> more(200);
    for (auto& q : more) q = {{rng.uniform(), rng.uniform()}};
    const auto expect_ids = [&](const PagedGridFile<2>& pf,
                                std::size_t extra, const char* when) {
        std::vector<std::uint64_t> ids;
        for (const auto& r : pf.query_records(domain_)) ids.push_back(r.id);
        std::sort(ids.begin(), ids.end());
        ASSERT_EQ(ids.size(), 504u + extra) << when;
        for (std::uint64_t i = 0; i < 504; ++i) {
            ASSERT_EQ(ids[i], i) << when;
        }
        const auto report = analysis::audit_paged_grid_file(
            pf, analysis::ValidationLevel::kDeep);
        EXPECT_TRUE(report.ok()) << when << ":\n" << report.summary();
    };
    {
        PagedGridFile<2> pf(data_.string(), domain_, cfg);
        EXPECT_THROW(pf.bulk_load(points), CheckError);
        EXPECT_EQ(pf.record_count(), 504u);
        expect_ids(pf, 0, "after the rejection");
        pf.insert({{0.9, 0.1}}, 10'000);
        VectorPointSource<2> stream(more);
        EXPECT_EQ(pf.bulk_load_stream(stream, 20'000), more.size());
        EXPECT_EQ(pf.record_count(), 505u + more.size());
        expect_ids(pf, 1 + more.size(), "after more records");
        pf.flush();
    }
    PagedGridFile<2> pf(PagedGridFile<2>::RecoverTag{}, data_.string(), cfg);
    EXPECT_EQ(pf.record_count(), 505u + more.size());
    expect_ids(pf, 1 + more.size(), "after recovery");
}

TEST_F(CrashRecoveryTest, BulkLoadRecoversToAWholeNumberOfBlocks) {
    // A journaled bulk_load of three and a half blocks writes one commit
    // marker per block. A crash anywhere in it recovers to the blocks
    // whose markers reached the log: the first records of a whole number
    // of blocks, with a clean deep audit.
    constexpr std::size_t kBlock = PagedGridFile<2>::kLoadBlock;
    Rng rng(61);
    std::vector<Point<2>> points(3 * kBlock + kBlock / 2);
    for (auto& p : points) p = {{rng.uniform(), rng.uniform()}};
    const auto config = [&](FaultInjector* injector) {
        PagedGridFile<2>::Config cfg =
            durable_config(wal_.string(), injector);
        cfg.page_size = PagedBucketStore<2>::page_size_for(32);
        cfg.pool_pages = 64;
        return cfg;
    };

    std::uint64_t total_ops = 0;
    {
        fresh_files();
        FaultInjector counter;
        PagedGridFile<2> pf(data_.string(), domain_, config(&counter));
        const std::uint64_t base = counter.ops_seen();
        pf.bulk_load(points);
        pf.flush();
        total_ops = counter.ops_seen() - base;
        EXPECT_EQ(count_commits(wal_.string()), 5u);  // baseline + 4 blocks
    }
    ASSERT_GE(total_ops, 100u);

    std::set<std::size_t> recovered_blocks;
    for (std::uint64_t k = 0; k < 12; ++k) {
        const std::uint64_t budget = k * (total_ops - 1) / 11;
        SCOPED_TRACE("budget " + std::to_string(budget));
        fresh_files();
        {
            FaultInjector injector;
            PagedGridFile<2> pf(data_.string(), domain_, config(&injector));
            injector.arm(budget);
            try {
                pf.bulk_load(points);
                pf.flush();
            } catch (const CrashError&) {
            }
            ASSERT_TRUE(injector.crashed());
        }
        PagedGridFile<2> pf(PagedGridFile<2>::RecoverTag{}, data_.string(),
                            config(nullptr));
        const std::uint64_t commits = count_commits(wal_.string());
        ASSERT_GE(commits, 1u);
        const std::size_t blocks = static_cast<std::size_t>(commits - 1);
        ASSERT_LE(blocks, 4u);
        const std::size_t want = std::min(blocks * kBlock, points.size());
        EXPECT_EQ(pf.record_count(), want);
        std::vector<std::uint64_t> ids;
        for (const auto& r : pf.query_records(domain_)) ids.push_back(r.id);
        std::sort(ids.begin(), ids.end());
        ASSERT_EQ(ids.size(), want);
        for (std::size_t i = 0; i < want; ++i) ASSERT_EQ(ids[i], i);
        const auto report = analysis::audit_paged_grid_file(
            pf, analysis::ValidationLevel::kDeep);
        EXPECT_TRUE(report.ok()) << report.summary();
        recovered_blocks.insert(blocks);
    }
    EXPECT_GE(recovered_blocks.size(), 3u) << "the budgets crashed in too "
                                              "few blocks";
}

TEST_F(CrashRecoveryTest, ReplayFromTheLogAloneRebuildsEveryPage) {
    // A durable insert/erase workload and a streamed load, flushed; then
    // the data file is cut to its superblock, so no page survives. Replay
    // must rebuild every page from the zero page plus its logged ranges,
    // byte for byte, the stale tails that erases leave behind included.
    constexpr std::size_t kSuperblock = 24;  // magic, page size, page count
    const Workload w = make_workload(400, 41);
    const auto cfg = durable_config(wal_.string(), nullptr);
    std::uint64_t pages = 0;
    {
        PagedGridFile<2> pf(data_.string(), domain_, cfg);
        apply_ops(pf, w.ops);
        Rng rng(43);
        std::vector<Point<2>> more(300);
        for (auto& q : more) q = {{rng.uniform(), rng.uniform()}};
        VectorPointSource<2> stream(more);
        pf.bulk_load_stream(stream, 100'000);
        pf.flush();
        for (std::uint32_t b = 0; b < pf.bucket_count(); ++b) {
            pages = std::max(pages, pf.bucket_page(b) + 1);
        }
    }
    ASSERT_GT(pages, 20u) << "workload never split much";
    const std::size_t prefix = kSuperblock + pages * cfg.page_size;
    auto uncut = file_bytes(data_);
    ASSERT_GT(uncut.size(), prefix);  // the pages, then the catalog
    uncut.resize(prefix);
    std::filesystem::resize_file(data_, kSuperblock);

    {
        const auto rec = replay_wal<2>(data_.string(), wal_.string());
        EXPECT_EQ(rec.stats.pages_replayed, pages);
        EXPECT_EQ(rec.stats.pages_skipped, 0u);
    }
    EXPECT_EQ(file_bytes(data_), uncut);
}

TEST_F(CrashRecoveryTest, MalformedPageRangesAreRejectedByLsn) {
    // A committed page record whose ranges break a bound must fail replay
    // with a CheckError naming its LSN, and must not size anything by the
    // bad length word (ASan would flag a 4 GiB allocation).
    const auto cfg = durable_config(wal_.string(), nullptr);
    const auto payload =
        static_cast<std::uint32_t>(cfg.page_size - kPageHeaderBytes);
    const auto range = [](std::uint32_t offset, std::uint32_t length,
                          std::size_t bytes) {
        std::vector<std::byte> out;
        wal_put_u32(out, offset);
        wal_put_u32(out, length);
        out.resize(out.size() + bytes, std::byte{0x5a});
        return out;
    };
    struct Case {
        const char* name;
        std::vector<std::byte> ranges;  ///< the body after the page id
    };
    std::vector<Case> cases = {
        {"range past the payload", range(payload - 8, 16, 16)},
        {"zero-length range", range(0, 0, 0)},
        {"length beyond the body", range(0, 64, 8)},
        {"length word near 4 GiB", range(0, 0xffffffffu, 8)},
        {"header cut mid-body", range(0, 8, 8)},
    };
    cases.back().ranges.resize(cases.back().ranges.size() + 4);

    for (const Case& c : cases) {
        fresh_files();
        {
            PagedGridFile<2> pf(data_.string(), domain_, cfg);
            pf.insert({{0.5, 0.5}}, 1);
            pf.flush();
        }
        std::uint64_t lsn = 0;
        {
            auto wal = WriteAheadLog::open(wal_.string());
            std::vector<std::byte> body;
            wal_put_u64(body, 0);  // the root bucket's page
            body.insert(body.end(), c.ranges.begin(), c.ranges.end());
            lsn = wal->append(WalRecordKind::kPage, body);
            wal->append(WalRecordKind::kCommit, {});
            wal->flush();
        }
        try {
            replay_wal<2>(data_.string(), wal_.string());
            ADD_FAILURE() << c.name << ": replay accepted the record";
        } catch (const CheckError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("LSN " + std::to_string(lsn) + " "),
                      std::string::npos)
                << c.name << ": " << what;
        }
    }
}

TEST_F(CrashRecoveryTest, LoggedRangesRebuildTheFrameAfterEveryStore) {
    // Writer property: after every store and every append, each page's
    // zero image plus every range logged for it so far equals its frame in
    // the pool. The store is driven directly, through appends, inserts
    // that split, erases from the middle of a page, and runs of appends.
    using Store = PagedBucketStore<2>;
    const std::size_t page_size = Store::page_size_for(8);
    const std::size_t payload = page_size - kPageHeaderBytes;
    WalSetup<2> setup;
    setup.path = wal_.string();
    setup.domain = domain_;
    Store store(data_.string(), page_size, 64, setup);
    const std::size_t capacity = Store::capacity_for(page_size);

    std::size_t checks = 0;
    const auto expect_log_rebuilds_frames = [&](const char* step) {
        store.wal()->flush();
        WalReader reader(wal_.string());
        reader.scan();
        std::map<std::uint64_t, std::vector<std::byte>> images;
        WalReader::Record rec;
        while (reader.next(rec)) {
            if (rec.kind != WalRecordKind::kPage) continue;
            std::size_t off = 0;
            auto& image = images[wal_get_u64(rec.body, off)];
            image.resize(payload);
            for_each_page_range(
                rec.body, payload, rec.lsn,
                [&](std::uint32_t offset, std::span<const std::byte> bytes) {
                    std::copy(bytes.begin(), bytes.end(),
                              image.begin() + offset);
                });
        }
        for (std::uint32_t b = 0; b < store.bucket_count(); ++b) {
            const auto frame = store.pool().fetch(store.page(b));
            const auto data = frame.data();
            ASSERT_TRUE(images.count(store.page(b))) << step << " " << b;
            ASSERT_TRUE(std::equal(data.begin(), data.end(),
                                   images[store.page(b)].begin()))
                << "after " << step << ": bucket " << b
                << "'s frame is not its logged ranges";
        }
        ++checks;
    };

    Rng rng(57);
    std::uint64_t next_id = 0;
    const auto insert = [&](std::uint32_t b) {
        const GridRecord<2> record{{{rng.uniform(), rng.uniform()}},
                                   next_id++};
        if (store.size(b) < capacity) {
            store.append(b, {&record, 1});
            expect_log_rebuilds_frames("append");
            return;
        }
        store.edit(b).push_back(record);
        const std::uint32_t fresh = store.create_bucket({}, 0);
        expect_log_rebuilds_frames("create");
        const std::size_t pivot = 1 + rng.below(8);
        const bool upper = rng.below(2) == 1;
        store.split_active(b, fresh, pivot, upper);
        expect_log_rebuilds_frames("split");
        store.commit(upper ? fresh : b);
        expect_log_rebuilds_frames("commit");
    };
    const auto erase = [&](std::uint32_t b) {
        Store::Records& records = store.edit(b);
        if (!records.empty()) {
            records.erase(records.begin() + rng.below(
                static_cast<std::uint32_t>(records.size())));
        }
        store.commit(b);
        expect_log_rebuilds_frames("erase");
    };
    const auto pick = [&] {
        return rng.below(static_cast<std::uint32_t>(store.bucket_count()));
    };

    store.create_bucket({}, 0);
    expect_log_rebuilds_frames("root");
    for (int round = 0; round < 6; ++round) {
        for (int k = 0; k < 40; ++k) {
            if (k % 4 == 3) {
                erase(pick());
            } else {
                insert(pick());
            }
        }
        // Runs of two or three records into one bucket, then an erase.
        for (int k = 0; k < 30; ++k) {
            const std::uint32_t b = pick();
            const std::size_t n = 2 + rng.below(2);
            if (store.size(b) + n > capacity) {
                insert(b);
            } else {
                std::vector<GridRecord<2>> run;
                for (std::size_t r = 0; r < n; ++r) {
                    run.push_back({{{rng.uniform(), rng.uniform()}}, next_id++});
                }
                store.append(b, run);
                expect_log_rebuilds_frames("run");
            }
            erase(b);
        }
    }
    EXPECT_GT(store.bucket_count(), 10u);
    EXPECT_GT(checks, 500u);
}

TEST_F(CrashRecoveryTest, WalOnAndOffBuildIdenticalGrids) {
    // Journaling must not perturb the engine: the same workload with and
    // without a WAL yields the same structure and record placement (the
    // WAL-off path is the byte-compatible legacy format the goldens pin).
    const Workload w = make_workload(300, 21);
    const auto plain = test::unique_temp_path("pgf_crash_plain");

    auto cfg_on = durable_config(wal_.string(), nullptr);
    PagedGridFile<2> on(data_.string(), domain_, cfg_on);
    apply_ops(on, w.ops);

    PagedGridFile<2>::Config cfg_off;
    cfg_off.page_size = PagedBucketStore<2>::page_size_for(8);
    cfg_off.pool_pages = 6;
    PagedGridFile<2> off(plain.string(), domain_, cfg_off);
    apply_ops(off, w.ops);

    ASSERT_EQ(on.record_count(), off.record_count());
    ASSERT_EQ(on.bucket_count(), off.bucket_count());
    ASSERT_EQ(on.grid_shape(), off.grid_shape());
    for (std::uint32_t b = 0; b < on.bucket_count(); ++b) {
        const auto& a = on.bucket_records(b);
        const auto& c = off.bucket_records(b);
        ASSERT_EQ(a.size(), c.size()) << b;
        for (std::size_t k = 0; k < a.size(); ++k) {
            ASSERT_EQ(a[k].id, c[k].id) << b << ":" << k;
        }
    }
    std::filesystem::remove(plain);
}

}  // namespace
}  // namespace pgf
