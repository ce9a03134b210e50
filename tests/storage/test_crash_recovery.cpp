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
#include <set>
#include <string>
#include <vector>

#include "pgf/analysis/paged_audit.hpp"
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
        std::vector<std::byte> image;  // the new bucket's empty page
        wal_put_u64(image, fresh_page);
        image.resize(image.size() + cfg.page_size - kPageHeaderBytes);
        wal->append(WalRecordKind::kPage, image);
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
