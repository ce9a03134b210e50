// Write-ahead log unit tests: append/flush/reopen round trips, LSN
// discipline, torn-tail and corruption detection, a flush retried after a
// failed write, the commit-boundary bookkeeping recovery truncates at, and
// the refusal of a format-1 log.
#include "pgf/storage/wal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pgf/storage/recovery.hpp"
#include "file_size_cap.hpp"
#include "pgf/util/check.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

class WalTest : public ::testing::Test {
protected:
    std::filesystem::path path_ = test::unique_temp_path("pgf_wal_test");

    void TearDown() override { std::filesystem::remove(path_); }

    std::vector<std::byte> body(std::initializer_list<int> xs) {
        std::vector<std::byte> out;
        for (int x : xs) out.push_back(static_cast<std::byte>(x));
        return out;
    }
};

TEST_F(WalTest, AppendFlushReopenRoundTrip) {
    {
        auto wal = WriteAheadLog::create(path_.string());
        EXPECT_EQ(wal->last_lsn(), 0u);
        EXPECT_EQ(wal->durable_lsn(), 0u);
        EXPECT_EQ(wal->append(WalRecordKind::kGenesis, body({1, 2, 3})), 1u);
        EXPECT_EQ(wal->append(WalRecordKind::kPage, body({9, 9})), 2u);
        EXPECT_EQ(wal->append(WalRecordKind::kCommit, {}), 3u);
        EXPECT_EQ(wal->last_lsn(), 3u);
        EXPECT_EQ(wal->durable_lsn(), 0u);  // still buffered
        wal->flush();
        EXPECT_EQ(wal->durable_lsn(), 3u);
        EXPECT_EQ(wal->stats().records, 3u);
        EXPECT_GE(wal->stats().flushes, 1u);
    }

    WalReader reader(path_.string());
    const auto scan = reader.scan();
    EXPECT_EQ(scan.records, 3u);
    EXPECT_EQ(scan.last_lsn, 3u);
    EXPECT_EQ(scan.last_commit_lsn, 3u);
    EXPECT_EQ(scan.commit_bytes, scan.valid_bytes);
    EXPECT_TRUE(scan.has_genesis);

    WalReader::Record rec;
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.lsn, 1u);
    EXPECT_EQ(rec.kind, WalRecordKind::kGenesis);
    EXPECT_EQ(rec.body, body({1, 2, 3}));
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.lsn, 2u);
    EXPECT_EQ(rec.body, body({9, 9}));
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.kind, WalRecordKind::kCommit);
    EXPECT_TRUE(rec.body.empty());
    EXPECT_FALSE(reader.next(rec));
    reader.rewind();
    ASSERT_TRUE(reader.next(rec));
    EXPECT_EQ(rec.lsn, 1u);

    // Reopen continues the LSN sequence and is immediately durable.
    auto wal = WriteAheadLog::open(path_.string());
    EXPECT_EQ(wal->last_lsn(), 3u);
    EXPECT_EQ(wal->durable_lsn(), 3u);
    EXPECT_EQ(wal->append(WalRecordKind::kCommit, {}), 4u);
}

TEST_F(WalTest, DestructorFlushesBufferedRecords) {
    {
        auto wal = WriteAheadLog::create(path_.string());
        wal->append(WalRecordKind::kGenesis, body({7}));
        // no explicit flush
    }
    WalReader reader(path_.string());
    EXPECT_EQ(reader.scan().records, 1u);
}

TEST_F(WalTest, FlushUpToIsANoOpWhenAlreadyDurable) {
    auto wal = WriteAheadLog::create(path_.string());
    wal->append(WalRecordKind::kGenesis, body({1}));
    wal->append(WalRecordKind::kCommit, {});
    wal->flush_up_to(2);
    EXPECT_EQ(wal->durable_lsn(), 2u);
    const auto flushes = wal->stats().flushes;
    wal->flush_up_to(1);  // already durable: must not touch the disk
    wal->flush_up_to(2);
    EXPECT_EQ(wal->stats().flushes, flushes);
}

TEST_F(WalTest, TornTailIsDetectedAndTruncatedOnOpen) {
    std::uint64_t full_size = 0;
    {
        auto wal = WriteAheadLog::create(path_.string());
        wal->append(WalRecordKind::kGenesis, body({1, 2, 3, 4}));
        wal->append(WalRecordKind::kCommit, {});
        wal->append(WalRecordKind::kPage, body({5, 6, 7, 8, 9, 10}));
        wal->flush();
    }
    full_size = std::filesystem::file_size(path_);

    // Chop mid-way through the last record: the scan must stop at LSN 2.
    std::filesystem::resize_file(path_, full_size - 3);
    {
        WalReader reader(path_.string());
        const auto scan = reader.scan();
        EXPECT_EQ(scan.records, 2u);
        EXPECT_EQ(scan.last_lsn, 2u);
        EXPECT_EQ(scan.last_commit_lsn, 2u);
        EXPECT_EQ(scan.valid_bytes, full_size - 3 - (17 + 6 - 3));
    }

    // open() truncates the torn tail for good and reuses LSN 3.
    {
        auto wal = WriteAheadLog::open(path_.string());
        EXPECT_EQ(wal->last_lsn(), 2u);
        EXPECT_EQ(wal->append(WalRecordKind::kPage, body({11})), 3u);
    }
    WalReader reader(path_.string());
    const auto scan = reader.scan();
    EXPECT_EQ(scan.records, 3u);
    EXPECT_EQ(scan.last_lsn, 3u);
}

TEST_F(WalTest, FlushRetriedAfterAFailedWriteKeepsEveryRecord) {
    // A flush that fails part way leaves torn bytes at the end of the log.
    // The retry must write over them: written after them, its records are
    // reported durable, yet the reader stops at the torn record and a
    // reopen cuts them away.
    auto wal = WriteAheadLog::create(path_.string());
    for (int k = 0; k < 10; ++k) wal->append(WalRecordKind::kCommit, {});
    wal->flush();
    const std::uint64_t flushed = std::filesystem::file_size(path_);
    const std::vector<std::byte> kb(1024, std::byte{0x5a});
    for (int k = 0; k < 10; ++k) wal->append(WalRecordKind::kPage, kb);
    {
        test::FileSizeCap cap(flushed + 2560);  // two and a half records fit
        EXPECT_THROW(wal->flush(), IoError);
    }
    ASSERT_EQ(std::filesystem::file_size(path_), flushed + 2560);
    EXPECT_EQ(wal->durable_lsn(), 10u);
    EXPECT_EQ(wal->append(WalRecordKind::kCommit, {}), 21u);
    wal->flush();
    EXPECT_EQ(wal->durable_lsn(), 21u);

    const auto expect_lsns_1_to_21 = [&](const char* when) {
        WalReader reader(path_.string());
        const auto scan = reader.scan();
        EXPECT_EQ(scan.records, 21u) << when;
        EXPECT_EQ(scan.last_lsn, 21u) << when;
        EXPECT_EQ(scan.last_commit_lsn, 21u) << when;
        EXPECT_EQ(scan.valid_bytes, std::filesystem::file_size(path_))
            << when;
    };
    expect_lsns_1_to_21("after the retried flush");
    wal.reset();
    wal = WriteAheadLog::open(path_.string());
    EXPECT_EQ(wal->last_lsn(), 21u);
    wal.reset();
    expect_lsns_1_to_21("after a reopen");
}

TEST_F(WalTest, CorruptRecordEndsTheValidPrefix) {
    {
        auto wal = WriteAheadLog::create(path_.string());
        wal->append(WalRecordKind::kGenesis, body({1}));
        wal->append(WalRecordKind::kCommit, {});
        wal->append(WalRecordKind::kPage, body({2, 3, 4}));
        wal->append(WalRecordKind::kCommit, {});
        wal->flush();
    }
    // Flip a byte inside record 3's body: records 1-2 stay valid, and the
    // later (intact) commit must NOT be reachable past the corruption.
    {
        std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
        const std::uint64_t header = 16;
        const std::uint64_t rec1 = 17 + 1, rec2 = 17;
        f.seekp(static_cast<std::streamoff>(header + rec1 + rec2 + 17 + 1));
        char x = 0;
        f.write(&x, 1);  // body byte 3 -> 0
    }
    WalReader reader(path_.string());
    const auto scan = reader.scan();
    EXPECT_EQ(scan.records, 2u);
    EXPECT_EQ(scan.last_commit_lsn, 2u);
}

TEST_F(WalTest, CommitBytesTracksTheLastCommitNotTheLastRecord) {
    std::uint64_t commit_bytes = 0;
    {
        auto wal = WriteAheadLog::create(path_.string());
        wal->append(WalRecordKind::kGenesis, body({1}));
        wal->append(WalRecordKind::kCommit, {});
        wal->flush();
    }
    {
        WalReader reader(path_.string());
        commit_bytes = reader.scan().commit_bytes;
        EXPECT_EQ(commit_bytes, std::filesystem::file_size(path_));
    }
    {
        auto wal = WriteAheadLog::open(path_.string());
        wal->append(WalRecordKind::kPage, body({2, 3}));  // no commit after
        wal->flush();
    }
    WalReader reader(path_.string());
    const auto scan = reader.scan();
    EXPECT_EQ(scan.records, 3u);
    EXPECT_EQ(scan.last_commit_lsn, 2u);
    // The uncommitted suffix is valid but past the commit boundary.
    EXPECT_EQ(scan.commit_bytes, commit_bytes);
    EXPECT_GT(scan.valid_bytes, scan.commit_bytes);
}

TEST_F(WalTest, BadMagicAndMissingFileAreTypedErrors) {
    {
        std::ofstream out(path_);
        out << "certainly not a WAL";
    }
    EXPECT_THROW(WalReader(path_.string()).scan(), CheckError);
    EXPECT_THROW(WriteAheadLog::open(path_.string()), CheckError);
    EXPECT_THROW(WriteAheadLog::open("/nonexistent-dir/nope.wal"), IoError);
}

TEST_F(WalTest, FormatOneLogIsRefusedByName) {
    // A format-1 log (whole page images in kPage) has the same envelope
    // under the magic "PGFWAL1". Every reader must name its format rather
    // than call it "not a write-ahead log", and none may parse it.
    {
        std::ofstream out(path_, std::ios::binary);
        const char header[16] = {'P', 'G', 'F', 'W', 'A', 'L', '1', '\0'};
        out.write(header, sizeof(header));
    }
    const auto expect_format_error = [](const char* who, auto&& call) {
        try {
            call();
            ADD_FAILURE() << who << " accepted a format-1 log";
        } catch (const CheckError& e) {
            const std::string what = e.what();
            EXPECT_NE(what.find("is log format 1"), std::string::npos)
                << who << ": " << what;
            EXPECT_NE(what.find("this build reads format 2"),
                      std::string::npos)
                << who << ": " << what;
        }
    };
    const std::string log = path_.string();
    expect_format_error("open", [&] { WriteAheadLog::open(log); });
    expect_format_error("scan", [&] { WalReader(log).scan(); });
    expect_format_error("probe", [&] { wal_probe_dims(log); });
    expect_format_error("replay", [&] {
        replay_wal<2>(test::unique_temp_path("pgf_wal_v1_data").string(),
                      log);
    });
}

TEST_F(WalTest, EmptyLogScansCleanly) {
    { auto wal = WriteAheadLog::create(path_.string()); }
    WalReader reader(path_.string());
    const auto scan = reader.scan();
    EXPECT_EQ(scan.records, 0u);
    EXPECT_EQ(scan.last_lsn, 0u);
    EXPECT_EQ(scan.last_commit_lsn, 0u);
    EXPECT_FALSE(scan.has_genesis);
    EXPECT_EQ(scan.valid_bytes, 16u);
    EXPECT_EQ(scan.commit_bytes, 16u);
    WalReader::Record rec;
    EXPECT_FALSE(reader.next(rec));
}

}  // namespace
}  // namespace pgf
