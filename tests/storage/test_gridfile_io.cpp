#include "pgf/storage/gridfile_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "pgf/util/rng.hpp"
#include "pgf/workload/datasets.hpp"
#include "pgf/workload/query_gen.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

class GridFileIoTest : public ::testing::Test {
protected:
    std::filesystem::path path_ = test::unique_temp_path("pgf_gridfile_io_test");

    void TearDown() override { std::filesystem::remove(path_); }
};

TEST_F(GridFileIoTest, RoundTripPreservesStructureAndRecords) {
    Rng rng(3);
    auto ds = make_hotspot2d(rng, 3000);
    GridFile<2> original = ds.build();
    std::uint64_t pages = save_grid_file(original, path_.string());
    EXPECT_GT(pages, 0u);

    GridFile<2> loaded = load_grid_file<2>(path_.string());
    EXPECT_EQ(loaded.record_count(), original.record_count());
    EXPECT_EQ(loaded.bucket_count(), original.bucket_count());
    EXPECT_EQ(loaded.merged_bucket_count(), original.merged_bucket_count());
    EXPECT_EQ(loaded.grid_shape(), original.grid_shape());
    EXPECT_EQ(loaded.config().bucket_capacity,
              original.config().bucket_capacity);

    // Every bucket identical (records in order, cell boxes equal).
    for (std::uint32_t b = 0; b < original.bucket_count(); ++b) {
        ASSERT_EQ(loaded.bucket(b).cells, original.bucket(b).cells);
        ASSERT_EQ(loaded.bucket(b).records.size(),
                  original.bucket(b).records.size());
        for (std::size_t k = 0; k < original.bucket(b).records.size(); ++k) {
            ASSERT_EQ(loaded.bucket(b).records[k].point,
                      original.bucket(b).records[k].point);
            ASSERT_EQ(loaded.bucket(b).records[k].id,
                      original.bucket(b).records[k].id);
        }
    }
}

TEST_F(GridFileIoTest, LoadedFileAnswersQueriesIdentically) {
    Rng rng(5);
    auto ds = make_correl2d(rng, 2500);
    GridFile<2> original = ds.build();
    save_grid_file(original, path_.string());
    GridFile<2> loaded = load_grid_file<2>(path_.string());

    Rng qrng(7);
    for (const auto& q : square_queries(ds.domain, 0.05, 100, qrng)) {
        ASSERT_EQ(loaded.query_buckets(q), original.query_buckets(q));
    }
}

TEST_F(GridFileIoTest, LoadedFileRemainsMutable) {
    Rng rng(9);
    auto ds = make_uniform2d(rng, 1500);
    GridFile<2> original = ds.build();
    save_grid_file(original, path_.string());
    GridFile<2> loaded = load_grid_file<2>(path_.string());
    // Keep inserting after the reload: splits must still work.
    for (std::uint64_t i = 0; i < 2000; ++i) {
        loaded.insert({{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)}},
                      100000 + i);
    }
    EXPECT_EQ(loaded.record_count(), 3500u);
    EXPECT_EQ(loaded.oversized_bucket_count(), 0u);
    Rect<2> all{{{0.0, 0.0}}, {{2000.0, 2000.0}}};
    EXPECT_EQ(loaded.query_records(all).size(), 3500u);
}

TEST_F(GridFileIoTest, ThreeDimensionalRoundTrip) {
    Rng rng(11);
    auto ds = make_dsmc3d(rng, 5000);
    GridFile<3> original = ds.build();
    save_grid_file(original, path_.string(), /*page_size=*/512);
    GridFile<3> loaded = load_grid_file<3>(path_.string());
    EXPECT_EQ(loaded.record_count(), original.record_count());
    EXPECT_EQ(loaded.structure().shape, original.structure().shape);
}

TEST_F(GridFileIoTest, WrongDimensionalityRejected) {
    Rng rng(13);
    auto ds = make_uniform2d(rng, 500);
    save_grid_file(ds.build(), path_.string());
    EXPECT_THROW(load_grid_file<3>(path_.string()), CheckError);
}

TEST_F(GridFileIoTest, CorruptMagicRejected) {
    {
        auto pf = PageFile::create(path_.string(), 4096);
        BufferPool pool(pf, 4);
        ByteWriter w(pool);
        w.put_string("NOTAGRID");
        w.finish();
        pf.sync();
    }
    EXPECT_THROW(load_grid_file<2>(path_.string()), CheckError);
}

/// Writes a one-bucket, no-split 2-d snapshot by hand whose header carries
/// `split_rule` in its split-rule byte.
void write_one_bucket_snapshot(const std::string& path,
                               std::uint8_t split_rule) {
    auto pf = PageFile::create(path, 4096);
    BufferPool pool(pf, 4);
    ByteWriter w(pool);
    w.put_string(kGridFileMagic);
    w.put_u32(2);
    for (int i = 0; i < 2; ++i) {
        w.put_f64(0.0);
        w.put_f64(1.0);
    }
    w.put_u64(8);  // bucket capacity
    w.put_u8(split_rule);
    for (int i = 0; i < 2; ++i) w.put_u32(0);  // no scale splits
    w.put_u32(1);                              // one bucket, all cells
    for (int i = 0; i < 2; ++i) {
        w.put_u32(0);
        w.put_u32(1);
    }
    w.put_u64(0);  // no records
    w.finish();
    pf.sync();
}

TEST_F(GridFileIoTest, UnknownSplitRuleRejected) {
    write_one_bucket_snapshot(path_.string(), kSplitRuleMidpoint);
    EXPECT_EQ(load_grid_file<2>(path_.string()).bucket_count(), 1u);
    write_one_bucket_snapshot(path_.string(), 1);
    EXPECT_THROW(load_grid_file<2>(path_.string()), CheckError);
}

TEST_F(GridFileIoTest, TruncatedSnapshotRejected) {
    Rng rng(7);
    auto ds = make_uniform2d(rng, 800);
    save_grid_file(ds.build(), path_.string());
    const std::uint64_t full = std::filesystem::file_size(path_);

    // Inside the superblock: not even a page file any more.
    std::filesystem::resize_file(path_, 10);
    EXPECT_THROW(load_grid_file<2>(path_.string()), CheckError);

    // Mid-snapshot: the torn page fails its checksum during the load.
    save_grid_file(ds.build(), path_.string());
    std::filesystem::resize_file(path_, full / 2 + 17);
    EXPECT_THROW(load_grid_file<2>(path_.string()), CheckError);
}

TEST_F(GridFileIoTest, FlippedByteFailsPageChecksumOnLoad) {
    Rng rng(9);
    auto ds = make_uniform2d(rng, 800);
    save_grid_file(ds.build(), path_.string());

    // One flipped bit in the middle of the snapshot body — past the page
    // header of whatever page it lands in, so only the checksum can tell.
    const std::uint64_t off = std::filesystem::file_size(path_) / 2 + 3;
    {
        std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(static_cast<std::streamoff>(off));
        char b = 0;
        f.read(&b, 1);
        b = static_cast<char>(b ^ 0x20);
        f.seekp(static_cast<std::streamoff>(off));
        f.write(&b, 1);
    }
    EXPECT_THROW(load_grid_file<2>(path_.string()), CheckError);
}

TEST_F(GridFileIoTest, EmptyGridFileRoundTrip) {
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    GridFile<2> empty(domain, {.bucket_capacity = 8});
    save_grid_file(empty, path_.string());
    GridFile<2> loaded = load_grid_file<2>(path_.string());
    EXPECT_EQ(loaded.record_count(), 0u);
    EXPECT_EQ(loaded.bucket_count(), 1u);
}

}  // namespace
}  // namespace pgf
