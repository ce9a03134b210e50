#include "pgf/storage/page_file.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <vector>

#include "pgf/storage/page.hpp"
#include "pgf/util/check.hpp"
#include "pgf/util/rng.hpp"
#include "temp_path.hpp"

namespace pgf {
namespace {

class PageFileTest : public ::testing::Test {
protected:
    std::filesystem::path path_ = test::unique_temp_path("pgf_pagefile_test");

    void TearDown() override { std::filesystem::remove(path_); }
};

std::vector<std::byte> pattern(std::size_t size, std::uint8_t seed) {
    std::vector<std::byte> buf(size);
    for (std::size_t i = 0; i < size; ++i) {
        buf[i] = static_cast<std::byte>((seed + i * 7) & 0xff);
    }
    return buf;
}

/// The payload region of a full page image (write() owns the rest).
std::span<const std::byte> payload_of(std::span<const std::byte> page) {
    return page.subspan(kPageHeaderBytes);
}

bool payload_equal(std::span<const std::byte> a,
                   std::span<const std::byte> b) {
    return std::equal(payload_of(a).begin(), payload_of(a).end(),
                      payload_of(b).begin(), payload_of(b).end());
}

TEST_F(PageFileTest, CreateAllocateRoundTrip) {
    auto pf = PageFile::create(path_.string(), 256);
    EXPECT_EQ(pf.page_size(), 256u);
    EXPECT_EQ(pf.payload_size(), 256u - kPageHeaderBytes);
    EXPECT_EQ(pf.page_count(), 0u);
    std::uint64_t a = pf.allocate();
    std::uint64_t b = pf.allocate();
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    auto data = pattern(256, 42);
    std::vector<std::byte> out(256);
    pf.write(a, data);
    pf.read(a, out);
    // write() owns the crc/version/flags fields but passes the payload
    // (and the LSN field) through verbatim.
    EXPECT_TRUE(payload_equal(out, data));
    EXPECT_EQ(page_version(out), kPageFormatVersion);
    EXPECT_EQ(page_lsn(out), page_lsn(data));
    EXPECT_TRUE(page_checksum_ok(out));
    // The other page stays zeroed (stamped header aside).
    pf.read(b, out);
    EXPECT_EQ(page_lsn(out), 0u);
    for (std::byte x : payload_of(out)) EXPECT_EQ(x, std::byte{0});
}

TEST_F(PageFileTest, PersistsAcrossReopen) {
    {
        auto pf = PageFile::create(path_.string(), 128);
        pf.allocate();
        pf.allocate();
        pf.write(1, pattern(128, 9));
        pf.sync();
    }
    auto pf = PageFile::open(path_.string());
    EXPECT_EQ(pf.page_size(), 128u);
    EXPECT_EQ(pf.page_count(), 2u);
    std::vector<std::byte> out(128);
    pf.read(1, out);
    EXPECT_TRUE(payload_equal(out, pattern(128, 9)));
}

TEST_F(PageFileTest, DestructorPersistsSuperblock) {
    {
        auto pf = PageFile::create(path_.string(), 128);
        pf.allocate();
        // no explicit sync
    }
    auto pf = PageFile::open(path_.string());
    EXPECT_EQ(pf.page_count(), 1u);
}

TEST_F(PageFileTest, RejectsBadAccess) {
    auto pf = PageFile::create(path_.string(), 128);
    std::vector<std::byte> buf(128);
    EXPECT_THROW(pf.read(0, buf), CheckError);  // nothing allocated
    pf.allocate();
    std::vector<std::byte> wrong(64);
    EXPECT_THROW(pf.read(0, wrong), CheckError);
    EXPECT_THROW(pf.write(0, wrong), CheckError);
    EXPECT_THROW(pf.write(5, buf), CheckError);
}

TEST_F(PageFileTest, RejectsTinyPagesAndBadMagic) {
    EXPECT_THROW(PageFile::create(path_.string(), 8), CheckError);
    {
        std::ofstream out(path_);
        out << "this is not a page file at all, sorry";
    }
    EXPECT_THROW(PageFile::open(path_.string()), CheckError);
    EXPECT_THROW(PageFile::open("/nonexistent-dir/nope.db"), IoError);
}

TEST_F(PageFileTest, ManyPagesRandomAccess) {
    auto pf = PageFile::create(path_.string(), 64);
    constexpr std::size_t kPages = 200;
    for (std::size_t i = 0; i < kPages; ++i) pf.allocate();
    Rng rng(3);
    // Random write/read interleaving; -1 marks a never-written page, which
    // must read back as zeros.
    std::vector<int> seeds(kPages, -1);
    for (int op = 0; op < 1000; ++op) {
        auto page = static_cast<std::uint64_t>(rng.below(kPages));
        if (rng.uniform() < 0.5) {
            seeds[page] = static_cast<int>(rng.below(256));
            pf.write(page, pattern(64, static_cast<std::uint8_t>(seeds[page])));
        } else {
            std::vector<std::byte> out(64);
            pf.read(page, out);
            std::vector<std::byte> expected =
                seeds[page] < 0
                    ? std::vector<std::byte>(64, std::byte{0})
                    : pattern(64, static_cast<std::uint8_t>(seeds[page]));
            ASSERT_TRUE(payload_equal(out, expected)) << "page " << page;
        }
    }
}

// ------------------------------------------------ durability header --

TEST_F(PageFileTest, FlippedByteFailsChecksumAsTypedError) {
    {
        auto pf = PageFile::create(path_.string(), 64);
        pf.allocate();
        pf.write(0, pattern(64, 5));
        pf.sync();
    }
    // Flip one payload byte behind the file's back.
    {
        std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(24 + 40);  // superblock + into page 0's payload
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x40);
        f.seekp(24 + 40);
        f.write(&byte, 1);
    }
    auto pf = PageFile::open(path_.string());
    std::vector<std::byte> out(64);
    EXPECT_THROW(pf.read(0, out), CheckError);
    EXPECT_FALSE(pf.try_read(0, out));  // no-throw probe agrees
}

TEST_F(PageFileTest, TornPageFailsChecksumButZeroExtensionVerifies) {
    auto pf = PageFile::create(path_.string(), 64);
    pf.allocate();
    pf.allocate();
    std::vector<std::byte> out(64);
    // A page the filesystem extended with zeros is a *valid empty page*
    // (zero-init CRC32C of zeros is zero): reading entirely past the
    // physical tail yields all zeros, which verifies.
    pf.sync();  // push buffered writes out before truncating externally
    std::filesystem::resize_file(path_, 24 + 64);
    EXPECT_TRUE(pf.try_read(1, out));
    EXPECT_EQ(page_lsn(out), 0u);
    // But a page torn mid-write (nonzero prefix, missing tail) fails.
    pf.write(0, pattern(64, 7));
    pf.sync();
    std::filesystem::resize_file(path_, 24 + 20);
    EXPECT_FALSE(pf.try_read(0, out));
}

TEST_F(PageFileTest, WritePayloadRoundTripsLsn) {
    auto pf = PageFile::create(path_.string(), 64);
    pf.allocate();
    const auto body = pattern(pf.payload_size(), 3);
    pf.write_payload(0, body, 77);
    std::vector<std::byte> out(64);
    pf.read(0, out);
    EXPECT_EQ(page_lsn(out), 77u);
    EXPECT_EQ(page_version(out), kPageFormatVersion);
    EXPECT_TRUE(std::equal(body.begin(), body.end(),
                           out.begin() + kPageHeaderBytes));
    // ensure_page_count grows with zeroed (still valid) pages.
    pf.ensure_page_count(5);
    EXPECT_EQ(pf.page_count(), 5u);
    EXPECT_TRUE(pf.try_read(4, out));
}

TEST_F(PageFileTest, CatalogFollowsTheLastPageUntilAPageWrite) {
    const auto body = pattern(100, 5);
    {
        auto pf = PageFile::create(path_.string(), 64);
        pf.allocate();
        pf.allocate();
        EXPECT_FALSE(pf.has_catalog());
        EXPECT_THROW(pf.read_catalog(), CheckError);
        pf.write_catalog(body);
        EXPECT_TRUE(pf.has_catalog());
    }
    // magic + length + crc, then the body, right after page 1.
    EXPECT_EQ(std::filesystem::file_size(path_), 24u + 2 * 64 + 20 + 100);
    {
        auto pf = PageFile::open(path_.string());
        ASSERT_TRUE(pf.has_catalog());
        EXPECT_EQ(pf.read_catalog(), body);
        // Allocating a page writes where the catalog was: it is dropped.
        pf.allocate();
        EXPECT_FALSE(pf.has_catalog());
        EXPECT_EQ(std::filesystem::file_size(path_), 24u + 3 * 64);
        pf.write_catalog(body);
        pf.write(0, pattern(64, 9));
        EXPECT_FALSE(pf.has_catalog());
    }
    auto pf = PageFile::open(path_.string());
    EXPECT_EQ(pf.page_count(), 3u);
    EXPECT_FALSE(pf.has_catalog());
    EXPECT_THROW(pf.read_catalog(), CheckError);
}

}  // namespace
}  // namespace pgf
