// The file layer: positional round trips, short reads at end of file,
// append and truncate, typed OS errors, the buffered front-to-back reader,
// and the crash seam (a torn crashing write, then every write dropped).
#include "pgf/util/file.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "../storage/temp_path.hpp"

namespace pgf {
namespace {

class FileTest : public ::testing::Test {
protected:
    std::filesystem::path path_ = test::unique_temp_path("pgf_file_test");

    void TearDown() override { std::filesystem::remove(path_); }

    std::string path() const { return path_.string(); }
};

std::vector<std::byte> pattern(std::size_t size, std::uint8_t seed) {
    std::vector<std::byte> buf(size);
    for (std::size_t i = 0; i < size; ++i) {
        buf[i] = static_cast<std::byte>((seed + i * 13) & 0xff);
    }
    return buf;
}

std::vector<std::byte> read_all(const File& f) {
    std::vector<std::byte> out(f.size());
    EXPECT_EQ(f.read_at(0, out), out.size());
    return out;
}

TEST_F(FileTest, RoundTripAtSeveralOffsets) {
    File f(path(), File::Mode::kCreate);
    EXPECT_EQ(f.size(), 0u);
    // Adjacent, page-straddling and far-apart writes, out of order.
    const std::uint64_t offsets[] = {100000, 0, 4095, 300, 9000};
    std::uint8_t seed = 1;
    for (const std::uint64_t off : offsets) {
        f.write_at(off, pattern(300, seed++));
    }
    EXPECT_EQ(f.size(), 100000u + 300u);
    seed = 1;
    for (const std::uint64_t off : offsets) {
        std::vector<std::byte> out(300);
        EXPECT_EQ(f.read_at(off, out), 300u);
        EXPECT_EQ(out, pattern(300, seed++)) << "offset " << off;
    }
    // A gap between writes reads back as zeros.
    std::vector<std::byte> gap(16, std::byte{0xff});
    EXPECT_EQ(f.read_at(50000, gap), 16u);
    EXPECT_EQ(gap, std::vector<std::byte>(16, std::byte{0}));
}

TEST_F(FileTest, ShortReadAtEndOfFile) {
    {
        File f(path(), File::Mode::kCreate);
        f.write_at(0, pattern(100, 7));
    }
    const File f(path(), File::Mode::kRead);
    std::vector<std::byte> out(64, std::byte{0xee});
    EXPECT_EQ(f.read_at(60, out), 40u);
    EXPECT_TRUE(std::equal(out.begin(), out.begin() + 40,
                           pattern(100, 7).begin() + 60));
    EXPECT_EQ(out[40], std::byte{0xee});  // the tail is left untouched
    EXPECT_EQ(f.read_at(100, out), 0u);
    EXPECT_EQ(f.read_at(5000, out), 0u);
}

TEST_F(FileTest, AppendAfterOpen) {
    {
        File f(path(), File::Mode::kCreate);
        f.append(pattern(10, 1));
    }
    File f(path(), File::Mode::kReadWrite);
    f.append(pattern(20, 2));
    f.append(pattern(5, 3));
    std::vector<std::byte> expected = pattern(10, 1);
    for (const auto& part : {pattern(20, 2), pattern(5, 3)}) {
        expected.insert(expected.end(), part.begin(), part.end());
    }
    EXPECT_EQ(read_all(f), expected);
}

TEST_F(FileTest, TruncateCutsAndZeroExtends) {
    File f(path(), File::Mode::kCreate);
    f.write_at(0, pattern(64, 9));
    f.truncate(10);
    EXPECT_EQ(f.size(), 10u);
    EXPECT_EQ(read_all(f), pattern(10, 9));
    f.truncate(20);
    auto bytes = read_all(f);
    ASSERT_EQ(bytes.size(), 20u);
    for (std::size_t i = 10; i < 20; ++i) EXPECT_EQ(bytes[i], std::byte{0});
    f.append(pattern(3, 4));  // appends land after the new end
    EXPECT_EQ(f.size(), 23u);
}

TEST_F(FileTest, MissingPathNamesPathAndErrno) {
    const std::string missing = "/nonexistent-dir/pgf-file-test.bin";
    try {
        File f(missing, File::Mode::kRead);
        FAIL() << "opened a missing path";
    } catch (const IoError& e) {
        EXPECT_EQ(e.path(), missing);
        EXPECT_EQ(e.op(), "open");
        EXPECT_EQ(e.error(), ENOENT);
        const std::string what = e.what();
        EXPECT_NE(what.find(missing), std::string::npos) << what;
        EXPECT_NE(what.find("errno " + std::to_string(ENOENT)),
                  std::string::npos)
            << what;
    }
    // A read-only File refuses writes with the OS's errno, as IoError.
    { File f(path(), File::Mode::kCreate); }
    File ro(path(), File::Mode::kRead);
    try {
        ro.write_at(8, pattern(4, 1));
        FAIL() << "wrote through a read-only file";
    } catch (const IoError& e) {
        EXPECT_EQ(e.op(), "write");
        EXPECT_EQ(e.offset(), 8u);
        EXPECT_EQ(e.error(), EBADF);
    }
}

TEST_F(FileTest, InjectorTearsTheCrashingWriteAndDropsLaterOnes) {
    FaultInjector injector(2);  // the third counted write crashes
    const auto other = test::unique_temp_path("pgf_file_test_other");
    {
        File f(path(), File::Mode::kCreate, &injector);
        File g(other.string(), File::Mode::kCreate, &injector);
        f.write_at(0, pattern(8, 1));                  // op 0
        f.write_at(8, pattern(8, 2), CrashSite::kNo);  // not counted
        g.append(pattern(8, 3));                       // op 1
        EXPECT_EQ(injector.ops_seen(), 2u);
        EXPECT_FALSE(injector.crashed());
        EXPECT_THROW(f.write_at(16, pattern(8, 4)), CrashError);  // op 2
        EXPECT_TRUE(injector.crashed());
        // Dead: counted, uncounted, appends and truncates all vanish, in
        // every File that shares the injector.
        f.write_at(0, pattern(8, 5));
        f.write_at(8, pattern(8, 6), CrashSite::kNo);
        f.truncate(0);
        g.append(pattern(8, 7));
        EXPECT_EQ(g.size(), 8u);
    }
    File f(path(), File::Mode::kRead);
    std::vector<std::byte> expected = pattern(8, 1);
    for (const auto& part : {pattern(8, 2), pattern(4, 4)}) {
        expected.insert(expected.end(), part.begin(), part.end());
    }
    EXPECT_EQ(read_all(f), expected);  // the crashing write kept half
    std::filesystem::remove(other);
}

TEST_F(FileTest, ReaderStreamsAcrossBufferRefills) {
    const auto bytes = pattern(1000, 3);
    {
        File f(path(), File::Mode::kCreate);
        f.write_at(0, bytes);
    }
    FileReader in(path(), 64);  // far smaller than the file
    std::vector<std::byte> got;
    // Mixed request sizes, one larger than the buffer.
    for (const std::size_t n : {7u, 64u, 200u, 1u, 63u}) {
        const auto part = in.next(n);
        ASSERT_EQ(part.size(), n);
        got.insert(got.end(), part.begin(), part.end());
        EXPECT_EQ(in.position(), got.size());
    }
    for (;;) {
        const auto part = in.next(50);
        got.insert(got.end(), part.begin(), part.end());
        if (part.size() < 50) break;  // short only at the end
    }
    EXPECT_EQ(got, bytes);
    EXPECT_TRUE(in.next(1).empty());
    in.seek(990);
    const auto tail = in.next(100);
    ASSERT_EQ(tail.size(), 10u);
    EXPECT_EQ(tail[0], bytes[990]);

    // Forward seeks inside the buffered window land on the right bytes.
    in.seek(100);
    ASSERT_EQ(in.next(8).size(), 8u);  // buffers [100, 164)
    for (const std::uint64_t at : {108u, 130u, 160u, 200u}) {
        in.seek(at);
        EXPECT_EQ(in.position(), at);
        const auto part = in.next(4);
        ASSERT_EQ(part.size(), 4u);
        EXPECT_EQ(part[0], bytes[at]) << "seek to " << at;
        EXPECT_EQ(part[3], bytes[at + 3]) << "seek to " << at;
    }
}

}  // namespace
}  // namespace pgf
