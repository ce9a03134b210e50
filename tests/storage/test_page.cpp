// Page-format primitives: CRC32C vectors, the hardware kernel against
// the table loop, header field round trips, and the zero-page property
// the recovery design leans on (a page region the filesystem extended
// with zeros must verify as a valid empty page).
#include "pgf/storage/page.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "pgf/util/rng.hpp"

namespace pgf {
namespace {

std::vector<std::byte> bytes_of(const char* text) {
    std::vector<std::byte> out(std::strlen(text));
    std::memcpy(out.data(), text, out.size());
    return out;
}

/// Our crc32c is zero-init / zero-xorout; the published CRC32C (iSCSI,
/// RFC 3720) vectors use 0xFFFFFFFF for both. The two are related by
/// seeding the register with ~0 and inverting the result, which doubles
/// as a test of the seed parameter.
std::uint32_t rfc3720(std::span<const std::byte> data) {
    return crc32c(data, 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

TEST(Crc32c, MatchesPublishedVectors) {
    EXPECT_EQ(rfc3720(bytes_of("123456789")), 0xE3069283u);
    const std::vector<std::byte> zeros32(32, std::byte{0});
    EXPECT_EQ(rfc3720(zeros32), 0x8A9136AAu);
    const std::vector<std::byte> ones32(32, std::byte{0xFF});
    EXPECT_EQ(rfc3720(ones32), 0x62A8AB43u);
}

TEST(Crc32c, ZeroInitOfZerosIsZero) {
    // The property the whole page format depends on: with a zero initial
    // register and no final xor, any run of zero bytes keeps the register
    // at zero — so an all-zero page stores crc 0 and verifies.
    for (std::size_t n : {0u, 1u, 16u, 64u, 4096u}) {
        const std::vector<std::byte> zeros(n, std::byte{0});
        EXPECT_EQ(crc32c(zeros), 0u) << n << " zero bytes";
    }
}

TEST(Crc32c, SeedChainsIncrementalComputation) {
    const auto whole = bytes_of("declustering parallel grid files");
    for (std::size_t cut = 0; cut <= whole.size(); ++cut) {
        const std::span<const std::byte> a(whole.data(), cut);
        const std::span<const std::byte> b(whole.data() + cut,
                                           whole.size() - cut);
        EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(whole)) << "cut " << cut;
    }
}

/// Checks `kernel` against the table loop on 10^4 random cases (lengths
/// 0-9000, start offsets 0-15 so every word alignment is covered, and a
/// random seed), then on every length of `kEdgeLengths` at all 16 offsets,
/// each with a random seed.
///
/// The edge lengths sit at the block edges of the three-stream SSE4.2
/// kernel (3 x 256 and 3 x 2048 bytes), plus 128 KiB: a catalog can reach
/// 115 KB.
constexpr std::size_t kEdgeLengths[] = {
    3 * 256 - 1,        3 * 256,          3 * 256 + 1, 3 * 2048 - 1, 3 * 2048,
    3 * 2048 + 3 * 256, 2 * 3 * 2048 + 7, 128 * 1024};

template <typename Kernel>
void expect_matches_table_loop(Kernel kernel) {
    Rng rng(20260);
    std::vector<std::byte> buffer(128 * 1024 + 16);
    for (auto& b : buffer) b = static_cast<std::byte>(rng.next_u32());
    const auto check = [&](std::size_t offset, std::size_t length) {
        const std::uint32_t seed = rng.next_u32();
        const std::span<const std::byte> data(buffer.data() + offset, length);
        ASSERT_EQ(kernel(data, seed), detail::crc32c_table(data, seed))
            << "offset " << offset << ", length " << length << ", seed "
            << seed;
    };
    for (int i = 0; i < 10000; ++i) {
        const std::size_t offset = rng.below(16);
        ASSERT_NO_FATAL_FAILURE(check(offset, rng.below(9001)))
            << "random case " << i;
    }
    for (const std::size_t length : kEdgeLengths) {
        for (std::size_t offset = 0; offset < 16; ++offset) {
            ASSERT_NO_FATAL_FAILURE(check(offset, length));
        }
    }
}

TEST(Crc32c, DispatchedKernelMatchesTableLoop) {
    expect_matches_table_loop(
        [](std::span<const std::byte> data, std::uint32_t seed) {
            return crc32c(data, seed);
        });
}

TEST(Crc32c, Sse42KernelMatchesTableLoop) {
#if defined(__x86_64__)
    if (!detail::cpu_has_sse42()) GTEST_SKIP() << "no SSE4.2 on this CPU";
    expect_matches_table_loop(detail::crc32c_sse42);
#else
    GTEST_SKIP() << "the SSE4.2 kernel is x86-64 only";
#endif
}

TEST(Crc32c, TableLoopMatchesPublishedVectors) {
    // The reference the kernels are checked against is itself checked.
    const auto digits = bytes_of("123456789");
    EXPECT_EQ(detail::crc32c_table(digits, 0xFFFFFFFFu) ^ 0xFFFFFFFFu,
              0xE3069283u);
}

TEST(PageHeader, FieldRoundTripsAndChecksumDetectsFlips) {
    std::vector<std::byte> page(128, std::byte{0});
    for (std::size_t i = kPageHeaderBytes; i < page.size(); ++i) {
        page[i] = static_cast<std::byte>(i * 31);
    }
    set_page_lsn(page, 0x1122334455667788ull);
    EXPECT_EQ(page_lsn(page), 0x1122334455667788ull);

    // Stamp a checksum by hand the way PageFile::write does.
    const std::uint32_t crc = page_compute_crc(page);
    for (std::size_t i = 0; i < 4; ++i) {
        page[i] = static_cast<std::byte>((crc >> (8 * i)) & 0xff);
    }
    EXPECT_EQ(page_stored_crc(page), crc);
    EXPECT_TRUE(page_checksum_ok(page));

    // Any single flipped bit — payload, LSN, or the crc field itself —
    // must break verification.
    for (std::size_t i : {0u, 5u, 9u, 40u, 127u}) {
        page[i] ^= std::byte{0x10};
        EXPECT_FALSE(page_checksum_ok(page)) << "flip at " << i;
        page[i] ^= std::byte{0x10};
    }
    EXPECT_TRUE(page_checksum_ok(page));
}

TEST(PageHeader, AllZeroPageVerifies) {
    const std::vector<std::byte> page(256, std::byte{0});
    EXPECT_TRUE(page_checksum_ok(page));
    EXPECT_EQ(page_lsn(page), 0u);
    EXPECT_EQ(page_version(page), 0u);  // never written
}

TEST(PageHeader, RuntShorterThanHeaderNeverVerifies) {
    const std::vector<std::byte> runt(kPageHeaderBytes - 1, std::byte{0});
    EXPECT_FALSE(page_checksum_ok(runt));
}

}  // namespace
}  // namespace pgf
