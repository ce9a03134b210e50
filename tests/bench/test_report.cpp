#include "report.hpp"

#include <gtest/gtest.h>

#include <string>

#include "pgf/util/check.hpp"

namespace pgf::bench {
namespace {

/// Counts non-overlapping occurrences of `needle` in `hay`.
std::size_t count_of(const std::string& hay, const std::string& needle) {
    std::size_t n = 0;
    for (auto at = hay.find(needle); at != std::string::npos;
         at = hay.find(needle, at + needle.size())) {
        ++n;
    }
    return n;
}

TEST(BenchReport, EscapesQuotesAndBackslashesInNames) {
    BenchReport report("bench \"quoted\" \\ name", 7);
    report.param("path\\to", "say \"hi\"");
    report.metric("cell \"a\"", "wall\\ms", 1.5, "ms", Better::kLower);
    const std::string json = report.json();
    EXPECT_NE(json.find(R"("name": "bench \"quoted\" \\ name")"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find(R"("path\\to": "say \"hi\"")"), std::string::npos)
        << json;
    EXPECT_NE(json.find(R"("cell \"a\"/wall\\ms": {"value": 1.5)"),
              std::string::npos)
        << json;
}

TEST(BenchReport, EveryMetricCarriesUnitAndDirection) {
    BenchReport report("ext_test", 3);
    ServingReport serving;
    serving.qps = 1000.0;
    serving.p99_ms = 2.5;
    BufferPool::Stats pool{9, 1, 0, 0};
    report.serving("dm/w=1", serving);
    report.pool("dm/w=1", pool);
    report.metric("total", "wall_ms", 12.0, "ms", Better::kLower);
    const std::string json = report.json();

    const std::size_t metrics = count_of(json, "\"value\": ");
    EXPECT_EQ(metrics, 6u + 5u + 1u);
    EXPECT_EQ(count_of(json, "\"unit\": \""), metrics);
    EXPECT_EQ(count_of(json, "\"better\": \"lower\"") +
                  count_of(json, "\"better\": \"higher\""),
              metrics);
    EXPECT_NE(json.find(R"("dm/w=1/qps": {"value": 1000, "unit": "1/s", )"
                        R"("better": "higher"})"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find(R"("dm/w=1/hit_rate": {"value": 0.9, )"
                        R"("unit": "ratio", "better": "higher"})"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find(R"("schema": "pgf-bench-v2")"), std::string::npos);
    EXPECT_NE(json.find(R"("seed": 3})"), std::string::npos) << json;
}

TEST(BenchReport, RejectsADuplicateKey) {
    BenchReport report("ext_test", 1);
    report.metric("a", "x", 1.0, "ms", Better::kLower);
    EXPECT_THROW(report.metric("a", "x", 2.0, "ms", Better::kLower),
                 CheckError);
}

}  // namespace
}  // namespace pgf::bench
