// Model-based fuzzing of the grid file: random interleavings of insert,
// erase and range query are checked against a trivially correct reference
// (a flat record list). Each parameterized instance uses a different seed
// and bucket capacity, including adversarial duplicate-heavy inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "pgf/gridfile/grid_file.hpp"
#include "pgf/util/rng.hpp"

namespace pgf {
namespace {

struct ModelRecord {
    Point<2> point;
    std::uint64_t id;
};

class GridFileFuzz
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(GridFileFuzz, MatchesReferenceModelUnderRandomOps) {
    auto [seed, capacity] = GetParam();
    Rng rng(seed);
    Rect<2> domain{{{0.0, 0.0}}, {{1.0, 1.0}}};
    GridFile<2>::Config cfg;
    cfg.bucket_capacity = capacity;
    GridFile<2> gf(domain, cfg);
    std::vector<ModelRecord> model;
    std::uint64_t next_id = 0;

    auto random_point = [&]() -> Point<2> {
        double roll = rng.uniform();
        if (roll < 0.5) {
            return {{rng.uniform(), rng.uniform()}};
        }
        if (roll < 0.8) {  // clustered
            return {{std::clamp(rng.normal(0.25, 0.03), 0.0, 0.999),
                     std::clamp(rng.normal(0.75, 0.03), 0.0, 0.999)}};
        }
        // Duplicate-heavy lattice: forces oversized-bucket handling.
        return {{static_cast<double>(rng.uniform_int(0, 4)) * 0.2 + 0.1,
                 static_cast<double>(rng.uniform_int(0, 4)) * 0.2 + 0.1}};
    };

    for (int op = 0; op < 3000; ++op) {
        double roll = rng.uniform();
        if (roll < 0.62 || model.empty()) {
            Point<2> p = random_point();
            gf.insert(p, next_id);
            model.push_back({p, next_id});
            ++next_id;
        } else if (roll < 0.77) {
            // Erase a random existing record.
            std::size_t k = rng.below(static_cast<std::uint32_t>(model.size()));
            ASSERT_TRUE(gf.erase(model[k].point, model[k].id));
            model[k] = model.back();
            model.pop_back();
        } else if (roll < 0.82) {
            // Erase something that does not exist.
            EXPECT_FALSE(gf.erase(random_point(), 0xdeadbeef));
        } else {
            // Range query vs model.
            double x0 = rng.uniform(-0.1, 1.0), y0 = rng.uniform(-0.1, 1.0);
            double w = rng.uniform(0.0, 0.5), h = rng.uniform(0.0, 0.5);
            Rect<2> q{{{x0, y0}}, {{x0 + w, y0 + h}}};
            auto got = gf.query_records(q);
            std::vector<std::uint64_t> got_ids;
            for (const auto& r : got) got_ids.push_back(r.id);
            std::sort(got_ids.begin(), got_ids.end());
            std::vector<std::uint64_t> expected;
            for (const auto& r : model) {
                if (q.contains(r.point)) expected.push_back(r.id);
            }
            std::sort(expected.begin(), expected.end());
            ASSERT_EQ(got_ids, expected) << "op " << op;
        }
        if (op % 500 == 0) {
            ASSERT_EQ(gf.record_count(), model.size());
            ASSERT_NO_THROW(gf.structure().validate());
        }
    }
    // Final full-domain check.
    Rect<2> all{{{0.0, 0.0}}, {{1.0, 1.0}}};
    EXPECT_EQ(gf.query_records(all).size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GridFileFuzz,
    ::testing::Values(std::tuple<std::uint64_t, std::size_t>{1, 2},
                      std::tuple<std::uint64_t, std::size_t>{2, 3},
                      std::tuple<std::uint64_t, std::size_t>{3, 8},
                      std::tuple<std::uint64_t, std::size_t>{4, 16},
                      std::tuple<std::uint64_t, std::size_t>{5, 64},
                      std::tuple<std::uint64_t, std::size_t>{6, 5},
                      std::tuple<std::uint64_t, std::size_t>{7, 11},
                      std::tuple<std::uint64_t, std::size_t>{8, 32}),
    [](const auto& param_info) {
        return "seed" + std::to_string(std::get<0>(param_info.param)) + "cap" +
               std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace pgf
