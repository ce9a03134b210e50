// Deterministic, portable random number generation.
//
// Every randomized component of pgf (dataset generators, query workloads,
// random seeding in the minimax algorithm, the random conflict-resolution
// heuristic) takes an explicit 64-bit seed and uses these generators, so a
// given seed reproduces the exact same experiment on every platform and
// standard library. std::normal_distribution et al. are deliberately avoided:
// their output is implementation-defined.
#pragma once

#include <cstdint>
#include <vector>

namespace pgf {

/// SplitMix64: tiny, high-quality 64-bit generator; also used to expand a
/// user seed into stream seeds for Pcg32.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

private:
    std::uint64_t state_;
};

/// PCG32 (O'Neill): the workhorse generator. 64-bit state, 32-bit output,
/// excellent statistical quality, trivially reproducible.
class Rng {
public:
    /// Seeds state and stream from `seed` via SplitMix64 expansion.
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL);

    /// Uniform 32-bit value.
    std::uint32_t next_u32();

    /// Uniform 64-bit value.
    std::uint64_t next_u64();

    /// Unbiased uniform integer in [0, bound) using Lemire rejection.
    /// bound must be > 0.
    std::uint32_t below(std::uint32_t bound);

    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

    /// Uniform double in [0, 1) with 53 bits of precision.
    double uniform();

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi);

    /// Normal deviate via Box–Muller (portable, unlike std::normal_distribution).
    double normal(double mean = 0.0, double stddev = 1.0);

    /// Exponential deviate with the given rate (lambda > 0).
    double exponential(double rate);

    /// Fisher–Yates shuffle of a vector.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(static_cast<std::uint32_t>(i));
            using std::swap;
            swap(v[i - 1], v[j]);
        }
    }

    /// Draws k distinct indices from [0, n) (a uniform random k-subset, in
    /// random order). Requires k <= n.
    std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

private:
    std::uint64_t state_;
    std::uint64_t inc_;
    bool has_spare_normal_ = false;
    double spare_normal_ = 0.0;
};

}  // namespace pgf
