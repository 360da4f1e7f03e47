/**
 * @file random.hpp
 * Deterministic pseudo-random number generation.
 *
 * A small xoshiro256** implementation is used instead of <random> engines
 * so results are identical across standard libraries; reproducibility of
 * the workload generators matters for the regression tests.
 */
#pragma once

#include <cstdint>

namespace vibe {

/** xoshiro256** by Blackman & Vigna (public domain reference algorithm). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // SplitMix64 seeding as recommended by the xoshiro authors.
        std::uint64_t x = seed;
        for (auto& word : state_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit sample. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). Requires n > 0. */
    std::uint64_t
    uniformInt(std::uint64_t n)
    {
        // Lemire's nearly-divisionless bounded sampling.
        std::uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        std::uint64_t l = static_cast<std::uint64_t>(m);
        if (l < n) {
            const std::uint64_t t = (0 - n) % n;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * n;
                l = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace vibe
