/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All experiments in this repository must be reproducible run-to-run, so
 * every stochastic component draws from an explicitly seeded Rng rather
 * than std::random_device. The generator is xoshiro256**, seeded through
 * splitmix64 as its authors recommend.
 */

#ifndef ALASKA_BASE_RNG_H
#define ALASKA_BASE_RNG_H

#include <cstdint>

namespace alaska
{

/** A small, fast, seedable PRNG (xoshiro256**). */
class Rng
{
  public:
    /**
     * The repository-wide default seed. Every stochastic component
     * that does not take an explicit seed (MeshModel, the harness
     * timelines) defaults to this one value, so
     * "same binary, same flags" is always "same run".
     */
    static constexpr uint64_t defaultSeed = 0xa1a56a5eedULL;

    explicit Rng(uint64_t seed = defaultSeed) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed via splitmix64. */
    void
    reseed(uint64_t seed)
    {
        for (auto &word : state_) {
            seed += 0x9e3779b97f4a7c15ULL;
            uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    uint64_t
    below(uint64_t bound)
    {
        // Lemire's multiply-shift rejection method.
        uint64_t x = next();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        uint64_t l = static_cast<uint64_t>(m);
        if (l < bound) {
            uint64_t t = -bound % bound;
            while (l < t) {
                x = next();
                m = static_cast<__uint128_t>(x) * bound;
                l = static_cast<uint64_t>(m);
            }
        }
        return static_cast<uint64_t>(m >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    real()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool chance(double p) { return real() < p; }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace alaska

#endif // ALASKA_BASE_RNG_H
