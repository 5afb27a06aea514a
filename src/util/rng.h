#ifndef SOSIM_UTIL_RNG_H
#define SOSIM_UTIL_RNG_H

/**
 * @file
 * Seeded random number generation for reproducible experiments.
 *
 * Every stochastic component in the simulator draws from an Rng instance
 * that is explicitly seeded, so a whole experiment is a pure function of
 * its seed.  The class wraps std::mt19937_64 and adds the distributions
 * the workload generator needs (Zipf popularity skew in particular).
 */

#include <cstdint>
#include <random>
#include <vector>

namespace sosim::util {

/** Deterministic, explicitly-seeded random source. */
class Rng
{
  public:
    /** Construct with an explicit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x5050'cafe'f00dULL);

    /** Uniform double in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /**
     * Normal deviate with the given mean and standard deviation.  A zero
     * stddev returns the mean; a negative or non-finite one is fatal.
     */
    double normal(double mean = 0.0, double stddev = 1.0);

    /** Bernoulli trial with probability p of returning true. */
    bool chance(double p);

    /**
     * Zipf-distributed rank in [0, n), exponent s.
     *
     * Used to skew per-instance popularity (hot shards draw more power).
     * Implemented by inverse-CDF over the precomputable harmonic weights
     * for small n, which is exact.
     *
     * @param n Number of ranks.
     * @param s Skew exponent; 0 degenerates to uniform.
     * @return A rank, with rank 0 the most popular.
     */
    std::size_t zipf(std::size_t n, double s);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            const auto j =
                static_cast<std::size_t>(uniformInt(0, (std::int64_t)i - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child generator (for per-instance streams). */
    Rng fork();

    /**
     * The seed fork() would build its child from, drawn the same way:
     * Rng(forkSeed()) equals fork().  Lets a caller take a run of forks
     * serially as 8-byte seeds and build each child where it is used.
     */
    std::uint64_t forkSeed();

    /** Access the underlying engine (for std distributions). */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

/**
 * Precomputed Zipf sampler for repeated draws with fixed (n, s).
 *
 * Rng::zipf recomputes the harmonic weights on every call; this class
 * computes the CDF once and binary-searches per draw.
 */
class ZipfSampler
{
  public:
    /**
     * @param n Number of ranks (must be >= 1).
     * @param s Skew exponent (>= 0).
     */
    ZipfSampler(std::size_t n, double s);

    /** Draw a rank in [0, n) using the supplied generator. */
    std::size_t sample(Rng &rng) const;

    /** Probability mass of a given rank. */
    double pmf(std::size_t rank) const;

  private:
    std::vector<double> cdf_;
};

} // namespace sosim::util

#endif // SOSIM_UTIL_RNG_H
