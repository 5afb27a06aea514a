#include "rng.h"

#include <cmath>

#include "error.h"

namespace sosim::util {

Rng::Rng(std::uint64_t seed) : engine_(seed) {}

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    return dist(engine_);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    SOSIM_REQUIRE(lo <= hi, "uniformInt: lo must be <= hi");
    std::uniform_int_distribution<std::int64_t> dist(lo, hi);
    return dist(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    SOSIM_REQUIRE(std::isfinite(stddev) && stddev >= 0.0,
                  "Rng::normal: stddev must be finite and non-negative");
    // A unit deviate scaled as libstdc++ scales it, so the stream is the
    // one normal_distribution(mean, stddev) draws; stddev == 0 (which
    // that distribution refuses) returns the mean and consumes the same
    // engine steps.
    std::normal_distribution<double> dist;
    return dist(engine_) * stddev + mean;
}

bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

std::size_t
Rng::zipf(std::size_t n, double s)
{
    ZipfSampler sampler(n, s);
    return sampler.sample(*this);
}

Rng
Rng::fork()
{
    return Rng(forkSeed());
}

std::uint64_t
Rng::forkSeed()
{
    // Draw two words so sibling forks are decorrelated even when the
    // parent engine state advances by a single step between forks.
    const std::uint64_t a = engine_();
    const std::uint64_t b = engine_();
    return a ^ (b << 1) ^ 0x9e37'79b9'7f4a'7c15ULL;
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
{
    SOSIM_REQUIRE(n >= 1, "ZipfSampler: need at least one rank");
    SOSIM_REQUIRE(s >= 0.0, "ZipfSampler: exponent must be non-negative");
    cdf_.resize(n);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        total += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf_[k] = total;
    }
    for (auto &c : cdf_)
        c /= total;
}

std::size_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.uniform();
    // First rank whose cumulative mass covers u.
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

double
ZipfSampler::pmf(std::size_t rank) const
{
    SOSIM_REQUIRE(rank < cdf_.size(), "ZipfSampler::pmf: rank out of range");
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

} // namespace sosim::util
