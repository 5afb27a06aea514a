#include "shape_index.h"

#include <cmath>
#include <cstring>

#include "cluster/candidate_index.h"
#include "util/error.h"
#include "util/hash.h"

namespace sosim::cluster {

namespace {

std::uint64_t
fingerprintIndex(const std::vector<Point> &points, std::size_t samples,
                 std::size_t buckets)
{
    std::uint64_t h = util::kFnvOffset;
    h = util::mixWord(h, samples);
    h = util::mixWord(h, buckets);
    h = util::mixWord(h, points.size());
    for (const auto &p : points) {
        h = util::mixWord(h, p.size());
        for (const double v : p) {
            std::uint64_t bits;
            static_assert(sizeof(bits) == sizeof(v));
            std::memcpy(&bits, &v, sizeof(bits));
            h = util::mixWord(h, bits);
        }
    }
    return h;
}

} // namespace

ShapeIndex
ShapeIndex::build(const std::vector<const double *> &rows,
                  std::size_t samples, std::size_t buckets)
{
    ShapeIndex index;
    index.samples_ = samples;
    index.buckets_ = buckets;
    if (!rows.empty())
        index.points_ = shapePoints(rows, samples, buckets);
    index.fingerprint_ =
        fingerprintIndex(index.points_, samples, buckets);
    return index;
}

ShapeIndex
ShapeIndex::fromPoints(std::vector<Point> points, std::size_t samples,
                       std::size_t buckets)
{
    ShapeIndex index;
    index.samples_ = samples;
    index.buckets_ = buckets;
    index.points_ = std::move(points);
    index.fingerprint_ =
        fingerprintIndex(index.points_, samples, buckets);
    return index;
}

const Point &
ShapeIndex::point(std::size_t i) const
{
    SOSIM_REQUIRE(i < points_.size(), "ShapeIndex::point: out of range");
    return points_[i];
}

double
ShapeIndex::meanDriftFrom(const ShapeIndex &other) const
{
    const std::size_t n = std::min(points_.size(), other.points_.size());
    if (n == 0)
        return 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        total += std::sqrt(
            squaredDistance(points_[i], other.points_[i]));
    return total / static_cast<double>(n);
}

} // namespace sosim::cluster
