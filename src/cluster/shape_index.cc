#include "shape_index.h"

#include <cmath>

#include "cluster/candidate_index.h"
#include "util/error.h"

namespace sosim::cluster {

ShapeIndex
ShapeIndex::build(const std::vector<const double *> &rows,
                  std::size_t samples, std::size_t buckets)
{
    ShapeIndex index;
    index.samples_ = samples;
    index.buckets_ = buckets;
    if (!rows.empty())
        index.points_ = shapePoints(rows, samples, buckets);
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
