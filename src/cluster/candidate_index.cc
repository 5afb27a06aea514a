#include "candidate_index.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/parallel.h"

namespace sosim::cluster {

CandidatePairIndex
CandidatePairIndex::build(const std::vector<Point> &points,
                          double keep_fraction)
{
    SOSIM_REQUIRE(!points.empty(),
                  "CandidatePairIndex: no points to cluster");
    SOSIM_REQUIRE(keep_fraction > 0.0 && keep_fraction <= 1.0,
                  "CandidatePairIndex: keepFraction must be in (0, 1]");
    const std::size_t n = points.size();

    CandidatePairIndex index;
    const auto root = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    const std::size_t k =
        std::min(std::clamp<std::size_t>(root, 2, 32), n);
    index.k_ = k;

    KMeansConfig kc;
    kc.k = k;
    kc.maxIterations = kCandidateIndexIterations;
    kc.tolerance = 1e-4; // Rough clusters suffice for pruning.
    kc.restarts = 1;
    kc.seed = kCandidateIndexSeed;
    KMeansResult result = kMeans(points, kc);
    index.assignment_ = std::move(result.assignment);

    // Partner bitmap: for every cluster keep the `kept` farthest
    // clusters by centroid distance (descending; ties broken by the
    // lower cluster id so the bitmap is deterministic).  A cluster's
    // own distance is 0, so it is pruned first — cross-cluster pairs
    // are where asynchronous partners live — except with k = 1 (a
    // one-point population) or keep_fraction = 1, which keep everything.
    index.kept_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(keep_fraction * static_cast<double>(k))));
    index.kept_ = std::min(index.kept_, k);
    index.allowed_.assign(k * k, 0);
    std::vector<std::pair<double, std::size_t>> order(k);
    for (std::size_t ca = 0; ca < k; ++ca) {
        for (std::size_t cb = 0; cb < k; ++cb)
            order[cb] = {-squaredDistance(result.centroids[ca],
                                          result.centroids[cb]),
                         cb};
        std::sort(order.begin(), order.end());
        for (std::size_t r = 0; r < index.kept_; ++r)
            index.allowed_[ca * k + order[r].second] = 1;
    }
    return index;
}

std::vector<Point>
shapePoints(const std::vector<const double *> &rows, std::size_t samples,
            std::size_t buckets)
{
    SOSIM_REQUIRE(samples > 0 && buckets > 0,
                  "shapePoints: empty traces or zero buckets");
    const std::size_t dim = std::min(buckets, samples);
    std::vector<Point> points(rows.size(), Point(dim, 0.0));
    util::parallelFor(rows.size(), [&](std::size_t i) {
        const double *row = rows[i];
        Point &p = points[i];
        double peak = 0.0;
        for (std::size_t b = 0; b < dim; ++b) {
            const std::size_t lo = b * samples / dim;
            const std::size_t hi = (b + 1) * samples / dim;
            double sum = 0.0;
            for (std::size_t s = lo; s < hi; ++s)
                sum += row[s];
            p[b] = sum / static_cast<double>(hi - lo);
            peak = std::max(peak, p[b]);
        }
        if (peak > 0.0)
            for (double &v : p)
                v /= peak;
        // Zero-power traces stay at the origin.
    });
    return points;
}

} // namespace sosim::cluster
