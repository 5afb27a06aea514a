/**
 * @file
 * Unit tests for the cluster module: k-means (+ balanced variant), PCA,
 * and t-SNE.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/kmeans.h"
#include "cluster/pca.h"
#include "cluster/tsne.h"
#include "obs/metrics.h"
#include "util/error.h"
#include "util/rng.h"

namespace {

using namespace sosim::cluster;
using sosim::util::FatalError;

std::vector<Point>
twoBlobs(std::size_t per_blob, unsigned seed)
{
    sosim::util::Rng rng(seed);
    std::vector<Point> points;
    for (std::size_t i = 0; i < per_blob; ++i)
        points.push_back({rng.normal(0.0, 0.1), rng.normal(0.0, 0.1)});
    for (std::size_t i = 0; i < per_blob; ++i)
        points.push_back({rng.normal(5.0, 0.1), rng.normal(5.0, 0.1)});
    return points;
}

TEST(SquaredDistance, BasicsAndValidation)
{
    EXPECT_DOUBLE_EQ(squaredDistance({0.0, 0.0}, {3.0, 4.0}), 25.0);
    EXPECT_DOUBLE_EQ(squaredDistance({1.0}, {1.0}), 0.0);
    EXPECT_THROW(squaredDistance({1.0}, {1.0, 2.0}), FatalError);
}

TEST(KMeans, SeparatesTwoBlobs)
{
    const auto points = twoBlobs(20, 1);
    KMeansConfig config;
    config.k = 2;
    const auto result = kMeans(points, config);
    ASSERT_EQ(result.assignment.size(), points.size());
    // All first-blob points share one label, all second-blob the other.
    const auto label0 = result.assignment[0];
    for (std::size_t i = 0; i < 20; ++i)
        EXPECT_EQ(result.assignment[i], label0);
    const auto label1 = result.assignment[20];
    EXPECT_NE(label0, label1);
    for (std::size_t i = 20; i < 40; ++i)
        EXPECT_EQ(result.assignment[i], label1);
    EXPECT_GT(result.iterations, 0);
}

TEST(KMeans, SingleClusterCentroidIsMean)
{
    std::vector<Point> points = {{0.0, 0.0}, {2.0, 0.0}, {1.0, 3.0}};
    KMeansConfig config;
    config.k = 1;
    const auto result = kMeans(points, config);
    ASSERT_EQ(result.centroids.size(), 1u);
    EXPECT_NEAR(result.centroids[0][0], 1.0, 1e-9);
    EXPECT_NEAR(result.centroids[0][1], 1.0, 1e-9);
}

TEST(KMeans, KEqualsNGivesZeroInertia)
{
    std::vector<Point> points = {{0.0}, {1.0}, {2.0}, {5.0}};
    KMeansConfig config;
    config.k = 4;
    const auto result = kMeans(points, config);
    EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, DeterministicForFixedSeed)
{
    const auto points = twoBlobs(15, 2);
    KMeansConfig config;
    config.k = 4;
    config.seed = 99;
    const auto a = kMeans(points, config);
    const auto b = kMeans(points, config);
    EXPECT_EQ(a.assignment, b.assignment);
    EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeans, ValidatesInput)
{
    std::vector<Point> points = {{1.0}, {2.0}};
    KMeansConfig config;
    config.k = 3;
    EXPECT_THROW(kMeans(points, config), FatalError); // k > n
    config.k = 0;
    EXPECT_THROW(kMeans(points, config), FatalError);
    config.k = 1;
    EXPECT_THROW(kMeans({}, config), FatalError);
    std::vector<Point> ragged = {{1.0}, {1.0, 2.0}};
    EXPECT_THROW(kMeans(ragged, config), FatalError);
    // A non-finite coordinate makes every restart's inertia non-finite;
    // the error must name the point instead of returning no clustering.
    std::vector<Point> with_nan = {{1.0, 2.0}, {3.0, NAN}, {5.0, 6.0}};
    try {
        kMeans(with_nan, config);
        ADD_FAILURE() << "kMeans accepted a NaN coordinate";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("point 1 has a non-finite"),
                  std::string::npos)
            << e.what();
    }
    std::vector<Point> with_inf = {{1.0}, {INFINITY}};
    EXPECT_THROW(kMeans(with_inf, config), FatalError);
}

TEST(KMeans, HandlesDuplicatePoints)
{
    std::vector<Point> points(10, Point{1.0, 1.0});
    KMeansConfig config;
    config.k = 3;
    const auto result = kMeans(points, config);
    EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(KMeans, ClusterSizesCountsAssignment)
{
    const auto sizes = clusterSizes({0, 1, 1, 2, 1}, 3);
    EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 3, 1}));
    EXPECT_THROW(clusterSizes({5}, 3), FatalError);
}

TEST(KMeansBalance, EqualizesSizesWithinOne)
{
    // A lopsided distribution: 30 points near origin, 2 far away.
    sosim::util::Rng rng(3);
    std::vector<Point> points;
    for (int i = 0; i < 30; ++i)
        points.push_back({rng.normal(0.0, 0.2)});
    points.push_back({100.0});
    points.push_back({101.0});

    KMeansConfig config;
    config.k = 4;
    auto result = kMeans(points, config);
    equalizeClusterSizes(points, result);
    const auto sizes = clusterSizes(result.assignment, 4);
    const auto [min_it, max_it] =
        std::minmax_element(sizes.begin(), sizes.end());
    EXPECT_LE(*max_it - *min_it, 1u);
    // Every point still assigned to a valid cluster.
    for (const auto c : result.assignment)
        EXPECT_LT(c, 4u);
}

TEST(KMeansBalance, NoopForSingleCluster)
{
    std::vector<Point> points = {{1.0}, {2.0}};
    KMeansConfig config;
    config.k = 1;
    auto result = kMeans(points, config);
    const auto before = result.assignment;
    equalizeClusterSizes(points, result);
    EXPECT_EQ(result.assignment, before);
}

TEST(KMeansBalance, PreservesTotalCount)
{
    const auto points = twoBlobs(13, 4); // 26 points.
    KMeansConfig config;
    config.k = 4;
    auto result = kMeans(points, config);
    equalizeClusterSizes(points, result);
    const auto sizes = clusterSizes(result.assignment, 4);
    std::size_t total = 0;
    for (const auto s : sizes)
        total += s;
    EXPECT_EQ(total, points.size());
}

/**
 * The size balancing as a plain rescan, the oracle for
 * equalizeClusterSizes: for every move, scan every point of the source
 * against every under-full destination in (point, destination) order
 * and keep the first strict minimum of the added inertia.  O(n·k) per
 * move.
 */
void
equalizeByScan(const std::vector<Point> &points, KMeansResult &result)
{
    const std::size_t n = points.size();
    const std::size_t k = result.centroids.size();
    if (k <= 1)
        return;

    auto sizes = clusterSizes(result.assignment, k);
    const std::size_t base = n / k;
    const std::size_t extra = n % k;
    auto target_of = [&](std::size_t c) { return base + (c < extra); };

    for (std::size_t c = 0; c < k; ++c) {
        while (sizes[c] > target_of(c)) {
            double best_cost = std::numeric_limits<double>::max();
            std::size_t best_point = n, best_dst = k;
            for (std::size_t i = 0; i < n; ++i) {
                if (result.assignment[i] != c)
                    continue;
                for (std::size_t dst = 0; dst < k; ++dst) {
                    if (dst == c || sizes[dst] >= target_of(dst))
                        continue;
                    const double cost =
                        squaredDistance(points[i], result.centroids[dst]) -
                        squaredDistance(points[i], result.centroids[c]);
                    if (cost < best_cost) {
                        best_cost = cost;
                        best_point = i;
                        best_dst = dst;
                    }
                }
            }
            ASSERT_LT(best_point, n) << "no destination found";
            result.assignment[best_point] = best_dst;
            --sizes[c];
            ++sizes[best_dst];
        }
    }

    const std::size_t dim = points.front().size();
    std::vector<Point> sums(k, Point(dim, 0.0));
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = result.assignment[i];
        ++counts[c];
        for (std::size_t d = 0; d < dim; ++d)
            sums[c][d] += points[i][d];
    }
    for (std::size_t c = 0; c < k; ++c) {
        if (counts[c] == 0)
            continue;
        for (std::size_t d = 0; d < dim; ++d)
            result.centroids[c][d] =
                sums[c][d] / static_cast<double>(counts[c]);
    }
    double inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i)
        inertia += squaredDistance(points[i],
                                   result.centroids[result.assignment[i]]);
    result.inertia = inertia;
}

std::uint64_t
bitsOf(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

std::size_t
draw(sosim::util::Rng &rng, std::size_t lo, std::size_t hi)
{
    return static_cast<std::size_t>(rng.uniformInt(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
}

TEST(KMeansBalance, MatchesRescanOracle)
{
    // Three point shapes (continuous, a small integer grid, a few
    // distinct points repeated) times three starts (a k-means
    // clustering, everything in cluster 0, everything in cluster k-1).
    // Grid and repeated points give equal costs, so the tie rule is
    // exercised; lopsided starts take centroids from the points, which
    // makes grid costs integers and ties across destinations common.
    for (unsigned seed = 0; seed < 225; ++seed) {
        sosim::util::Rng rng(7000 + seed);
        const std::size_t k = draw(rng, 2, 40);
        const std::size_t n = draw(rng, k, 600);
        const std::size_t dim = draw(rng, 1, 8);
        const unsigned shape = seed % 3;
        const unsigned start = (seed / 3) % 3;

        std::vector<Point> distinct;
        if (shape == 2)
            for (std::size_t j = draw(rng, 1, 6); j > 0; --j) {
                distinct.emplace_back();
                for (std::size_t d = 0; d < dim; ++d)
                    distinct.back().push_back(
                        static_cast<double>(draw(rng, 0, 9)));
            }
        std::vector<Point> points(n);
        for (auto &p : points) {
            if (shape == 2) {
                p = distinct[draw(rng, 0, distinct.size() - 1)];
                continue;
            }
            for (std::size_t d = 0; d < dim; ++d)
                p.push_back(shape == 0
                                ? rng.normal(0.0, 3.0)
                                : static_cast<double>(draw(rng, 0, 3)));
        }

        KMeansResult input;
        if (start == 0) {
            KMeansConfig config;
            config.k = k;
            config.seed = seed;
            config.restarts = 1;
            config.maxIterations = 10;
            input = kMeans(points, config);
        } else {
            input.assignment.assign(n, start == 1 ? 0 : k - 1);
            for (std::size_t c = 0; c < k; ++c)
                input.centroids.push_back(points[draw(rng, 0, n - 1)]);
        }

        KMeansResult heap = input, scan = input;
        equalizeClusterSizes(points, heap);
        equalizeByScan(points, scan);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", k " +
                     std::to_string(k) + ", n " + std::to_string(n) +
                     ", dim " + std::to_string(dim));
        ASSERT_EQ(heap.assignment, scan.assignment);
        for (std::size_t c = 0; c < k; ++c)
            for (std::size_t d = 0; d < dim; ++d)
                ASSERT_EQ(bitsOf(heap.centroids[c][d]),
                          bitsOf(scan.centroids[c][d]));
        ASSERT_EQ(bitsOf(heap.inertia), bitsOf(scan.inertia));
    }
}

TEST(KMeansBalance, BreaksTiesByPointThenDestination)
{
    // Three identical points in cluster 0; clusters 1 and 2 are equally
    // far, so every move costs the same.  The lowest point goes first,
    // to the lowest under-full destination.
    const std::vector<Point> points = {{0.0}, {0.0}, {0.0}};
    KMeansResult result;
    result.assignment = {0, 0, 0};
    result.centroids = {{0.0}, {1.0}, {-1.0}};
    equalizeClusterSizes(points, result);
    EXPECT_EQ(result.assignment, (std::vector<std::size_t>{1, 2, 0}));
}

TEST(KMeansBalance, CandidatesGrowWithPairsNotMovesTimesPairs)
{
    // Everything starts in cluster 0, the worst case for the old
    // per-move rescan (about moves·n·(k−1) distance pairs).  Counted,
    // not timed, so the verdict is the same on any machine.
    constexpr std::size_t n = 4096, k = 32;
    sosim::util::Rng rng(11);
    std::vector<Point> points(n);
    for (auto &p : points)
        p = {rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    KMeansResult result;
    result.assignment.assign(n, 0);
    for (std::size_t c = 0; c < k; ++c)
        result.centroids.push_back(points[c * 97]);

    auto &moves = sosim::obs::registry().counter("cluster.equalize.moves");
    auto &candidates =
        sosim::obs::registry().counter("cluster.equalize.candidates");
    const auto moves0 = moves.value();
    const auto candidates0 = candidates.value();
    equalizeClusterSizes(points, result);
    EXPECT_EQ(moves.value() - moves0, n - n / k); // n - target(0)
    EXPECT_LE(candidates.value() - candidates0, n * (k - 1));
    const auto sizes = clusterSizes(result.assignment, k);
    EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), n / k);
}

TEST(KMeansBalance, RejectsEmptyPoints)
{
    KMeansResult result;
    result.centroids = {{0.0}, {1.0}};
    EXPECT_THROW(equalizeClusterSizes({}, result), FatalError);
}

TEST(KMeansBalance, RejectsCentroidDimensionMismatch)
{
    const std::vector<Point> points = {{0.0, 0.0}, {1.0, 1.0}};
    KMeansResult result;
    result.assignment = {0, 0};
    result.centroids = {{0.0, 0.0}, {1.0}};
    EXPECT_THROW(equalizeClusterSizes(points, result), FatalError);
}

TEST(KMeansBalance, RejectsNonFinitePoint)
{
    const std::vector<Point> points = {{0.0}, {NAN}};
    KMeansResult result;
    result.assignment = {0, 0};
    result.centroids = {{0.0}, {1.0}};
    try {
        equalizeClusterSizes(points, result);
        ADD_FAILURE() << "equalizeClusterSizes accepted a NaN coordinate";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("point 1 has a non-finite"),
                  std::string::npos)
            << e.what();
    }
}

TEST(KMeansBalance, RejectsNonFiniteCentroid)
{
    const std::vector<Point> points = {{0.0}, {1.0}};
    KMeansResult result;
    result.assignment = {0, 0};
    result.centroids = {{0.0}, {INFINITY}};
    EXPECT_THROW(equalizeClusterSizes(points, result), FatalError);
}

TEST(KMeansBalance, RejectsOverflowingMoveCost)
{
    // Finite coordinates whose squared distance overflows to infinity.
    const std::vector<Point> points = {{0.0}, {1.0}};
    KMeansResult result;
    result.assignment = {0, 0};
    result.centroids = {{0.0}, {1e300}};
    EXPECT_THROW(equalizeClusterSizes(points, result), FatalError);
}

TEST(Pca, RecoversDominantDirection)
{
    // Points spread along the (1, 1) diagonal.
    sosim::util::Rng rng(5);
    std::vector<Point> points;
    for (int i = 0; i < 200; ++i) {
        const double t = rng.normal(0.0, 3.0);
        const double noise = rng.normal(0.0, 0.05);
        points.push_back({t + noise, t - noise});
    }
    const auto result = pca(points, 1);
    ASSERT_EQ(result.components.size(), 1u);
    const auto &c = result.components[0];
    // Direction is (1,1)/sqrt(2) up to sign.
    EXPECT_NEAR(std::abs(c[0]), std::sqrt(0.5), 0.05);
    EXPECT_NEAR(std::abs(c[1]), std::sqrt(0.5), 0.05);
    EXPECT_GT(result.explainedVariance[0], 1.0);
}

TEST(Pca, ComponentsAreOrthonormal)
{
    sosim::util::Rng rng(6);
    std::vector<Point> points;
    for (int i = 0; i < 100; ++i)
        points.push_back({rng.normal(0, 2), rng.normal(0, 1),
                          rng.normal(0, 0.5)});
    const auto result = pca(points, 3);
    for (std::size_t a = 0; a < 3; ++a) {
        double norm = 0.0;
        for (const auto x : result.components[a])
            norm += x * x;
        EXPECT_NEAR(norm, 1.0, 1e-6);
        for (std::size_t b = a + 1; b < 3; ++b) {
            double dot = 0.0;
            for (std::size_t d = 0; d < 3; ++d)
                dot += result.components[a][d] * result.components[b][d];
            EXPECT_NEAR(dot, 0.0, 1e-4);
        }
    }
    // Variance is sorted descending.
    EXPECT_GE(result.explainedVariance[0],
              result.explainedVariance[1] - 1e-9);
    EXPECT_GE(result.explainedVariance[1],
              result.explainedVariance[2] - 1e-9);
}

TEST(Pca, ProjectionDimensionsAndValidation)
{
    std::vector<Point> points = {{1.0, 2.0}, {3.0, 4.0}, {5.0, 7.0}};
    const auto result = pca(points, 2);
    EXPECT_EQ(result.projected.size(), 3u);
    EXPECT_EQ(result.projected[0].size(), 2u);
    EXPECT_THROW(pca(points, 3), FatalError);
    EXPECT_THROW(pca(points, 0), FatalError);
    EXPECT_THROW(pca({}, 1), FatalError);
}

TEST(Tsne, KeepsClustersSeparated)
{
    const auto points = twoBlobs(15, 7);
    TsneConfig config;
    config.iterations = 400;
    config.perplexity = 8.0;
    const auto embedded = tsne(points, config);
    ASSERT_EQ(embedded.size(), points.size());

    // Mean intra-blob distance must be far below the inter-blob distance.
    auto mean_dist = [&](std::size_t a_begin, std::size_t a_end,
                         std::size_t b_begin, std::size_t b_end) {
        double acc = 0.0;
        int count = 0;
        for (std::size_t i = a_begin; i < a_end; ++i)
            for (std::size_t j = b_begin; j < b_end; ++j) {
                if (i == j)
                    continue;
                acc += std::sqrt(squaredDistance(embedded[i], embedded[j]));
                ++count;
            }
        return acc / count;
    };
    const double intra = (mean_dist(0, 15, 0, 15) +
                          mean_dist(15, 30, 15, 30)) / 2.0;
    const double inter = mean_dist(0, 15, 15, 30);
    EXPECT_GT(inter, 2.0 * intra);
}

TEST(Tsne, OutputHasRequestedDimensions)
{
    const auto points = twoBlobs(5, 8);
    TsneConfig config;
    config.iterations = 20;
    config.outputDims = 2;
    const auto embedded = tsne(points, config);
    for (const auto &p : embedded)
        EXPECT_EQ(p.size(), 2u);
}

TEST(Tsne, ValidatesInput)
{
    std::vector<Point> tiny = {{1.0}, {2.0}};
    EXPECT_THROW(tsne(tiny, {}), FatalError);
    std::vector<Point> ragged = {{1.0}, {2.0}, {3.0}, {1.0, 2.0}};
    EXPECT_THROW(tsne(ragged, {}), FatalError);
}

TEST(Tsne, DeterministicForFixedSeed)
{
    const auto points = twoBlobs(6, 9);
    TsneConfig config;
    config.iterations = 30;
    const auto a = tsne(points, config);
    const auto b = tsne(points, config);
    for (std::size_t i = 0; i < a.size(); ++i)
        for (std::size_t d = 0; d < a[i].size(); ++d)
            EXPECT_DOUBLE_EQ(a[i][d], b[i][d]);
}

} // namespace
