/**
 * @file
 * Unit tests for util: Rng determinism and distributions, ZipfSampler,
 * Table formatting, and the error macros.
 */

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using sosim::util::FatalError;
using sosim::util::LogicError;
using sosim::util::Rng;
using sosim::util::Table;
using sosim::util::ZipfSampler;

TEST(Error, RequireThrowsFatalWithMessage)
{
    try {
        SOSIM_REQUIRE(false, "bad user input");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("bad user input"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("fatal"), std::string::npos);
    }
}

TEST(Error, AssertThrowsLogicError)
{
    EXPECT_THROW(SOSIM_ASSERT(false, "invariant"), LogicError);
    EXPECT_NO_THROW(SOSIM_ASSERT(true, "invariant"));
    EXPECT_NO_THROW(SOSIM_REQUIRE(true, "ok"));
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform())
            ++equal;
    EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= (v == 0);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.uniformInt(3, 1), FatalError);
}

TEST(Rng, NormalHasRequestedMoments)
{
    Rng rng(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(5.0, 2.0);
        sum += x;
        sum2 += x * x;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 5.0, 0.1);
    EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, ZeroStddevReturnsTheMeanAndKeepsTheStream)
{
    Rng zero(13);
    Rng unit(13);
    EXPECT_EQ(zero.normal(3.5, 0.0), 3.5);
    unit.normal(3.5, 1.0);
    // The zero-width draw advances the engine exactly as a unit one.
    EXPECT_EQ(zero.normal(), unit.normal());
    EXPECT_EQ(zero.uniform(), unit.uniform());

    EXPECT_THROW(zero.normal(0.0, -1.0), FatalError);
    EXPECT_THROW(zero.normal(0.0, std::numeric_limits<double>::infinity()),
                 FatalError);
    EXPECT_THROW(zero.normal(0.0, std::numeric_limits<double>::quiet_NaN()),
                 FatalError);
}

TEST(Rng, ChanceEdgeCases)
{
    Rng rng(3);
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_TRUE(rng.chance(2.0));
}

TEST(Rng, ShuffleIsAPermutation)
{
    Rng rng(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = v;
    rng.shuffle(shuffled);
    auto sorted = shuffled;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, v);
}

TEST(Rng, ForkProducesIndependentStreams)
{
    Rng parent(42);
    Rng child1 = parent.fork();
    Rng child2 = parent.fork();
    // Children differ from each other.
    int equal = 0;
    for (int i = 0; i < 50; ++i)
        if (child1.uniform() == child2.uniform())
            ++equal;
    EXPECT_LT(equal, 3);
    // Forking is deterministic in the parent seed.
    Rng parent2(42);
    Rng child1b = parent2.fork();
    Rng child1a(0); // placeholder to silence unused warnings
    (void)child1a;
    Rng reference = Rng(42).fork();
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(child1b.uniform(), reference.uniform());
}

TEST(Zipf, RejectsBadParameters)
{
    EXPECT_THROW(ZipfSampler(0, 1.0), FatalError);
    EXPECT_THROW(ZipfSampler(5, -0.5), FatalError);
}

TEST(Zipf, ZeroExponentIsUniform)
{
    ZipfSampler z(4, 0.0);
    for (std::size_t r = 0; r < 4; ++r)
        EXPECT_NEAR(z.pmf(r), 0.25, 1e-12);
}

TEST(Zipf, PmfDecreasesWithRank)
{
    ZipfSampler z(10, 1.2);
    for (std::size_t r = 1; r < 10; ++r)
        EXPECT_GT(z.pmf(r - 1), z.pmf(r));
    EXPECT_THROW(z.pmf(10), FatalError);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfSampler z(17, 0.8);
    double total = 0.0;
    for (std::size_t r = 0; r < 17; ++r)
        total += z.pmf(r);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, SamplingMatchesPmf)
{
    ZipfSampler z(5, 1.0);
    Rng rng(13);
    std::vector<int> counts(5, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    for (std::size_t r = 0; r < 5; ++r)
        EXPECT_NEAR(static_cast<double>(counts[r]) / n, z.pmf(r), 0.01);
}

TEST(Zipf, RngConvenienceWrapperInRange)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(rng.zipf(7, 1.1), 7u);
}

TEST(Table, PrintsAlignedColumns)
{
    Table t({"a", "long-header"});
    t.addRow({"x", "1"});
    t.addRow({"yyyy", "2"});
    std::ostringstream os;
    t.print(os);
    const auto out = os.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("long-header"), std::string::npos);
    EXPECT_NE(out.find("yyyy"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvOutputIsCommaSeparated)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsArityMismatchAndEmptyHeader)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
    EXPECT_THROW(Table(std::vector<std::string>{}), FatalError);
}

TEST(Format, FixedAndPercent)
{
    EXPECT_EQ(sosim::util::fmtFixed(3.14159, 2), "3.14");
    EXPECT_EQ(sosim::util::fmtFixed(2.0, 0), "2");
    EXPECT_EQ(sosim::util::fmtPercent(0.131), "13.1%");
    EXPECT_EQ(sosim::util::fmtPercent(-0.05, 0), "-5%");
}

} // namespace
