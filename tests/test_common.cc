/**
 * @file
 * Unit tests for the common substrate: logging, RNG, log-space
 * combinatorics and statistics containers.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include <cmath>

#include "common/logging.hh"
#include "common/options.hh"
#include "common/mathutil.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace srs
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, FatalMessagePreserved)
{
    try {
        fatal("value=", 7, " name=", "x");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value=7 name=x");
    }
}

TEST(Logging, QuietFlagRoundTrips)
{
    setQuietLogging(true);
    EXPECT_TRUE(quietLogging());
    setQuietLogging(false);
    EXPECT_FALSE(quietLogging());
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues)
{
    Rng rng(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBelow(8)];
    for (int count : seen)
        EXPECT_GT(count, 800); // each bucket near 1000
}

TEST(Rng, NextRangeInclusive)
{
    Rng rng(9);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.nextRange(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        sawLo |= v == 3;
        sawHi |= v == 5;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, NextDoubleUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double v = rng.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 50000; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, PoissonMeanMatches)
{
    Rng rng(17);
    double sum = 0.0;
    const double lambda = 4.2;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.nextPoisson(lambda));
    EXPECT_NEAR(sum / 20000.0, lambda, 0.1);
}

TEST(Rng, PoissonZeroLambda)
{
    Rng rng(19);
    EXPECT_EQ(rng.nextPoisson(0.0), 0u);
}

TEST(Rng, BinomialSmallExact)
{
    Rng rng(23);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.nextBinomial(20, 0.25));
    EXPECT_NEAR(sum / 20000.0, 5.0, 0.1);
}

TEST(Rng, BinomialPoissonRegimeMean)
{
    Rng rng(29);
    // The random-guess landing regime: huge n, tiny p.
    const std::uint64_t n = 100000;
    const double p = 1.0 / 131072.0;
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.nextBinomial(n, p));
    EXPECT_NEAR(sum / 20000.0, n * p, 0.02);
}

TEST(Rng, BinomialEdgeCases)
{
    Rng rng(31);
    EXPECT_EQ(rng.nextBinomial(0, 0.5), 0u);
    EXPECT_EQ(rng.nextBinomial(10, 0.0), 0u);
    EXPECT_EQ(rng.nextBinomial(10, 1.0), 10u);
}

TEST(Rng, GeometricMeanMatches)
{
    Rng rng(37);
    const double p = 0.02;
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    EXPECT_NEAR(sum / 20000.0, 1.0 / p, 2.0);
}

TEST(Rng, GeometricCertainty)
{
    Rng rng(41);
    EXPECT_EQ(rng.nextGeometric(1.0), 1u);
}

TEST(MathUtil, LogFactorialSmallValues)
{
    EXPECT_NEAR(logFactorial(0), 0.0, 1e-12);
    EXPECT_NEAR(logFactorial(1), 0.0, 1e-12);
    EXPECT_NEAR(logFactorial(5), std::log(120.0), 1e-9);
}

TEST(MathUtil, BinomialCoeffMatchesPascal)
{
    EXPECT_NEAR(std::exp(logBinomialCoeff(5, 2)), 10.0, 1e-6);
    EXPECT_NEAR(std::exp(logBinomialCoeff(10, 5)), 252.0, 1e-6);
    EXPECT_EQ(logBinomialCoeff(3, 5),
              -std::numeric_limits<double>::infinity());
}

TEST(MathUtil, BinomialPmfSumsToOne)
{
    double total = 0.0;
    for (std::uint64_t k = 0; k <= 30; ++k)
        total += binomialPmf(30, k, 0.37);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MathUtil, BinomialPmfDegenerate)
{
    EXPECT_DOUBLE_EQ(binomialPmf(10, 0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 3, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 10, 1.0), 1.0);
    EXPECT_DOUBLE_EQ(binomialPmf(10, 12, 0.5), 0.0);
}

TEST(MathUtil, BinomialSfMatchesDirectSum)
{
    const std::uint64_t n = 40;
    const double p = 0.2;
    for (std::uint64_t k : {0ULL, 1ULL, 5ULL, 12ULL}) {
        double direct = 0.0;
        for (std::uint64_t i = k; i <= n; ++i)
            direct += binomialPmf(n, i, p);
        EXPECT_NEAR(binomialSf(n, k, p), direct, 1e-9);
    }
}

TEST(MathUtil, BinomialPmfAttackRegime)
{
    // The paper's Eq. 8 at T_RH 4800 / N 1100: G ~ 400 guesses over
    // 128K rows needing k = 2 hits; probability ~ (G/R)^2 / 2.
    const double p = binomialPmf(400, 2, 1.0 / 131072.0);
    const double lambda = 400.0 / 131072.0;
    const double poissonApprox = lambda * lambda / 2.0 * std::exp(-lambda);
    EXPECT_NEAR(p / poissonApprox, 1.0, 0.01);
}

TEST(MathUtil, PoissonPmfSums)
{
    double total = 0.0;
    for (std::uint64_t k = 0; k < 100; ++k)
        total += poissonPmf(k, 6.5);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(MathUtil, PoissonSfTinyTail)
{
    // Deep-tail survival must stay positive and finite.
    const double sf = poissonSf(10, 0.006);
    EXPECT_GT(sf, 0.0);
    EXPECT_LT(sf, 1e-15);
}

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(10, 3), 4u);
    EXPECT_EQ(ceilDiv(9, 3), 3u);
    EXPECT_EQ(ceilDiv(1, 100), 1u);
}

TEST(MathUtil, PowerOfTwoHelpers)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
    EXPECT_EQ(nextPowerOfTwo(1), 1u);
    EXPECT_EQ(nextPowerOfTwo(5), 8u);
    EXPECT_EQ(nextPowerOfTwo(4096), 4096u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(131072), 17u);
}

TEST(LatencyHistogram, SmallValuesHaveExactBuckets)
{
    // Values below 16 land in unit-wide buckets, so every quantile
    // of a small-value stream is exact.
    LatencyHistogram h;
    for (std::uint64_t v : {1, 1, 2, 3, 4, 4, 4, 5, 9, 15})
        h.add(v);
    EXPECT_EQ(h.total(), 10u);
    EXPECT_EQ(h.quantilePermille(100), 1u);
    EXPECT_EQ(h.quantilePermille(500), 4u);
    EXPECT_EQ(h.quantilePermille(900), 9u);
    EXPECT_EQ(h.quantilePermille(990), 15u);
    EXPECT_EQ(h.quantilePermille(999), 15u);
    EXPECT_EQ(h.quantilePermille(1000), 15u);
}

TEST(LatencyHistogram, BucketBoundariesAtTheOctaveEdges)
{
    // The exact range ends at 15; 16 opens the first sub-bucketed
    // octave, whose 8 buckets cover [16,17]..[30,31].
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(15), 15u);
    EXPECT_EQ(LatencyHistogram::bucketOf(16), 16u);
    EXPECT_EQ(LatencyHistogram::bucketOf(17), 16u);
    EXPECT_EQ(LatencyHistogram::bucketOf(18), 17u);
    EXPECT_EQ(LatencyHistogram::bucketOf(31), 23u);
    EXPECT_EQ(LatencyHistogram::bucketOf(32), 24u);
    // Every bucket's upper bound maps back into that bucket, and the
    // next value starts the next bucket (the buckets tile the axis).
    for (std::uint32_t b = 0;
         b + 1 < LatencyHistogram::kBucketCount; ++b) {
        const std::uint64_t hi = LatencyHistogram::bucketUpperBound(b);
        EXPECT_EQ(LatencyHistogram::bucketOf(hi), b) << "bucket " << b;
        EXPECT_EQ(LatencyHistogram::bucketOf(hi + 1), b + 1)
            << "bucket " << b;
    }
    EXPECT_EQ(LatencyHistogram::bucketOf(
                  std::numeric_limits<std::uint64_t>::max()),
              LatencyHistogram::kBucketCount - 1);
}

TEST(LatencyHistogram, QuantilesReportBucketUpperBounds)
{
    // Above the exact range a quantile reports its bucket's upper
    // bound — deterministic and conservative (never understates).
    LatencyHistogram h;
    h.add(100, 10);
    const std::uint64_t bound = LatencyHistogram::bucketUpperBound(
        LatencyHistogram::bucketOf(100));
    EXPECT_GE(bound, 100u);
    EXPECT_EQ(h.quantilePermille(500), bound);
    EXPECT_EQ(h.quantilePermille(999), bound);
}

TEST(LatencyHistogram, EmptyIsSafeAndEqualityIsStructural)
{
    LatencyHistogram empty;
    EXPECT_EQ(empty.total(), 0u);
    EXPECT_EQ(empty.quantilePermille(500), 0u);
    LatencyHistogram one;
    one.add(0);
    EXPECT_NE(empty, one);
    EXPECT_EQ(one.quantilePermille(500), 0u);
}

TEST(StatSet, IncSetGetDump)
{
    StatSet s;
    s.inc("a");
    s.inc("a", 4);
    s.set("b", 9);
    EXPECT_EQ(s.get("a"), 5u);
    EXPECT_EQ(s.get("b"), 9u);
    EXPECT_EQ(s.get("missing"), 0u);
    EXPECT_NE(s.dump().find("a = 5"), std::string::npos);
}


// ---------------------------------------------------------------------
// Options parsing.
// ---------------------------------------------------------------------

TEST(Options, ParsesArgsFlagsAndPositional)
{
    const char *argv[] = {"prog", "perf", "--trh=1200",
                          "--csv", "--rate=3", "extra"};
    Options o = Options::fromArgs(6, argv);
    ASSERT_EQ(o.positional().size(), 2u);
    EXPECT_EQ(o.positional()[0], "perf");
    EXPECT_EQ(o.positional()[1], "extra");
    EXPECT_EQ(o.getUint("trh", 0), 1200u);
    EXPECT_EQ(o.getUint("rate", 0), 3u);
    EXPECT_TRUE(o.getBool("csv", false));
    EXPECT_EQ(o.getString("workload", "gcc"), "gcc");
}

TEST(Options, TypedGetterErrors)
{
    const char *argv[] = {"prog", "--trh=abc", "--p=x", "--b=maybe"};
    Options o = Options::fromArgs(4, argv);
    EXPECT_THROW(o.getUint("trh", 0), FatalError);
    EXPECT_THROW(o.getDouble("p", 0.0), FatalError);
    EXPECT_THROW(o.getBool("b", false), FatalError);
}

TEST(Options, RejectUnknownCatchesTypos)
{
    const char *argv[] = {"prog", "--thr=1200"};
    Options o = Options::fromArgs(2, argv);
    o.getUint("trh", 4800); // the real option name
    EXPECT_THROW(o.rejectUnknown(), FatalError);
}

TEST(Options, RejectUnknownPassesWhenAllConsumed)
{
    const char *argv[] = {"prog", "--trh=1200"};
    Options o = Options::fromArgs(2, argv);
    o.getUint("trh", 4800);
    EXPECT_NO_THROW(o.rejectUnknown());
}

TEST(Options, FileParsing)
{
    const std::string path = ::testing::TempDir() + "srs_opts.cfg";
    {
        std::ofstream out(path);
        out << "# experiment config\n"
            << "trh = 2400\n"
            << "workload=hmmer   # inline comment\n"
            << "\n"
            << "pin = true\n";
    }
    Options o = Options::fromFile(path);
    EXPECT_EQ(o.getUint("trh", 0), 2400u);
    EXPECT_EQ(o.getString("workload", ""), "hmmer");
    EXPECT_TRUE(o.getBool("pin", false));
    std::remove(path.c_str());
}

TEST(Options, FileErrors)
{
    EXPECT_THROW(Options::fromFile("/nonexistent/x.cfg"), FatalError);
    const std::string path = ::testing::TempDir() + "srs_bad.cfg";
    {
        std::ofstream out(path);
        out << "just a word\n";
    }
    EXPECT_THROW(Options::fromFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(Options, SetOverrides)
{
    Options o;
    o.set("trh", "512");
    EXPECT_EQ(o.getUint("trh", 0), 512u);
    o.set("trh", "1200");
    EXPECT_EQ(o.getUint("trh", 0), 1200u);
}

} // namespace
} // namespace srs
