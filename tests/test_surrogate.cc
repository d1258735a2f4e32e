// Tests for the ridge-ensemble performance surrogate (ml/surrogate).

#include <cmath>

#include <gtest/gtest.h>

#include "decoder_fuzz.hh"
#include "ml/surrogate.hh"

using namespace adaptsim;

namespace
{

/** Deterministic synthetic training set: y = 0.5 + 2 x0 - x1, with a
 *  third constant column the standardiser must neutralise. */
ml::Matrix
makeFeatures(std::size_t n)
{
    ml::Matrix x(n, 3);
    for (std::size_t i = 0; i < n; ++i) {
        // Low-discrepancy-ish deterministic grid, no RNG needed.
        x(i, 0) = 0.1 * static_cast<double>(i % 17);
        x(i, 1) = 0.05 * static_cast<double>((i * 7) % 23);
        x(i, 2) = 3.0;   // constant column
    }
    return x;
}

std::vector<double>
linearTargets(const ml::Matrix &x)
{
    std::vector<double> y(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i)
        y[i] = 0.5 + 2.0 * x(i, 0) - x(i, 1);
    return y;
}

} // namespace

TEST(Surrogate, RecoversLinearRelation)
{
    const auto x = makeFeatures(64);
    const auto y = linearTargets(x);
    std::vector<double> energy(x.rows(), 2e-10);

    ml::SurrogateOptions opt;
    opt.lambda = 1e-6;   // near-interpolating on clean data
    const auto s = ml::Surrogate::fit(x, y, energy, opt);
    ASSERT_TRUE(s.trained());
    EXPECT_EQ(s.featureDim(), 3u);
    EXPECT_EQ(s.sampleCount(), 64u);

    for (std::size_t i = 0; i < x.rows(); ++i) {
        const std::vector<double> q{x(i, 0), x(i, 1), x(i, 2)};
        const auto p = s.predict(q);
        EXPECT_NEAR(p.primary, y[i], 1e-3);
        EXPECT_NEAR(p.energyPerInst, 2e-10, 1e-12);
    }
}

TEST(Surrogate, PredictionsAreDeterministic)
{
    const auto x = makeFeatures(40);
    const auto y = linearTargets(x);
    const std::vector<double> energy(x.rows(), 1e-10);

    const auto a = ml::Surrogate::fit(x, y, energy);
    const auto b = ml::Surrogate::fit(x, y, energy);
    const std::vector<double> q{0.77, 0.33, 3.0};
    const auto pa = a.predict(q);
    const auto pb = b.predict(q);
    EXPECT_EQ(pa.primary, pb.primary);
    EXPECT_EQ(pa.energyPerInst, pb.energyPerInst);
    EXPECT_EQ(pa.uncertainty, pb.uncertainty);
}

TEST(Surrogate, SerializeRoundTripsBitExactly)
{
    const auto x = makeFeatures(48);
    const auto y = linearTargets(x);
    const std::vector<double> energy(x.rows(), 3e-10);
    const auto s = ml::Surrogate::fit(x, y, energy);

    const std::string text = s.serialize();
    ml::Surrogate restored;
    ASSERT_TRUE(ml::Surrogate::deserialize(text, restored));
    EXPECT_EQ(restored.featureDim(), s.featureDim());
    EXPECT_EQ(restored.sampleCount(), s.sampleCount());

    // Hex-float text must reproduce bit-identical predictions.
    for (double a = 0.0; a < 1.7; a += 0.31) {
        const std::vector<double> q{a, 1.0 - a, 3.0};
        const auto p0 = s.predict(q);
        const auto p1 = restored.predict(q);
        EXPECT_EQ(p0.primary, p1.primary);
        EXPECT_EQ(p0.energyPerInst, p1.energyPerInst);
        EXPECT_EQ(p0.uncertainty, p1.uncertainty);
    }
}

TEST(Surrogate, DeserializeRejectsMalformedInput)
{
    ml::Surrogate out;
    EXPECT_FALSE(ml::Surrogate::deserialize("", out));
    EXPECT_FALSE(ml::Surrogate::deserialize("not-a-surrogate 1", out));
    EXPECT_FALSE(
        ml::Surrogate::deserialize("adaptsim-surrogate 99\n", out));
    // Truncated body: header parses, weights missing.
    EXPECT_FALSE(ml::Surrogate::deserialize(
        "adaptsim-surrogate 1\n3 10 4 0x1p-4\n1 2 3\n", out));
}

TEST(Surrogate, HugeCountsAreRejectedWithoutThrowing)
{
    // dim and folds come from the file; neither may size anything
    // before the values behind them have been read.
    ml::Surrogate out;
    EXPECT_NO_THROW(EXPECT_FALSE(ml::Surrogate::deserialize(
        "adaptsim-surrogate 1 4000000000000000000 1 1 0x0p+0", out)));
    EXPECT_NO_THROW(EXPECT_FALSE(ml::Surrogate::deserialize(
        "adaptsim-surrogate 1\n1 1 4000000000000000000 0x0p+0\n"
        "0\n1\n0 0\n0 0\n",
        out)));
}

TEST(Surrogate, EveryTruncationIsRejected)
{
    const auto x = makeFeatures(32);
    const auto y = linearTargets(x);
    const std::vector<double> energy(x.rows(), 3e-10);
    const std::string text =
        ml::Surrogate::fit(x, y, energy).serialize();
    test::forEachTruncation(text, [](const std::string &prefix) {
        ml::Surrogate out;
        EXPECT_NO_THROW(
            EXPECT_FALSE(ml::Surrogate::deserialize(prefix, out))
            << "truncated to " << prefix.size());
    });
}

TEST(Surrogate, UncertaintyGrowsOffDistribution)
{
    const auto x = makeFeatures(64);
    const auto y = linearTargets(x);
    const std::vector<double> energy(x.rows(), 1e-10);
    const auto s = ml::Surrogate::fit(x, y, energy);

    // In-distribution query vs one far outside the training range.
    const std::vector<double> in{0.8, 0.55, 3.0};
    const std::vector<double> far{25.0, -30.0, 3.0};
    EXPECT_LT(s.predict(in).uncertainty,
              s.predict(far).uncertainty);
}

TEST(Surrogate, UntrainedReportsUntrained)
{
    const ml::Surrogate s;
    EXPECT_FALSE(s.trained());
    EXPECT_EQ(s.featureDim(), 0u);
}
