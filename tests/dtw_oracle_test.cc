// Exact oracle test for the pruned rolling DTW kernel: every thresholded
// evaluation must agree bit-for-bit with the unpruned full-matrix DP
// (DistanceWithPath) — the exact distance when it is within the threshold,
// including a tie at exactly the threshold, and kInfiniteDistance when the
// threshold is one double below it. Runs over the three base distances,
// several Sakoe-Chiba bands, unequal lengths and length-128 random walks,
// reusing one DtwScratch across every shape so stale slots would show.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>

#include "common/prng.h"
#include "dtw/dtw.h"

namespace warpindex {
namespace {

Sequence RandomWalk(Prng* prng, size_t len) {
  Sequence s;
  double v = prng->UniformDouble(1.0, 10.0);
  for (size_t i = 0; i < len; ++i) {
    s.Append(v);
    v += prng->UniformDouble(-0.1, 0.1);
  }
  return s;
}

// A perturbed copy of `s`: close enough that a tolerance near the exact
// distance keeps most cells of the band alive for a while.
Sequence NearCopy(const Sequence& s, Prng* prng) {
  Sequence out;
  for (double v : s.elements()) {
    out.Append(v + prng->UniformDouble(-0.05, 0.05));
  }
  return out;
}

// In-band cells of the full DP over (n, m): the count Distance() reports.
uint64_t InBandCells(const DtwOptions& options, size_t n_in, size_t m_in) {
  const size_t n = std::max(n_in, m_in);
  const size_t m = std::min(n_in, m_in);
  const size_t band = EffectiveSakoeChibaRadius(options, n, m);
  uint64_t cells = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t j_lo = i >= band ? i - band : 0;
    const size_t j_hi = std::min(m - 1, i + band);
    cells += j_hi - j_lo + 1;
  }
  return cells;
}

enum class Model { kLinf, kL1, kL2 };

DtwOptions OptionsFor(Model model, int band) {
  DtwOptions options = model == Model::kLinf ? DtwOptions::Linf()
                       : model == Model::kL1 ? DtwOptions::L1()
                                             : DtwOptions::L2();
  options.band = band;
  return options;
}

class DtwOracleTest
    : public testing::TestWithParam<std::tuple<Model, int>> {
 protected:
  DtwOptions options() const {
    return OptionsFor(std::get<0>(GetParam()), std::get<1>(GetParam()));
  }

  // Checks one pair against the oracle at the exact distance, one double
  // below it and above it, and pins the unthresholded cell count.
  void CheckPair(const Sequence& a, const Sequence& b) {
    const Dtw dtw(options());
    const double exact = dtw.DistanceWithPath(a, b).distance;
    ASSERT_TRUE(std::isfinite(exact));

    const DtwResult full = dtw.Distance(a, b, &scratch_);
    EXPECT_EQ(full.distance, exact);
    EXPECT_EQ(full.cells, InBandCells(options(), a.size(), b.size()));

    EXPECT_EQ(dtw.DistanceWithThreshold(a, b, exact, &scratch_).distance,
              exact);
    EXPECT_EQ(dtw.DistanceWithThreshold(b, a, exact, &scratch_).distance,
              exact);
    if (exact > 0.0) {
      const double below = std::nextafter(exact, 0.0);
      EXPECT_EQ(dtw.DistanceWithThreshold(a, b, below, &scratch_).distance,
                kInfiniteDistance);
    }
    const double above =
        std::nextafter(exact, std::numeric_limits<double>::infinity());
    EXPECT_EQ(dtw.DistanceWithThreshold(a, b, above, &scratch_).distance,
              exact);
    EXPECT_EQ(
        dtw.DistanceWithThreshold(a, b, 2.0 * exact + 1.0, &scratch_).distance,
        exact);
    // Scratch-free evaluation is bit-identical, cells included.
    const DtwResult fresh = dtw.DistanceWithThreshold(a, b, exact);
    const DtwResult reused = dtw.DistanceWithThreshold(a, b, exact, &scratch_);
    EXPECT_EQ(fresh.distance, reused.distance);
    EXPECT_EQ(fresh.cells, reused.cells);
  }

  DtwScratch scratch_;
};

TEST_P(DtwOracleTest, UnequalShortLengthsMatchFullMatrix) {
  Prng prng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = static_cast<size_t>(prng.UniformInt(1, 40));
    const size_t m = static_cast<size_t>(prng.UniformInt(1, 40));
    const Sequence a = RandomWalk(&prng, n);
    const Sequence b = RandomWalk(&prng, m);
    SCOPED_TRACE("trial " + std::to_string(trial));
    CheckPair(a, b);
  }
}

TEST_P(DtwOracleTest, RandomWalkPairsOfLength128MatchFullMatrix) {
  Prng prng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const Sequence a = RandomWalk(&prng, 128);
    const Sequence b =
        trial % 2 == 0 ? NearCopy(a, &prng) : RandomWalk(&prng, 128);
    SCOPED_TRACE("trial " + std::to_string(trial));
    CheckPair(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndBands, DtwOracleTest,
    testing::Combine(testing::Values(Model::kLinf, Model::kL1, Model::kL2),
                     testing::Values(-1, 0, 2, 5)),
    [](const testing::TestParamInfo<DtwOracleTest::ParamType>& info) {
      const Model model = std::get<0>(info.param);
      const int band = std::get<1>(info.param);
      const std::string name = model == Model::kLinf ? "Linf"
                               : model == Model::kL1 ? "L1"
                                                     : "L2";
      return name + (band < 0 ? "Unbanded" : "Band" + std::to_string(band));
    });

// The point of the pruning: a thresholded near pair leaves the band's
// far corners unvisited even when it matches.
TEST(DtwOracleCellsTest, ThresholdedNearPairComputesFewerCellsThanFull) {
  Prng prng(3);
  const Sequence a = RandomWalk(&prng, 128);
  const Sequence b = NearCopy(a, &prng);
  const Dtw dtw(DtwOptions::Linf());
  const double exact = dtw.Distance(a, b).distance;
  const DtwResult pruned = dtw.DistanceWithThreshold(a, b, exact);
  EXPECT_EQ(pruned.distance, exact);
  EXPECT_LT(pruned.cells, uint64_t{128} * 128);
  EXPECT_EQ(dtw.Distance(a, b).cells, uint64_t{128} * 128);
}

}  // namespace
}  // namespace warpindex
