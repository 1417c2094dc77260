// Golden bit-identity pins for the regression-tree fit kernels: node
// histogram scans, the in-place sample partition, split search and the
// boosting residual path, over both node-scan layouts (an in-RAM view
// small enough for direct column scans and an external-memory view large
// enough for the row-ordered record layout).
//
// Every fitted node (feature, bin, threshold and value bits), every gain
// and every `predict_binned` output is folded into an FNV-1a hash by its
// exact bit pattern, so any change in histogram addition order, partition
// order or split tie-breaking changes the hex. The constants were recorded
// before the record layout existed; a mismatch means fitted models moved,
// not that the constants need re-recording.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/integrity.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "ml/gbr.hpp"
#include "ml/tree.hpp"

namespace dfv::ml {
namespace {

struct Hasher {
  std::uint64_t h = kFnvBasis;
  void add(double v) { h = fnv1a64_update(h, &v, sizeof v); }
  void add(std::int64_t v) { h = fnv1a64_update(h, &v, sizeof v); }
  void add(const RegressionTree& t) {
    add(std::int64_t(t.node_count()));
    add(std::int64_t(t.fitted_depth()));
    for (const RegressionTree::Node& nd : t.nodes()) {
      add(std::int64_t(nd.feature));
      add(std::int64_t(nd.bin));
      add(nd.threshold);
      add(nd.value);
      add(std::int64_t(nd.left));
      add(std::int64_t(nd.right));
    }
    for (double g : t.feature_gains()) add(g);
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

/// Target with planted structure on a few features plus noise, so trees
/// split on several features at every depth.
double target(double a, double b, double c, Rng& rng) {
  return 3.0 * a + (b > 0.3 ? 2.0 : -1.0) + a * c + 0.5 * rng.normal();
}

/// 900 x 9 in-RAM matrix: its code columns (8 KB) sit far below any
/// cache-sized threshold.
struct SmallView {
  Matrix x{900, 9};
  std::vector<double> y;
  BinnedDataset data;
  SmallView() {
    Rng rng(77);
    y.resize(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) x(r, c) = rng.normal();
      y[r] = target(x(r, 1), x(r, 4), x(r, 7), rng);
    }
    data = BinnedDataset(x, 24);
  }
};

/// 48000 x 48 external-memory view (2.3 MB of caller-owned feature-major
/// codes): far above any cache-sized threshold even with a quarter of the
/// features masked off. Feature 5 is constant (no edges) and features
/// 10-19 have only four edges, as low-cardinality columns do.
struct LargeView {
  static constexpr std::size_t kRows = 48000, kFeatures = 48;
  std::vector<std::uint8_t> codes;
  std::vector<double> y;
  BinnedDataset data;
  LargeView() {
    Rng rng(91);
    std::vector<std::vector<double>> edges(kFeatures);
    for (std::size_t f = 0; f < kFeatures; ++f) {
      const std::size_t ne = f == 5 ? 0 : (f >= 10 && f < 20) ? 4 : 23;
      for (std::size_t e = 0; e < ne; ++e) edges[f].push_back(double(f) + 0.1 * double(e));
    }
    codes.resize(kRows * kFeatures);
    for (std::size_t f = 0; f < kFeatures; ++f)
      for (std::size_t r = 0; r < kRows; ++r)
        codes[f * kRows + r] = std::uint8_t(rng.uniform_index(edges[f].size() + 1));
    y.resize(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      const auto v = [&](std::size_t f) {
        return double(codes[f * kRows + r]) / double(edges[f].size() + 1);
      };
      y[r] = target(v(3), v(12), v(40), rng);
    }
    data = BinnedDataset(std::move(edges), codes.data(), kRows);
  }
};

const SmallView& small_view() {
  static const SmallView v;
  return v;
}
const LargeView& large_view() {
  static const LargeView v;
  return v;
}

FeatureMask make_mask(std::size_t features, bool masked) {
  FeatureMask mask = FeatureMask::all(features);
  if (masked)
    for (std::size_t f = 0; f < features; f += 4) mask.active[f] = 0;
  return mask;
}

/// Every row but each seventh, in a scrambled order.
std::vector<std::size_t> scrambled_rows(std::size_t n) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < n; ++r)
    if (r % 7 != 3) rows.push_back(r);
  Rng rng(5);
  rng.shuffle(rows);
  return rows;
}

/// Hash of a boosted fit: its importances (summed gain bits) and the
/// ensemble's binned prediction on every `stride`-th row.
std::string gbr_hash(const BinnedDataset& data, std::span<const double> y, bool masked,
                     double subsample, bool explicit_rows, std::size_t stride) {
  GbrParams p;
  p.n_trees = 4;
  p.subsample = subsample;
  p.tree.max_depth = 4;
  p.seed = 0x7ee;
  const FeatureMask mask = make_mask(data.features(), masked);
  GradientBoostedRegressor gbr(p);
  if (explicit_rows)
    gbr.fit(data, y, scrambled_rows(data.rows()), mask);
  else
    gbr.fit(data, y, mask);
  Hasher h;
  for (double v : gbr.feature_importances()) h.add(v);
  for (std::size_t r = 0; r < data.rows(); r += stride) h.add(gbr.predict_binned(data, r));
  return h.hex();
}

/// Hash of one tree fitted the way boosting fits one (a subsample of the
/// row list, residuals against a baseline): its node table, gains, fitted
/// leaves and binned predictions on every `stride`-th row.
std::string tree_hash(const BinnedDataset& data, std::span<const double> y, bool masked,
                      double subsample, bool explicit_rows, std::size_t stride) {
  std::vector<std::size_t> rows;
  if (explicit_rows) {
    rows = scrambled_rows(data.rows());
  } else {
    rows.resize(data.rows());
    for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
  }
  if (subsample < 1.0) {
    Rng rng(11);
    const auto picks =
        rng.sample_without_replacement(rows.size(), std::size_t(subsample * double(rows.size())));
    std::vector<std::size_t> sub(picks.size());
    for (std::size_t k = 0; k < picks.size(); ++k) sub[k] = rows[picks[k]];
    rows = std::move(sub);
  }
  std::vector<double> baseline(data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) baseline[r] = 0.25 * y[r] - 0.5;
  TreeParams p;
  p.max_depth = 4;
  RegressionTree tree;
  tree.fit(data, y, baseline, rows, make_mask(data.features(), masked), p);
  Hasher h;
  h.add(tree);
  for (std::int32_t leaf : tree.fitted_leaves()) h.add(std::int64_t(leaf));
  for (std::size_t r = 0; r < data.rows(); r += stride) h.add(tree.predict_binned(data, r));
  return h.hex();
}

/// Hash of one deeper tree over rows that repeat (sampling with
/// replacement), fitted on plain targets.
std::string repeated_rows_hash(const BinnedDataset& data, std::span<const double> y) {
  Rng rng(13);
  std::vector<std::size_t> rows(data.rows() / 2);
  for (std::size_t& r : rows) r = rng.uniform_index(data.rows());
  TreeParams p;
  p.max_depth = 5;
  p.min_samples_leaf = 10;
  RegressionTree tree;
  tree.fit(data, y, rows, FeatureMask::all(data.features()), p);
  Hasher h;
  h.add(tree);
  for (std::int32_t leaf : tree.fitted_leaves()) h.add(std::int64_t(leaf));
  return h.hex();
}

struct Case {
  const char* name;
  bool large, masked;
  double subsample;
  bool explicit_rows;
  const char* tree_golden;
  const char* gbr_golden;
};

/// Fitted models must not depend on the pool width: every case is run at
/// widths 1 and 4 against the same constant.
class TreeKernelGolden : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { exec::ThreadPool::instance().resize(GetParam()); }
  void TearDown() override {
    exec::ThreadPool::instance().resize(exec::resolve_threads());
  }
};

TEST_P(TreeKernelGolden, TreeAndBoostedFits) {
  const Case cases[] = {
      {"small/full/0.4/identity", false, false, 0.4, false,
       "690f1650b8f4d0b7", "c195c7fa952675c6"},
      {"small/full/1.0/explicit", false, false, 1.0, true,
       "57f2a86c4f2005e9", "30d5503dc0dbb57c"},
      {"small/masked/0.4/explicit", false, true, 0.4, true,
       "a70815e8c3dd2aba", "66cd4da6da031915"},
      {"small/masked/1.0/identity", false, true, 1.0, false,
       "ff7591b4f278587d", "5bd1a96ce2c71b3a"},
      {"large/full/0.4/identity", true, false, 0.4, false,
       "4effacafc7a7f193", "b4c3728e2aa19e36"},
      {"large/full/1.0/explicit", true, false, 1.0, true,
       "e1b34b46180936d5", "98b95420b03929f3"},
      {"large/masked/0.4/explicit", true, true, 0.4, true,
       "87ec68519778c9ec", "e86c582b65b2f332"},
      {"large/masked/1.0/identity", true, true, 1.0, false,
       "82ad877b25b096df", "e2de1ac8682bf9f4"},
  };
  for (const Case& c : cases) {
    const BinnedDataset& data = c.large ? large_view().data : small_view().data;
    const std::span<const double> y = c.large ? large_view().y : small_view().y;
    const std::size_t stride = c.large ? 37 : 1;
    EXPECT_EQ(tree_hash(data, y, c.masked, c.subsample, c.explicit_rows, stride),
              c.tree_golden)
        << c.name;
    EXPECT_EQ(gbr_hash(data, y, c.masked, c.subsample, c.explicit_rows, stride),
              c.gbr_golden)
        << c.name;
  }
}

TEST_P(TreeKernelGolden, RepeatedRows) {
  EXPECT_EQ(repeated_rows_hash(small_view().data, small_view().y), "e57b773c7930f029");
  EXPECT_EQ(repeated_rows_hash(large_view().data, large_view().y), "47137376b858882e");
}

INSTANTIATE_TEST_SUITE_P(PoolWidths, TreeKernelGolden, ::testing::Values(1, 4));

}  // namespace
}  // namespace dfv::ml
