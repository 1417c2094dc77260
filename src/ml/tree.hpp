// Histogram-based CART regression tree: the base learner for gradient
// boosting (Friedman 2001, the model family the paper uses via GBR).
//
// Split finding works on a shared BinnedDataset (quantile bins computed
// once per training matrix, not once per tree), restricted to a row
// view and an active-feature mask. Node histograms use the subtraction
// trick: only the smaller child of a split is scanned; the sibling's
// histogram is derived as parent − child, so a full level of the tree
// costs one pass over the node's samples instead of two.
//
// Node scans read one of two layouts, chosen per fit by the view's size
// and invisible in the result. Small views (rows x active features within
// a cache-sized bound) scan the view's feature-major code columns at each
// node's sample rows. Large views (the out-of-core store's) first gather
// every sampled row's active codes and target into a row-major record
// buffer, read in ascending row order, and keep it in the samples'
// partition order with the same swaps; a node scan is then one sequential
// pass over contiguous records. Either way each histogram bin adds its
// samples in the same order, so fitted trees are bit-identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/binned.hpp"
#include "ml/matrix.hpp"

namespace dfv::ml {

struct TreeParams {
  int max_depth = 3;
  int min_samples_leaf = 20;
  int histogram_bins = 24;
};

class RegressionTree {
 public:
  struct Node {
    int feature = -1;          ///< -1 for leaves
    double threshold = 0.0;    ///< go left if x[feature] <= threshold
    std::uint8_t bin = 0;      ///< go left if code(feature) <= bin
    std::int32_t left = -1;    ///< leaves self-loop (left == right == self)
    std::int32_t right = -1;
    double value = 0.0;        ///< leaf prediction
  };

  /// Fit on rows `idx` of `x` against `y` (convenience path: builds a
  /// private BinnedDataset over `x` and delegates to the shared-view
  /// overload with every feature active). The tree may be refit;
  /// previous state is discarded.
  void fit(const Matrix& x, std::span<const double> y, std::span<const std::size_t> idx,
           const TreeParams& params);

  /// Fast path: fit on rows `rows` of a prebuilt binned view, splitting
  /// only on features `mask` marks active. `y` is indexed by absolute
  /// matrix row (y.size() == data.rows()). Splits, gains, and thresholds
  /// are reported in the *global* feature index space, so the fitted
  /// tree predicts from full-width rows without any column selection.
  /// Every active feature's codes must fit the histograms:
  /// `data.edges(f).size() < params.histogram_bins` (contract-checked).
  void fit(const BinnedDataset& data, std::span<const double> y,
           std::span<const std::size_t> rows, const FeatureMask& mask,
           const TreeParams& params);

  /// Residual-fitting path: identical to the overload above, except the
  /// tree fits the pointwise difference `y[r] - baseline[r]` (empty
  /// baseline means plain `y[r]`). Boosting passes its running
  /// prediction here so the residual is formed inside the node gather
  /// instead of being materialized — at a million rows that array is
  /// 8 MB of peak RSS per fit. Same subtraction, same accumulation
  /// order, so the fit is bit-identical to precomputing the residuals.
  void fit(const BinnedDataset& data, std::span<const double> y,
           std::span<const double> baseline, std::span<const std::size_t> rows,
           const FeatureMask& mask, const TreeParams& params);

  [[nodiscard]] double predict_one(std::span<const double> x) const;
  [[nodiscard]] std::vector<double> predict(const Matrix& x) const;
  /// Predict for a row of the binned view the tree was fitted on:
  /// traverses uint8 codes instead of doubles. Bit-identical to
  /// `predict_one(data.source().row(r))` because code(b) <= split_bin
  /// iff value <= edges[split_bin].
  [[nodiscard]] double predict_binned(const BinnedDataset& data, std::size_t r) const;

  /// Leaf node reached by the k-th fitted row (order of `rows`/`idx` as
  /// passed to fit). Valid until the next fit; pair with `leaf_value`
  /// so boosting can update in-sample predictions without re-traversal.
  /// Empty if recording was turned off before the fit.
  [[nodiscard]] std::span<const std::int32_t> fitted_leaves() const noexcept {
    return fitted_leaf_;
  }
  /// Opt out of per-sample leaf recording before calling fit. Owners
  /// that fit many trees but never read the partition (boosting uses
  /// code traversal for its update) skip an O(rows) allocation per tree.
  void record_fitted_leaves(bool on) noexcept { record_leaves_ = on; }
  [[nodiscard]] double leaf_value(std::int32_t node) const {
    return nodes_[std::size_t(node)].value;
  }

  /// Total squared-error reduction contributed by splits on each feature
  /// (global feature index space).
  [[nodiscard]] const std::vector<double>& feature_gains() const noexcept {
    return gains_;
  }
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  /// Depth of the deepest fitted leaf (0 = the root is a leaf). Every
  /// root-to-leaf path ends within this many steps; leaves self-loop, so
  /// fixed-depth traversal is safe and branch-free.
  [[nodiscard]] int fitted_depth() const noexcept { return fit_depth_; }
  /// Immutable node table (preorder is not guaranteed; children are
  /// absolute indices). The compiled-inference flattener consumes this.
  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }

 private:
  /// Per-node histogram over the active features: flat [feature * bins]
  /// slabs of target sums and sample counts.
  struct Hist {
    std::vector<double> sum;
    std::vector<std::uint32_t> cnt;
  };

  void scan_hist(std::size_t begin, std::size_t end, Hist& h);
  void scan_records(std::size_t begin, std::size_t end, Hist& h);
  void gather_records(std::size_t n);
  [[nodiscard]] std::int32_t build(std::size_t begin, std::size_t end, int depth, double node_sum,
                     Hist* hist);

  // Fit-time state (released after fit).
  const BinnedDataset* data_ = nullptr;
  const FeatureMask* mask_ = nullptr;
  std::span<const double> y_;
  std::span<const double> baseline_;  ///< fit targets y_[r] - baseline_[r]
  TreeParams params_;
  std::size_t bins_ = 0;
  std::vector<std::uint32_t> local_rows_;  ///< local sample id -> matrix row
  std::vector<std::uint32_t> samples_;     ///< partition-ordered local ids
  std::vector<Hist> hist_arena_;           ///< one buffer per depth level
  std::vector<std::uint32_t> scan_rows_;   ///< per-scan gathered matrix rows
  std::vector<double> scan_y_;             ///< per-scan gathered targets
  // Row-ordered node records (large views only; empty otherwise).
  std::vector<std::uint32_t> active_;      ///< record slot -> global feature
  std::vector<std::uint8_t> records_;      ///< [position * active_.size() + slot]
  std::vector<double> residuals_;          ///< [position] fit target

  std::vector<Node> nodes_;
  std::vector<double> gains_;
  std::vector<std::int32_t> fitted_leaf_;  ///< local sample id -> leaf node
  bool record_leaves_ = true;              ///< fill fitted_leaf_ during fit
  int fit_depth_ = 0;                      ///< depth of the deepest leaf
};

}  // namespace dfv::ml
