#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "exec/exec.hpp"

namespace dfv::ml {

namespace {

/// Nodes below this size scan inline; larger ones build their histograms
/// feature-parallel (each feature writes a disjoint slab in sample
/// order, so the result never depends on the thread count).
constexpr std::size_t kParallelNodeSize = 2048;

/// Views whose active code columns (rows x active features bytes) exceed
/// this scan their nodes from row-ordered records instead of the columns.
/// Measured on a 4-vCPU Xeon VM (48 KiB L1d, 2 MiB L2 per core; 12-tree
/// GBR fits at pool width 1, records / columns time): below ~470 KB the
/// columns stay cache-resident and the record gather and swaps only cost
/// (4.8k x 13: 1.53, 20k x 23: 1.06); from 480 KB up records win (40k x 12:
/// 0.72, 130k x 4: 0.96, 100k x 41: 0.40). See DESIGN §8.
constexpr std::size_t kRecordViewBytes = std::size_t(512) << 10;

bool can_split(std::size_t n, int depth, const TreeParams& p) {
  return depth < p.max_depth && n >= 2 * std::size_t(p.min_samples_leaf);
}

}  // namespace

void RegressionTree::fit(const Matrix& x, std::span<const double> y,
                         std::span<const std::size_t> idx, const TreeParams& params) {
  DFV_CHECK(x.rows() == y.size());
  DFV_CHECK(!idx.empty());
  DFV_CHECK(params.max_depth >= 1 && params.histogram_bins >= 2 &&
            params.histogram_bins <= 256);
  const BinnedDataset data(x, params.histogram_bins);
  const FeatureMask mask = FeatureMask::all(x.cols());
  fit(data, y, idx, mask, params);
}

void RegressionTree::fit(const BinnedDataset& data, std::span<const double> y,
                         std::span<const std::size_t> rows, const FeatureMask& mask,
                         const TreeParams& params) {
  fit(data, y, {}, rows, mask, params);
}

void RegressionTree::fit(const BinnedDataset& data, std::span<const double> y,
                         std::span<const double> baseline,
                         std::span<const std::size_t> rows, const FeatureMask& mask,
                         const TreeParams& params) {
  DFV_CHECK(data.rows() == y.size());
  DFV_CHECK(baseline.empty() || baseline.size() == y.size());
  DFV_CHECK(!rows.empty());
  DFV_CHECK(mask.active.size() == data.features());
  DFV_CHECK(params.max_depth >= 1 && params.histogram_bins >= 2 &&
            params.histogram_bins <= 256);
  for (std::size_t f = 0; f < data.features(); ++f)
    DFV_CHECK_MSG(!mask.test(f) || data.edges(f).size() < std::size_t(params.histogram_bins),
                  "tree fit: a feature has more bins than TreeParams::histogram_bins");
  data_ = &data;
  mask_ = &mask;
  y_ = y;
  baseline_ = baseline;
  params_ = params;
  bins_ = std::size_t(params.histogram_bins);
  nodes_.clear();
  fit_depth_ = 0;
  gains_.assign(data.features(), 0.0);

  const std::size_t n = rows.size();
  local_rows_.assign(rows.begin(), rows.end());
  samples_.resize(n);
  for (std::size_t i = 0; i < n; ++i) samples_[i] = std::uint32_t(i);
  if (record_leaves_)
    fitted_leaf_.assign(n, -1);
  else
    fitted_leaf_ = std::vector<std::int32_t>();

  double sum = 0.0;
  if (const double* base = baseline.empty() ? nullptr : baseline.data()) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = local_rows_[i];
      sum += y_[r] - base[r];
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) sum += y_[local_rows_[i]];
  }

  Hist* root_hist = nullptr;
  if (can_split(n, 0, params_)) {
    hist_arena_.resize(std::size_t(params_.max_depth) + 1);
    root_hist = &hist_arena_[0];
    for (std::size_t f = 0; f < data.features(); ++f)
      if (mask.test(f)) active_.push_back(std::uint32_t(f));
    if (data.rows() * active_.size() > kRecordViewBytes) gather_records(n);
    scan_hist(0, n, *root_hist);
  }
  (void)build(0, n, 0, sum, root_hist);  // root lands at node index 0

  // Release fit-time references AND their capacity; keep nodes/gains/
  // fitted leaves. clear() — and `v = {}`, which resolves to the
  // initializer-list assign, not a move — would retain ~O(rows) of dead
  // capacity per tree; an ensemble holding hundreds of trees would pin
  // hundreds of MB of scratch for million-row fits. Move-assigning a
  // typed empty vector is guaranteed to free the buffer.
  hist_arena_ = std::vector<Hist>();
  local_rows_ = std::vector<std::uint32_t>();
  samples_ = std::vector<std::uint32_t>();
  scan_rows_ = std::vector<std::uint32_t>();
  scan_y_ = std::vector<double>();
  active_ = std::vector<std::uint32_t>();
  records_ = std::vector<std::uint8_t>();
  residuals_ = std::vector<double>();
  data_ = nullptr;
  mask_ = nullptr;
  y_ = {};
  baseline_ = {};
}

void RegressionTree::gather_records(std::size_t n) {
  DFV_CHECK(data_ != nullptr && n == local_rows_.size());
  // Record p holds local sample p's active codes and fit target, so the
  // root node is positions [0, n) in samples_ order. The source columns
  // are read in ascending row order: mark every pick's position in the
  // row map, then walk the map once; each column streams forward instead
  // of taking one random load per (pick, feature).
  const std::size_t A = active_.size();
  const std::size_t R = data_->rows();
  records_.resize(n * A);
  residuals_.resize(n);
  std::vector<const std::uint8_t*> columns(A);
  for (std::size_t k = 0; k < A; ++k) columns[k] = data_->feature_codes(active_[k]).data();

  const double* base = baseline_.empty() ? nullptr : baseline_.data();
  const auto put = [&](std::size_t p, std::size_t row) {
    std::uint8_t* rec = records_.data() + p * A;
    for (std::size_t k = 0; k < A; ++k) rec[k] = columns[k][row];
    residuals_[p] = base ? y_[row] - base[row] : y_[row];
  };
  std::vector<std::uint32_t> pos_of_row(R, 0);  // matrix row -> position + 1
  std::size_t marked = 0;
  while (marked < n && pos_of_row[local_rows_[marked]] == 0) {
    pos_of_row[local_rows_[marked]] = std::uint32_t(marked + 1);
    ++marked;
  }
  if (marked == n) {
    for (std::size_t row = 0; row < R; ++row)
      if (pos_of_row[row] != 0) put(pos_of_row[row] - 1, row);
  } else {
    // A row picked twice has no single position: gather in position
    // order instead (same records, random column loads).
    for (std::size_t p = 0; p < n; ++p) put(p, local_rows_[p]);
  }
}

void RegressionTree::scan_records(std::size_t begin, std::size_t end, Hist& h) {
  DFV_CHECK(begin <= end && end <= residuals_.size());
  // One pass over the node's contiguous records updates every active
  // feature's bins. Each feature's slab still receives its samples in
  // ascending position order, exactly as the column scan adds them, so
  // every sum keeps its bits whatever the feature blocking.
  const std::size_t A = active_.size();
  const std::uint8_t* records = records_.data();
  const double* residuals = residuals_.data();
  const std::uint32_t* active = active_.data();
  const std::size_t bins = bins_;
  const auto scan_slots = [&](std::size_t k_lo, std::size_t k_hi) {
    double* sum = h.sum.data();
    std::uint32_t* cnt = h.cnt.data();
    for (std::size_t p = begin; p < end; ++p) {
      const std::uint8_t* rec = records + p * A;
      const double v = residuals[p];
      for (std::size_t k = k_lo; k < k_hi; ++k) {
        const std::size_t i = active[k] * bins + rec[k];
        sum[i] += v;
        ++cnt[i];
      }
    }
  };
  // Feature blocks are disjoint slabs, so their count may follow the pool
  // width without touching a result: one block per lane, and a single
  // pass when the pool has one lane or the fit already runs inside a
  // parallel region (RFE folds), where chunks would only run serially.
  auto& pool = exec::ThreadPool::instance();
  const std::size_t lanes = exec::ThreadPool::in_parallel_region()
                                ? 1
                                : std::min(A, std::size_t(pool.size()));
  if (end - begin >= kParallelNodeSize && lanes >= 2)
    exec::parallel_for(0, A, (A + lanes - 1) / lanes, scan_slots);
  else
    scan_slots(0, A);
}

void RegressionTree::scan_hist(std::size_t begin, std::size_t end, Hist& h) {
  DFV_CHECK(data_ != nullptr && end <= samples_.size());
  const std::size_t F = data_->features();
  h.sum.assign(F * bins_, 0.0);
  h.cnt.assign(F * bins_, 0u);
  if (!records_.empty()) {
    scan_records(begin, end, h);
    return;
  }
  // Gather the node's matrix rows and targets once; every feature scan
  // then reads them sequentially instead of re-chasing samples_ ->
  // local_rows_ -> y_ per feature. The gather is deliberately NOT
  // chunked: sample order is a random permutation, so each feature's
  // code slab only stays cache-resident if it is scanned over the whole
  // node in one pass — fixed-size chunks force the slab to be refetched
  // per chunk and cost >50% on million-row fits for a few MB of buffer.
  // Same per-feature addition order, so the histograms (and everything
  // downstream) are bit-identical.
  const std::size_t n = end - begin;
  const double* base = baseline_.empty() ? nullptr : baseline_.data();
  scan_rows_.resize(n);
  scan_y_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t row = local_rows_[samples_[begin + i]];
    scan_rows_[i] = row;
    scan_y_[i] = base ? y_[row] - base[row] : y_[row];
  }
  const auto scan_feature_range = [&](std::size_t f_lo, std::size_t f_hi) {
    for (std::size_t f = f_lo; f < f_hi; ++f) {
      if (!mask_->test(f)) continue;
      const std::uint8_t* codes = data_->feature_codes(f).data();
      double* sum = h.sum.data() + f * bins_;
      std::uint32_t* cnt = h.cnt.data() + f * bins_;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t b = codes[scan_rows_[i]];
        sum[b] += scan_y_[i];
        ++cnt[b];
      }
    }
  };
  if (end - begin >= kParallelNodeSize && F >= 2)
    exec::parallel_for(0, F, 1, scan_feature_range);
  else
    scan_feature_range(0, F);
}

std::int32_t RegressionTree::build(std::size_t begin, std::size_t end, int depth,
                                   double node_sum, Hist* hist) {
  const std::size_t n = end - begin;
  const std::size_t F = data_->features();

  const auto node_id = std::int32_t(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[std::size_t(node_id)].value = node_sum / double(n);

  const auto make_leaf = [&] {
    // Leaves self-loop so fixed-depth traversal can overshoot safely.
    nodes_[std::size_t(node_id)].left = node_id;
    nodes_[std::size_t(node_id)].right = node_id;
    fit_depth_ = std::max(fit_depth_, depth);
    if (record_leaves_)
      for (std::size_t i = begin; i < end; ++i)
        fitted_leaf_[samples_[i]] = node_id;
    return node_id;
  };
  if (hist == nullptr) return make_leaf();

  // Best split over the node's histograms: strict `>` and ascending
  // feature order give the earliest feature on ties, independent of how
  // the histograms were built.
  const double parent_score = node_sum * node_sum / double(n);
  double best_gain = 0.0, best_left_sum = 0.0;
  int best_feature = -1;
  std::uint8_t best_bin = 0;
  std::size_t best_left_cnt = 0;
  for (std::size_t f = 0; f < F; ++f) {
    if (!mask_->test(f)) continue;
    const std::size_t nb = data_->edges(f).size() + 1;
    if (nb < 2) continue;
    const double* sum = hist->sum.data() + f * bins_;
    const std::uint32_t* cnt = hist->cnt.data() + f * bins_;
    double left_sum = 0.0;
    std::size_t left_cnt = 0;
    for (std::size_t b = 0; b + 1 < nb; ++b) {
      left_sum += sum[b];
      left_cnt += cnt[b];
      const std::size_t right_cnt = n - left_cnt;
      if (left_cnt < std::size_t(params_.min_samples_leaf) ||
          right_cnt < std::size_t(params_.min_samples_leaf))
        continue;
      const double right_sum = node_sum - left_sum;
      const double gain = left_sum * left_sum / double(left_cnt) +
                          right_sum * right_sum / double(right_cnt) - parent_score;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = int(f);
        best_bin = std::uint8_t(b);
        best_left_sum = left_sum;
        best_left_cnt = left_cnt;
      }
    }
  }
  if (best_feature < 0 || best_gain <= 1e-12) return make_leaf();

  gains_[std::size_t(best_feature)] += best_gain;

  const std::size_t left_n = best_left_cnt, right_n = n - best_left_cnt;
  const bool need_left = can_split(left_n, depth + 1, params_);
  const bool need_right = can_split(right_n, depth + 1, params_);

  // Partition samples in place: code <= best_bin goes left. Records and
  // residuals replay the same swaps, so position p keeps describing
  // samples_[p] and every child sees today's addition order; they only
  // move while a descendant will scan them.
  std::size_t mid = begin;
  if (!records_.empty()) {
    const std::size_t A = active_.size();
    const std::size_t slot = std::size_t(
        std::lower_bound(active_.begin(), active_.end(), std::uint32_t(best_feature)) -
        active_.begin());
    const bool move_records = need_left || need_right;
    for (std::size_t i = begin; i < end; ++i) {
      std::uint8_t* rec = records_.data() + i * A;
      if (rec[slot] > best_bin) continue;
      if (i != mid) {
        std::swap(samples_[i], samples_[mid]);
        if (move_records) {
          std::swap_ranges(rec, rec + A, records_.data() + mid * A);
          std::swap(residuals_[i], residuals_[mid]);
        }
      }
      ++mid;
    }
  } else {
    const std::uint8_t* codes = data_->feature_codes(std::size_t(best_feature)).data();
    for (std::size_t i = begin; i < end; ++i) {
      if (codes[local_rows_[samples_[i]]] <= best_bin)
        std::swap(samples_[i], samples_[mid++]);
    }
  }
  DFV_CHECK(mid - begin == best_left_cnt);

  nodes_[std::size_t(node_id)].feature = best_feature;
  nodes_[std::size_t(node_id)].bin = best_bin;
  nodes_[std::size_t(node_id)].threshold =
      data_->edges(std::size_t(best_feature))[best_bin];

  // Child histograms by subtraction: scan only the smaller child, derive
  // the sibling as parent − child (in place, so the parent's buffer is
  // reused down the recursion and the arena stays one slab per level).
  // Which child is scanned depends only on the split, never on threads.
  const double left_sum = best_left_sum, right_sum = node_sum - best_left_sum;
  Hist* left_hist = nullptr;
  Hist* right_hist = nullptr;
  if (need_left || need_right) {
    Hist& child = hist_arena_[std::size_t(depth) + 1];
    const bool scan_is_left = left_n <= right_n;
    if (scan_is_left)
      scan_hist(begin, mid, child);
    else
      scan_hist(mid, end, child);
    const bool need_sibling = scan_is_left ? need_right : need_left;
    if (need_sibling) {
      for (std::size_t i = 0; i < F * bins_; ++i) {
        hist->sum[i] -= child.sum[i];
        hist->cnt[i] -= child.cnt[i];
      }
    }
    if (need_left) left_hist = scan_is_left ? &child : hist;
    if (need_right) right_hist = scan_is_left ? hist : &child;
  }

  const std::int32_t left = build(begin, mid, depth + 1, left_sum, left_hist);
  const std::int32_t right = build(mid, end, depth + 1, right_sum, right_hist);
  nodes_[std::size_t(node_id)].left = left;
  nodes_[std::size_t(node_id)].right = right;
  return node_id;
}

double RegressionTree::predict_one(std::span<const double> x) const {
  DFV_CHECK(!nodes_.empty());
  // Fixed-depth descent: every path reaches its leaf within fit_depth_
  // steps and then self-loops, so the loop has no data-dependent exit
  // branch to mispredict. Leaves keep feature == -1; reading slot 0 for
  // them is harmless because both children point back at the leaf.
  std::int32_t cur = 0;
  for (int d = 0; d < fit_depth_; ++d) {
    const Node& nd = nodes_[std::size_t(cur)];
    const std::size_t f = std::size_t(nd.feature >= 0 ? nd.feature : 0);
    // Binning used lower_bound (code = #edges < v), so "code <= b" is
    // exactly "v <= edges[b]"; predict consistently.
    cur = x[f] <= nd.threshold ? nd.left : nd.right;
  }
  return nodes_[std::size_t(cur)].value;
}

double RegressionTree::predict_binned(const BinnedDataset& data, std::size_t r) const {
  DFV_CHECK(!nodes_.empty());
  std::int32_t cur = 0;
  for (int d = 0; d < fit_depth_; ++d) {
    const Node& nd = nodes_[std::size_t(cur)];
    const std::size_t f = std::size_t(nd.feature >= 0 ? nd.feature : 0);
    cur = data.code(r, f) <= nd.bin ? nd.left : nd.right;
  }
  return nodes_[std::size_t(cur)].value;
}

std::vector<double> RegressionTree::predict(const Matrix& x) const {
  DFV_CHECK(!nodes_.empty());
  std::vector<double> out(x.rows());
  exec::parallel_for(0, x.rows(), 512, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) out[r] = predict_one(x.row(r));
  });
  return out;
}

}  // namespace dfv::ml
