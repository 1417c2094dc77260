// Workload `longitudinal`: months of monitoring rows written into an
// empty column store and trained on out-of-core — the write-beside-read
// use of `store` and the mmap'd-rows use of `ml` that `study` lacks.
//
// One pass: store::append_longitudinal_runs into an empty store, pin it
// open, build a store::TrainingView, fit GBR over all rows and run RFE
// over a 12-feature view (bench_store's configuration). Set-up is the
// creation of the empty store, repeated for a slice of time before every
// pass (the last one made is the pass's store) and after the last pass.
#include <malloc.h>

#include <filesystem>
#include <optional>

#include "common.hpp"
#include "ml/gbr.hpp"
#include "ml/rfe.hpp"
#include "store/longitudinal.hpp"
#include "store/training_view.hpp"

namespace pb {

namespace {

using namespace dfv;

/// A pass takes 2.5-3.5 s at pool width 1 on a 4-vCPU Xeon VM (200k rows: 8.6 s).
constexpr std::uint64_t kRows = 100'000;
constexpr int kMinPasses = 3;
constexpr double kSetupSliceS = 0.05;  ///< of store creations between passes
constexpr int kSetupMinReps = 8;
constexpr std::size_t kRfeFeatures = 12;
constexpr std::size_t kPredictStride = 997;

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

struct Pass {
  double append_s = 0, pin_open_ms = 0, view_s = 0, gbr_s = 0, rfe_s = 0;
  double disk_mb = 0;
  std::string digest;
};

Pass run_pass(const std::string& dir, std::uint64_t seed, store::ColumnStore& cs,
              Tracer& tracer) {
  Pass p;
  Digest d;
  store::LongitudinalSpec spec;
  spec.seed = seed;
  auto t0 = Clock::now();
  {
    auto s = tracer.span("store.append");
    store::append_longitudinal_runs(cs, spec, 0, kRows);
  }
  p.append_s = since(t0);
  p.disk_mb = double(dir_bytes(dir)) / (1024.0 * 1024.0);

  t0 = Clock::now();
  std::shared_ptr<const store::StorePin> pin;
  {
    auto s = tracer.span("store.pin_open");
    pin = store::ColumnStore::open_pin(dir);
  }
  p.pin_open_ms = 1e3 * since(t0);
  d.u64(pin->rows());
  d.u64(pin->content_fingerprint());

  store::TrainingSpec tspec;
  tspec.features = store::longitudinal_features();
  tspec.target = store::longitudinal_target();
  {
    t0 = Clock::now();
    std::optional<store::TrainingView> view;
    {
      auto s = tracer.span("store.view_build");
      view.emplace(store::TrainingView::build(pin, tspec));
    }
    p.view_s = since(t0);
    t0 = Clock::now();
    ml::GradientBoostedRegressor gbr;
    {
      auto s = tracer.span("ml.ooc_gbr_fit");
      gbr.fit(view->binned(), view->y(), ml::FeatureMask::all(view->features()));
    }
    p.gbr_s = since(t0);
    for (std::size_t r = 0; r < view->rows(); r += kPredictStride)
      d.f64(gbr.predict_binned(view->binned(), r));
  }
  // Give the boosting stage's heap back so RFE's peak does not stack on it.
  malloc_trim(0);

  store::TrainingSpec rspec = tspec;
  rspec.features.resize(kRfeFeatures);
  t0 = Clock::now();
  {
    auto s = tracer.span("ml.ooc_rfe");
    const store::TrainingView rview = store::TrainingView::build(pin, rspec);
    ml::RfeParams rparams;
    rparams.folds = 2;
    rparams.gbr.n_trees = 12;
    rparams.with_linear_baseline = false;  // needs the source matrix
    const ml::RfeResult rfe = ml::rfe_cv(rview.binned(), rview.y(), rparams);
    for (double v : rfe.relevance) d.f64(v);
    for (double v : rfe.survival) d.f64(v);
    d.f64(rfe.cv_mape_full);
  }
  p.rfe_s = since(t0);
  p.digest = d.hex();
  return p;
}

}  // namespace

Result run_longitudinal(const Options& o, Tracer& tracer) {
  Result res;
  if (o.prepare) return res;  // nothing is made before timing
  const std::string dir = o.work_dir + "/longitudinal.store";
  std::vector<double> setup, wall;
  std::vector<Pass> passes;
  double cpu = 0.0;
  std::optional<store::ColumnStore> cs;
  const auto new_stores = [&] {
    time_repeatedly(
        setup, kSetupSliceS, kSetupMinReps,
        [&] {
          cs.reset();
          std::filesystem::remove_all(dir);
        },
        [&] { cs.emplace(store::open_longitudinal_store(dir)); });
  };
  const auto window = Clock::now();
  // A traced run makes one untraced pass, then one traced pass.
  Tracer off(false);
  while (int(wall.size()) < (tracer.enabled() ? 2 : kMinPasses) ||
         (!tracer.enabled() && since(window) < o.seconds)) {
    Tracer& t = tracer.enabled() && wall.size() == 1 ? tracer : off;
    new_stores();

    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    Pass p;
    {
      auto s = t.span("longitudinal");
      p = run_pass(dir, o.seed, *cs, t);
    }
    wall.push_back(since(t0));
    cpu += process_cpu_s() - c0;
    res.attempted += 5;  // append, pin, view, fit, rfe
    if (res.digest.empty()) {
      res.digest = p.digest;
    } else if (p.digest != res.digest) {
      ++res.failed;
      res.check(false, "longitudinal pass changed the output digest");
    }
    passes.push_back(p);
  }
  new_stores();

  if (!tracer.enabled()) {
    const double pass_s = median(wall);
    res.metric("setup_s", median(setup), "s", setup.size());
    res.metric("latency_ms", 1e3 * pass_s, "ms", wall.size());
    res.name("setup_s", median(setup), "s", setup.size());
    res.name("longitudinal_s", pass_s, "s", wall.size());
    return res;
  }

  const Pass& traced = passes.back();
  res.layer("store.append_s", traced.append_s, "s");
  res.layer("store.pin_open_ms", traced.pin_open_ms, "ms");
  res.layer("store.view_build_s", traced.view_s, "s");
  res.layer("ml.ooc_gbr_fit_s", traced.gbr_s, "s");
  res.layer("ml.ooc_rfe_s", traced.rfe_s, "s");
  res.layer("store.disk_mb", traced.disk_mb, "MB");
  double wall_sum = 0.0;
  for (double w : wall) wall_sum += w;
  res.layer("exec.cpu_util", cpu / (wall_sum * double(o.width)), "ratio");
  return res;
}

}  // namespace pb
