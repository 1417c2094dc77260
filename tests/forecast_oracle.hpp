// The reference answer to a point ForecastRequest, computed without
// api::Session and without the compiled inference path: the attention
// model is trained the way a Session trains its resident forecaster, and
// the history window is read as a strided view of the run's feature
// table and sent through AttentionForecaster::predict_reference. Tests
// compare the served `predicted` value against it bit for bit.
#pragma once

#include <cstddef>

#include "analysis/forecast.hpp"
#include "analysis/window_cache.hpp"
#include "api/api.hpp"
#include "ml/attention.hpp"

namespace dfv::oracle {

[[nodiscard]] inline double reference_forecast(const sim::Dataset& ds,
                                               const api::ForecastRequest& q) {
  const analysis::StepFeatureCache cache(ds);
  const analysis::WindowIndex index =
      analysis::build_window_index(ds, cache, q.window.m, q.window.k);
  const analysis::WindowViews views =
      analysis::make_window_views(cache, index, q.window.features);
  ml::AttentionForecaster model(q.window.m, analysis::feature_count(q.window.features),
                                analysis::ForecastConfig{}.attention);
  model.fit(views.all(), index.y);
  const double* base = cache.run(q.run_index).step_row(q.t - q.window.m);
  const ml::RowBatch window{{&base, 1},
                            std::size_t(q.window.m),
                            std::size_t(analysis::feature_count(q.window.features)),
                            std::size_t(analysis::superset_feature_count())};
  return model.predict_reference(window)[0];
}

}  // namespace dfv::oracle
