#include "api/session.hpp"

#include <atomic>
#include <cmath>
#include <map>
#include <mutex>

#include "api/wire.hpp"
#include "common/log.hpp"
#include "ml/attention.hpp"
#include "ml/compiled.hpp"
#include "net/packet_sim.hpp"
#include "net/topology.hpp"
#include "net/vc_sim.hpp"

namespace dfv::api {

const char* to_string(ErrorCode c) noexcept {
  switch (c) {
    case ErrorCode::Contract: return "contract";
    case ErrorCode::BadRequest: return "bad-request";
    case ErrorCode::VersionMismatch: return "version-mismatch";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::DeadlineExceeded: return "deadline-exceeded";
    case ErrorCode::ShuttingDown: return "shutting-down";
  }
  return "unknown";
}

void rethrow(const ErrorResponse& err) {
  if (err.code == ErrorCode::Contract) throw ContractError(err.message);
  throw std::runtime_error(err.message);
}

analysis::FeatureSet parse_feature_set(const std::string& name) {
  for (auto cand : {analysis::FeatureSet::App, analysis::FeatureSet::AppPlacement,
                    analysis::FeatureSet::AppPlacementIo,
                    analysis::FeatureSet::AppPlacementIoSys})
    if (name == analysis::to_string(cand)) return cand;
  DFV_CHECK_MSG(false, "unknown feature set '"
                           << name
                           << "' (expected app | app+placement | app+placement+io | "
                              "app+placement+io+sys)");
}

// ---------------------------------------------------------------------------
// ResidentCampaign.
// ---------------------------------------------------------------------------

std::shared_ptr<const ResidentCampaign> ResidentCampaign::load(
    const SessionOptions& opt) {
  opt.config.validate();
  auto rc = std::shared_ptr<ResidentCampaign>(new ResidentCampaign());
  rc->config_ = opt.config;
  rc->result_ = opt.cache_dir.empty()
                    ? sim::run_campaign(opt.config)
                    : sim::run_campaign_cached(opt.config, opt.cache_dir, opt.cache_format);
  // Apply the degraded-data policy at the load boundary so every request
  // downstream sees repaired (or flagged) telemetry, exactly like
  // core::VariabilityStudy does for the batch pipeline.
  if (opt.config.faults.enabled()) {
    for (auto& ds : rc->result_.datasets) {
      rc->repair_reports_.push_back(ds.repair(opt.repair));
      DFV_LOG_INFO("repair " << ds.spec.label() << ": "
                             << rc->repair_reports_.back().summary());
    }
  }
  return rc;
}

// ---------------------------------------------------------------------------
// Session.
// ---------------------------------------------------------------------------

namespace {

/// Key -> artifact map that any thread may query. Each artifact is built
/// once, outside the map lock: concurrent callers of one key wait on that
/// key's build and nothing else. A build that throws leaves no entry
/// behind, so the next call builds afresh (a rejected request never pins
/// memory); a built entry is never erased, so the returned reference stays
/// valid for the cache's life.
template <class T>
class BuildOnce {
 public:
  template <class Build>
  const T& get(const std::string& key, Build&& build) {
    while (true) {
      std::shared_ptr<Entry> e;
      {
        std::lock_guard<std::mutex> lock(mu_);
        std::shared_ptr<Entry>& slot = entries_[key];
        if (!slot) slot = std::make_shared<Entry>();
        e = slot;
      }
      if (const T* built = e->built.load(std::memory_order_acquire)) return *built;
      std::lock_guard<std::mutex> build_lock(e->build_mu);
      if (e->failed) continue;  // its build threw and it left the map: start over
      if (!e->value) {
        try {
          e->value = std::make_unique<const T>(build());
        } catch (...) {
          e->failed = true;
          std::lock_guard<std::mutex> lock(mu_);
          entries_.erase(key);  // still `e`: only a failed build removes an entry
          throw;
        }
        e->built.store(e->value.get(), std::memory_order_release);
      }
      return *e->value;
    }
  }

 private:
  struct Entry {
    std::mutex build_mu;
    std::unique_ptr<const T> value;        ///< guarded by build_mu
    bool failed = false;                   ///< guarded by build_mu
    std::atomic<const T*> built{nullptr};  ///< value, once published
  };

  std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
};

}  // namespace

/// A trained attention model pinned in the session, compiled at build
/// time so the operand packing stays out of the per-request path, plus
/// the training metadata the response reports. Immutable: the forward
/// arena a prediction needs is per thread (see on(ForecastRequest)).
struct Session::ResidentForecaster {
  ml::CompiledAttention compiled;
  std::uint32_t windows = 0;
};

struct Session::Caches {
  std::mutex campaign_mu;
  BuildOnce<analysis::StepFeatureCache> features;
  BuildOnce<ResidentForecaster> forecasters;
  BuildOnce<analysis::DeviationResult> deviations;
  BuildOnce<analysis::ForecastEval> forecast_evals;
};

Session::~Session() = default;

Session::Session(SessionOptions opt) : Session(std::move(opt), nullptr) {}

Session::Session(SessionOptions opt, std::shared_ptr<const ResidentCampaign> campaign)
    : opt_(std::move(opt)), campaign_(std::move(campaign)),
      caches_(std::make_unique<Caches>()) {
  opt_.config.validate();
}

const ResidentCampaign& Session::campaign() {
  std::lock_guard<std::mutex> lock(caches_->campaign_mu);
  if (!campaign_) campaign_ = ResidentCampaign::load(opt_);
  return *campaign_;
}

// Error boundary: per-request validation lives in the on() handlers and
// the analysis layer; this frame only maps exceptions to responses.
// dfv-lint: allow(contract): the on() handlers own the DFV_CHECK validation
Response Session::handle(const Request& req) {
  try {
    return dispatch(req);
  } catch (const ContractError& e) {
    return ErrorResponse{ErrorCode::Contract, e.what()};
  } catch (const std::exception& e) {
    return ErrorResponse{ErrorCode::Internal, e.what()};
  }
}

// dfv-lint: allow(contract): pure fan-out; each on() overload validates
Response Session::dispatch(const Request& req) {
  return std::visit([&](const auto& q) { return on(q); }, req);
}

const sim::Dataset& Session::dataset(const std::string& app, int nodes) {
  return campaign().dataset(app, nodes);
}

const analysis::StepFeatureCache& Session::feature_cache(const std::string& app,
                                                         int nodes) {
  DFV_CHECK_MSG(nodes > 0, "node count must be positive");
  return caches_->features.get(app + "/" + std::to_string(nodes), [&] {
    return analysis::StepFeatureCache(dataset(app, nodes));
  });
}

const Session::ResidentForecaster& Session::forecaster(
    const std::string& app, int nodes, const analysis::WindowConfig& wcfg) {
  DFV_CHECK_MSG(wcfg.m >= 1 && wcfg.k >= 1, "forecast window needs m >= 1 and k >= 1");
  const std::string key = app + "/" + std::to_string(nodes) + "/" +
                          std::to_string(wcfg.m) + "/" + std::to_string(wcfg.k) + "/" +
                          analysis::to_string(wcfg.features);
  return caches_->forecasters.get(key, [&] {
    const sim::Dataset& ds = dataset(app, nodes);
    const analysis::StepFeatureCache& cache = feature_cache(app, nodes);
    const analysis::WindowIndex index =
        analysis::build_window_index(ds, cache, wcfg.m, wcfg.k);
    const analysis::WindowViews views =
        analysis::make_window_views(cache, index, wcfg.features);
    const analysis::ForecastConfig fcfg;
    ml::AttentionForecaster model(wcfg.m, analysis::feature_count(wcfg.features),
                                  fcfg.attention);
    model.fit(views.all(), index.y);
    return ResidentForecaster{model.compile(), std::uint32_t(index.size())};
  });
}

// dfv-lint: allow(contract): the request carries no inputs to validate
Response Session::on(const CampaignSummaryRequest&) {
  const ResidentCampaign& c = campaign();
  CampaignSummaryResponse resp;
  resp.faulted = !c.repair_reports().empty();
  for (std::size_t i = 0; i < c.result().datasets.size(); ++i) {
    const sim::Dataset& ds = c.result().datasets[i];
    CampaignSummaryRow row;
    row.label = ds.spec.label();
    row.runs = std::uint32_t(ds.num_runs());
    row.steps_per_run = std::uint32_t(ds.steps_per_run());
    if (resp.faulted) {
      const sim::RepairReport& rep = c.repair_reports()[i];
      row.runs_dropped = std::uint32_t(rep.runs_dropped);
      row.bad_steps = std::uint32_t(rep.bad_steps);
      row.imputed_steps = std::uint32_t(rep.imputed_steps);
      row.wrapped_cells = std::uint32_t(rep.wrapped_cells);
      row.profiles_missing = std::uint32_t(rep.profiles_missing);
    }
    resp.rows.push_back(std::move(row));
  }
  return resp;
}

Response Session::on(const ExportRequest& q) {
  DFV_CHECK_MSG(!q.dir.empty(), "export needs a destination directory");
  ExportResponse resp;
  for (const sim::Dataset& ds : campaign().result().datasets) {
    ExportResponse::Item item;
    item.path = q.dir + "/" + ds.spec.label() + ".csv";
    item.ok = sim::save_dataset(ds, item.path);
    resp.items.push_back(std::move(item));
  }
  return resp;
}

Response Session::on(const RunLookupRequest& q) {
  const sim::Dataset& ds = dataset(q.app_name, q.node_count);
  DFV_CHECK_MSG(std::size_t(q.run_index) < ds.num_runs(),
                "run index " << q.run_index << " out of range for " << ds.spec.label()
                             << " (" << ds.num_runs() << " runs)");
  const sim::RunRecord& run = ds.runs[q.run_index];
  RunLookupResponse resp;
  resp.job_id = run.job_id;
  resp.submit_time_s = run.submit_time_s;
  resp.start_time_s = run.start_time_s;
  resp.end_time_s = run.end_time_s;
  resp.total_time_s = run.total_time_s();
  resp.num_routers = run.num_routers;
  resp.num_groups = run.num_groups;
  resp.steps = std::uint32_t(run.steps());
  resp.profile_missing = run.profile_missing;
  return resp;
}

Response Session::on(const NeighborhoodRequest& q) {
  DFV_CHECK_MSG(q.node_count > 0, "node count must be positive");
  return NeighborhoodResponse{
      analysis::analyze_neighborhood(dataset(q.app_name, q.node_count), q.tau)};
}

Response Session::on(const DeviationRequest& q) {
  DFV_CHECK_MSG(q.node_count > 0, "node count must be positive");
  return DeviationResponse{caches_->deviations.get(
      q.app_name + "/" + std::to_string(q.node_count),
      [&] { return analysis::analyze_deviation(dataset(q.app_name, q.node_count)); })};
}

Response Session::on(const ForecastRequest& q) {
  const sim::Dataset& ds = dataset(q.app_name, q.node_count);
  DFV_CHECK_MSG(std::size_t(q.run_index) < ds.num_runs(),
                "run index " << q.run_index << " out of range for " << ds.spec.label()
                             << " (" << ds.num_runs() << " runs)");
  const ResidentForecaster& rf = forecaster(q.app_name, q.node_count, q.window);
  const analysis::StepFeatureCache& cache = feature_cache(q.app_name, q.node_count);
  const analysis::RunFeatureTable& table = cache.run(q.run_index);
  const int m = q.window.m;
  DFV_CHECK_MSG(q.t >= m && q.t <= table.steps,
                "window [" << (q.t - m) << ", " << q.t << ") not contained in run of "
                           << table.steps << " steps");
  DFV_CHECK_MSG(table.span_clean(q.t - m, q.t),
                "history window touches degraded telemetry steps");

  // Gather the m strided superset rows into one contiguous window.
  const int width = analysis::feature_count(q.window.features);
  std::vector<double> window(std::size_t(m) * std::size_t(width));
  for (int i = 0; i < m; ++i) {
    const double* row = table.step_row(q.t - m + i);
    for (int f = 0; f < width; ++f)
      window[std::size_t(i) * std::size_t(width) + std::size_t(f)] = row[f];
  }

  // One forward arena per thread, shared by every resident model: it is
  // only ever grown, so steady-state forecasts do not allocate.
  thread_local ml::CompiledAttention::Scratch scratch;
  ForecastResponse resp;
  resp.predicted = rf.compiled.predict_one(window, scratch);
  // Persistence baseline, summed in the same (reverse) order as the
  // window index builds it so the two paths agree bitwise.
  const sim::RunRecord& run = ds.runs[q.run_index];
  double recent = 0.0;
  for (int j = 0; j < m; ++j) recent += run.step_times[std::size_t(q.t - 1 - j)];
  resp.persistence = recent / double(m) * double(q.window.k);
  resp.model_windows = rf.windows;
  return resp;
}

Response Session::on(const ForecastEvalRequest& q) {
  DFV_CHECK_MSG(q.window.m >= 1 && q.window.k >= 1,
                "forecast window needs m >= 1 and k >= 1");
  const std::string key = q.app_name + "/" + std::to_string(q.node_count) + "/" +
                          std::to_string(q.window.m) + "/" + std::to_string(q.window.k) +
                          "/" + analysis::to_string(q.window.features);
  return ForecastEvalResponse{caches_->forecast_evals.get(key, [&] {
    return analysis::evaluate_forecast(dataset(q.app_name, q.node_count), q.window, {});
  })};
}

Response Session::on(const ForecastGridRequest& q) {
  DFV_CHECK_MSG(!q.cells.empty(), "forecast grid needs at least one cell");
  return ForecastGridResponse{
      analysis::evaluate_forecast_grid(dataset(q.app_name, q.node_count), q.cells, {})};
}

Response Session::on(const TopologyRequest& q) {
  DFV_CHECK_MSG(q.groups >= 0, "group count must be >= 0 (0 = Cori-scale)");
  const net::DragonflyConfig cfg = q.groups > 0 ? net::DragonflyConfig::small(q.groups)
                                                : net::DragonflyConfig::cori();
  return TopologyResponse{net::Topology(cfg).describe()};
}

Response Session::on(const SimulateRequest& q) {
  DFV_CHECK_MSG(q.packets > 0, "packet count must be positive");
  DFV_CHECK_MSG(q.load > 0.0, "offered load must be positive");
  const net::Topology topo(net::DragonflyConfig::small(q.groups));
  net::TrafficPattern pattern = net::TrafficPattern::Uniform;
  if (q.pattern == "adversarial") pattern = net::TrafficPattern::AdversarialShift;
  else if (q.pattern == "hotspot") pattern = net::TrafficPattern::Hotspot;
  net::RoutingPolicy policy = net::RoutingPolicy::Ugal;
  if (q.policy == "minimal") policy = net::RoutingPolicy::Minimal;
  else if (q.policy == "valiant") policy = net::RoutingPolicy::Valiant;

  SimulateResponse resp;
  resp.pattern = net::to_string(pattern);
  resp.policy = net::to_string(policy);
  resp.load = q.load;
  {
    net::PacketSimParams params;
    params.policy = policy;
    net::PacketSim sim(topo, params, 1);
    const auto s = sim.run_synthetic(pattern, q.load, q.packets);
    resp.engines.push_back({"source-routed", false, s.mean_latency, s.p99_latency,
                            s.mean_hops, s.throughput});
  }
  {
    net::VcSimParams params;
    params.policy = policy;
    net::VcPacketSim sim(topo, params, 1);
    const auto s = sim.run_synthetic(pattern, q.load, q.packets);
    resp.engines.push_back({"credit/VC", s.deadlocked, s.mean_latency, s.p99_latency,
                            s.mean_hops, s.throughput});
  }
  return resp;
}

// A bare Session has no serving counters; the server intercepts
// StatsRequest before dispatch and fills this in from its atomics. The
// zeroed answer here keeps the in-process (CLI) path total.
Response Session::on(const StatsRequest&) { return StatsResponse{}; }

// ---------------------------------------------------------------------------
// Encoded entry point (shared by serve shards and the protocol tests).
// ---------------------------------------------------------------------------

// dfv-lint: allow(contract): decode_request IS the validation; failures map to errors
std::string handle_encoded(Session& session, std::string_view bytes) {
  Request req;
  try {
    req = decode_request(bytes);
  } catch (const VersionError& e) {
    return encode_response(Response{ErrorResponse{ErrorCode::VersionMismatch, e.what()}});
  } catch (const ContractError& e) {
    return encode_response(Response{ErrorResponse{ErrorCode::BadRequest, e.what()}});
  }
  return encode_response(session.handle(req));
}

}  // namespace dfv::api
