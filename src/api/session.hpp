// dfv::api::Session — resident query state behind Session::handle().
//
// A Session owns (or shares) one loaded campaign plus every model the
// requests need: deviation GBR/RFE results, forecast evaluations, and
// the attention forecasters behind the point-forecast hot path, all
// memoized after first use. The CLI builds one Session per invocation;
// `dfv serve` builds one Session that every shard thread calls, so N
// shards hold one copy of the data and one copy of every fitted model.
//
// Thread safety: handle() may be called from any number of threads at
// once. Each cached artifact is built exactly once, outside the cache's
// map lock (concurrent callers of one key wait for that build); a build
// that throws leaves no entry behind, and built entries are never
// erased, so a reference into a cache stays valid for the Session's
// life.
//
// Determinism: every cached artifact is produced by the deterministic
// analysis / ml layers, so any two sessions over the same options answer
// any request sequence bit-identically, whichever thread built what.
// This is the property that lets test_serve demand byte-identical wire
// payloads from 1-shard and 8-shard servers.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "analysis/window_cache.hpp"
#include "api/api.hpp"
#include "sim/campaign.hpp"

namespace dfv::api {

/// How to build (or find in a cache directory) the resident campaign.
struct SessionOptions {
  sim::CampaignConfig config;
  std::string cache_dir;
  faults::RepairPolicy repair = faults::RepairPolicy::Repair;
  /// Cache entry format: Store opens resident campaigns by mmap (large
  /// campaigns stay off-heap until a dataset is materialized); Auto
  /// prefers an existing store entry and otherwise picks by size.
  sim::CacheFormat cache_format = sim::CacheFormat::Auto;
};

/// One campaign loaded into memory, repaired per policy, then immutable.
/// Sessions over the same options may share a single instance read-only.
class ResidentCampaign {
 public:
  /// Generate (or load from `opt.cache_dir`) and repair the campaign.
  /// Validates the config; throws ContractError on nonsense.
  [[nodiscard]] static std::shared_ptr<const ResidentCampaign> load(
      const SessionOptions& opt);

  [[nodiscard]] const sim::CampaignConfig& config() const noexcept { return config_; }
  [[nodiscard]] const sim::CampaignResult& result() const noexcept { return result_; }
  /// Per-dataset repair outcomes (empty when faults are off).
  [[nodiscard]] const std::vector<sim::RepairReport>& repair_reports() const noexcept {
    return repair_reports_;
  }
  [[nodiscard]] const sim::Dataset& dataset(const std::string& app, int nodes) const {
    return result_.dataset(app, nodes);
  }

 private:
  ResidentCampaign() = default;
  sim::CampaignConfig config_;
  sim::CampaignResult result_;
  std::vector<sim::RepairReport> repair_reports_;
};

class Session {
 public:
  /// A session owning its campaign (loaded lazily on the first request
  /// that needs one — stateless requests never pay for it).
  explicit Session(SessionOptions opt);

  /// A session sharing an already-loaded campaign (the server path).
  /// `campaign` may be null, in which case it loads lazily.
  Session(SessionOptions opt, std::shared_ptr<const ResidentCampaign> campaign);

  // Out-of-line: the caches are an incomplete type here.
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const SessionOptions& options() const noexcept { return opt_; }

  /// Answer any request; safe to call concurrently. Never throws: a
  /// ContractError surfaces as ErrorResponse{Contract}, anything else as
  /// ErrorResponse{Internal}.
  [[nodiscard]] Response handle(const Request& req);

  /// The resident campaign, loading it on first use (once, whichever
  /// thread asks first).
  [[nodiscard]] const ResidentCampaign& campaign();

 private:
  struct ResidentForecaster;
  struct Caches;

  [[nodiscard]] Response dispatch(const Request& req);
  [[nodiscard]] Response on(const CampaignSummaryRequest& q);
  [[nodiscard]] Response on(const ExportRequest& q);
  [[nodiscard]] Response on(const RunLookupRequest& q);
  [[nodiscard]] Response on(const NeighborhoodRequest& q);
  [[nodiscard]] Response on(const DeviationRequest& q);
  [[nodiscard]] Response on(const ForecastRequest& q);
  [[nodiscard]] Response on(const ForecastEvalRequest& q);
  [[nodiscard]] Response on(const ForecastGridRequest& q);
  [[nodiscard]] Response on(const TopologyRequest& q);
  [[nodiscard]] Response on(const SimulateRequest& q);
  [[nodiscard]] Response on(const StatsRequest& q);

  [[nodiscard]] const sim::Dataset& dataset(const std::string& app, int nodes);
  /// Per-dataset step-feature tables, built once and reused by every
  /// forecast request against that dataset.
  [[nodiscard]] const analysis::StepFeatureCache& feature_cache(const std::string& app,
                                                                int nodes);
  /// The resident attention model for one (app, nodes, window) key,
  /// trained on first use.
  [[nodiscard]] const ResidentForecaster& forecaster(const std::string& app, int nodes,
                                                     const analysis::WindowConfig& wcfg);

  SessionOptions opt_;
  std::shared_ptr<const ResidentCampaign> campaign_;  ///< set once, under Caches::campaign_mu
  /// Build-once model/result caches keyed by deterministic strings.
  std::unique_ptr<Caches> caches_;
};

/// Server-side request path: decode `bytes`, dispatch on `session`,
/// encode the result. A malformed payload becomes ErrorResponse
/// {BadRequest} and a version mismatch ErrorResponse{VersionMismatch};
/// the return value is always exactly one encoded Response.
[[nodiscard]] std::string handle_encoded(Session& session, std::string_view bytes);

}  // namespace dfv::api
