// Workload `study`: the paper's analyses over a prebuilt small-machine
// campaign (60 runs per dataset), answered by a fresh api::Session.
//
// Before timing (a separate `--prepare` process) the campaign is
// generated once per seed into the benchmark's cache directory. Set-up
// is the cache-open path, api::ResidentCampaign::load, timed a few times
// before every pass and after the last. One pass is, on a new Session
// sharing the campaign opened last:
//   NeighborhoodRequest and DeviationRequest on every dataset,
//   ForecastGridRequest for the Fig. 10 grid on MILC and the Fig. 8 grid
//     on AMG (every cell of it fits AMG's 20 steps),
//   SimulateRequest for {uniform, adversarial, hotspot} x
//     {minimal, valiant, ugal}.
// `ml`/`analysis` training and the packet engines do the work; `sim`
// only opens the cache.
//
// Peak RSS is read per pass, from a trimmed heap and a reset high-water
// mark, and the median pass is reported: read over the whole process it
// went from 35 to 40 MB between runs of one seed, depending on how freed
// blocks of earlier passes and cache opens were laid out in the heap.
#include <variant>

#include "api/session.hpp"
#include "api/wire.hpp"
#include "common.hpp"

namespace pb {

namespace {

using namespace dfv;

/// 60 runs per dataset: a pass takes 9-11 s at pool width 1 on a 4-vCPU
/// Xeon VM (170 runs took 30 s), so that a run holds at least two.
constexpr int kDays = 30;
constexpr int kSetupPerPass = 4;
constexpr int kMinPasses = 2;

api::SessionOptions session_options(const Options& o) {
  api::SessionOptions opt;
  // Two jobs a day: 60 runs per dataset for every seed.
  opt.config = sim::CampaignConfig::small_machine(o.seed).days(kDays).jobs_per_day(2.0).build();
  opt.cache_dir = o.work_dir + "/study-cache";
  return opt;
}

struct Call {
  const char* span;  ///< layer span the request exercises
  api::Request request;
};

std::vector<Call> study_requests(const sim::CampaignConfig& cfg) {
  using analysis::FeatureSet;
  std::vector<Call> calls;
  for (const auto& d : cfg.datasets) {
    calls.push_back({"analysis.neighborhood",
                     api::NeighborhoodRequest{}.app(d.app).nodes(d.nodes)});
    calls.push_back({"analysis.deviation", api::DeviationRequest{}.app(d.app).nodes(d.nodes)});
  }
  api::ForecastGridRequest milc = api::ForecastGridRequest{}.app("MILC").nodes(128);
  for (int k : {20, 40})
    for (int m : {10, 30})
      for (FeatureSet fs : {FeatureSet::App, FeatureSet::AppPlacement,
                            FeatureSet::AppPlacementIo, FeatureSet::AppPlacementIoSys})
        milc.cell({m, k, fs});
  api::ForecastGridRequest amg = api::ForecastGridRequest{}.app("AMG").nodes(128);
  for (int k : {5, 10})
    for (int m : {3, 8})
      for (FeatureSet fs : {FeatureSet::App, FeatureSet::AppPlacement}) amg.cell({m, k, fs});
  calls.push_back({"analysis.forecast_grid", milc});
  calls.push_back({"analysis.forecast_grid", amg});
  for (const char* pattern : {"uniform", "adversarial", "hotspot"})
    for (const char* policy : {"minimal", "valiant", "ugal"})
      calls.push_back(
          {"net.simulate", api::SimulateRequest{}.traffic(pattern).routing(policy)});
  return calls;
}

}  // namespace

Result run_study(const Options& o, Tracer& tracer) {
  Result res;
  const api::SessionOptions opt = session_options(o);
  if (o.prepare) {
    (void)sim::run_campaign_cached(opt.config, opt.cache_dir);
    return res;
  }

  std::vector<double> setup;
  std::shared_ptr<const api::ResidentCampaign> campaign;
  const auto open_campaign = [&] {
    campaign.reset();
    auto s = tracer.span("sim.cache_open");
    campaign = api::ResidentCampaign::load(opt);
  };
  std::size_t runs = 0;

  const std::vector<Call> calls = study_requests(opt.config);
  std::vector<double> wall, pass_rss;
  double cpu = 0.0;
  Tracer off(false);
  const auto window = Clock::now();
  // A traced run makes one untraced pass, then one traced pass.
  while (int(wall.size()) < (tracer.enabled() ? 2 : kMinPasses) ||
         (!tracer.enabled() && since(window) < o.seconds)) {
    Tracer& t = tracer.enabled() && wall.size() == 1 ? tracer : off;
    time_repeatedly(setup, 0.0, kSetupPerPass, open_campaign);
    if (runs == 0) {
      for (const auto& ds : campaign->result().datasets) runs += ds.num_runs();
      res.check(runs > 0, "study campaign has no runs");
    }
    Digest d;
    res.check(reset_peak_rss(), "cannot reset the peak resident set");
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    {
      auto s = t.span("study");
      api::Session session(opt, campaign);
      for (const Call& c : calls) {
        auto cs = t.span(c.span);
        const api::Response r = session.handle(c.request);
        ++res.attempted;
        if (std::holds_alternative<api::ErrorResponse>(r)) {
          ++res.failed;
          res.check(false, "study request failed: " + std::get<api::ErrorResponse>(r).message);
        }
        d.str(api::encode_response(r));
      }
    }
    wall.push_back(since(t0));
    cpu += process_cpu_s() - c0;
    pass_rss.push_back(peak_rss_mb());
    if (res.digest.empty()) {
      res.digest = d.hex();
    } else if (d.hex() != res.digest) {
      res.check(false, "study pass changed the output digest");
    }
  }
  time_repeatedly(setup, 0.0, kSetupPerPass, open_campaign);

  if (!tracer.enabled()) {
    const double study_s = median(wall);
    res.metric("setup_s", median(setup), "s", setup.size());
    res.metric("peak_rss_mb", median(pass_rss), "MB", pass_rss.size());
    res.metric("latency_ms", 1e3 * study_s, "ms", wall.size());
    res.name("setup_s", median(setup), "s", setup.size());
    res.name("peak_rss_mb", median(pass_rss), "MB", pass_rss.size());
    res.name("study_s", study_s, "s", wall.size());
    return res;
  }

  const auto span_s = [&](const char* name) { return tracer.total_s(name); };
  res.layer("sim.cache_open_s", median(setup), "s", setup.size());
  res.layer("analysis.neighborhood_s", span_s("analysis.neighborhood"), "s");
  res.layer("analysis.deviation_s", span_s("analysis.deviation"), "s");
  res.layer("analysis.forecast_grid_s", span_s("analysis.forecast_grid"), "s");
  res.layer("net.simulate_s", span_s("net.simulate"), "s");
  double wall_sum = 0.0;
  for (double w : wall) wall_sum += w;
  res.layer("exec.cpu_util", cpu / (wall_sum * double(o.width)), "ratio");
  res.layer("sim.runs", double(runs), "count");
  return res;
}

}  // namespace pb
