// Workload `campaign`: generate Cori-scale campaigns cold, from the
// seed, into an empty cache directory with sim::run_campaign_cached.
//
// A run generates a fixed number of distinct one-day campaigns (six runs
// each, one per dataset) whose seeds are drawn from the workload seed,
// and reports the mean of the middle half of their times. A campaign's
// content moves its time by up to a factor of two (1.2-2.3 s on one
// host), and that draw, not the host, set most of the spread between
// seeds: over three sets of ten seeds, seed 2's median of 13 campaigns
// read 1.73, 1.80 and 1.52 s against seed 1's 1.39, 1.33 and 1.27 s. So
// a run spreads its time over many small campaigns rather than repeating
// a few large ones, and averages the middle half, which uses more of
// them than the median while a host stall in one campaign still drops
// out. The count follows from --seconds, so for a given --seconds the
// work is a pure function of the seed. The output digest
// covers the first kMinCampaigns campaigns, which every run makes; the
// first campaign is generated once more at the end, off the clock, and
// must reproduce its digest.
//
// Set-up (timed apart): one sim::Cluster for the machine — topology,
// flow model and scheduler construction — built back to back for a
// slice of time before every campaign and after the last one, so that its
// samples span the run.
//
// Traced run: after the untraced campaigns, the first campaign's loop is
// driven through sim::Cluster's public calls on the same machine, app
// models and seed, with a span around each call (sched, net, sim), and
// the result is published with the cache's own writer. The driven runs
// must equal that campaign's runs, so the layer spans measure the real
// work.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <span>

#include "apps/registry.hpp"
#include "common.hpp"
#include "common/integrity.hpp"
#include "common/rng.hpp"
#include "sched/workload.hpp"
#include "sim/campaign.hpp"

namespace pb {

namespace {

using namespace dfv;

constexpr int kDays = 1;
constexpr double kSetupSliceS = 0.05;  ///< of Cluster constructions between campaigns
constexpr int kSetupMinReps = 8;
/// Campaigns per run: one per kSecondsPerCampaign of --seconds, at least
/// kMinCampaigns. A campaign takes 1.2-2.3 s on a 4-vCPU Xeon VM.
constexpr double kSecondsPerCampaign = 1.25;
constexpr int kMinCampaigns = 4;

/// Remove and re-create an empty directory.
void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

/// The scheduler population sim::run_campaign builds: the default users
/// with job sizes clamped to the machine, plus the campaign account's own
/// background jobs. A drift from the generator shows as a digest mismatch
/// in the traced run.
std::vector<sched::UserArchetype> population(const sim::CampaignConfig& cfg) {
  auto users = sched::default_user_population(cfg.quiet_users);
  for (auto& u : users) {
    u.min_nodes = std::min(u.min_nodes, cfg.max_bg_job_nodes);
    u.max_nodes = std::min(u.max_nodes, cfg.max_bg_job_nodes);
  }
  sched::UserArchetype u;
  u.user_id = sched::kCampaignUserId;
  u.description = "controlled experiments (this study)";
  u.jobs_per_day = 5.0;
  u.min_nodes = std::min(128, cfg.max_bg_job_nodes);
  u.max_nodes = std::min(512, cfg.max_bg_job_nodes);
  u.duration_mean_s = 700.0;
  u.duration_sigma = 0.25;
  u.traffic.net_bytes_per_node_per_s = 0.5e9;
  u.traffic.io_bytes_per_node_per_s = 0.01e9;
  u.traffic.pattern = sched::BgPattern::NearestNeighbor;
  users.push_back(u);
  return users;
}

/// Digest of one run's measured content (everything but the
/// neighborhood, which the campaign fills from sacct afterwards).
void digest_run(Digest& d, const sim::RunRecord& run) {
  d.u64(std::uint64_t(run.job_id));
  d.f64(run.submit_time_s);
  d.f64(run.start_time_s);
  d.f64(run.end_time_s);
  d.u64(std::uint64_t(run.num_routers));
  d.u64(std::uint64_t(run.num_groups));
  for (double t : run.step_times) d.f64(t);
  for (const auto& c : run.step_counters) d.bytes(c.data(), sizeof(double) * c.size());
  for (const auto& l : run.step_ldms) {
    d.bytes(l.io.data(), sizeof(double) * l.io.size());
    d.bytes(l.sys.data(), sizeof(double) * l.sys.size());
  }
  d.f64(run.profile.compute_s);
  d.bytes(run.profile.routine_s.data(), sizeof(double) * run.profile.routine_s.size());
  d.bytes(run.step_quality.data(), run.step_quality.size());
  d.u64(run.profile_missing ? 1 : 0);
}

std::string digest_campaign(const sim::CampaignResult& r, bool with_neighborhood) {
  Digest d;
  for (const auto& ds : r.datasets) {
    d.str(ds.spec.label());
    for (const auto& run : ds.runs) {
      digest_run(d, run);
      if (with_neighborhood)
        for (int u : run.neighborhood_users) d.u64(std::uint64_t(u));
    }
  }
  return d.hex();
}

/// The campaign loop of sim::run_campaign, one public call per span.
std::vector<sim::Dataset> drive_cluster(const sim::CampaignConfig& cfg, Tracer& tracer) {
  std::unique_ptr<sim::Cluster> cluster;
  {
    auto s = tracer.span("sim.cluster_init");
    cluster = std::make_unique<sim::Cluster>(cfg.machine, cfg.cluster, population(cfg),
                                             cfg.seed);
  }
  Rng rng(hash_combine(cfg.seed, 0xca3b));
  std::vector<std::unique_ptr<apps::AppModel>> models;
  std::vector<sim::Dataset> out(cfg.datasets.size());
  for (std::size_t i = 0; i < cfg.datasets.size(); ++i) {
    out[i].spec = cfg.datasets[i];
    models.push_back(apps::make_app(cfg.datasets[i].app, cfg.datasets[i].nodes));
  }
  {
    auto s = tracer.span("sched.advance");
    cluster->slurm().advance_to(cfg.warmup_days * 86400.0);
  }
  struct Submission {
    double time;
    std::size_t dataset;
  };
  std::vector<Submission> schedule;
  for (int day = 0; day < cfg.days; ++day) {
    const double day_start = (cfg.warmup_days + double(day)) * 86400.0;
    for (std::size_t i = 0; i < cfg.datasets.size(); ++i) {
      int count = 1;
      if (cfg.jobs_per_day > 1.0 && rng.bernoulli(cfg.jobs_per_day - 1.0)) count = 2;
      for (int j = 0; j < count; ++j)
        schedule.push_back({day_start + rng.uniform(0.0, 86400.0), i});
    }
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Submission& a, const Submission& b) { return a.time < b.time; });
  for (const Submission& sub : schedule) {
    if (sub.time > cluster->slurm().now()) {
      const double gap = sub.time - cluster->slurm().now();
      {
        auto s = tracer.span("sched.advance");
        cluster->slurm().advance_to(sub.time);
        cluster->slurm().step_intensities(gap);
      }
      cluster->invalidate_background();
      auto s = tracer.span("net.background_route");
      (void)cluster->background_loads();
    }
    auto s = tracer.span("sim.run_app");
    out[sub.dataset].runs.push_back(cluster->run_app(*models[sub.dataset]));
  }
  return out;
}

}  // namespace

Result run_campaign(const Options& o, Tracer& tracer) {
  Result res;
  if (o.prepare) return res;  // nothing is made before timing
  // One job a day per dataset: 6 runs in every campaign.
  const int campaigns =
      std::max(kMinCampaigns, int(std::lround(o.seconds / kSecondsPerCampaign)));
  std::vector<sim::CampaignConfig> cfgs;
  for (int k = 0; k < campaigns; ++k)
    cfgs.push_back(sim::CampaignConfig::cori()
                       .seed(hash_combine(o.seed, std::uint64_t(k)))
                       .days(kDays)
                       .jobs_per_day(1.0)
                       .build());
  const sim::CampaignConfig& cfg = cfgs.front();
  const std::string cache = o.work_dir + "/campaign-cache";

  std::vector<double> setup;
  const auto build_cluster = [&] {
    const sim::Cluster cluster(cfg.machine, cfg.cluster, population(cfg), cfg.seed);
  };

  // Every campaign cold, into an emptied cache.
  std::vector<double> wall;
  Digest all;
  std::string first_digest, runs_digest;
  std::uint64_t runs = 0, steps = 0;
  double cpu = 0.0;
  for (const sim::CampaignConfig& c : cfgs) {
    time_repeatedly(setup, kSetupSliceS, kSetupMinReps, build_cluster);
    fresh_dir(cache);
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    const sim::CampaignResult r = sim::run_campaign_cached(c, cache);
    wall.push_back(since(t0));
    cpu += process_cpu_s() - c0;
    ++res.attempted;
    const std::string digest = digest_campaign(r, true);
    if (wall.size() <= std::size_t(kMinCampaigns)) all.str(digest);
    for (const auto& ds : r.datasets) {
      runs += ds.runs.size();
      for (const auto& run : ds.runs) steps += std::uint64_t(run.steps());
    }
    if (first_digest.empty()) {
      first_digest = digest;
      runs_digest = digest_campaign(r, false);
    }
  }
  time_repeatedly(setup, kSetupSliceS, kSetupMinReps, build_cluster);
  res.check(runs == 6 * std::uint64_t(campaigns), "a campaign did not make six runs");
  res.digest = all.hex();
  {
    fresh_dir(cache);
    ++res.attempted;
    if (digest_campaign(sim::run_campaign_cached(cfg, cache), true) != first_digest) {
      ++res.failed;
      res.check(false, "repeating a campaign changed its output digest");
    }
  }
  std::vector<double> sorted = wall;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t quarter = sorted.size() / 4;
  const double campaign_s =
      dfv::stats::mean(std::span(sorted).subspan(quarter, sorted.size() - 2 * quarter));
  res.extra_json = "{\"campaign_s\":[";
  for (std::size_t i = 0; i < wall.size(); ++i) {
    if (i) res.extra_json += ',';
    res.extra_json += json_number(wall[i]);
  }
  res.extra_json += "]}";
  double wall_sum = 0.0;
  for (double w : wall) wall_sum += w;

  if (!tracer.enabled()) {
    res.metric("setup_s", median(setup), "s", setup.size());
    res.metric("latency_ms", 1e3 * campaign_s, "ms", wall.size());
    res.name("setup_s", median(setup), "s", setup.size());
    res.name("campaign_s", campaign_s, "s", wall.size());
    return res;
  }

  // Traced pass: the same campaign through the cluster's public calls.
  std::vector<sim::Dataset> driven;
  {
    auto s = tracer.span("campaign");
    driven = drive_cluster(cfg, tracer);
    fresh_dir(cache);
    auto p = tracer.span("sim.cache_publish");
    bool ok = true;
    for (const auto& ds : driven)
      ok = sim::save_dataset(ds, cache + "/" + ds.spec.label() + ".csv") && ok;
    ok = atomic_write_file(cache + "/META", "format=perfbench\n") && ok;
    res.check(ok, "publishing the campaign failed");
  }
  sim::CampaignResult as_result;
  as_result.datasets = std::move(driven);
  res.check(digest_campaign(as_result, false) == runs_digest,
            "driven cluster loop diverged from sim::run_campaign");
  const double layers_s = tracer.total_s("sim.cluster_init") + tracer.total_s("sched.advance") +
                          tracer.total_s("net.background_route") +
                          tracer.total_s("sim.run_app") + tracer.total_s("sim.cache_publish");
  res.layer("sched.advance_s", tracer.total_s("sched.advance"), "s");
  res.layer("net.background_route_s", tracer.total_s("net.background_route"), "s");
  res.layer("sim.run_app_s", tracer.total_s("sim.run_app"), "s");
  res.layer("sim.cache_publish_s", tracer.total_s("sim.cache_publish"), "s");
  res.layer("sim.layer_gap_s", wall.front() - layers_s, "s");
  res.layer("exec.cpu_util", cpu / (wall_sum * double(o.width)), "ratio");
  res.layer("sim.runs", double(runs), "count");
  res.layer("sim.steps", double(steps), "count");
  return res;
}

}  // namespace pb
