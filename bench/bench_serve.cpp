// memtier-style load generator for `dfv serve`: start an in-process
// sharded server, hammer it with closed-loop client threads over real
// loopback TCP, and report aggregate QPS plus p50/p99/p999 latency for
// the two serving hot paths (run lookup and point forecast).
//
//   bench_serve [--shards N] [--clients N] [--seconds S] [--json PATH]
//
// Each client owns one connection with strict request/response
// alternation (exactly the protocol contract), so QPS scales with the
// client count and the latency numbers are honest per-request round
// trips. Every reply is decoded, and any ErrorResponse fails the run
// (exit 1): a refused request measures nothing. scripts/bench.sh serve
// merges the JSON into BENCH_serve.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.hpp"
#include "api/wire.hpp"
#include "apps/registry.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "serve/chaos.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace {

using namespace dfv;

struct Options {
  int shards = 8;
  int clients = 16;
  double seconds = 3.0;
  std::string json_path;
};

struct PhaseResult {
  std::string name;
  std::uint64_t requests = 0;
  double elapsed_s = 0.0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
};

double percentile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto n = sorted_us.size();
  std::size_t idx = std::size_t(q * double(n));
  if (idx >= n) idx = n - 1;
  return sorted_us[idx];
}

/// The request each client issues on iteration `i`: a rotation over run
/// indices so all shards see traffic (and no RNG, per the determinism
/// conventions — the load pattern is identical run to run).
api::Request lookup_request(std::uint64_t i) {
  return api::RunLookupRequest{}
      .app(i % 2 ? "UMT" : "MILC")
      .nodes(128)
      .run(std::uint32_t(i % 8));
}

/// Forecast window per dataset: `m` history steps, `k` forecast steps.
/// Each must fit its application's run (m + k <= steps; UMT has 7), which
/// main() checks against the app models before any request is sent.
struct ForecastShape {
  const char* app;
  int m;
  int k;
};
constexpr ForecastShape kForecastShapes[] = {{"MILC", 10, 20}, {"UMT", 3, 3}};

/// Window centers t (history [t - m, t)) per dataset, filled by main():
/// up to 20 positions with t + k inside the run.
int forecast_centers[std::size(kForecastShapes)] = {};

api::Request forecast_request(std::uint64_t i) {
  const std::size_t d = std::size_t(i % 2);
  const ForecastShape& f = kForecastShapes[d];
  return api::ForecastRequest{}
      .app(f.app)
      .nodes(128)
      .run(std::uint32_t(i % 8))
      .center(f.m + int((i / 2) % std::uint64_t(forecast_centers[d])))
      .m(f.m)
      .k(f.k);
}

/// Error replies of one phase: a phase whose requests are refused has
/// measured nothing, so any ErrorResponse fails it.
struct ReplyCheck {
  std::atomic<std::uint64_t> errors{0};
  std::mutex mu;
  std::string first;  ///< guarded by mu

  void check(const std::string& raw) {
    DFV_CHECK_MSG(!raw.empty(), "bench_serve: empty response payload");
    const api::Response resp = api::decode_response(raw);
    const auto* err = std::get_if<api::ErrorResponse>(&resp);
    if (err == nullptr) return;
    if (errors.fetch_add(1) == 0) {
      std::lock_guard<std::mutex> lock(mu);
      first = std::string(api::to_string(err->code)) + ": " + err->message;
    }
  }
  void require_none(const std::string& phase) {
    std::lock_guard<std::mutex> lock(mu);
    DFV_CHECK_MSG(errors.load() == 0, "bench_serve: phase " << phase << " got "
                                                            << errors.load()
                                                            << " error responses, first: "
                                                            << first);
  }
};

template <typename MakeReq>
PhaseResult run_phase(const std::string& name, const Options& opt, std::uint16_t port,
                      MakeReq make_req) {
  DFV_CHECK_MSG(opt.clients >= 1, "bench_serve needs at least one client");
  std::atomic<bool> go{false};
  std::atomic<bool> halt{false};
  std::vector<std::vector<double>> latencies(std::size_t(opt.clients));
  std::vector<std::thread> threads;
  threads.reserve(std::size_t(opt.clients));
  ReplyCheck replies;

  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client;
      DFV_CHECK_MSG(client.connect(port) == std::nullopt, "bench_serve: handshake failed");
      // Warmup outside the timed window: touch every key in the rotation
      // so shard-resident models are trained before measurement.
      for (std::uint64_t i = 0; i < 16; ++i)
        replies.check(
            client.call_raw(make_req(i * std::uint64_t(opt.clients) + std::uint64_t(c))));
      auto& lat = latencies[std::size_t(c)];
      lat.reserve(1u << 16);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t i = std::uint64_t(c);
      while (!halt.load(std::memory_order_relaxed)) {
        const api::Request req = make_req(i++);
        const auto t0 = std::chrono::steady_clock::now();
        const std::string raw = client.call_raw(req);
        const auto t1 = std::chrono::steady_clock::now();
        lat.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        replies.check(raw);
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  halt.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  replies.require_none(name);

  std::vector<double> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());

  PhaseResult r;
  r.name = name;
  r.requests = all.size();
  r.elapsed_s = elapsed;
  r.qps = elapsed > 0.0 ? double(all.size()) / elapsed : 0.0;
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  r.p999_us = percentile(all, 0.999);
  return r;
}

/// Degraded mode: the same closed-loop lookup workload, but through a
/// seeded chaos proxy (5% of event points delay, 1% hard-disconnect)
/// with the retrying client absorbing the faults. The latency numbers
/// therefore include reconnects and backoff sleeps — that is the point:
/// this phase tracks what a caller experiences when the network
/// misbehaves, and BENCH_serve.json keeps it honest release to release.
PhaseResult run_degraded_phase(const Options& opt, std::uint16_t proxy_port) {
  DFV_CHECK_MSG(opt.clients >= 1, "bench_serve needs at least one client");
  std::atomic<bool> go{false};
  std::atomic<bool> halt{false};
  std::vector<std::vector<double>> latencies(std::size_t(opt.clients));
  std::vector<std::thread> threads;
  threads.reserve(std::size_t(opt.clients));
  ReplyCheck replies;

  for (int c = 0; c < opt.clients; ++c) {
    threads.emplace_back([&, c] {
      serve::RetryPolicy policy;
      policy.timeout_ms = 5000;
      policy.jitter_seed = 0x9e3779b9u + std::uint32_t(c);  // distinct backoff streams
      serve::RetryClient client(proxy_port, policy);
      for (std::uint64_t i = 0; i < 16; ++i)
        replies.check(client.call_raw(
            lookup_request(i * std::uint64_t(opt.clients) + std::uint64_t(c))));
      auto& lat = latencies[std::size_t(c)];
      lat.reserve(1u << 16);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t i = std::uint64_t(c);
      while (!halt.load(std::memory_order_relaxed)) {
        const api::Request req = lookup_request(i++);
        const auto t0 = std::chrono::steady_clock::now();
        const std::string raw = client.call_raw(req);
        const auto t1 = std::chrono::steady_clock::now();
        lat.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
        replies.check(raw);
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(opt.seconds));
  halt.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  replies.require_none("degraded_lookup");

  std::vector<double> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  std::sort(all.begin(), all.end());

  PhaseResult r;
  r.name = "degraded_lookup";
  r.requests = all.size();
  r.elapsed_s = elapsed;
  r.qps = elapsed > 0.0 ? double(all.size()) / elapsed : 0.0;
  r.p50_us = percentile(all, 0.50);
  r.p99_us = percentile(all, 0.99);
  r.p999_us = percentile(all, 0.999);
  return r;
}

void print_phase(const PhaseResult& r) {
  std::cout << r.name << ": " << std::uint64_t(r.qps) << " QPS (" << r.requests
            << " requests / " << r.elapsed_s << " s)  p50 " << r.p50_us << " us  p99 "
            << r.p99_us << " us  p999 " << r.p999_us << " us\n";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void write_json(const std::string& path, const Options& opt,
                const std::vector<PhaseResult>& phases) {
  std::ofstream out(path);
  DFV_CHECK_MSG(out.good(), "bench_serve: cannot open " << path);
  out << "{\n  \"shards\": " << opt.shards << ",\n  \"clients\": " << opt.clients;
  for (const auto& r : phases) {
    out << ",\n  \"" << r.name << "_qps\": " << json_number(r.qps)          //
        << ",\n  \"" << r.name << "_p50_us\": " << json_number(r.p50_us)    //
        << ",\n  \"" << r.name << "_p99_us\": " << json_number(r.p99_us)    //
        << ",\n  \"" << r.name << "_p999_us\": " << json_number(r.p999_us)  //
        << ",\n  \"" << r.name << "_requests\": " << r.requests;
  }
  out << "\n}\n";
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      DFV_CHECK_MSG(i + 1 < argc, "bench_serve: " << arg << " needs a value");
      return argv[++i];
    };
    if (arg == "--shards") opt.shards = std::stoi(next());
    else if (arg == "--clients") opt.clients = std::stoi(next());
    else if (arg == "--seconds") opt.seconds = std::stod(next());
    else if (arg == "--json") opt.json_path = next();
    else DFV_CHECK_MSG(false, "bench_serve: unknown argument " << arg);
  }
  return opt;
}

/// The whole benchmark; throws on any failed phase.
int run(const Options& opt) {
  serve::ServerOptions sopt;
  sopt.shards = opt.shards;
  sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
  cfg.days = 8;
  cfg.datasets = {{"MILC", 128}, {"UMT", 128}};
  sopt.session.config = cfg;

  for (std::size_t d = 0; d < std::size(kForecastShapes); ++d) {
    const ForecastShape& f = kForecastShapes[d];
    const int steps = apps::make_app(f.app, 128)->info().time_steps;
    DFV_CHECK_MSG(f.m >= 1 && f.k >= 1 && f.m + f.k <= steps,
                  "bench_serve: forecast window m=" << f.m << " k=" << f.k << " does not fit "
                                                    << f.app << "'s " << steps << " steps");
    forecast_centers[d] = std::min(20, steps - f.k - f.m + 1);
  }

  serve::Server server(std::move(sopt));
  server.start();
  std::cout << "bench_serve: " << opt.shards << " shards, " << opt.clients
            << " closed-loop clients, " << opt.seconds << " s per phase\n";

  std::vector<PhaseResult> phases;
  phases.push_back(run_phase("run_lookup", opt, server.port(), lookup_request));
  print_phase(phases.back());
  phases.push_back(run_phase("forecast", opt, server.port(), forecast_request));
  print_phase(phases.back());

  {
    serve::chaos::ChaosSpec spec;
    spec.seed = 20260808;  // fixed: the fault schedule is part of the benchmark
    spec.delay_prob = 0.05;
    spec.disconnect_prob = 0.01;
    spec.delay_min_ms = 1;
    spec.delay_max_ms = 3;
    serve::chaos::Proxy proxy(spec, server.port());
    proxy.start();
    phases.push_back(run_degraded_phase(opt, proxy.port()));
    print_phase(phases.back());
    proxy.stop();
    const auto ps = proxy.stats();
    std::cout << "chaos: " << ps.connections << " connections, " << ps.delays
              << " delays, " << ps.disconnects << " disconnects\n";
  }

  server.stop();
  const auto stats = server.stats();
  std::cout << "server: " << stats.requests << " requests, " << stats.local
            << " answered, " << stats.shed_overload << " shed\n";

  if (!opt.json_path.empty()) write_json(opt.json_path, opt, phases);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << e.what() << '\n';
    return 1;
  }
}
