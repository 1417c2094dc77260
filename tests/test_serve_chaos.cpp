// The dfv serve robustness layer under deterministic network chaos:
// a retrying client completes a fixed workload byte-identical to the
// fault-free run while a seeded chaos::Proxy injects delays,
// truncations, disconnects, and resets; the admission gate sheds with
// structured Overloaded errors whose count matches the server's own
// counters; deadlines expire as structured errors; stalled peers are
// evicted; and a drain-timeout expiry answers still-pending requests
// with ShuttingDown instead of silently dropping them.
//
// Everything here runs under TSan in tier-1 (the `chaos` stage).
#include "serve/chaos.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/wire.hpp"
#include "common/log.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace dfv::serve {
namespace {

api::SessionOptions small_options() {
  api::SessionOptions opt;
  sim::CampaignConfig cfg = sim::CampaignConfig::small(2026);
  cfg.days = 8;
  cfg.datasets = {{"MILC", 128}, {"UMT", 128}};
  opt.config = cfg;
  return opt;
}

std::shared_ptr<const api::ResidentCampaign> shared_campaign() {
  static std::shared_ptr<const api::ResidentCampaign> campaign =
      api::ResidentCampaign::load(small_options());
  return campaign;
}

ServerOptions server_options(int shards) {
  ServerOptions opt;
  opt.shards = shards;
  opt.session = small_options();
  opt.campaign = shared_campaign();
  return opt;
}

/// The fixed chaos workload: run-scoped, dataset-scoped, stateless, and
/// one guaranteed contract violation, every response deterministic.
std::vector<api::Request> workload() {
  std::vector<api::Request> reqs;
  for (std::uint32_t r = 0; r < 8; ++r)
    reqs.push_back(api::RunLookupRequest{}.app(r % 2 ? "UMT" : "MILC").nodes(128).run(r % 4));
  reqs.push_back(api::NeighborhoodRequest{}.app("MILC").nodes(128));
  reqs.push_back(api::ForecastRequest{}.app("MILC").nodes(128).run(1).center(12).m(3).k(5));
  reqs.push_back(api::TopologyRequest{}.group_count(4));
  reqs.push_back(api::CampaignSummaryRequest{});
  reqs.push_back(api::RunLookupRequest{}.app("MILC").nodes(128).run(1000000));
  return reqs;
}

/// A compute-heavy request owned by the (app, nodes) dataset key —
/// enough work that millisecond deadlines reliably expire mid-handling.
api::Request heavy_grid() {
  api::ForecastGridRequest q = api::ForecastGridRequest{}.app("MILC").nodes(128);
  for (int m : {2, 3, 4, 5})
    for (int k : {4, 8, 16})
      q.cell({m, k, analysis::FeatureSet::AppPlacementIoSys});
  return q;
}

/// A one-shot gate between test and server threads: wait() blocks until
/// open() has been called once (opening twice is harmless).
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  [[nodiscard]] bool wait_for(std::chrono::milliseconds limit) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, limit, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

[[nodiscard]] std::size_t open_fd_count() {
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++n;
  }
  return n;
}

class ServeChaos : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Warn);
    (void)shared_campaign();  // load once, outside any fd accounting
  }
};

TEST(ChaosSpecContract, InvalidSpecsAreRejected) {
  chaos::ChaosSpec bad;
  bad.delay_prob = -0.1;
  EXPECT_THROW(bad.validate(), ContractError);
  chaos::ChaosSpec sums;
  sums.delay_prob = 0.6;
  sums.truncate_prob = 0.6;
  EXPECT_THROW(sums.validate(), ContractError);
  chaos::ChaosSpec delays;
  delays.delay_min_ms = 9;
  delays.delay_max_ms = 3;
  EXPECT_THROW(delays.validate(), ContractError);
}

// The acceptance test of the robustness layer: under a seeded fault mix
// the retrying client's responses are byte-identical to the fault-free
// path, the server drains cleanly, and no file descriptor leaks.
TEST_F(ServeChaos, RetriedWorkloadIsByteIdenticalUnderChaos) {
  // Fault-free expectations from an identical in-process session.
  api::Session reference(small_options(), shared_campaign());
  const auto reqs = workload();
  std::vector<std::string> expected;
  expected.reserve(reqs.size());
  for (const auto& req : reqs)
    expected.push_back(api::encode_response(reference.handle(req)));

  const std::size_t fds_before = open_fd_count();
  {
    Server server(server_options(4));
    server.start();

    chaos::ChaosSpec spec;
    spec.seed = 20260808;
    spec.delay_prob = 0.10;
    spec.truncate_prob = 0.04;
    spec.disconnect_prob = 0.03;
    spec.reset_prob = 0.03;
    spec.delay_min_ms = 1;
    spec.delay_max_ms = 3;
    spec.event_stride_bytes = 256;
    chaos::Proxy proxy(spec, server.port());
    proxy.start();

    RetryPolicy policy;
    policy.max_attempts = 12;
    policy.timeout_ms = 10'000;
    policy.backoff_base_ms = 1;
    policy.backoff_max_ms = 20;
    RetryClient client(proxy.port(), policy);

    constexpr int kRounds = 12;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(client.call_raw(reqs[i]), expected[i])
            << "round " << round << " request " << i;
      }
    }

    // The proxy actually interfered, and the client actually recovered.
    const auto ps = proxy.stats();
    EXPECT_GT(ps.delays, 0u);
    EXPECT_GT(ps.truncations + ps.disconnects + ps.resets, 0u);
    EXPECT_GT(client.stats().reconnects, 0u);
    EXPECT_EQ(client.stats().calls, std::uint64_t(kRounds) * reqs.size());

    // Clean drain: the counters stayed consistent through the faults.
    client.close();
    proxy.stop();
    server.stop();
    const auto ss = server.stats();
    EXPECT_EQ(ss.local + ss.forwarded + ss.shed_overload, ss.requests);
  }
  // Zero leaked connections or pipes across the whole scenario.
  EXPECT_EQ(open_fd_count(), fds_before);
}

// Same seed, same workload → the proxy injects the same fault schedule.
TEST_F(ServeChaos, FaultScheduleReplaysExactly) {
  Server server(server_options(2));
  server.start();

  chaos::ChaosSpec spec;
  spec.seed = 7;
  spec.delay_prob = 0.08;
  spec.truncate_prob = 0.05;
  spec.disconnect_prob = 0.04;
  spec.reset_prob = 0.03;
  spec.event_stride_bytes = 200;

  const auto reqs = workload();
  chaos::ProxyStats runs[2];
  for (int pass = 0; pass < 2; ++pass) {
    chaos::Proxy proxy(spec, server.port());
    proxy.start();
    RetryPolicy policy;
    policy.max_attempts = 12;
    policy.backoff_base_ms = 1;
    policy.backoff_max_ms = 10;
    RetryClient client(proxy.port(), policy);
    for (int round = 0; round < 4; ++round)
      for (const auto& req : reqs) (void)client.call_raw(req);
    client.close();
    proxy.stop();
    runs[pass] = proxy.stats();
  }
  server.stop();

  EXPECT_EQ(runs[0].delays, runs[1].delays);
  EXPECT_EQ(runs[0].truncations, runs[1].truncations);
  EXPECT_EQ(runs[0].disconnects, runs[1].disconnects);
  EXPECT_EQ(runs[0].resets, runs[1].resets);
  EXPECT_EQ(runs[0].bytes_forwarded, runs[1].bytes_forwarded);
  EXPECT_EQ(runs[0].connections, runs[1].connections);
}

TEST_F(ServeChaos, OverloadShedsStructuredErrorsAndCountersMatch) {
  ServerOptions opt = server_options(2);
  opt.max_inflight = 1;  // shed as soon as two forwards overlap
  opt.retry_after_ms = 7;
  Server server(std::move(opt));
  server.start();

  constexpr int kClients = 6;
  constexpr int kRounds = 60;
  std::atomic<std::uint64_t> observed{0};
  std::atomic<int> bad_hint{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client;
      if (client.connect(server.port()) != std::nullopt) {
        unexpected.fetch_add(1000);
        return;
      }
      for (int r = 0; r < kRounds; ++r) {
        // ~half of these forward across the two shards; every fifth is a
        // slower dataset-scoped request that widens the overlap window.
        api::Request req =
            r % 5 == 4
                ? api::Request{api::NeighborhoodRequest{}.app(c % 2 ? "UMT" : "MILC").nodes(128)}
                : api::Request{
                      api::RunLookupRequest{}.app(r % 2 ? "UMT" : "MILC").nodes(128).run(
                          std::uint32_t(r) % 4)};
        const auto resp = client.call(req);
        if (const auto* err = std::get_if<api::ErrorResponse>(&resp)) {
          if (err->code == api::ErrorCode::Overloaded) {
            observed.fetch_add(1);
            if (err->retry_after_ms != 7) bad_hint.fetch_add(1);
          } else {
            unexpected.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(bad_hint.load(), 0);
  EXPECT_GT(observed.load(), 0u);  // the gate actually engaged

  // The shed counter matches the Overloaded responses observed on the
  // wire exactly — nothing double-counted, nothing silently dropped.
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed_overload, observed.load());
  EXPECT_EQ(stats.local + stats.forwarded + stats.shed_overload, stats.requests);

  // The wire-level StatsRequest reports the same counters (it bypasses
  // the admission gate, so overload is observable while it happens).
  Client probe;
  ASSERT_EQ(probe.connect(server.port()), std::nullopt);
  const auto resp = probe.call(api::StatsRequest{});
  const auto* wire_stats = std::get_if<api::StatsResponse>(&resp);
  ASSERT_NE(wire_stats, nullptr);
  EXPECT_EQ(wire_stats->shards, 2u);
  EXPECT_EQ(wire_stats->shed_overload, observed.load());
  probe.close();

  // A RetryClient rides through the same gate transparently.
  RetryPolicy policy;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 8;
  RetryClient retry(server.port(), policy);
  for (std::uint32_t r = 0; r < 8; ++r) {
    const auto answered = retry.call(api::RunLookupRequest{}.app("MILC").nodes(128).run(r % 4));
    EXPECT_TRUE(std::holds_alternative<api::RunLookupResponse>(answered));
  }
  retry.close();
  server.stop();
}

TEST_F(ServeChaos, DeadlineExpiryIsAStructuredError) {
  // Every handling is stretched by the hook past the 1 ms deadlines
  // below, so they expire mid-handling however fast the grid runs.
  const auto stretch = [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  ServerOptions sopt = server_options(1);
  sopt.before_handle = stretch;
  Server server(std::move(sopt));
  server.start();
  Client client;
  ASSERT_EQ(client.connect(server.port()), std::nullopt);

  // A 1 ms envelope deadline cannot survive the heavy grid: the stale
  // result is replaced by a structured expiry, and counted.
  CallOptions opt;
  opt.deadline_ms = 1;
  const auto expired = client.call(heavy_grid(), opt);
  const auto* err = std::get_if<api::ErrorResponse>(&expired);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, api::ErrorCode::DeadlineExceeded);
  EXPECT_NE(err->message.find("expired"), std::string::npos);
  EXPECT_EQ(server.stats().shed_deadline, 1u);

  // Without a deadline the same request succeeds on the same connection.
  const auto ok = client.call(heavy_grid());
  EXPECT_TRUE(std::holds_alternative<api::ForecastGridResponse>(ok));
  client.close();
  server.stop();

  // The server-side default deadline behaves identically for requests
  // whose envelope carries none.
  ServerOptions dopt = server_options(1);
  dopt.default_deadline_ms = 1;
  dopt.before_handle = stretch;
  Server strict(std::move(dopt));
  strict.start();
  Client c2;
  ASSERT_EQ(c2.connect(strict.port()), std::nullopt);
  const auto resp = c2.call(heavy_grid());
  const auto* err2 = std::get_if<api::ErrorResponse>(&resp);
  ASSERT_NE(err2, nullptr);
  EXPECT_EQ(err2->code, api::ErrorCode::DeadlineExceeded);
  c2.close();
  strict.stop();
}

TEST_F(ServeChaos, StalledMidFrameConnectionIsEvicted) {
  ServerOptions opt = server_options(1);
  opt.read_timeout_ms = 300;
  Server server(std::move(opt));
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // dfv-lint: allow(blocking-io): a deliberately raw peer, staged to stall
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  write_frame(fd, hello_payload(api::kApiVersion));
  const auto hello = read_frame(fd, 2000);
  ASSERT_TRUE(hello.has_value());

  // Start a frame (100 announced bytes), deliver only the header, stall.
  const char header[4] = {100, 0, 0, 0};
  write_all(fd, header, sizeof(header));
  // The server evicts within read_timeout_ms plus a couple of poll
  // ticks; the blocking read observes the close as EOF.
  char byte = 0;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const ssize_t r = ::read(fd, &byte, 1);
  EXPECT_EQ(r, 0);  // closed by the server, not a timeout
  EXPECT_EQ(server.stats().evicted_stalled, 1u);
  ::close(fd);

  // The server keeps serving well-behaved peers after the eviction.
  Client ok;
  ASSERT_EQ(ok.connect(server.port()), std::nullopt);
  EXPECT_TRUE(
      std::holds_alternative<api::TopologyResponse>(ok.call(api::TopologyRequest{})));
  ok.close();
  server.stop();
}

TEST_F(ServeChaos, DrainTimeoutAnswersPendingRequestsWithShutdownError) {
  // The owner shard of the MILC keys is held inside the handler hook on a
  // gate the test opens only after stop()'s drain deadline has expired,
  // so the victim's forwarded request is still pending at the deadline
  // however fast the host handles requests.
  const std::size_t owner = shard_of(key_fingerprint("MILC", 128), 2);
  std::uint32_t owned_run = 0;
  while (shard_of(key_fingerprint("MILC", 128, owned_run), 2) != owner) ++owned_run;

  Gate held, release;
  ServerOptions opt = server_options(2);
  opt.drain_timeout_ms = 400;
  opt.before_handle = [&held, &release, owner,
                       first = std::make_shared<std::atomic<bool>>(true)](std::size_t shard) {
    if (shard != owner || !first->exchange(false)) return;
    held.open();
    release.wait();
  };
  Server server(std::move(opt));
  // Whatever fails below, the owner shard must be let go before the
  // server is torn down.
  struct Releaser {
    explicit Releaser(Gate& g) : gate(g) {}
    Releaser(const Releaser&) = delete;
    Releaser& operator=(const Releaser&) = delete;
    ~Releaser() { gate.open(); }
    Gate& gate;
  } releaser{release};
  server.start();

  // Round-robin dealing: connection i lands on shard i % 2. The holder's
  // connection lands on the owner, the victim's on the other shard, so
  // the victim's request must forward to the owner.
  Client holder;
  Client victim;
  if (owner == 0) {
    ASSERT_EQ(holder.connect(server.port()), std::nullopt);  // conn 0 → shard 0
    ASSERT_EQ(victim.connect(server.port()), std::nullopt);  // conn 1 → shard 1
  } else {
    ASSERT_EQ(victim.connect(server.port()), std::nullopt);  // conn 0 → shard 0
    ASSERT_EQ(holder.connect(server.port()), std::nullopt);  // conn 1 → shard 1
  }

  // May be answered in full or cut by the phase-2 close — both acceptable
  // ends for the holder.
  std::thread holder_thread([&holder, owned_run] {
    try {
      (void)holder.call_raw(api::RunLookupRequest{}.app("MILC").nodes(128).run(owned_run));
    } catch (const TransportError&) {
    }
  });
  ASSERT_TRUE(held.wait_for(std::chrono::seconds(60))) << "owner shard never handled";

  const std::uint64_t forwarded_before = server.stats().forwarded;
  api::Response victim_resp;
  bool victim_threw = false;
  std::thread victim_thread([&] {
    try {
      victim_resp =
          victim.call(api::RunLookupRequest{}.app("MILC").nodes(128).run(owned_run));
    } catch (const TransportError&) {
      victim_threw = true;
    }
  });
  // The victim's request sits in the held owner's mailbox once the
  // origin shard has counted it forwarded.
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.stats().forwarded == forwarded_before) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "victim's request never forwarded";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The drain deadline expires while the owner is held; the victim's
  // shard then answers it ShuttingDown, and only after that answer has
  // arrived is the owner released so stop() can join it.
  std::thread stopper([&server] { server.stop(); });
  victim_thread.join();
  release.open();
  stopper.join();
  holder_thread.join();

  ASSERT_FALSE(victim_threw);
  const auto* err = std::get_if<api::ErrorResponse>(&victim_resp);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, api::ErrorCode::ShuttingDown);
  EXPECT_GE(server.stats().shutdown_aborted, 1u);
}

TEST(ServeProtocol, PeerDeathAndMalformedFramesAreDistinctErrors) {
  // Oversized announced length: a protocol bug (FrameError), because no
  // conforming peer emits a frame above kMaxFrameBytes.
  {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    write_all(sp[0], huge, sizeof(huge));
    try {
      (void)read_frame(sp[1]);
      FAIL() << "oversized frame header was accepted";
    } catch (const FrameError& e) {
      EXPECT_NE(std::string(e.what()).find("protocol bug"), std::string::npos);
    }
    ::close(sp[0]);
    ::close(sp[1]);
  }
  // Mid-frame EOF: the peer died (PeerGoneError), retryable.
  {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    const unsigned char partial[7] = {10, 0, 0, 0, 'a', 'b', 'c'};
    write_all(sp[0], partial, sizeof(partial));
    ::close(sp[0]);
    try {
      (void)read_frame(sp[1]);
      FAIL() << "torn frame was accepted";
    } catch (const PeerGoneError& e) {
      EXPECT_NE(std::string(e.what()).find("mid-frame"), std::string::npos);
    }
    ::close(sp[1]);
  }
  // Clean EOF on the record boundary: not an error at all.
  {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    ::close(sp[0]);
    EXPECT_FALSE(read_frame(sp[1]).has_value());
    ::close(sp[1]);
  }
  // A silent peer past the timeout: TimeoutError, connection poisoned.
  {
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    EXPECT_THROW((void)read_frame(sp[1], 50), TimeoutError);
    ::close(sp[0]);
    ::close(sp[1]);
  }
}

TEST(ServeRetry, ExhaustedAttemptsReportTheLastError) {
  // A port with no listener: bind one, note the number, close it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&bound), &len), 0);
  const std::uint16_t dead_port = ntohs(bound.sin_port);
  ::close(probe);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.timeout_ms = 200;
  policy.backoff_base_ms = 1;
  policy.backoff_max_ms = 2;
  RetryClient client(dead_port, policy);
  try {
    (void)client.call(api::TopologyRequest{});
    FAIL() << "call against a dead port succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("after 3 attempts"), std::string::npos);
  }
  EXPECT_EQ(client.stats().calls, 1u);
  EXPECT_EQ(client.stats().attempts, 3u);
  EXPECT_EQ(client.stats().retried_transport, 3u);
}

}  // namespace
}  // namespace dfv::serve
