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
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <linux/sockios.h>
#include <netinet/in.h>
#include <sys/ioctl.h>
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

/// Opens its gate when it goes out of scope: whatever fails in a test, a
/// shard held on that gate is let go before the server is torn down.
struct Releaser {
  explicit Releaser(Gate& g) : gate(g) {}
  Releaser(const Releaser&) = delete;
  Releaser& operator=(const Releaser&) = delete;
  ~Releaser() { gate.open(); }
  Gate& gate;
};

/// A before_handle hook that, on the first request any shard handles,
/// opens `held` and blocks until `release` opens.
std::function<void(std::size_t)> hold_first(Gate& held, Gate& release) {
  return [&held, &release, first = std::make_shared<std::atomic<bool>>(true)](std::size_t) {
    if (!first->exchange(false)) return;
    held.open();
    release.wait();
  };
}

/// A raw client socket past the hello handshake, for tests that control
/// byte by byte what reaches the server and when.
[[nodiscard]] int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  // dfv-lint: allow(blocking-io): a deliberately raw peer the test paces itself
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed");
  }
  write_frame(fd, hello_payload(api::kApiVersion));
  if (!read_frame(fd, 10'000)) throw std::runtime_error("no hello reply");
  return fd;
}

/// `payload` framed as the server reads it: [u32 length][bytes].
[[nodiscard]] std::string framed(const std::string& payload) {
  std::string out;
  const auto len = std::uint32_t(payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(char((len >> (8 * i)) & 0xff));
  return out + payload;
}

/// True once the server's TCP stack has acknowledged every byte written
/// on `fd`, i.e. they sit in the server's receive buffer (false if that
/// has not happened within a minute).
[[nodiscard]] bool delivered(int fd) {
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int unacked = 0;
  while (::ioctl(fd, SIOCOUTQ, &unacked) == 0 && unacked > 0) {
    if (std::chrono::steady_clock::now() > give_up) return false;
    std::this_thread::yield();
  }
  return unacked == 0;
}

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
    EXPECT_EQ(ss.local + ss.shed_overload, ss.requests);
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
  // The shard is held inside the handler hook on a first request while
  // two more connections each deliver a complete frame; let go, it finds
  // two connections waiting against a gate of one and sheds the first in
  // line. The gate engages every run, however fast the host is.
  Gate held, release;
  ServerOptions opt = server_options(1);
  opt.max_inflight = 1;
  opt.retry_after_ms = 7;
  opt.before_handle = hold_first(held, release);
  Server server(std::move(opt));
  const Releaser releaser{release};
  server.start();

  const api::Request lookup = api::RunLookupRequest{}.app("MILC").nodes(128).run(1);
  Client holder;
  ASSERT_EQ(holder.connect(server.port()), std::nullopt);
  const int first = raw_connect(server.port());
  const int second = raw_connect(server.port());
  api::Response held_resp;
  std::thread holder_thread([&] { held_resp = holder.call(lookup); });
  const bool was_held = held.wait_for(std::chrono::seconds(60));
  bool sent = false;
  if (was_held) {
    for (const int fd : {first, second}) write_frame(fd, api::encode_request(lookup));
    sent = delivered(first) && delivered(second);
  }
  release.open();
  holder_thread.join();
  ASSERT_TRUE(was_held) << "the shard never handled the holder's request";
  ASSERT_TRUE(sent) << "the server never acknowledged the waiting frames";
  EXPECT_TRUE(std::holds_alternative<api::RunLookupResponse>(held_resp));

  const auto shed_frame = read_frame(first, 10'000);
  const auto admitted_frame = read_frame(second, 10'000);
  ::close(first);
  ::close(second);
  ASSERT_TRUE(shed_frame.has_value() && admitted_frame.has_value());
  const api::Response shed = api::decode_response(*shed_frame);
  const auto* err = std::get_if<api::ErrorResponse>(&shed);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, api::ErrorCode::Overloaded);
  EXPECT_EQ(err->retry_after_ms, 7u);
  EXPECT_TRUE(std::holds_alternative<api::RunLookupResponse>(
      api::decode_response(*admitted_frame)));

  // Concurrent clients through the same gate: it sheds whenever two of
  // their frames arrive together, and every shed is counted exactly once.
  constexpr int kClients = 6;
  constexpr int kRounds = 30;
  std::atomic<std::uint64_t> observed{1};
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
        api::Request req =
            r % 5 == 4
                ? api::Request{api::NeighborhoodRequest{}.app(c % 2 ? "UMT" : "MILC").nodes(128)}
                : api::Request{
                      api::RunLookupRequest{}.app(r % 2 ? "UMT" : "MILC").nodes(128).run(
                          std::uint32_t(r) % 4)};
        const auto resp = client.call(req);
        if (const auto* e = std::get_if<api::ErrorResponse>(&resp)) {
          if (e->code == api::ErrorCode::Overloaded) {
            observed.fetch_add(1);
            if (e->retry_after_ms != 7) bad_hint.fetch_add(1);
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

  // The shed counter matches the Overloaded responses observed on the
  // wire exactly — nothing double-counted, nothing silently dropped.
  const auto stats = server.stats();
  EXPECT_EQ(stats.shed_overload, observed.load());
  EXPECT_EQ(stats.local + stats.shed_overload, stats.requests);

  // The wire-level StatsRequest reports the same counters (it bypasses
  // the admission gate, so overload is observable while it happens).
  Client probe;
  ASSERT_EQ(probe.connect(server.port()), std::nullopt);
  const auto resp = probe.call(api::StatsRequest{});
  const auto* wire_stats = std::get_if<api::StatsResponse>(&resp);
  ASSERT_NE(wire_stats, nullptr);
  EXPECT_EQ(wire_stats->shards, 1u);
  EXPECT_EQ(wire_stats->shed_overload, observed.load());
  EXPECT_EQ(wire_stats->forwarded, 0u);
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
  holder.close();
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

  const int fd = raw_connect(server.port());

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
  // One connection delivers two requests in a single write, so the shard
  // buffers both in one read. It is held inside the handler hook on the
  // first until stop() has given up on the drain (phase Closing); the
  // second, fully received but not yet handled, must then be answered
  // ShuttingDown, neither handled nor dropped.
  Gate held, release;
  ServerOptions opt = server_options(2);
  opt.drain_timeout_ms = 400;
  opt.before_handle = hold_first(held, release);
  Server server(std::move(opt));
  const Releaser releaser{release};
  server.start();

  const int fd = raw_connect(server.port());
  const std::string req =
      framed(api::encode_request(api::RunLookupRequest{}.app("MILC").nodes(128).run(1)));
  const std::string both = req + req;
  write_all(fd, both.data(), both.size());
  ASSERT_TRUE(held.wait_for(std::chrono::seconds(60))) << "the shard never handled";

  std::thread stopper([&server] { server.stop(); });
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool closing = true;
  while (server.phase() != Server::Phase::Closing) {
    if (std::chrono::steady_clock::now() > give_up) {
      closing = false;
      break;
    }
    std::this_thread::yield();
  }
  release.open();
  stopper.join();
  ASSERT_TRUE(closing) << "stop() never gave up on the drain";

  const auto answered = read_frame(fd, 10'000);
  const auto aborted = read_frame(fd, 10'000);
  ::close(fd);
  ASSERT_TRUE(answered.has_value() && aborted.has_value());
  // The held request was already being handled: it completes.
  EXPECT_TRUE(std::holds_alternative<api::RunLookupResponse>(api::decode_response(*answered)));
  const api::Response resp = api::decode_response(*aborted);
  const auto* err = std::get_if<api::ErrorResponse>(&resp);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, api::ErrorCode::ShuttingDown);
  EXPECT_EQ(server.stats().shutdown_aborted, 1u);
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
