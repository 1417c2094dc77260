// dfv::serve::Server — a sharded, resident query server over dfv::api.
//
// Architecture (DragonflyDB-style shard-per-thread, adapted to an
// immutable store):
//
//  * One acceptor thread owns the listening socket and deals new
//    connections to shards round-robin; that hand-off is the only
//    message between threads.
//  * N identical shard threads each own their connections and run one
//    poll loop: read, frame, handle, write. Every request is answered on
//    the shard that received it.
//  * The server owns one api::Session, shared by every shard. Its
//    campaign is immutable and its model caches build each artifact once
//    and are safe to call from any thread (api/session.hpp), so N shards
//    hold one copy of the data and of every fitted model, and no request
//    ever waits for another shard.
//
// Robustness layer (the failure model is DESIGN.md §12):
//
//  * Admission gate: when more than max_inflight of a shard's
//    connections hold a complete, unanswered frame, the shard sheds the
//    excess with ErrorResponse{Overloaded, retry_after_ms} instead of
//    letting the queue grow. StatsRequest bypasses the gate so overload
//    is observable while it happens.
//  * Deadlines: a request whose envelope deadline_ms (or the server's
//    default_deadline_ms), counted from the frame's arrival, expires
//    before or during handling is answered
//    ErrorResponse{DeadlineExceeded}; a stale result is never sent.
//  * Slow-peer defense: a connection that stalls mid-frame longer than
//    read_timeout_ms, that does not drain its pending output within
//    write_timeout_ms, or that floods past two maximal frames in one read
//    burst is evicted (closed, counted), so one bad peer can never wedge
//    a shard loop. Idle connections between frames are never evicted.
//
// Determinism: every response payload is a pure function of
// (SessionOptions, request) — never of shard count, connection
// interleaving, or timing. test_serve pins this by comparing encoded
// payload bytes from 1-shard and 8-shard servers. (StatsRequest is the
// deliberate exception: it reports live counters and is excluded from
// byte-identity workloads.)
//
// Shutdown: stop() closes the listener, stops reads, then drains —
// every request fully received before the stop is answered and flushed
// before sockets close. Once drain_timeout_ms has passed, a shard
// answers each buffered frame it has not yet handled with a structured
// ErrorResponse{ShuttingDown} instead of handling it (best-effort flush)
// and closes — never a silent drop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "api/session.hpp"

namespace dfv::serve {

struct ServerOptions {
  int shards = 1;
  /// TCP port on 127.0.0.1; 0 = kernel-assigned (read back via port()).
  std::uint16_t port = 0;
  int listen_backlog = 128;
  api::SessionOptions session;
  /// Optional pre-loaded campaign matching `session`; when null, start()
  /// loads it from `session`. Lets tests and in-process embedders pay the
  /// load once across many servers.
  std::shared_ptr<const api::ResidentCampaign> campaign;

  // --- robustness knobs -----------------------------------------------------
  /// Per-shard bound on connections holding a complete, unanswered
  /// frame; requests beyond it are shed with ErrorResponse{Overloaded}.
  int max_inflight = 64;
  /// Backoff hint stamped into every Overloaded response.
  std::uint32_t retry_after_ms = 25;
  /// Server-side deadline applied to requests whose envelope carries
  /// none (0 = no default). The envelope value wins when nonzero.
  std::uint32_t default_deadline_ms = 0;
  /// Evict a connection that started a frame but has not completed it
  /// within this window (0 = never). Granularity is the poll tick
  /// (~200 ms), so values below ~400 ms are not meaningful.
  std::uint32_t read_timeout_ms = 5000;
  /// Evict a connection whose pending output has not fully drained
  /// within this window (0 = never).
  std::uint32_t write_timeout_ms = 5000;
  /// Graceful-drain budget of stop(); past it, still-buffered requests
  /// are answered ShuttingDown and their connections closed.
  std::uint32_t drain_timeout_ms = 10'000;

  /// Test hook, empty in production: runs on a shard thread, with that
  /// shard's index, just before the shard handles a request. Tests hold
  /// a shard on a latch here, or stretch its handling, instead of betting
  /// on how long real work takes.
  std::function<void(std::size_t shard)> before_handle;
};

/// FNV-1a 64-bit fingerprint of a (dataset[, run]) key. Stable across
/// runs and platforms. The server no longer routes by it; its one caller
/// is perfbench/src/serve.cpp, whose warm-up picks a run per shard with
/// it and shard_of.
[[nodiscard]] std::uint64_t key_fingerprint(std::string_view app, int nodes) noexcept;
[[nodiscard]] std::uint64_t key_fingerprint(std::string_view app, int nodes,
                                            std::uint32_t run) noexcept;

/// key % nshards. Deterministic in (key, nshards) alone.
[[nodiscard]] std::size_t shard_of(std::uint64_t key, std::size_t nshards);

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;  ///< request frames taken up (not those aborted)
  std::uint64_t local = 0;     ///< admitted and answered
  // Robustness counters. Invariant: requests == local + shed_overload +
  // undecodable frames; deadline sheds are a subset of local (the
  // request was admitted, then expired).
  std::uint64_t shed_overload = 0;     ///< refused by the admission gate
  std::uint64_t shed_deadline = 0;     ///< answered DeadlineExceeded
  std::uint64_t evicted_stalled = 0;   ///< connections dropped by I/O timeouts
  std::uint64_t shutdown_aborted = 0;  ///< answered ShuttingDown at drain expiry
};

class Server {
 public:
  explicit Server(ServerOptions opt);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, load the campaign into resident memory, spawn shard threads
  /// and the acceptor. Throws on bind failure or campaign errors.
  void start();

  /// Graceful shutdown: stop accepting, drain in-flight requests
  /// (bounded by drain_timeout_ms), flush, close, join. Idempotent;
  /// also run by the destructor.
  void stop();

  /// Lifecycle: Serving until stop(); Draining while stop() waits for
  /// buffered requests to be answered; Closing once the drain is over
  /// (converged or timed out), when what is still buffered is answered
  /// ShuttingDown.
  enum class Phase { Serving, Draining, Closing };

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] Phase phase() const noexcept { return phase_; }
  /// Actual listening port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] int shards() const noexcept { return int(shards_.size()); }
  [[nodiscard]] ServerStats stats() const noexcept;

 private:
  struct Shard;

  void acceptor_main();
  void shard_main(Shard& shard);
  void wake(Shard& shard) const noexcept;
  [[nodiscard]] std::string encoded_stats_response() const;

  ServerOptions opt_;
  /// The one session every shard answers from (created by start()).
  std::unique_ptr<api::Session> session_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<Phase> phase_{Phase::Serving};
  std::atomic<std::uint64_t> next_conn_shard_{0};

  mutable std::atomic<std::uint64_t> stat_connections_{0};
  mutable std::atomic<std::uint64_t> stat_requests_{0};
  mutable std::atomic<std::uint64_t> stat_local_{0};
  mutable std::atomic<std::uint64_t> stat_shed_overload_{0};
  mutable std::atomic<std::uint64_t> stat_shed_deadline_{0};
  mutable std::atomic<std::uint64_t> stat_evicted_{0};
  mutable std::atomic<std::uint64_t> stat_shutdown_aborted_{0};
};

}  // namespace dfv::serve
