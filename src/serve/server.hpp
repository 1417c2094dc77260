// dfv::serve::Server — a sharded, resident query server over dfv::api.
//
// Architecture (DragonflyDB-style shard-per-thread, adapted to an
// immutable store):
//
//  * One acceptor thread owns the listening socket and deals new
//    connections to shards round-robin.
//  * N shard threads each own: a slice of the run keyspace (by
//    fingerprint hash), their connections, an api::Session whose model
//    caches are shard-private, and a mailbox for cross-shard messages.
//    The campaign itself is loaded once and shared read-only — the
//    mutable state (caches, buffers, connections) is shared-nothing.
//  * Hot path: a request whose key the receiving shard owns is decoded,
//    handled, and answered entirely on that thread — no locks, no
//    queues. A request owned by another shard hops to its owner via the
//    mailbox (one mutex-guarded swap per batch) and the encoded response
//    hops back; per-connection ordering is preserved because a
//    connection never has more than one request in flight.
//  * Requests with no key (topology, simulate, campaign summary, stats)
//    are answered by whichever shard holds the connection; they are pure
//    functions of the immutable state, so placement cannot change bytes.
//
// Robustness layer (the failure model is DESIGN.md §12):
//
//  * Admission gate: a shard with max_inflight forwarded requests still
//    unanswered, or whose target mailbox is max_mailbox deep, sheds new
//    requests with ErrorResponse{Overloaded, retry_after_ms} instead of
//    queueing unboundedly. StatsRequest bypasses the gate so overload is
//    observable while it happens.
//  * Deadlines: a request whose envelope deadline_ms (or the server's
//    default_deadline_ms) expires before or during handling is answered
//    ErrorResponse{DeadlineExceeded}; a stale result is never sent.
//  * Slow-peer defense: a connection that stalls mid-frame longer than
//    read_timeout_ms, or that does not drain its pending output within
//    write_timeout_ms, is evicted (closed, counted), so one bad peer can
//    never wedge a shard loop. Idle connections between frames are never
//    evicted.
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
// (including cross-shard ones) before sockets close. If the drain has
// not converged within drain_timeout_ms, the remaining connections are
// answered with a structured ErrorResponse{ShuttingDown} (best-effort
// flush) and closed — never silently dropped.
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
  /// Optional pre-loaded campaign matching `session` (shared read-only by
  /// every shard); when null, start() loads it from `session`. Lets tests
  /// and in-process embedders pay the load once across many servers.
  std::shared_ptr<const api::ResidentCampaign> campaign;

  // --- robustness knobs -----------------------------------------------------
  /// Per-shard bound on forwarded requests awaiting their owner's reply;
  /// admissions beyond it are shed with ErrorResponse{Overloaded}.
  int max_inflight = 64;
  /// Per-shard bound on queued cross-shard Work messages; a full owner
  /// mailbox sheds the request at the origin shard.
  int max_mailbox = 1024;
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
  /// Graceful-drain budget of stop(); past it, still-pending requests
  /// are answered ShuttingDown and their connections closed.
  std::uint32_t drain_timeout_ms = 10'000;

  /// Test hook, empty in production: runs on a shard thread, with that
  /// shard's index, just before the shard handles a request (its own or
  /// a forwarded one). Tests hold a shard on a latch here, or stretch its
  /// handling, instead of betting on how long real work takes.
  std::function<void(std::size_t shard)> before_handle;
};

/// FNV-1a 64-bit fingerprint of a routing key. Stable across runs,
/// platforms, and shard counts (it names the owner, never the result).
[[nodiscard]] std::uint64_t key_fingerprint(std::string_view app, int nodes) noexcept;
[[nodiscard]] std::uint64_t key_fingerprint(std::string_view app, int nodes,
                                            std::uint32_t run) noexcept;

/// The routing key of a request: run-scoped requests hash (app, nodes,
/// run); dataset-scoped ones hash (app, nodes); stateless ones return 0
/// (handled wherever they arrive).
[[nodiscard]] std::uint64_t request_key(const api::Request& req) noexcept;

/// Owner shard of a key. Deterministic in (key, nshards) alone.
[[nodiscard]] std::size_t shard_of(std::uint64_t key, std::size_t nshards);

struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;   ///< decoded request frames
  std::uint64_t local = 0;      ///< answered on the receiving shard
  std::uint64_t forwarded = 0;  ///< hopped to the owner shard
  // Robustness counters. Invariant: requests == local + forwarded +
  // shed_overload + undecodable frames; deadline sheds are a subset of
  // local/forwarded (the request was admitted, then expired).
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

  [[nodiscard]] bool running() const noexcept { return running_; }
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
  std::shared_ptr<const api::ResidentCampaign> campaign_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::thread acceptor_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  /// Lifecycle: 0 = serving, 1 = draining (no new reads), 2 = exit.
  std::atomic<int> phase_{0};
  /// Cross-shard operations posted but not yet answered-and-queued.
  std::atomic<std::uint64_t> inflight_{0};
  std::atomic<std::uint64_t> next_conn_shard_{0};

  mutable std::atomic<std::uint64_t> stat_connections_{0};
  mutable std::atomic<std::uint64_t> stat_requests_{0};
  mutable std::atomic<std::uint64_t> stat_local_{0};
  mutable std::atomic<std::uint64_t> stat_forwarded_{0};
  mutable std::atomic<std::uint64_t> stat_shed_overload_{0};
  mutable std::atomic<std::uint64_t> stat_shed_deadline_{0};
  mutable std::atomic<std::uint64_t> stat_evicted_{0};
  mutable std::atomic<std::uint64_t> stat_shutdown_aborted_{0};
};

}  // namespace dfv::serve
