#include "serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/wire.hpp"
#include "common/check.hpp"
#include "common/log.hpp"
#include "serve/protocol.hpp"

namespace dfv::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Flooding cap on a connection's receive buffer: frames are consumed as
/// they complete, so the buffer only grows while a forwarded reply is
/// pending — a peer that pipelines past two maximal frames in that
/// window is shedding load onto us and gets evicted instead.
constexpr std::size_t kMaxConnBacklogBytes = std::size_t(kMaxFrameBytes) * 2;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= std::uint64_t(p[i]);
    h *= kFnvPrime;
  }
}

void fnv_u32(std::uint64_t& h, std::uint32_t v) noexcept {
  unsigned char b[4];
  for (int i = 0; i < 4; ++i) b[i] = (unsigned char)((v >> (8 * i)) & 0xff);
  fnv_bytes(h, b, 4);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  DFV_CHECK_MSG(flags >= 0, "serve: fcntl(F_GETFL) failed");
  DFV_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                "serve: fcntl(F_SETFL) failed");
}

void set_nodelay(int fd) noexcept {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void append_frame(std::string& out, std::string_view payload) {
  DFV_CHECK_MSG(payload.size() <= kMaxFrameBytes, "serve: frame payload too large");
  const auto len = std::uint32_t(payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(char((len >> (8 * i)) & 0xff));
  out.append(payload.data(), payload.size());
}

[[nodiscard]] std::uint32_t peek_u32(const std::string& buf) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= std::uint32_t((unsigned char)(buf[std::size_t(i)])) << (8 * i);
  return v;
}

template <class... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
template <class... Fs>
Overloaded(Fs...) -> Overloaded<Fs...>;

}  // namespace

std::uint64_t key_fingerprint(std::string_view app, int nodes) noexcept {
  std::uint64_t h = kFnvOffset;
  fnv_bytes(h, app.data(), app.size());
  fnv_bytes(h, "\0", 1);
  fnv_u32(h, std::uint32_t(nodes));
  return h;
}

std::uint64_t key_fingerprint(std::string_view app, int nodes,
                              std::uint32_t run) noexcept {
  std::uint64_t h = key_fingerprint(app, nodes);
  fnv_bytes(h, "\0", 1);
  fnv_u32(h, run);
  return h;
}

std::uint64_t request_key(const api::Request& req) noexcept {
  return std::visit(
      Overloaded{
          [](const api::RunLookupRequest& q) {
            return key_fingerprint(q.app_name, q.node_count, q.run_index);
          },
          [](const api::ForecastRequest& q) {
            return key_fingerprint(q.app_name, q.node_count, q.run_index);
          },
          [](const api::NeighborhoodRequest& q) {
            return key_fingerprint(q.app_name, q.node_count);
          },
          [](const api::DeviationRequest& q) {
            return key_fingerprint(q.app_name, q.node_count);
          },
          [](const api::ForecastEvalRequest& q) {
            return key_fingerprint(q.app_name, q.node_count);
          },
          [](const api::ForecastGridRequest& q) {
            return key_fingerprint(q.app_name, q.node_count);
          },
          [](const auto&) { return std::uint64_t(0); },
      },
      req);
}

std::size_t shard_of(std::uint64_t key, std::size_t nshards) {
  DFV_CHECK_MSG(nshards > 0, "serve: shard_of needs at least one shard");
  return std::size_t(key % std::uint64_t(nshards));
}

// ---------------------------------------------------------------------------
// Shard: everything one shard thread owns. Only `mu`/`mailbox` and the
// `quiescent` flag are touched by other threads; the rest is private to
// `thread`.
// ---------------------------------------------------------------------------

struct Server::Shard {
  struct Msg {
    enum class Kind { NewConn, Work, Reply };
    Kind kind = Kind::NewConn;
    int fd = -1;                ///< NewConn: the accepted socket
    std::size_t origin = 0;     ///< Work: shard to send the Reply to
    std::uint64_t conn_id = 0;  ///< Work/Reply: connection on the origin shard
    std::string bytes;          ///< Work: request payload; Reply: encoded response
    std::uint32_t deadline_ms = 0;   ///< Work: effective deadline (0 = none)
    Clock::time_point deadline_at{};  ///< Work: absolute expiry when deadline_ms > 0
  };

  struct Conn {
    int fd = -1;
    bool hello_done = false;
    bool awaiting_remote = false;  ///< one request forwarded, reply pending
    bool peer_closed = false;      ///< read side saw EOF
    bool close_after_flush = false;
    std::string in;   ///< received, not yet framed
    std::string out;  ///< encoded frames, not yet written
    // Stall countdowns ({} = not counting): read_start is set while a
    // frame sits incomplete in `in`, write_start while `out` waits to
    // drain. Both reset whenever the respective buffer empties.
    Clock::time_point read_start{};
    Clock::time_point write_start{};
  };

  Shard(Server* srv, std::size_t idx, api::Session sess)
      : server(srv), index(idx), session(std::move(sess)) {}

  void post(Msg msg) {
    {
      std::lock_guard<std::mutex> lock(mu);
      mailbox.push_back(std::move(msg));
    }
    server->wake(*this);
  }

  /// Bounded admission for Work messages: refuses (returns false) when
  /// the mailbox is already `limit` deep, so an overwhelmed owner shard
  /// backpressures its origins instead of queueing without bound.
  [[nodiscard]] bool post_work(Msg msg, std::size_t limit) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (mailbox.size() >= limit) return false;
      mailbox.push_back(std::move(msg));
    }
    server->wake(*this);
    return true;
  }

  Server* server;
  std::size_t index;
  api::Session session;
  int wake_rd = -1;
  int wake_wr = -1;
  std::thread thread;
  std::atomic<bool> quiescent{false};

  std::mutex mu;
  std::vector<Msg> mailbox;  // guarded by mu

  // Shard-thread-private state.
  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
  /// Forwarded requests whose Reply has not come back yet — the
  /// admission gate's in-flight dimension.
  std::size_t open_forwards = 0;
};

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {
  DFV_CHECK_MSG(opt_.shards >= 1, "serve: server needs at least one shard");
  DFV_CHECK_MSG(opt_.listen_backlog >= 1, "serve: listen backlog must be positive");
  DFV_CHECK_MSG(opt_.max_inflight >= 1, "serve: max_inflight must be positive");
  DFV_CHECK_MSG(opt_.max_mailbox >= 1, "serve: max_mailbox must be positive");
  DFV_CHECK_MSG(opt_.drain_timeout_ms > 0, "serve: drain timeout must be positive");
}

Server::~Server() { stop(); }

void Server::wake(Shard& shard) const noexcept {
  const char byte = 1;
  // A full pipe already guarantees a pending wake-up; EAGAIN is fine.
  (void)::write(shard.wake_wr, &byte, 1);
}

void Server::start() {
  DFV_CHECK_MSG(!running_, "serve: start() called twice");

  // Load the campaign before opening the port: a resident server never
  // answers its first query cold.
  campaign_ = opt_.campaign ? opt_.campaign : api::ResidentCampaign::load(opt_.session);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  DFV_CHECK_MSG(listen_fd_ >= 0, "serve: socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opt_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    DFV_CHECK_MSG(false, "serve: bind failed: " + why);
  }
  DFV_CHECK_MSG(::listen(listen_fd_, opt_.listen_backlog) == 0, "serve: listen failed");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  DFV_CHECK_MSG(
      ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0,
      "serve: getsockname failed");
  port_ = ntohs(bound.sin_port);

  shards_.clear();
  for (int i = 0; i < opt_.shards; ++i) {
    auto shard = std::make_unique<Shard>(this, std::size_t(i),
                                         api::Session(opt_.session, campaign_));
    int fds[2] = {-1, -1};
    DFV_CHECK_MSG(::pipe(fds) == 0, "serve: pipe() failed");
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    shard->wake_rd = fds[0];
    shard->wake_wr = fds[1];
    shards_.push_back(std::move(shard));
  }

  phase_.store(0);
  inflight_.store(0);
  running_.store(true);
  for (auto& shard : shards_)
    shard->thread = std::thread([this, s = shard.get()] { shard_main(*s); });
  acceptor_ = std::thread([this] { acceptor_main(); });

  DFV_LOG_INFO("serve: listening on 127.0.0.1:" << port_ << " with "
                                                << shards_.size() << " shard(s)");
}

void Server::stop() {
  if (!running_.exchange(false)) return;

  // Phase 1 (drain): stop accepting and stop reading; every request whose
  // frame was fully received keeps its right to a response.
  phase_.store(1);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& shard : shards_) wake(*shard);

  // Wait (bounded by drain_timeout_ms) until every shard is quiescent and
  // no cross-shard operation is in flight. Quiescent flags are re-read
  // after the inflight check: a Work/Reply can only exist while
  // inflight_ > 0, so two consistent passes mean the system is truly
  // idle. Requests still pending past the deadline are answered with a
  // structured ShuttingDown error in the phase-2 cleanup below.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opt_.drain_timeout_ms);
  while (Clock::now() < deadline) {
    bool idle = inflight_.load() == 0;
    for (auto& shard : shards_) idle = idle && shard->quiescent.load();
    idle = idle && inflight_.load() == 0;
    if (idle) {
      bool confirmed = true;
      for (auto& shard : shards_) confirmed = confirmed && shard->quiescent.load();
      if (confirmed) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Phase 2 (exit): close everything and join.
  phase_.store(2);
  for (auto& shard : shards_) wake(*shard);
  for (auto& shard : shards_)
    if (shard->thread.joinable()) shard->thread.join();
  for (auto& shard : shards_) {
    if (shard->wake_rd >= 0) ::close(shard->wake_rd);
    if (shard->wake_wr >= 0) ::close(shard->wake_wr);
  }
  shards_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

ServerStats Server::stats() const noexcept {
  ServerStats s;
  s.connections = stat_connections_.load();
  s.requests = stat_requests_.load();
  s.local = stat_local_.load();
  s.forwarded = stat_forwarded_.load();
  s.shed_overload = stat_shed_overload_.load();
  s.shed_deadline = stat_shed_deadline_.load();
  s.evicted_stalled = stat_evicted_.load();
  s.shutdown_aborted = stat_shutdown_aborted_.load();
  return s;
}

std::string Server::encoded_stats_response() const {
  api::StatsResponse s;
  s.shards = std::uint32_t(shards_.size());
  s.connections = stat_connections_.load();
  s.requests = stat_requests_.load();
  s.local = stat_local_.load();
  s.forwarded = stat_forwarded_.load();
  s.shed_overload = stat_shed_overload_.load();
  s.shed_deadline = stat_shed_deadline_.load();
  s.evicted_stalled = stat_evicted_.load();
  s.shutdown_aborted = stat_shutdown_aborted_.load();
  return api::encode_response(api::Response{std::move(s)});
}

void Server::acceptor_main() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or real failure): stop accepting
    }
    if (phase_.load() != 0) {
      ::close(fd);
      continue;
    }
    stat_connections_.fetch_add(1);
    const std::size_t idx =
        std::size_t(next_conn_shard_.fetch_add(1) % std::uint64_t(shards_.size()));
    Shard::Msg msg;
    msg.kind = Shard::Msg::Kind::NewConn;
    msg.fd = fd;
    shards_[idx]->post(std::move(msg));
  }
}

void Server::shard_main(Shard& shard) {
  DFV_CHECK_MSG(shard.wake_rd >= 0, "serve: shard started without a wake pipe");

  const std::size_t nshards = shards_.size();

  // Deterministic error payloads (pure functions of their inputs — the
  // bytes never depend on timing, so shed responses are replayable too).
  const auto overloaded_error = [&] {
    return api::encode_response(
        api::ErrorResponse{api::ErrorCode::Overloaded,
                           "serve: shard overloaded; retry after backoff",
                           opt_.retry_after_ms});
  };
  const auto deadline_error = [&](std::uint32_t deadline_ms, const char* when) {
    return api::encode_response(api::ErrorResponse{
        api::ErrorCode::DeadlineExceeded, "serve: deadline of " +
                                              std::to_string(deadline_ms) +
                                              "ms expired " + when});
  };

  // Handle one framed request arriving on `conn` (already past hello).
  const auto route_request = [&](std::uint64_t conn_id, Shard::Conn& conn,
                                 std::string payload) {
    stat_requests_.fetch_add(1);
    api::RequestEnvelope env;
    bool decoded = true;
    try {
      env = api::decode_request_envelope(payload);
    } catch (...) {
      decoded = false;
    }
    if (!decoded) {
      // Malformed or version-skewed: handle_encoded turns it into a
      // structured ErrorResponse locally; no routing needed.
      append_frame(conn.out, api::handle_encoded(shard.session, payload));
      return;
    }
    // Keyless observability path, answered before the admission gate so
    // overload stays visible while it is happening.
    if (std::holds_alternative<api::StatsRequest>(env.request)) {
      stat_local_.fetch_add(1);
      append_frame(conn.out, encoded_stats_response());
      return;
    }
    // Admission gate: a shard saturated with unanswered forwards sheds
    // new work with a structured hint instead of queueing unboundedly.
    if (shard.open_forwards >= std::size_t(opt_.max_inflight)) {
      stat_shed_overload_.fetch_add(1);
      append_frame(conn.out, overloaded_error());
      return;
    }
    const std::uint32_t deadline_ms =
        env.meta.deadline_ms != 0 ? env.meta.deadline_ms : opt_.default_deadline_ms;
    const auto deadline_at = deadline_ms != 0
                                 ? Clock::now() + std::chrono::milliseconds(deadline_ms)
                                 : Clock::time_point{};
    const std::uint64_t key = request_key(env.request);
    const std::size_t owner = key == 0 ? shard.index : shard_of(key, nshards);
    if (owner == shard.index) {
      stat_local_.fetch_add(1);
      if (opt_.before_handle) opt_.before_handle(shard.index);
      std::string resp = api::encode_response(shard.session.handle(env.request));
      if (deadline_ms != 0 && Clock::now() > deadline_at) {
        // Never ship a result the caller has already given up on: the
        // stale bytes are replaced by the structured expiry.
        stat_shed_deadline_.fetch_add(1);
        resp = deadline_error(deadline_ms, "while handling the request");
      }
      append_frame(conn.out, resp);
      return;
    }
    Shard::Msg msg;
    msg.kind = Shard::Msg::Kind::Work;
    msg.origin = shard.index;
    msg.conn_id = conn_id;
    msg.bytes = std::move(payload);
    msg.deadline_ms = deadline_ms;
    msg.deadline_at = deadline_at;
    inflight_.fetch_add(1);
    if (!shards_[owner]->post_work(std::move(msg), std::size_t(opt_.max_mailbox))) {
      // The owner's mailbox is full: shed at the origin, same hint.
      inflight_.fetch_sub(1);
      stat_shed_overload_.fetch_add(1);
      append_frame(conn.out, overloaded_error());
      return;
    }
    stat_forwarded_.fetch_add(1);
    ++shard.open_forwards;
    conn.awaiting_remote = true;
  };

  // Consume complete frames buffered in conn.in. Stops while a forwarded
  // request is outstanding so responses stay in request order.
  const auto drain_frames = [&](std::uint64_t conn_id, Shard::Conn& conn) {
    while (!conn.awaiting_remote && !conn.close_after_flush && conn.in.size() >= 4) {
      const std::uint32_t len = peek_u32(conn.in);
      if (len > kMaxFrameBytes) {
        conn.close_after_flush = true;  // malformed peer; drop it
        return;
      }
      if (conn.in.size() < std::size_t(4) + len) return;
      std::string payload = conn.in.substr(4, len);
      conn.in.erase(0, std::size_t(4) + len);
      if (!conn.hello_done) {
        const auto version = parse_hello(payload);
        if (!version) {
          append_frame(conn.out,
                       api::encode_response(api::ErrorResponse{
                           api::ErrorCode::BadRequest, "serve: bad handshake frame"}));
          conn.close_after_flush = true;
          return;
        }
        if (*version != api::kApiVersion) {
          append_frame(
              conn.out,
              api::encode_response(api::ErrorResponse{
                  api::ErrorCode::VersionMismatch,
                  "serve: protocol version " + std::to_string(*version) +
                      " not supported (server speaks " +
                      std::to_string(api::kApiVersion) + ")"}));
          conn.close_after_flush = true;
          return;
        }
        append_frame(conn.out, hello_payload(api::kApiVersion));
        conn.hello_done = true;
        continue;
      }
      route_request(conn_id, conn, std::move(payload));
    }
  };

  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = wake pipe)

  while (true) {
    const int phase = phase_.load();
    if (phase == 2) break;

    // Swap the mailbox out under the lock, process without it.
    std::vector<Shard::Msg> msgs;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      msgs.swap(shard.mailbox);
    }
    for (auto& msg : msgs) {
      switch (msg.kind) {
        case Shard::Msg::Kind::NewConn: {
          set_nonblocking(msg.fd);
          set_nodelay(msg.fd);
          Shard::Conn conn;
          conn.fd = msg.fd;
          shard.conns.emplace(shard.next_conn_id++, std::move(conn));
          break;
        }
        case Shard::Msg::Kind::Work: {
          Shard::Msg reply;
          reply.kind = Shard::Msg::Kind::Reply;
          reply.conn_id = msg.conn_id;
          if (msg.deadline_ms != 0 && Clock::now() > msg.deadline_at) {
            // Expired while queued: don't burn owner-shard time on an
            // answer nobody is waiting for.
            stat_shed_deadline_.fetch_add(1);
            reply.bytes = deadline_error(msg.deadline_ms,
                                         "while queued for the owner shard");
          } else {
            if (opt_.before_handle) opt_.before_handle(shard.index);
            reply.bytes = api::handle_encoded(shard.session, msg.bytes);
            if (msg.deadline_ms != 0 && Clock::now() > msg.deadline_at) {
              stat_shed_deadline_.fetch_add(1);
              reply.bytes =
                  deadline_error(msg.deadline_ms, "while handling the request");
            }
          }
          shards_[msg.origin]->post(std::move(reply));
          break;
        }
        case Shard::Msg::Kind::Reply: {
          if (shard.open_forwards > 0) --shard.open_forwards;
          const auto it = shard.conns.find(msg.conn_id);
          if (it != shard.conns.end() && it->second.awaiting_remote) {
            append_frame(it->second.out, msg.bytes);
            it->second.awaiting_remote = false;
            drain_frames(it->first, it->second);  // buffered pipeline, if any
          }
          inflight_.fetch_sub(1);
          break;
        }
      }
    }

    // Flush pending writes; evict stalled peers; reap finished
    // connections. One `now` per pass keeps the sweep cheap.
    const auto now = Clock::now();
    for (auto it = shard.conns.begin(); it != shard.conns.end();) {
      Shard::Conn& conn = it->second;
      while (!conn.out.empty()) {
        const ssize_t w =
            ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
        if (w > 0) {
          conn.out.erase(0, std::size_t(w));
          continue;
        }
        if (w < 0 && errno == EINTR) continue;
        if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        conn.close_after_flush = true;  // broken pipe etc.: give up on it
        conn.out.clear();
        break;
      }
      // Stall countdowns run only while a frame or a flush is pending;
      // an idle connection between frames never ticks.
      if (conn.in.empty())
        conn.read_start = Clock::time_point{};
      else if (conn.read_start == Clock::time_point{})
        conn.read_start = now;
      if (conn.out.empty())
        conn.write_start = Clock::time_point{};
      else if (conn.write_start == Clock::time_point{})
        conn.write_start = now;
      const bool read_stalled =
          phase == 0 && opt_.read_timeout_ms != 0 && !conn.awaiting_remote &&
          conn.read_start != Clock::time_point{} &&
          now - conn.read_start > std::chrono::milliseconds(opt_.read_timeout_ms);
      const bool write_stalled =
          phase == 0 && opt_.write_timeout_ms != 0 &&
          conn.write_start != Clock::time_point{} &&
          now - conn.write_start > std::chrono::milliseconds(opt_.write_timeout_ms);
      const bool flooded = conn.in.size() > kMaxConnBacklogBytes;
      if (read_stalled || write_stalled || flooded) {
        // A peer that cannot complete a frame, cannot drain its
        // responses, or floods past the backlog cap is wedging shard
        // resources: cut it. (A pending Reply for this conn is dropped
        // harmlessly — the Reply handler tolerates a missing conn.)
        stat_evicted_.fetch_add(1);
        ::close(conn.fd);
        it = shard.conns.erase(it);
        continue;
      }
      const bool done = conn.out.empty() && !conn.awaiting_remote &&
                        (conn.close_after_flush || conn.peer_closed);
      if (done) {
        ::close(conn.fd);
        it = shard.conns.erase(it);
      } else {
        ++it;
      }
    }

    if (phase == 1) {
      // Frames fully received before the stop still get answers: process
      // whatever is already buffered even though reads are off.
      for (auto& [id, conn] : shard.conns) drain_frames(id, conn);
      // Drain bookkeeping: quiescent once nothing is buffered, pending,
      // or in flight on this shard. (New mailbox messages wake us and
      // the loop recomputes, so a stale `true` can only be observed
      // together with inflight_ > 0, which stop() rechecks.)
      bool idle = true;
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        idle = shard.mailbox.empty();
      }
      for (const auto& [id, conn] : shard.conns) {
        (void)id;
        idle = idle && conn.out.empty() && !conn.awaiting_remote;
      }
      shard.quiescent.store(idle);
    }

    // Poll: wake pipe always; sockets for writes always, reads only
    // while serving (phase 0) and not awaiting a forwarded reply.
    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{shard.wake_rd, POLLIN, 0});
    fd_conn.push_back(0);
    for (const auto& [id, conn] : shard.conns) {
      short events = 0;
      if (!conn.out.empty()) events = short(events | POLLOUT);
      if (phase == 0 && !conn.awaiting_remote && !conn.close_after_flush)
        events = short(events | POLLIN);
      if (events == 0) continue;
      fds.push_back(pollfd{conn.fd, events, 0});
      fd_conn.push_back(id);
    }
    const int rc = ::poll(fds.data(), nfds_t(fds.size()), 200);
    if (rc < 0 && errno != EINTR) break;  // poll failure: shard gives up
    if (rc <= 0) continue;

    // Drain the wake pipe.
    if ((fds[0].revents & POLLIN) != 0) {
      char buf[256];
      while (::read(shard.wake_rd, buf, sizeof(buf)) > 0) {
      }
    }

    for (std::size_t i = 1; i < fds.size(); ++i) {
      const auto it = shard.conns.find(fd_conn[i]);
      if (it == shard.conns.end()) continue;
      Shard::Conn& conn = it->second;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      // Read everything available, then frame it.
      char buf[16384];
      while (true) {
        const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
        if (r > 0) {
          conn.in.append(buf, std::size_t(r));
          continue;
        }
        if (r == 0) {
          conn.peer_closed = true;
          break;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        conn.peer_closed = true;  // hard error: treat as closed
        break;
      }
      drain_frames(it->first, conn);
    }
  }

  // Phase 2 cleanup: anything still pending missed the drain window.
  // Answer it with a structured shutdown error and flush what we can
  // without blocking — best-effort courtesy, never a hang, and never a
  // silent drop of a request the peer is still waiting on.
  for (auto& [id, conn] : shard.conns) {
    (void)id;
    if (conn.awaiting_remote) {
      stat_shutdown_aborted_.fetch_add(1);
      conn.awaiting_remote = false;
      append_frame(conn.out,
                   api::encode_response(api::ErrorResponse{
                       api::ErrorCode::ShuttingDown,
                       "serve: server shut down before the response was ready"}));
    }
    while (!conn.out.empty()) {
      const ssize_t w = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (w <= 0) break;  // EAGAIN/EPIPE/…: best effort only
      conn.out.erase(0, std::size_t(w));
    }
    ::close(conn.fd);
  }
  shard.conns.clear();
}

}  // namespace dfv::serve
