#include "serve/server.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
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
/// soon as they complete, so a peer that delivers more than two maximal
/// frames in one read burst is shedding load onto us and gets evicted.
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

std::size_t shard_of(std::uint64_t key, std::size_t nshards) {
  DFV_CHECK_MSG(nshards > 0, "serve: shard_of needs at least one shard");
  return std::size_t(key % std::uint64_t(nshards));
}

// ---------------------------------------------------------------------------
// Shard: everything one shard thread owns. Only `mu`/`new_conns` and the
// `quiescent` flag are touched by other threads; the rest is private to
// `thread`.
// ---------------------------------------------------------------------------

struct Server::Shard {
  struct Conn {
    int fd = -1;
    bool hello_done = false;
    bool peer_closed = false;  ///< read side saw EOF
    bool close_after_flush = false;
    std::string in;   ///< received, not yet framed
    std::string out;  ///< encoded frames, not yet written
    /// When the latest bytes arrived; a frame's deadline counts from the
    /// read that completed it.
    Clock::time_point received{};
    // Stall countdowns ({} = not counting): read_start is set while a
    // frame sits incomplete in `in`, write_start while `out` waits to
    // drain. Both reset whenever the respective buffer empties.
    Clock::time_point read_start{};
    Clock::time_point write_start{};
  };

  explicit Shard(std::size_t idx) : index(idx) {}

  std::size_t index;
  int wake_rd = -1;
  int wake_wr = -1;
  std::thread thread;
  std::atomic<bool> quiescent{false};

  std::mutex mu;
  std::vector<int> new_conns;  // guarded by mu: sockets dealt by the acceptor

  // Shard-thread-private state.
  std::map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn_id = 1;
};

Server::Server(ServerOptions opt) : opt_(std::move(opt)) {
  DFV_CHECK_MSG(opt_.shards >= 1, "serve: server needs at least one shard");
  DFV_CHECK_MSG(opt_.listen_backlog >= 1, "serve: listen backlog must be positive");
  DFV_CHECK_MSG(opt_.max_inflight >= 1, "serve: max_inflight must be positive");
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
  session_ = std::make_unique<api::Session>(
      opt_.session,
      opt_.campaign ? opt_.campaign : api::ResidentCampaign::load(opt_.session));

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
    auto shard = std::make_unique<Shard>(std::size_t(i));
    int fds[2] = {-1, -1};
    DFV_CHECK_MSG(::pipe(fds) == 0, "serve: pipe() failed");
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    shard->wake_rd = fds[0];
    shard->wake_wr = fds[1];
    shards_.push_back(std::move(shard));
  }

  phase_.store(Phase::Serving);
  running_.store(true);
  for (auto& shard : shards_)
    shard->thread = std::thread([this, s = shard.get()] { shard_main(*s); });
  acceptor_ = std::thread([this] { acceptor_main(); });

  DFV_LOG_INFO("serve: listening on 127.0.0.1:" << port_ << " with "
                                                << shards_.size() << " shard(s)");
}

void Server::stop() {
  if (!running_.exchange(false)) return;

  // Drain: stop accepting and stop reading; every request whose frame
  // was fully received keeps its right to a response.
  phase_.store(Phase::Draining);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& shard : shards_) wake(*shard);

  // Wait (bounded by drain_timeout_ms) until every shard is quiescent. A
  // draining shard reads nothing new, so once quiescent it stays so.
  // Frames still buffered past the deadline are answered ShuttingDown.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(opt_.drain_timeout_ms);
  while (Clock::now() < deadline) {
    bool idle = true;
    for (auto& shard : shards_) idle = idle && shard->quiescent.load();
    if (idle) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  phase_.store(Phase::Closing);
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
    if (phase_.load() != Phase::Serving) {
      ::close(fd);
      continue;
    }
    stat_connections_.fetch_add(1);
    Shard& shard =
        *shards_[std::size_t(next_conn_shard_.fetch_add(1) % std::uint64_t(shards_.size()))];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.new_conns.push_back(fd);
    }
    wake(shard);
  }
}

void Server::shard_main(Shard& shard) {
  DFV_CHECK_MSG(shard.wake_rd >= 0, "serve: shard started without a wake pipe");

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

  // Answer one request frame on `conn`; `admit` is the admission gate's
  // verdict for it.
  const auto answer = [&](Shard::Conn& conn, std::string_view payload, bool admit) {
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
      // structured ErrorResponse.
      append_frame(conn.out, api::handle_encoded(*session_, payload));
      return;
    }
    // Observability path, answered before the admission gate so overload
    // stays visible while it is happening.
    if (std::holds_alternative<api::StatsRequest>(env.request)) {
      stat_local_.fetch_add(1);
      append_frame(conn.out, encoded_stats_response());
      return;
    }
    if (!admit) {
      stat_shed_overload_.fetch_add(1);
      append_frame(conn.out, overloaded_error());
      return;
    }
    stat_local_.fetch_add(1);
    const std::uint32_t deadline_ms =
        env.meta.deadline_ms != 0 ? env.meta.deadline_ms : opt_.default_deadline_ms;
    const auto expired = [&] {
      return deadline_ms != 0 &&
             Clock::now() - conn.received > std::chrono::milliseconds(deadline_ms);
    };
    std::string resp;
    if (expired()) {
      // Waited out its budget behind other frames: don't burn shard time
      // on an answer nobody is waiting for.
      stat_shed_deadline_.fetch_add(1);
      resp = deadline_error(deadline_ms, "before the request was handled");
    } else {
      if (opt_.before_handle) opt_.before_handle(shard.index);
      resp = api::encode_response(session_->handle(env.request));
      if (expired()) {
        // Never ship a result the caller has already given up on: the
        // stale bytes are replaced by the structured expiry.
        stat_shed_deadline_.fetch_add(1);
        resp = deadline_error(deadline_ms, "while handling the request");
      }
    }
    append_frame(conn.out, resp);
  };

  // Consume the complete frames buffered on `conn`, in order. Once the
  // drain is over (Closing), each is answered ShuttingDown unhandled.
  const auto serve_frames = [&](Shard::Conn& conn, bool admit) {
    while (!conn.close_after_flush && conn.in.size() >= 4) {
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
      if (phase_.load() == Phase::Closing) {
        stat_shutdown_aborted_.fetch_add(1);
        append_frame(conn.out,
                     api::encode_response(api::ErrorResponse{
                         api::ErrorCode::ShuttingDown,
                         "serve: server shut down before the request was handled"}));
        continue;
      }
      answer(conn, payload, admit);
    }
  };

  const auto holds_frame = [](const Shard::Conn& conn) {
    if (conn.close_after_flush || conn.in.size() < 4) return false;
    const std::uint32_t len = peek_u32(conn.in);
    return len > kMaxFrameBytes || conn.in.size() - 4 >= len;
  };

  // Serve every connection's complete frames. Admission gate: while more
  // than max_inflight connections hold one, the first in line are shed
  // until the rest fit, so a burst wider than the gate is refused with a
  // retry hint instead of queueing behind itself.
  const auto serve_buffered = [&] {
    std::size_t waiting = 0;
    for (const auto& [id, conn] : shard.conns) waiting += holds_frame(conn) ? 1 : 0;
    for (auto& [id, conn] : shard.conns) {
      if (!holds_frame(conn)) continue;
      serve_frames(conn, waiting <= std::size_t(opt_.max_inflight));
      --waiting;
    }
  };

  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd (0 = wake pipe)
  std::vector<int> fresh;

  while (true) {
    const Phase phase = phase_.load();
    if (phase == Phase::Closing) break;

    {
      std::lock_guard<std::mutex> lock(shard.mu);
      fresh.swap(shard.new_conns);
    }
    for (const int fd : fresh) {
      set_nonblocking(fd);
      set_nodelay(fd);
      Shard::Conn conn;
      conn.fd = fd;
      shard.conns.emplace(shard.next_conn_id++, std::move(conn));
    }
    fresh.clear();

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
          phase == Phase::Serving && opt_.read_timeout_ms != 0 &&
          conn.read_start != Clock::time_point{} &&
          now - conn.read_start > std::chrono::milliseconds(opt_.read_timeout_ms);
      const bool write_stalled =
          phase == Phase::Serving && opt_.write_timeout_ms != 0 &&
          conn.write_start != Clock::time_point{} &&
          now - conn.write_start > std::chrono::milliseconds(opt_.write_timeout_ms);
      if (read_stalled || write_stalled) {
        // A peer that cannot complete a frame or cannot drain its
        // responses is wedging shard resources: cut it.
        stat_evicted_.fetch_add(1);
        ::close(conn.fd);
        it = shard.conns.erase(it);
        continue;
      }
      if (conn.out.empty() && (conn.close_after_flush || conn.peer_closed)) {
        ::close(conn.fd);
        it = shard.conns.erase(it);
      } else {
        ++it;
      }
    }

    if (phase == Phase::Draining) {
      // Frames are served in the pass that reads them and reads are off,
      // so the shard is quiescent once its output has drained.
      bool idle = true;
      for (const auto& [id, conn] : shard.conns) idle = idle && conn.out.empty();
      shard.quiescent.store(idle);
    }

    // Poll: wake pipe always; sockets for writes always, reads only while
    // serving.
    fds.clear();
    fd_conn.clear();
    fds.push_back(pollfd{shard.wake_rd, POLLIN, 0});
    fd_conn.push_back(0);
    for (const auto& [id, conn] : shard.conns) {
      short events = 0;
      if (!conn.out.empty()) events = short(events | POLLOUT);
      if (phase == Phase::Serving && !conn.close_after_flush)
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
    if (phase != Phase::Serving) continue;

    const auto arrived = Clock::now();
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const auto it = shard.conns.find(fd_conn[i]);
      if (it == shard.conns.end()) continue;
      Shard::Conn& conn = it->second;
      // Read everything available.
      char buf[16384];
      while (conn.in.size() <= kMaxConnBacklogBytes) {
        const ssize_t r = ::read(conn.fd, buf, sizeof(buf));
        if (r > 0) {
          conn.in.append(buf, std::size_t(r));
          conn.received = arrived;
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
      if (conn.in.size() > kMaxConnBacklogBytes) {
        stat_evicted_.fetch_add(1);
        ::close(conn.fd);
        shard.conns.erase(it);
      }
    }
    serve_buffered();
  }

  // The drain is over. Every frame read has been answered (past the
  // deadline, ShuttingDown); flush what we can without blocking — a
  // best-effort courtesy, never a hang — and close.
  for (auto& [id, conn] : shard.conns) {
    while (!conn.out.empty()) {
      const ssize_t w = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (w <= 0) break;  // EAGAIN/EPIPE/…: best effort only
      conn.out.erase(0, std::size_t(w));
    }
    ::close(conn.fd);
  }
  shard.conns.clear();
  // Sockets dealt after the last pass were never adopted.
  std::lock_guard<std::mutex> lock(shard.mu);
  for (const int fd : shard.new_conns) ::close(fd);
  shard.new_conns.clear();
}

}  // namespace dfv::serve
