#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "exp/table.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"

namespace elect::net {

namespace {

using namespace std::chrono_literals;

/// Which reactor's loop is THIS thread? Lets posts targeted at the
/// reactor we are already running on execute inline instead of taking
/// the inbox + eventfd detour (the common case for handshake replies
/// and protocol errors, which are produced on the read path itself).
thread_local const void* current_reactor_tls = nullptr;

/// Milliseconds of lease left, for the wire (clamped at zero; the
/// sentinel for "never expires" is wire::lease_forever).
std::uint64_t lease_remaining_ms(
    std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    return wire::lease_forever;
  }
  const auto left = deadline - std::chrono::steady_clock::now();
  if (left <= std::chrono::steady_clock::duration::zero()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(left).count());
}

/// Write the whole buffer to a non-blocking socket, parking on POLLOUT
/// when the send buffer is full, until `deadline`. Only the HTTP
/// side-channel uses this (a scrape response is one small buffered
/// write); wire frames go through the per-connection output rings.
void write_all(int fd, const std::string& data,
               std::chrono::steady_clock::time_point deadline) {
  std::size_t sent = 0;
  while (sent < data.size() && std::chrono::steady_clock::now() < deadline) {
    const ssize_t wrote =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (wrote > 0) {
      sent += static_cast<std::size_t>(wrote);
    } else if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 100);
    } else if (wrote >= 0 || errno != EINTR) {
      return;
    }
  }
}

/// Records the server-side `serve` span for a traced request (from the
/// read that decoded it to the answer being queued) and runs the
/// slow-request check, with the span already in the ring when the
/// capture formats the trace.
void record_serve(std::uint64_t trace, wire::op kind, std::uint64_t start) {
  if (trace == 0) return;
  const std::uint64_t end = obs::now_ns();
  obs::record_for(trace, obs::phase::serve, start, end);
  std::string label = "serve ";
  label += wire::to_string(kind);
  (void)obs::maybe_capture_slow(trace, std::chrono::nanoseconds(end - start),
                                label);
}

/// One key_inspection as the JSON object the admin ops return.
/// lease_remaining_ms is null for a non-expiring (or absent) lease.
std::string inspection_json(const svc::key_inspection& k) {
  std::string out;
  out += "{\"key\":\"";
  out += exp::json_escape(k.key);
  out += "\",\"epoch\":";
  out += std::to_string(k.entry.epoch);
  out += ",\"leader\":";
  out += std::to_string(k.leader);
  out += ",\"mode\":\"";
  out.append(k.mode.data(), k.mode.size());
  out += "\",\"lease_remaining_ms\":";
  const std::uint64_t left = lease_remaining_ms(k.lease_deadline);
  if (k.leader < 0 || left == wire::lease_forever) {
    out += "null";
  } else {
    out += std::to_string(left);
  }
  out += ",\"attempts_this_epoch\":";
  out += std::to_string(k.attempts_this_epoch);
  out += ",\"last_epoch_attempts\":";
  out += std::to_string(k.last_epoch_attempts);
  out += '}';
  return out;
}

/// Persist a snapshot via write-to-temp + rename, so a crash mid-write
/// never leaves a torn file where a restore expects a whole one.
bool write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return false;
  const bool wrote =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool flushed = std::fflush(file) == 0;
  const bool closed = std::fclose(file) == 0;
  if (!(wrote && flushed && closed)) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// The network front-end's own Prometheus series, appended after the
/// service-level series obs::render_prometheus produces.
void render_net_prometheus(std::string& out, const net_report& r) {
  obs::prom_gauge(out, "elect_net_connections_active",
                  "Open client connections.", r.connections_active);
  obs::prom_counter(out, "elect_net_connections_accepted_total",
                    "Connections accepted.", r.connections_accepted);
  obs::prom_counter(out, "elect_net_connections_refused_total",
                    "Connections refused at the cap.", r.connections_refused);
  obs::prom_counter(out, "elect_net_requests_total", "Wire requests decoded.",
                    r.requests);
  obs::prom_counter(out, "elect_net_frames_in_total", "Frames received.",
                    r.frames_in);
  obs::prom_counter(out, "elect_net_frames_out_total", "Frames sent.",
                    r.frames_out);
  obs::prom_counter(out, "elect_net_bytes_in_total", "Bytes received.",
                    r.bytes_in);
  obs::prom_counter(out, "elect_net_bytes_out_total", "Bytes sent.",
                    r.bytes_out);
  obs::prom_counter(out, "elect_net_busy_rejections_total",
                    "Requests answered busy at the blocking-op cap.",
                    r.busy_rejections);
  obs::prom_counter(out, "elect_net_protocol_errors_total",
                    "Connections killed for protocol violations.",
                    r.protocol_errors);
  obs::prom_counter(out, "elect_net_disconnect_reclaims_total",
                    "Leases reclaimed because their connection died.",
                    r.disconnect_reclaims);
  obs::prom_counter(out, "elect_net_events_pushed_total",
                    "Watch event frames delivered.", r.events_pushed);
  obs::prom_counter(out, "elect_net_events_dropped_total",
                    "Watch event frames dropped (dead or wedged consumer).",
                    r.events_dropped);
  obs::prom_gauge(out, "elect_net_reactors", "Configured reactor count.",
                  r.reactors);
  obs::prom_counter(out, "elect_net_writev_total",
                    "writev flush calls across all reactors.",
                    r.writev_calls);
  obs::prom_counter(out, "elect_net_frames_flushed_total",
                    "Frames flushed via writev across all reactors.",
                    r.frames_flushed);
  obs::prom_counter(out, "elect_net_wakeups_total",
                    "Cross-thread eventfd wakeups across all reactors.",
                    r.reactor_wakeups);

  // Per-reactor slices. The labels are the operational interface for
  // spotting a hot or idle reactor; frames_flushed / writev is the
  // coalesce ratio, per reactor.
  using stat = net_report::reactor_stat;
  struct series {
    const char* name;
    const char* help;
    const char* type;
    std::uint64_t stat::*field;
  };
  static constexpr series per_reactor[] = {
      {"elect_net_reactor_connections",
       "Open connections pinned to each reactor.", "gauge",
       &stat::connections},
      {"elect_net_reactor_accepted_total",
       "Connections accepted (or adopted) per reactor.", "counter",
       &stat::accepted},
      {"elect_net_reactor_wakeups_total", "Eventfd wakeups per reactor.",
       "counter", &stat::wakeups},
      {"elect_net_reactor_writev_total", "writev flush calls per reactor.",
       "counter", &stat::writev_calls},
      {"elect_net_reactor_frames_flushed_total",
       "Frames flushed per reactor.", "counter", &stat::frames_flushed},
      {"elect_net_reactor_drain_batches_total",
       "Flush passes that wrote at least one frame, per reactor.", "counter",
       &stat::drain_batches},
      {"elect_net_reactor_requests_total", "Requests decoded per reactor.",
       "counter", &stat::requests},
  };
  for (const series& m : per_reactor) {
    obs::prom_type_line(out, m.name, m.help, m.type);
    for (const stat& s : r.per_reactor) {
      obs::prom_labeled(out, m.name, "reactor", std::to_string(s.index),
                        s.*m.field);
    }
  }
}

/// Resolve the reactor count: explicit config wins, then the
/// ELECT_REACTORS environment variable (what CI uses to force 4 under
/// the sanitizers), then hardware concurrency clamped to a sane fleet.
int resolve_reactor_count(int configured) {
  if (configured > 0) return std::clamp(configured, 1, 64);
  if (const char* env = std::getenv("ELECT_REACTORS")) {
    const int n = std::atoi(env);
    if (n > 0) return std::clamp(n, 1, 64);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, 16);
}

/// One bound, listening, non-blocking socket. With `reuseport`, failure
/// to set SO_REUSEPORT is a failure (the caller falls back to the
/// single-listener path rather than binding a non-sharded socket into a
/// sharded group).
int make_listener(const std::string& address, std::uint16_t port,
                  bool reuseport, std::uint16_t* bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 256) != 0) {
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

}  // namespace

std::string net_report::to_json() const {
  std::ostringstream out;
  out << "{\"connections_accepted\":" << connections_accepted
      << ",\"connections_active\":" << connections_active
      << ",\"connections_refused\":" << connections_refused
      << ",\"frames_in\":" << frames_in << ",\"frames_out\":" << frames_out
      << ",\"bytes_in\":" << bytes_in << ",\"bytes_out\":" << bytes_out
      << ",\"requests\":" << requests
      << ",\"dispatch_batches\":" << dispatch_batches
      << ",\"backpressure_pauses\":" << backpressure_pauses
      << ",\"busy_rejections\":" << busy_rejections
      << ",\"protocol_errors\":" << protocol_errors
      << ",\"disconnect_reclaims\":" << disconnect_reclaims
      << ",\"watch_subscriptions\":" << watch_subscriptions
      << ",\"events_pushed\":" << events_pushed
      << ",\"events_dropped\":" << events_dropped
      << ",\"reactors\":" << reactors
      << ",\"reuseport\":" << (reuseport ? "true" : "false")
      << ",\"writev_calls\":" << writev_calls
      << ",\"frames_flushed\":" << frames_flushed
      << ",\"reactor_wakeups\":" << reactor_wakeups << ",\"per_reactor\":[";
  for (std::size_t i = 0; i < per_reactor.size(); ++i) {
    const reactor_stat& s = per_reactor[i];
    if (i != 0) out << ',';
    out << "{\"index\":" << s.index << ",\"connections\":" << s.connections
        << ",\"accepted\":" << s.accepted << ",\"wakeups\":" << s.wakeups
        << ",\"writev_calls\":" << s.writev_calls
        << ",\"frames_flushed\":" << s.frames_flushed
        << ",\"drain_batches\":" << s.drain_batches
        << ",\"requests\":" << s.requests << "}";
  }
  out << "]}";
  return out.str();
}

server::connection::~connection() {
  if (fd >= 0) ::close(fd);
}

server::server(svc::service& service, server_config config)
    : service_(service), config_(std::move(config)) {
  ELECT_CHECK(config_.max_waiters >= 1);
  ELECT_CHECK(config_.max_inflight_per_connection >= 1);

  const int n = resolve_reactor_count(config_.reactors);
  reactors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto r = std::make_unique<reactor>();
    r->owner = this;
    r->index = i;
    reactors_.push_back(std::move(r));
  }

  const auto fail = [this] {
    for (auto& re : reactors_) {
      if (re->epoll_fd >= 0) ::close(re->epoll_fd);
      if (re->wake_fd >= 0) ::close(re->wake_fd);
      if (re->listen_fd >= 0) ::close(re->listen_fd);
      re->epoll_fd = re->wake_fd = re->listen_fd = -1;
    }
    if (http_listen_fd_ >= 0) {
      ::close(http_listen_fd_);
      http_listen_fd_ = -1;
    }
  };

  // The accept path: one SO_REUSEPORT listener per reactor when we can
  // (the kernel spreads incoming connections across the group), a
  // single listener on reactor 0 dealing round-robin when we can't.
  bool sharded = config_.reuseport && n > 1;
  if (sharded) {
    std::uint16_t bound = 0;
    const int first =
        make_listener(config_.bind_address, config_.port, true, &bound);
    if (first < 0) {
      sharded = false;
    } else {
      reactors_[0]->listen_fd = first;
      port_ = bound;
      for (int i = 1; i < n && sharded; ++i) {
        const int fd = make_listener(config_.bind_address, port_, true,
                                     nullptr);
        if (fd < 0) {
          sharded = false;
        } else {
          reactors_[i]->listen_fd = fd;
        }
      }
      if (!sharded) {
        // A partial group is worse than no group: close everything and
        // fall back to the single-listener path below.
        for (auto& re : reactors_) {
          if (re->listen_fd >= 0) ::close(re->listen_fd);
          re->listen_fd = -1;
        }
        port_ = 0;
      }
    }
  }
  if (!sharded) {
    const int fd =
        make_listener(config_.bind_address, config_.port, false, &port_);
    if (fd < 0) return;  // listening_ stays false: bind failed
    reactors_[0]->listen_fd = fd;
  }
  reuseport_active_ = sharded;

  for (auto& re : reactors_) {
    re->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    re->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (re->epoll_fd < 0 || re->wake_fd < 0) {
      fail();
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = re->wake_fd;
    if (::epoll_ctl(re->epoll_fd, EPOLL_CTL_ADD, re->wake_fd, &ev) != 0) {
      fail();
      return;
    }
    if (re->listen_fd >= 0) {
      ev.data.fd = re->listen_fd;
      if (::epoll_ctl(re->epoll_fd, EPOLL_CTL_ADD, re->listen_fd, &ev) != 0) {
        fail();
        return;
      }
    }
  }

  if (config_.http_enabled) {
    // The HTTP side-channel rides reactor 0 — a scrape is a few hundred
    // bytes each way, not worth a listener per reactor. Failure to bind
    // degrades to "no HTTP" (http_listening() false) rather than taking
    // the wire listeners down with it.
    http_listen_fd_ = make_listener(config_.bind_address, config_.http_port,
                                    false, &http_port_);
    epoll_event hev{};
    hev.events = EPOLLIN;
    hev.data.fd = http_listen_fd_;
    if (http_listen_fd_ >= 0 &&
        ::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_ADD, http_listen_fd_,
                    &hev) != 0) {
      ::close(http_listen_fd_);
      http_listen_fd_ = -1;
      http_port_ = 0;
    }
  }

  listening_ = true;
  for (auto& re : reactors_) {
    reactor* rp = re.get();
    re->thread = std::thread([this, rp] { reactor_main(*rp); });
  }
}

server::~server() { stop(); }

void server::stop() {
  if (stopping_.exchange(true)) return;
  for (auto& re : reactors_) {
    if (re->thread.joinable()) {
      wake(*re);
      re->thread.join();
    }
  }
  // Every connection is finished, so the completions still in flight
  // (an election, a commit gate) see closed connections and settle
  // without the reactors; wait for the last of them.
  {
    std::unique_lock<std::mutex> lock(ops_mutex_);
    ops_drained_.wait(lock, [this] { return ops_ == 0; });
  }
  for (auto& re : reactors_) {
    for (const int fd : re->adopt_inbox) ::close(fd);
    re->adopt_inbox.clear();
    if (re->epoll_fd >= 0) ::close(re->epoll_fd);
    if (re->wake_fd >= 0) ::close(re->wake_fd);
    if (re->listen_fd >= 0) ::close(re->listen_fd);
    re->epoll_fd = re->wake_fd = re->listen_fd = -1;
  }
  if (http_listen_fd_ >= 0) {
    ::close(http_listen_fd_);
    http_listen_fd_ = -1;
  }
}

void server::begin_op() {
  const std::lock_guard<std::mutex> lock(ops_mutex_);
  ++ops_;
}

void server::end_op() {
  // Notify under the lock: stop() destroys the server as soon as it
  // observes zero, so the cv must not be touched after the unlock.
  const std::lock_guard<std::mutex> lock(ops_mutex_);
  if (--ops_ == 0) ops_drained_.notify_all();
}

// ---------------------------------------------------------------------
// The reactor loop: accept, drain-and-dispatch, flush, teardown.

void server::reactor_main(reactor& r) {
  current_reactor_tls = &r;
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int ready =
        ::epoll_wait(r.epoll_fd, events, 64, next_timeout_ms(r));
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == r.wake_fd) {
        std::uint64_t drained = 0;
        (void)!::read(r.wake_fd, &drained, sizeof drained);
        r.wakeups.fetch_add(1, std::memory_order_relaxed);
        (void)process_inbox(r);
        continue;
      }
      if (fd == r.listen_fd) {
        accept_ready(r);
        continue;
      }
      if (r.index == 0 && fd == http_listen_fd_) {
        http_accept_ready(r);
        continue;
      }
      const auto it = r.connections.find(fd);
      if (it != r.connections.end()) {
        // Copy: the handlers may finish the connection and erase it.
        const connection_ptr conn = it->second;
        if ((mask & EPOLLOUT) != 0) flush_connection(r, conn);
        if ((mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0 &&
            r.connections.count(fd) != 0) {
          read_ready(r, conn);
        }
        continue;
      }
      if (r.index == 0 && http_conns_.count(fd) != 0) http_read_ready(r, fd);
    }
    // What this turn posted to itself runs before the loop sleeps: the
    // answers a read batch produced leave in one sendmsg.
    while (process_inbox(r)) {}
    fire_timers(r);
    while (process_inbox(r)) {}
  }
  // Teardown. Verdicts and resumes already posted are run, and every
  // blocking acquire still open is answered `rejected` (the final flush
  // in finish_connection carries the answers; an attempt or resume still
  // in flight finds its waiter done). Then every connection is finished
  // (disconnect-on-close included) while the map still owns it. Closing
  // the inbox makes later posts settle on their own thread.
  while (process_inbox(r)) {}
  for (const auto& [fd, conn] : r.connections) {
    for (const waiter_ptr& w : std::vector<waiter_ptr>(conn->waiters)) {
      (void)unpark(w);
      wire::response rejected;
      rejected.result = wire::status::rejected;
      answer_waiter(w, std::move(rejected));
    }
  }
  std::vector<connection_ptr> remaining;
  remaining.reserve(r.connections.size());
  for (const auto& [fd, conn] : r.connections) remaining.push_back(conn);
  for (const auto& conn : remaining) finish_connection(r, conn);
  std::vector<waiter_ptr> late;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    r.running = false;
    late.swap(r.waiter_inbox);
    r.flush_inbox.clear();
  }
  for (const waiter_ptr& w : late) step_waiter(w);
  r.timers.clear();
  if (r.index == 0) {
    for (const auto& [fd, buffered] : http_conns_) ::close(fd);
    http_conns_.clear();
  }
}

bool server::process_inbox(reactor& r) {
  std::vector<int> adopts;
  std::vector<waiter_ptr> waiters;
  std::vector<connection_ptr> flushes;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    adopts.swap(r.adopt_inbox);
    waiters.swap(r.waiter_inbox);
    flushes.swap(r.flush_inbox);
    r.wake_pending = false;
  }
  for (const int fd : adopts) adopt_connection(r, fd);
  for (const waiter_ptr& w : waiters) step_waiter(w);
  for (const auto& conn : flushes) flush_connection(r, conn);
  return !(adopts.empty() && waiters.empty() && flushes.empty());
}

void server::wake(reactor& r) {
  const std::uint64_t one = 1;
  (void)!::write(r.wake_fd, &one, sizeof one);
}

template <typename Fill>
bool server::post(reactor& r, Fill&& fill) {
  bool kick = false;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    if (!r.running) return false;
    fill();
    // The reactor drains its inbox before it sleeps, so posting to
    // itself needs no kick.
    kick = current_reactor_tls != &r && !std::exchange(r.wake_pending, true);
  }
  if (kick) wake(r);
  return true;
}

void server::accept_ready(reactor& r) {
  for (;;) {
    const int fd =
        ::accept4(r.listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: wait for the next event
    }
    if (stopping_.load(std::memory_order_relaxed) ||
        connections_active_.load(std::memory_order_relaxed) >=
            static_cast<std::uint64_t>(config_.max_connections)) {
      counters_.connections_refused.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (reuseport_active_ || reactors_.size() == 1) {
      adopt_connection(r, fd);
      continue;
    }
    // Single-listener fallback: reactor 0 owns the only listener and
    // deals accepted sockets round-robin across the fleet. next_adopter_
    // starts at 1, so spreading begins with the very first connection.
    reactor& target = *reactors_[next_adopter_++ % reactors_.size()];
    if (&target == &r) {
      adopt_connection(r, fd);
      continue;
    }
    if (!post(target, [&] { target.adopt_inbox.push_back(fd); })) ::close(fd);
  }
}

void server::adopt_connection(reactor& r, int fd) {
  if (stopping_.load(std::memory_order_relaxed)) {
    ::close(fd);
    return;
  }
  auto conn = std::make_shared<connection>(
      fd, next_connection_id_.fetch_add(1, std::memory_order_relaxed), r);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.fd = fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return;  // conn destructor closes the fd
  }
  r.connections.emplace(fd, std::move(conn));
  r.accepted.fetch_add(1, std::memory_order_relaxed);
  r.active.fetch_add(1, std::memory_order_relaxed);
  counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  connections_active_.fetch_add(1, std::memory_order_relaxed);
}

void server::read_ready(reactor& r, const connection_ptr& conn) {
  // Drain the socket in bounded bites, decoding and dispatching after
  // each recv. Draining straight to EAGAIN before ever consulting the
  // in-flight cap would let a client that pre-filled the kernel buffer
  // blow arbitrarily far past max_inflight_per_connection; this way the
  // overshoot is bounded by the frames of one 64 KiB read, and the rest
  // stays in the kernel buffer (level-triggered EPOLLIN re-fires once
  // the pause lifts).
  std::uint8_t buffer[64 * 1024];
  bool dead = conn->closed.load(std::memory_order_relaxed);
  bool drained = dead;
  bool served = false;
  while (!dead) {
    const ssize_t got = ::recv(conn->fd, buffer, sizeof buffer, 0);
    if (got > 0) {
      counters_.bytes_in.fetch_add(static_cast<std::uint64_t>(got),
                                   std::memory_order_relaxed);
      if (!conn->reader.feed(buffer, static_cast<std::size_t>(got))) {
        protocol_error(conn, 0);
        dead = true;
      }
    } else if (got == 0) {
      dead = true;  // orderly EOF — the disconnect-on-close trigger
      drained = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      drained = true;
    } else {
      dead = true;  // reset / error — same as a crash
      drained = true;
    }

    // Decode and serve everything this bite completed. Dead connections
    // still parse: requests already received alongside an EOF are
    // served (the client pipelined then closed; its last responses are
    // moot, but a won lease must be reclaimed — see serve).
    while (auto frame = conn->reader.next()) {
      counters_.frames_in.fetch_add(1, std::memory_order_relaxed);
      auto req = wire::decode_request(*frame);
      if (!req) {
        protocol_error(conn, 0);
        dead = true;
        drained = true;
        break;
      }
      if (!conn->session) {
        handle_handshake(conn, *req);
        if (!conn->session) {
          dead = true;
          drained = true;
          break;
        }
        continue;
      }
      if (req->kind == wire::op::hello) {
        protocol_error(conn, req->id);
        dead = true;
        drained = true;
        break;
      }
      counters_.requests.fetch_add(1, std::memory_order_relaxed);
      r.requests.fetch_add(1, std::memory_order_relaxed);
      conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
      served = true;
      serve(r, conn, std::move(*req));
    }
    if (drained) break;
    // At the cap: stop reading; maybe_pause below parks the socket.
    if (conn->in_flight.load(std::memory_order_acquire) >=
        config_.max_inflight_per_connection) {
      break;
    }
  }

  if (served) {
    counters_.dispatch_batches.fetch_add(1, std::memory_order_relaxed);
  }

  if (dead) {
    finish_connection(r, conn);
  } else {
    maybe_pause(r, conn);
  }
}

void server::handle_handshake(const connection_ptr& conn,
                              const wire::request& req) {
  if (!wire::hello_version_ok(req)) {
    protocol_error(conn, req.id);
    return;  // session stays unset; the caller closes the connection
  }
  auto session = service_.try_connect();
  if (!session.has_value()) {
    // The service stopped under us: answer once so the client fails
    // with "rejected" instead of a bare connection reset.
    wire::response refused = wire::make_hello_response(0);
    refused.id = req.id;
    refused.result = wire::status::rejected;
    send_response(conn, refused);
    return;
  }
  conn->session.emplace(*session);
  wire::response hello =
      wire::make_hello_response(static_cast<std::uint64_t>(session->id()));
  hello.id = req.id;
  send_response(conn, hello);
}

void server::protocol_error(const connection_ptr& conn,
                            std::uint64_t request_id) {
  counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  wire::response r;
  r.id = request_id;
  r.result = wire::status::bad_request;
  // Best effort: the frame lands in the output ring and the final flush
  // in finish_connection pushes it at the raw socket before close.
  send_response(conn, r);
}

// ---------------------------------------------------------------------
// Request execution: everything starts on the reactor that decoded it.
wire::response server::acquire_response(const svc::acquire_result& result) {
  wire::response r;
  r.epoch = result.epoch;
  if (result.rejected) {
    // A cluster primary that lost its quorum fails the commit gate:
    // the grant was applied locally but never confirmed — the client
    // must treat it as a dead connection, not a clean loss.
    r.result = result.connection_lost ? wire::status::connection_lost
                                      : wire::status::rejected;
  } else if (result.won) {
    r.result = wire::status::ok;
    r.flags |= wire::flag_won;
    if (result.fast_path) r.flags |= wire::flag_fast_path;
    r.lease_remaining_ms = lease_remaining_ms(result.lease_deadline);
  } else if (result.timed_out) {
    r.result = wire::status::timed_out;
  } else {
    r.result = wire::status::lost;
  }
  return r;
}

wire::response server::redirect(const wire::request& req) const {
  wire::response r;
  r.id = req.id;
  r.kind = req.kind;
  r.result = wire::status::not_primary;
  r.body = config_.cluster.primary_hint();
  return r;
}

void server::reply(const call& c, wire::response r) {
  r.id = c.id;
  r.kind = c.kind;
  complete(c.conn);  // first: the answer's flush then sees the slot free
  send_response(c.conn, r);
  record_serve(c.trace, c.kind, c.start);
}

void server::serve(reactor& re, const connection_ptr& conn,
                   wire::request req) {
  // The v3 frame carried the client's trace id: serve under it so the
  // service-layer spans (fast path, queue wait, election, lease ops)
  // land in the same trace the client minted.
  const obs::trace_scope trace(req.trace_id);
  if (req.kind == wire::op::acquire ||
      req.kind == wire::op::try_acquire_for) {
    start_waiter(re, conn, std::move(req));
    return;
  }
  const call c{conn, req.id, req.kind, req.trace_id,
               req.trace_id != 0 ? obs::now_ns() : 0};
  wire::response r;
  if (config_.cluster.enabled()) {
    switch (req.kind) {
      case wire::op::peer_vote:
      case wire::op::peer_append:
      case wire::op::peer_snapshot:
        // Replication traffic: straight to the repl node, no session
        // semantics involved.
        reply(c, config_.cluster.peer(req));
        return;
      case wire::op::try_acquire:
      case wire::op::release:
      case wire::op::release_fenced:
      case wire::op::renew:
      case wire::op::admin_force_release:
        // Mutations only run where the replicated log is written.
        // (disconnect is deliberately absent: a follower session holds
        // nothing, so serving it locally is correct — and the implicit
        // disconnect on socket close has no one to redirect anyway.)
        if (!config_.cluster.is_primary()) {
          reply(c, redirect(req));
          return;
        }
        break;
      default:
        break;
    }
  }
  svc::service::session& session = *conn->session;
  // Counted until answered: an election on a pool node or a
  // commit-gated ack completes after this returns.
  begin_op();
  const auto on_status = [this, c](svc::lease_status status) {
    wire::response out;
    out.result = wire::from_lease_status(status);
    if (c.kind == wire::op::renew && out.result == wire::status::ok) {
      // A successful renew re-arms the full TTL; telling the client the
      // refreshed budget is what lets a remote auto-renewing lease
      // (api::lease) schedule its next heartbeat without a second
      // round-trip.
      const std::uint64_t ttl_ms = service_.config().lease_ttl_ms;
      out.lease_remaining_ms = ttl_ms == 0 ? wire::lease_forever : ttl_ms;
    }
    reply(c, std::move(out));
    end_op();
  };
  switch (req.kind) {
    case wire::op::try_acquire:
      session.try_acquire(req.key, [this, c, key = req.key](
                                       const svc::acquire_result& result) {
        if (result.won && c.conn->closed.load(std::memory_order_relaxed)) {
          // Rode in alongside the connection's EOF (or the close raced
          // us). The shard mutex orders the win against
          // finish_connection's reclaim scan, so a win the scan could
          // not see always observes closed here.
          reclaim_late_win(*c.conn, key, result.epoch);
          complete(c.conn);
        } else {
          reply(c, acquire_response(result));
        }
        end_op();
      });
      return;
    case wire::op::release:
      session.release(req.key, on_status);
      return;
    case wire::op::release_fenced:
      session.release(req.key, req.epoch, on_status);
      return;
    case wire::op::renew:
      session.renew(req.key, req.epoch, on_status);
      return;
    case wire::op::disconnect:
      session.disconnect([this, c](std::size_t released) {
        wire::response out;
        out.epoch = released;
        out.result = wire::status::ok;
        reply(c, std::move(out));
        end_op();
      });
      return;
    case wire::op::admin_force_release:
      if (!config_.enable_admin) {
        r.result = wire::status::denied;
        break;
      }
      // Through the service, not the registry: the forced-release
      // counter and the journal's "admin" cause live there.
      service_.force_release(req.key, on_status);
      return;
    case wire::op::watch:
      serve_watch(conn, req, r);
      break;
    case wire::op::unwatch:
      serve_unwatch(conn, req, r);
      break;
    case wire::op::metrics:
      r.body = report_json();
      r.result = wire::status::ok;
      // A body the frame cap cannot carry would poison the client's
      // deframer and kill the whole connection; fail just this call.
      if (r.body.size() > wire::max_frame_bytes - 64) {
        r.body.clear();
        r.result = wire::status::bad_request;
      }
      break;
    case wire::op::admin_cluster_status:
      // Answered by every member, primary or not, and NOT gated by
      // enable_admin: a client or operator locating the primary must
      // not need force-release rights to ask who leads.
      r.body = config_.cluster.status_json
                   ? config_.cluster.status_json()
                   : std::string("{\"role\":\"standalone\"}");
      r.result = wire::status::ok;
      break;
    case wire::op::admin_list:
    case wire::op::admin_inspect:
    case wire::op::admin_snapshot:
    case wire::op::admin_commands:
      serve_admin(req, r);
      break;
    default:
      r.result = wire::status::bad_request;
      break;
  }
  reply(c, std::move(r));
  end_op();
}

// ---------------------------------------------------------------------
// The watch router. One hub subscription per watched key; fanout_event
// fans the hub's callback to every wire subscriber of that key.
//
// Lock order: router_mutex_ → out_mutex, never reversed.
// service_.watch (hub add) is brief and safe anywhere; service_.unwatch
// (hub remove) can block until in-flight deliveries finish, and a
// delivery takes router_mutex_ — so unwatch is NEVER called with
// router_mutex_ held.

void server::serve_watch(const connection_ptr& conn, const wire::request& req,
                         wire::response& r) {
  const std::string& key = req.key;
  std::uint64_t id = 0;
  bool need_subscribe = false;
  {
    const std::lock_guard<std::mutex> lock(router_mutex_);
    // closed is set before finish_connection takes this lock to collect
    // watch ids, so either finish sees the id we add here, or we see
    // closed and refuse — never a leaked registration.
    if (conn->closed.load(std::memory_order_relaxed)) {
      r.result = wire::status::rejected;
      return;
    }
    if (conn->watch_ids.size() >=
        static_cast<std::size_t>(config_.max_watches_per_connection)) {
      counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
      r.result = wire::status::busy;
      return;
    }
    id = next_router_id_++;
    watch_key_state& ks = router_by_key_[key];
    ks.ids.push_back(id);
    router_by_id_.emplace(id, watch_target{key, conn});
    conn->watch_ids.push_back(id);
    if (ks.hub_id == 0 && !ks.subscribing) {
      ks.subscribing = true;
      need_subscribe = true;
    }
  }
  if (need_subscribe) {
    // First watcher on this key: register the single hub subscription
    // whose callback serves every wire subscriber of the key.
    const std::uint64_t hub_id = service_.watch(
        key, [this](const svc::watch_event& e) { fanout_event(e); });
    std::uint64_t drop_hub = 0;
    bool failed = false;
    {
      const std::lock_guard<std::mutex> lock(router_mutex_);
      // The entry cannot vanish while `subscribing` is set (unwatch and
      // finish_connection leave it for us), so the lookup holds.
      const auto kit = router_by_key_.find(key);
      kit->second.subscribing = false;
      if (hub_id != 0 && !kit->second.ids.empty()) {
        kit->second.hub_id = hub_id;
      } else {
        if (hub_id == 0) {
          // Service stopped under us: roll back this registration.
          failed = true;
          router_by_id_.erase(id);
          auto& ids = kit->second.ids;
          ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
          auto& wids = conn->watch_ids;
          wids.erase(std::remove(wids.begin(), wids.end(), id), wids.end());
        } else {
          drop_hub = hub_id;  // everyone left while we registered
        }
        if (kit->second.ids.empty() && kit->second.hub_id == 0) {
          router_by_key_.erase(kit);
        }
      }
    }
    if (drop_hub != 0) service_.unwatch(drop_hub);
    if (failed) {
      r.result = wire::status::rejected;
      return;
    }
  }
  counters_.watch_subscriptions.fetch_add(1, std::memory_order_relaxed);
  r.result = wire::status::ok;
  r.epoch = id;  // the handle the client passes back to unwatch
}

void server::serve_unwatch(const connection_ptr& conn,
                           const wire::request& req, wire::response& r) {
  const std::uint64_t id = req.epoch;
  std::uint64_t drop_hub = 0;
  {
    const std::lock_guard<std::mutex> lock(router_mutex_);
    const auto idit = router_by_id_.find(id);
    // Only ids this connection registered are cancelled — an unknown or
    // foreign id is a harmless no-op, not a protocol violation.
    if (idit != router_by_id_.end() && idit->second.conn == conn) {
      auto& wids = conn->watch_ids;
      wids.erase(std::remove(wids.begin(), wids.end(), id), wids.end());
      drop_hub = drop_watch_locked(id);
    }
  }
  if (drop_hub != 0) service_.unwatch(drop_hub);
  r.result = wire::status::ok;
}

std::uint64_t server::drop_watch_locked(std::uint64_t id) {
  const auto idit = router_by_id_.find(id);
  if (idit == router_by_id_.end()) return 0;
  const auto kit = router_by_key_.find(idit->second.key);
  router_by_id_.erase(idit);
  if (kit == router_by_key_.end()) return 0;
  auto& ids = kit->second.ids;
  ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  if (!ids.empty() || kit->second.subscribing) return 0;
  const std::uint64_t hub = kit->second.hub_id;
  router_by_key_.erase(kit);
  return hub;
}

void server::fanout_event(const svc::watch_event& e) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  // The fast lane: encode the event ONCE into a shared immutable
  // buffer; every subscriber's ring gets the same bytes by reference.
  auto buf = std::make_shared<const std::vector<std::uint8_t>>(
      wire::encode_response(wire::make_event(e)));
  std::vector<connection_ptr> targets;
  {
    const std::lock_guard<std::mutex> lock(router_mutex_);
    const auto kit = router_by_key_.find(e.key);
    if (kit == router_by_key_.end()) return;
    targets.reserve(kit->second.ids.size());
    for (const std::uint64_t id : kit->second.ids) {
      const auto idit = router_by_id_.find(id);
      if (idit != router_by_id_.end()) targets.push_back(idit->second.conn);
    }
  }
  // Group the flush posts by owning reactor: one inbox lock + one
  // eventfd kick per reactor, however many subscribers it hosts.
  std::vector<std::vector<connection_ptr>> by_reactor(reactors_.size());
  for (const connection_ptr& conn : targets) {
    bool need_post = false;
    if (!enqueue_frame(conn, buf, /*is_event=*/true, need_post)) {
      counters_.events_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (need_post) {
      by_reactor[static_cast<std::size_t>(conn->owner.index)].push_back(conn);
    }
  }
  for (std::size_t i = 0; i < by_reactor.size(); ++i) {
    auto& conns = by_reactor[i];
    reactor& r = *reactors_[i];
    if (conns.empty()) continue;
    (void)post(r, [&] {
      r.flush_inbox.insert(r.flush_inbox.end(), conns.begin(), conns.end());
    });
  }
}

void server::serve_admin(const wire::request& req, wire::response& r) {
  if (!config_.enable_admin) {
    r.result = wire::status::denied;
    return;
  }
  svc::instance_registry& registry = service_.registry();
  switch (req.kind) {
    case wire::op::admin_list: {
      std::string body = "[";
      for (const svc::key_inspection& k : registry.list_keys()) {
        if (body.size() > 1) body += ',';
        body += inspection_json(k);
        // A pathological key population could outgrow a frame; truncate
        // to whole objects rather than poisoning the client's deframer.
        if (body.size() > wire::max_frame_bytes / 2) break;
      }
      body += ']';
      r.body = std::move(body);
      r.result = wire::status::ok;
      break;
    }
    case wire::op::admin_inspect: {
      const auto k = registry.inspect(req.key);
      if (!k.has_value()) {
        r.result = wire::status::not_leader;  // never acquired
        break;
      }
      r.body = inspection_json(*k);
      r.epoch = k->entry.epoch;
      r.result = wire::status::ok;
      break;
    }
    case wire::op::admin_snapshot: {
      const std::vector<std::uint8_t> snap =
          service_.registry().snapshot(/*trim_log=*/false);
      bool written = false;
      bool write_failed = false;
      if (!config_.snapshot_path.empty()) {
        written = write_snapshot_file(config_.snapshot_path, snap);
        write_failed = !written;
      }
      const cmd::log_stats stats = service_.registry().log_stats();
      std::string body = "{\"recording\":";
      body += stats.recording ? "true" : "false";
      body += ",\"recorded\":";
      body += std::to_string(stats.recorded);
      body += ",\"retained\":";
      body += std::to_string(stats.retained);
      body += ",\"bytes\":";
      body += std::to_string(snap.size());
      body += ",\"path\":\"";
      body += exp::json_escape(config_.snapshot_path);
      body += "\",\"written\":";
      body += written ? "true" : "false";
      body += "}";
      r.body = std::move(body);
      // A snapshot the operator asked to persist but could not be
      // written is a failure, not a success with a footnote.
      r.result =
          write_failed ? wire::status::rejected : wire::status::ok;
      break;
    }
    case wire::op::admin_commands: {
      // Page through the retained command stream: the request's epoch
      // field is the offset into collect_commands() order, the
      // response's epoch is the next offset. The collection is
      // re-taken per page — stable as long as nothing trims between
      // pages (callers fetch at quiesce; a concurrent trim shows up as
      // a shrunk total, not corruption).
      if (!registry.command_log_enabled()) {
        r.result = wire::status::rejected;
        break;
      }
      const std::vector<cmd::command> all = registry.collect_commands();
      const std::uint64_t offset =
          std::min<std::uint64_t>(req.epoch, all.size());
      std::string body = "{\"total\":";
      body += std::to_string(all.size());
      body += ",\"offset\":";
      body += std::to_string(offset);
      body += ",\"commands\":[";
      std::uint64_t next = offset;
      bool first = true;
      for (; next < all.size(); ++next) {
        const std::string one = cmd::to_json(all[next]);
        if (body.size() + one.size() > wire::max_frame_bytes / 2) break;
        if (!first) body += ',';
        body += one;
        first = false;
      }
      body += "]}";
      r.body = std::move(body);
      r.epoch = next;
      r.result = wire::status::ok;
      break;
    }
    default:
      r.result = wire::status::bad_request;
      break;
  }
}

// ---------------------------------------------------------------------
// Blocking acquires: a continuation per request, parked on the key's
// epoch in the registry between attempts. Everything below runs on the
// waiter's reactor except where noted.

void server::start_waiter(reactor& re, const connection_ptr& conn,
                          wire::request req) {
  if (waiters_.fetch_add(1, std::memory_order_relaxed) >=
      config_.max_waiters) {
    // Out of continuation slots: tell the client to back off and retry
    // rather than queueing without bound.
    waiters_.fetch_sub(1, std::memory_order_relaxed);
    counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
    wire::response busy;
    busy.result = wire::status::busy;
    reply(call{conn, req.id, req.kind, 0, 0}, std::move(busy));
    return;
  }
  auto w = std::make_shared<waiter>();
  w->conn = conn;
  w->deadline = std::chrono::steady_clock::time_point::max();
  if (req.kind == wire::op::try_acquire_for) {
    // The wire value is untrusted: clamp before it meets the clock, or
    // a huge timeout overflows the nanosecond rep (UB) / wraps the
    // deadline into the past. A day is indistinguishable from forever.
    w->deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      std::min<std::uint64_t>(req.timeout_ms, 86'400'000ull));
    w->deadline_timer = re.timers.emplace(w->deadline, timer{-1, w});
  }
  w->req = std::move(req);
  conn->waiters.push_back(w);
  attempt(w);
}

void server::attempt(const waiter_ptr& w) {
  if (stopping_.load(std::memory_order_relaxed)) {
    wire::response rejected;
    rejected.result = wire::status::rejected;
    answer_waiter(w, std::move(rejected));
    return;
  }
  if (config_.cluster.enabled() && !config_.cluster.is_primary()) {
    // Never primary, or deposed while parked (the node kicks its
    // waiters on step-down): the commit gate would fail every grant
    // here, so tell the client where to queue instead.
    answer_waiter(w, redirect(w->req));
    return;
  }
  w->attempting = true;
  const obs::trace_scope trace(w->req.trace_id);
  begin_op();
  w->conn->session->try_acquire(
      w->req.key, [this, w](const svc::acquire_result& result) {
        post_waiter(w, result);
        end_op();
      });
}

void server::post_waiter(const waiter_ptr& w,
                         std::optional<svc::acquire_result> verdict) {
  // A waiter has one event outstanding at a time (an attempt or a
  // park), so the verdict can ride on it; the inbox lock publishes it.
  w->verdict = std::move(verdict);
  reactor& re = w->conn->owner;
  if (current_reactor_tls == &re && w->verdict.has_value()) {
    step_waiter(w);  // decided inline: handled inline
    return;
  }
  // An epoch resume is queued even on its own reactor, so it never
  // recurses into an attempt.
  if (post(re, [&] { re.waiter_inbox.push_back(w); })) return;
  // The reactor is gone (server stop): its connections are all closed,
  // so settling needs no reactor state — reclaim a late win and drop.
  if (w->verdict.has_value() && w->verdict->won) {
    reclaim_late_win(*w->conn, w->req.key, w->verdict->epoch);
  }
  if (!w->done) finish_waiter(w);
}

void server::step_waiter(const waiter_ptr& w) {
  if (!w->verdict.has_value()) {
    // The key's epoch moved (or a kick): try again, unless the waiter
    // was answered meanwhile or its connection died.
    w->park_id = 0;
    if (w->done) return;
    if (w->conn->closed.load(std::memory_order_relaxed)) {
      finish_waiter(w);
    } else {
      attempt(w);
    }
    return;
  }
  const svc::acquire_result result = *std::exchange(w->verdict, std::nullopt);
  w->attempting = false;
  if (w->done || w->conn->closed.load(std::memory_order_relaxed)) {
    if (result.won) reclaim_late_win(*w->conn, w->req.key, result.epoch);
    if (!w->done) finish_waiter(w);
    return;
  }
  if (result.won || result.rejected) {
    answer_waiter(w, acquire_response(result));
    return;
  }
  w->epoch = result.epoch;
  if (std::chrono::steady_clock::now() >= w->deadline) {
    svc::acquire_result timed_out = result;
    timed_out.timed_out = true;
    answer_waiter(w, acquire_response(timed_out));
    return;
  }
  if (w->counted) {
    // Parked waits on other clients: it must not hold the connection's
    // read pause shut, or the release that unparks it could sit unread
    // behind that pause on this very socket.
    w->counted = false;
    complete(w->conn);
  }
  begin_op();
  w->park_id = service_.registry().park_until_epoch_above(
      w->req.key, result.epoch, [this, w] {
        post_waiter(w, std::nullopt);
        end_op();
      });
  // A step-down kicks the parked acquirers after it changes the role; a
  // kick that ran before this park landed missed it, so look again.
  if (config_.cluster.enabled() && !config_.cluster.is_primary() &&
      unpark(w)) {
    answer_waiter(w, redirect(w->req));
  }
}

void server::reclaim_late_win(connection& conn, const std::string& key,
                              std::uint64_t epoch) {
  // Disconnect-on-close already ran (or the waiter was answered at
  // stop), so nobody is behind this win: hand it straight back instead
  // of wedging the key until the TTL.
  conn.session->reclaim(key, epoch, [](svc::lease_status) {});
  counters_.disconnect_reclaims.fetch_add(1, std::memory_order_relaxed);
}

bool server::unpark(const waiter_ptr& w) {
  if (w->done || w->attempting || w->park_id == 0) return false;
  if (!service_.registry().cancel_park(w->req.key, w->park_id)) {
    return false;  // taken for firing: the resume is on its way
  }
  w->park_id = 0;
  end_op();  // the continuation that will now never run
  return true;
}

void server::answer_waiter(const waiter_ptr& w, wire::response r) {
  r.id = w->req.id;
  r.kind = w->req.kind;
  send_response(w->conn, r);
  finish_waiter(w);
}

void server::finish_waiter(const waiter_ptr& w) {
  w->done = true;
  reactor& re = w->conn->owner;
  if (w->deadline_timer.has_value() && current_reactor_tls == &re) {
    re.timers.erase(*w->deadline_timer);
    w->deadline_timer.reset();
  }
  if (!w->conn->closed.load(std::memory_order_relaxed)) {
    auto& ws = w->conn->waiters;
    ws.erase(std::remove(ws.begin(), ws.end(), w), ws.end());
  }
  if (w->counted) {
    w->counted = false;
    complete(w->conn);
  }
  waiters_.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Response path: output rings, writev flushes, backpressure, teardown.

bool server::enqueue_frame(
    const connection_ptr& conn,
    std::shared_ptr<const std::vector<std::uint8_t>> bytes, bool is_event,
    bool& need_post) {
  need_post = false;
  const std::size_t size = bytes->size();
  bool overflow = false;
  {
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->closed.load(std::memory_order_relaxed)) return false;
    if (conn->outbox_bytes + size > config_.max_outbox_bytes) {
      overflow = true;
    } else {
      conn->outbox.push_back(out_frame{std::move(bytes), is_event});
      conn->outbox_bytes += size;
      if (!conn->flush_queued) {
        conn->flush_queued = true;
        need_post = true;
      }
    }
  }
  if (overflow) {
    // A ring at the cap means the consumer stopped draining long ago;
    // cut the connection rather than buffer without bound.
    start_close(conn);
    return false;
  }
  return true;
}

void server::send_response(const connection_ptr& conn,
                           const wire::response& r) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  auto frame = std::make_shared<const std::vector<std::uint8_t>>(
      wire::encode_response(r));
  bool need_post = false;
  reactor& owner = conn->owner;
  if (enqueue_frame(conn, std::move(frame), /*is_event=*/false, need_post) &&
      need_post) {
    (void)post(owner, [&] { owner.flush_inbox.push_back(conn); });
  }
}

ssize_t server::write_ring(reactor& r, connection& conn) {
  iovec iov[64];
  int count = 0;
  std::size_t offset = conn.out_offset;
  for (const out_frame& f : conn.outbox) {
    if (count == 64) break;
    iov[count].iov_base = const_cast<std::uint8_t*>(f.bytes->data() + offset);
    iov[count].iov_len = f.bytes->size() - offset;
    offset = 0;
    ++count;
  }
  if (count == 0) return 0;
  // sendmsg, not writev, for MSG_NOSIGNAL: a peer that reset its socket
  // must cost the server an EPIPE, never a SIGPIPE under the default
  // disposition.
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<std::size_t>(count);
  const ssize_t wrote = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
  if (wrote <= 0) {
    if (wrote == 0) errno = EAGAIN;  // no progress on a stream socket
    return -1;
  }
  r.writev_calls.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_out.fetch_add(static_cast<std::uint64_t>(wrote),
                                std::memory_order_relaxed);
  auto left = static_cast<std::size_t>(wrote);
  conn.outbox_bytes -= left;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  while (left > 0 && !conn.outbox.empty()) {
    const out_frame& front = conn.outbox.front();
    const std::size_t rest = front.bytes->size() - conn.out_offset;
    if (left < rest) {
      conn.out_offset += left;
      break;
    }
    left -= rest;
    conn.out_offset = 0;
    ++frames;
    if (front.is_event) ++events;
    conn.outbox.pop_front();
  }
  counters_.frames_out.fetch_add(frames, std::memory_order_relaxed);
  r.frames_flushed.fetch_add(frames, std::memory_order_relaxed);
  counters_.events_pushed.fetch_add(events, std::memory_order_relaxed);
  return wrote;
}

void server::flush_connection(reactor& r, const connection_ptr& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  const std::uint64_t frames_before =
      r.frames_flushed.load(std::memory_order_relaxed);
  ssize_t wrote = 0;
  int error = 0;
  {
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    do {
      wrote = write_ring(r, *conn);
    } while (wrote > 0 || (wrote < 0 && errno == EINTR));
    error = wrote < 0 ? errno : 0;
    // Drained under the same hold that observed empty: an appender
    // racing in after this will see flush_queued false and post. On
    // EAGAIN flush_queued stays set: EPOLLOUT resumes this drain, and
    // appenders need not post meanwhile.
    if (wrote == 0) conn->flush_queued = false;
  }
  const bool progressed =
      r.frames_flushed.load(std::memory_order_relaxed) != frames_before;
  if (progressed) {
    r.drain_batches.fetch_add(1, std::memory_order_relaxed);
    conn->stall_armed = false;  // progress resets the stall budget
  }
  if (wrote == 0) {
    if (conn->want_writable) {
      conn->want_writable = false;
      rearm(r, conn);
    }
    conn->stall_armed = false;
  } else if (error == EAGAIN || error == EWOULDBLOCK) {
    if (!conn->want_writable) {
      conn->want_writable = true;
      rearm(r, conn);
    }
    if (!conn->stall_armed) {
      // Start the no-progress clock; fire_timers kills the connection
      // if a full budget passes without a byte moving.
      conn->stall_armed = true;
      conn->stall_since = std::chrono::steady_clock::now();
      r.timers.emplace(conn->stall_since +
                           std::chrono::milliseconds(std::max<std::uint64_t>(
                               1, config_.event_write_budget_ms)),
                       timer{conn->fd, {}});
    }
  } else {
    finish_connection(r, conn);
    return;
  }
  maybe_resume(r, conn);
}

void server::fire_timers(reactor& r) {
  if (r.timers.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  const auto budget = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, config_.event_write_budget_ms));
  while (!r.timers.empty() && r.timers.begin()->first <= now) {
    const timer t = std::move(r.timers.begin()->second);
    r.timers.erase(r.timers.begin());
    if (t.fd < 0) {
      // A try_acquire_for deadline. Only a parked waiter is answered
      // here; one mid-attempt (or with its resume already queued) sees
      // the deadline when that attempt's verdict comes back — an
      // attempt in flight at the deadline still completes, and its win
      // is returned.
      const waiter_ptr w = t.w.lock();
      if (!w) continue;
      w->deadline_timer.reset();  // the entry is gone already
      if (!unpark(w)) continue;
      svc::acquire_result timed_out;
      timed_out.epoch = w->epoch;
      timed_out.timed_out = true;
      answer_waiter(w, acquire_response(timed_out));
      continue;
    }
    const auto it = r.connections.find(t.fd);
    if (it == r.connections.end()) continue;  // already finished
    const connection_ptr conn = it->second;
    // An entry is current only if its deadline matches the live arm
    // time; progress disarms, a re-arm inserts a fresh entry. Stale
    // entries are skipped, not rescheduled.
    if (!conn->stall_armed) continue;
    if (conn->stall_since + budget > now) continue;
    // No progress for a full budget: a dead consumer. Its queued
    // frames count as dropped in finish_connection.
    finish_connection(r, conn);
  }
}

int server::next_timeout_ms(reactor& r) const {
  if (r.timers.empty()) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto first = r.timers.begin()->first;
  if (first <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(first - now)
          .count() +
      1;
  return static_cast<int>(std::min<long long>(ms, 60'000));
}

void server::rearm(reactor& r, const connection_ptr& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  std::uint32_t mask = EPOLLRDHUP;
  if (!conn->paused) mask |= EPOLLIN;
  if (conn->want_writable) mask |= EPOLLOUT;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn->fd;
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void server::complete(const connection_ptr& conn) {
  conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  // Off the reactor, the answer sent right after this triggers a flush,
  // and the flush re-checks the pause.
  if (current_reactor_tls == &conn->owner) maybe_resume(conn->owner, conn);
}

void server::maybe_pause(reactor& r, const connection_ptr& conn) {
  if (conn->paused || conn->closed.load(std::memory_order_relaxed) ||
      conn->in_flight.load(std::memory_order_acquire) <
          config_.max_inflight_per_connection) {
    return;
  }
  conn->paused = true;
  counters_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
  rearm(r, conn);
}

void server::maybe_resume(reactor& r, const connection_ptr& conn) {
  if (!conn->paused || conn->closed.load(std::memory_order_relaxed) ||
      conn->in_flight.load(std::memory_order_acquire) >
          config_.max_inflight_per_connection / 2) {
    return;
  }
  conn->paused = false;
  rearm(r, conn);
}

void server::start_close(const connection_ptr& conn) {
  if (conn->closed.exchange(true)) return;
  // The local shutdown makes epoll report the fd (EPOLLHUP fires even
  // for a paused connection), so the owning reactor runs
  // finish_connection.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void server::finish_connection(reactor& r, const connection_ptr& conn) {
  if (r.connections.erase(conn->fd) == 0) return;  // already finished
  const bool was_closed = conn->closed.exchange(true);
  if (!was_closed) {
    // Final opportunistic flush: a one-shot refusal (bad hello, oversize
    // frame) must still reach the peer, and responses a clean
    // disconnect raced past deserve a best effort. Write while bytes
    // move; EAGAIN or error abandons the rest.
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    ssize_t wrote = 0;
    do {
      wrote = write_ring(r, *conn);
    } while (wrote > 0 || (wrote < 0 && errno == EINTR));
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  conn->stall_armed = false;
  {
    // Whatever could not be flushed is gone (closed is set, so nothing
    // is appended any more); count the lost events.
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    std::uint64_t dropped = 0;
    for (const out_frame& f : conn->outbox) {
      if (f.is_event) ++dropped;
    }
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->out_offset = 0;
    if (dropped > 0) {
      counters_.events_dropped.fetch_add(dropped, std::memory_order_relaxed);
    }
  }
  // Cancel the connection's watch registrations. Hub subscriptions
  // whose last subscriber this was are removed OUTSIDE the router lock:
  // hub remove waits for in-flight deliveries, and a delivery takes the
  // router lock (fanout_event) — holding it here would deadlock.
  std::vector<std::uint64_t> hub_drops;
  {
    const std::lock_guard<std::mutex> lock(router_mutex_);
    for (const std::uint64_t id : conn->watch_ids) {
      if (const std::uint64_t hub = drop_watch_locked(id)) {
        hub_drops.push_back(hub);
      }
    }
    conn->watch_ids.clear();
  }
  for (const std::uint64_t hub : hub_drops) service_.unwatch(hub);
  // Parked acquires die with the connection. One mid-attempt (or with
  // its resume queued) settles when that comes back and sees closed.
  for (const waiter_ptr& w : std::exchange(conn->waiters, {})) {
    if (unpark(w)) finish_waiter(w);
  }
  if (conn->session.has_value()) {
    // The disconnect-on-close hook: whatever the remote client held is
    // reclaimed NOW — its rivals re-elect immediately instead of
    // waiting out the lease TTL. In-flight wins for this connection are
    // reclaimed by their completions (see serve). Each reclaimed key's
    // disconnect_reclaimed command carries its real epoch, so the
    // event journal names every key with no pre-scan of held keys.
    begin_op();
    conn->session->reclaim_all([this](std::size_t reclaimed) {
      counters_.disconnect_reclaims.fetch_add(reclaimed,
                                              std::memory_order_relaxed);
      end_op();
    });
  }
  r.active.fetch_sub(1, std::memory_order_relaxed);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// The HTTP side-channel (reactor 0 only). Deliberately minimal:
// GET-only, one request per connection, answer and close. A scrape is
// small and rare; anything fancier (keep-alive, chunking, pipelining)
// buys nothing here and costs reactor-0 attention.

void server::http_accept_ready(reactor& r) {
  for (;;) {
    const int fd = ::accept4(http_listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_relaxed) ||
        http_conns_.size() >= 64) {
      ::close(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    http_conns_.emplace(fd, std::string());
  }
}

void server::http_read_ready(reactor& r, int fd) {
  const auto it = http_conns_.find(fd);
  if (it == http_conns_.end()) return;
  std::string& buffered = it->second;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got > 0) {
      buffered.append(buf, static_cast<std::size_t>(got));
      if (buffered.size() > 8192) {  // no sane GET is this big
        http_close(r, fd);
        return;
      }
      continue;
    }
    if (got == 0) {
      http_close(r, fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    http_close(r, fd);
    return;
  }
  // Headers complete? (We ignore them — the request line is the API.)
  if (buffered.find("\r\n\r\n") == std::string::npos &&
      buffered.find("\n\n") == std::string::npos) {
    return;  // wait for the rest
  }
  http_respond(fd, buffered);
  http_close(r, fd);
}

void server::http_respond(int fd, const std::string& buffered) {
  // Parse "METHOD SP path ..." off the request line.
  const std::size_t line_end = buffered.find_first_of("\r\n");
  const std::string line = buffered.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  std::string method =
      sp1 == std::string::npos ? std::string() : line.substr(0, sp1);
  std::string path = sp2 == std::string::npos
                         ? std::string()
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  const char* status = "200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status = "405 Method Not Allowed";
    content_type = "text/plain; charset=utf-8";
    body = "method not allowed\n";
  } else if (path == "/metrics") {
    body = obs::render_prometheus(service_.report());
    render_net_prometheus(body, report());
    if (config_.cluster.prom_text) body += config_.cluster.prom_text();
  } else if (path == "/report") {
    content_type = "application/json";
    body = report_json();
  } else if (path == "/healthz") {
    content_type = "text/plain; charset=utf-8";
    body = "ok\n";
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found\n";
  }

  std::string response = "HTTP/1.0 ";
  response += status;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  // Bounded write on the reactor thread: a scrape response is a few
  // KiB, but a wedged scraper must not park the reactor indefinitely.
  write_all(fd, response, std::chrono::steady_clock::now() + 2s);
}

void server::http_close(reactor& r, int fd) {
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  http_conns_.erase(fd);
}

// ---------------------------------------------------------------------
// Reporting.

net_report server::report() const {
  const auto get = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  const counters& c = counters_;
  net_report r;
  r.connections_accepted = get(c.connections_accepted);
  r.connections_active = get(connections_active_);
  r.connections_refused = get(c.connections_refused);
  r.frames_in = get(c.frames_in);
  r.frames_out = get(c.frames_out);
  r.bytes_in = get(c.bytes_in);
  r.bytes_out = get(c.bytes_out);
  r.requests = get(c.requests);
  r.dispatch_batches = get(c.dispatch_batches);
  r.backpressure_pauses = get(c.backpressure_pauses);
  r.busy_rejections = get(c.busy_rejections);
  r.protocol_errors = get(c.protocol_errors);
  r.disconnect_reclaims = get(c.disconnect_reclaims);
  r.watch_subscriptions = get(c.watch_subscriptions);
  r.events_pushed = get(c.events_pushed);
  r.events_dropped = get(c.events_dropped);
  r.reactors = reactors_.size();
  r.reuseport = reuseport_active_;
  r.per_reactor.reserve(reactors_.size());
  for (const auto& re : reactors_) {
    net_report::reactor_stat s;
    s.index = re->index;
    s.connections = get(re->active);
    s.accepted = get(re->accepted);
    s.wakeups = get(re->wakeups);
    s.writev_calls = get(re->writev_calls);
    s.frames_flushed = get(re->frames_flushed);
    s.drain_batches = get(re->drain_batches);
    s.requests = get(re->requests);
    r.writev_calls += s.writev_calls;
    r.frames_flushed += s.frames_flushed;
    r.reactor_wakeups += s.wakeups;
    r.per_reactor.push_back(s);
  }
  return r;
}

std::string server::report_json() const {
  svc::service_report combined = service_.report();
  combined.net_json = report().to_json();
  if (config_.cluster.status_json) {
    combined.repl_json = config_.cluster.status_json();
  }
  return combined.to_json();
}

}  // namespace elect::net
