// remote-open: open loop over the raw wire protocol. One epoll thread
// speaks net::wire directly over three request sockets and one watcher
// socket. Acquires arrive at a fixed rate with seeded exponential gaps,
// on keys drawn from a 2^16-key space (prefilled during set-up, so the
// registry's working set is larger than cache); one in eight is a
// blocking acquire. Every win is released (fenced) as soon as its answer
// arrives. Three hot keys get a burst of two blocking acquires every
// 40 ms, and each winner holds for 15 ms, so the server keeps parked
// waiters. The watcher follows the hot keys and a sample of the rest.
// Latency is timed from each request's due time to the stamped arrival
// of its answer.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <map>
#include <memory>
#include <queue>
#include <unordered_map>

#include "net/wire.hpp"
#include "pairs.hpp"

namespace lb {

namespace {

namespace wire = net::wire;

constexpr int request_sockets = 3;
constexpr std::uint64_t keyspace = 1u << 16;
/// Offered acquires per second on the keyspace: a third of a core's
/// worth of wire work, well below what the edge sustains pipelined.
constexpr double arrival_rate = 12000.0;
/// One arrival in `blocking_every` is a blocking acquire.
constexpr std::uint64_t blocking_every = 8;
constexpr int hot_count = 3;
/// Each hot key gets two blocking acquires every 40 ms; the winner
/// holds 15 ms while the other stays parked, so a waiter is parked on
/// some hot key most of the time at 150 blocking acquires per second.
constexpr std::uint64_t hot_period_ns = 40'000'000;
constexpr std::uint64_t hot_hold_ns = 15'000'000;
/// Keyspace indices divisible by watch_stride are watched, as are the
/// hot keys.
constexpr std::uint64_t watch_stride = 128;
/// After the window, how long answers and watch events may take to
/// arrive before the missing ones count as failures. Generous: a
/// backlog from a server slower than the offered rate drains here.
constexpr std::uint64_t drain_ns = 10'000'000'000;

/// Key names: indices below `keyspace` are the keyspace, the rest are
/// the hot keys.
std::string key_name(std::uint64_t idx) {
  return idx < keyspace ? "ro/" + std::to_string(idx)
                        : "ro-hot/" + std::to_string(idx - keyspace);
}

bool watched(std::uint64_t idx) {
  return idx >= keyspace || idx % watch_stride == 0;
}

/// A connected, handshaken wire socket with its output buffer.
struct wire_socket {
  int fd = -1;
  wire::frame_reader reader;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  /// Unsent bytes remain; and whether epoll currently watches EPOLLOUT.
  bool want_out = false;
  bool out_armed = false;

  wire_socket() = default;
  wire_socket(const wire_socket&) = delete;
  wire_socket& operator=(const wire_socket&) = delete;
  ~wire_socket() {
    if (fd >= 0) ::close(fd);
  }
};

bool write_all(int fd, const std::vector<std::uint8_t>& b) {
  std::size_t done = 0;
  while (done < b.size()) {
    const ssize_t n =
        ::send(fd, b.data() + done, b.size() - done, MSG_NOSIGNAL);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Blocking read of one response frame (set-up only).
std::optional<wire::response> read_one(wire_socket& s) {
  for (;;) {
    if (auto body = s.reader.next()) return wire::decode_response(*body);
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(s.fd, buf, sizeof buf, 0);
    if (n <= 0 || !s.reader.feed(buf, static_cast<std::size_t>(n))) {
      return std::nullopt;
    }
  }
}

std::unique_ptr<wire_socket> open_socket(std::uint16_t port) {
  auto s = std::make_unique<wire_socket>();
  s->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (s->fd < 0 ||
      ::connect(s->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return nullptr;
  }
  const int one = 1;
  ::setsockopt(s->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (!write_all(s->fd, wire::encode_request(wire::make_hello_request()))) {
    return nullptr;
  }
  const auto hello = read_one(*s);
  if (!hello || hello->kind != wire::op::hello ||
      hello->result != wire::status::ok) {
    return nullptr;
  }
  return s;
}

struct open_fixture {
  std::unique_ptr<svc::service> service;
  std::unique_ptr<net::server> server;
  /// Request sockets first, the watcher last.
  std::vector<std::unique_ptr<wire_socket>> socks;
  bool ok = false;
};

std::unique_ptr<open_fixture> make_fixture(const svc::service_config& sc,
                                           const net::server_config& nc) {
  auto f = std::make_unique<open_fixture>();
  f->service = std::make_unique<svc::service>(sc);
  // Prefill: every key gets an entry (and one epoch) before load starts.
  svc::service::session s = f->service->connect();
  for (std::uint64_t i = 0; i < keyspace + hot_count; ++i) {
    const std::string key = key_name(i);
    const svc::acquire_result got = s.try_acquire(key);
    if (!got.won || s.release(key, got.epoch) != svc::lease_status::ok) {
      return f;
    }
  }
  f->server = std::make_unique<net::server>(*f->service, nc);
  if (!f->server->listening()) return f;
  for (int i = 0; i <= request_sockets; ++i) {
    f->socks.push_back(open_socket(f->server->port()));
    if (!f->socks.back()) return f;
  }
  // Subscribe the watcher: pipelined requests, then their answers.
  wire_socket& w = *f->socks.back();
  std::uint64_t subs = 0;
  for (std::uint64_t i = 0; i < keyspace + hot_count; ++i) {
    if (!watched(i)) continue;
    wire::request r;
    r.id = ++subs;
    r.kind = wire::op::watch;
    r.key = key_name(i);
    if (!write_all(w.fd, wire::encode_request(r))) return f;
  }
  for (std::uint64_t i = 0; i < subs; ++i) {
    const auto r = read_one(w);
    if (!r || r->result != wire::status::ok) return f;
  }
  f->ok = true;
  return f;
}

enum class req_kind : std::uint8_t { acquire, hot_acquire, release };

struct pending_req {
  req_kind kind = req_kind::acquire;
  int sock = 0;
  std::uint64_t key = 0;
  /// Due time of the acquire that started this pair.
  std::uint64_t due = 0;
  bool blocking = false;
};

struct watch_track {
  bool won = false;
  bool elected = false;
  bool released = false;
  std::uint64_t release_sent = 0;
};

struct hold {
  std::uint64_t due = 0;
  std::uint64_t key = 0;
  std::uint64_t epoch = 0;
  int sock = 0;
  std::uint64_t acquire_due = 0;
  bool operator>(const hold& o) const { return due > o.due; }
};

class generator {
 public:
  generator(open_fixture& fx, result& out, std::uint64_t seed)
      : fx_(fx), out_(out), rng_(seed) {}

  /// Warm-up, window, drain. `before`/`after` bracket the window.
  template <typename Before, typename After>
  bool run(double seconds, Before before, After after);

  histogram open_try;
  histogram pair_try;
  histogram pair_blocking;
  histogram gen_lag;
  histogram watch_lag;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Pairs whose release answer arrived inside the window.
  std::uint64_t pairs = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;

  void finish_checks();
  /// Watched wins whose elected or released event has not arrived.
  [[nodiscard]] std::uint64_t undelivered() const;

 private:
  bool in_window(std::uint64_t t) const { return t >= begin && t < end; }
  std::uint64_t send(int sock, wire::op kind, std::uint64_t key,
                     std::uint64_t epoch);
  bool flush(wire_socket& s);
  void acquire(std::uint64_t due, std::uint64_t now, std::uint64_t key,
             bool blocking, req_kind kind, int sock);
  void release(std::uint64_t key, std::uint64_t epoch, int sock,
               std::uint64_t acquire_due, bool blocking, std::uint64_t now);
  void fail(std::uint64_t due, const std::string& why);
  bool on_frame(int sock, const std::vector<std::uint8_t>& body,
                std::uint64_t arrival);

  open_fixture& fx_;
  result& out_;
  std::mt19937_64 rng_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, pending_req> pending_;
  /// Acquire -> release chains in flight per keyspace key; `contended`
  /// stays set until the key's last overlapping chain ends.
  struct key_state {
    std::uint32_t chains = 0;
    bool contended = false;
  };
  void end_chain(std::uint64_t key) {
    key_state& k = keys_[key];
    if (--k.chains == 0) k.contended = false;
  }
  std::vector<key_state> keys_ = std::vector<key_state>(keyspace);
  std::priority_queue<hold, std::vector<hold>, std::greater<>> holds_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, watch_track> watches_;
  std::uint64_t rr_ = 0;
};

std::uint64_t generator::send(int sock, wire::op kind, std::uint64_t key,
                              std::uint64_t epoch) {
  wire::request r;
  r.id = next_id_++;
  r.kind = kind;
  r.key = key_name(key);
  r.epoch = epoch;
  const auto frame = wire::encode_request(r);
  wire_socket& s = *fx_.socks[static_cast<std::size_t>(sock)];
  s.out.insert(s.out.end(), frame.begin(), frame.end());
  (void)flush(s);
  return r.id;
}

bool generator::flush(wire_socket& s) {
  while (s.out_off < s.out.size()) {
    const ssize_t n =
        ::send(s.fd, s.out.data() + s.out_off, s.out.size() - s.out_off,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      s.want_out = true;
      return true;
    }
    if (n <= 0) return false;
    s.out_off += static_cast<std::size_t>(n);
  }
  s.out.clear();
  s.out_off = 0;
  s.want_out = false;
  return true;
}

void generator::acquire(std::uint64_t due, std::uint64_t now, std::uint64_t key,
                      bool blocking, req_kind kind, int sock) {
  pending_req p;
  p.kind = kind;
  p.sock = sock;
  p.key = key;
  p.due = due;
  p.blocking = blocking;
  if (key < keyspace) {
    key_state& k = keys_[key];
    if (k.chains++ > 0) k.contended = true;
  }
  if (in_window(due)) {
    ++attempted;
    if (kind == req_kind::acquire) gen_lag.add_ns(now - due);
  }
  const std::uint64_t id =
      send(sock, blocking ? wire::op::acquire : wire::op::try_acquire, key, 0);
  pending_.emplace(id, p);
}

void generator::release(std::uint64_t key, std::uint64_t epoch, int sock,
                        std::uint64_t acquire_due, bool blocking,
                        std::uint64_t now) {
  pending_req p;
  p.kind = req_kind::release;
  p.sock = sock;
  p.key = key;
  p.due = acquire_due;
  p.blocking = blocking;
  if (watched(key)) watches_[{key, epoch}].release_sent = now;
  pending_.emplace(send(sock, wire::op::release_fenced, key, epoch), p);
}

void generator::fail(std::uint64_t due, const std::string& why) {
  if (in_window(due)) ++failed;
  out_.violation("remote-open: " + why);
}

bool generator::on_frame(int sock, const std::vector<std::uint8_t>& body,
                         std::uint64_t arrival) {
  const auto r = wire::decode_response(body);
  if (!r) return false;
  if (r->kind == wire::op::event) {
    const auto e = wire::parse_event(*r);
    if (!e) return false;
    const std::string& k = e->key;
    std::uint64_t idx = 0;
    if (k.rfind("ro-hot/", 0) == 0) {
      idx = keyspace + std::stoull(k.substr(7));
    } else if (k.rfind("ro/", 0) == 0) {
      idx = std::stoull(k.substr(3));
    } else {
      return true;
    }
    watch_track& t = watches_[{idx, e->epoch}];
    if (e->kind == svc::transition::elected) t.elected = true;
    if (e->kind == svc::transition::released) {
      t.released = true;
      if (t.release_sent != 0 && in_window(t.release_sent)) {
        watch_lag.add_ns(arrival - t.release_sent);
      }
    }
    return true;
  }
  const auto it = pending_.find(r->id);
  if (it == pending_.end()) return false;
  const pending_req p = it->second;
  pending_.erase(it);
  const bool won = r->result == wire::status::ok && r->won();
  switch (p.kind) {
    case req_kind::acquire:
      if (!p.blocking && in_window(p.due)) {
        open_try.add_ns(arrival - p.due);
      }
      if (won) {
        if (watched(p.key)) watches_[{p.key, r->epoch}].won = true;
        release(p.key, r->epoch, sock, p.due, p.blocking, now_ns());
      } else {
        // A loss while another arrival's chain overlapped this one on
        // the same key is the service working; on a free key it is a
        // failure.
        const bool contended = keys_[p.key].contended;
        end_chain(p.key);
        if (!contended || r->result != wire::status::lost) {
          fail(p.due, "acquire on free key " + key_name(p.key) + " got " +
                          std::string(wire::to_string(r->result)));
        }
      }
      break;
    case req_kind::hot_acquire:
      if (!won) {
        fail(p.due, "hot acquire on " + key_name(p.key) + " got " +
                        std::string(wire::to_string(r->result)));
        break;
      }
      if (watched(p.key)) watches_[{p.key, r->epoch}].won = true;
      holds_.push(hold{arrival + hot_hold_ns, p.key, r->epoch, sock, p.due});
      break;
    case req_kind::release:
      if (p.key < keyspace) end_chain(p.key);
      if (r->result != wire::status::ok) {
        fail(p.due, "fenced release of " + key_name(p.key) + " got " +
                        std::string(wire::to_string(r->result)));
        break;
      }
      // Throughput counts pairs completed inside the window, so it
      // drops when the server falls behind the offered rate; latency
      // counts pairs due inside it, however late they complete.
      if (p.key < keyspace && in_window(arrival)) ++pairs;
      if (p.key < keyspace && in_window(p.due)) {
        if (p.blocking) {
          pair_blocking.add_ns(arrival - p.due);
        } else {
          pair_try.add_ns(arrival - p.due);
        }
      }
      break;
  }
  return true;
}

template <typename Before, typename After>
bool generator::run(double seconds, Before before, After after) {
  const int ep = ::epoll_create1(0);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK);
  if (ep < 0 || tfd < 0) return false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = 1000;
  ::epoll_ctl(ep, EPOLL_CTL_ADD, tfd, &ev);
  for (std::size_t i = 0; i < fx_.socks.size(); ++i) {
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(i);
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fx_.socks[i]->fd, &ev);
  }
  std::exponential_distribution<double> gap(arrival_rate / 1e9);
  const std::uint64_t start = now_ns();
  begin = start + static_cast<std::uint64_t>(warm_s * 1e9);
  end = begin + static_cast<std::uint64_t>(seconds * 1e9);
  bool window_open = false;
  bool window_closed = false;
  double next_main = static_cast<double>(start) + gap(rng_);
  std::vector<std::uint64_t> next_hot(hot_count);
  for (int j = 0; j < hot_count; ++j) {
    next_hot[static_cast<std::size_t>(j)] = start + draw(rng_, hot_period_ns);
  }
  bool ok = true;
  epoll_event events[16];
  for (;;) {
    std::uint64_t now = now_ns();
    if (!window_open && now >= begin) {
      before();
      window_open = true;
    }
    if (!window_closed && now >= end) {
      after();
      window_closed = true;
    }
    const bool generating = now < end;
    while (generating && next_main <= static_cast<double>(now)) {
      const auto due = static_cast<std::uint64_t>(next_main);
      const bool blocking = draw(rng_, blocking_every) == 0;
      acquire(due, now, draw(rng_, keyspace), blocking, req_kind::acquire,
            static_cast<int>(rr_++ % request_sockets));
      next_main += gap(rng_);
    }
    for (int j = 0; generating && j < hot_count; ++j) {
      std::uint64_t& due = next_hot[static_cast<std::size_t>(j)];
      while (due <= now) {
        // Two contenders on different sockets: one wins, one parks.
        const int first = static_cast<int>(draw(rng_, request_sockets));
        for (int c = 0; c < 2; ++c) {
          acquire(due, now, keyspace + static_cast<std::uint64_t>(j), true,
                req_kind::hot_acquire, (first + c) % request_sockets);
        }
        due += hot_period_ns;
      }
    }
    while (!holds_.empty() && holds_.top().due <= now) {
      const hold h = holds_.top();
      holds_.pop();
      release(h.key, h.epoch, h.sock, h.acquire_due, true, now);
    }
    if (!generating && pending_.empty() && holds_.empty() &&
        undelivered() == 0) {
      break;
    }
    if (now > end + drain_ns) break;
    // Sleep until the next due event (or a socket wakes us).
    std::uint64_t wake = end + drain_ns;
    if (generating) {
      wake = std::min(wake, static_cast<std::uint64_t>(next_main));
      for (const std::uint64_t d : next_hot) wake = std::min(wake, d);
    }
    if (!holds_.empty()) wake = std::min(wake, holds_.top().due);
    if (!window_open) wake = std::min(wake, begin);
    if (!window_closed) wake = std::min(wake, end);
    if (wake > now) {
      itimerspec ts{};
      ts.it_value.tv_sec = static_cast<time_t>(wake / 1'000'000'000);
      ts.it_value.tv_nsec = static_cast<long>(wake % 1'000'000'000);
      ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &ts, nullptr);
      const int n = ::epoll_wait(ep, events, 16, -1);
      const std::uint64_t arrival = now_ns();
      for (int i = 0; i < n; ++i) {
        const std::uint32_t tag = events[i].data.u32;
        if (tag == 1000) {
          std::uint64_t expirations = 0;
          (void)::read(tfd, &expirations, sizeof expirations);
          continue;
        }
        wire_socket& s = *fx_.socks[tag];
        if ((events[i].events & EPOLLOUT) != 0 && !flush(s)) ok = false;
        if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) == 0) continue;
        std::uint8_t buf[65536];
        const ssize_t got = ::recv(s.fd, buf, sizeof buf, MSG_DONTWAIT);
        if (got == 0 || (got < 0 && errno != EAGAIN)) {
          out_.violation("remote-open: connection closed by the server");
          ok = false;
          continue;
        }
        if (got < 0) continue;
        if (!s.reader.feed(buf, static_cast<std::size_t>(got))) ok = false;
        while (auto body = s.reader.next()) {
          if (!on_frame(static_cast<int>(tag), *body, arrival)) {
            out_.violation("remote-open: undecodable or unexpected frame");
            ok = false;
          }
        }
      }
      // Keep EPOLLOUT armed only while a socket has unsent bytes.
      for (std::size_t i = 0; i < fx_.socks.size(); ++i) {
        wire_socket& s = *fx_.socks[i];
        if (s.want_out == s.out_armed) continue;
        ev.events = EPOLLIN | (s.want_out ? EPOLLOUT : 0u);
        ev.data.u32 = static_cast<std::uint32_t>(i);
        ::epoll_ctl(ep, EPOLL_CTL_MOD, s.fd, &ev);
        s.out_armed = s.want_out;
      }
    }
    if (!ok) break;
  }
  if (!window_closed) after();
  ::close(tfd);
  ::close(ep);
  return ok;
}

std::uint64_t generator::undelivered() const {
  std::uint64_t missing = 0;
  for (const auto& [key, t] : watches_) {
    if (t.won && (!t.elected || (t.release_sent != 0 && !t.released))) {
      ++missing;
    }
  }
  return missing;
}

void generator::finish_checks() {
  if (!pending_.empty()) {
    out_.violation("remote-open: " + std::to_string(pending_.size()) +
                   " requests never answered");
    failed += pending_.size();
  }
  const std::uint64_t missing = undelivered();
  if (missing > 0) {
    out_.violation("remote-open: " + std::to_string(missing) +
                   " watched transitions never delivered");
  }
  out_.note("watched_transitions", std::to_string(watches_.size()));
}

}  // namespace

void run_remote_open(const options& opt, result& out) {
  proc_sampler proc;
  const svc::service_config sc = default_service_config(opt.seed);
  const net::server_config nc = default_server_config();
  auto fx =
      timed_setup<open_fixture>(out, [&] { return make_fixture(sc, nc); });
  if (!fx->ok) {
    out.violation("remote-open: set-up (prefill, sockets, watches) failed");
    return;
  }
  config_notes(out, sc, &nc, fx->server->reactor_count());
  out.set("tcp.echo_rtt_p50_us", tcp_echo_rtt_p50_us(2000), "us");

  svc_counters s0;
  svc_counters s1;
  net::net_report n0;
  net::net_report n1;
  generator gen(*fx, out, opt.seed);
  const bool ok = gen.run(
      opt.seconds,
      [&] {
        s0 = read_svc(*fx->service);
        n0 = fx->server->report();
        proc.begin_window();
      },
      [&] {
        s1 = read_svc(*fx->service);
        n1 = fx->server->report();
        proc.end_window();
      });
  if (!ok) out.violation("remote-open: socket I/O failed");
  gen.finish_checks();

  const double secs = static_cast<double>(gen.end - gen.begin) / 1e9;
  out.attempt(gen.attempted);
  out.fail(gen.failed);
  proc.rows(out, gen.attempted);
  out.set("pairs_per_s", static_cast<double>(gen.pairs) / secs, "1/s");
  out.set("pair_p50_us", gen.pair_try.p(0.5), "us");
  out.set("pair_p99_us", gen.pair_try.p(0.99), "us");
  out.set("blocking_pair_p50_us", gen.pair_blocking.p(0.5), "us");
  out.set("open_p50_us", gen.open_try.p(0.5), "us");
  out.set("open_p99_us", gen.open_try.p(0.99), "us");
  out.set("watch_p99_us", gen.watch_lag.p(0.99), "us");
  out.set("bench.gen_lag_p99_us", gen.gen_lag.p(0.99), "us");
  out.note("pair_samples", std::to_string(gen.pair_try.count()));
  out.note("watch_samples", std::to_string(gen.watch_lag.count()));
  svc_layer_rows(out, s0, s1);
  net_layer_rows(out, n0, n1, gen.pairs);
}

}  // namespace lb
