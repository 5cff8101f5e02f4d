#include "common.hpp"

#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "chaos/checker.hpp"

namespace lb {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  const auto idx = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// ---------------------------------------------------------------------
// histogram

void histogram::add_ns(std::uint64_t ns) {
  std::size_t idx = 0;
  if (ns < (1u << sub_bits)) {
    idx = static_cast<std::size_t>(ns);
  } else {
    const int msb = 63 - __builtin_clzll(ns);
    const int shift = msb - sub_bits;
    idx = (static_cast<std::size_t>(shift + 1) << sub_bits) +
          static_cast<std::size_t>((ns >> shift) - (1u << sub_bits));
  }
  ++buckets_[idx];
  ++count_;
}

void histogram::merge(const histogram& o) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
  count_ += o.count_;
}

double histogram::p(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n == 0.0 || seen + n <= rank) {
      seen += n;
      continue;
    }
    double lower = static_cast<double>(i);
    double width = 1.0;
    if (i >= (1u << sub_bits)) {
      const std::size_t shift = (i >> sub_bits) - 1;
      const std::size_t mantissa = (i & ((1u << sub_bits) - 1)) + (1u << sub_bits);
      lower = static_cast<double>(mantissa << shift);
      width = static_cast<double>(1ull << shift);
    }
    // Spread the bucket's samples evenly across its width.
    const double ns = lower + width * ((rank - seen) + 0.5) / n;
    return ns / 1e3;
  }
  return 0.0;
}

// ---------------------------------------------------------------------
// proc_sampler

namespace {

/// A "Name:   value kB" field of /proc/self/status, 0 when absent.
long status_field(const char* name) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(name);
  while (std::getline(in, line)) {
    if (line.compare(0, n, name) == 0 && line.size() > n &&
        line[n] == ':') {
      return std::strtol(line.c_str() + n + 1, nullptr, 10);
    }
  }
  return 0;
}

void usage(double& cpu_us, double& ctx) {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
               1e6 +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  ctx = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
}

}  // namespace

proc_sampler::proc_sampler() {
  // Each trial measures its own peak: hand memory freed by earlier
  // trials back to the system, then restart the high-water mark
  // (VmHWM) at the current RSS.
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  thread_ = std::thread([this] { loop(); });
}

proc_sampler::~proc_sampler() {
  stop_.store(true);
  thread_.join();
}

void proc_sampler::loop() {
  while (!stop_.load()) {
    const int threads = static_cast<int>(status_field("Threads"));
    int seen = peak_threads_.load();
    while (threads > seen && !peak_threads_.compare_exchange_weak(seen, threads)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void proc_sampler::begin_window() { usage(cpu_us_, ctx_); }

void proc_sampler::end_window() {
  usage(cpu_end_, ctx_end_);
  peak_rss_mb_ = static_cast<double>(status_field("VmHWM")) / 1024.0;
}

void proc_sampler::rows(result& out, std::uint64_t ops) const {
  const double per = ops == 0 ? 0.0 : 1.0 / static_cast<double>(ops);
  out.set("peak_rss_mb", peak_rss_mb_, "MB");
  out.set("proc.peak_threads", peak_threads_.load(), "count");
  out.set("proc.cpu_us_per_op", (cpu_end_ - cpu_us_) * per, "us");
  out.set("proc.ctx_switches_per_op", (ctx_end_ - ctx_) * per, "count");
}

// ---------------------------------------------------------------------
// tracer

namespace {

std::atomic<tracer*> g_tracer{nullptr};

/// Which budget group a span's self time belongs to.
const char* group_of(const std::string& name) {
  if (name == "pair") return "bench";
  if (name == "net.call" || name == "svc.call") return "client_lib";
  if (name == "wire_rtt") return "wire";
  if (name == "serve") return "serve";
  if (name == "repl.commit_wait") return "commit_wait";
  return "svc";
}

constexpr const char* budget_groups[] = {"bench", "client_lib", "wire",
                                         "serve", "svc", "commit_wait"};

}  // namespace

tracer* active_tracer() { return g_tracer.load(std::memory_order_acquire); }
void set_active_tracer(tracer* t) {
  g_tracer.store(t, std::memory_order_release);
}

void tracer::record(const char* name, std::uint64_t request,
                    std::uint64_t start, std::uint64_t end) {
  if (request == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  pending_[request].push_back(span_rec{name, start, end, -1, request});
}

void tracer::finish(std::uint64_t request) {
  std::vector<span_rec> spans;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = pending_.find(request);
    if (it != pending_.end()) {
      spans = std::move(it->second);
      pending_.erase(it);
    }
  }
  for (const obs::span& s : obs::collect(request)) {
    spans.push_back(
        span_rec{std::string(obs::to_string(s.stage)), s.start_ns, s.end_ns,
                 -1, request});
  }
  // Outer spans first: by start, then the longer one.
  std::sort(spans.begin(), spans.end(),
            [](const span_rec& a, const span_rec& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.end > b.end;
            });
  std::vector<int> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty()) {
      const span_rec& top = spans[static_cast<std::size_t>(stack.back())];
      if (top.start <= spans[i].start && spans[i].end <= top.end) break;
      stack.pop_back();
    }
    spans[i].parent = stack.empty() ? -1 : stack.back();
    stack.push_back(static_cast<int>(i));
  }
  // The label is the root span's name: requests of different shapes
  // (pairs, elections, probes) aggregate separately.
  const std::string label = spans.empty() ? "" : spans.front().name;
  std::map<std::string, std::uint64_t> group_self;
  std::vector<std::pair<std::string, std::pair<std::uint64_t, std::uint64_t>>>
      rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    // Self time: duration minus the union of the children's intervals
    // (children of one span are disjoint or nested by construction of
    // the containment tree; siblings may overlap across threads).
    std::vector<std::pair<std::uint64_t, std::uint64_t>> kids;
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      if (spans[j].parent == static_cast<int>(i)) {
        kids.emplace_back(spans[j].start, spans[j].end);
      }
    }
    std::uint64_t covered = 0;
    std::uint64_t cursor = spans[i].start;
    for (const auto& [s, e] : kids) {
      const std::uint64_t from = std::max(s, cursor);
      if (e > from) covered += e - from;
      cursor = std::max(cursor, e);
    }
    const std::uint64_t dur = spans[i].end - spans[i].start;
    const std::uint64_t self = dur > covered ? dur - covered : 0;
    rows.push_back({spans[i].name, {dur, self}});
    group_self[group_of(spans[i].name)] += self;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, ds] : rows) {
    duration_[label + ":" + name].add_ns(ds.first);
    self_[label + ":" + name].add_ns(ds.second);
  }
  for (const char* g : budget_groups) {
    self_sum_[label + ":" + g].add_ns(group_self[g]);
  }
  ++requests_;
  done_.insert(done_.end(), spans.begin(), spans.end());
}

namespace {

/// Samples for `name` under every label (key "label:name"), or under
/// one label when `name` already carries it.
histogram gather(const std::map<std::string, histogram>& m,
                 const std::string& name) {
  histogram out;
  if (name.find(':') != std::string::npos) {
    const auto it = m.find(name);
    if (it != m.end()) out = it->second;
    return out;
  }
  const std::string suffix = ":" + name;
  for (const auto& [k, v] : m) {
    if (k.size() > suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0) {
      out.merge(v);
    }
  }
  return out;
}

}  // namespace

histogram tracer::duration(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return gather(duration_, name);
}

histogram tracer::self(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return gather(self_, name);
}

histogram tracer::self_sum(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return gather(self_sum_, name);
}

std::size_t tracer::requests() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return requests_;
}

void tracer::write(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path);
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const span_rec& s : done_) {
    out << "{\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
        << ",\"parent\":" << s.parent << "}\n";
  }
}

void trace_layer_rows(result& out, const tracer& t) {
  out.set("net.client.rtt_p50_us", t.duration("wire_rtt").p(0.5), "us");
  out.set("net.client.self_p50_us", t.self("wire_rtt").p(0.5), "us");
  out.set("net.serve_p50_us", t.duration("serve").p(0.5), "us");
  out.set("svc.fast_path_p50_us", t.duration("fast_path").p(0.5), "us");
  out.set("svc.lease_op_p50_us", t.duration("lease_op").p(0.5), "us");
  out.set("svc.queue_wait_p50_us", t.duration("queue_wait").p(0.5), "us");
  out.set("svc.epoch_wait_p50_us", t.duration("epoch_wait").p(0.5), "us");
  out.set("election.p50_us", t.duration("election").p(0.5), "us");
  out.set("election.lease_grant_p50_us", t.duration("lease_grant").p(0.5),
          "us");
  out.set("bench.traced_requests", static_cast<double>(t.requests()),
          "count");
}

// ---------------------------------------------------------------------
// configuration and the loopback floor

svc::service_config default_service_config(std::uint64_t seed) {
  svc::service_config c;
  c.nodes = 8;
  c.shards = 8;
  c.seed = seed;
  c.default_strategy = election::strategy_kind::adaptive;
  c.lease_ttl_ms = 5000;
  return c;
}

net::server_config default_server_config() {
  net::server_config c;
  c.bind_address = "127.0.0.1";
  c.port = 0;
  return c;
}

void config_notes(result& out, const svc::service_config& sc,
                  const net::server_config* nc, int reactors) {
  out.note("pool_nodes", std::to_string(sc.nodes));
  out.note("shards", std::to_string(sc.shards));
  out.note("strategy", std::string(election::to_string(sc.default_strategy)));
  out.note("lease_ttl_ms", std::to_string(sc.lease_ttl_ms));
  out.note("reactors", std::to_string(reactors));
  out.note("executors", nc != nullptr ? std::to_string(nc->executors) : "0");
}

std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

namespace {

bool io_all(int fd, char* buf, std::size_t n, bool write) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = write ? ::send(fd, buf + done, n - done, MSG_NOSIGNAL)
                            : ::recv(fd, buf + done, n - done, 0);
    if (r <= 0) return false;
    done += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

double tcp_echo_rtt_p50_us(int rounds) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (listener < 0 ||
      ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 1) != 0) {
    if (listener >= 0) ::close(listener);
    return 0.0;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  constexpr std::size_t msg = 32;  // about one small wire frame
  std::thread echo([listener, rounds] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char buf[msg];
    for (int i = 0; i < rounds; ++i) {
      if (!io_all(fd, buf, msg, false) || !io_all(fd, buf, msg, true)) break;
    }
    ::close(fd);
  });
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  histogram rtt;
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    char buf[msg] = {};
    for (int i = 0; i < rounds; ++i) {
      const std::uint64_t t0 = now_ns();
      if (!io_all(fd, buf, msg, true) || !io_all(fd, buf, msg, false)) break;
      rtt.add_ns(now_ns() - t0);
    }
  }
  if (fd >= 0) ::close(fd);
  echo.join();
  ::close(listener);
  return rtt.p(0.5);
}

// ---------------------------------------------------------------------
// layer rows from the program's own counters

svc_counters read_svc(const svc::service& s) {
  svc_counters c;
  c.report = s.report();
  c.comm_calls_total = static_cast<std::uint64_t>(
      c.report.mean_communicate_calls * s.config().nodes + 0.5);
  return c;
}

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

template <typename T>
double delta(T a, T b) {
  return b >= a ? static_cast<double>(b - a) : 0.0;
}

}  // namespace

void svc_layer_rows(result& out, const svc_counters& a,
                    const svc_counters& b) {
  const auto& ra = a.report;
  const auto& rb = b.report;
  const auto full = static_cast<std::size_t>(election::strategy_kind::full);
  const double hits = delta(ra.fast_path.hits, rb.fast_path.hits);
  const double conflicts =
      delta(ra.fast_path.conflicts, rb.fast_path.conflicts);
  const double fallbacks =
      delta(ra.fast_path.fallbacks, rb.fast_path.fallbacks);
  const double full_acq =
      delta(ra.strategies[full].acquires, rb.strategies[full].acquires);
  const double full_wins =
      delta(ra.strategies[full].wins, rb.strategies[full].wins);
  // Protocol-path acquires: keys pinned to `full` plus adaptive
  // acquires that fell back to the protocol. The report's own
  // messages_per_acquire divides by every acquire (fast-path ones send
  // no message) and mean_communicate_calls is a per-node lifetime total;
  // both are renormalized here over the window's protocol acquires.
  const double protocol = full_acq + fallbacks;
  out.set("svc.fast_path_hit_rate", ratio(hits, hits + conflicts + fallbacks),
          "ratio");
  out.set("svc.fallbacks", fallbacks, "count");
  out.set("svc.win_ratio", ratio(full_wins, full_acq), "ratio");
  out.set("svc.watch.dropped", delta(ra.watch.dropped, rb.watch.dropped),
          "count");
  out.set("election.msgs_per_acquire",
          ratio(delta(ra.total_messages, rb.total_messages), protocol),
          "count");
  out.set("election.comm_calls_per_acquire",
          ratio(delta(a.comm_calls_total, b.comm_calls_total), protocol),
          "count");
  out.set("mt.msgs_per_push",
          ratio(delta(ra.total_messages, rb.total_messages),
                delta(ra.mailbox_pushes, rb.mailbox_pushes)),
          "count");
}

void net_layer_rows(result& out, const net::net_report& a,
                    const net::net_report& b, std::uint64_t pairs) {
  const double reqs = delta(a.requests, b.requests);
  out.set("net.wakeups_per_req",
          ratio(delta(a.reactor_wakeups, b.reactor_wakeups), reqs), "count");
  out.set("net.frames_per_writev",
          ratio(delta(a.frames_flushed, b.frames_flushed),
                delta(a.writev_calls, b.writev_calls)),
          "count");
  out.set("net.reqs_per_drain",
          ratio(reqs, delta(a.dispatch_batches, b.dispatch_batches)), "count");
  out.set("net.bytes_per_pair",
          ratio(delta(a.bytes_in + a.bytes_out, b.bytes_in + b.bytes_out),
                static_cast<double>(pairs)),
          "bytes");
  out.set("net.busy_rejections", delta(a.busy_rejections, b.busy_rejections),
          "count");
  out.set("net.backpressure_pauses",
          delta(a.backpressure_pauses, b.backpressure_pauses), "count");
  out.set("net.events_pushed", delta(a.events_pushed, b.events_pushed),
          "count");
  out.set("net.events_dropped", delta(a.events_dropped, b.events_dropped),
          "count");
}

// ---------------------------------------------------------------------
// histories

std::uint64_t history_us() {
  static const std::uint64_t base = now_ns();
  return (now_ns() - base) / 1000;
}

chaos::record history_record(int worker, chaos::op_kind op,
                             chaos::outcome result, const std::string& key,
                             std::uint64_t epoch, std::uint64_t start_us,
                             std::uint64_t end_us) {
  chaos::record r;
  r.start_us = start_us;
  r.end_us = end_us;
  r.worker = worker;
  r.op = op;
  r.result = result;
  r.key = key;
  r.epoch = epoch;
  return r;
}

chaos::outcome outcome_of(const svc::acquire_result& r) {
  if (r.won) return chaos::outcome::ok;
  if (r.connection_lost) return chaos::outcome::connection_lost;
  if (r.rejected) return chaos::outcome::rejected;
  if (r.timed_out) return chaos::outcome::timed_out;
  return chaos::outcome::lost;
}

chaos::outcome outcome_of(svc::lease_status s) {
  switch (s) {
    case svc::lease_status::ok:
      return chaos::outcome::ok;
    case svc::lease_status::stale_epoch:
      return chaos::outcome::stale_epoch;
    case svc::lease_status::not_leader:
      return chaos::outcome::not_leader;
    default:
      return chaos::outcome::connection_lost;
  }
}

void check_history(result& out, const std::vector<chaos::record>& records) {
  const chaos::report report = chaos::check(records, {});
  out.note("history_records", std::to_string(report.records));
  out.note("history_grants", std::to_string(report.grants));
  for (const chaos::violation& v : report.violations) {
    out.violation("chaos " + v.rule + ": " + v.detail);
  }
  if (report.grants == 0) out.violation("chaos: empty history (no grants)");
}

void history_log::check(result& out) {
  const std::size_t used = used_.load();
  records_.resize(std::min(used, capacity));
  std::sort(records_.begin(), records_.end(),
            [](const chaos::record& a, const chaos::record& b) {
              return a.start_us < b.start_us;
            });
  out.note("history_dropped",
           std::to_string(used > capacity ? used - capacity : 0));
  check_history(out, records_);
}

}  // namespace lb
