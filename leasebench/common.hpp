// leasebench — shared pieces of the lease-service benchmark: options,
// the seeded generator, percentiles, the metric sink, process
// sampling, the benchmark's own span tracer, and the service/server
// configuration every workload starts from (elect_server's defaults).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chaos/history.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "svc/service.hpp"

namespace lb {

using namespace elect;

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Detailed result (provenance + every metric) is written here.
  std::string out_path;
  /// Traced runs write their spans here (JSONL).
  std::string spans_path;
  std::string git_sha = "unknown";
  std::string source_hash = "unknown";
  /// Working directory for on-disk state (the cluster's vote files);
  /// the replicated workload requires one.
  std::string work_dir;
};

/// Steady-clock nanoseconds in the timebase obs spans use.
inline std::uint64_t now_ns() { return obs::now_ns(); }

/// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);

/// Uniform draw in [0, n).
inline std::uint64_t draw(std::mt19937_64& rng, std::uint64_t n) {
  return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
}

/// Log-linear latency histogram: exact below 128 ns, then 128
/// sub-buckets per power of two (under 0.8% relative width). Constant
/// memory, so the benchmark's own footprint does not grow with the
/// number of operations it measures.
class histogram {
 public:
  void add_ns(std::uint64_t ns);
  void merge(const histogram& o);
  /// The q-quantile in microseconds, interpolated inside its bucket;
  /// 0 when empty.
  [[nodiscard]] double p(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  static constexpr int sub_bits = 7;
  std::vector<std::uint64_t> buckets_ =
      std::vector<std::uint64_t>((64 - sub_bits + 1) << sub_bits);
  std::uint64_t count_ = 0;
};

/// The metric sink plus the correctness verdict of one trial (or, once
/// the trials are merged, of the run). Filled on the trial's controlling
/// thread after its load threads have joined.
class result {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Record a correctness violation (the run fails).
  void violation(const std::string& what) {
    if (violations_.size() < 64) violations_.push_back(what);
  }
  void attempt(std::uint64_t n) { attempted_ += n; }
  void fail(std::uint64_t n) { failed_ += n; }
  void note(const std::string& key, const std::string& value) {
    notes_[key] = value;
  }

  [[nodiscard]] bool correct() const { return violations_.empty(); }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& violations() const {
    return violations_;
  }
  [[nodiscard]] const std::map<std::string,
                               std::pair<double, std::string>>&
  metrics() const {
    return metrics_;
  }
  [[nodiscard]] const std::map<std::string, std::string>& notes() const {
    return notes_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> violations_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Samples thread count every few milliseconds and reads peak RSS, CPU
/// time and context switches around the measured window.
class proc_sampler {
 public:
  proc_sampler();
  ~proc_sampler();
  proc_sampler(const proc_sampler&) = delete;
  proc_sampler& operator=(const proc_sampler&) = delete;

  /// Start of the measured window (CPU and context-switch baseline).
  void begin_window();
  /// End of the window: snapshots CPU, context switches and peak RSS.
  void end_window();
  /// Emits peak_rss_mb and the proc.* rows, per-op figures divided by
  /// the `ops` the window completed.
  void rows(result& out, std::uint64_t ops) const;

 private:
  void loop();

  std::atomic<bool> stop_{false};
  std::atomic<int> peak_threads_{0};
  double cpu_us_ = 0.0;
  double ctx_ = 0.0;
  double cpu_end_ = 0.0;
  double ctx_end_ = 0.0;
  double peak_rss_mb_ = 0.0;
  std::thread thread_;
};

/// The benchmark's own span record (name, interval, parent, request).
struct span_rec {
  std::string name;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  /// Index of the parent span in the same request's list, -1 = root.
  int parent = -1;
  std::uint64_t request = 0;
};

/// Spans the benchmark records around public calls and through the
/// hooks it installs (commit gate, peer handler), joined per request
/// with the program's own obs phases, reduced to self times.
class tracer {
 public:
  /// Record a benchmark span for `request` (any thread).
  void record(const char* name, std::uint64_t request, std::uint64_t start,
              std::uint64_t end);
  /// Gather every span of `request` (benchmark spans plus obs::collect),
  /// nest them by containment, and add each span's duration and self
  /// time to the per-name aggregates. Call on the requesting thread
  /// right after the request, so the obs rings cannot have wrapped.
  void finish(std::uint64_t request);

  /// Duration / self-time samples per span name.
  [[nodiscard]] histogram duration(const std::string& name) const;
  [[nodiscard]] histogram self(const std::string& name) const;
  /// Per-request sums of self time for each name (for a pair budget).
  [[nodiscard]] histogram self_sum(const std::string& name) const;
  [[nodiscard]] std::size_t requests() const;

  /// Write every finished span as JSONL.
  void write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::vector<span_rec>> pending_;
  std::vector<span_rec> done_;
  std::map<std::string, histogram> duration_;
  std::map<std::string, histogram> self_;
  std::map<std::string, histogram> self_sum_;
  std::size_t requests_ = 0;
};

/// The benchmark tracer while a traced run is in progress, else null.
tracer* active_tracer();
void set_active_tracer(tracer* t);

/// Builds a trial's fixture and reports how long that took as setup_s
/// (each trial builds one; the run reports the median over trials).
template <typename Fixture, typename Make>
std::unique_ptr<Fixture> timed_setup(result& out, Make make) {
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<Fixture> last = make();
  out.set("setup_s", static_cast<double>(now_ns() - t0) / 1e9, "s");
  return last;
}

/// Unmeasured load before a trial's window opens: lazy set-up finishes
/// and caches fill.
inline constexpr double warm_s = 0.3;

/// The measured window of a trial. Load runs for a warm-up first; the
/// window then opens and closes on the clock, and load threads keep
/// only operations that started and finished inside it.
class window {
 public:
  [[nodiscard]] bool contains(std::uint64_t start, std::uint64_t finish) const {
    return start >= begin_.load(std::memory_order_acquire) &&
           finish <= end_.load(std::memory_order_acquire);
  }

  /// Warm for `warm_s`, run `before()`, open the window for `seconds`,
  /// close it, run `after()`, then raise `stop`.
  template <typename Before, typename After>
  void run(double seconds, std::atomic<bool>& stop, Before before,
           After after) {
    std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
    before();
    open();
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    close();
    after();
    stop.store(true);
  }

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_.load() - begin_.load()) / 1e9;
  }
  void open() { begin_.store(now_ns(), std::memory_order_release); }
  void close() { end_.store(now_ns(), std::memory_order_release); }

 private:
  std::atomic<std::uint64_t> begin_{~0ull};
  std::atomic<std::uint64_t> end_{~0ull};
};

/// elect_server's default service: 8 pool nodes, 8 shards, adaptive
/// strategy, 5 s lease TTL.
svc::service_config default_service_config(std::uint64_t seed);
/// elect_server's default network edge on loopback with an ephemeral
/// port (auto reactor count, 4 executors).
net::server_config default_server_config();

/// Pick a free loopback port (bind to 0, read it back, close).
std::uint16_t reserve_port();

/// Raw TCP echo round trip over loopback: the floor under every wire
/// round trip. Returns the p50 in microseconds over `rounds` pings.
double tcp_echo_rtt_p50_us(int rounds);

/// Provenance rows shared by every workload: the service and edge
/// configuration the run used.
void config_notes(result& out, const svc::service_config& sc,
                  const net::server_config* nc, int reactors);

/// The svc report counters the per-layer rows are derived from.
struct svc_counters {
  svc::service_report report;
  std::uint64_t comm_calls_total = 0;
};
svc_counters read_svc(const svc::service& s);
/// Per-layer svc/election/mt rows from two reports around the window.
void svc_layer_rows(result& out, const svc_counters& a,
                    const svc_counters& b);
/// Per-layer net rows from two server reports around the window.
void net_layer_rows(result& out, const net::net_report& a,
                    const net::net_report& b, std::uint64_t pairs);

/// Trace-derived per-layer rows common to every workload.
void trace_layer_rows(result& out, const tracer& t);

/// A monotonic history clock shared by the chaos records of one run.
std::uint64_t history_us();

/// Build one chaos record.
chaos::record history_record(int worker, chaos::op_kind op,
                             chaos::outcome result, const std::string& key,
                             std::uint64_t epoch, std::uint64_t start_us,
                             std::uint64_t end_us);
chaos::outcome outcome_of(const svc::acquire_result& r);
chaos::outcome outcome_of(svc::lease_status s);

/// Run chaos::check (R1 unique holder, R3 real-time order, R4 zombie
/// fenced) over a history; violations fail the run.
void check_history(result& out, const std::vector<chaos::record>& records);

/// A trial's chaos history, shared by its load threads. Fixed capacity,
/// allocated and written through when constructed: build it before the
/// trial's proc_sampler restarts the RSS high-water mark, and the
/// history never shows in peak_rss_mb. Records past the capacity are
/// dropped (and counted), so the check then covers a prefix.
class history_log {
 public:
  /// About 5.8 MB; a trial of a 20 s run records at most about 25000.
  static constexpr std::size_t capacity = 1u << 16;

  history_log() : records_(capacity) {}
  history_log(const history_log&) = delete;
  history_log& operator=(const history_log&) = delete;

  /// Thread-safe. Keys stay within std::string's inline buffer, so
  /// copying one in allocates nothing.
  void push(const chaos::record& r) {
    const std::size_t i = used_.fetch_add(1, std::memory_order_relaxed);
    if (i < capacity) records_[i] = r;
  }

  /// Once every writer has joined: sort the kept records by start time
  /// and run check_history over them.
  void check(result& out);

 private:
  std::vector<chaos::record> records_;
  std::atomic<std::size_t> used_{0};
};

// Workloads. Each fills `out` with its metrics and correctness verdict.
void run_remote_sync(const options& opt, result& out);
void run_remote_open(const options& opt, result& out);
void run_contended(const options& opt, result& out);
void run_replicated(const options& opt, result& out);

}  // namespace lb
