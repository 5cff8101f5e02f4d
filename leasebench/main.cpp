// leasebench — the lease service's benchmark program.
//
//   leasebench --workload remote-sync|remote-open|contended|replicated
//              --seed N --seconds S --trace 0|1
//              [--out result.json] [--spans spans.jsonl]
//              [--git-sha SHA] [--source-hash HASH]
//              [--work-dir DIR]  (required for replicated)
//   leasebench --list-metrics
//
// Prints one JSON object as its last stdout line: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Exits 1 when the run's correctness
// check fails. The workload "planted-double-grant" feeds the history
// check a double grant; it exists to prove the check fails.
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hpp"

#ifndef LEASEBENCH_BUILD_TYPE
#define LEASEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LEASEBENCH_COMPILER
#define LEASEBENCH_COMPILER "unknown"
#endif

namespace {

using namespace lb;

struct metric_def {
  const char* name;
  const char* unit;
};

/// What a user of the service sees; every workload reports each.
constexpr metric_def end_to_end[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"pairs_per_s", "1/s"},
    {"pair_p50_us", "us"},
    {"blocking_pair_p50_us", "us"},
};

/// Per-layer rows, from the traced run. A layer a workload does not
/// touch reports 0. The first rows are user-visible figures kept here
/// rather than end-to-end: they are zero by design (failed_frac), exist
/// on one workload only, or are tails that swing 2x between runs on a
/// shared 4-vCPU machine, so a bound on them would reject at random.
constexpr metric_def per_layer[] = {
    {"failed_frac", "ratio"},
    {"pair_p99_us", "us"},
    {"open_p50_us", "us"},
    {"open_p99_us", "us"},
    {"watch_p99_us", "us"},
    {"elections_per_s", "1/s"},
    {"elect_p50_us", "us"},
    {"elect_p99_us", "us"},
    {"failover_ms", "ms"},
    {"api.self_p50_us", "us"},
    {"net.client.rtt_p50_us", "us"},
    {"net.client.self_p50_us", "us"},
    {"net.serve_p50_us", "us"},
    {"net.wakeups_per_req", "count"},
    {"net.frames_per_writev", "count"},
    {"net.reqs_per_drain", "count"},
    {"net.bytes_per_pair", "bytes"},
    {"net.busy_rejections", "count"},
    {"net.backpressure_pauses", "count"},
    {"net.events_pushed", "count"},
    {"net.events_dropped", "count"},
    {"svc.watch.dropped", "count"},
    {"svc.fast_path_p50_us", "us"},
    {"svc.lease_op_p50_us", "us"},
    {"svc.queue_wait_p50_us", "us"},
    {"svc.epoch_wait_p50_us", "us"},
    {"svc.fast_path_hit_rate", "ratio"},
    {"svc.fallbacks", "count"},
    {"svc.win_ratio", "ratio"},
    {"election.p50_us", "us"},
    {"election.lease_grant_p50_us", "us"},
    {"election.msgs_per_acquire", "count"},
    {"election.comm_calls_per_acquire", "count"},
    {"mt.msgs_per_push", "count"},
    {"repl.commit_wait_p50_us", "us"},
    {"repl.commit_wait_p99_us", "us"},
    {"repl.peer_p50_us", "us"},
    {"repl.entries_per_append", "count"},
    {"repl.append_failures", "count"},
    {"repl.commit_timeouts", "count"},
    {"repl.elections_started", "count"},
    {"proc.peak_threads", "count"},
    {"proc.cpu_us_per_op", "us"},
    {"proc.ctx_switches_per_op", "count"},
    {"tcp.echo_rtt_p50_us", "us"},
    {"bench.gen_lag_p99_us", "us"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.traced_requests", "count"},
    {"budget.net_pair_p50_us", "us"},
    {"budget.bench_us", "us"},
    {"budget.client_lib_us", "us"},
    {"budget.wire_self_us", "us"},
    {"budget.serve_self_us", "us"},
    {"budget.svc_us", "us"},
    {"budget.commit_wait_us", "us"},
    {"budget.accounted_pct", "%"},
};

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string provenance_json(const options& opt, const result& res) {
  utsname u{};
  ::uname(&u);
  std::ostringstream o;
  o << "{\"git_sha\":\"" << escape(opt.git_sha) << "\",\"source_hash\":\""
    << escape(opt.source_hash) << "\",\"build_type\":\""
    << LEASEBENCH_BUILD_TYPE << "\",\"compiler\":\"" << LEASEBENCH_COMPILER
    << "\",\"cpu_model\":\"" << escape(cpu_model())
    << "\",\"nproc\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"kernel\":\"" << escape(u.release) << "\",\"seed\":" << opt.seed
    << ",\"seconds\":" << number(opt.seconds)
    << ",\"traced\":" << (opt.trace ? "true" : "false");
  for (const auto& [k, v] : res.notes()) {
    o << ",\"" << escape(k) << "\":\"" << escape(v) << "\"";
  }
  o << "}";
  return o.str();
}

void write_detail(const options& opt, const result& res) {
  if (opt.out_path.empty()) return;
  std::ofstream out(opt.out_path);
  out << "{\"workload\":\"" << escape(opt.workload)
      << "\",\"provenance\":" << provenance_json(opt, res)
      << ",\"correct\":" << (res.correct() ? "true" : "false")
      << ",\"attempted\":" << res.attempted() << ",\"failed\":"
      << res.failed() << ",\"violations\":[";
  bool first = true;
  for (const std::string& v : res.violations()) {
    out << (first ? "" : ",") << "\"" << escape(v) << "\"";
    first = false;
  }
  out << "],\"metrics\":{";
  first = true;
  for (const auto& [name, vu] : res.metrics()) {
    out << (first ? "" : ",") << "\"" << escape(name)
        << "\":{\"value\":" << number(vu.first) << ",\"unit\":\""
        << vu.second << "\"}";
    first = false;
  }
  out << "}}\n";
}

/// Fold the trials of one run: each metric is the median of the trials
/// that measured it; counts and violations add up; a note that differs
/// between trials keeps every trial's value, separated by " | ".
void merge_trials(const std::vector<result>& parts, result& into) {
  std::map<std::string, std::pair<std::vector<double>, std::string>> values;
  std::map<std::string, std::vector<std::string>> notes;
  for (const result& p : parts) {
    into.attempt(p.attempted());
    into.fail(p.failed());
    for (const std::string& v : p.violations()) into.violation(v);
    for (const auto& [name, vu] : p.metrics()) {
      values[name].first.push_back(vu.first);
      values[name].second = vu.second;
    }
    for (const auto& [k, v] : p.notes()) notes[k].push_back(v);
  }
  for (const auto& [k, vs] : notes) {
    std::string joined = vs.front();
    if (std::any_of(vs.begin(), vs.end(),
                    [&](const std::string& v) { return v != vs.front(); })) {
      for (std::size_t i = 1; i < vs.size(); ++i) joined += " | " + vs[i];
    }
    into.note(k, joined);
  }
  for (const auto& [name, vu] : values) {
    into.set(name, percentile(vu.first, 0.5), vu.second);
  }
  into.note("trials", std::to_string(parts.size()));
}

/// A history in which two workers both hold epoch 7 of one key at
/// once: the correctness check must reject it.
void planted_double_grant(const options& /*opt*/, result& out) {
  std::vector<chaos::record> h;
  h.push_back(history_record(0, chaos::op_kind::acquire, chaos::outcome::ok,
                             "hot/0", 7, 10, 20));
  h.push_back(history_record(1, chaos::op_kind::acquire, chaos::outcome::ok,
                             "hot/0", 7, 15, 25));
  h.push_back(history_record(0, chaos::op_kind::release, chaos::outcome::ok,
                             "hot/0", 7, 30, 40));
  check_history(out, h);
  out.attempt(3);
  for (const metric_def& m : end_to_end) out.set(m.name, 1.0, m.unit);
}

int usage_error(const char* why) {
  std::fprintf(stderr, "leasebench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // The server runs in this process and flushes with writev, which
  // raises SIGPIPE when a client socket closed first (a trial's
  // teardown closes its clients while responses may still be queued).
  // Like any process embedding net::server, ignore it and let the
  // write fail with EPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const metric_def& m : end_to_end) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const metric_def& m : per_layer) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    }
    if (i + 1 >= argc) return usage_error("flag without a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out_path = value;
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else if (flag == "--source-hash") {
      opt.source_hash = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage_error(("unknown flag " + flag).c_str());
    }
  }
  if (opt.seconds <= 0.0) return usage_error("--seconds must be positive");
  if (opt.workload == "replicated" && opt.work_dir.empty()) {
    return usage_error("the replicated workload needs --work-dir");
  }

  void (*run)(const options&, result&) = nullptr;
  // A run is several independent trials, each with a fresh fixture
  // (service, threads, connections) measured for an equal share of
  // --seconds; every metric is the median over the trials. Much of the
  // run-to-run spread comes with the fixture (thread placement, memory
  // layout), so medians over fresh fixtures are steadier than one long
  // window. A replicated trial also fails over once after its window,
  // so that workload runs five longer trials.
  int trials = 8;
  if (opt.workload == "remote-sync") {
    run = run_remote_sync;
  } else if (opt.workload == "remote-open") {
    run = run_remote_open;
  } else if (opt.workload == "contended") {
    run = run_contended;
  } else if (opt.workload == "replicated") {
    run = run_replicated;
    trials = 5;
  } else if (opt.workload == "planted-double-grant") {
    run = planted_double_grant;
    trials = 1;
  } else {
    return usage_error("unknown --workload");
  }
  tracer tr;
  if (opt.trace) set_active_tracer(&tr);
  std::vector<result> parts(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    options trial = opt;
    trial.seconds = opt.seconds / trials;
    trial.seed = opt.seed * 1000003 + static_cast<std::uint64_t>(t);
    run(trial, parts[static_cast<std::size_t>(t)]);
  }
  set_active_tracer(nullptr);
  result res;
  merge_trials(parts, res);
  if (opt.trace) {
    trace_layer_rows(res, tr);
    tr.write(opt.spans_path);
  }
  const double attempted = static_cast<double>(res.attempted());
  res.set("failed_frac",
          attempted > 0 ? static_cast<double>(res.failed()) / attempted : 0.0,
          "ratio");
  if (res.attempted() == 0) res.violation("no operation was attempted");

  // The reported metric set: every end-to-end metric must have been
  // measured; per-layer rows of layers the workload never touched are 0.
  std::ostringstream m;
  bool first = true;
  auto emit = [&](const metric_def& d, double v) {
    m << (first ? "" : ",") << "\"" << d.name << "\":{\"value\":" << number(v)
      << ",\"unit\":\"" << d.unit << "\"}";
    first = false;
  };
  const auto& measured = res.metrics();
  if (!opt.trace) {
    for (const metric_def& d : end_to_end) {
      const auto it = measured.find(d.name);
      if (it == measured.end()) {
        res.violation(std::string("end-to-end metric not measured: ") +
                      d.name);
        emit(d, 0.0);
      } else {
        emit(d, it->second.first);
      }
    }
  } else {
    for (const metric_def& d : per_layer) {
      const auto it = measured.find(d.name);
      emit(d, it == measured.end() ? 0.0 : it->second.first);
    }
  }
  write_detail(opt, res);
  for (const std::string& v : res.violations()) {
    std::fprintf(stderr, "leasebench: VIOLATION %s\n", v.c_str());
  }
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.correct() ? "true" : "false",
              static_cast<unsigned long long>(res.attempted()),
              static_cast<unsigned long long>(res.failed()), m.str().c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
