// contended: in-process. Two hot keys are pinned to the paper's `full`
// strategy; three threads run blocking acquire -> release on them, so
// nearly every acquire is a Figure-6 election on the node pool. A
// fourth thread runs fast-path pairs on private keys, competing with
// the protocol grants for the same registry shards.
//
// A trial's warm-up and window end on a count of hot elections, not on
// the clock: the service's memory grows with the elections it runs, so
// a fixed count keeps peak_rss_mb independent of how fast the host or
// the election path is. The count is sized to take the trial's share
// of --seconds at `nominal_elections_per_s`.
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "api/client.hpp"
#include "pairs.hpp"

namespace lb {

namespace {

constexpr int hot_threads = 3;
const char* const hot_keys[] = {"hot/0", "hot/1"};
/// Sizes a trial's election count from its seconds.
constexpr double nominal_elections_per_s = 2000.0;
/// A trial that has not reached its count after this many times its
/// nominal length closes its window anyway.
constexpr double overrun_limit = 4.0;

struct contended_fixture {
  std::unique_ptr<svc::service> service;
  std::vector<std::unique_ptr<api::client>> clients;
  std::vector<svc::service::session> sessions;
};

struct hot_summary {
  histogram elect;
  std::uint64_t elections = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One hot thread: blocking acquire on a random hot key, release at
/// once. Traced runs alternate api::client and svc::session calls; the
/// session elections run under a minted trace id.
hot_summary hot_loop(int worker, std::uint64_t seed, api::client& client,
                     svc::service::session* session,
                     const std::atomic<bool>& stop, const window& w,
                     history_log& history,
                     std::atomic<std::uint64_t>& completed) {
  hot_summary out;
  std::mt19937_64 rng(seed);
  tracer* tr = active_tracer();
  std::uint64_t n = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::string key = hot_keys[draw(rng, 2)];
    const bool raw = session != nullptr && n++ % 2 == 1;
    std::uint64_t epoch = 0;
    chaos::outcome acq = chaos::outcome::rejected;
    chaos::outcome rel = chaos::outcome::not_leader;
    const std::uint64_t h0 = history_us();
    std::uint64_t h1 = 0;
    std::uint64_t start = 0;
    std::uint64_t won = 0;
    if (!raw) {
      start = now_ns();
      api::acquired got = client.acquire(key);
      won = now_ns();
      h1 = history_us();
      epoch = got.epoch;
      if (got.won()) {
        acq = chaos::outcome::ok;
        rel = outcome_of(got.lease.release());
      }
    } else {
      const std::uint64_t id = tr != nullptr ? obs::mint() : 0;
      svc::acquire_result got;
      {
        const obs::trace_scope scope(id);
        start = now_ns();
        got = session->acquire(key);
        won = now_ns();
      }
      h1 = history_us();
      epoch = got.epoch;
      acq = outcome_of(got);
      if (got.won) rel = outcome_of(session->release(key, got.epoch));
      if (id != 0) {
        tr->record("elect", id, start, won);
        tr->finish(id);
      }
    }
    const std::uint64_t end = now_ns();
    completed.fetch_add(1, std::memory_order_relaxed);
    history.push(history_record(worker, chaos::op_kind::acquire, acq, key,
                                epoch, h0, h1));
    if (acq == chaos::outcome::ok) {
      history.push(history_record(worker, chaos::op_kind::release, rel, key,
                                  epoch, h1, history_us()));
    }
    if (!w.contains(start, end)) continue;
    ++out.attempted;
    if (acq != chaos::outcome::ok || rel != chaos::outcome::ok) {
      ++out.failed;
      continue;
    }
    ++out.elections;
    if (!raw) out.elect.add_ns(won - start);
  }
  return out;
}

}  // namespace

void run_contended(const options& opt, result& out) {
  history_log history;
  proc_sampler proc;
  svc::service_config sc = default_service_config(opt.seed);
  for (const char* k : hot_keys) {
    sc.key_strategies[k] = election::strategy_kind::full;
  }
  auto fx = timed_setup<contended_fixture>(out, [&] {
    auto f = std::make_unique<contended_fixture>();
    f->service = std::make_unique<svc::service>(sc);
    for (int i = 0; i <= hot_threads; ++i) {
      f->clients.push_back(std::make_unique<api::client>(*f->service));
      if (opt.trace) f->sessions.push_back(f->service->connect());
    }
    return f;
  });
  config_notes(out, sc, nullptr, 0);

  window w;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<hot_summary> hot(hot_threads);
  lane_summary fast;
  std::vector<std::thread> workers;
  for (int i = 0; i < hot_threads; ++i) {
    workers.emplace_back([&, i] {
      const auto idx = static_cast<std::size_t>(i);
      hot[idx] = hot_loop(i, opt.seed * 7919 + idx, *fx->clients[idx],
                          opt.trace ? &fx->sessions[idx] : nullptr, stop, w,
                          history, completed);
    });
  }
  workers.emplace_back([&] {
    pair_lane_config cfg;
    cfg.worker = hot_threads;
    cfg.prefix = "fast/";
    cfg.seed = opt.seed * 7919 + hot_threads;
    cfg.raw_span = "svc.call";
    svc::service::session* raw =
        opt.trace ? &fx->sessions[hot_threads] : nullptr;
    fast = run_pair_lane(cfg, *fx->clients[hot_threads], raw, stop, w,
                         nullptr);
  });
  svc_counters s0;
  svc_counters s1;
  const auto warm_count = static_cast<std::uint64_t>(
      std::llround(nominal_elections_per_s * warm_s));
  const auto window_count = static_cast<std::uint64_t>(
      std::llround(nominal_elections_per_s * opt.seconds));
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>((warm_s + opt.seconds) *
                                            overrun_limit * 1e9);
  auto wait_for = [&](std::uint64_t count) {
    while (completed.load(std::memory_order_relaxed) < count &&
           now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  wait_for(warm_count);
  s0 = read_svc(*fx->service);
  proc.begin_window();
  w.open();
  wait_for(warm_count + window_count);
  const bool overran =
      completed.load(std::memory_order_relaxed) < warm_count + window_count;
  w.close();
  s1 = read_svc(*fx->service);
  proc.end_window();
  stop.store(true);
  for (auto& t : workers) t.join();
  if (overran) out.note("window_overrun", "1");

  if (fast.run_failures > 0) {
    out.violation("contended: " + std::to_string(fast.run_failures) +
                  " fast-lane pairs on private keys did not win");
  }
  hot_summary all;
  for (hot_summary& h : hot) {
    all.elect.merge(h.elect);
    all.elections += h.elections;
    all.attempted += h.attempted;
    all.failed += h.failed;
  }
  if (all.failed > 0) {
    out.violation("contended: " + std::to_string(all.failed) +
                  " blocking acquires on hot keys did not win and release");
  }
  history.check(out);

  out.attempt(fast.attempted + all.attempted);
  out.fail(fast.failed + all.failed);
  proc.rows(out, fast.attempted + all.attempted);
  pair_rows(out, fast, w.seconds(), active_tracer());
  out.set("elections_per_s", static_cast<double>(all.elections) / w.seconds(),
          "1/s");
  out.set("elect_p50_us", all.elect.p(0.5), "us");
  out.set("elect_p99_us", all.elect.p(0.99), "us");
  out.note("elect_samples", std::to_string(all.elect.count()));
  svc_layer_rows(out, s0, s1);
}

}  // namespace lb
