// leasebench — the closed-loop pair lane shared by remote-sync, the
// contended workload's fast lane and the replicated workload.
//
// A pair is a try_acquire (or, one time in four, a blocking acquire)
// that wins plus its fenced release, timed from the call to the
// release's return. Untraced runs drive every pair through an
// api::client. Traced runs alternate: even pairs through the
// api::client, odd pairs through the layer underneath (net::client or
// svc::session), and a sample of those try pairs runs under a minted
// trace id so the program's obs phases join the benchmark's spans.
#pragma once

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "api/client.hpp"
#include "common.hpp"

namespace lb {

/// What one lane measured inside the window.
struct lane_summary {
  histogram try_api;
  histogram blocking_api;
  histogram try_raw;
  histogram try_raw_traced;
  std::uint64_t pairs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Failures anywhere in the run, inside the window or not.
  std::uint64_t run_failures = 0;

  void merge(const lane_summary& o);
};

/// Keys a lane cycles through (its own, so every pair must win).
inline constexpr std::uint64_t lane_keys = 1024;

/// Every `trace_every`-th raw try pair runs traced.
inline constexpr int trace_every = 4;

struct pair_lane_config {
  int worker = 0;
  std::string prefix;
  std::uint64_t seed = 1;
  /// Label of the raw call span ("net.call" or "svc.call").
  const char* raw_span = "net.call";
};

/// Runs pairs until `stop` is set; counts the ones inside `w`. `raw` is
/// null in untraced runs. Records the chaos history in `history` when
/// non-null.
template <typename Raw>
lane_summary run_pair_lane(const pair_lane_config& cfg, api::client& client,
                           Raw* raw, const std::atomic<bool>& stop,
                           const window& w,
                           history_log* history) {
  lane_summary out;
  std::mt19937_64 rng(cfg.seed);
  tracer* tr = active_tracer();
  std::uint64_t n = 0;
  std::uint64_t raw_n = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const bool blocking = draw(rng, 4) == 0;
    const std::string key = cfg.prefix + std::to_string(n % lane_keys);
    const bool use_raw = raw != nullptr && n % 2 == 1;
    ++n;
    // Only try pairs are traced: they are what the budget explains.
    const bool traced =
        use_raw && tr != nullptr && !blocking && raw_n++ % trace_every == 0;
    std::uint64_t epoch = 0;
    chaos::outcome acq = chaos::outcome::lost;
    chaos::outcome rel = chaos::outcome::not_leader;
    const std::uint64_t h0 = history != nullptr ? history_us() : 0;
    std::uint64_t h1 = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    if (!use_raw) {
      start = now_ns();
      api::acquired got =
          blocking ? client.acquire(key) : client.try_acquire(key);
      if (history != nullptr) h1 = history_us();
      epoch = got.epoch;
      if (got.won()) {
        acq = chaos::outcome::ok;
        rel = outcome_of(got.lease.release());
      } else if (got.status != api::acquire_status::lost) {
        acq = chaos::outcome::rejected;
      }
      end = now_ns();
    } else {
      const std::uint64_t id = traced ? obs::mint() : 0;
      const obs::trace_scope scope(id);
      start = now_ns();
      const svc::acquire_result got =
          blocking ? raw->acquire(key) : raw->try_acquire(key);
      const std::uint64_t a1 = now_ns();
      if (history != nullptr) h1 = history_us();
      epoch = got.epoch;
      acq = outcome_of(got);
      std::uint64_t r0 = a1;
      if (got.won) {
        r0 = now_ns();
        rel = outcome_of(raw->release(key, got.epoch));
      }
      end = now_ns();
      if (traced) {
        tr->record(cfg.raw_span, id, start, a1);
        if (got.won) tr->record(cfg.raw_span, id, r0, end);
        tr->record("pair", id, start, end);
        tr->finish(id);
      }
    }
    if (history != nullptr) {
      history->push(history_record(cfg.worker, chaos::op_kind::acquire, acq,
                                   key, epoch, h0, h1));
      if (acq == chaos::outcome::ok) {
        history->push(history_record(cfg.worker, chaos::op_kind::release, rel,
                                     key, epoch, h1, history_us()));
      }
    }
    const bool ok = acq == chaos::outcome::ok && rel == chaos::outcome::ok;
    if (!ok) ++out.run_failures;
    if (!w.contains(start, end)) continue;
    ++out.attempted;
    if (!ok) {
      ++out.failed;
      continue;
    }
    ++out.pairs;
    const std::uint64_t d = end - start;
    if (!use_raw) {
      (blocking ? out.blocking_api : out.try_api).add_ns(d);
    } else if (!blocking) {
      (traced ? out.try_raw_traced : out.try_raw).add_ns(d);
    }
  }
  return out;
}

/// End-to-end pair rows plus, in traced runs, the api self time, the
/// tracing overhead and the blocking-path budget.
void pair_rows(result& out, const lane_summary& s, double seconds,
               const tracer* tr);

}  // namespace lb
