// elect::obs — request tracing: lock-free per-thread span rings with
// nanosecond timestamps, and automatic capture of slow requests.
//
// Every acquire/release/renew/watch gets a 64-bit *trace id*, minted in
// api::client (or taken off the wire by net::server, where the v3
// protocol carries it). The id travels with the request through the
// service — a thread-local "current trace" that scoped_span reads — and
// each instrumented phase (fast-path CAS, queue wait, protocol
// election, lease grant, epoch wait, wire round trip) records one span
// into the recording thread's ring.
//
// The hot path is built to cost nothing when nobody traces and almost
// nothing when they do:
//
//   * a span is four relaxed atomic stores into a fixed-size
//     thread-local ring, guarded by a per-slot sequence lock — no
//     mutex, no allocation, no cross-thread contention;
//   * scoped_span is a no-op (two thread-local reads) while the
//     current trace id is 0, which is every un-traced caller;
//   * readers (collect / slow-trace capture) walk all rings and skip
//     torn slots by re-checking the slot's sequence — a racing writer
//     costs the reader one skipped span, never a lock.
//
// Rings survive their thread: a ring is leased to a thread for its
// lifetime and returned to a free list at thread exit, so short-lived
// threads (a client's per-call helpers, test drivers) reuse rings
// instead of leaking one each, and their spans stay readable until the ring is
// overwritten by its next tenant.
//
// Slow-request capture: set_slow_threshold() arms a global threshold;
// maybe_capture_slow(id, total, label) — called by api::client and the
// server at the end of each request — formats the trace end-to-end,
// names the phase that stalled, and retains the dump in a small bounded
// store (slow_dumps()), optionally echoing it to stderr.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace elect::obs {

/// Instrumented request phases. Values index the per-phase aggregation
/// in trace dumps; append only.
enum class phase : std::uint8_t {
  /// The whole client-side call (api::client), submit to return.
  api_call = 0,
  /// One wire round trip (net::client request out -> response in).
  wire_rtt = 1,
  /// Server-side serving of one request (net::server).
  serve = 2,
  /// Job queued behind the node's driver (submit -> driver pickup).
  queue_wait = 3,
  /// The adaptive CAS fast path (begin_adaptive_attempt).
  fast_path = 4,
  /// The distributed election (driver co_await on the protocol).
  election = 5,
  /// The claim arbiter granting the epoch (claim_win).
  lease_grant = 6,
  /// A loser parked until the key's epoch moves (release/expiry).
  epoch_wait = 7,
  /// A fenced lease op (release/renew) against the registry.
  lease_op = 8,
};

inline constexpr int phase_count = 9;

[[nodiscard]] std::string_view to_string(phase p);

/// One recorded interval, as read back by collect(). Timestamps are
/// steady-clock nanoseconds (comparable within one process only).
struct span {
  std::uint64_t trace_id = 0;
  phase stage = phase::api_call;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns >= start_ns ? end_ns - start_ns : 0;
  }
};

/// Lifetime tracer counters (reported under "trace" in the service
/// report JSON and as elect_trace_* Prometheus series).
struct trace_counters {
  /// Trace ids handed out by mint().
  std::uint64_t minted = 0;
  /// Spans recorded across all rings (including since-overwritten ones).
  std::uint64_t spans = 0;
  /// Slow-request dumps captured (threshold exceeded).
  std::uint64_t slow_captured = 0;
  /// Captured dumps evicted from the bounded retention store.
  std::uint64_t slow_evicted = 0;
};

/// Steady-clock now, in the nanosecond timebase spans use.
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Mint a fresh trace id (never 0). Ids are unique within a process;
/// the counter is seeded from the clock so ids from different processes
/// on one wire are unlikely to collide.
[[nodiscard]] std::uint64_t mint();

/// The calling thread's current trace id (0 = not tracing).
[[nodiscard]] std::uint64_t current() noexcept;

/// RAII: make `id` the calling thread's current trace for this scope,
/// restoring the previous id on exit. Scopes nest.
class trace_scope {
 public:
  explicit trace_scope(std::uint64_t id) noexcept;
  ~trace_scope();

  trace_scope(const trace_scope&) = delete;
  trace_scope& operator=(const trace_scope&) = delete;

 private:
  std::uint64_t previous_;
};

/// Record one span for an explicit trace id (no-op when id == 0). For
/// intervals whose endpoints are measured manually — e.g. a queue wait
/// that started on another thread.
void record_for(std::uint64_t trace_id, phase stage, std::uint64_t start_ns,
                std::uint64_t end_ns);

/// RAII span on the *current* trace: stamps start at construction and
/// records on destruction. A no-op (no clock read, no ring touch) while
/// current() == 0.
class scoped_span {
 public:
  explicit scoped_span(phase stage) noexcept;
  ~scoped_span();

  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  std::uint64_t trace_;
  std::uint64_t start_ = 0;
  phase stage_;
};

/// Every readable span recorded for `trace_id`, across all threads'
/// rings, sorted by start time. Spans overwritten by ring wrap-around
/// (or torn mid-write) are simply absent.
[[nodiscard]] std::vector<span> collect(std::uint64_t trace_id);

/// Human-readable multi-line dump of one trace: per-span timeline plus
/// the slowest non-wrapper phase ("the phase that stalled"). `label`
/// names the request ("acquire locks/demo").
[[nodiscard]] std::string format_trace(std::uint64_t trace_id,
                                       std::string_view label);

/// Arm (or, with zero, disarm) slow-request capture. Global: one
/// threshold per process, set by the service/server configuration.
void set_slow_threshold(std::chrono::nanoseconds threshold);
[[nodiscard]] std::chrono::nanoseconds slow_threshold() noexcept;

/// Echo captured dumps to stderr (default on — an operator watching the
/// server sees the dump the moment the slow request finishes).
void set_slow_log(bool enabled);

/// If capture is armed and `total` meets the threshold: format the
/// trace, retain the dump, count it, optionally log it. Returns whether
/// a dump was captured.
bool maybe_capture_slow(std::uint64_t trace_id,
                        std::chrono::nanoseconds total,
                        std::string_view label);

/// The retained slow-trace dumps, oldest first (bounded; see
/// trace_counters::slow_evicted for what aged out).
[[nodiscard]] std::vector<std::string> slow_dumps();

[[nodiscard]] trace_counters counters();

}  // namespace elect::obs
