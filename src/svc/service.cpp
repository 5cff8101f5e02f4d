#include "svc/service.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/oneshot.hpp"
#include "obs/trace.hpp"

namespace elect::svc {

namespace {

std::chrono::milliseconds sweep_interval(const service_config& config) {
  if (config.sweep_interval_ms != 0) {
    return std::chrono::milliseconds(config.sweep_interval_ms);
  }
  return std::chrono::milliseconds(std::max<std::uint64_t>(
      1, config.lease_ttl_ms / 4));
}

std::uint64_t to_trace_ns(std::chrono::steady_clock::time_point tp) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          tp.time_since_epoch())
          .count());
}

}  // namespace

template <typename T, typename Start>
T service::await_gated(Start&& start) {
  if (!commit_gate_) {
    T out{};
    start([&out](T value) { out = std::move(value); });
    return out;
  }
  const oneshot<T> result;
  start(result.setter());
  return result.wait();
}

std::optional<std::string> service_config::validate() const {
  if (nodes <= 0) {
    return "service_config.nodes must be >= 1 (got " +
           std::to_string(nodes) + ")";
  }
  if (shards <= 0) {
    return "service_config.shards must be >= 1 (got " +
           std::to_string(shards) + ")";
  }
  if (max_rounds <= 0) {
    return "service_config.max_rounds must be >= 1 (got " +
           std::to_string(max_rounds) + ")";
  }
  if (participated_prune_threshold == 0) {
    return "service_config.participated_prune_threshold must be >= 1";
  }
  if (session_id_base < 0) {
    return "service_config.session_id_base must be >= 0 (got " +
           std::to_string(session_id_base) + ")";
  }
  if (sweep_interval_ms != 0 && lease_ttl_ms == 0) {
    return "service_config.sweep_interval_ms=" +
           std::to_string(sweep_interval_ms) +
           " without lease_ttl_ms: there are no leases to sweep — set "
           "lease_ttl_ms or drop the sweep interval";
  }
  if (!journal_path.empty() && !journal_events) {
    return "service_config.journal_path=\"" + journal_path +
           "\" without journal_events: nothing would be written — enable "
           "journal_events or drop the path";
  }
  if (journal_events && journal_capacity == 0) {
    return "service_config.journal_capacity must be >= 1 when "
           "journal_events is set";
  }
  const auto known_kind = [](election::strategy_kind kind) {
    const auto value = static_cast<int>(kind);
    return value >= 0 && value < election::strategy_kind_count;
  };
  if (!known_kind(default_strategy)) {
    return "service_config.default_strategy is not a known strategy_kind "
           "(raw value " + std::to_string(static_cast<int>(default_strategy)) +
           ")";
  }
  for (const auto& [key, kind] : key_strategies) {
    if (key.empty()) {
      return "service_config.key_strategies contains an empty key";
    }
    if (!known_kind(kind)) {
      return "service_config.key_strategies[\"" + key +
             "\"] is not a known strategy_kind (raw value " +
             std::to_string(static_cast<int>(kind)) + ")";
    }
  }
  return std::nullopt;
}

service::service(service_config config)
    : config_(std::move(config)),
      registry_(config_.shards >= 1 ? config_.shards : 1),
      metrics_(config_.shards >= 1 ? config_.shards : 1),
      pool_(std::make_unique<mt::cluster>(
          config_.nodes >= 1 ? config_.nodes : 1, config_.seed,
          mt::cluster_options{.batch_transport = config_.batch_transport})) {
  // Validate before anything observable starts; the clamped member
  // initializers above only keep the subobject constructors from
  // aborting with a less descriptive message first.
  const auto config_error = config_.validate();
  ELECT_CHECK_MSG(!config_error.has_value(), config_error.value_or(""));
  if (config_.slow_request_threshold_ms != 0) {
    obs::set_slow_threshold(
        std::chrono::milliseconds(config_.slow_request_threshold_ms));
  }
  if (config_.journal_events) {
    journal_ = std::make_unique<obs::journal>(config_.journal_capacity,
                                              config_.journal_path);
    // The journal consumes every transition, so the hook must fire even
    // with zero watch subscriptions.
    hub_.force_arm();
    hub_.set_drop_hook([this](const std::string& key) {
      journal_->append(obs::event_kind::watch_drop, key, 0, -1, "overflow");
    });
  }
  if (config_.record_commands) registry_.enable_command_log();
  next_session_ = config_.session_id_base;
  registry_.set_command_hook(
      hub_.armed(), [this](const cmd::command& c) { render_command(c); });
  for (int k = 0; k < election::strategy_kind_count; ++k) {
    strategies_[static_cast<std::size_t>(k)] =
        election::make_strategy(static_cast<election::strategy_kind>(k));
  }
  workers_.reserve(static_cast<std::size_t>(config_.nodes));
  for (process_id pid = 0; pid < config_.nodes; ++pid) {
    workers_.push_back(std::make_unique<worker>());
    worker* w = workers_.back().get();
    pool_->attach(pid, [this, w](engine::node& node) {
      return driver(node, *w);
    });
    pool_->set_idle_hook(pid, [this, w] { pump(*w); });
  }
  pool_->start();
  if (config_.lease_ttl_ms != 0) {
    sweeper_ = std::thread([this] { sweeper_main(); });
  }
}

service::~service() { stop(); }

service::session service::connect() {
  auto opened = try_connect();
  ELECT_CHECK_MSG(opened.has_value(), "connect() after stop()");
  return *opened;
}

std::optional<service::session> service::try_connect() {
  const std::lock_guard<std::mutex> lock(connect_mutex_);
  if (stopped_.load()) return std::nullopt;
  const int id = next_session_++;
  return session(*this, id, static_cast<process_id>(id % config_.nodes));
}

void service::stop() {
  if (stopped_.exchange(true)) return;
  if (sweeper_.joinable()) {
    {
      const std::lock_guard<std::mutex> lock(sweeper_mutex_);
      sweeper_stop_ = true;
    }
    sweeper_cv_.notify_all();
    sweeper_.join();
  }
  // Wake clients blocked in wait_for_epoch_above *before* draining: on
  // wakeup they retry the acquire and get a rejected result instead of
  // sleeping on an epoch bump that will never come.
  registry_.shutdown();
  // One shutdown job per driver; queued behind any in-flight acquires, so
  // drivers drain their queues before returning.
  std::vector<std::unique_ptr<job>> shutdowns;
  shutdowns.reserve(workers_.size());
  for (process_id pid = 0; pid < config_.nodes; ++pid) {
    auto j = std::make_unique<job>();
    j->shutdown = true;
    const bool queued = submit(pid, *j);
    ELECT_CHECK_MSG(queued, "second shutdown job on one worker");
    shutdowns.push_back(std::move(j));
  }
  pool_->wait();
  // Last: the drain above may still publish transitions (drained acquires
  // claiming wins); stopping the hub after the pool keeps those flowing
  // to watchers until the very end, then drops the remainder.
  hub_.stop();
  // After the hub: nothing publishes transitions anymore, so the journal
  // can drain its sink and join the flusher.
  if (journal_) journal_->stop();
}

std::uint64_t service::watch(const std::string& key, watch_hub::callback fn) {
  return hub_.add(key, std::move(fn));
}

void service::unwatch(std::uint64_t id) { hub_.remove(id); }

// ---------------------------------------------------------------------
// Lease sweeper: force-release expired holders on a fixed interval.

std::size_t service::sweep_now() {
  return registry_.sweep_expired(
      std::chrono::steady_clock::now(),
      [this](int shard) { metrics_.record_expiration(shard); });
}

lease_status service::force_release(const std::string& key) {
  return await_gated<lease_status>(
      [&](status_callback done) { force_release(key, std::move(done)); });
}

void service::force_release(const std::string& key, status_callback done) {
  const lease_status status = registry_.force_release(key);
  if (status == lease_status::ok) {
    metrics_.record_forced_release(registry_.shard_of(key));
  }
  gate_lease_op(key, status, std::move(done));
}

void service::render_command(const cmd::command& c) {
  // One source of truth: watch events and journal records are both
  // renderings of the command stream, never parallel bookkeeping.
  switch (c.kind) {
    case cmd::command_kind::acquire_granted:
      hub_.publish(c.key, c.epoch, transition::elected, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::elected, c.key, c.epoch, c.session,
                         "");
      }
      break;
    case cmd::command_kind::released:
      hub_.publish(c.key, c.epoch, transition::released, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::released, c.key, c.epoch,
                         c.session, "");
      }
      break;
    case cmd::command_kind::expired:
      hub_.publish(c.key, c.epoch, transition::expired, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::expired, c.key, c.epoch, c.session,
                         "");
      }
      break;
    case cmd::command_kind::force_released:
      hub_.publish(c.key, c.epoch, transition::force_released, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::force_released, c.key, c.epoch,
                         c.session, "admin");
      }
      break;
    case cmd::command_kind::disconnect_reclaimed:
      // Watchers see a release — the lease ended; *why* it ended is
      // journal detail, where the crash/politeness distinction lives.
      hub_.publish(c.key, c.epoch, transition::released, c.session);
      if (journal_) {
        journal_->append(obs::event_kind::disconnect_reclaim, c.key, c.epoch,
                         c.session, "connection closed");
      }
      break;
    case cmd::command_kind::epoch_bumped:
      // Restore-time fencing: no holder changed hands, so watchers see
      // nothing; the journal records the fence.
      if (journal_) {
        journal_->append(obs::event_kind::epoch_bumped, c.key, c.epoch, -1,
                         "restore");
      }
      break;
    case cmd::command_kind::renewed:
      // Log-only; the registry never publishes renewals.
      break;
  }
}

void service::sweeper_main() {
  const auto interval = sweep_interval(config_);
  std::unique_lock<std::mutex> lock(sweeper_mutex_);
  while (!sweeper_stop_) {
    sweeper_cv_.wait_for(lock, interval, [this] { return sweeper_stop_; });
    if (sweeper_stop_) return;
    // Suspended (cluster follower): keep the thread, skip the sweep —
    // expiry is the primary's decision, replicated as a command.
    if (sweeper_suspended_.load(std::memory_order_relaxed)) continue;
    lock.unlock();
    sweep_now();
    lock.lock();
  }
}

// ---------------------------------------------------------------------
// Commit gating: in cluster mode no mutation is acked before a quorum
// has it. The gate itself lives in the repl layer; the service only
// converts a failed wait into the sever verdict.

void service::set_commit_gate(std::function<bool(const std::string&)> gate) {
  commit_gate_ = [gate = std::move(gate)](const std::string& key,
                                          commit_callback done) {
    done(gate(key));
  };
}

namespace {

/// A won attempt whose grant never committed: the grant applied locally
/// but never reached a quorum, so this primary may not confirm it.
/// Failover reconciles the registry; the caller must treat the lease as
/// never granted.
acquire_result uncommitted(acquire_result result) {
  result.won = false;
  result.fast_path = false;
  result.rejected = true;
  result.connection_lost = true;
  return result;
}

}  // namespace

void service::gate_acquire(acquire_result result, const std::string& key,
                           acquire_callback done) {
  if (!result.won || !commit_gate_) {
    done(result);
    return;
  }
  commit_gate_(key, [result = std::move(result),
                     done = std::move(done)](bool committed) {
    done(committed ? result : uncommitted(result));
  });
}

void service::gate_lease_op(const std::string& key, lease_status status,
                            status_callback done) {
  if (status != lease_status::ok || !commit_gate_) {
    done(status);
    return;
  }
  commit_gate_(key, [done = std::move(done)](bool committed) {
    done(committed ? lease_status::ok : lease_status::connection_lost);
  });
}

void service::gate_multi_release(std::size_t count, count_callback done) {
  if (count == 0 || !commit_gate_) {
    done(count);
    return;
  }
  commit_gate_(std::string(),
               [count, done = std::move(done)](bool) { done(count); });
}

// ---------------------------------------------------------------------
// Job handoff: client thread -> per-node queue -> driver coroutine.

bool service::submit(process_id pid, job& j) {
  worker& w = *workers_[static_cast<std::size_t>(pid)];
  {
    const std::lock_guard<std::mutex> lock(w.mutex);
    // Checked under the queue lock so a submit racing stop() either lands
    // ahead of the shutdown job (and is served) or is turned away — never
    // hangs behind a driver that already returned.
    if (w.draining && !j.shutdown) return false;
    if (j.shutdown) {
      if (w.draining) return false;
      w.draining = true;
    }
    w.queue.push_back(&j);
  }
  pool_->poke(pid);
  return true;
}

void service::pump(worker& w) {
  std::coroutine_handle<> handle;
  {
    const std::lock_guard<std::mutex> lock(w.mutex);
    if (!w.parked || w.queue.empty()) return;
    w.current = w.queue.front();
    w.queue.pop_front();
    handle = std::exchange(w.parked, nullptr);
  }
  handle.resume();  // on the node's own thread, via its idle hook
}

bool service::next_job::await_ready() {
  const std::lock_guard<std::mutex> lock(w.mutex);
  if (w.queue.empty()) return false;
  w.current = w.queue.front();
  w.queue.pop_front();
  return true;
}

bool service::next_job::await_suspend(std::coroutine_handle<> handle) {
  const std::lock_guard<std::mutex> lock(w.mutex);
  if (!w.queue.empty()) {
    // A job arrived between await_ready and here; take it and keep going.
    w.current = w.queue.front();
    w.queue.pop_front();
    return false;
  }
  ELECT_CHECK(!w.parked);
  w.parked = handle;
  return true;
}

service::job* service::next_job::await_resume() {
  ELECT_CHECK(w.current != nullptr);
  return std::exchange(w.current, nullptr);
}

// ---------------------------------------------------------------------
// The driver: one long-lived protocol coroutine per pool node.

void service::prune_participated(worker& w) {
  if (w.participated_prune_at == 0) {
    w.participated_prune_at = config_.participated_prune_threshold;
  }
  if (w.participated.size() < w.participated_prune_at) return;
  for (auto it = w.participated.begin(); it != w.participated.end();) {
    // An entry is only consulted while its instance is the key's current
    // one; after any epoch bump (release, expiry, disconnect) the stored
    // instance can never be handed out again, so the entry is dead
    // weight. Entries still matching the current instance must stay —
    // dropping one would let a second invocation of a live instance
    // through.
    const auto current = registry_.peek(it->first);
    if (!current.has_value() || current->instance.value != it->second) {
      it = w.participated.erase(it);
    } else {
      ++it;
    }
  }
  // Re-arm relative to what survived: entries a pass cannot evict are
  // live instances, and re-scanning them on every acquire would make the
  // pass O(live keys) per operation. Doubling keeps total prune work
  // linear in the number of insertions.
  w.participated_prune_at = std::max(config_.participated_prune_threshold,
                                     2 * w.participated.size());
  w.participated_size.store(w.participated.size(),
                            std::memory_order_relaxed);
}

election::strategy_kind service::strategy_for(const std::string& key) const {
  const auto it = config_.key_strategies.find(key);
  return it != config_.key_strategies.end() ? it->second
                                            : config_.default_strategy;
}

election::strategy& service::protocol_for(
    election::strategy_kind kind) const {
  return *strategies_[static_cast<std::size_t>(kind)];
}

engine::task<std::int64_t> service::driver(engine::node& node, worker& w) {
  for (;;) {
    job* j = co_await next_job{w};
    if (j->shutdown) co_return 0;  // stop() owns it and waits on the pool

    const instance_entry entry = j->entry;
    acquire_result result;
    result.epoch = entry.epoch;
    result.instance = entry.instance;
    // Spans are recorded against the job's trace id explicitly (not via
    // a thread-local scope): the driver suspends across co_await while
    // this node's thread serves other instances' protocol messages.
    if (j->trace != 0) {
      obs::record_for(j->trace, obs::phase::queue_wait,
                      to_trace_ns(j->submitted), obs::now_ns());
    }

    // Gate the distributed path on the registry's grant mode: if the
    // epoch was already granted (fast-claimed while this job queued, or
    // decided by an earlier protocol winner) or moved on entirely, this
    // attempt loses without touching the network. Arming also pins the
    // adaptive fast path off this epoch, so the two grant paths stay
    // mutually exclusive.
    if (!registry_.arm_protocol(j->key, entry.epoch)) {
      metrics_.record_short_circuit_loss();
    } else {
      // TAS is one invocation per processor per instance: if this node
      // already contended in (key, epoch) — a second session bound to the
      // same node — the instance is decided or being decided by the
      // earlier invocation, so this one loses without touching the
      // network.
      const auto [it, fresh_key] =
          w.participated.try_emplace(j->key, entry.instance.value);
      if (fresh_key || it->second != entry.instance.value) {
        it->second = entry.instance.value;
        election::strategy_context ctx;
        ctx.instance = entry.instance;
        ctx.max_rounds = config_.max_rounds;
        // The claim arbiter behind sifter_pill / doorway_only survivors
        // (and the full protocol's winner report): an epoch-fenced CAS
        // in the registry. Runs on this node's thread, synchronously.
        ctx.claim = [this, j, &result] {
          const std::uint64_t t0 = j->trace != 0 ? obs::now_ns() : 0;
          const auto deadline = registry_.claim_win(
              j->key, result.epoch, j->session_id, lease_ttl());
          if (j->trace != 0) {
            obs::record_for(j->trace, obs::phase::lease_grant, t0,
                            obs::now_ns());
          }
          if (!deadline.has_value()) return false;
          result.lease_deadline = *deadline;
          return true;
        };
        const std::uint64_t elect_start =
            j->trace != 0 ? obs::now_ns() : 0;
        const election::tas_result outcome =
            co_await protocol_for(j->kind).elect(node, std::move(ctx));
        if (j->trace != 0) {
          obs::record_for(j->trace, obs::phase::election, elect_start,
                          obs::now_ns());
        }
        result.won = outcome == election::tas_result::win;
      }
    }
    w.participated_size.store(w.participated.size(),
                              std::memory_order_relaxed);
    prune_participated(w);
    result.latency_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - j->submitted)
            .count());
    metrics_.record_acquire(registry_.shard_of(j->key), j->kind, result.won,
                            result.latency_ns);

    // The job is ours to free. The continuation (commit gate, then the
    // caller's callback) runs here on the node thread: it only wakes a
    // blocked caller or enqueues an answer, never blocks.
    const std::unique_ptr<job> owned(j);
    owned->on_done(result);
  }
}

std::unique_ptr<service::job> service::start_attempt(
    int session_id, const std::string& key, acquire_result& decided) {
  const election::strategy_kind kind = strategy_for(key);
  const std::uint64_t trace = obs::current();
  const auto submitted = std::chrono::steady_clock::now();
  const auto to_driver = [&](const instance_entry& entry) {
    auto j = std::make_unique<job>();
    j->key = key;
    j->session_id = session_id;
    j->kind = kind;
    j->entry = entry;
    j->trace = trace;
    j->submitted = submitted;
    return j;
  };
  // A cheap unlocked early-out; the authoritative stop() check is inside
  // submit() (under the worker lock, via draining).
  if (stopped_.load(std::memory_order_relaxed)) {
    decided = rejected_acquire();
    return nullptr;
  }
  // Register the attempt (this is the contention estimate's input) and
  // pin the (instance, epoch) the attempt contends. For `adaptive` the
  // registration is fused with the fast path, on the *client* thread:
  // when no contention is observed — this attempt is the epoch's first
  // and the previous epoch saw at most one acquirer — the epoch is
  // taken with a fenced CAS under the same shard lock and the node pool
  // is skipped entirely. On conflict the epoch is simply lost (epoch
  // fencing makes a double grant impossible); only an armed protocol
  // sends us down the distributed path ourselves.
  if (kind != election::strategy_kind::adaptive) {
    return to_driver(registry_.begin_attempt(key).entry);
  }
  const std::uint64_t fast_start = trace != 0 ? obs::now_ns() : 0;
  const adaptive_attempt attempt =
      registry_.begin_adaptive_attempt(key, session_id, lease_ttl());
  if (trace != 0) {
    obs::record_for(trace, obs::phase::fast_path, fast_start, obs::now_ns());
  }
  const instance_entry& entry = attempt.attempt.entry;
  if (!attempt.fast_attempted) return to_driver(entry);
  const fast_claim_result& fast = attempt.fast;
  if (fast.outcome == fast_claim_outcome::shutdown) {
    decided = rejected_acquire();
    return nullptr;
  }
  if (fast.outcome == fast_claim_outcome::armed) {
    metrics_.record_fast_path_fallback();
    return to_driver(entry);
  }
  decided = acquire_result{};
  decided.epoch = entry.epoch;
  decided.instance = entry.instance;
  decided.won = fast.outcome == fast_claim_outcome::claimed;
  decided.fast_path = decided.won;
  decided.lease_deadline = fast.deadline;
  decided.latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - submitted)
          .count());
  if (decided.won) {
    metrics_.record_fast_path_hit();
  } else {
    metrics_.record_fast_path_conflict();
  }
  metrics_.record_acquire(registry_.shard_of(key), kind, decided.won,
                          decided.latency_ns);
  return nullptr;
}

acquire_result service::run_acquire(int session_id, process_id pid,
                                    const std::string& key) {
  acquire_result decided;
  if (std::unique_ptr<job> j = start_attempt(session_id, key, decided)) {
    const oneshot<acquire_result> elected;
    j->on_done = elected.setter();
    // A refused submit means the drivers are shutting down; fail the
    // acquire softly.
    if (submit(pid, *j)) {
      (void)j.release();  // the driver frees it
      decided = elected.wait();
    } else {
      decided = rejected_acquire();
    }
  }
  return await_gated<acquire_result>([&](acquire_callback done) {
    gate_acquire(std::move(decided), key, std::move(done));
  });
}

void service::run_acquire(int session_id, process_id pid,
                          const std::string& key, acquire_callback done) {
  acquire_result decided;
  std::unique_ptr<job> j = start_attempt(session_id, key, decided);
  if (!j) {
    gate_acquire(std::move(decided), key, std::move(done));
    return;
  }
  j->on_done = [this, key, done = std::move(done)](
                   acquire_result result) mutable {
    gate_acquire(std::move(result), key, std::move(done));
  };
  if (submit(pid, *j)) {
    (void)j.release();  // the driver frees it
    return;
  }
  j->on_done(rejected_acquire());
}

acquire_result service::rejected_acquire() {
  metrics_.record_rejected_acquire();
  acquire_result rejected;
  rejected.rejected = true;
  return rejected;
}

// ---------------------------------------------------------------------
// Session API.

acquire_result service::session::try_acquire(const std::string& key) {
  return owner_->run_acquire(id_, pid_, key);
}

acquire_result service::session::acquire(const std::string& key) {
  for (;;) {
    const acquire_result result = try_acquire(key);
    if (result.won || result.rejected) return result;
    const obs::scoped_span span(obs::phase::epoch_wait);
    owner_->registry_.wait_for_epoch_above(key, result.epoch);
  }
}

acquire_result service::session::try_acquire_for(
    const std::string& key, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    acquire_result result = try_acquire(key);
    if (result.won || result.rejected) return result;
    // Bound only the sleep: an attempt in flight when the deadline hits
    // still runs to completion above. wait returns true on epoch
    // advance *and* on service shutdown — the retry then comes back
    // rejected, so a stopped service never strands a timed waiter.
    const obs::scoped_span span(obs::phase::epoch_wait);
    if (!owner_->registry_.wait_for_epoch_above_until(key, result.epoch,
                                                      deadline)) {
      result.timed_out = true;
      return result;
    }
  }
}

lease_status service::count_lease_op(const std::string& key,
                                     lease_status status, bool renewal,
                                     std::uint64_t epoch) {
  const int shard = registry_.shard_of(key);
  if (status != lease_status::ok) {
    metrics_.record_stale_fence(shard);
    if (journal_) {
      journal_->append(obs::event_kind::stale_fence, key, epoch, -1,
                       renewal ? "renew" : "release");
    }
  } else if (renewal) {
    metrics_.record_renewal(shard);
  } else {
    metrics_.record_release(shard);
  }
  return status;
}

lease_status service::session::release(const std::string& key) {
  return owner_->await_gated<lease_status>(
      [&](status_callback done) { release(key, std::move(done)); });
}

lease_status service::session::release(const std::string& key,
                                       std::uint64_t epoch) {
  return owner_->await_gated<lease_status>(
      [&](status_callback done) { release(key, epoch, std::move(done)); });
}

lease_status service::session::renew(const std::string& key,
                                     std::uint64_t epoch) {
  return owner_->await_gated<lease_status>(
      [&](status_callback done) { renew(key, epoch, std::move(done)); });
}

lease_status service::session::reclaim(const std::string& key,
                                       std::uint64_t epoch) {
  return owner_->await_gated<lease_status>(
      [&](status_callback done) { reclaim(key, epoch, std::move(done)); });
}

std::size_t service::session::disconnect() {
  return owner_->await_gated<std::size_t>(
      [&](count_callback done) { disconnect(std::move(done)); });
}

std::size_t service::session::reclaim_all() {
  return owner_->await_gated<std::size_t>(
      [&](count_callback done) { reclaim_all(std::move(done)); });
}

void service::session::try_acquire(const std::string& key,
                                   acquire_callback done) {
  owner_->run_acquire(id_, pid_, key, std::move(done));
}

void service::session::release(const std::string& key, status_callback done) {
  lease_status status;
  {
    const obs::scoped_span span(obs::phase::lease_op);
    status = owner_->count_lease_op(key, owner_->registry_.release(key, id_),
                                    /*renewal=*/false, 0);
  }
  owner_->gate_lease_op(key, status, std::move(done));
}

void service::session::release(const std::string& key, std::uint64_t epoch,
                               status_callback done) {
  lease_status status;
  {
    const obs::scoped_span span(obs::phase::lease_op);
    status = owner_->count_lease_op(
        key, owner_->registry_.release(key, id_, epoch), /*renewal=*/false,
        epoch);
  }
  owner_->gate_lease_op(key, status, std::move(done));
}

void service::session::renew(const std::string& key, std::uint64_t epoch,
                             status_callback done) {
  lease_status status;
  {
    const obs::scoped_span span(obs::phase::lease_op);
    status = owner_->count_lease_op(
        key, owner_->registry_.renew(key, id_, epoch, owner_->lease_ttl()),
        /*renewal=*/true, epoch);
  }
  owner_->gate_lease_op(key, status, std::move(done));
}

void service::session::reclaim(const std::string& key, std::uint64_t epoch,
                               status_callback done) {
  lease_status status;
  {
    const obs::scoped_span span(obs::phase::lease_op);
    status = owner_->count_lease_op(
        key, owner_->registry_.reclaim(key, id_, epoch), /*renewal=*/false,
        epoch);
  }
  owner_->gate_lease_op(key, status, std::move(done));
}

void service::session::disconnect(count_callback done) {
  owner_->gate_multi_release(
      owner_->registry_.release_all(
          id_, [this](int shard) { owner_->metrics_.record_release(shard); }),
      std::move(done));
}

void service::session::reclaim_all(count_callback done) {
  owner_->gate_multi_release(
      owner_->registry_.reclaim_all(
          id_, [this](int shard) { owner_->metrics_.record_release(shard); }),
      std::move(done));
}

std::vector<std::string> service::session::held_keys() const {
  return owner_->registry_.keys_held_by(id_);
}

// ---------------------------------------------------------------------
// Reporting.

service_report service::report() const {
  service_report report = metrics_.snapshot();
  for (int s = 0; s < registry_.shard_count(); ++s) {
    report.shards[static_cast<std::size_t>(s)].keys =
        registry_.keys_in_shard(s);
  }
  for (const auto& w : workers_) {
    report.participated_entries +=
        w->participated_size.load(std::memory_order_relaxed);
  }
  report.total_messages = pool_->total_messages();
  report.mailbox_pushes = pool_->total_mailbox_pushes();
  report.messages_per_acquire =
      report.acquires == 0
          ? 0.0
          : static_cast<double>(report.total_messages) /
                static_cast<double>(report.acquires);
  const engine::metrics& pool_metrics = pool_->runtime_metrics();
  report.mean_communicate_calls = pool_metrics.mean_communicate_calls();
  report.max_communicate_calls = pool_metrics.max_communicate_calls();
  report.watch = hub_.report();
  if (journal_) report.journal = journal_->report();
  return report;
}

}  // namespace elect::svc
