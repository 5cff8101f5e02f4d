#include "svc/registry.hpp"

#include <algorithm>
#include <functional>

#include "cmd/snapshot.hpp"
#include "common/check.hpp"
#include "common/oneshot.hpp"

namespace elect::svc {

namespace {

/// A grant's TTL on the command stream's logical clock: zero means
/// "never expires" (cmd::lease_forever); sub-millisecond TTLs round up
/// so they cannot collapse to an already-expired lease.
std::uint64_t lease_ms_for(instance_registry::clock::duration ttl) {
  if (ttl == instance_registry::clock::duration::zero()) {
    return cmd::lease_forever;
  }
  const auto ms = std::chrono::ceil<std::chrono::milliseconds>(ttl).count();
  return ms <= 0 ? 1 : static_cast<std::uint64_t>(ms);
}

}  // namespace

std::string_view to_string(transition t) {
  switch (t) {
    case transition::elected: return "elected";
    case transition::released: return "released";
    case transition::expired: return "expired";
    case transition::force_released: return "force_released";
  }
  return "unknown";
}

void instance_registry::set_command_hook(const std::atomic<bool>& armed,
                                         command_hook hook) {
  hook_armed_ = &armed;
  hook_ = std::move(hook);
}

void instance_registry::enable_command_log() {
  recording_.store(true, std::memory_order_relaxed);
}

instance_registry::instance_registry(int shard_count,
                                     std::uint64_t first_instance)
    : next_instance_(first_instance), base_(clock::now()) {
  ELECT_CHECK(shard_count >= 1);
  ELECT_CHECK_MSG(first_instance < instance_id_limit,
                  "first_instance starts past the election-id guard");
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (int i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<shard>());
  }
}

int instance_registry::shard_of(const std::string& key) const {
  return static_cast<int>(std::hash<std::string>{}(key) % shards_.size());
}

instance_registry::shard& instance_registry::shard_for(
    const std::string& key) {
  return *shards_[static_cast<std::size_t>(shard_of(key))];
}

std::uint64_t instance_registry::logical_now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(clock::now() -
                                                            base_)
          .count());
}

election::election_id instance_registry::allocate_instance() {
  const std::uint64_t id = next_instance_.fetch_add(1);
  // Fail fast with headroom: aborting here, 64K ids short of the uint32
  // var_id namespace, is a clean "restart the service" signal; wrapping
  // would silently alias long-decided instances' replicated variables.
  ELECT_CHECK_MSG(id < instance_id_limit,
                  "election-id space exhausted (~4e9 instances served) — "
                  "var_id.instance would alias; restart the service");
  return election::election_id{static_cast<std::uint32_t>(id)};
}

std::uint64_t instance_registry::remaining_instance_ids() const noexcept {
  const std::uint64_t next = next_instance_.load(std::memory_order_relaxed);
  return next >= instance_id_limit ? 0 : instance_id_limit - next;
}

instance_registry::key_state& instance_registry::state_locked(
    shard& s, const std::string& key) {
  auto [it, inserted] = s.keys.try_emplace(key);
  if (inserted) {
    it->second.entry.instance = allocate_instance();
    it->second.entry.epoch = 0;
  }
  return it->second;
}

void instance_registry::bump_epoch_locked(key_state& state) {
  state.leader = -1;
  state.lease_deadline = clock::time_point::max();
  state.logical_deadline_ms = cmd::lease_forever;
  state.entry.epoch++;
  state.entry.instance = allocate_instance();
  state.mode = grant_mode::open;
  state.last_epoch_attempts = state.attempts_this_epoch;
  state.attempts_this_epoch = 0;
}

void instance_registry::set_lease_locked(key_state& state,
                                         const cmd::command& c) {
  // The >= guard keeps a pathological near-forever TTL from wrapping the
  // logical deadline back into the past.
  if (c.lease_ms == cmd::lease_forever ||
      c.lease_ms >= cmd::lease_forever - c.at_ms) {
    state.logical_deadline_ms = cmd::lease_forever;
    state.lease_deadline = clock::time_point::max();
    return;
  }
  state.logical_deadline_ms = c.at_ms + c.lease_ms;
  state.lease_deadline =
      base_ + std::chrono::milliseconds(state.logical_deadline_ms);
}

void instance_registry::apply_command_locked(shard& s, key_state& state,
                                             cmd::command& c,
                                             bool from_replay) {
  // The executor half of the funnel: everything below is a pure function
  // of (state, command) — no clock reads, no id ordering — which is what
  // replay determinism rests on. Decisions were made by the caller.
  switch (c.kind) {
    case cmd::command_kind::acquire_granted:
      state.leader = c.session;
      state.mode = c.mode == cmd::grant_mode_fast_claimed
                       ? grant_mode::fast_claimed
                       : grant_mode::protocol_armed;
      set_lease_locked(state, c);
      break;
    case cmd::command_kind::renewed:
      set_lease_locked(state, c);
      break;
    case cmd::command_kind::released:
    case cmd::command_kind::expired:
    case cmd::command_kind::force_released:
    case cmd::command_kind::disconnect_reclaimed:
      bump_epoch_locked(state);
      break;
    case cmd::command_kind::epoch_bumped:
      // A bump ends every epoch <= c.epoch, not just the current one:
      // restore-time fencing records c.epoch = restored + (bump - 1) so
      // the key lands at c.epoch + 1, clear of anything a crash gap
      // could have granted. The ordinary emit sites use c.epoch ==
      // current, which makes this the same +1 it always was.
      state.entry.epoch = c.epoch;
      bump_epoch_locked(state);
      break;
  }
  s.last_at_ms = c.at_ms;
  if (from_replay) {
    // Replayed commands keep their recorded seq; advancing the watermark
    // (instead of re-appending) is what makes a post-replay snapshot
    // byte-identical to the recorder's.
    if (c.seq != 0) {
      s.last_seq = c.seq;
      if (s.next_seq <= c.seq) s.next_seq = c.seq + 1;
    }
  } else if (recording_.load(std::memory_order_relaxed)) {
    c.seq = s.next_seq++;
    s.last_seq = c.seq;
    s.log.push_back(c);
  }
}

instance_entry instance_registry::current(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  return state_locked(s, key).entry;
}

attempt_info instance_registry::begin_attempt(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  key_state& state = state_locked(s, key);
  state.attempts_this_epoch++;
  return attempt_info{state.entry, state.attempts_this_epoch,
                      state.last_epoch_attempts};
}

std::optional<instance_entry> instance_registry::peek(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end()) return std::nullopt;
  return it->second.entry;
}

adaptive_attempt instance_registry::begin_adaptive_attempt(
    const std::string& key, int session, clock::duration ttl) {
  const int shard_index = shard_of(key);
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  adaptive_attempt result;
  // Stack command, empty key: assembling it allocates nothing until a
  // consumer (recording or an armed hook) asks for the key string — the
  // zero-subscriber fast path stays allocation-free.
  cmd::command c;
  bool publish = false;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    key_state& state = state_locked(s, key);
    state.attempts_this_epoch++;

    result.attempt = attempt_info{state.entry, state.attempts_this_epoch,
                                  state.last_epoch_attempts};
    // Contention observed (a rival already attempted this epoch, or the
    // previous epoch was contended): no CAS, the caller runs the
    // protocol.
    if (state.attempts_this_epoch != 1 || state.last_epoch_attempts > 1) {
      return result;
    }
    result.fast_attempted = true;
    // The protocol path's stop() gate lives in service::submit(); the
    // fast path never submits, so it must refuse here. shutdown() stores
    // the flag before briefly taking every shard mutex, so once it has
    // returned, any later fast claim (which holds this shard's mutex)
    // observes the flag — a completed stop() can never be followed by a
    // fast-path grant.
    if (shutdown_.load(std::memory_order_relaxed)) {
      result.fast = {fast_claim_outcome::shutdown, {}};
      return result;
    }
    if (state.mode == grant_mode::protocol_armed) {
      // An election is (or was) running for this epoch: the fast path
      // must stay off it — the protocol's winner owns the grant.
      result.fast = {fast_claim_outcome::armed, {}};
      return result;
    }
    if (state.leader != -1) {
      result.fast = {fast_claim_outcome::held, {}};
      return result;
    }
    // Decision made — the CAS wins. Emit the grant as a command and let
    // the funnel execute it.
    c.shard = shard_index;
    c.kind = cmd::command_kind::acquire_granted;
    c.session = session;
    c.epoch = state.entry.epoch;
    c.mode = cmd::grant_mode_fast_claimed;
    c.at_ms = logical_now_ms();
    c.lease_ms = lease_ms_for(ttl);
    publish = hook_live();
    if (publish || recording_.load(std::memory_order_relaxed)) c.key = key;
    apply_command_locked(s, state, c, /*from_replay=*/false);
    result.fast = {fast_claim_outcome::claimed, state.lease_deadline};
  }
  // Grants publish like any other mutation, outside the shard lock.
  if (publish) hook_(c);
  return result;
}

bool instance_registry::arm_protocol(const std::string& key,
                                     std::uint64_t epoch) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end() || it->second.entry.epoch != epoch) return false;
  key_state& state = it->second;
  // A granted epoch — fast-claimed, or already decided by a protocol
  // winner — turns arriving acquirers away: they lose without running
  // the protocol (the short-circuit the metrics count). Concurrent
  // participants of a still-undecided election all arm the same epoch
  // (idempotent) and contend in one instance.
  //
  // Arming is an observation latch, not a command: it grants nothing.
  // If nobody ever claims the armed epoch, replay (which sees no
  // command) leaves the key open — snapshots normalize an unheld key's
  // mode to open for exactly this reason.
  if (state.leader != -1) return false;
  state.mode = grant_mode::protocol_armed;
  return true;
}

std::optional<instance_registry::clock::time_point>
instance_registry::claim_win(const std::string& key, std::uint64_t epoch,
                             int session, clock::duration ttl) {
  const int shard_index = shard_of(key);
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  clock::time_point deadline;
  cmd::command c;
  bool publish = false;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.keys.find(key);
    if (it == s.keys.end() || it->second.entry.epoch != epoch) {
      return std::nullopt;
    }
    key_state& state = it->second;
    ELECT_CHECK_MSG(state.mode != grant_mode::fast_claimed,
                    "protocol claim on a fast-claimed epoch — the fencing "
                    "that keeps the two grant paths apart is broken");
    if (state.leader != -1) return std::nullopt;
    c.shard = shard_index;
    c.kind = cmd::command_kind::acquire_granted;
    c.session = session;
    c.epoch = epoch;
    c.mode = cmd::grant_mode_protocol;
    c.at_ms = logical_now_ms();
    c.lease_ms = lease_ms_for(ttl);
    publish = hook_live();
    if (publish || recording_.load(std::memory_order_relaxed)) c.key = key;
    apply_command_locked(s, state, c, /*from_replay=*/false);
    deadline = state.lease_deadline;
  }
  if (publish) hook_(c);
  return deadline;
}

int instance_registry::leader_of(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  return state_locked(s, key).leader;
}

std::optional<instance_registry::clock::time_point>
instance_registry::lease_deadline_of(const std::string& key) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end() || it->second.leader == -1) return std::nullopt;
  return it->second.lease_deadline;
}

std::optional<cmd::command> instance_registry::fence_after_end_locked(
    shard& s, key_state& state, const std::string& key,
    std::int32_t shard_index, std::uint64_t at_ms) {
  if (state.pending_fence == 0) return std::nullopt;
  // The ended epoch's bump just ran: the key sits at E+1 unheld. The
  // deposed primary's uncommitted tail could have journaled grants a
  // few epochs past E; jumping to E+pending_fence+1 clears them the
  // same way restore-time fencing clears a crash gap.
  cmd::command c;
  c.shard = shard_index;
  c.kind = cmd::command_kind::epoch_bumped;
  c.session = -1;
  c.epoch = state.entry.epoch + (state.pending_fence - 1);
  c.at_ms = at_ms;
  state.pending_fence = 0;
  const bool publish = hook_live();
  if (publish || recording_.load(std::memory_order_relaxed)) c.key = key;
  apply_command_locked(s, state, c, /*from_replay=*/false);
  if (!publish) return std::nullopt;
  return c;
}

lease_status instance_registry::end_epoch_fenced(const std::string& key,
                                                 int session,
                                                 std::uint64_t epoch,
                                                 cmd::command_kind kind) {
  const int shard_index = shard_of(key);
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  cmd::command c;
  bool publish = false;
  std::optional<cmd::command> fenced;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.keys.find(key);
    if (it == s.keys.end()) {
      // A never-acquired key sits at epoch 0 implicitly: presenting
      // epoch 0 is *current* but holds nothing (not_leader), anything
      // higher is genuinely stale. Keeps the fenced verdicts meaning
      // one thing on every path: stale_epoch <=> the epoch moved on.
      return epoch == 0 ? lease_status::not_leader
                        : lease_status::stale_epoch;
    }
    if (it->second.entry.epoch != epoch) return lease_status::stale_epoch;
    if (it->second.leader != session) return lease_status::not_leader;
    c.shard = shard_index;
    c.kind = kind;
    c.session = session;
    c.epoch = epoch;
    c.at_ms = logical_now_ms();
    publish = hook_live();
    if (publish || recording_.load(std::memory_order_relaxed)) c.key = key;
    apply_command_locked(s, it->second, c, /*from_replay=*/false);
    fenced = fence_after_end_locked(s, it->second, key, shard_index, c.at_ms);
  }
  wake_parked(s, &key);
  if (publish) hook_(c);
  if (fenced.has_value()) hook_(*fenced);
  return lease_status::ok;
}

lease_status instance_registry::release(const std::string& key, int session,
                                        std::uint64_t epoch) {
  return end_epoch_fenced(key, session, epoch, cmd::command_kind::released);
}

lease_status instance_registry::reclaim(const std::string& key, int session,
                                        std::uint64_t epoch) {
  return end_epoch_fenced(key, session, epoch,
                          cmd::command_kind::disconnect_reclaimed);
}

lease_status instance_registry::release(const std::string& key, int session) {
  const int shard_index = shard_of(key);
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  cmd::command c;
  bool publish = false;
  std::optional<cmd::command> fenced;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.keys.find(key);
    if (it == s.keys.end() || it->second.leader != session) {
      return lease_status::not_leader;
    }
    c.shard = shard_index;
    c.kind = cmd::command_kind::released;
    c.session = session;
    c.epoch = it->second.entry.epoch;
    c.at_ms = logical_now_ms();
    publish = hook_live();
    if (publish || recording_.load(std::memory_order_relaxed)) c.key = key;
    apply_command_locked(s, it->second, c, /*from_replay=*/false);
    fenced = fence_after_end_locked(s, it->second, key, shard_index, c.at_ms);
  }
  wake_parked(s, &key);
  if (publish) hook_(c);
  if (fenced.has_value()) hook_(*fenced);
  return lease_status::ok;
}

lease_status instance_registry::renew(const std::string& key, int session,
                                      std::uint64_t epoch,
                                      clock::duration ttl) {
  const int shard_index = shard_of(key);
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end()) {
    // Same implicit-epoch-0 rule as the fenced release above.
    return epoch == 0 ? lease_status::not_leader : lease_status::stale_epoch;
  }
  if (it->second.entry.epoch != epoch) return lease_status::stale_epoch;
  if (it->second.leader != session) return lease_status::not_leader;
  // Renewals move no leadership: logged for replay (the deadline is
  // state), but not published through the hook.
  cmd::command c;
  c.shard = shard_index;
  c.kind = cmd::command_kind::renewed;
  c.session = session;
  c.epoch = epoch;
  c.at_ms = logical_now_ms();
  c.lease_ms = lease_ms_for(ttl);
  if (recording_.load(std::memory_order_relaxed)) c.key = key;
  apply_command_locked(s, it->second, c, /*from_replay=*/false);
  return lease_status::ok;
}

std::size_t instance_registry::bump_matching(
    const std::function<bool(const key_state&)>& predicate,
    const std::function<void(int)>& on_bumped, cmd::command_kind kind) {
  std::size_t bumped = 0;
  /// Commands emitted this shard — executed under the shard lock,
  /// published after it.
  std::vector<cmd::command> events;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard& s = *shards_[i];
    // Sampled once per shard: a watcher subscribing mid-scan may miss
    // this sweep's transitions, which the delivery bound tolerates (its
    // clock starts at subscription).
    const bool publish = hook_live();
    const bool record = recording_.load(std::memory_order_relaxed);
    std::size_t bumped_here = 0;
    {
      const std::lock_guard<std::mutex> lock(s.mutex);
      const std::uint64_t at = logical_now_ms();
      for (auto& [key, state] : s.keys) {
        if (!predicate(state)) continue;
        cmd::command c;
        c.shard = static_cast<std::int32_t>(i);
        c.kind = kind;
        c.session = state.leader;
        c.epoch = state.entry.epoch;
        c.at_ms = at;
        if (publish || record) c.key = key;
        apply_command_locked(s, state, c, /*from_replay=*/false);
        if (publish) events.push_back(std::move(c));
        if (auto fenced = fence_after_end_locked(
                s, state, key, static_cast<std::int32_t>(i), at)) {
          events.push_back(std::move(*fenced));
        }
        ++bumped_here;
      }
    }
    if (bumped_here == 0) continue;
    wake_parked(s, nullptr);
    bumped += bumped_here;
    if (on_bumped) {
      for (std::size_t k = 0; k < bumped_here; ++k) {
        on_bumped(static_cast<int>(i));
      }
    }
    for (const cmd::command& c : events) hook_(c);
    events.clear();
  }
  return bumped;
}

std::size_t instance_registry::release_all(
    int session, const std::function<void(int)>& on_released) {
  // A graceful disconnect is a voluntary release from the watch layer's
  // point of view; the network edge's *crash* reclaim goes through
  // reclaim_all instead so the stream can tell the two apart.
  return bump_matching(
      [session](const key_state& state) { return state.leader == session; },
      on_released, cmd::command_kind::released);
}

std::size_t instance_registry::reclaim_all(
    int session, const std::function<void(int)>& on_reclaimed) {
  return bump_matching(
      [session](const key_state& state) { return state.leader == session; },
      on_reclaimed, cmd::command_kind::disconnect_reclaimed);
}

namespace {

std::string_view grant_mode_name(int raw) {
  switch (raw) {
    case 0: return "open";
    case 1: return "fast_claimed";
    case 2: return "protocol_armed";
  }
  return "unknown";
}

}  // namespace

std::vector<key_inspection> instance_registry::list_keys() const {
  std::vector<key_inspection> out;
  for (const auto& shard_ptr : shards_) {
    const std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    for (const auto& [key, state] : shard_ptr->keys) {
      key_inspection info;
      info.key = key;
      info.entry = state.entry;
      info.leader = state.leader;
      info.lease_deadline = state.lease_deadline;
      info.mode = grant_mode_name(static_cast<int>(state.mode));
      info.attempts_this_epoch = state.attempts_this_epoch;
      info.last_epoch_attempts = state.last_epoch_attempts;
      out.push_back(std::move(info));
    }
  }
  return out;
}

std::optional<key_inspection> instance_registry::inspect(
    const std::string& key) const {
  const shard& s =
      *shards_[static_cast<std::size_t>(shard_of(key))];
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.keys.find(key);
  if (it == s.keys.end()) return std::nullopt;
  key_inspection info;
  info.key = key;
  info.entry = it->second.entry;
  info.leader = it->second.leader;
  info.lease_deadline = it->second.lease_deadline;
  info.mode = grant_mode_name(static_cast<int>(it->second.mode));
  info.attempts_this_epoch = it->second.attempts_this_epoch;
  info.last_epoch_attempts = it->second.last_epoch_attempts;
  return info;
}

lease_status instance_registry::force_release(const std::string& key) {
  const int shard_index = shard_of(key);
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  cmd::command c;
  bool publish = false;
  std::optional<cmd::command> fenced;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.keys.find(key);
    if (it == s.keys.end() || it->second.leader == -1) {
      return lease_status::not_leader;
    }
    c.shard = shard_index;
    c.kind = cmd::command_kind::force_released;
    c.session = it->second.leader;
    c.epoch = it->second.entry.epoch;
    c.at_ms = logical_now_ms();
    publish = hook_live();
    if (publish || recording_.load(std::memory_order_relaxed)) c.key = key;
    apply_command_locked(s, it->second, c, /*from_replay=*/false);
    fenced = fence_after_end_locked(s, it->second, key, shard_index, c.at_ms);
  }
  wake_parked(s, &key);
  if (publish) hook_(c);
  if (fenced.has_value()) hook_(*fenced);
  return lease_status::ok;
}

std::vector<std::string> instance_registry::keys_held_by(int session) const {
  std::vector<std::string> held;
  for (const auto& shard_ptr : shards_) {
    const std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    for (const auto& [key, state] : shard_ptr->keys) {
      if (state.leader == session) held.push_back(key);
    }
  }
  return held;
}

std::size_t instance_registry::sweep_expired(
    clock::time_point now, const std::function<void(int)>& on_expired) {
  return bump_matching(
      [now](const key_state& state) {
        return state.leader != -1 && state.lease_deadline <= now;
      },
      on_expired, cmd::command_kind::expired);
}

std::vector<cmd::command> instance_registry::collect_commands() const {
  std::vector<cmd::command> out;
  for (const auto& shard_ptr : shards_) {
    const std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    out.insert(out.end(), shard_ptr->log.begin(), shard_ptr->log.end());
  }
  return out;
}

std::vector<cmd::command> instance_registry::collect_commands_after(
    const std::vector<std::uint64_t>& floors) const {
  ELECT_CHECK_MSG(floors.size() == shards_.size(),
                  "collect_commands_after: one floor per shard");
  std::vector<cmd::command> out;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const shard& s = *shards_[i];
    const std::uint64_t floor = floors[i];
    const std::lock_guard<std::mutex> lock(s.mutex);
    // The retained log is in seq order (append order); skip the shipped
    // prefix with a binary search instead of rescanning it every drain.
    const auto first = std::lower_bound(
        s.log.begin(), s.log.end(), floor,
        [](const cmd::command& c, std::uint64_t f) { return c.seq <= f; });
    out.insert(out.end(), first, s.log.end());
  }
  return out;
}

std::uint64_t instance_registry::shard_last_seq(int shard_index) const {
  ELECT_CHECK(shard_index >= 0 &&
              shard_index < static_cast<int>(shards_.size()));
  const shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.last_seq;
}

cmd::log_stats instance_registry::log_stats() const {
  cmd::log_stats stats;
  stats.recording = recording_.load(std::memory_order_relaxed);
  for (const auto& shard_ptr : shards_) {
    const std::lock_guard<std::mutex> lock(shard_ptr->mutex);
    stats.recorded += shard_ptr->next_seq - 1;
    stats.retained += shard_ptr->log.size();
  }
  return stats;
}

std::optional<std::string> instance_registry::apply(const cmd::command& c) {
  const int shard_index = shard_of(c.key);
  if (c.shard >= 0 && c.shard != shard_index) {
    return "command seq " + std::to_string(c.seq) + " was recorded for shard " +
           std::to_string(c.shard) + " but key '" + c.key +
           "' maps to shard " + std::to_string(shard_index) +
           " here — replaying into a registry with a different shard count?";
  }
  shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  cmd::command local = c;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (local.seq != 0 && s.last_seq != 0 && local.seq != s.last_seq + 1) {
      return "sequence gap in shard " + std::to_string(shard_index) +
             ": expected seq " + std::to_string(s.last_seq + 1) + ", got " +
             std::to_string(local.seq);
    }
    key_state& state = state_locked(s, local.key);
    const auto epoch_mismatch = [&]() -> std::string {
      return std::string(cmd::to_string(local.kind)) + " for '" + local.key +
             "' claims epoch " + std::to_string(local.epoch) +
             " but the key is at epoch " +
             std::to_string(state.entry.epoch) +
             " — corrupt or mis-ordered stream";
    };
    switch (local.kind) {
      case cmd::command_kind::acquire_granted:
        if (state.entry.epoch != local.epoch) return epoch_mismatch();
        if (state.leader != -1) {
          return "acquire_granted for '" + local.key + "' epoch " +
                 std::to_string(local.epoch) +
                 " but the epoch is already held by session " +
                 std::to_string(state.leader);
        }
        break;
      case cmd::command_kind::renewed:
      case cmd::command_kind::released:
      case cmd::command_kind::expired:
      case cmd::command_kind::force_released:
      case cmd::command_kind::disconnect_reclaimed:
        if (state.entry.epoch != local.epoch) return epoch_mismatch();
        if (state.leader != local.session) {
          return std::string(cmd::to_string(local.kind)) + " for '" +
                 local.key + "' names holder " +
                 std::to_string(local.session) + " but the holder is " +
                 std::to_string(state.leader);
        }
        break;
      case cmd::command_kind::epoch_bumped:
        // Forward jumps are legal (restore fencing records the highest
        // epoch the bump ends, which may exceed the current one); only
        // a bump that would move the epoch backwards is corruption.
        if (local.epoch < state.entry.epoch) return epoch_mismatch();
        break;
    }
    apply_command_locked(s, state, local, /*from_replay=*/true);
  }
  wake_parked(s, &c.key);
  return std::nullopt;
}

std::optional<std::string> instance_registry::replay(
    const std::vector<cmd::command>& log) {
  for (const cmd::command& c : log) {
    if (auto error = apply(c)) return error;
  }
  return std::nullopt;
}

std::vector<std::uint8_t> instance_registry::snapshot(bool trim_log) {
  cmd::snapshot_data data;
  data.shards.resize(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard& s = *shards_[i];
    cmd::snapshot_shard& out = data.shards[i];
    const std::lock_guard<std::mutex> lock(s.mutex);
    out.last_seq = s.last_seq;
    out.last_at_ms = s.last_at_ms;
    for (const auto& [key, state] : s.keys) {
      // Epoch 0, unheld == the implicit default for a key nobody ever
      // touched: indistinguishable from absent, so not state.
      if (state.entry.epoch == 0 && state.leader == -1) continue;
      cmd::snapshot_key k;
      k.key = key;
      k.epoch = state.entry.epoch;
      k.leader = state.leader;
      // Unheld modes normalize to open: an armed-but-never-claimed
      // election emitted no command, so replay cannot know about it.
      k.mode = state.leader == -1 ? cmd::grant_mode_open
                                  : static_cast<std::uint8_t>(state.mode);
      k.lease_rel_ms =
          (state.leader == -1 ||
           state.logical_deadline_ms == cmd::lease_forever)
              ? cmd::lease_rel_none
              : static_cast<std::int64_t>(state.logical_deadline_ms) -
                    static_cast<std::int64_t>(s.last_at_ms);
      out.keys.push_back(std::move(k));
    }
    std::sort(out.keys.begin(), out.keys.end(),
              [](const cmd::snapshot_key& a, const cmd::snapshot_key& b) {
                return a.key < b.key;
              });
    if (trim_log) {
      // The snapshot covers everything up to last_seq — which is every
      // retained entry — so the log's job is done; drop it.
      s.log.clear();
      s.log.shrink_to_fit();
    }
  }
  return cmd::encode_snapshot(data);
}

std::optional<std::string> instance_registry::restore(
    const std::vector<std::uint8_t>& bytes, bool fence_restored,
    std::uint64_t fence_bump) {
  if (fence_restored && fence_bump == 0) {
    return "fence_bump must be >= 1 when fencing restored epochs";
  }
  auto decoded = cmd::decode_snapshot(bytes);
  if (!decoded.data.has_value()) return decoded.error;
  cmd::snapshot_data& data = *decoded.data;
  if (data.shards.size() != shards_.size()) {
    return "snapshot has " + std::to_string(data.shards.size()) +
           " shards but this registry has " + std::to_string(shards_.size());
  }
  if (key_count() != 0) {
    return "restore requires an empty registry";
  }
  const std::uint64_t logical = logical_now_ms();
  const clock::time_point now = clock::now();
  /// Fence bumps, published after all shard locks are released.
  std::vector<cmd::command> fenced;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard& s = *shards_[i];
    const cmd::snapshot_shard& in = data.shards[i];
    const bool publish = hook_live();
    const bool record = recording_.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.last_seq = in.last_seq;
    s.next_seq = in.last_seq + 1;
    s.last_at_ms = logical;
    for (const cmd::snapshot_key& k : in.keys) {
      if (shard_of(k.key) != static_cast<int>(i)) {
        return "snapshot key '" + k.key + "' does not map to shard " +
               std::to_string(i) + " — corrupt snapshot or hash mismatch";
      }
      key_state& state = state_locked(s, k.key);
      state.entry.epoch = k.epoch;
      state.leader = k.leader;
      state.mode = static_cast<grant_mode>(k.mode);
      if (k.leader == -1 || k.lease_rel_ms == cmd::lease_rel_none) {
        state.logical_deadline_ms = cmd::lease_forever;
        state.lease_deadline = clock::time_point::max();
      } else {
        // Re-anchor the remaining TTL (possibly negative: past due and
        // unswept at snapshot time — the first sweep here expires it)
        // to this registry's clock.
        const std::int64_t deadline =
            static_cast<std::int64_t>(logical) + k.lease_rel_ms;
        state.logical_deadline_ms =
            deadline < 0 ? 0 : static_cast<std::uint64_t>(deadline);
        state.lease_deadline =
            now + std::chrono::milliseconds(k.lease_rel_ms);
      }
      if (fence_restored) {
        // Bump every restored key: a pre-snapshot leaseholder may have
        // lost its lease in the gap the snapshot cannot see, so it must
        // not be resurrected — its first fenced op answers stale_epoch
        // and it re-acquires like everyone else. The bump ends epochs
        // up to restored + (fence_bump - 1), jumping clear of grants
        // the crash gap may have issued past the snapshot.
        cmd::command c;
        c.shard = static_cast<std::int32_t>(i);
        c.kind = cmd::command_kind::epoch_bumped;
        c.session = -1;
        c.epoch = state.entry.epoch + (fence_bump - 1);
        c.at_ms = logical;
        if (publish || record) c.key = k.key;
        apply_command_locked(s, state, c, /*from_replay=*/false);
        if (publish) fenced.push_back(std::move(c));
      }
    }
  }
  if (fence_restored) {
    for (auto& shard_ptr : shards_) wake_parked(*shard_ptr, nullptr);
    for (const cmd::command& c : fenced) hook_(c);
  }
  return std::nullopt;
}

std::optional<std::string> instance_registry::install_snapshot(
    const std::vector<std::uint8_t>& bytes) {
  // The snapshot replaces local state wholesale: a diverged follower
  // (applied entries its new primary never committed) or a lagging one
  // (its primary compacted the suffix it was missing) converges by
  // adoption, not by reconciliation.
  for (auto& shard_ptr : shards_) {
    shard& s = *shard_ptr;
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.keys.clear();
    s.log.clear();
    s.log.shrink_to_fit();
    s.next_seq = 1;
    s.last_seq = 0;
    s.last_at_ms = 0;
  }
  const auto error = restore(bytes, /*fence_restored=*/false);
  // Waiters re-evaluate against the installed (or cleared) state; the
  // wait predicate re-probes the key map on every wakeup, so the clear
  // above cannot leave one holding a dangling reference.
  for (auto& shard_ptr : shards_) wake_parked(*shard_ptr, nullptr);
  return error;
}

std::size_t instance_registry::fence_all(std::uint64_t bump) {
  ELECT_CHECK_MSG(bump >= 1, "fence_all: bump must be >= 1");
  std::size_t fenced = 0;
  std::vector<cmd::command> events;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard& s = *shards_[i];
    const bool publish = hook_live();
    const bool record = recording_.load(std::memory_order_relaxed);
    std::size_t fenced_here = 0;
    {
      const std::lock_guard<std::mutex> lock(s.mutex);
      const std::uint64_t at = logical_now_ms();
      for (auto& [key, state] : s.keys) {
        if (state.leader != -1) {
          // A committed lease survives the failover under its epoch —
          // the holder's fenced ops keep answering ok. The bump lands
          // when this epoch ends (fence_after_end_locked), so the next
          // grant still jumps clear of the deposed primary's tail.
          state.pending_fence = std::max(state.pending_fence, bump);
          ++fenced_here;
          continue;
        }
        // Unheld (epoch 0 included — first grants are epoch 0): jump
        // now. Ends epochs <= current + (bump - 1), same arithmetic as
        // restore-time fencing.
        cmd::command c;
        c.shard = static_cast<std::int32_t>(i);
        c.kind = cmd::command_kind::epoch_bumped;
        c.session = -1;
        c.epoch = state.entry.epoch + (bump - 1);
        c.at_ms = at;
        if (publish || record) c.key = key;
        apply_command_locked(s, state, c, /*from_replay=*/false);
        if (publish) events.push_back(std::move(c));
        ++fenced_here;
      }
    }
    if (fenced_here == 0) continue;
    wake_parked(s, nullptr);
    fenced += fenced_here;
    for (const cmd::command& c : events) hook_(c);
    events.clear();
  }
  return fenced;
}

std::uint64_t instance_registry::park_until_epoch_above(
    const std::string& key, std::uint64_t epoch, epoch_callback fn) {
  shard& s = shard_for(key);
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    // shutdown() stores its flag before taking each shard lock to collect
    // parked continuations, so a park either lands in the map before that
    // collection or sees the flag here — never stranded past stop().
    const auto probe = s.keys.find(key);
    const bool ready =
        shutdown_.load(std::memory_order_relaxed) ||
        (probe != s.keys.end() && probe->second.entry.epoch > epoch);
    if (!ready) {
      const std::uint64_t id =
          next_park_id_.fetch_add(1, std::memory_order_relaxed);
      s.parked[key].push_back(parked_waiter{id, epoch, std::move(fn)});
      s.parked_count.fetch_add(1, std::memory_order_relaxed);
      return id;
    }
  }
  fn();
  return 0;
}

bool instance_registry::cancel_park(const std::string& key, std::uint64_t id) {
  shard& s = shard_for(key);
  const std::lock_guard<std::mutex> lock(s.mutex);
  const auto it = s.parked.find(key);
  if (it == s.parked.end()) return false;
  auto& waiters = it->second;
  const auto w = std::find_if(waiters.begin(), waiters.end(),
                              [id](const parked_waiter& p) { return p.id == id; });
  if (w == waiters.end()) return false;
  waiters.erase(w);
  if (waiters.empty()) s.parked.erase(it);
  s.parked_count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void instance_registry::wake_parked(shard& s, const std::string* key,
                                    bool all) {
  // The count is only a shortcut for epoch moves: the mover changed the
  // epoch under the lock, so a park it misses here sees the new epoch.
  // A shutdown or kick changes no epoch and must take the lock.
  if (!all && s.parked_count.load(std::memory_order_relaxed) == 0) return;
  std::vector<epoch_callback> ready;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    all = all || shutdown_.load(std::memory_order_relaxed);
    // Move out every continuation of one key whose condition holds. The
    // key map is re-probed here, never cached: install_snapshot() clears
    // and repopulates it under this same lock.
    const auto take = [&](const std::string& k,
                          std::vector<parked_waiter>& waiters) {
      const auto probe = s.keys.find(k);
      const std::uint64_t now_epoch =
          probe == s.keys.end() ? 0 : probe->second.entry.epoch;
      const auto keep = std::partition(
          waiters.begin(), waiters.end(), [&](const parked_waiter& w) {
            return !all && (probe == s.keys.end() || now_epoch <= w.epoch);
          });
      for (auto it = keep; it != waiters.end(); ++it) {
        ready.push_back(std::move(it->fn));
      }
      waiters.erase(keep, waiters.end());
    };
    if (key != nullptr) {
      const auto it = s.parked.find(*key);
      if (it != s.parked.end()) {
        take(it->first, it->second);
        if (it->second.empty()) s.parked.erase(it);
      }
    } else {
      for (auto it = s.parked.begin(); it != s.parked.end();) {
        take(it->first, it->second);
        it = it->second.empty() ? s.parked.erase(it) : std::next(it);
      }
    }
    s.parked_count.fetch_sub(ready.size(), std::memory_order_relaxed);
  }
  for (auto& fn : ready) fn();
}

void instance_registry::wake_all_parked() {
  for (auto& shard_ptr : shards_) wake_parked(*shard_ptr, nullptr, true);
}

bool instance_registry::wait_for_epoch_above_impl(
    const std::string& key, std::uint64_t epoch,
    const clock::time_point* deadline) {
  // A thin wrapper over the continuation.
  const oneshot<bool> fired;
  const std::uint64_t id =
      park_until_epoch_above(key, epoch, [set = fired.setter()] { set(true); });
  if (id == 0) return true;
  // Not wait_until(time_point::max()) for the untimed path: libstdc++
  // implements non-system-clock waits via a now()-relative delta, which
  // overflows on max().
  if (deadline == nullptr) return fired.wait();
  if (fired.wait_until(*deadline).has_value()) return true;
  // Timed out — unless the continuation was taken for firing meanwhile,
  // in which case the wakeup counts.
  return !cancel_park(key, id);
}

void instance_registry::wait_for_epoch_above(const std::string& key,
                                             std::uint64_t epoch) {
  (void)wait_for_epoch_above_impl(key, epoch, /*deadline=*/nullptr);
}

bool instance_registry::wait_for_epoch_above_until(const std::string& key,
                                                   std::uint64_t epoch,
                                                   clock::time_point deadline) {
  return wait_for_epoch_above_impl(key, epoch, &deadline);
}

void instance_registry::shutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
  for (auto& shard_ptr : shards_) wake_parked(*shard_ptr, nullptr, true);
}

std::size_t instance_registry::keys_in_shard(int shard_index) const {
  ELECT_CHECK(shard_index >= 0 &&
              shard_index < static_cast<int>(shards_.size()));
  const shard& s = *shards_[static_cast<std::size_t>(shard_index)];
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.keys.size();
}

std::size_t instance_registry::key_count() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    total += keys_in_shard(static_cast<int>(i));
  }
  return total;
}

}  // namespace elect::svc
