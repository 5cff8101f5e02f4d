// Instance registry: maps string election keys onto leader_elect
// instances.
//
// The service multiplexes many logical elections (one per key) over one
// node pool. Each key is owned by a shard (lock-striped: hash(key) mod
// shard_count); the shard lazily creates per-key state the first time the
// key is touched and hands out the key's *current* (election_id, epoch)
// pair. Releasing leadership bumps the epoch and allocates a fresh
// election_id, so the next acquirers contend in a brand-new Figure-6
// instance — repeated test-and-set built from one-shot instances.
//
// Ownership is lease-based: claim_win stamps a deadline (now + TTL),
// renew() pushes it out, and sweep_expired() force-releases holders whose
// deadline has passed by bumping the epoch. The epoch doubles as a
// fencing token — a crashed-and-resurrected holder ("zombie") presenting
// its old epoch to release()/renew() is rejected with `stale_epoch`
// instead of corrupting the new holder's state.
//
// The epoch is also what keeps the service's two granting paths apart.
// An epoch can be granted EITHER by the contention-adaptive fast path
// (begin_adaptive_attempt: a CAS that skips the distributed protocol
// entirely) OR by a distributed election (arm_protocol then claim_win);
// the per-key mode recorded under the shard lock makes the two mutually
// exclusive per epoch, so they can never both grant the same epoch:
//
//   * the fast-path CAS succeeds only while the epoch is current,
//     unheld, and not armed for a protocol;
//   * arm_protocol succeeds only while the epoch is current and unheld,
//     and permanently (for that epoch) disables the fast path;
//   * claim_win grants the epoch to the first protocol survivor and
//     refuses everyone after (and any zombie of a stale epoch).
//
// Every state *mutation* — both grant paths, releases, renewals, the
// sweeper, disconnect reclaim, admin force-release — funnels through one
// deterministic executor: the call path decides (who wins, what
// expires), builds a cmd::command describing the decision, and
// apply_command_locked executes it. The same executor serves apply() /
// replay(), so a recorded command stream folded into a fresh registry
// reconstructs the same epochs, holders, modes, and (logical) lease
// deadlines — see snapshot()/restore() and src/cmd/. Non-mutating
// observations (attempt counters, arm_protocol's mode latch) stay
// outside the stream; snapshots exclude them.
//
// Each begin_attempt() is counted per epoch; the count (plus the final
// count of the previous epoch) is the contention estimate the adaptive
// strategy steers by.
//
// Election ids are drawn from a global 64-bit atomic counter starting
// high above the ids examples and tests hand-pick, so registry-managed
// instances never collide with manually created ones on the same pool.
// The replicated-variable namespace (var_id.instance) is 32-bit; rather
// than silently wrapping and aliasing long-decided instances' variables,
// allocation fails fast (ELECT_CHECK) when the counter reaches
// instance_id_limit — 64K ids *before* the uint32 space ends, so the
// abort happens well clear of any aliasing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cmd/command.hpp"
#include "election/vars.hpp"

namespace elect::svc {

/// The (instance, epoch) pair a key currently resolves to.
struct instance_entry {
  election::election_id instance{0};
  std::uint64_t epoch = 0;
};

/// What one acquire attempt sees when it registers (begin_attempt).
struct attempt_info {
  instance_entry entry;
  /// Attempts registered in the entry's epoch so far, including this
  /// one (1 means "I am the only acquirer observed this epoch").
  std::uint64_t attempts_this_epoch = 0;
  /// Final attempt count of the key's previous epoch (0 for epoch 0).
  /// Together with attempts_this_epoch this is the contention estimate:
  /// a key is *uncontended* when both are <= 1.
  std::uint64_t last_epoch_attempts = 0;
};

/// One leader transition on a key, as seen by the registry. The watch
/// layer (svc/watch.hpp, api::client::watch) is built on these; each is
/// a rendering of the command (cmd::command_kind) that caused it.
enum class transition : std::uint8_t {
  /// An epoch was granted — by either grant path (protocol win or
  /// adaptive fast claim). `epoch` is the granted epoch, `session` the
  /// new leader.
  elected = 0,
  /// The holder gave the key up voluntarily (fenced/unfenced release,
  /// release_all — including the network edge's disconnect-on-close
  /// reclaim, which is how a remote crash surfaces). `epoch` is the
  /// epoch that ended, `session` its last holder.
  released = 1,
  /// The sweeper force-released an expired lease (a crashed or wedged
  /// holder timed out). Same field meaning as `released`.
  expired = 2,
  /// An operator ended the epoch (admin force-release): the "kick the
  /// stuck leader" lever, distinguishable from an expiry.
  force_released = 3,
};

[[nodiscard]] std::string_view to_string(transition t);

/// Outcome of a fenced lease operation (release / renew).
enum class lease_status {
  ok,
  /// The presented epoch is no longer the key's current epoch: the lease
  /// expired (or was released) and the key moved on. The caller is a
  /// zombie; its operation had no effect.
  stale_epoch,
  /// The epoch is current but the caller is not the recorded holder
  /// (nobody is, or someone else won). No effect.
  not_leader,
  /// The transport to the service died underneath the call — the
  /// connection was severed (peer crash, network fault), NOT closed by
  /// this process. The registry never produces this; it is the network
  /// client's verdict (net::client), distinguishable from both a real
  /// fence (stale_epoch) and a user-initiated close() (which keeps the
  /// PR-4 crash-semantics mapping to stale_epoch). The holder must stop
  /// acting as leader either way; after a sever it may still hold the
  /// lease server-side until the TTL or the disconnect reclaim fences
  /// it.
  connection_lost,
};

/// Outcome of the single-acquirer CAS fast path (try_fast_claim).
enum class fast_claim_outcome {
  /// The epoch is granted to the caller; no election ran.
  claimed,
  /// Somebody already holds the epoch (fast claim or protocol win):
  /// the caller lost this epoch.
  held,
  /// A distributed election is armed for this epoch; the caller must
  /// fall back to the protocol path.
  armed,
  /// The epoch moved on between the attempt and the claim: lost.
  stale,
  /// The registry is shut down: the service stopped, no grant. The
  /// caller reports the acquire as rejected (the fast path must not
  /// hand out leases on a stopped service).
  shutdown,
};

struct fast_claim_result {
  fast_claim_outcome outcome = fast_claim_outcome::stale;
  /// Lease deadline; meaningful only when outcome == claimed.
  std::chrono::steady_clock::time_point deadline{};
};

/// Admin snapshot of one key's state (list_keys / inspect). Consistent
/// per key — taken under the key's shard lock — but keys may move on
/// between snapshot and use.
struct key_inspection {
  std::string key;
  instance_entry entry;
  /// Holding session, -1 when unheld.
  int leader = -1;
  /// time_point::max() = non-expiring lease (or unheld).
  std::chrono::steady_clock::time_point lease_deadline =
      std::chrono::steady_clock::time_point::max();
  /// Grant mode as text: "open", "fast_claimed", or "protocol_armed".
  std::string_view mode;
  std::uint64_t attempts_this_epoch = 0;
  std::uint64_t last_epoch_attempts = 0;
};

/// One fused adaptive acquire entry (begin_adaptive_attempt): the
/// attempt registration plus, when the contention estimate was clear,
/// the fast-path outcome — all decided under one shard lock.
struct adaptive_attempt {
  attempt_info attempt;
  /// False when the contention estimate said "contended" and no fast
  /// claim was attempted: the caller goes down the protocol path.
  bool fast_attempted = false;
  fast_claim_result fast;
};

class instance_registry {
 public:
  using clock = std::chrono::steady_clock;

  /// Last allocatable instance id: 64K short of the 32-bit var_id
  /// namespace, so exhaustion aborts well before any aliasing.
  static constexpr std::uint64_t instance_id_limit = 0xFFFF0000ull;

  /// `first_instance` is the id given to the first key; subsequent
  /// instances count up from there.
  explicit instance_registry(int shard_count,
                             std::uint64_t first_instance = 1u << 20);

  instance_registry(const instance_registry&) = delete;
  instance_registry& operator=(const instance_registry&) = delete;

  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }

  /// Which shard owns `key`. Stable for the registry's lifetime.
  [[nodiscard]] int shard_of(const std::string& key) const;

  /// Current (instance, epoch) for `key`; lazily creates epoch 0.
  [[nodiscard]] instance_entry current(const std::string& key);

  /// Register one acquire attempt: like current(), but also bumps the
  /// epoch's attempt counter and returns the contention estimate.
  [[nodiscard]] attempt_info begin_attempt(const std::string& key);

  /// Current (instance, epoch) for `key` without creating state; empty
  /// when the key has never been acquired.
  [[nodiscard]] std::optional<instance_entry> peek(const std::string& key);

  /// The adaptive entry point, fused so the uncontended hot path takes
  /// the shard lock exactly once: register the attempt and — iff no
  /// contention is observed (this is the epoch's first attempt and the
  /// previous epoch saw at most one acquirer) — grant the epoch to
  /// `session` by CAS, with no election. The CAS is refused when the
  /// epoch is armed for a protocol (caller falls back to the
  /// distributed path), already held, or the registry is shut down; see
  /// fast_claim_outcome. Fusing also makes `stale` unreachable here:
  /// the epoch read and the claim happen under one lock.
  [[nodiscard]] adaptive_attempt begin_adaptive_attempt(
      const std::string& key, int session, clock::duration ttl);

  /// Gate for running a distributed election on (key, epoch): returns
  /// true and disables the fast path for the epoch when the epoch is
  /// current and unheld (idempotent across concurrent acquirers — they
  /// are meant to contend in the same instance). Returns false when the
  /// epoch was already granted or moved on: the caller loses without
  /// touching the network.
  [[nodiscard]] bool arm_protocol(const std::string& key, std::uint64_t epoch);

  /// Grant `epoch` to `session` — the protocol path's decider. Returns
  /// the lease deadline for the first claimer while the epoch is still
  /// current; empty for every later claimer (another survivor won) and
  /// for stale epochs. `ttl` == zero() means the lease never expires.
  /// For self-deciding protocols (full leader_elect) a refusal is a
  /// test-and-set safety violation — the caller CHECKs.
  [[nodiscard]] std::optional<clock::time_point> claim_win(
      const std::string& key, std::uint64_t epoch, int session,
      clock::duration ttl);

  /// Session currently holding `key` (-1 if none / not yet elected).
  [[nodiscard]] int leader_of(const std::string& key);

  /// Lease deadline of `key`'s current holder (time_point::max() for a
  /// non-expiring lease; empty when nobody holds the key).
  [[nodiscard]] std::optional<clock::time_point> lease_deadline_of(
      const std::string& key);

  /// Fenced release: only the recorded winner of exactly `epoch` — which
  /// must still be the current epoch — releases. On `ok` the epoch is
  /// bumped, a fresh election instance is allocated, and epoch waiters
  /// wake. A zombie presenting a stale epoch gets `stale_epoch` and
  /// changes nothing.
  lease_status release(const std::string& key, int session,
                       std::uint64_t epoch);

  /// Unfenced convenience release: releases whatever epoch `session`
  /// currently holds on `key` (`not_leader` when it holds nothing). Used
  /// by single-threaded holders that didn't keep the acquire epoch; a
  /// session racing its own expiry should use the fenced overload.
  lease_status release(const std::string& key, int session);

  /// Fenced release on behalf of a dead connection — same verdicts and
  /// fencing as release(), but recorded as `disconnect_reclaimed` so the
  /// stream (and the journal rendering it) can tell a crash reclaim from
  /// a voluntary release. Used by the network edge for late wins on
  /// closed connections.
  lease_status reclaim(const std::string& key, int session,
                       std::uint64_t epoch);

  /// Fenced renewal: extend the holder's lease to now + ttl. Same fencing
  /// as release(); `stale_epoch` tells a holder it lost the key.
  lease_status renew(const std::string& key, int session, std::uint64_t epoch,
                     clock::duration ttl);

  /// Release every key currently held by `session` (graceful
  /// disconnect). `on_released` (if set) is called with the shard index
  /// once per released key, under no lock. Returns the number of keys
  /// released.
  std::size_t release_all(int session,
                          const std::function<void(int)>& on_released = {});

  /// reclaim() in bulk: end every lease `session` still holds because
  /// its connection died (the network edge's crash reclaim — how a
  /// remote crash is observed faster than the lease TTL). Identical
  /// state effect to release_all; recorded as `disconnect_reclaimed`.
  std::size_t reclaim_all(int session,
                          const std::function<void(int)>& on_reclaimed = {});

  /// Every key `session` currently holds, in unspecified order. A
  /// snapshot — by the time the caller looks, leases may have expired.
  /// Introspection for the network edge (per-connection accounting) and
  /// tests; not a hot path.
  [[nodiscard]] std::vector<std::string> keys_held_by(int session) const;

  /// Admin: snapshot every registered key (shard by shard; not a
  /// cross-shard atomic view). Not a hot path.
  [[nodiscard]] std::vector<key_inspection> list_keys() const;

  /// Admin: snapshot one key; empty when the key was never acquired.
  [[nodiscard]] std::optional<key_inspection> inspect(
      const std::string& key) const;

  /// Admin: unconditionally end `key`'s current epoch regardless of
  /// holder — the operator's "kick the stuck leader" lever. Emits a
  /// `force_released` command (its own journal/watch kind, not an
  /// expiry). `not_leader` when the key is unknown or unheld (nothing
  /// to do).
  lease_status force_release(const std::string& key);

  /// Force-release every holder whose lease deadline is <= now: bump the
  /// epoch, allocate a fresh instance, wake epoch waiters. `on_expired`
  /// (if set) is called with the shard index once per expired key, under
  /// no lock. Returns the number of leases expired.
  std::size_t sweep_expired(clock::time_point now,
                            const std::function<void(int)>& on_expired = {});

  /// A parked epoch continuation (see park_until_epoch_above).
  using epoch_callback = std::function<void()>;

  /// Park `fn` until `key`'s epoch exceeds `epoch` (a release, expiry or
  /// fence ended the epoch the caller lost), shutdown() fires, or
  /// wake_all_parked() kicks it. It runs once, outside the shard lock,
  /// on the thread that moved the epoch — or inline, returning 0, when
  /// the condition already holds. Otherwise returns a handle for
  /// cancel_park. A key that has never been acquired counts as epoch 0;
  /// parking does not create key state or burn an instance id. This is
  /// the one wait primitive: the network edge parks wire acquires here
  /// (no thread per waiter), and the blocking waits below are wrappers.
  std::uint64_t park_until_epoch_above(const std::string& key,
                                       std::uint64_t epoch,
                                       epoch_callback fn);

  /// Withdraw a parked continuation. True iff it had not been taken for
  /// firing — it will never run. False means it ran or is running.
  bool cancel_park(const std::string& key, std::uint64_t id);

  /// Fire every parked continuation now, whatever its epoch: a spurious
  /// wakeup the owners re-check. A cluster node kicks its waiters this
  /// way when it is deposed, so parked acquires learn to go elsewhere.
  void wake_all_parked();

  /// Block until `key`'s epoch exceeds `epoch`, or until shutdown(); may
  /// also return on a wake_all_parked() kick.
  void wait_for_epoch_above(const std::string& key, std::uint64_t epoch);

  /// Timed variant: additionally give up at `deadline`. Returns true
  /// when woken (epoch advanced, shutdown() — the caller's retry then
  /// comes back rejected — or a kick), false on timeout.
  [[nodiscard]] bool wait_for_epoch_above_until(const std::string& key,
                                                std::uint64_t epoch,
                                                clock::time_point deadline);

  /// Fire every parked continuation and make future parks fire at once.
  /// Called by the service's stop() so blocked acquirers fail over to a
  /// rejected acquire instead of sleeping forever.
  void shutdown();

  /// Keys registered in one shard / in total (for distribution checks).
  [[nodiscard]] std::size_t keys_in_shard(int shard) const;
  [[nodiscard]] std::size_t key_count() const;

  /// Instance ids still allocatable before the fail-fast guard trips.
  [[nodiscard]] std::uint64_t remaining_instance_ids() const noexcept;

  // --- The command stream (src/cmd/) ------------------------------------

  /// Start appending every mutation to the per-shard command log. Must
  /// be called before the registry sees concurrent traffic (the service
  /// enables it at construction when configured); commands emitted
  /// before are lost, which is fine for a fresh registry. Off by
  /// default: with recording off and no hook armed, the mutation paths
  /// assemble no command payloads — the adaptive fast path stays at its
  /// zero-allocation cost.
  void enable_command_log();

  [[nodiscard]] bool command_log_enabled() const noexcept {
    return recording_.load(std::memory_order_relaxed);
  }

  /// Every retained command, shard by shard (each shard's slice in seq
  /// order; cross-shard interleaving is unobservable — keys never
  /// migrate). Feed to replay().
  [[nodiscard]] std::vector<cmd::command> collect_commands() const;

  /// Retained commands with seq > floors[shard], shard by shard in seq
  /// order — the incremental form of collect_commands(). `floors` must
  /// have shard_count() entries. The replication layer drains new
  /// commands with it: per-shard floors advance monotonically, so each
  /// command is shipped exactly once even though the log is also
  /// consulted by snapshots.
  [[nodiscard]] std::vector<cmd::command> collect_commands_after(
      const std::vector<std::uint64_t>& floors) const;

  /// The shard's command-stream watermark: seq of the last command
  /// executed there (live or replayed). The cluster primary samples it
  /// right after a mutation to learn what the commit-before-ack gate
  /// must wait for.
  [[nodiscard]] std::uint64_t shard_last_seq(int shard) const;

  /// Command-log accounting (recorded lifetime vs retained in memory).
  [[nodiscard]] cmd::log_stats log_stats() const;

  /// Execute one recorded command against this registry — the replay
  /// half of the funnel. Validates before executing: the key must map
  /// to `c.shard` (a mismatch means a different shard count), `c.seq`
  /// must extend the shard's watermark without a gap, and the command's
  /// epoch/holder must match the state it claims to mutate. Returns an
  /// error string (state untouched) on any mismatch; commands are never
  /// re-appended to the replaying registry's own log (the watermark
  /// advances to `c.seq` instead, so a later snapshot matches the
  /// recorder's).
  [[nodiscard]] std::optional<std::string> apply(const cmd::command& c);

  /// Fold a command stream into this registry: apply() in order,
  /// stopping at the first error. Replaying a full stream into a fresh
  /// registry (or a post-snapshot suffix into a restore()d one)
  /// reconstructs the recorder's replayable state exactly — snapshot()
  /// on both sides yields byte-identical bytes.
  [[nodiscard]] std::optional<std::string> replay(
      const std::vector<cmd::command>& log);

  /// Serialize the replayable state (see src/cmd/snapshot.hpp for the
  /// format and the normalizations that make two equivalent registries
  /// encode byte-identically). With `trim_log`, retained commands
  /// covered by this snapshot are dropped afterwards — the snapshot is
  /// their compaction — bounding log memory for long-running servers.
  [[nodiscard]] std::vector<std::uint8_t> snapshot(bool trim_log = false);

  /// Load a snapshot into this (required: empty) registry. Remaining
  /// lease TTLs are re-anchored to this registry's clock: a lease with
  /// 3 s left at snapshot time expires ~3 s after the restore. With
  /// `fence_restored`, every restored key's epoch is then bumped (one
  /// `epoch_bumped` command each): pre-snapshot leaseholders answer
  /// `stale_epoch` from their first fenced op, instead of being
  /// resurrected into leases they may have lost.
  ///
  /// `fence_bump` is how far past the restored epoch the fence jumps
  /// (>= 1). A snapshot is a *prefix* of the truth: epochs granted after
  /// the last dump and before the crash are invisible here, so a bump
  /// of 1 can re-grant an epoch some pre-crash client already won —
  /// two leaders holding the same (key, epoch) fencing token. A large
  /// jump (elect_server defaults to 2^20) clears every epoch the crash
  /// gap could plausibly have granted; the chaos checker's
  /// unique-holder rule is what verifies the assumption. Returns an
  /// error on a malformed snapshot or a shard-count mismatch; the
  /// registry must be discarded if restore fails partway.
  [[nodiscard]] std::optional<std::string> restore(
      const std::vector<std::uint8_t>& bytes, bool fence_restored,
      std::uint64_t fence_bump = 1);

  /// restore() for a registry that already holds state: drop every key,
  /// log entry, and watermark, then load `bytes` without fencing. The
  /// replication layer installs a primary's snapshot on a lagging or
  /// diverged follower with it — the snapshot IS the authoritative
  /// state, so nothing local survives (epoch waiters are woken and
  /// re-evaluate against the installed state). Same error conditions
  /// as restore(); on error the registry is left cleared, not torn.
  [[nodiscard]] std::optional<std::string> install_snapshot(
      const std::vector<std::uint8_t>& bytes);

  /// Failover fencing (elect::repl): called by a node the moment it
  /// becomes primary, with the cluster's --fence-bump margin. Every
  /// known *unheld* key's epoch jumps by `bump` immediately (one
  /// `epoch_bumped` command each, replicated like any mutation), so
  /// epochs the deposed primary may have granted past the commit point
  /// can never be re-granted. A *held* key keeps its holder and epoch —
  /// a quorum-committed lease survives failover and its holder's fenced
  /// ops keep answering ok — but the bump is recorded as pending and
  /// lands when that epoch ends, so the key's next grant jumps clear
  /// too. Pending bumps are leader-local soft state (not part of the
  /// replayable stream until they fire); a primary that fails before a
  /// pending bump lands is covered by its successor's own fence_all().
  /// Returns the number of keys fenced (immediately or pending).
  std::size_t fence_all(std::uint64_t bump);

  /// Invoked (under no lock) once per mutation the watch/journal layers
  /// render: every command kind except `renewed` (a renewal moves no
  /// leadership; it is recorded in the log only).
  using command_hook = std::function<void(const cmd::command&)>;

  /// Install the command hook. `armed` is a cheap publish gate the
  /// hook's owner keeps current (true iff anyone is listening): the
  /// registry skips the hook entirely — no command assembly, no
  /// function call — while it reads false, which keeps the adaptive
  /// fast path at its zero-subscriber cost. Must be called before the
  /// registry sees concurrent traffic (the service installs it at
  /// construction); the hook runs on whichever thread performed the
  /// mutation.
  void set_command_hook(const std::atomic<bool>& armed, command_hook hook);

 private:
  /// How the current epoch has been (or may be) granted.
  enum class grant_mode : std::uint8_t {
    /// Nobody holds the epoch and no election is armed: both paths open.
    open,
    /// The fast path granted the epoch; no protocol may ever run for it.
    fast_claimed,
    /// A distributed election is (or was) running; fast path disabled.
    protocol_armed,
  };

  struct key_state {
    instance_entry entry;
    int leader = -1;
    clock::time_point lease_deadline = clock::time_point::max();
    /// The same deadline on the logical clock (ms since construction);
    /// cmd::lease_forever when non-expiring. What snapshots record —
    /// wall-clock-independent, reconstructable from the command stream.
    std::uint64_t logical_deadline_ms = cmd::lease_forever;
    grant_mode mode = grant_mode::open;
    /// Contention estimate inputs (see attempt_info).
    std::uint64_t attempts_this_epoch = 0;
    std::uint64_t last_epoch_attempts = 0;
    /// Deferred failover fence (fence_all on a held key): added to the
    /// epoch when it next ends, then cleared. Leader-local soft state —
    /// never snapshotted or replayed; it shapes the commands a primary
    /// *emits*, not how commands apply.
    std::uint64_t pending_fence = 0;
  };

  struct parked_waiter {
    std::uint64_t id = 0;
    std::uint64_t epoch = 0;
    epoch_callback fn;
  };

  struct shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, key_state> keys;
    /// Continuations parked on a key's epoch (park_until_epoch_above),
    /// guarded by `mutex`. parked_count mirrors their number so the
    /// mutation paths skip the wake scan with one load when none wait.
    std::unordered_map<std::string, std::vector<parked_waiter>> parked;
    std::atomic<std::size_t> parked_count{0};
    /// Retained command log (appended only while recording) and the
    /// shard's watermark: seq/logical-time of the last command executed
    /// here, live or replayed. All guarded by `mutex`.
    std::vector<cmd::command> log;
    std::uint64_t next_seq = 1;
    std::uint64_t last_seq = 0;
    std::uint64_t last_at_ms = 0;
  };

  shard& shard_for(const std::string& key);
  key_state& state_locked(shard& s, const std::string& key);
  /// Shared body of the blocking epoch waits: park, then sleep until
  /// fired (-> true) or `deadline` passes (-> false; nullptr waits
  /// forever).
  bool wait_for_epoch_above_impl(const std::string& key, std::uint64_t epoch,
                                 const clock::time_point* deadline);
  /// After a mutation of shard `s` (lock released): fire the parked
  /// continuations whose condition now holds — for `key` only, or for
  /// every key when `key` is null; `all` fires regardless of epoch.
  void wake_parked(shard& s, const std::string* key, bool all = false);
  /// Allocate a fresh instance id; aborts at instance_id_limit (see
  /// file comment) instead of wrapping the 32-bit var_id namespace.
  [[nodiscard]] election::election_id allocate_instance();
  /// Milliseconds since construction — the logical clock commands are
  /// stamped with (steady-based: immune to wall-clock jumps).
  [[nodiscard]] std::uint64_t logical_now_ms() const;
  /// Bump `key` to a fresh (instance, epoch) with no holder. Caller holds
  /// the shard lock and must wake_parked after unlocking.
  void bump_epoch_locked(key_state& state);
  /// Stamp both lease-deadline representations from a grant/renewal
  /// command (steady deadline derived from the logical one, so live and
  /// replayed executions agree).
  void set_lease_locked(key_state& state, const cmd::command& c);
  /// THE mutation funnel: execute `c` against `state` (deterministic
  /// given the command), advance the shard watermark, and — live path
  /// (`from_replay` false) while recording — assign the next seq and
  /// append to the shard log. Caller holds the shard lock, fires the
  /// hook / notifies waiters after unlocking. Replayed commands keep
  /// their recorded seq and are never re-appended.
  void apply_command_locked(shard& s, key_state& state, cmd::command& c,
                            bool from_replay);
  /// Shared body of the fenced epoch-enders: release() and reclaim()
  /// differ only in the command kind they record.
  lease_status end_epoch_fenced(const std::string& key, int session,
                                std::uint64_t epoch, cmd::command_kind kind);
  /// If `state` carries a pending failover fence, emit the deferred
  /// epoch_bumped now (the epoch just ended — the next grant must jump
  /// clear of the deposed primary's uncommitted tail) and return the
  /// command for publication. Caller holds the shard lock.
  [[nodiscard]] std::optional<cmd::command> fence_after_end_locked(
      shard& s, key_state& state, const std::string& key,
      std::int32_t shard_index, std::uint64_t at_ms);
  /// Scan every shard and bump every key matching `predicate` (checked
  /// under the shard lock); waiters are woken per shard and
  /// `on_bumped(shard_index)` runs once per bumped key, under no lock.
  /// Each bump emits a `kind` command for the ended epoch.
  /// Shared engine of release_all / reclaim_all (match: held by one
  /// session) and sweep_expired (match: lease deadline passed).
  std::size_t bump_matching(const std::function<bool(const key_state&)>& predicate,
                            const std::function<void(int)>& on_bumped,
                            cmd::command_kind kind);
  /// Is the command hook installed *and* armed right now? The gate
  /// callers check before assembling command payloads under the shard
  /// lock.
  [[nodiscard]] bool hook_live() const noexcept {
    return hook_armed_ != nullptr &&
           hook_armed_->load(std::memory_order_relaxed);
  }

  std::vector<std::unique_ptr<shard>> shards_;
  std::atomic<std::uint64_t> next_instance_;
  std::atomic<std::uint64_t> next_park_id_{1};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> recording_{false};
  /// Origin of the logical clock.
  const clock::time_point base_;
  /// Mutation hook + its owner's publish gate (see set_command_hook).
  /// Written once before concurrent use.
  command_hook hook_;
  const std::atomic<bool>* hook_armed_ = nullptr;
};

}  // namespace elect::svc
