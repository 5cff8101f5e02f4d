// elect::repl::node — one member of a replicated election cluster.
//
// The paper's primitive is a one-shot test-and-set; the service stack
// multiplexes it per key; this layer runs the same shape once more at
// *cluster* scope to pick which machine is allowed to answer clients.
// A term is a cluster-wide epoch; becoming primary for a term is
// winning a one-shot test-and-set among the members (each member votes
// at most once per term, persisted so a restart cannot double-vote),
// with randomized retry timeouts playing the role the paper gives
// random choices: splitting contenders until exactly one survives. The
// log-up-to-date check on votes is the extra guard replication needs —
// a winner must already hold every committed entry.
//
// Data path: the primary's svc::service applies client ops to its
// registry immediately (the live path decides), and this node *drains*
// the resulting cmd::commands into a term-stamped replicated log
// (registry::collect_commands_after — per-shard floors advance
// monotonically, so each command ships exactly once). Followers append
// the entries, and apply them to their registries only once committed
// — the uncommitted suffix lives in the repl log alone, so a conflict
// truncation never has to claw state back out of a registry. An entry
// is committed when a quorum holds it; the commit-before-ack gate
// (commit_async, installed as the service's commit gate) holds every
// client ack — grants *and renewals* — until the log entry carrying the
// mutation is committed: the ack's continuation waits on a completion
// list ordered by log index, released as the commit index passes it and
// run outside the node lock, so no thread parks per ack. A primary
// partitioned from its quorum
// therefore cannot confirm anything: its clients see
// `connection_lost` and demote, which is the real zombie-safety
// mechanism; the promotion-time fence (registry::fence_all with the
// configured bump) additionally jumps every epoch clear of whatever
// the deposed primary's uncommitted tail may have granted.
//
// Failover: a member that wins an election *keeps* its whole log —
// the up-to-date check on votes means the winner's log already
// contains every entry any quorum may have committed, so truncating
// to the local commit index could drop a grant a client was already
// acked for (and a fence that never sees the key cannot fence it).
// It applies the inherited suffix to its registry ahead of commit,
// appends a barrier entry at the new term (whose quorum replication
// commits the whole prefix — the current-term commit guard makes
// counting replicas safe), fences the registry, resumes the lease
// sweeper (only primaries decide expiry), and starts replicating. A
// deposed primary first drains its registry's pending commands into
// the log under the old term, so log and registry stay in lockstep
// across the demotion and it can stand in later elections; only an
// actual apply divergence (seq gap after compaction) marks a member
// needs-install, which bars it from candidacy until the primary's
// snapshot install rebases it.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.hpp"
#include "repl/config.hpp"
#include "repl/log.hpp"
#include "repl/peer.hpp"
#include "svc/metrics.hpp"
#include "svc/service.hpp"

namespace elect::repl {

enum class role : std::uint8_t { follower, candidate, primary };

[[nodiscard]] std::string_view to_string(role r);

/// Monotonic event counters, readable via status_json()/prom_text().
struct node_counters {
  std::uint64_t elections_started = 0;
  std::uint64_t terms_won = 0;
  std::uint64_t step_downs = 0;
  std::uint64_t appends_sent = 0;
  std::uint64_t append_failures = 0;
  std::uint64_t heartbeats_sent = 0;
  std::uint64_t entries_replicated = 0;
  std::uint64_t snapshots_sent = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t compactions = 0;
  std::uint64_t commit_timeouts = 0;
};

class node {
 public:
  /// The service must outlive the node and have been constructed with
  /// record_commands=true (the drain path reads the registry's command
  /// log). The node immediately suspends the service's lease sweeper —
  /// every member boots as a follower; only a promotion resumes it.
  node(cluster_config config, svc::service& service);
  ~node();

  node(const node&) = delete;
  node& operator=(const node&) = delete;

  /// Install the commit gate on the service and launch the ticker and
  /// per-peer replication threads.
  void start();

  /// Stop all threads. Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] int id() const noexcept { return config_.self; }
  [[nodiscard]] const cluster_config& config() const noexcept {
    return config_;
  }

  /// Is this node the primary right now? (Advisory — may be deposed a
  /// moment later; the commit gate is what makes acting on a stale
  /// answer safe.)
  [[nodiscard]] bool is_primary() const;

  /// Best-known primary "host:port" for not_primary redirects; empty
  /// while no leader is known (mid-election).
  [[nodiscard]] std::string primary_endpoint() const;

  /// Serve one peer op (peer_vote / peer_append / peer_snapshot).
  /// Called on the net::server reactor that read it; any malformed body
  /// gets `bad_request`.
  [[nodiscard]] net::wire::response handle_peer(const net::wire::request& r);

  /// The commit-before-ack gate (the service's completion-style commit
  /// gate): drain the registry's fresh commands into the log — the
  /// caller's mutation, already applied, is among them or was drained
  /// before — and call `done(true)` once the log head at that moment is
  /// quorum-committed. `done(false)` on commit_wait_ms timeout,
  /// step-down, or stop; the service answers the client
  /// `connection_lost`. Never blocks: `done` runs inline (single-member
  /// clusters, non-primaries) or later on a replication thread, outside
  /// the node lock. `key` names the mutated key (empty = any shard);
  /// the log-index target covers it either way.
  void commit_async(const std::string& key, svc::commit_callback done);

  /// Blocking wrapper over commit_async.
  [[nodiscard]] bool wait_committed(const std::string& key);

  /// Cluster status as a JSON object (admin_cluster_status body, and
  /// the service report's "repl" section).
  [[nodiscard]] std::string status_json() const;

  /// Prometheus rendering of role/term/commit/lag/counters.
  [[nodiscard]] std::string prom_text() const;

  // Test/bench introspection.
  [[nodiscard]] std::uint64_t current_term() const;
  [[nodiscard]] std::uint64_t commit_index() const;
  [[nodiscard]] node_counters counters() const;

 private:
  /// Replication state for one other member, driven by its own thread
  /// (the channel blocks on socket I/O; one thread per peer keeps a
  /// slow follower from stalling the rest).
  struct peer_worker {
    int member = -1;
    peer_channel channel;
    std::uint64_t next_index = 1;
    std::uint64_t match_index = 0;
    /// The follower asked for a snapshot (divergence or seq gap).
    bool force_snapshot = false;
    std::thread thread;

    peer_worker(int m, endpoint ep, std::uint64_t timeout_ms)
        : member(m), channel(std::move(ep), timeout_ms) {}
  };

  void ticker_main();
  void worker_main(peer_worker& w);
  /// One replication round against `w`: build an append (or snapshot)
  /// under the lock, call over the wire unlocked, fold the response
  /// back in. Returns false when there is nothing to do but heartbeat.
  void replicate_once(peer_worker& w, std::unique_lock<std::mutex>& lock);
  void run_election();

  /// A commit-gate continuation waiting for its log index to commit.
  struct pending_commit {
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point deadline;
    svc::commit_callback done;
  };

  // All *_locked members require mu_.
  void drain_locked();
  void advance_commit_locked();
  /// Move every gate continuation whose index is committed to the ready
  /// list; fail (all, or only the expired with `now`) ones that never
  /// will commit.
  void release_commits_locked();
  void fail_commits_locked(const std::chrono::steady_clock::time_point* now);
  /// Run the ready continuations (and a deposed primary's kick of the
  /// registry's parked acquirers) with the lock dropped, then relock.
  void run_deferred(std::unique_lock<std::mutex>& lock);
  /// Compact the log prefix the registry already reflects: on the
  /// primary when every entry is committed, on a follower up to its
  /// applied index once that equals the commit index.
  void maybe_compact_locked();
  void become_primary_locked(std::unique_lock<std::mutex>& lock);
  void step_down_locked(std::uint64_t new_term);
  void apply_committed_locked();
  /// Apply log entries up to `bound` into the registry (seq-filtered).
  /// Promotion passes the log head: the inherited, not-yet-committed
  /// suffix is applied ahead of commit.
  void apply_through_locked(std::uint64_t bound);
  void reset_election_deadline_locked();
  void persist_vote_locked();
  void load_vote_state();
  [[nodiscard]] net::wire::response answer(const net::wire::request& r,
                                           net::wire::status s,
                                           std::string body = {}) const;
  net::wire::response handle_vote_locked(const net::wire::request& r);
  net::wire::response handle_append_locked(const net::wire::request& r);
  net::wire::response handle_snapshot_locked(const net::wire::request& r);

  cluster_config config_;
  svc::service& service_;

  mutable std::mutex mu_;
  /// Pokes the peer workers (fresh entries to ship, or stop).
  std::condition_variable work_cv_;
  /// Pokes the ticker (stop).
  std::condition_variable tick_cv_;

  role role_ = role::follower;
  std::uint64_t term_ = 0;
  int voted_for_ = -1;
  /// Best-known leader (member index), -1 while unknown.
  int leader_ = -1;
  replicated_log log_;
  std::uint64_t commit_index_ = 0;
  /// Follower apply watermark (== commit_index_ on a healthy member).
  std::uint64_t applied_index_ = 0;
  /// The commit gate's completion list, keyed (and so ordered) by the
  /// log index each continuation waits for.
  std::multimap<std::uint64_t, pending_commit> commit_waiters_;
  /// Continuations decided under the lock, run by run_deferred.
  std::vector<std::pair<svc::commit_callback, bool>> commits_ready_;
  /// Set by a step-down: parked acquirers must re-check (and redirect).
  bool kick_parked_ = false;
  /// Drain floors per shard (primary only): last registry seq already
  /// appended to the log.
  std::vector<std::uint64_t> floors_;
  /// Set on a deposed primary whose registry may exceed the committed
  /// prefix: appends are refused with need_snapshot until the new
  /// primary's snapshot install rebases the registry.
  bool needs_install_ = false;
  std::chrono::steady_clock::time_point election_deadline_{};
  std::mt19937_64 rng_;
  bool stop_ = false;
  node_counters counters_;
  svc::latency_histogram commit_latency_;

  std::vector<std::unique_ptr<peer_worker>> workers_;
  /// Vote channels, owned by the ticker thread (elections are
  /// sequential; replication channels stay dedicated to their workers).
  std::vector<std::unique_ptr<peer_channel>> vote_channels_;
  std::thread ticker_;
};

}  // namespace elect::repl
