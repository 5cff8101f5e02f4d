// elect::net::server — the TCP front-end of the election service.
//
// The edge is N per-core reactors, not one epoll loop. Each reactor
// owns an epoll fd, an eventfd wakeup, a timer wheel for slow-consumer
// deadlines, its own accept socket (SO_REUSEPORT sharded accept — the
// kernel spreads incoming connections across the listeners), and a
// private connection table. A connection is pinned to the reactor that
// accepted it for its whole lifetime, so per-connection read state
// needs no cross-reactor locking. Where SO_REUSEPORT is unavailable
// (or disabled via server_config::reuseport), reactor 0 keeps a single
// listener and deals accepted sockets round-robin to its peers through
// their adopt queues.
//
// Reads: a readable socket is drained in bounded bites, and every
// decoded request is served right there, on the reactor that read it,
// through the service's completion-style session ops — one request
// path, no executor queue, no thread per request:
//
//   * lease ops (release, renew, disconnect), watch, inspect/admin and
//     the adaptive fast path decide under one shard lock and complete
//     inline; their answers flush in the same loop turn;
//   * a protocol-strategy election completes on the pool node that ran
//     it, and a commit-gated ack (cluster mode) on the replication
//     thread that saw the commit — both only enqueue the answer and
//     kick the reactor;
//   * a blocking acquire (acquire, try_acquire_for) makes its first
//     attempt inline; if that loses, it parks as a continuation on the
//     key's epoch in the registry. Whatever resumes it — the epoch
//     moving (release, expiry, fence), service stop, a deposed
//     primary's kick, or a try_acquire_for deadline on this reactor's
//     timer wheel — posts it back to its reactor, which re-attempts or
//     answers. `max_waiters` bounds these continuations server-wide
//     (memory, not threads); past it the server answers `busy`.
//
// Writes: every encoded frame lands in the connection's output ring (a
// deque of shared immutable buffers) and the owning reactor flushes
// the ring with one sendmsg per batch — answers produced while a read
// batch is served are flushed together after it, EAGAIN arms EPOLLOUT,
// and a consumer that makes no progress for event_write_budget_ms is
// declared dead by the reactor's timer wheel. Completions from other
// threads reach the reactor through its inbox plus an eventfd kick, so
// all epoll_ctl and all socket writes happen on the owning reactor.
//
// Watch fanout rides a fast lane: the server keeps ONE hub
// subscription per watched key; its callback encodes the event frame
// once into a shared immutable buffer and appends that same buffer to
// every subscribed connection's output ring, grouped per reactor with
// one wakeup each — encode once, writev many.
//
// Every connection is backed by ONE svc::service session, so the
// service-side crash story carries over the wire unchanged: when the
// socket dies (EOF, reset, or server stop) the server applies
// session::disconnect(), force-releasing everything the remote client
// held. A half-open peer (no FIN ever arrives) falls back to the lease
// TTL + sweeper, same as a wedged local client.
//
// Backpressure is per connection: at `max_inflight_per_connection`
// outstanding requests the reactor stops *reading* that socket (drops
// EPOLLIN) until completions drain below half the cap. A parked
// blocking acquire does not count: it waits on other clients, and the
// fenced release that would unpark it may be queued behind the pause
// on this very socket. The output ring is bounded too
// (`max_outbox_bytes`): a consumer that never drains loses the
// connection rather than growing the ring without bound.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.hpp"
#include "svc/service.hpp"

namespace elect::net {

/// Hooks a replicated-cluster node (elect::repl) installs on its
/// server. All five are set together or not at all; `peer` present is
/// what puts the server in cluster mode. The server stays ignorant of
/// replication — it only (a) redirects mutating client ops away from
/// non-primaries with `not_primary` (body = `primary_hint()`), (b)
/// forwards the peer ops (peer_vote / peer_append / peer_snapshot) to
/// `peer`, (c) answers admin_cluster_status from `status_json` on
/// every member (deliberately NOT gated by enable_admin: finding the
/// primary must not require operator rights), and (d) splices
/// `status_json` / `prom_text` into /report and /metrics.
struct cluster_hooks {
  std::function<bool()> is_primary;
  std::function<std::string()> primary_hint;
  std::function<wire::response(const wire::request&)> peer;
  std::function<std::string()> status_json;
  std::function<std::string()> prom_text;

  [[nodiscard]] bool enabled() const noexcept {
    return static_cast<bool>(peer);
  }
};

struct server_config {
  /// Address to bind. Loopback by default: this PR's scope is the wire
  /// protocol and the loopback workload; multi-host comes later.
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read it back with server::port().
  std::uint16_t port = 0;
  /// No effect: every request is served on its reactor. Kept so
  /// configurations (and reports) that still name it keep compiling.
  int executors = 4;
  /// Concurrent blocking ops (acquire / try_acquire_for) server-wide —
  /// parked continuations, not threads; past this the server answers
  /// wire::status::busy.
  int max_waiters = 256;
  /// Outstanding requests per connection before the server stops
  /// reading that socket. Parked blocking acquires do not count.
  int max_inflight_per_connection = 64;
  /// Accepted connections beyond this are closed immediately.
  int max_connections = 1024;
  /// Watch subscriptions one connection may hold; past the cap a watch
  /// op answers `busy` (resource exhaustion, same family as the waiter
  /// cap — not a protocol violation).
  int max_watches_per_connection = 1024;
  /// How long a connection's output ring may sit unflushable (socket
  /// full, no progress) before the reactor declares the consumer dead.
  /// Bounds how long undelivered responses and events can pin memory.
  std::uint64_t event_write_budget_ms = 1000;
  /// Serve HTTP (/metrics Prometheus text, /report JSON, /healthz) on a
  /// second listen socket, multiplexed onto reactor 0.
  bool http_enabled = false;
  /// HTTP port; 0 binds ephemeral (read back with server::http_port()).
  std::uint16_t http_port = 0;
  /// Allow the wire admin ops (admin_list / admin_inspect /
  /// admin_force_release / admin_snapshot). Off by default:
  /// force-release is an operator lever, not a client right — `denied`
  /// when off.
  bool enable_admin = false;
  /// Where admin_snapshot persists the registry snapshot. Empty keeps
  /// the op in-memory only (it still answers with command-log stats).
  std::string snapshot_path;
  /// Reactor (event loop) count. 0 = auto: the ELECT_REACTORS
  /// environment variable if set, else std::thread::hardware_concurrency
  /// clamped to [1, 16]. Explicit values are clamped to [1, 64].
  int reactors = 0;
  /// Shard the accept path with one SO_REUSEPORT listener per reactor.
  /// false forces the single-listener fallback (reactor 0 accepts and
  /// deals connections round-robin) — deterministic spread, what the
  /// multi-reactor tests use.
  bool reuseport = true;
  /// Bound on one connection's queued-but-unflushed output bytes.
  /// Past it the connection is closed as a dead consumer.
  std::size_t max_outbox_bytes = 8u << 20;
  /// Replicated-cluster hooks; default-empty = standalone server.
  cluster_hooks cluster;
};

/// Point-in-time counters for the network edge.
struct net_report {
  /// Per-reactor slice of the edge: connection placement, wakeups, and
  /// the writev coalescing that reactor achieved. frames_flushed /
  /// writev_calls is the realized coalesce ratio; requests /
  /// drain_batches the realized read-batching factor.
  struct reactor_stat {
    int index = 0;
    std::uint64_t connections = 0;
    std::uint64_t accepted = 0;
    std::uint64_t wakeups = 0;
    std::uint64_t writev_calls = 0;
    std::uint64_t frames_flushed = 0;
    std::uint64_t drain_batches = 0;
    std::uint64_t requests = 0;
  };

  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_refused = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t requests = 0;
  /// Read-drain passes that dispatched at least one request; requests /
  /// batches is the realized batching factor.
  std::uint64_t dispatch_batches = 0;
  std::uint64_t backpressure_pauses = 0;
  std::uint64_t busy_rejections = 0;
  std::uint64_t protocol_errors = 0;
  /// Leases force-released because their connection closed (the
  /// disconnect-on-close hook), plus wins reclaimed after their
  /// connection died mid-election.
  std::uint64_t disconnect_reclaims = 0;
  /// Watch subscriptions accepted over the wire (lifetime total).
  std::uint64_t watch_subscriptions = 0;
  /// Event frames pushed to clients (counted when flushed to the
  /// socket, not when queued).
  std::uint64_t events_pushed = 0;
  /// Event frames not pushed: connection already closed, output ring
  /// overflowed, or the consumer died with events still queued.
  std::uint64_t events_dropped = 0;
  /// Reactor configuration and aggregates across the per-reactor rows.
  std::uint64_t reactors = 0;
  /// True when every reactor accepts on its own SO_REUSEPORT listener;
  /// false in the single-listener round-robin fallback.
  bool reuseport = false;
  std::uint64_t writev_calls = 0;
  std::uint64_t frames_flushed = 0;
  std::uint64_t reactor_wakeups = 0;
  std::vector<reactor_stat> per_reactor;

  [[nodiscard]] std::string to_json() const;
};

class server {
 public:
  /// Binds, listens, and starts the reactors. The service must outlive
  /// the server. Check listening() — construction does not abort on
  /// bind failure (the port may be taken).
  server(svc::service& service, server_config config);
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  [[nodiscard]] bool listening() const noexcept { return listening_; }
  /// The bound port (resolves config.port == 0 to the ephemeral pick).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Resolved reactor count (config.reactors == 0 auto-detects).
  [[nodiscard]] int reactor_count() const noexcept {
    return static_cast<int>(reactors_.size());
  }
  /// True when the accept path is SO_REUSEPORT-sharded (one listener
  /// per reactor); false on the single-listener round-robin fallback.
  [[nodiscard]] bool reuseport_sharded() const noexcept {
    return reuseport_active_;
  }
  /// Is the HTTP listener up? (Requires config.http_enabled and a
  /// successful bind.)
  [[nodiscard]] bool http_listening() const noexcept {
    return http_listen_fd_ >= 0;
  }
  /// The bound HTTP port (resolves config.http_port == 0).
  [[nodiscard]] std::uint16_t http_port() const noexcept {
    return http_port_;
  }

  /// Answer every parked blocking acquire `rejected`, close the
  /// listeners and every connection (their sessions are disconnected,
  /// releasing held leases), join the reactors, and wait out the
  /// completions still in flight (elections, commit gates). Idempotent.
  /// Does NOT stop the service.
  void stop();

  [[nodiscard]] net_report report() const;
  /// The combined report served to the metrics wire op:
  /// service_report::to_json() with the "net" section filled in.
  [[nodiscard]] std::string report_json() const;

 private:
  struct reactor;
  struct waiter;
  using waiter_ptr = std::shared_ptr<waiter>;

  /// One encoded frame queued for a connection. The buffer is shared
  /// and immutable so the watch fast lane can hand the SAME encoded
  /// event to thousands of rings without copying it once per watcher.
  struct out_frame {
    std::shared_ptr<const std::vector<std::uint8_t>> bytes;
    bool is_event = false;
  };

  struct connection {
    connection(int fd_in, std::uint64_t id_in, reactor& owner_in)
        : fd(fd_in), id(id_in), owner(owner_in) {}
    ~connection();

    const int fd;
    const std::uint64_t id;
    /// The reactor this connection is pinned to — fixed at accept.
    reactor& owner;
    /// Set once the hello handshake passed; requests before it (or an
    /// invalid hello) are protocol errors.
    std::optional<svc::service::session> session;
    wire::frame_reader reader;

    /// Output ring: any thread appends encoded frames under out_mutex;
    /// only the owning reactor pops (writev flush). flush_queued
    /// dedupes wakeups — the appender that turns it on posts the
    /// connection to the reactor, everyone after piggybacks.
    std::mutex out_mutex;
    std::deque<out_frame> outbox;
    std::size_t outbox_bytes = 0;
    /// Bytes of outbox.front() already written (partial writev).
    std::size_t out_offset = 0;
    bool flush_queued = false;

    // Reactor-thread-only flush state.
    bool want_writable = false;   // EPOLLOUT armed
    bool stall_armed = false;     // timer-wheel entry live
    std::chrono::steady_clock::time_point stall_since{};

    /// Outstanding requests; drives backpressure (see complete()).
    std::atomic<int> in_flight{0};
    /// Reading is paused (reactor-thread-only).
    bool paused = false;

    /// Watch-router ids owned by this connection (guarded by the
    /// server's router_mutex_, not a connection-local lock — watch
    /// registration is cold next to the data path).
    std::vector<std::uint64_t> watch_ids;

    /// Blocking acquires of this connection not yet answered
    /// (reactor-thread-only; cleared when the connection finishes).
    std::vector<waiter_ptr> waiters;

    std::atomic<bool> closed{false};
  };
  using connection_ptr = std::shared_ptr<connection>;

  /// A reactor timer-wheel entry: an output-stall budget (fd) or a
  /// try_acquire_for deadline (weak: an early answer frees the waiter).
  struct timer {
    int fd = -1;
    std::weak_ptr<waiter> w;
  };
  using timer_wheel = std::multimap<std::chrono::steady_clock::time_point,
                                    timer>;

  /// One blocking acquire from arrival to answer: a continuation, not a
  /// thread. Its fields are touched on its connection's reactor only —
  /// attempts start there, and every verdict or resume is posted back.
  struct waiter {
    connection_ptr conn;
    wire::request req;
    /// try_acquire_for's deadline; time_point::max() for acquire.
    std::chrono::steady_clock::time_point deadline;
    /// Its timer-wheel entry, erased when answered before it fires.
    std::optional<timer_wheel::iterator> deadline_timer;
    /// Registry park handle while parked on the key's epoch, else 0.
    std::uint64_t park_id = 0;
    /// The epoch the last attempt lost (reported on timeout).
    std::uint64_t epoch = 0;
    /// The posted attempt's result; empty for an epoch resume.
    std::optional<svc::acquire_result> verdict;
    bool attempting = false;
    /// Still counted in conn->in_flight (until it first parks).
    bool counted = true;
    bool done = false;
  };

  /// What an answer needs from its request once the request is gone.
  struct call {
    connection_ptr conn;
    std::uint64_t id = 0;
    wire::op kind = wire::op::hello;
    std::uint64_t trace = 0;
    /// Serve-span start (0 when untraced).
    std::uint64_t start = 0;
  };

  /// One per-core event loop: epoll + eventfd + (maybe) its own
  /// listener + timer wheel + private connection table + inbox for
  /// cross-thread work. Everything epoll_ctl happens on this thread.
  struct reactor {
    server* owner = nullptr;
    int index = 0;
    int epoll_fd = -1;
    int wake_fd = -1;
    /// This reactor's SO_REUSEPORT listener; -1 on every reactor but 0
    /// in the single-listener fallback.
    int listen_fd = -1;
    std::thread thread;

    /// Reactor-thread-only.
    std::unordered_map<int, connection_ptr> connections;
    /// Timer wheel (coarse): output-stall budgets and try_acquire_for
    /// deadlines, lazily invalidated.
    timer_wheel timers;
    /// Inbox, drained on eventfd wakeup and before every sleep (the
    /// reactor posts to itself without a kick); wake_pending coalesces
    /// the kicks. Closed (running false) when the loop exits.
    std::mutex inbox_mutex;
    std::vector<connection_ptr> flush_inbox;
    std::vector<waiter_ptr> waiter_inbox;
    std::vector<int> adopt_inbox;
    bool wake_pending = false;
    bool running = true;

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> active{0};
    std::atomic<std::uint64_t> wakeups{0};
    std::atomic<std::uint64_t> writev_calls{0};
    std::atomic<std::uint64_t> frames_flushed{0};
    std::atomic<std::uint64_t> drain_batches{0};
    std::atomic<std::uint64_t> requests{0};
  };

  /// The watch router: one hub subscription per watched key, fanned to
  /// the wire subscribers by fanout_event. by_id is keyed by the wire
  /// watch handle (what unwatch presents); by_key groups handles under
  /// their shared hub subscription.
  struct watch_target {
    std::string key;
    connection_ptr conn;
  };
  struct watch_key_state {
    std::uint64_t hub_id = 0;
    /// A hub subscription for this key is being registered (outside the
    /// router lock). While set, the entry must not be erased — the
    /// subscriber comes back to publish hub_id or drop it.
    bool subscribing = false;
    std::vector<std::uint64_t> ids;
  };

  void reactor_main(reactor& r);
  /// Accept everything ready on r's listener. In fallback mode only
  /// reactor 0 has one; it adopts locally or deals to a peer's inbox.
  void accept_ready(reactor& r);
  /// Register a freshly accepted socket with reactor r (its thread).
  void adopt_connection(reactor& r, int fd);
  /// Drain one readable socket and dispatch everything parsed.
  void read_ready(reactor& r, const connection_ptr& conn);
  /// Drain r's inbox: adopts, waiters, flushes. False when it was empty.
  bool process_inbox(reactor& r);
  /// Push to r's inbox (`fill`, under its lock) and kick its eventfd.
  /// False, with nothing pushed, once r's loop has exited.
  template <typename Fill>
  bool post(reactor& r, Fill&& fill);
  /// Write the output ring until drained or EAGAIN, then lift a read
  /// pause the drained completions allow (reactor thread only).
  void flush_connection(reactor& r, const connection_ptr& conn);
  /// One sendmsg of the ring's front (out_mutex held), accounted and
  /// popped. 0 when the ring is empty.
  ssize_t write_ring(reactor& r, connection& conn);
  /// Fire the due timers: close every connection whose output stall
  /// outlived its budget, time out every parked try_acquire_for.
  void fire_timers(reactor& r);
  /// epoll timeout until the next timer (-1 = forever).
  [[nodiscard]] int next_timeout_ms(reactor& r) const;
  /// Recompute and apply the connection's epoll interest mask from
  /// (paused, want_writable). Reactor thread only.
  void rearm(reactor& r, const connection_ptr& conn);
  /// Append one encoded frame to the connection's output ring. Returns
  /// false if the frame was dropped (closed / ring overflow — overflow
  /// also starts the close). Sets need_post when the caller must
  /// schedule a flush with the owning reactor.
  bool enqueue_frame(const connection_ptr& conn,
                     std::shared_ptr<const std::vector<std::uint8_t>> bytes,
                     bool is_event, bool& need_post);
  /// Kick r's eventfd (coalesced by wake_pending).
  void wake(reactor& r);
  /// Serve one decoded request on its reactor: answered inline, or by
  /// the completion of the session op it started.
  void serve(reactor& r, const connection_ptr& conn, wire::request req);
  /// Answer `c` and release its in-flight slot. Any thread.
  void reply(const call& c, wire::response r);
  /// Count a completion the server must outlive (stop() waits for
  /// zero); end_op once it has run.
  void begin_op();
  void end_op();
  // The blocking-acquire continuation (reactor thread unless noted).
  void start_waiter(reactor& r, const connection_ptr& conn,
                    wire::request req);
  void attempt(const waiter_ptr& w);
  /// Run a posted waiter: a resume re-attempts; a verdict is answered,
  /// or on a loss parks the waiter on the key's epoch.
  void step_waiter(const waiter_ptr& w);
  /// Withdraw a parked waiter; true iff its park will never fire.
  bool unpark(const waiter_ptr& w);
  void answer_waiter(const waiter_ptr& w, wire::response r);
  /// Hand back a win nobody will use (connection gone). Any thread.
  void reclaim_late_win(connection& conn, const std::string& key,
                        std::uint64_t epoch);
  /// Drop the waiter from the books (and its in-flight slot). Any
  /// thread once the connection has closed.
  void finish_waiter(const waiter_ptr& w);
  /// Route a verdict or (empty) an epoch resume to w's reactor. Any
  /// thread; settled by the caller when the reactor is gone.
  void post_waiter(const waiter_ptr& w,
                   std::optional<svc::acquire_result> verdict);
  /// The answer to a decided acquire attempt (id/kind unset).
  [[nodiscard]] static wire::response acquire_response(
      const svc::acquire_result& result);
  /// The not_primary redirect for `req` (cluster mode).
  [[nodiscard]] wire::response redirect(const wire::request& req) const;
  /// Encode one response frame into the connection's output ring.
  void send_response(const connection_ptr& conn, const wire::response& r);
  /// The watch fast lane (hub notifier thread): encode the event once,
  /// append the shared buffer to every subscribed connection's ring,
  /// one inbox post + wakeup per reactor that has subscribers.
  void fanout_event(const svc::watch_event& e);
  /// Register / cancel wire watches.
  void serve_watch(const connection_ptr& conn, const wire::request& req,
                   wire::response& r);
  void serve_unwatch(const connection_ptr& conn, const wire::request& req,
                     wire::response& r);
  /// Remove watch `id` (router_mutex_ held). Returns the hub
  /// subscription to cancel after unlocking if it was the key's last.
  std::uint64_t drop_watch_locked(std::uint64_t id);
  /// The read-only admin ops; gated by config.enable_admin.
  void serve_admin(const wire::request& req, wire::response& r);
  // HTTP side-channel (reactor 0 only): accept, buffer one request,
  // answer, close.
  void http_accept_ready(reactor& r);
  void http_read_ready(reactor& r, int fd);
  void http_close(reactor& r, int fd);
  void http_respond(int fd, const std::string& buffered);
  /// Release one in-flight slot. Any thread: on the owning reactor a
  /// pause lifts at once; elsewhere the answer sent next triggers the
  /// flush that re-checks it.
  void complete(const connection_ptr& conn);
  void maybe_pause(reactor& r, const connection_ptr& conn);
  void maybe_resume(reactor& r, const connection_ptr& conn);
  /// Initiate teardown from any thread: shutdown() the socket so the
  /// owning reactor sees it and runs finish_connection exactly once.
  void start_close(const connection_ptr& conn);
  /// Reactor-thread-only: final opportunistic flush (a bad_request
  /// refusal must still reach the peer), unregister, cancel watches,
  /// disconnect the session (the lease-reclaim hook), drop from the
  /// map.
  void finish_connection(reactor& r, const connection_ptr& conn);
  void handle_handshake(const connection_ptr& conn,
                        const wire::request& req);
  void protocol_error(const connection_ptr& conn, std::uint64_t request_id);

  svc::service& service_;
  const server_config config_;

  bool listening_ = false;
  bool reuseport_active_ = false;
  std::uint16_t port_ = 0;
  int http_listen_fd_ = -1;
  std::uint16_t http_port_ = 0;
  /// Reactor-0-thread-only: accepted HTTP connections and their
  /// buffered request bytes (serve-one-request-then-close).
  std::unordered_map<int, std::string> http_conns_;

  std::vector<std::unique_ptr<reactor>> reactors_;
  /// Round-robin cursor for the single-listener fallback. Starts at 1
  /// so the first accepted connection lands off reactor 0 — spreading
  /// begins immediately.
  std::size_t next_adopter_ = 1;

  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> next_connection_id_{1};

  /// Blocking acquires not yet answered, server-wide (max_waiters).
  std::atomic<int> waiters_{0};

  /// Completions the server must outlive: a session op whose callback
  /// has not run yet, or a parked waiter. stop() waits for zero.
  std::mutex ops_mutex_;
  std::condition_variable ops_drained_;
  std::uint64_t ops_ = 0;

  /// Watch router state. Lock order: router_mutex_ before any
  /// connection's out_mutex (fanout path); hub calls (service_.watch /
  /// unwatch) that can block on delivery NEVER run under router_mutex_
  /// except add — remove is always deferred past the unlock, because
  /// the notifier may be parked on router_mutex_ inside fanout_event.
  std::mutex router_mutex_;
  std::unordered_map<std::uint64_t, watch_target> router_by_id_;
  std::unordered_map<std::string, watch_key_state> router_by_key_;
  std::uint64_t next_router_id_ = 1;

  struct counters {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> connections_refused{0};
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};
    std::atomic<std::uint64_t> bytes_in{0};
    std::atomic<std::uint64_t> bytes_out{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> dispatch_batches{0};
    std::atomic<std::uint64_t> backpressure_pauses{0};
    std::atomic<std::uint64_t> busy_rejections{0};
    std::atomic<std::uint64_t> protocol_errors{0};
    std::atomic<std::uint64_t> disconnect_reclaims{0};
    std::atomic<std::uint64_t> watch_subscriptions{0};
    std::atomic<std::uint64_t> events_pushed{0};
    std::atomic<std::uint64_t> events_dropped{0};
  };
  counters counters_;
  std::atomic<std::uint64_t> connections_active_{0};
};

}  // namespace elect::net
