// replicated: a 3-member cluster in one process on loopback, with no
// injected delay, so latency is processor plus loopback time. One
// thread runs pairs through an endpoint-list api::client (the same
// client and ops as remote-sync's lane, which is the single-node
// baseline: the difference isolates replication). A second client
// probes on a fixed schedule. Most of a trial is the measured window:
// pairs through a healthy cluster. Then the pairs stop and the primary
// is hard-stopped in-process (its server and repl node die
// mid-heartbeat) and restarted as a follower; a run of five trials
// fails over five times. failover_ms runs from the stop to the first
// scheduled probe the new primary acks; probes that fail inside that
// window count toward it, not as failures.
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "api/client.hpp"
#include "net/client.hpp"
#include "pairs.hpp"
#include "repl/config.hpp"
#include "repl/node.hpp"

namespace lb {

namespace {

constexpr int members = 3;
constexpr std::uint64_t probe_period_ns = 10'000'000;
/// Share of a trial measured as the steady window; the failover and
/// the restart take about the rest.
constexpr double steady_share = 0.6;

/// Timings gathered by the hooks the benchmark installs in traced runs:
/// the commit gate around node::wait_committed and the peer handler
/// around node::handle_peer.
struct repl_probe {
  std::mutex mutex;
  histogram commit_wait;
  histogram peer;
};

struct member {
  std::unique_ptr<svc::service> service;
  std::unique_ptr<repl::node> node;
  std::unique_ptr<net::server> server;
  bool stopped = false;
  /// Counters of this slot's earlier incarnations.
  repl::node_counters retired{};
};

void add(repl::node_counters& a, const repl::node_counters& b) {
  a.elections_started += b.elections_started;
  a.appends_sent += b.appends_sent;
  a.append_failures += b.append_failures;
  a.entries_replicated += b.entries_replicated;
  a.commit_timeouts += b.commit_timeouts;
}

class cluster {
 public:
  /// Vote state goes to disk under `state_root`, so a restarted member
  /// cannot vote twice in one term.
  cluster(std::uint64_t seed, std::string state_root, repl_probe* probe)
      : state_root_(std::move(state_root)), probe_(probe) {
    base_.seed = seed;
    for (int i = 0; i < members; ++i) {
      base_.members.push_back({"127.0.0.1", reserve_port()});
    }
    slots_.resize(members);
    for (int i = 0; i < members; ++i) start_member(i);
  }

  ~cluster() {
    for (auto& m : slots_) {
      if (m.server) m.server->stop();
    }
    for (auto& m : slots_) {
      if (m.node) m.node->stop();
    }
  }

  cluster(const cluster&) = delete;
  cluster& operator=(const cluster&) = delete;

  /// elect_server's cluster mode: default service, record_commands on,
  /// a disjoint session-id base, default repl timing.
  void start_member(int i) {
    member& m = slots_[static_cast<std::size_t>(i)];
    svc::service_config sc = default_service_config(base_.seed);
    sc.record_commands = true;
    sc.session_id_base = i << 24;
    m.service = std::make_unique<svc::service>(sc);
    repl::cluster_config cc = base_;
    cc.self = i;
    cc.state_dir = state_root_ + "/member" + std::to_string(i);
    std::filesystem::create_directories(cc.state_dir);
    m.node = std::make_unique<repl::node>(cc, *m.service);
    m.node->start();
    repl::node* node = m.node.get();
    net::server_config nc = default_server_config();
    nc.port = base_.members[static_cast<std::size_t>(i)].port;
    nc.cluster.is_primary = [node] { return node->is_primary(); };
    nc.cluster.primary_hint = [node] { return node->primary_endpoint(); };
    nc.cluster.status_json = [node] { return node->status_json(); };
    nc.cluster.prom_text = [node] { return node->prom_text(); };
    nc.cluster.peer = [node](const net::wire::request& r) {
      return node->handle_peer(r);
    };
    if (probe_ != nullptr) {
      repl_probe* probe = probe_;
      m.service->set_commit_gate([node, probe](const std::string& key) {
        const std::uint64_t t0 = now_ns();
        const bool ok = node->wait_committed(key);
        const std::uint64_t t1 = now_ns();
        if (tracer* tr = active_tracer()) {
          tr->record("repl.commit_wait", obs::current(), t0, t1);
        }
        const std::lock_guard<std::mutex> lock(probe->mutex);
        probe->commit_wait.add_ns(t1 - t0);
        return ok;
      });
      nc.cluster.peer = [node, probe](const net::wire::request& r) {
        const std::uint64_t t0 = now_ns();
        net::wire::response resp = node->handle_peer(r);
        const std::uint64_t t1 = now_ns();
        const std::lock_guard<std::mutex> lock(probe->mutex);
        probe->peer.add_ns(t1 - t0);
        return resp;
      };
    }
    m.server = std::make_unique<net::server>(*m.service, nc);
    m.stopped = false;
  }

  /// Hard stop: the server and the repl node die in place.
  void stop_member(int i) {
    member& m = slots_[static_cast<std::size_t>(i)];
    m.server->stop();
    m.node->stop();
    m.stopped = true;
  }

  /// Bring a stopped slot back as a fresh follower.
  void restart_member(int i) {
    member& m = slots_[static_cast<std::size_t>(i)];
    add(m.retired, m.node->counters());
    m.server.reset();
    m.node.reset();
    m.service.reset();
    start_member(i);
  }

  [[nodiscard]] int primary() const {
    for (int i = 0; i < members; ++i) {
      const member& m = slots_[static_cast<std::size_t>(i)];
      if (!m.stopped && m.node->is_primary()) return i;
    }
    return -1;
  }

  /// Member `i` follows the live primary (another member) and has
  /// committed all but the last heartbeat's worth of the primary's log.
  [[nodiscard]] bool caught_up(int i) const {
    constexpr std::uint64_t slack = 256;
    const int p = primary();
    if (p < 0 || p == i) return false;
    const std::uint64_t target =
        slots_[static_cast<std::size_t>(p)].node->commit_index();
    const member& m = slots_[static_cast<std::size_t>(i)];
    return !m.stopped &&
           m.node->primary_endpoint() ==
               base_.members[static_cast<std::size_t>(p)].to_string() &&
           m.node->commit_index() + slack >= target;
  }

  [[nodiscard]] int wait_for_primary(std::chrono::milliseconds limit) const {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      const int p = primary();
      if (p >= 0) return p;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return -1;
  }

  [[nodiscard]] std::string endpoints() const {
    std::string out;
    for (const auto& e : base_.members) {
      if (!out.empty()) out += ",";
      out += e.to_string();
    }
    return out;
  }

  [[nodiscard]] repl::node_counters counters() const {
    repl::node_counters total{};
    for (const member& m : slots_) {
      add(total, m.retired);
      add(total, m.node->counters());
    }
    return total;
  }

  [[nodiscard]] const svc::service_config& service_config() const {
    return slots_[0].service->config();
  }
  [[nodiscard]] int reactors() const {
    return slots_[0].server->reactor_count();
  }

 private:
  repl::cluster_config base_;
  std::string state_root_;
  repl_probe* probe_;
  std::vector<member> slots_;
};

struct repl_fixture {
  std::unique_ptr<cluster> nodes;
  std::unique_ptr<api::client> pairs;
  std::unique_ptr<api::client> prober;
  std::unique_ptr<net::client> holder;
  std::unique_ptr<net::client> checker;
  bool ok = false;
};

/// The prober: one try pair every probe_period_ns on a fixed schedule;
/// remembers when each scheduled probe was acked.
class prober {
 public:
  void run(api::client& c, const std::atomic<bool>& stop, int worker,
           history_log& history) {
    std::uint64_t due = now_ns();
    for (std::uint64_t n = 0; !stop.load(); ++n) {
      const std::uint64_t now = now_ns();
      if (due > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      const std::uint64_t sched = due;
      due += probe_period_ns;
      const std::string key = "probe/" + std::to_string(n);
      const std::uint64_t h0 = history_us();
      api::acquired got = c.try_acquire(key);
      const std::uint64_t acked = now_ns();
      const std::uint64_t h1 = history_us();
      chaos::outcome rel = chaos::outcome::not_leader;
      if (got.won()) rel = outcome_of(got.lease.release());
      history.push(history_record(
          worker, chaos::op_kind::acquire,
          got.won() ? chaos::outcome::ok : chaos::outcome::rejected, key,
          got.epoch, h0, h1));
      if (got.won()) {
        history.push(history_record(worker, chaos::op_kind::release, rel,
                                    key, got.epoch, h1, history_us()));
        const std::lock_guard<std::mutex> lock(mutex_);
        acks_.emplace_back(sched, acked);
      }
    }
  }

  /// First ack of a probe scheduled at or after `from`, 0 if none yet.
  [[nodiscard]] std::uint64_t first_ack_after(std::uint64_t from) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = acks_.rbegin(); it != acks_.rend(); ++it) {
      if (it->first < from) break;
      if (std::next(it) == acks_.rend() || std::next(it)->first < from) {
        return it->second;
      }
    }
    return 0;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> acks_;
};

/// Retry a lease call through the brief window in which the holder's
/// client is still failing over.
template <typename Call>
auto settle(Call call) {
  auto r = call();
  for (int i = 0; i < 50; ++i) {
    bool lost = false;
    if constexpr (std::is_same_v<decltype(r), svc::lease_status>) {
      lost = r == svc::lease_status::connection_lost;
    } else {
      lost = r.connection_lost || r.rejected;
    }
    if (!lost) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    r = call();
  }
  return r;
}

}  // namespace

void run_replicated(const options& opt, result& out) {
  history_log history;
  proc_sampler proc;
  repl_probe probe;
  constexpr int pair_worker = 0;
  constexpr int probe_worker = 1;
  constexpr int holder_worker = 2;
  constexpr int checker_worker = 3;
  auto fx = timed_setup<repl_fixture>(out, [&] {
    auto f = std::make_unique<repl_fixture>();
    f->nodes = std::make_unique<cluster>(
        opt.seed, opt.work_dir + "/replicated-" + std::to_string(opt.seed),
        opt.trace ? &probe : nullptr);
    if (f->nodes->wait_for_primary(std::chrono::seconds(10)) < 0) return f;
    const std::string eps = f->nodes->endpoints();
    f->pairs = std::make_unique<api::client>(eps);
    f->prober = std::make_unique<api::client>(eps);
    f->holder = std::make_unique<net::client>(eps);
    f->checker = std::make_unique<net::client>(eps);
    f->ok = f->pairs->connected() && f->prober->connected() &&
            f->holder->connected() && f->checker->connected();
    if (f->ok) {
      api::acquired got = f->pairs->try_acquire("warm");
      f->ok = got.won() && got.lease.release() == svc::lease_status::ok;
    }
    return f;
  });
  if (!fx->ok) {
    out.violation("replicated: cluster never elected a primary or clients "
                  "failed to connect");
    return;
  }
  const net::server_config nc = default_server_config();
  config_notes(out, fx->nodes->service_config(), &nc, fx->nodes->reactors());
  out.set("tcp.echo_rtt_p50_us", tcp_echo_rtt_p50_us(2000), "us");
  out.note("cluster_members", std::to_string(members));

  window w;
  std::atomic<bool> pairs_stop{false};
  std::atomic<bool> probes_stop{false};
  lane_summary lane;
  prober probes;
  std::thread pair_thread([&] {
    pair_lane_config cfg;
    cfg.worker = pair_worker;
    cfg.prefix = "rp/";
    cfg.seed = opt.seed * 31337;
    // The traced raw lane runs through the holder's connection, idle
    // until the failover, so a run never opens more than 4 clients.
    net::client* raw = opt.trace ? fx->holder.get() : nullptr;
    lane = run_pair_lane(cfg, *fx->pairs, raw, pairs_stop, w, &history);
  });
  std::thread probe_thread(
      [&] { probes.run(*fx->prober, probes_stop, probe_worker, history); });

  // The measured window comes first: pairs through a healthy cluster.
  // Then the pairs stop and, under the prober's traffic alone, the
  // primary is hard-stopped once: time the succession, check the lease
  // held across it, restart the old primary as a follower and wait for
  // it to catch up. (Under the pair lane's load a restarted follower
  // falls behind the log compaction and campaigns, deposing the primary
  // again and again; that is a finding, not a workload.)
  std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
  const repl::node_counters c0 = fx->nodes->counters();
  proc.begin_window();
  w.open();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(opt.seconds * steady_share));
  w.close();
  proc.end_window();
  pairs_stop.store(true);
  pair_thread.join();

  std::uint64_t held_failed = 0;
  auto held_violation = [&](const std::string& why) {
    ++held_failed;
    out.violation("replicated: " + why);
  };
  auto hist = [&](int worker, chaos::op_kind op, chaos::outcome o,
                  const std::string& key, std::uint64_t epoch,
                  std::uint64_t h0) {
    history.push(history_record(worker, op, o, key, epoch, h0, history_us()));
  };
  double failover_ms = 0.0;
  [&] {
    const int p = fx->nodes->primary();
    if (p < 0) {
      held_violation("no primary before the failover");
      return;
    }
    // A lease held across the failover.
    const std::string key = "held";
    std::uint64_t h0 = history_us();
    const svc::acquire_result held =
        settle([&] { return fx->holder->try_acquire(key); });
    hist(holder_worker, chaos::op_kind::acquire, outcome_of(held), key,
         held.epoch, h0);
    if (!held.won) {
      held_violation("acquire of free key " + key + " before failover lost");
      return;
    }
    const std::uint64_t stop_at = now_ns();
    fx->nodes->stop_member(p);
    std::uint64_t acked = 0;
    while ((acked = probes.first_ack_after(stop_at)) == 0 &&
           now_ns() - stop_at < 10'000'000'000ull) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (acked == 0) {
      held_violation("no scheduled probe acked within 10 s of the stop");
      return;
    }
    failover_ms = static_cast<double>(acked - stop_at) / 1e6;

    // The held lease must come back preserved (renew ok) or fenced
    // (stale/not_leader), and the key must never be re-granted at or
    // below the held epoch.
    h0 = history_us();
    const svc::lease_status renewed =
        settle([&] { return fx->holder->renew(key, held.epoch); });
    hist(holder_worker, chaos::op_kind::renew, outcome_of(renewed), key,
         held.epoch, h0);
    if (renewed == svc::lease_status::ok) {
      h0 = history_us();
      const svc::lease_status rel =
          settle([&] { return fx->holder->release(key, held.epoch); });
      hist(holder_worker, chaos::op_kind::release, outcome_of(rel), key,
           held.epoch, h0);
      if (rel != svc::lease_status::ok) {
        held_violation("release of preserved lease " + key + " refused");
      }
    } else if (renewed == svc::lease_status::connection_lost) {
      held_violation("lease " + key + " neither preserved nor fenced");
    }
    h0 = history_us();
    const svc::acquire_result again =
        settle([&] { return fx->checker->try_acquire(key); });
    hist(checker_worker, chaos::op_kind::acquire, outcome_of(again), key,
         again.epoch, h0);
    if (!again.won) {
      held_violation("freed key " + key + " not grantable after failover");
    } else {
      if (again.epoch <= held.epoch) {
        held_violation("key " + key + " re-granted at epoch " +
                       std::to_string(again.epoch) + " <= held epoch " +
                       std::to_string(held.epoch));
      }
      h0 = history_us();
      const svc::lease_status rel =
          settle([&] { return fx->checker->release(key, again.epoch); });
      hist(checker_worker, chaos::op_kind::release, outcome_of(rel), key,
           again.epoch, h0);
    }

    // The old primary rejoins as a follower and must catch up.
    const std::uint64_t restart_at = now_ns();
    fx->nodes->restart_member(p);
    std::uint64_t caught_up = 0;
    std::uint64_t settled = 0;
    while (settled == 0 && now_ns() - restart_at < 10'000'000'000ull) {
      if (caught_up == 0 && fx->nodes->caught_up(p)) caught_up = now_ns();
      if (caught_up != 0) settled = probes.first_ack_after(caught_up);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (settled == 0) {
      held_violation("restarted member did not catch up within 10 s");
    }
  }();
  const repl::node_counters c1 = fx->nodes->counters();
  probes_stop.store(true);
  probe_thread.join();

  if (lane.run_failures > 0) {
    out.violation("replicated: " + std::to_string(lane.run_failures) +
                  " pairs on private keys did not win and release");
  }
  history.check(out);

  out.attempt(lane.attempted + 1);
  out.fail(lane.failed + held_failed);
  proc.rows(out, lane.attempted);
  pair_rows(out, lane, w.seconds(), active_tracer());
  if (failover_ms > 0) out.set("failover_ms", failover_ms, "ms");
  {
    const std::lock_guard<std::mutex> lock(probe.mutex);
    out.set("repl.commit_wait_p50_us", probe.commit_wait.p(0.5), "us");
    out.set("repl.commit_wait_p99_us", probe.commit_wait.p(0.99), "us");
    out.set("repl.peer_p50_us", probe.peer.p(0.5), "us");
  }
  const double appends =
      static_cast<double>(c1.appends_sent - c0.appends_sent);
  out.set("repl.entries_per_append",
          appends > 0 ? static_cast<double>(c1.entries_replicated -
                                            c0.entries_replicated) /
                            appends
                      : 0.0,
          "count");
  out.set("repl.append_failures",
          static_cast<double>(c1.append_failures - c0.append_failures),
          "count");
  out.set("repl.commit_timeouts",
          static_cast<double>(c1.commit_timeouts - c0.commit_timeouts),
          "count");
  out.set("repl.elections_started",
          static_cast<double>(c1.elections_started - c0.elections_started),
          "count");
}

}  // namespace lb
