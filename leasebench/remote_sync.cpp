// remote-sync: two closed-loop threads, each with one remote
// api::client, run pairs on private keys (3:1 try_acquire : blocking
// acquire). The server idles between requests, so a pair is two wire
// round trips and the time goes to the client library, reactor wake,
// executor hop and flush; the registry CAS is cheap and no election
// runs.
#include <memory>
#include <thread>

#include "api/client.hpp"
#include "net/client.hpp"
#include "pairs.hpp"

namespace lb {

namespace {

constexpr int threads = 2;

struct sync_fixture {
  std::unique_ptr<svc::service> service;
  std::unique_ptr<net::server> server;
  std::vector<std::unique_ptr<api::client>> clients;
  std::vector<std::unique_ptr<net::client>> raws;
  bool ok = false;
};

/// One warm pair, so connection and first-key set-up land in setup_s.
bool warm(api::client& c, const std::string& key) {
  api::acquired got = c.try_acquire(key);
  return got.won() && got.lease.release() == svc::lease_status::ok;
}

}  // namespace

void run_remote_sync(const options& opt, result& out) {
  proc_sampler proc;
  const svc::service_config sc = default_service_config(opt.seed);
  const net::server_config nc = default_server_config();
  auto fx = timed_setup<sync_fixture>(out, [&] {
    auto f = std::make_unique<sync_fixture>();
    f->service = std::make_unique<svc::service>(sc);
    f->server = std::make_unique<net::server>(*f->service, nc);
    if (!f->server->listening()) return f;
    f->ok = true;
    for (int i = 0; i < threads; ++i) {
      f->clients.push_back(
          std::make_unique<api::client>("127.0.0.1", f->server->port()));
      f->ok = f->ok && f->clients.back()->connected() &&
              warm(*f->clients.back(), "warm/" + std::to_string(i));
      if (opt.trace) {
        f->raws.push_back(
            std::make_unique<net::client>("127.0.0.1", f->server->port()));
        f->ok = f->ok && f->raws.back()->connected();
      }
    }
    return f;
  });
  if (!fx->ok) {
    out.violation("remote-sync: server or clients failed to come up");
    return;
  }
  config_notes(out, sc, &nc, fx->server->reactor_count());
  out.set("tcp.echo_rtt_p50_us", tcp_echo_rtt_p50_us(2000), "us");

  window w;
  std::atomic<bool> stop{false};
  std::vector<lane_summary> lanes(threads);
  std::vector<std::thread> workers;
  for (int i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      const auto idx = static_cast<std::size_t>(i);
      pair_lane_config cfg;
      cfg.worker = i;
      cfg.prefix = "rs/" + std::to_string(i) + "/";
      cfg.seed = opt.seed * 1000003 + idx;
      net::client* raw = opt.trace ? fx->raws[idx].get() : nullptr;
      lanes[idx] =
          run_pair_lane(cfg, *fx->clients[idx], raw, stop, w,
                                 nullptr);
    });
  }
  svc_counters s0;
  svc_counters s1;
  net::net_report n0;
  net::net_report n1;
  w.run(
      opt.seconds, stop,
      [&] {
        s0 = read_svc(*fx->service);
        n0 = fx->server->report();
        proc.begin_window();
      },
      [&] {
        s1 = read_svc(*fx->service);
        n1 = fx->server->report();
        proc.end_window();
      });
  for (auto& t : workers) t.join();

  lane_summary sum;
  for (const auto& l : lanes) sum.merge(l);
  // Every pair is on a private key: each acquire must win and each
  // release must be accepted.
  if (sum.run_failures > 0) {
    out.violation("remote-sync: " + std::to_string(sum.run_failures) +
                  " pairs on private keys did not win and release");
  }
  out.attempt(sum.attempted);
  out.fail(sum.failed);
  proc.rows(out, sum.attempted);
  pair_rows(out, sum, w.seconds(), active_tracer());
  svc_layer_rows(out, s0, s1);
  net_layer_rows(out, n0, n1, sum.pairs);
}

}  // namespace lb
