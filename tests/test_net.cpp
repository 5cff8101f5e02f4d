// elect::net tests: wire codec round-trips and incremental framing,
// then the full TCP loop — remote sessions over a loopback server,
// unique winner across remote clients, out-of-order pipelined
// completion, backpressure, clean remote double-release verdicts, the
// metrics fetch, and the acceptance crash scenario: kill a client
// socket mid-lease and prove the key is re-grantable via the
// disconnect-on-close hook (well inside the PR 2 TTL + sweep bound).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/nemesis.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------
// Wire codec.

TEST(NetWire, RequestRoundTripsThroughFrameAndCodec) {
  net::wire::request r;
  r.id = 0x0123456789ABCDEFull;
  r.kind = net::wire::op::try_acquire_for;
  r.key = "locks/compactor";
  r.epoch = 42;
  r.timeout_ms = 1500;

  const auto frame = net::wire::encode_request(r);
  // Frame = 4-byte little-endian length prefix + body.
  ASSERT_GT(frame.size(), 4u);
  const std::uint32_t length = frame[0] | (frame[1] << 8) | (frame[2] << 16) |
                               (static_cast<std::uint32_t>(frame[3]) << 24);
  ASSERT_EQ(frame.size(), 4u + length);

  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  const auto decoded = net::wire::decode_request(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, r.id);
  EXPECT_EQ(decoded->kind, r.kind);
  EXPECT_EQ(decoded->key, r.key);
  EXPECT_EQ(decoded->epoch, r.epoch);
  EXPECT_EQ(decoded->timeout_ms, r.timeout_ms);
}

TEST(NetWire, ResponseRoundTripsWithFlagsAndBody) {
  net::wire::response r;
  r.id = 7;
  r.kind = net::wire::op::metrics;
  r.result = net::wire::status::ok;
  r.flags = net::wire::flag_won | net::wire::flag_fast_path;
  r.epoch = 9;
  r.lease_remaining_ms = net::wire::lease_forever;
  r.body = "{\"acquires\":1}";

  const auto frame = net::wire::encode_response(r);
  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  const auto decoded = net::wire::decode_response(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 7u);
  EXPECT_TRUE(decoded->won());
  EXPECT_TRUE(decoded->fast_path());
  EXPECT_EQ(decoded->lease_remaining_ms, net::wire::lease_forever);
  EXPECT_EQ(decoded->body, r.body);
}

TEST(NetWire, DecodeRejectsTruncationTrailingGarbageAndUnknownOps) {
  const auto frame = net::wire::encode_request(net::wire::make_hello_request());
  std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());

  std::vector<std::uint8_t> truncated(body.begin(), body.end() - 1);
  EXPECT_FALSE(net::wire::decode_request(truncated).has_value());

  std::vector<std::uint8_t> trailing = body;
  trailing.push_back(0);
  EXPECT_FALSE(net::wire::decode_request(trailing).has_value());

  std::vector<std::uint8_t> bad_op = body;
  bad_op[8] = 250;  // op byte follows the u64 id
  EXPECT_FALSE(net::wire::decode_request(bad_op).has_value());
}

TEST(NetWire, FrameReaderReassemblesByteDribbleAndPipelinedBursts) {
  net::wire::request a;
  a.id = 1;
  a.kind = net::wire::op::try_acquire;
  a.key = "k/a";
  net::wire::request b;
  b.id = 2;
  b.kind = net::wire::op::release;
  b.key = "k/b";

  std::vector<std::uint8_t> stream;
  for (const auto& r : {a, b}) {
    const auto frame = net::wire::encode_request(r);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  // Feed one byte at a time: both frames must reassemble exactly.
  net::wire::frame_reader dribble;
  std::vector<net::wire::request> seen;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(dribble.feed(&byte, 1));
    while (auto body = dribble.next()) {
      const auto req = net::wire::decode_request(*body);
      ASSERT_TRUE(req.has_value());
      seen.push_back(*req);
    }
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].id, 1u);
  EXPECT_EQ(seen[0].key, "k/a");
  EXPECT_EQ(seen[1].id, 2u);
  EXPECT_EQ(seen[1].key, "k/b");

  // Feed the whole burst at once: same two frames.
  net::wire::frame_reader burst;
  ASSERT_TRUE(burst.feed(stream.data(), stream.size()));
  int frames = 0;
  while (burst.next().has_value()) ++frames;
  EXPECT_EQ(frames, 2);
}

TEST(NetWire, OversizedFramePoisonsTheReader) {
  // Length prefix claiming more than max_frame_bytes: corruption or a
  // hostile peer; the reader must refuse and stay refused.
  const std::uint32_t huge = net::wire::max_frame_bytes + 1;
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
  }
  net::wire::frame_reader reader;
  EXPECT_FALSE(reader.feed(prefix, sizeof prefix));
  EXPECT_TRUE(reader.poisoned());
  const std::uint8_t byte = 0;
  EXPECT_FALSE(reader.feed(&byte, 1));
  EXPECT_FALSE(reader.next().has_value());
}

// ---------------------------------------------------------------------
// End-to-end over loopback.

struct remote_stack {
  explicit remote_stack(svc::service_config service_config = {.nodes = 4,
                                                              .shards = 2},
                        net::server_config server_config = {})
      : service(std::move(service_config)),
        server(service, std::move(server_config)) {}

  [[nodiscard]] std::unique_ptr<net::client> connect() const {
    return std::make_unique<net::client>("127.0.0.1", server.port());
  }

  svc::service service;
  net::server server;
};

TEST(NetServer, StartsOnEphemeralPortAndStopsIdempotently) {
  remote_stack stack;
  ASSERT_TRUE(stack.server.listening());
  EXPECT_GT(stack.server.port(), 0);
  stack.server.stop();
  stack.server.stop();
}

TEST(NetClient, HandshakeConnectsAndBadPortFails) {
  remote_stack stack;
  ASSERT_TRUE(stack.server.listening());
  const auto good = stack.connect();
  EXPECT_TRUE(good->connected());

  // A port nobody listens on: constructor fails cleanly, calls degrade
  // — and report the transport verdict, not a fencing verdict: the
  // connection was never established, which is a sever, not a close().
  net::client bad("127.0.0.1", 1);
  EXPECT_FALSE(bad.connected());
  EXPECT_EQ(bad.reason(), net::close_reason::severed);
  const auto attempt = bad.try_acquire("x");
  EXPECT_TRUE(attempt.rejected);
  EXPECT_TRUE(attempt.connection_lost);
  EXPECT_EQ(bad.release("x"), svc::lease_status::connection_lost);
}

TEST(NetRemote, SoloAcquireWinsRenewsAndReleases) {
  remote_stack stack({.nodes = 4, .shards = 2, .lease_ttl_ms = 60'000,
                      .sweep_interval_ms = 30'000});
  const auto client = stack.connect();
  ASSERT_TRUE(client->connected());

  const auto won = client->try_acquire("remote/solo");
  ASSERT_TRUE(won.won);
  EXPECT_EQ(won.epoch, 0u);
  EXPECT_FALSE(won.rejected);
  // The lease deadline came over the wire as remaining-ms and landed on
  // this clock in the right ballpark.
  const auto remaining = won.lease_deadline - std::chrono::steady_clock::now();
  EXPECT_GT(remaining, 30s);
  EXPECT_LT(remaining, 120s);

  EXPECT_EQ(client->renew("remote/solo", won.epoch), svc::lease_status::ok);
  EXPECT_EQ(client->release("remote/solo", won.epoch), svc::lease_status::ok);
  // Re-electable immediately at the next epoch.
  const auto again = client->try_acquire("remote/solo");
  ASSERT_TRUE(again.won);
  EXPECT_EQ(again.epoch, 1u);
  EXPECT_EQ(client->release("remote/solo", again.epoch),
            svc::lease_status::ok);
}

TEST(NetRemote, UniqueWinnerAcrossRemoteClients) {
  // The paper's test-and-set invariant, now across processes' worth of
  // state: every client is its own TCP connection (own svc session);
  // exactly one of them may win each (key, epoch).
  constexpr int clients = 6;
  constexpr int rounds = 5;
  remote_stack stack({.nodes = clients, .shards = 4, .seed = 17});

  std::vector<std::unique_ptr<net::client>> handles;
  for (int i = 0; i < clients; ++i) {
    handles.push_back(stack.connect());
    ASSERT_TRUE(handles.back()->connected());
  }

  for (int round = 0; round < rounds; ++round) {
    const std::string key = "contested/" + std::to_string(round);
    std::vector<char> won(clients, 0);
    std::vector<std::thread> racers;
    racers.reserve(clients);
    for (int i = 0; i < clients; ++i) {
      racers.emplace_back([&, i] {
        won[static_cast<std::size_t>(i)] =
            handles[static_cast<std::size_t>(i)]->try_acquire(key).won;
      });
    }
    for (auto& t : racers) t.join();
    int winners = 0;
    for (int i = 0; i < clients; ++i) {
      winners += won[static_cast<std::size_t>(i)] ? 1 : 0;
    }
    EXPECT_EQ(winners, 1) << "round " << round;
  }
}

TEST(NetRemote, BlockingAcquireHandsLeadershipAround) {
  constexpr int clients = 4;
  remote_stack stack({.nodes = clients, .shards = 2, .seed = 23});
  std::vector<std::unique_ptr<net::client>> handles;
  for (int i = 0; i < clients; ++i) {
    handles.push_back(stack.connect());
    ASSERT_TRUE(handles.back()->connected());
  }

  std::atomic<int> inside{0};
  std::atomic<int> entries{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < clients; ++i) {
    threads.emplace_back([&, i] {
      auto& client = *handles[static_cast<std::size_t>(i)];
      const auto result = client.acquire("remote/mutex");
      EXPECT_TRUE(result.won);
      const int concurrent = inside.fetch_add(1) + 1;
      EXPECT_EQ(concurrent, 1) << "two remote holders at once";
      entries.fetch_add(1);
      inside.fetch_sub(1);
      EXPECT_EQ(client.release("remote/mutex", result.epoch),
                svc::lease_status::ok);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(entries.load(), clients);
}

TEST(NetRemote, TimedAcquireTimesOutWhileHeld) {
  remote_stack stack;
  const auto holder = stack.connect();
  const auto waiter = stack.connect();
  const auto held = holder->try_acquire("remote/bounded");
  ASSERT_TRUE(held.won);

  const auto missed = waiter->try_acquire_for("remote/bounded", 100ms);
  EXPECT_FALSE(missed.won);
  EXPECT_TRUE(missed.timed_out);

  ASSERT_EQ(holder->release("remote/bounded", held.epoch),
            svc::lease_status::ok);
  const auto won = waiter->try_acquire_for("remote/bounded", 10'000ms);
  EXPECT_TRUE(won.won);
  EXPECT_FALSE(won.timed_out);
  EXPECT_EQ(waiter->release("remote/bounded", won.epoch),
            svc::lease_status::ok);
}

TEST(NetRemote, PipelinedRequestsCompleteOutOfOrder) {
  // One connection, two in-flight requests: a blocking acquire parked
  // behind a held key, then a metrics fetch submitted after it. The
  // metrics response must overtake the parked acquire — that is what
  // the request ids are for.
  remote_stack stack;
  const auto holder = stack.connect();
  const auto pipelined = stack.connect();
  const auto held = holder->try_acquire("remote/held");
  ASSERT_TRUE(held.won);

  const std::uint64_t blocked_id =
      pipelined->submit(net::wire::op::acquire, "remote/held");
  ASSERT_NE(blocked_id, 0u);
  const std::uint64_t quick_id = pipelined->submit(net::wire::op::metrics);
  ASSERT_NE(quick_id, 0u);

  // The later-submitted metrics fetch answers while the acquire stays
  // parked server-side.
  const auto quick = pipelined->take(quick_id);
  ASSERT_TRUE(quick.has_value());
  EXPECT_EQ(quick->result, net::wire::status::ok);
  EXPECT_NE(quick->body.find("\"net\":{"), std::string::npos);

  // Now free the key; the parked acquire completes with the win.
  ASSERT_EQ(holder->release("remote/held", held.epoch),
            svc::lease_status::ok);
  const auto blocked = pipelined->take(blocked_id);
  ASSERT_TRUE(blocked.has_value());
  EXPECT_TRUE(blocked->won());
  EXPECT_EQ(pipelined->release("remote/held", blocked->epoch),
            svc::lease_status::ok);
}

TEST(NetRemote, BackpressureCapStillAnswersEverything) {
  // Flood one connection far past its in-flight cap: the server pauses
  // reading (backpressure) instead of buffering without bound, and
  // every request is still answered exactly once.
  net::server_config server_config;
  server_config.max_inflight_per_connection = 4;
  remote_stack stack({.nodes = 2, .shards = 2}, server_config);
  const auto client = stack.connect();
  ASSERT_TRUE(client->connected());

  constexpr int burst = 64;
  std::vector<std::uint64_t> ids;
  ids.reserve(burst);
  for (int i = 0; i < burst; ++i) {
    ids.push_back(client->submit(net::wire::op::try_acquire,
                                 "flood/" + std::to_string(i)));
    ASSERT_NE(ids.back(), 0u);
  }
  int wins = 0;
  for (const std::uint64_t id : ids) {
    const auto r = client->take(id);
    ASSERT_TRUE(r.has_value());
    if (r->won()) ++wins;
  }
  EXPECT_EQ(wins, burst);  // distinct keys: every acquire wins
}

TEST(NetRemote, DoubleReleaseAndZombieVerdictsAreCleanOverTheWire) {
  remote_stack stack;
  const auto client = stack.connect();
  const auto won = client->try_acquire("remote/twice");
  ASSERT_TRUE(won.won);

  EXPECT_EQ(client->release("remote/twice", won.epoch),
            svc::lease_status::ok);
  // Every second-release path maps to the same verdicts a local session
  // gets: stale fencing for the old epoch, not_leader unfenced.
  EXPECT_EQ(client->release("remote/twice", won.epoch),
            svc::lease_status::stale_epoch);
  EXPECT_EQ(client->release("remote/twice"), svc::lease_status::not_leader);
  EXPECT_EQ(client->renew("remote/twice", won.epoch),
            svc::lease_status::stale_epoch);
  // A key this client never held, at its implicit epoch 0.
  EXPECT_EQ(client->release("remote/never", 0), svc::lease_status::not_leader);
}

TEST(NetRemote, GracefulDisconnectReleasesEverythingHeld) {
  remote_stack stack;
  const auto leaver = stack.connect();
  const auto other = stack.connect();
  ASSERT_TRUE(leaver->try_acquire("g/0").won);
  ASSERT_TRUE(leaver->try_acquire("g/1").won);
  ASSERT_TRUE(other->try_acquire("g/2").won);

  EXPECT_EQ(leaver->disconnect(), 2u);
  EXPECT_EQ(stack.service.registry().leader_of("g/0"), -1);
  EXPECT_EQ(stack.service.registry().leader_of("g/1"), -1);
  EXPECT_NE(stack.service.registry().leader_of("g/2"), -1);
  // The connection survives a polite disconnect.
  EXPECT_TRUE(leaver->try_acquire("g/0").won);
}

// The acceptance crash scenario. A remote client holds a lease and its
// socket dies without a disconnect op. The server's disconnect-on-close
// hook must make the key re-grantable immediately — and in the worst
// case (FIN never arrives) PR 2's TTL + one sweep bound still applies,
// so the re-grant deadline asserted here is that bound.
TEST(NetRemote, KilledClientSocketMidLeaseIsReclaimed) {
  constexpr std::uint64_t ttl_ms = 400;
  constexpr std::uint64_t sweep_ms = 20;
  remote_stack stack({.nodes = 4,
                      .shards = 2,
                      .seed = 7,
                      .lease_ttl_ms = ttl_ms,
                      .sweep_interval_ms = sweep_ms});
  auto doomed = stack.connect();
  const auto heir = stack.connect();
  ASSERT_TRUE(doomed->connected());
  ASSERT_TRUE(heir->connected());

  const auto won = doomed->try_acquire("remote/crashy");
  ASSERT_TRUE(won.won);
  ASSERT_EQ(stack.service.registry().leader_of("remote/crashy"),
            static_cast<int>(doomed->session_id()));

  // Kill the socket — no disconnect op, exactly like a crashed process.
  const auto crash_time = std::chrono::steady_clock::now();
  doomed->close();

  // The heir must inherit within ~TTL + one sweep (the local PR 2
  // bound); with the close hook it is near-immediate, but the assert
  // only relies on the guaranteed bound.
  const auto heir_result = heir->try_acquire_for(
      "remote/crashy", std::chrono::milliseconds(ttl_ms + 10 * sweep_ms));
  const auto waited = std::chrono::steady_clock::now() - crash_time;
  ASSERT_TRUE(heir_result.won);
  EXPECT_GE(heir_result.epoch, 1u);
  EXPECT_LE(waited, std::chrono::milliseconds(ttl_ms + 10 * sweep_ms));
  EXPECT_EQ(stack.service.registry().leader_of("remote/crashy"),
            static_cast<int>(heir->session_id()));

  // The reclaim is attributed to the network edge.
  EXPECT_GE(stack.server.report().disconnect_reclaims, 1u);
  EXPECT_EQ(heir->release("remote/crashy", heir_result.epoch),
            svc::lease_status::ok);
}

// Regression: a try_acquire pipelined right before the socket closes
// can be dispatched in the same read pass that sees the EOF — its win
// lands *after* disconnect-on-close already swept the session. With
// never-expiring leases (ttl 0) an unreclaimed win would wedge the key
// forever; the server must hand such a win straight back.
TEST(NetRemote, FireAndCloseTryAcquireNeverOrphansTheKey) {
  remote_stack stack({.nodes = 2, .shards = 2});  // lease_ttl_ms = 0
  for (int round = 0; round < 20; ++round) {
    const std::string key = "fire/" + std::to_string(round);
    {
      auto doomed = stack.connect();
      ASSERT_TRUE(doomed->connected());
      ASSERT_NE(doomed->submit(net::wire::op::try_acquire, key), 0u);
      doomed->close();  // don't take(): the response may never exist
    }
    // Whichever way the race fell — response before EOF processing, or
    // win after disconnect — the key must be acquirable again, bounded
    // only by teardown latency, never by a lease that can't expire.
    const auto survivor = stack.connect();
    ASSERT_TRUE(survivor->connected());
    const auto regained = survivor->try_acquire_for(key, 5'000ms);
    ASSERT_TRUE(regained.won) << "round " << round << ": key orphaned";
    EXPECT_EQ(survivor->release(key, regained.epoch), svc::lease_status::ok);
  }
}

TEST(NetRemote, MetricsFetchCarriesNetAndServiceSections) {
  remote_stack stack;
  const auto client = stack.connect();
  ASSERT_TRUE(client->try_acquire("m/1").won);
  const std::string json = client->metrics_json();
  ASSERT_FALSE(json.empty());
  // Service section keys.
  EXPECT_NE(json.find("\"acquires\":"), std::string::npos);
  EXPECT_NE(json.find("\"strategies\":{"), std::string::npos);
  // Net section keys.
  EXPECT_NE(json.find("\"net\":{"), std::string::npos);
  EXPECT_NE(json.find("\"frames_in\":"), std::string::npos);
  EXPECT_NE(json.find("\"dispatch_batches\":"), std::string::npos);
  EXPECT_NE(json.find("\"disconnect_reclaims\":"), std::string::npos);
}

TEST(NetRemote, ServerStopRejectsRemoteCallsCleanly) {
  remote_stack stack;
  const auto client = stack.connect();
  ASSERT_TRUE(client->try_acquire("stopme").won);
  stack.server.stop();
  // The socket died with the server: calls degrade, nothing hangs.
  const auto after = client->try_acquire("stopme");
  EXPECT_FALSE(after.won);
  EXPECT_TRUE(after.rejected);
  // The connection's session was disconnected, so the lease is free.
  EXPECT_EQ(stack.service.registry().leader_of("stopme"), -1);
}

TEST(NetRemote, SaturatedWaiterCapRetriesThroughBusyAndStillWins) {
  // Regression for the busy path: with max_waiters=1, a parked blocking
  // acquire saturates the server's entire blocking capacity, so a
  // second client's acquire is answered `busy`. The client must absorb
  // that with bounded exponential-backoff retries and *still win* once
  // the holder releases — previously busy could surface to the caller
  // looking exactly like a shutdown rejection.
  remote_stack stack({.nodes = 4, .shards = 2},
                     {.max_waiters = 1});
  const auto holder = stack.connect();
  const auto parked = stack.connect();
  const auto contender = stack.connect();
  ASSERT_TRUE(holder->connected());
  ASSERT_TRUE(parked->connected());
  ASSERT_TRUE(contender->connected());

  const auto held = holder->try_acquire("busy/key");
  ASSERT_TRUE(held.won);

  // Occupy the single waiter slot with an acquire that will park until
  // the holder releases.
  svc::acquire_result parked_result;
  std::thread parked_thread(
      [&] { parked_result = parked->acquire("busy/key"); });
  // Wait until the waiter slot is actually taken (the parked acquire is
  // server-side), so the contender is guaranteed to hit the cap.
  const auto armed_by = std::chrono::steady_clock::now() + 5s;
  while (stack.service.registry().leader_of("busy/key") == -1 ||
         stack.server.report().requests < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), armed_by);
    std::this_thread::sleep_for(5ms);
  }

  svc::acquire_result contender_result;
  std::thread contender_thread(
      [&] { contender_result = contender->acquire("busy/key"); });
  // Let the contender bounce off the cap at least once before the
  // holder releases; busy_rejections proves the retries happened.
  const auto busy_by = std::chrono::steady_clock::now() + 5s;
  while (stack.server.report().busy_rejections == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), busy_by);
    std::this_thread::sleep_for(5ms);
  }

  EXPECT_EQ(holder->release("busy/key", held.epoch),
            svc::lease_status::ok);
  parked_thread.join();
  ASSERT_TRUE(parked_result.won);
  EXPECT_EQ(parked->release("busy/key", parked_result.epoch),
            svc::lease_status::ok);
  contender_thread.join();
  ASSERT_TRUE(contender_result.won)
      << "busy must be retried, not surfaced as a loss";
  EXPECT_GE(stack.server.report().busy_rejections, 1u);
}

TEST(NetRemote, RenewRefreshesTheReportedDeadline) {
  remote_stack stack({.nodes = 2, .shards = 2, .lease_ttl_ms = 60'000,
                      .sweep_interval_ms = 30'000});
  const auto client = stack.connect();
  const auto won = client->try_acquire("renew/deadline");
  ASSERT_TRUE(won.won);
  std::chrono::steady_clock::time_point refreshed{};
  ASSERT_EQ(client->renew("renew/deadline", won.epoch, &refreshed),
            svc::lease_status::ok);
  // The refreshed deadline is a full TTL out (modulo round-trip time).
  const auto remaining = refreshed - std::chrono::steady_clock::now();
  EXPECT_GT(remaining, 55s);
  EXPECT_LE(remaining, 61s);
}

TEST(NetRemote, WatchEventsArriveOverTheWire) {
  remote_stack stack({.nodes = 2, .shards = 2, .lease_ttl_ms = 30'000,
                      .sweep_interval_ms = 10'000});
  const auto watcher = stack.connect();
  const auto actor = stack.connect();

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<svc::watch_event> events;
  const std::uint64_t sub = watcher->watch(
      "wired/leader", [&](const svc::watch_event& e) {
        const std::lock_guard<std::mutex> lock(mutex);
        events.push_back(e);
        cv.notify_all();
      });
  ASSERT_NE(sub, 0u);

  const auto won = actor->try_acquire("wired/leader");
  ASSERT_TRUE(won.won);
  EXPECT_EQ(actor->release("wired/leader", won.epoch),
            svc::lease_status::ok);

  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 3s, [&] { return events.size() >= 2; }));
    bool saw_elected = false;
    bool saw_released = false;
    for (const auto& e : events) {
      EXPECT_EQ(e.key, "wired/leader");
      EXPECT_EQ(e.epoch, won.epoch);
      if (e.kind == svc::transition::elected) saw_elected = true;
      if (e.kind == svc::transition::released) saw_released = true;
    }
    EXPECT_TRUE(saw_elected);
    EXPECT_TRUE(saw_released);
  }

  // After unwatch, a new transition stays silent (push side torn down).
  watcher->unwatch(sub);
  std::size_t seen;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    seen = events.size();
  }
  const auto again = actor->try_acquire("wired/leader");
  ASSERT_TRUE(again.won);
  EXPECT_EQ(actor->release("wired/leader", again.epoch),
            svc::lease_status::ok);
  std::this_thread::sleep_for(150ms);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(events.size(), seen);
  }
  const auto report = stack.server.report();
  EXPECT_GE(report.watch_subscriptions, 1u);
  EXPECT_GE(report.events_pushed, 2u);
}

TEST(NetRemote, TwoWatchesOnOneKeyDeliverExactlyOnceEach) {
  // Regression: two subscriptions to the same key on one connection
  // must share one server-side subscription — each callback sees every
  // transition exactly once, not once per sibling subscription.
  remote_stack stack;
  const auto watcher = stack.connect();
  const auto actor = stack.connect();

  std::mutex mutex;
  std::condition_variable cv;
  int first_count = 0;
  int second_count = 0;
  const std::uint64_t first = watcher->watch(
      "dup/key", [&](const svc::watch_event&) {
        const std::lock_guard<std::mutex> lock(mutex);
        ++first_count;
        cv.notify_all();
      });
  const std::uint64_t second = watcher->watch(
      "dup/key", [&](const svc::watch_event&) {
        const std::lock_guard<std::mutex> lock(mutex);
        ++second_count;
        cv.notify_all();
      });
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);
  ASSERT_NE(first, second);
  EXPECT_EQ(stack.service.report().watch.active, 1u)
      << "one key must hold exactly one server-side subscription";

  const auto won = actor->try_acquire("dup/key");
  ASSERT_TRUE(won.won);
  EXPECT_EQ(actor->release("dup/key", won.epoch), svc::lease_status::ok);

  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 3s, [&] {
      return first_count >= 2 && second_count >= 2;
    }));
  }
  // Let any (wrong) duplicates trickle in before counting exactly.
  std::this_thread::sleep_for(150ms);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(first_count, 2);   // elected + released, once each
    EXPECT_EQ(second_count, 2);
  }
  watcher->unwatch(first);
  // The shared server subscription survives until the last local ref.
  EXPECT_EQ(stack.service.report().watch.active, 1u);
  watcher->unwatch(second);
  const auto gone_by = std::chrono::steady_clock::now() + 3s;
  while (stack.service.report().watch.active != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), gone_by);
    std::this_thread::sleep_for(5ms);
  }
}

TEST(NetRemote, WatchCallbackMayCallTheClientSynchronously) {
  // Regression: callbacks run on a dedicated event thread, not the
  // reader — so a callback can issue request/response ops on the SAME
  // client (local/remote parity; on the reader this would deadlock
  // waiting for its own reply).
  remote_stack stack;
  const auto watcher = stack.connect();
  const auto actor = stack.connect();

  std::mutex mutex;
  std::condition_variable cv;
  bool reacquired = false;
  const std::uint64_t sub = watcher->watch(
      "reentrant/key", [&](const svc::watch_event& e) {
        if (e.kind != svc::transition::released) return;
        // A synchronous round trip from inside the callback.
        const auto won = watcher->try_acquire("reentrant/key");
        const std::lock_guard<std::mutex> lock(mutex);
        reacquired = won.won;
        cv.notify_all();
      });
  ASSERT_NE(sub, 0u);

  const auto won = actor->try_acquire("reentrant/key");
  ASSERT_TRUE(won.won);
  EXPECT_EQ(actor->release("reentrant/key", won.epoch),
            svc::lease_status::ok);

  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return reacquired; }))
      << "synchronous call from a watch callback deadlocked";
}

TEST(NetRemote, DeadConnectionTearsDownItsWatches) {
  remote_stack stack;
  {
    const auto doomed = stack.connect();
    std::uint64_t id = doomed->watch(
        "teardown/key", [](const svc::watch_event&) {});
    ASSERT_NE(id, 0u);
    // Destroying the client closes the socket without unwatching.
  }
  // The server-side hub subscription must be gone (finish_connection's
  // cleanup); give the loop a moment to observe the close.
  const auto gone_by = std::chrono::steady_clock::now() + 3s;
  while (stack.service.report().watch.active != 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), gone_by);
    std::this_thread::sleep_for(5ms);
  }
}

// ---------------------------------------------------------------------
// Multi-reactor coverage. reuseport=false forces the single-listener
// round-robin accept path, which deals connections across reactors
// deterministically (starting at reactor 1) — so these tests exercise
// cross-reactor behavior even when the kernel would have hashed every
// loopback connection onto one listener.

net::server_config reactor_config(int reactors, bool reuseport = false) {
  net::server_config config;
  config.reactors = reactors;
  config.reuseport = reuseport;
  return config;
}

// Satellite regression: close() with responses still in flight must
// fail the pending requests cleanly — no blocked take(), no deadlock
// between the closing thread and waiters, and a concurrent double
// close must be safe.
TEST(NetClient, CloseWithInFlightRequestsFailsThemCleanly) {
  remote_stack stack;
  const auto holder = stack.connect();
  auto doomed = stack.connect();
  ASSERT_TRUE(holder->connected());
  ASSERT_TRUE(doomed->connected());

  const auto held = holder->try_acquire("close/held");
  ASSERT_TRUE(held.won);

  // Park an acquire server-side (it can only complete when the holder
  // releases — which never happens) plus a metrics call racing close.
  const std::uint64_t parked_id =
      doomed->submit(net::wire::op::acquire, "close/held");
  ASSERT_NE(parked_id, 0u);

  std::atomic<bool> took{false};
  std::thread waiter([&] {
    // Blocks until close() fails it; must NOT hang.
    const auto r = doomed->take(parked_id);
    EXPECT_FALSE(r.has_value());  // clean loss, not a response
    took.store(true);
  });
  std::thread spammer([&] {
    // More traffic in flight while the connection dies.
    for (int i = 0; i < 50; ++i) {
      (void)doomed->submit(net::wire::op::metrics);
    }
  });
  std::this_thread::sleep_for(20ms);
  std::thread closer_a([&] { doomed->close(); });
  std::thread closer_b([&] { doomed->close(); });  // concurrent double close
  closer_a.join();
  closer_b.join();
  spammer.join();

  // The parked waiter must have been released promptly by the close.
  const auto freed_by = std::chrono::steady_clock::now() + 5s;
  while (!took.load()) {
    ASSERT_LT(std::chrono::steady_clock::now(), freed_by)
        << "take() still blocked after close()";
    std::this_thread::sleep_for(5ms);
  }
  waiter.join();
  // Post-close submits fail cleanly (id 0), and close stays idempotent.
  EXPECT_EQ(doomed->submit(net::wire::op::metrics), 0u);
  doomed->close();
  EXPECT_EQ(holder->release("close/held", held.epoch), svc::lease_status::ok);
}

TEST(NetReactors, UniqueWinnerAcrossClientsOnDifferentReactors) {
  constexpr int clients = 8;
  constexpr int rounds = 5;
  remote_stack stack({.nodes = clients, .shards = 4, .seed = 11},
                     reactor_config(4));
  ASSERT_EQ(stack.server.reactor_count(), 4);

  std::vector<std::unique_ptr<net::client>> handles;
  for (int i = 0; i < clients; ++i) {
    handles.push_back(stack.connect());
    ASSERT_TRUE(handles.back()->connected());
  }
  // Round-robin accept: 8 connections over 4 reactors = 2 each.
  const auto spread = stack.server.report();
  ASSERT_EQ(spread.per_reactor.size(), 4u);
  int hosting = 0;
  for (const auto& s : spread.per_reactor) hosting += s.accepted > 0 ? 1 : 0;
  EXPECT_GE(hosting, 2) << "connections were not spread across reactors";

  for (int round = 0; round < rounds; ++round) {
    const std::string key = "xreactor/" + std::to_string(round);
    std::vector<char> won(clients, 0);
    std::vector<std::thread> racers;
    racers.reserve(clients);
    for (int i = 0; i < clients; ++i) {
      racers.emplace_back([&, i] {
        won[static_cast<std::size_t>(i)] =
            handles[static_cast<std::size_t>(i)]->try_acquire(key).won;
      });
    }
    for (auto& t : racers) t.join();
    int winners = 0;
    for (int i = 0; i < clients; ++i) {
      winners += won[static_cast<std::size_t>(i)] ? 1 : 0;
    }
    EXPECT_EQ(winners, 1) << "round " << round;
  }
}

TEST(NetReactors, KilledSocketOffReactorZeroIsReclaimed) {
  // The disconnect-on-close reclaim must work when the dead connection
  // lives on a reactor other than 0 (teardown runs on the owning
  // reactor's thread, wherever that is). Round-robin adoption starts at
  // reactor 1, so the doomed connection is guaranteed off reactor 0.
  constexpr std::uint64_t ttl_ms = 400;
  constexpr std::uint64_t sweep_ms = 20;
  remote_stack stack({.nodes = 4,
                      .shards = 2,
                      .seed = 7,
                      .lease_ttl_ms = ttl_ms,
                      .sweep_interval_ms = sweep_ms},
                     reactor_config(4));
  auto doomed = stack.connect();
  const auto heir = stack.connect();
  ASSERT_TRUE(doomed->connected());
  ASSERT_TRUE(heir->connected());
  {
    const auto report = stack.server.report();
    ASSERT_EQ(report.per_reactor.size(), 4u);
    EXPECT_EQ(report.per_reactor[0].accepted, 0u)
        << "expected round-robin adoption to start off reactor 0";
    EXPECT_GE(report.per_reactor[1].accepted, 1u);
  }

  const auto won = doomed->try_acquire("offzero/crashy");
  ASSERT_TRUE(won.won);
  doomed->close();  // no disconnect op: a crash

  const auto heir_result = heir->try_acquire_for(
      "offzero/crashy", std::chrono::milliseconds(ttl_ms + 10 * sweep_ms));
  ASSERT_TRUE(heir_result.won);
  EXPECT_GE(stack.server.report().disconnect_reclaims, 1u);
  EXPECT_EQ(heir->release("offzero/crashy", heir_result.epoch),
            svc::lease_status::ok);
}

TEST(NetReactors, BackpressureCapHoldsPerConnectionUnderFourReactors) {
  // Four flooding connections on four reactors: each must be paused
  // against ITS cap independently, and every request still answered.
  net::server_config server_config = reactor_config(4);
  server_config.max_inflight_per_connection = 4;
  remote_stack stack({.nodes = 4, .shards = 4}, server_config);

  constexpr int clients = 4;
  constexpr int burst = 64;
  std::vector<std::unique_ptr<net::client>> handles;
  for (int i = 0; i < clients; ++i) {
    handles.push_back(stack.connect());
    ASSERT_TRUE(handles.back()->connected());
  }
  std::atomic<int> wins{0};
  std::vector<std::thread> flooders;
  for (int c = 0; c < clients; ++c) {
    flooders.emplace_back([&, c] {
      auto& client = *handles[static_cast<std::size_t>(c)];
      std::vector<std::uint64_t> ids;
      ids.reserve(burst);
      for (int i = 0; i < burst; ++i) {
        ids.push_back(client.submit(
            net::wire::op::try_acquire,
            "bp/" + std::to_string(c) + "/" + std::to_string(i)));
      }
      for (const std::uint64_t id : ids) {
        const auto r = client.take(id);
        if (r.has_value() && r->won()) wins.fetch_add(1);
      }
    });
  }
  for (auto& t : flooders) t.join();
  EXPECT_EQ(wins.load(), clients * burst);  // disjoint keys: all won
  EXPECT_GE(stack.server.report().backpressure_pauses, 1u);
}

TEST(NetReactors, WatchFanoutAcrossReactorsDeliversExactlyOnce) {
  // Watchers pinned to different reactors all subscribe to ONE key; a
  // transition must reach every one of them exactly once (the shared
  // encoded buffer fans out per reactor — no duplicates, no misses).
  constexpr int watchers = 6;
  remote_stack stack({.nodes = 2, .shards = 2}, reactor_config(4));
  std::vector<std::unique_ptr<net::client>> handles;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> counts(watchers, 0);
  for (int w = 0; w < watchers; ++w) {
    handles.push_back(stack.connect());
    ASSERT_TRUE(handles.back()->connected());
    const std::uint64_t id = handles.back()->watch(
        "fan/one", [&, w](const svc::watch_event&) {
          const std::lock_guard<std::mutex> lock(mutex);
          ++counts[static_cast<std::size_t>(w)];
          cv.notify_all();
        });
    ASSERT_NE(id, 0u);
  }

  const auto actor = stack.connect();
  const auto won = actor->try_acquire("fan/one");
  ASSERT_TRUE(won.won);
  EXPECT_EQ(actor->release("fan/one", won.epoch), svc::lease_status::ok);

  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] {
      for (const int c : counts) {
        if (c < 2) return false;
      }
      return true;
    })) << "not every watcher heard both transitions";
  }
  std::this_thread::sleep_for(150ms);  // let any (wrong) duplicates land
  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (int w = 0; w < watchers; ++w) {
      EXPECT_EQ(counts[static_cast<std::size_t>(w)], 2)
          << "watcher " << w << " saw a duplicate or missed an event";
    }
  }
  // elected + released to each of the 6 watchers = 12 pushed frames.
  EXPECT_GE(stack.server.report().events_pushed,
            static_cast<std::uint64_t>(2 * watchers));
}

TEST(NetClient, StripedClientSpreadsKeysAndDisconnectsEverything) {
  remote_stack stack({.nodes = 8, .shards = 4}, reactor_config(4));
  net::client striped("127.0.0.1", stack.server.port(), 4);
  ASSERT_TRUE(striped.connected());
  EXPECT_EQ(striped.stripe_count(), 4u);
  // Four stripes = four server connections (sessions).
  EXPECT_GE(stack.server.report().connections_accepted, 4u);

  constexpr int keys = 8;
  std::vector<std::uint64_t> epochs(keys);
  for (int k = 0; k < keys; ++k) {
    const auto won = striped.try_acquire("stripe/" + std::to_string(k));
    ASSERT_TRUE(won.won) << "key " << k;
    epochs[static_cast<std::size_t>(k)] = won.epoch;
  }
  // Release half through the API; the polite disconnect must sweep the
  // rest across ALL stripes' sessions, not just stripe 0's.
  for (int k = 0; k < keys / 2; ++k) {
    EXPECT_EQ(striped.release("stripe/" + std::to_string(k),
                              epochs[static_cast<std::size_t>(k)]),
              svc::lease_status::ok);
  }
  EXPECT_EQ(striped.disconnect(), static_cast<std::size_t>(keys - keys / 2));
  for (int k = 0; k < keys; ++k) {
    EXPECT_EQ(stack.service.registry().leader_of("stripe/" +
                                                 std::to_string(k)),
              -1)
        << "key " << k << " still held after striped disconnect";
  }
  striped.close();
}

// ---------------------------------------------------------------------
// Connection loss vs local close (chaos PR): the two ways a transport
// dies must be distinguishable in the returned statuses.

TEST(NetClient, RemoteSeverDuringInFlightTakeReportsConnectionLost) {
  auto stack = std::make_unique<remote_stack>(
      svc::service_config{.nodes = 4, .shards = 2});
  const auto holder = stack->connect();
  ASSERT_TRUE(holder->connected());
  const auto won = holder->try_acquire("sever/key");
  ASSERT_TRUE(won.won);

  // A second client submits a blocking acquire that never arrives: a
  // nemesis proxy black-holes the frame and then severs the pair —
  // a real network sever with the request in flight. (server.stop()
  // would not do: a graceful stop *answers* parked ops with rejected
  // before closing; only a sever leaves the take empty.)
  chaos::nemesis_config nemesis_config;
  nemesis_config.upstream_port = stack->server.port();
  nemesis_config.seed = 11;
  chaos::nemesis proxy(nemesis_config);
  ASSERT_TRUE(proxy.running());
  const auto blocked =
      std::make_unique<net::client>("127.0.0.1", proxy.port());
  ASSERT_TRUE(blocked->connected());
  chaos::fault_policy black_hole;
  black_hole.drop = 1.0;
  proxy.set_policy(black_hole);
  const std::uint64_t id = blocked->submit(net::wire::op::acquire,
                                           "sever/key");
  ASSERT_NE(id, 0u);
  const auto dropped = std::chrono::steady_clock::now() +
                       std::chrono::seconds(5);
  while (proxy.stats().frames_dropped == 0 &&
         std::chrono::steady_clock::now() < dropped) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(proxy.stats().frames_dropped, 1u);
  proxy.set_policy({});  // phase boundary: severs the tainted pair

  // The in-flight take() fails cleanly, and every verdict says
  // *severed*, not closed: acquire-family calls report rejected +
  // connection_lost, lease calls report lease_status::connection_lost.
  EXPECT_FALSE(blocked->take(id).has_value());
  EXPECT_EQ(blocked->reason(), net::close_reason::severed);
  EXPECT_FALSE(blocked->connected());
  const auto after = blocked->try_acquire("sever/key");
  EXPECT_TRUE(after.rejected);
  EXPECT_TRUE(after.connection_lost);
  EXPECT_EQ(blocked->release("sever/key", 0),
            svc::lease_status::connection_lost);
  EXPECT_EQ(blocked->renew("sever/key", 0),
            svc::lease_status::connection_lost);

  // The holder's direct connection dies with the server itself; a call
  // submitted after the transport is gone reports the loss the same way.
  stack->server.stop();
  EXPECT_EQ(holder->release("sever/key", won.epoch),
            svc::lease_status::connection_lost);
  EXPECT_EQ(holder->reason(), net::close_reason::severed);

  // A sever already recorded is not rewritten by a later close():
  // the first cause wins.
  holder->close();
  EXPECT_EQ(holder->reason(), net::close_reason::severed);
}

TEST(NetClient, LocalCloseKeepsTheOriginalCrashSemanticsMapping) {
  remote_stack stack;
  const auto client = stack.connect();
  ASSERT_TRUE(client->connected());
  ASSERT_TRUE(client->try_acquire("close/key").won);
  EXPECT_EQ(client->reason(), net::close_reason::none);

  client->close();
  // This process hung up: calls degrade with the PR-4 mapping (plain
  // rejected / stale_epoch), and reason() reports the local close.
  EXPECT_EQ(client->reason(), net::close_reason::local_close);
  const auto after = client->try_acquire("close/key");
  EXPECT_TRUE(after.rejected);
  EXPECT_FALSE(after.connection_lost);
  EXPECT_EQ(client->release("close/key", 0), svc::lease_status::stale_epoch);
}

// ---------------------------------------------------------------------
// One request path: every request is served on its reactor, and a
// blocking acquire that loses parks as a continuation — no executor
// queue, no thread per waiter.

/// A bare wire connection: handshake, pipelined sends, and responses in
/// arrival order (net::client hands them out per request id instead).
class wire_socket {
 public:
  explicit wire_socket(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    const auto hello = net::wire::encode_request(net::wire::make_hello_request());
    const auto answer =
        write(hello) ? next(std::chrono::seconds(5)) : std::nullopt;
    ok_ = answer.has_value() && answer->result == net::wire::status::ok;
  }
  ~wire_socket() { close(); }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Send one request; returns its id (0 if the write failed).
  std::uint64_t send(net::wire::op kind, const std::string& key = "",
                     std::uint64_t epoch = 0, std::uint64_t timeout_ms = 0) {
    net::wire::request r;
    r.id = next_id_++;
    r.kind = kind;
    r.key = key;
    r.epoch = epoch;
    r.timeout_ms = timeout_ms;
    return write(net::wire::encode_request(r)) ? r.id : 0;
  }

  /// The next response frame; empty on timeout or EOF.
  std::optional<net::wire::response> next(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    for (;;) {
      if (auto frame = reader_.next()) {
        return net::wire::decode_response(*frame);
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      pollfd pfd{fd_, POLLIN, 0};
      if (left.count() < 0 ||
          ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
        return std::nullopt;
      }
      std::uint8_t buffer[16 * 1024];
      const ssize_t got = ::recv(fd_, buffer, sizeof buffer, 0);
      if (got <= 0) {
        eof_ = true;
        return std::nullopt;
      }
      if (!reader_.feed(buffer, static_cast<std::size_t>(got))) {
        return std::nullopt;
      }
    }
  }

  [[nodiscard]] bool eof() const { return eof_; }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  bool write(const std::vector<std::uint8_t>& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  int fd_ = -1;
  bool ok_ = false;
  bool eof_ = false;
  std::uint64_t next_id_ = 1;
  net::wire::frame_reader reader_;
};

/// Block until the server has decoded at least `n` requests.
void wait_for_requests(const net::server& server, std::uint64_t n) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.report().requests < n) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(2ms);
  }
}

std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// The read-pause deadlock: acquires parked on a key their own
// connection holds used to count toward max_inflight_per_connection, so
// the socket stopped being read — and the fenced release that would
// unpark them sat unread behind the pause until the lease TTL (forever
// here: no TTL). Parked acquires no longer count.
TEST(NetRemote, ParkedAcquiresDoNotHoldTheReadPauseShut) {
  remote_stack stack({.nodes = 4, .shards = 2},
                     {.max_inflight_per_connection = 4});
  wire_socket conn(stack.server.port());
  ASSERT_TRUE(conn.ok());
  ASSERT_NE(conn.send(net::wire::op::try_acquire, "pause/key"), 0u);
  const auto held = conn.next(5s);
  ASSERT_TRUE(held.has_value());
  ASSERT_TRUE(held->won());

  constexpr int parked = 6;  // past the cap of 4
  for (int i = 0; i < parked; ++i) {
    ASSERT_NE(conn.send(net::wire::op::acquire, "pause/key"), 0u);
  }
  wait_for_requests(stack.server, 1 + parked);
  if (HasFatalFailure()) return;

  const auto released_at = std::chrono::steady_clock::now();
  const std::uint64_t release_id =
      conn.send(net::wire::op::release_fenced, "pause/key", held->epoch);
  ASSERT_NE(release_id, 0u);
  bool release_answered = false;
  bool waiter_won = false;
  while (!(release_answered && waiter_won)) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        released_at + 1s - std::chrono::steady_clock::now());
    const auto r = conn.next(left);
    if (!r.has_value()) break;
    if (r->id == release_id) {
      EXPECT_EQ(r->result, net::wire::status::ok);
      release_answered = true;
    } else if (r->won()) {
      waiter_won = true;
    }
  }
  EXPECT_TRUE(release_answered) << "release stuck behind the read pause";
  EXPECT_TRUE(waiter_won) << "no parked acquire won within 1 s";
}

// A peer that pipelines requests and then resets its socket before the
// answers leaves the server writing to a dead connection. That must be
// an EPIPE for the server, never a SIGPIPE for its process — so this
// runs under the default disposition, where SIGPIPE kills the process.
TEST(NetRemote, ResetPeerBeforeTheAnswersRaisesNoSigpipe) {
  const auto previous = std::signal(SIGPIPE, SIG_DFL);
  remote_stack stack;
  for (int round = 0; round < 50; ++round) {
    wire_socket peer(stack.server.port());
    ASSERT_TRUE(peer.ok());
    // Metrics answers are a few KiB each: plenty left to write when
    // the reset lands.
    for (int i = 0; i < 32; ++i) {
      ASSERT_NE(peer.send(net::wire::op::metrics), 0u);
    }
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(peer.fd(), SOL_SOCKET, SO_LINGER, &reset,
                           sizeof reset),
              0);
    peer.close();  // RST, not FIN
  }
  // Still alive, and still serving.
  const auto client = stack.connect();
  ASSERT_TRUE(client->connected());
  EXPECT_TRUE(client->try_acquire("sigpipe/after").won);
  std::signal(SIGPIPE, previous);
}

// 256 blocking acquires parked on 8 held keys over 4 connections: the
// server holds them as continuations, so the process gains no thread
// (the old path ran one per waiter) — and every one of them still wins
// once the holders let go.
TEST(NetWaiters, ParkedAcquiresAddNoThreadsAndAllWin) {
  remote_stack stack({.nodes = 4, .shards = 2});
  constexpr int keys = 8;
  constexpr int connections = 4;
  constexpr int per_connection = 64;
  const auto holder = stack.connect();
  ASSERT_TRUE(holder->connected());
  std::vector<std::uint64_t> held(keys);
  for (int k = 0; k < keys; ++k) {
    const auto got = holder->try_acquire("park/" + std::to_string(k));
    ASSERT_TRUE(got.won);
    held[static_cast<std::size_t>(k)] = got.epoch;
  }
  std::vector<std::unique_ptr<wire_socket>> conns;
  for (int c = 0; c < connections; ++c) {
    conns.push_back(std::make_unique<wire_socket>(stack.server.port()));
    ASSERT_TRUE(conns.back()->ok());
  }

  const std::size_t threads_before = process_threads();
  // Per connection: request id -> key, to release each win.
  std::vector<std::map<std::uint64_t, std::string>> keys_by_id(connections);
  for (int c = 0; c < connections; ++c) {
    for (int j = 0; j < per_connection; ++j) {
      const std::string key =
          "park/" + std::to_string((c * per_connection + j) % keys);
      const std::uint64_t id = conns[static_cast<std::size_t>(c)]->send(
          net::wire::op::acquire, key);
      ASSERT_NE(id, 0u);
      keys_by_id[static_cast<std::size_t>(c)][id] = key;
    }
  }
  wait_for_requests(stack.server, keys + connections * per_connection);
  if (HasFatalFailure()) return;
  std::this_thread::sleep_for(100ms);  // let the first attempts settle
  EXPECT_EQ(process_threads(), threads_before);
  EXPECT_EQ(stack.server.report().busy_rejections, 0u);

  for (int k = 0; k < keys; ++k) {
    ASSERT_EQ(holder->release("park/" + std::to_string(k),
                              held[static_cast<std::size_t>(k)]),
              svc::lease_status::ok);
  }
  // Hand every win straight back; each release unparks the next.
  int wins = 0;
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (wins < connections * per_connection &&
         std::chrono::steady_clock::now() < deadline) {
    for (int c = 0; c < connections; ++c) {
      wire_socket& conn = *conns[static_cast<std::size_t>(c)];
      while (const auto r = conn.next(1ms)) {
        if (r->kind != net::wire::op::acquire) continue;
        ASSERT_TRUE(r->won()) << net::wire::to_string(r->result);
        ++wins;
        ASSERT_NE(conn.send(net::wire::op::release_fenced,
                            keys_by_id[static_cast<std::size_t>(c)][r->id],
                            r->epoch),
                  0u);
      }
    }
  }
  EXPECT_EQ(wins, connections * per_connection);
}

// server.stop() answers every blocking acquire still open — parked
// ones, timed ones, and any mid-attempt — instead of dropping them.
TEST(NetWaiters, ServerStopAnswersEveryParkedAcquire) {
  remote_stack stack({.nodes = 4, .shards = 2});
  const auto holder = stack.connect();
  ASSERT_TRUE(holder->try_acquire("stop/key").won);
  wire_socket conn(stack.server.port());
  ASSERT_TRUE(conn.ok());
  constexpr int parked = 8;
  for (int i = 0; i < parked; ++i) {
    ASSERT_NE(i % 2 == 0
                  ? conn.send(net::wire::op::acquire, "stop/key")
                  : conn.send(net::wire::op::try_acquire_for, "stop/key", 0,
                              60'000),
              0u);
  }
  wait_for_requests(stack.server, 1 + parked);
  if (HasFatalFailure()) return;
  stack.server.stop();
  int rejected = 0;
  while (const auto r = conn.next(5s)) {
    EXPECT_EQ(r->result, net::wire::status::rejected);
    ++rejected;
  }
  EXPECT_TRUE(conn.eof());
  EXPECT_EQ(rejected, parked);
}

}  // namespace
}  // namespace elect
