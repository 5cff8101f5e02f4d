// elect::repl tests: cluster config parsing/validation, the replicated
// log container, the new wire statuses (not_primary / connection_lost)
// and peer ops, the follower side of replication driven directly
// through handle_peer (append/commit/apply, conflicting-tail
// truncation, replay-rejection forcing a snapshot request, snapshot
// install healing a seq gap, one-shot votes with the log-up-to-date
// check), and full in-process clusters over loopback: single-primary
// election, redirect-following clients, epoch-fenced failover with a
// held lease, and a late follower catching up via snapshot + suffix.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/client.hpp"
#include "net/client.hpp"
#include "cmd/command.hpp"
#include "cmd/log_entry.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "repl/config.hpp"
#include "repl/log.hpp"
#include "repl/node.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------
// Cluster configuration.

TEST(ReplConfig, ParseEndpointAcceptsHostPortRejectsMalformed) {
  const auto good = repl::parse_endpoint("10.0.0.7:7400");
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->host, "10.0.0.7");
  EXPECT_EQ(good->port, 7400);
  EXPECT_EQ(good->to_string(), "10.0.0.7:7400");

  EXPECT_FALSE(repl::parse_endpoint("no-colon").has_value());
  EXPECT_FALSE(repl::parse_endpoint(":7400").has_value());
  EXPECT_FALSE(repl::parse_endpoint("host:").has_value());
  EXPECT_FALSE(repl::parse_endpoint("host:0").has_value());
  EXPECT_FALSE(repl::parse_endpoint("host:65536").has_value());
  EXPECT_FALSE(repl::parse_endpoint("host:7x0").has_value());
}

TEST(ReplConfig, ParseEndpointsSplitsListAndRejectsFirstBadElement) {
  const auto list = repl::parse_endpoints("a:1,b:2,c:3");
  ASSERT_TRUE(list.has_value());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_EQ((*list)[1].to_string(), "b:2");

  EXPECT_FALSE(repl::parse_endpoints("a:1,broken,c:3").has_value());
  const auto empty = repl::parse_endpoints("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(ReplConfig, ValidateCatchesEachMisconfiguration) {
  repl::cluster_config good;
  good.members = {{"a", 1}, {"b", 2}, {"c", 3}};
  good.self = 1;
  EXPECT_FALSE(good.validate().has_value());
  EXPECT_EQ(good.quorum(), 2);

  repl::cluster_config c = good;
  c.members.clear();
  EXPECT_TRUE(c.validate().has_value());

  c = good;
  c.self = 3;
  EXPECT_TRUE(c.validate().has_value());

  c = good;
  c.fence_bump = 0;
  EXPECT_TRUE(c.validate().has_value());

  c = good;
  c.election_timeout_min_ms = c.heartbeat_ms * 2;  // must strictly exceed
  EXPECT_TRUE(c.validate().has_value());

  c = good;
  c.election_timeout_max_ms = c.election_timeout_min_ms - 1;
  EXPECT_TRUE(c.validate().has_value());
}

// ---------------------------------------------------------------------
// The replicated log container.

cmd::log_entry entry_at_term(std::uint64_t term) {
  cmd::log_entry e;
  e.term = term;
  return e;
}

TEST(ReplLog, AppendTruncateSliceAndTermQueries) {
  repl::replicated_log log;
  EXPECT_EQ(log.last_index(), 0u);
  EXPECT_EQ(log.first_index(), 1u);

  log.append(entry_at_term(1));
  log.append(entry_at_term(1));
  log.append(entry_at_term(2));
  EXPECT_EQ(log.last_index(), 3u);
  EXPECT_EQ(log.term_at(2), 1u);
  EXPECT_EQ(log.term_at(3), 2u);
  EXPECT_EQ(log.last_term(), 2u);
  EXPECT_EQ(log.term_at(4), 0u);  // past the end

  const auto batch = log.slice(1, 3);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[1].term, 2u);

  log.truncate_from(3);
  EXPECT_EQ(log.last_index(), 2u);
  EXPECT_EQ(log.last_term(), 1u);
  log.truncate_from(10);  // no-op past the end
  EXPECT_EQ(log.last_index(), 2u);
}

TEST(ReplLog, CompactionKeepsTheSuffixAndResetRestarts) {
  repl::replicated_log log;
  for (int i = 0; i < 4; ++i) log.append(entry_at_term(1));

  log.compact_to(2, 1, {0xAA, 0xBB});
  EXPECT_EQ(log.snapshot_last_index(), 2u);
  EXPECT_EQ(log.snapshot_last_term(), 1u);
  EXPECT_EQ(log.first_index(), 3u);
  EXPECT_EQ(log.last_index(), 4u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.term_at(2), 1u);  // the compaction boundary keeps its term
  EXPECT_EQ(log.term_at(1), 0u);  // below it is gone

  log.truncate_from(1);  // at-or-below the snapshot: only entries drop
  EXPECT_EQ(log.last_index(), 2u);
  EXPECT_EQ(log.size(), 0u);

  log.reset_to(10, 4, {0x01});
  EXPECT_EQ(log.last_index(), 10u);
  EXPECT_EQ(log.last_term(), 4u);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.snapshot_bytes().size(), 1u);
}

// ---------------------------------------------------------------------
// Wire: the cluster-era statuses and peer ops survive the codec.

TEST(ReplWire, ConnectionLostStatusRoundTrips) {
  net::wire::response r;
  r.id = 11;
  r.kind = net::wire::op::try_acquire;
  r.result = net::wire::status::connection_lost;
  const auto frame = net::wire::encode_response(r);
  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  const auto decoded = net::wire::decode_response(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->result, net::wire::status::connection_lost);
}

TEST(ReplWire, NotPrimaryRedirectCarriesTheEndpointHint) {
  net::wire::response r;
  r.id = 12;
  r.kind = net::wire::op::renew;
  r.result = net::wire::status::not_primary;
  r.body = "10.1.2.3:7410";
  const auto frame = net::wire::encode_response(r);
  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  const auto decoded = net::wire::decode_response(body);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->result, net::wire::status::not_primary);
  EXPECT_EQ(decoded->body, "10.1.2.3:7410");
}

TEST(ReplWire, PeerOpsRoundTripWithOpaqueBodies) {
  for (const auto kind : {net::wire::op::peer_vote, net::wire::op::peer_append,
                          net::wire::op::peer_snapshot}) {
    net::wire::request r;
    r.id = 99;
    r.kind = kind;
    r.body = std::string("\x01\x02\x03\xFF", 4);
    const auto frame = net::wire::encode_request(r);
    const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
    const auto decoded = net::wire::decode_request(body);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->kind, kind);
    EXPECT_EQ(decoded->body, r.body);
  }
}

// ---------------------------------------------------------------------
// The follower side of replication, driven directly through
// handle_peer. The peer envelopes are file-local to node.cpp, so the
// tests mirror the codec (a drift here is a wire break worth failing
// on). Election timeouts are set far past the test runtime and the
// node is never start()ed: it stays a pure follower.

struct vote_req {
  std::uint64_t term = 0;
  std::int32_t candidate = -1;
  std::uint64_t last_log_index = 0;
  std::uint64_t last_log_term = 0;
};

struct append_req {
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint64_t prev_index = 0;
  std::uint64_t prev_term = 0;
  std::uint64_t leader_commit = 0;
  std::vector<cmd::log_entry> entries;
};

struct snap_req {
  std::uint64_t term = 0;
  std::int32_t leader = -1;
  std::uint64_t last_index = 0;
  std::uint64_t last_term = 0;
  std::string bytes;
};

std::string encode_body(const vote_req& v) {
  cmd::byte_writer out;
  out.u64(v.term);
  out.i32(v.candidate);
  out.u64(v.last_log_index);
  out.u64(v.last_log_term);
  return out.take();
}

std::string encode_body(const append_req& a) {
  cmd::byte_writer out;
  out.u64(a.term);
  out.i32(a.leader);
  out.u64(a.prev_index);
  out.u64(a.prev_term);
  out.u64(a.leader_commit);
  out.u32(static_cast<std::uint32_t>(a.entries.size()));
  for (const cmd::log_entry& e : a.entries) {
    out.u64(e.term);
    cmd::encode_command(out, e.change);
  }
  return out.take();
}

std::string encode_body(const snap_req& s) {
  cmd::byte_writer out;
  out.u64(s.term);
  out.i32(s.leader);
  out.u64(s.last_index);
  out.u64(s.last_term);
  out.str(s.bytes);
  return out.take();
}

struct vote_resp {
  std::uint64_t term = 0;
  bool granted = false;
};

struct append_resp {
  std::uint64_t term = 0;
  bool success = false;
  std::uint64_t match_hint = 0;
  bool need_snapshot = false;
};

struct snap_resp {
  std::uint64_t term = 0;
  bool ok = false;
};

vote_resp decode_vote(const std::string& body) {
  cmd::byte_reader in(body);
  vote_resp v;
  std::uint8_t granted = 0;
  EXPECT_TRUE(in.u64(v.term) && in.u8(granted) && in.exhausted());
  v.granted = granted != 0;
  return v;
}

append_resp decode_append(const std::string& body) {
  cmd::byte_reader in(body);
  append_resp a;
  std::uint8_t success = 0;
  std::uint8_t need = 0;
  EXPECT_TRUE(in.u64(a.term) && in.u8(success) && in.u64(a.match_hint) &&
              in.u8(need) && in.exhausted());
  a.success = success != 0;
  a.need_snapshot = need != 0;
  return a;
}

snap_resp decode_snap(const std::string& body) {
  cmd::byte_reader in(body);
  snap_resp s;
  std::uint8_t ok = 0;
  EXPECT_TRUE(in.u64(s.term) && in.u8(ok) && in.exhausted());
  s.ok = ok != 0;
  return s;
}

template <typename Body>
net::wire::request peer_request(net::wire::op kind, const Body& body) {
  net::wire::request r;
  r.id = 1;
  r.kind = kind;
  r.body = encode_body(body);
  return r;
}

struct follower_harness {
  follower_harness()
      : service({.nodes = 4, .shards = 2, .record_commands = true}),
        node(make_config(), service) {}

  static repl::cluster_config make_config() {
    repl::cluster_config c;
    // Nobody listens on these; the node is never started, so it never
    // dials out and never times out into a candidacy.
    c.members = {{"127.0.0.1", 1}, {"127.0.0.1", 2}, {"127.0.0.1", 3}};
    c.self = 0;
    c.election_timeout_min_ms = 3'600'000;
    c.election_timeout_max_ms = 7'200'000;
    return c;
  }

  cmd::command grant(const std::string& key, std::uint64_t seq, int session,
                     std::uint64_t epoch) {
    cmd::command c;
    c.seq = seq;
    c.shard = service.registry().shard_of(key);
    c.kind = cmd::command_kind::acquire_granted;
    c.key = key;
    c.session = session;
    c.epoch = epoch;
    c.mode = cmd::grant_mode_protocol;
    c.at_ms = 10 * seq;
    return c;
  }

  cmd::command release(const std::string& key, std::uint64_t seq, int session,
                       std::uint64_t epoch) {
    cmd::command c;
    c.seq = seq;
    c.shard = service.registry().shard_of(key);
    c.kind = cmd::command_kind::released;
    c.key = key;
    c.session = session;
    c.epoch = epoch;
    c.at_ms = 10 * seq;
    return c;
  }

  static cmd::log_entry at_term(std::uint64_t term, cmd::command c) {
    cmd::log_entry e;
    e.term = term;
    e.change = std::move(c);
    return e;
  }

  svc::service service;
  repl::node node;
};

TEST(ReplNode, FollowerAppendsThenAppliesOnlyOnceCommitted) {
  follower_harness h;

  append_req first;
  first.term = 1;
  first.leader = 1;
  first.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/a", 1, 7, 0)));
  auto resp = h.node.handle_peer(
      peer_request(net::wire::op::peer_append, first));
  ASSERT_EQ(resp.result, net::wire::status::ok);
  auto a = decode_append(resp.body);
  EXPECT_TRUE(a.success);
  EXPECT_EQ(a.match_hint, 1u);
  // Uncommitted: the entry lives in the log only, not the registry.
  EXPECT_EQ(h.node.commit_index(), 0u);
  EXPECT_FALSE(h.service.registry().inspect("locks/a").has_value());

  append_req heartbeat;
  heartbeat.term = 1;
  heartbeat.leader = 1;
  heartbeat.prev_index = 1;
  heartbeat.prev_term = 1;
  heartbeat.leader_commit = 1;
  resp = h.node.handle_peer(
      peer_request(net::wire::op::peer_append, heartbeat));
  a = decode_append(resp.body);
  EXPECT_TRUE(a.success);
  EXPECT_EQ(h.node.commit_index(), 1u);
  const auto state = h.service.registry().inspect("locks/a");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->leader, 7);
  EXPECT_EQ(state->entry.epoch, 0u);
}

TEST(ReplNode, ConflictingUncommittedTailIsTruncatedByTheNewTerm) {
  follower_harness h;

  // Term 1 ships two entries but only commits the first; the second is
  // a dead primary's unacked tail.
  append_req old_primary;
  old_primary.term = 1;
  old_primary.leader = 1;
  old_primary.leader_commit = 1;
  old_primary.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/b", 1, 7, 0)));
  old_primary.entries.push_back(
      follower_harness::at_term(1, h.release("locks/b", 2, 7, 0)));
  auto a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, old_primary))
          .body);
  ASSERT_TRUE(a.success);
  ASSERT_EQ(h.node.commit_index(), 1u);

  // The new term's history disagrees at index 2: the follower must
  // truncate its tail and accept the replacement.
  append_req new_primary;
  new_primary.term = 2;
  new_primary.leader = 2;
  new_primary.prev_index = 1;
  new_primary.prev_term = 1;
  new_primary.leader_commit = 2;
  new_primary.entries.push_back(
      follower_harness::at_term(2, h.release("locks/b", 2, 7, 0)));
  a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, new_primary))
          .body);
  EXPECT_TRUE(a.success);
  EXPECT_FALSE(a.need_snapshot);
  EXPECT_EQ(a.match_hint, 2u);
  EXPECT_EQ(h.node.commit_index(), 2u);
  EXPECT_EQ(h.node.current_term(), 2u);
  // The release applied: the epoch ended and the key reopened.
  const auto state = h.service.registry().inspect("locks/b");
  ASSERT_TRUE(state.has_value());
  EXPECT_EQ(state->leader, -1);
}

TEST(ReplNode, SeqGapRejectsReplayAndSnapshotInstallHeals) {
  follower_harness h;

  append_req first;
  first.term = 1;
  first.leader = 1;
  first.leader_commit = 1;
  first.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/c", 1, 7, 0)));
  ASSERT_TRUE(decode_append(h.node
                                .handle_peer(peer_request(
                                    net::wire::op::peer_append, first))
                                .body)
                  .success);

  // seq 3 after seq 1 is a replay gap: the registry refuses, and the
  // follower must demand a snapshot rather than diverge silently.
  append_req gap;
  gap.term = 1;
  gap.leader = 1;
  gap.prev_index = 1;
  gap.prev_term = 1;
  gap.leader_commit = 2;
  gap.entries.push_back(
      follower_harness::at_term(1, h.release("locks/c", 3, 7, 0)));
  auto a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, gap)).body);
  EXPECT_TRUE(a.need_snapshot);

  // Every later append keeps answering need_snapshot until an install.
  append_req heartbeat;
  heartbeat.term = 1;
  heartbeat.leader = 1;
  heartbeat.prev_index = 2;
  heartbeat.prev_term = 1;
  a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, heartbeat))
          .body);
  EXPECT_TRUE(a.need_snapshot);
  EXPECT_FALSE(a.success);

  // Build the primary's true state (grant, release, regrant) in a
  // scratch registry with the same shape and install it.
  svc::service scratch({.nodes = 4, .shards = 2});
  ASSERT_FALSE(scratch.registry().apply(h.grant("locks/c", 1, 7, 0)));
  ASSERT_FALSE(scratch.registry().apply(h.release("locks/c", 2, 7, 0)));
  ASSERT_FALSE(scratch.registry().apply(h.grant("locks/c", 3, 8, 1)));
  const auto bytes = scratch.registry().snapshot();

  snap_req install;
  install.term = 1;
  install.leader = 1;
  install.last_index = 3;
  install.last_term = 1;
  install.bytes.assign(bytes.begin(), bytes.end());
  const auto s = decode_snap(
      h.node.handle_peer(peer_request(net::wire::op::peer_snapshot, install))
          .body);
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(h.node.commit_index(), 3u);
  EXPECT_EQ(h.node.counters().snapshots_installed, 1u);

  const auto healed = h.service.registry().inspect("locks/c");
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->leader, 8);
  EXPECT_EQ(healed->entry.epoch, 1u);

  // The suffix resumes past the snapshot: appends work again.
  append_req suffix;
  suffix.term = 1;
  suffix.leader = 1;
  suffix.prev_index = 3;
  suffix.prev_term = 1;
  suffix.leader_commit = 4;
  suffix.entries.push_back(
      follower_harness::at_term(1, h.release("locks/c", 4, 8, 1)));
  a = decode_append(
      h.node.handle_peer(peer_request(net::wire::op::peer_append, suffix))
          .body);
  EXPECT_TRUE(a.success);
  EXPECT_FALSE(a.need_snapshot);
  EXPECT_EQ(h.node.commit_index(), 4u);
}

TEST(ReplNode, VotesAreOneShotPerTermAndCheckLogFreshness) {
  follower_harness h;

  // Give the follower two entries at term 1 so freshness has teeth.
  append_req seed;
  seed.term = 1;
  seed.leader = 1;
  seed.leader_commit = 1;
  seed.entries.push_back(
      follower_harness::at_term(1, h.grant("locks/d", 1, 7, 0)));
  seed.entries.push_back(
      follower_harness::at_term(1, h.release("locks/d", 2, 7, 0)));
  ASSERT_TRUE(decode_append(h.node
                                .handle_peer(peer_request(
                                    net::wire::op::peer_append, seed))
                                .body)
                  .success);

  vote_req fresh{.term = 2, .candidate = 1, .last_log_index = 2,
                 .last_log_term = 1};
  auto v = decode_vote(
      h.node.handle_peer(peer_request(net::wire::op::peer_vote, fresh)).body);
  EXPECT_TRUE(v.granted);
  EXPECT_EQ(v.term, 2u);

  // Same term, different candidate: the vote is spent.
  vote_req rival{.term = 2, .candidate = 2, .last_log_index = 9,
                 .last_log_term = 1};
  v = decode_vote(
      h.node.handle_peer(peer_request(net::wire::op::peer_vote, rival)).body);
  EXPECT_FALSE(v.granted);

  // Higher term but a stale log: refused — a winner missing committed
  // entries could roll back acked grants.
  vote_req stale{.term = 3, .candidate = 2, .last_log_index = 1,
                 .last_log_term = 1};
  v = decode_vote(
      h.node.handle_peer(peer_request(net::wire::op::peer_vote, stale)).body);
  EXPECT_FALSE(v.granted);
  EXPECT_EQ(v.term, 3u);

  // The higher term reset the one-shot: a fresh candidate gets it.
  vote_req retry{.term = 3, .candidate = 1, .last_log_index = 2,
                 .last_log_term = 1};
  v = decode_vote(
      h.node.handle_peer(peer_request(net::wire::op::peer_vote, retry)).body);
  EXPECT_TRUE(v.granted);
}

// ---------------------------------------------------------------------
// Full in-process clusters over loopback.

/// Reserve an ephemeral port: bind, read it back, close. The tiny
/// reuse race is acceptable for tests.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// An n-member cluster in one process: each member is a service + repl
/// node + net server, wired exactly as elect_server does it. Members
/// can be started late (snapshot catch-up) and stopped (failover).
struct cluster_harness {
  explicit cluster_harness(int n, std::uint64_t lease_ttl_ms = 0,
                           std::uint64_t fence_bump = 1000,
                           std::uint64_t compact_threshold = 8192) {
    for (int i = 0; i < n; ++i) {
      ports.push_back(reserve_port());
    }
    base.fence_bump = fence_bump;
    base.compact_threshold = compact_threshold;
    base.heartbeat_ms = 25;
    base.commit_wait_ms = 3000;
    base.seed = 42;
    for (int i = 0; i < n; ++i) {
      base.members.push_back({"127.0.0.1", ports[static_cast<std::size_t>(i)]});
    }
    services.resize(static_cast<std::size_t>(n));
    nodes.resize(static_cast<std::size_t>(n));
    servers.resize(static_cast<std::size_t>(n));
    ttl = lease_ttl_ms;
  }

  ~cluster_harness() {
    for (auto& s : servers) {
      if (s) s->stop();
    }
    for (auto& m : nodes) {
      if (m) m->stop();
    }
  }

  /// Member 0 gets a short election timeout so it reliably wins the
  /// first term; the rest hang back but stay viable for failover.
  void start_member(int i) {
    const auto idx = static_cast<std::size_t>(i);
    svc::service_config sc{.nodes = 4, .shards = 2};
    sc.lease_ttl_ms = ttl;
    sc.record_commands = true;
    sc.session_id_base = i << 24;
    services[idx] = std::make_unique<svc::service>(std::move(sc));

    repl::cluster_config cc = base;
    cc.self = i;
    cc.election_timeout_min_ms = i == 0 ? 100 : 400;
    cc.election_timeout_max_ms = i == 0 ? 150 : 700;
    nodes[idx] = std::make_unique<repl::node>(cc, *services[idx]);
    nodes[idx]->start();

    net::server_config nc;
    nc.bind_address = "127.0.0.1";
    nc.port = ports[idx];
    repl::node* node = nodes[idx].get();
    nc.cluster.is_primary = [node] { return node->is_primary(); };
    nc.cluster.primary_hint = [node] { return node->primary_endpoint(); };
    nc.cluster.peer = [node](const net::wire::request& r) {
      return node->handle_peer(r);
    };
    nc.cluster.status_json = [node] { return node->status_json(); };
    nc.cluster.prom_text = [node] { return node->prom_text(); };
    servers[idx] = std::make_unique<net::server>(*services[idx], nc);
    ASSERT_TRUE(servers[idx]->listening());
  }

  void start_all() {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      start_member(static_cast<int>(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void stop_member(int i) {
    const auto idx = static_cast<std::size_t>(i);
    servers[idx]->stop();
    nodes[idx]->stop();
    stopped.insert(i);
  }

  /// Index of the current primary among live members, -1 if none. A
  /// stopped node's in-memory role is stale (it believes whatever it
  /// believed when its threads died), so it is excluded.
  [[nodiscard]] int primary() const {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (stopped.count(static_cast<int>(i)) != 0) continue;
      if (nodes[i] && nodes[i]->is_primary()) return static_cast<int>(i);
    }
    return -1;
  }

  [[nodiscard]] int wait_for_primary(std::chrono::milliseconds limit) const {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      const int p = primary();
      if (p >= 0) return p;
      std::this_thread::sleep_for(10ms);
    }
    return -1;
  }

  [[nodiscard]] std::string endpoints_csv() const {
    std::string out;
    for (const auto& m : base.members) {
      if (!out.empty()) out += ",";
      out += m.to_string();
    }
    return out;
  }

  std::vector<std::uint16_t> ports;
  repl::cluster_config base;
  std::uint64_t ttl = 0;
  std::set<int> stopped;
  std::vector<std::unique_ptr<svc::service>> services;
  std::vector<std::unique_ptr<repl::node>> nodes;
  std::vector<std::unique_ptr<net::server>> servers;
};

TEST(ReplCluster, ElectsOnePrimaryAndServesAcquiresThroughAnyEndpoint) {
  cluster_harness cluster(3);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  EXPECT_NE(cluster.nodes[static_cast<std::size_t>(p)]
                ->status_json()
                .find("\"role\":\"primary\""),
            std::string::npos);

  // Exactly one primary among the members.
  int primaries = 0;
  for (const auto& n : cluster.nodes) {
    if (n->is_primary()) ++primaries;
  }
  EXPECT_EQ(primaries, 1);

  api::client client(cluster.endpoints_csv());
  ASSERT_TRUE(client.connected());
  auto got = client.try_acquire("locks/one");
  ASSERT_TRUE(got.won());
  EXPECT_EQ(got.epoch, 0u);
  EXPECT_EQ(got.lease.release(), api::lease_status::ok);
}

TEST(ReplCluster, FollowerFirstEndpointListStillLandsOnThePrimary) {
  cluster_harness cluster(3);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);

  // Order the endpoint list so a follower comes first: the client must
  // chase the not_primary redirect to win.
  std::string csv;
  for (int off = 1; off <= 3; ++off) {
    const auto& m =
        cluster.base.members[static_cast<std::size_t>((p + off) % 3)];
    if (!csv.empty()) csv += ",";
    csv += m.to_string();
  }
  api::client client(csv);
  ASSERT_TRUE(client.connected());
  auto got = client.try_acquire("locks/redirected");
  ASSERT_TRUE(got.won());
  got.lease.abandon();
}

TEST(ReplCluster, FailoverFencesAHeldLeaseNeverSilentlyRegrantsIt) {
  cluster_harness cluster(3, /*lease_ttl_ms=*/800, /*fence_bump=*/1000);
  cluster.start_all();
  const int old_primary = cluster.wait_for_primary(10s);
  ASSERT_GE(old_primary, 0);

  api::client holder(cluster.endpoints_csv());
  ASSERT_TRUE(holder.connected());
  auto got = holder.try_acquire("locks/failover");
  ASSERT_TRUE(got.won());
  const std::uint64_t old_epoch = got.epoch;

  cluster.stop_member(old_primary);

  // A new primary must emerge from the survivors.
  const auto deadline = std::chrono::steady_clock::now() + 15s;
  int new_primary = -1;
  while (std::chrono::steady_clock::now() < deadline) {
    new_primary = cluster.primary();
    if (new_primary >= 0 && new_primary != old_primary) break;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_GE(new_primary, 0);
  ASSERT_NE(new_primary, old_primary);

  // The survivor fenced at promotion: a fresh contender must either be
  // refused (while the replica lease runs out) or win an epoch past
  // the fence bump. Seeing the old epoch again would be the silent
  // double grant the whole design exists to prevent.
  api::client contender(cluster.endpoints_csv());
  std::optional<std::uint64_t> won_epoch;
  while (std::chrono::steady_clock::now() < deadline) {
    auto attempt = contender.try_acquire("locks/failover");
    if (attempt.won()) {
      won_epoch = attempt.epoch;
      attempt.lease.abandon();
      break;
    }
    std::this_thread::sleep_for(50ms);
  }
  ASSERT_TRUE(won_epoch.has_value());
  EXPECT_GT(*won_epoch, old_epoch);
  EXPECT_GE(*won_epoch, cluster.base.fence_bump);

  // The deposed holder's auto-renew hits the fence and marks the lease
  // lost (it cannot keep believing in a dead primary's grant).
  const auto lost_deadline = std::chrono::steady_clock::now() + 10s;
  while (!got.lease.lost() &&
         std::chrono::steady_clock::now() < lost_deadline) {
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_TRUE(got.lease.lost());
}

TEST(ReplCluster, LateFollowerCatchesUpViaSnapshotThenSuffix) {
  // Tiny compaction threshold: the primary compacts its log early, so
  // the late member cannot converge by appends alone.
  cluster_harness cluster(3, /*lease_ttl_ms=*/0, /*fence_bump=*/1000,
                          /*compact_threshold=*/4);
  cluster.start_member(0);
  cluster.start_member(1);
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);

  api::client client(cluster.endpoints_csv());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 6; ++i) {
    auto got = client.try_acquire("locks/compacted-" + std::to_string(i));
    ASSERT_TRUE(got.won());
    ASSERT_EQ(got.lease.release(), api::lease_status::ok);
  }

  // Wait until the primary has actually compacted, so the late member
  // exercises the snapshot path rather than a long append replay.
  const auto deadline = std::chrono::steady_clock::now() + 15s;
  auto* primary_node = cluster.nodes[static_cast<std::size_t>(p)].get();
  while (primary_node->counters().compactions == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_GE(primary_node->counters().compactions, 1u);

  cluster.start_member(2);
  auto* late = cluster.nodes[2].get();
  while ((late->counters().snapshots_installed == 0 ||
          late->commit_index() < primary_node->commit_index()) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(20ms);
  }
  EXPECT_GE(late->counters().snapshots_installed, 1u);
  EXPECT_GE(primary_node->counters().snapshots_sent, 1u);
  EXPECT_EQ(late->commit_index(), primary_node->commit_index());

  // Byte-comparable replicas: the late member's registry agrees with
  // the primary's on every replayed key.
  for (int i = 0; i < 6; ++i) {
    const std::string key = "locks/compacted-" + std::to_string(i);
    const auto on_primary =
        cluster.services[static_cast<std::size_t>(p)]->registry().inspect(key);
    const auto on_late = cluster.services[2]->registry().inspect(key);
    ASSERT_TRUE(on_primary.has_value());
    ASSERT_TRUE(on_late.has_value());
    EXPECT_EQ(on_late->entry.epoch, on_primary->entry.epoch);
    EXPECT_EQ(on_late->leader, on_primary->leader);
  }
}

/// One numeric field of a status_json body (0 when absent).
std::uint64_t status_field(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const auto at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + needle.size()));
}

/// take() with a watchdog: a response that never comes closes the
/// client (failing the take) instead of hanging the test.
std::optional<net::wire::response> take_within(net::client& client,
                                               std::uint64_t id,
                                               std::chrono::seconds limit) {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  std::thread guard([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_for(lock, limit, [&] { return done; })) client.close();
  });
  auto r = client.take(id);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  cv.notify_all();
  guard.join();
  return r;
}

// A primary severed from its quorum holds a try_acquire at the commit
// gate for commit_wait_ms. The gate is a continuation on the node's
// completion list, not a parked thread: a request pipelined behind the
// gated one on the same connection is answered at once.
TEST(ReplCluster, CommitGateParksNoReactor) {
  cluster_harness cluster(3);
  cluster.base.commit_wait_ms = 2000;
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  for (int i = 0; i < 3; ++i) {
    if (i != p) cluster.stop_member(i);
  }
  // Nothing deposes it, but nothing it grants can commit either.
  ASSERT_TRUE(cluster.nodes[static_cast<std::size_t>(p)]->is_primary());

  net::client conn("127.0.0.1", cluster.ports[static_cast<std::size_t>(p)]);
  ASSERT_TRUE(conn.connected());
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t gated =
      conn.submit(net::wire::op::try_acquire, "gate/key");
  const std::uint64_t status =
      conn.submit(net::wire::op::admin_cluster_status);
  ASSERT_NE(gated, 0u);
  ASSERT_NE(status, 0u);
  const auto st = take_within(conn, status, 10s);
  const auto status_after = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->result, net::wire::status::ok);
  EXPECT_NE(st->body.find("\"role\":\"primary\""), std::string::npos);
  EXPECT_LT(status_after, 500ms) << "a reactor waited on the commit gate";

  const auto g = take_within(conn, gated, 10s);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->result, net::wire::status::connection_lost);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 1500ms);
}

// A blocking acquire parked on a primary that is then deposed must not
// sit out its wait against a follower: the step-down kicks the parked
// continuation, which re-checks and redirects.
TEST(ReplCluster, ParkedAcquireOnADeposedPrimaryIsRedirected) {
  cluster_harness cluster(3);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  const auto port = cluster.ports[static_cast<std::size_t>(p)];
  net::client holder("127.0.0.1", port);
  net::client waiter("127.0.0.1", port);
  ASSERT_TRUE(holder.connected());
  ASSERT_TRUE(waiter.connected());
  ASSERT_TRUE(holder.try_acquire("demote/key").won);
  const std::uint64_t parked = waiter.submit(net::wire::op::acquire,
                                             "demote/key");
  ASSERT_NE(parked, 0u);
  auto& server = *cluster.servers[static_cast<std::size_t>(p)];
  const auto armed_by = std::chrono::steady_clock::now() + 5s;
  while (server.report().requests < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), armed_by);
    std::this_thread::sleep_for(5ms);
  }
  std::this_thread::sleep_for(50ms);  // let the acquire lose and park

  // A vote at a higher term deposes the primary on the spot.
  repl::node& node = *cluster.nodes[static_cast<std::size_t>(p)];
  vote_req v;
  v.term = node.current_term() + 1;
  v.candidate = (p + 1) % 3;
  v.last_log_index = 1u << 30;
  v.last_log_term = 1u << 30;
  const auto deposed_at = std::chrono::steady_clock::now();
  (void)node.handle_peer(peer_request(net::wire::op::peer_vote, v));
  const auto r = take_within(waiter, parked, 10s);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->result, net::wire::status::not_primary);
  EXPECT_LT(std::chrono::steady_clock::now() - deposed_at, 1s);
}

// Followers compact too: a follower whose applied index has caught up
// with its commit index snapshots its registry and drops the prefix, so
// its log stays bounded instead of growing for its whole life. A
// compacted follower that is later promoted still brings a restarted
// member up to date through its own snapshot plus the suffix.
TEST(ReplCluster, FollowersCompactAndAPromotedOneStillCatchesUpARestart) {
  constexpr std::uint64_t threshold = 8;
  cluster_harness cluster(3, /*lease_ttl_ms=*/0, /*fence_bump=*/1000,
                          threshold);
  cluster.start_all();
  const int p = cluster.wait_for_primary(10s);
  ASSERT_GE(p, 0);
  {
    api::client client(cluster.endpoints_csv());
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 40; ++i) {
      auto got = client.try_acquire("compact/" + std::to_string(i % 5));
      ASSERT_TRUE(got.won());
      ASSERT_EQ(got.lease.release(), api::lease_status::ok);
    }
  }
  const auto quiet_by = std::chrono::steady_clock::now() + 15s;
  const auto compacted = [&](int i) {
    const auto& n = cluster.nodes[static_cast<std::size_t>(i)];
    return n->counters().compactions > 0 &&
           status_field(n->status_json(), "log_entries") < threshold;
  };
  for (int i = 0; i < 3; ++i) {
    while (!compacted(i) && std::chrono::steady_clock::now() < quiet_by) {
      std::this_thread::sleep_for(20ms);
    }
    EXPECT_TRUE(compacted(i))
        << "member " << i << ": "
        << cluster.nodes[static_cast<std::size_t>(i)]->status_json();
  }

  // Promote a compacted follower by stopping the primary.
  cluster.stop_member(p);
  int q = -1;
  const auto promote_by = std::chrono::steady_clock::now() + 15s;
  while (std::chrono::steady_clock::now() < promote_by) {
    q = cluster.primary();
    if (q >= 0 && q != p) break;
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_GE(q, 0);
  ASSERT_NE(q, p);
  {
    api::client client(cluster.endpoints_csv());
    ASSERT_TRUE(client.connected());
    for (int i = 0; i < 3; ++i) {
      auto got = client.try_acquire("suffix/" + std::to_string(i));
      ASSERT_TRUE(got.won());
      ASSERT_EQ(got.lease.release(), api::lease_status::ok);
    }
  }

  // Restart the old primary empty: the compacted log cannot replay it
  // from index 1, so it must take the snapshot, then the suffix.
  cluster.stopped.erase(p);
  cluster.start_member(p);
  ASSERT_FALSE(HasFatalFailure());
  auto* restarted = cluster.nodes[static_cast<std::size_t>(p)].get();
  const auto caught_up = [&] {
    const int leader = cluster.primary();
    return leader >= 0 && leader != p &&
           restarted->counters().snapshots_installed > 0 &&
           restarted->commit_index() ==
               cluster.nodes[static_cast<std::size_t>(leader)]->commit_index();
  };
  const auto catch_up_by = std::chrono::steady_clock::now() + 15s;
  while (!caught_up() && std::chrono::steady_clock::now() < catch_up_by) {
    std::this_thread::sleep_for(20ms);
  }
  ASSERT_TRUE(caught_up()) << restarted->status_json();
  const int leader = cluster.primary();
  for (const std::string key :
       {"compact/0", "compact/4", "suffix/0", "suffix/2"}) {
    const auto on_leader =
        cluster.services[static_cast<std::size_t>(leader)]->registry().inspect(
            key);
    const auto on_restarted =
        cluster.services[static_cast<std::size_t>(p)]->registry().inspect(key);
    ASSERT_TRUE(on_leader.has_value()) << key;
    ASSERT_TRUE(on_restarted.has_value()) << key;
    EXPECT_EQ(on_restarted->entry.epoch, on_leader->entry.epoch) << key;
    EXPECT_EQ(on_restarted->leader, on_leader->leader) << key;
  }
}

}  // namespace
}  // namespace elect
