// Networked serving tier (ISSUE 7): the poll() event-loop front end over
// DiagnosisService, exercised through real TCP sockets with the blocking
// retry/backoff client.
//
//  * byte-identity: replies over TCP (single and concurrent clients, with
//    and without injected short reads / EINTR / short writes) match the
//    direct engine rendering modulo the volatile timing line;
//  * admission control and load shedding: injected service saturation
//    (`net.submit.full`) turns into explicit `busy retry_after_ms=N`
//    replies — delivered strictly in request order behind earlier
//    replies — never a hang or silent drop, and sheds recover once
//    pressure lifts;
//  * fault isolation: a malformed datalog poisons only its own reply, an
//    oversize frame closes only its own session, a mid-frame disconnect
//    leaves other sessions untouched;
//  * reaping: idle sessions and slow-loris partial frames are closed on
//    their timeouts and tallied;
//  * drain-on-shutdown: every accepted request is answered before run()
//    returns, and a frame that arrives too late to be read still ends in
//    a clean EOF, never a reset.
//
// Registered under the "serving" ctest label; the tsan preset includes it.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bmcirc/synth.h"
#include "diag/engine.h"
#include "diag/testerlog.h"
#include "dict/full_dict.h"
#include "dict/samediff_dict.h"
#include "fault/collapse.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "serve/diagnosis_service.h"
#include "sim/response.h"
#include "sim/testset.h"
#include "store/signature_store.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace sddict {
namespace {

// ------------------------------------------------------------- fixtures --

ResponseMatrix net_matrix() {
  SynthProfile profile;
  profile.name = "net";
  profile.inputs = 10;
  profile.outputs = 4;
  profile.dffs = 0;
  profile.gates = 80;
  profile.seed = 0x5e2e;
  const Netlist nl = generate_synthetic(profile);
  const FaultList faults = collapsed_fault_list(nl).collapsed;
  TestSet tests(nl.num_inputs());
  Rng rng(9);
  tests.add_random(40, rng);
  ResponseMatrixStatus status;
  return build_response_matrix(nl, faults, tests, {.store_diff_outputs = true},
                               &status);
}

const ResponseMatrix& rm() {
  static const ResponseMatrix m = net_matrix();
  return m;
}

const SameDifferentDictionary& sd() {
  static const SameDifferentDictionary d = SameDifferentDictionary::build(
      rm(), std::vector<ResponseId>(rm().num_tests(), 0));
  return d;
}

std::vector<Observed> fault_observation(FaultId f) {
  static const FullDictionary full = FullDictionary::build(rm());
  std::vector<ResponseId> obs(rm().num_tests());
  for (std::size_t t = 0; t < rm().num_tests(); ++t) obs[t] = full.entry(f, t);
  return qualify(obs);
}

std::string frame_text(const std::vector<Observed>& obs) {
  std::ostringstream os;
  write_testerlog(os, obs);
  return os.str();
}

// Reply canonicalization: everything but the volatile timing line.
std::string canonical(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines)
    if (l.rfind("timing ", 0) != 0) out += l + "\n";
  return out;
}

// What the serial path would answer, rendered through the same shared
// protocol code the server uses.
std::string expected_reply(const std::vector<Observed>& obs) {
  ServiceResponse r;
  r.diagnosis = diagnose_observed(sd(), obs);
  std::ostringstream os;
  net::write_response(os, r, /*dropped=*/0);
  std::istringstream is(os.str());
  std::vector<std::string> lines;
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return canonical(lines);
}

// An in-process server on an ephemeral TCP port with run() on a
// background thread. The service is gate-configured (batch = 1, cache
// off) so every networked reply must be bit-identical to the direct call.
class TestServer {
 public:
  explicit TestServer(net::NetServerOptions nopts = {},
                      ServiceOptions sopts = gate_options()) {
    service_ = std::make_unique<DiagnosisService>(SignatureStore::build(sd()),
                                                  sopts);
    backend_.svc = service_.get();
    nopts.tcp_port = 0;
    server_ = std::make_unique<net::NetServer>(backend_, nopts);
    server_->start();
    thread_ = std::thread([this] { server_->run(); });
  }

  ~TestServer() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_->request_stop();
      thread_.join();
    }
  }

  static ServiceOptions gate_options() {
    ServiceOptions o;
    o.threads = 1;
    o.batch = 1;
    o.cache = 0;
    return o;
  }

  int port() const { return server_->tcp_port(); }
  net::NetStats stats() const { return server_->stats(); }
  net::NetServer& server() { return *server_; }
  net::Client connect() { return net::Client::connect_tcp("127.0.0.1", port(), 10); }

  // Stats are published once per loop iteration; spin until `pred` sees a
  // satisfying snapshot or the deadline passes.
  bool wait_stats(const std::function<bool(const net::NetStats&)>& pred,
                  double timeout_s = 5.0) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred(server_->stats())) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred(server_->stats());
  }

 private:
  struct StoreBackend : net::NetServer::Backend {
    DiagnosisService* svc = nullptr;
    DiagnosisService& service() override { return *svc; }
    bool handle_admin(const std::vector<std::string>&, std::ostream&) override {
      return false;
    }
  };

  std::unique_ptr<DiagnosisService> service_;
  StoreBackend backend_;
  std::unique_ptr<net::NetServer> server_;
  std::thread thread_;
};

// Process-global failpoints must never leak across tests.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::disarm_all(); }
};

// --------------------------------------------------------- byte identity --

TEST(NetServing, SingleClientMatchesDirectEngine) {
  TestServer server;
  net::Client client = server.connect();
  Rng rng(0x71);
  for (int i = 0; i < 6; ++i) {
    const auto obs =
        fault_observation(static_cast<FaultId>(rng.below(rm().num_faults())));
    const net::Reply reply = client.request(frame_text(obs));
    EXPECT_FALSE(reply.busy);
    EXPECT_FALSE(reply.error);
    EXPECT_EQ(canonical(reply.lines), expected_reply(obs)) << "request " << i;
  }
  // The in-band stats command answers with one line, service counters
  // first, net counters after.
  const std::string stats_line = client.command_line("stats");
  EXPECT_EQ(stats_line.rfind("stats requests=", 0), 0u) << stats_line;
  EXPECT_NE(stats_line.find(" busy_shed="), std::string::npos) << stats_line;
  // Admin verbs need repo mode: explicit error, session survives.
  const net::Reply admin = client.request("!list\n");
  EXPECT_TRUE(admin.error);
  // quit closes the connection after the reply queue flushes.
  client.send_raw("quit\n");
  EXPECT_THROW(client.read_line(), std::runtime_error);
}

TEST(NetServing, ConcurrentClientsStayByteIdentical) {
  TestServer server;
  constexpr int kClients = 4;
  constexpr int kRequests = 5;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::Client client = server.connect();
        Rng rng(0x100 + static_cast<std::uint64_t>(c));
        for (int i = 0; i < kRequests; ++i) {
          const auto obs = fault_observation(
              static_cast<FaultId>(rng.below(rm().num_faults())));
          net::BackoffPolicy policy;
          policy.seed = static_cast<std::uint64_t>(c) * 97 + 1;
          const net::Reply reply =
              client.request_with_retry(frame_text(obs), policy);
          if (reply.busy || reply.error ||
              canonical(reply.lines) != expected_reply(obs)) {
            failures[c] = "client " + std::to_string(c) + " request " +
                          std::to_string(i) + " diverged";
            return;
          }
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& f : failures) EXPECT_EQ(f, "");
  const net::NetStats s = server.stats();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.frames, static_cast<std::uint64_t>(kClients * kRequests));
}

TEST(NetServing, InjectedIoFaultsPreserveByteIdentity) {
  FailpointGuard guard;
  TestServer server;
  net::Client client = server.connect();
  // Degrade both directions of both endpoints: every 3rd read is clamped
  // to one byte, every 5th gets a spurious EINTR (retried internally),
  // writes likewise. The replies must not change by a single byte.
  failpoint::arm_cyclic("net.read.short", 3);
  failpoint::arm_cyclic("net.read.eintr", 5);
  failpoint::arm_cyclic("net.write.short", 3);
  failpoint::arm_cyclic("net.write.eintr", 7);
  Rng rng(0x72);
  for (int i = 0; i < 6; ++i) {
    const auto obs =
        fault_observation(static_cast<FaultId>(rng.below(rm().num_faults())));
    const net::Reply reply = client.request(frame_text(obs));
    EXPECT_FALSE(reply.busy);
    EXPECT_FALSE(reply.error);
    EXPECT_EQ(canonical(reply.lines), expected_reply(obs)) << "request " << i;
  }
}

// ------------------------------------------------- shedding and recovery --

TEST(NetServing, SaturationShedsExplicitlyOldestFirstAndRecovers) {
  FailpointGuard guard;
  net::NetServerOptions nopts;
  nopts.max_pending = 0;  // any undispatchable request sheds immediately
  TestServer server(nopts);
  net::Client client = server.connect();
  const auto obs = fault_observation(1);

  // While the service pretends to be saturated every request is shed with
  // an explicit busy reply — not a hang, not a dropped connection.
  failpoint::arm_cyclic("net.submit.full", 1);
  for (int i = 0; i < 3; ++i) {
    const net::Reply reply = client.request(frame_text(obs));
    ASSERT_TRUE(reply.busy) << "request " << i;
    EXPECT_GT(reply.retry_after_ms, 0u);
    EXPECT_EQ(reply.lines.back(), "done");
  }
  EXPECT_TRUE(server.wait_stats(
      [](const net::NetStats& s) { return s.busy_shed >= 3; }));

  // Pressure lifts: the same client's next request goes through.
  failpoint::disarm("net.submit.full");
  const net::Reply ok = client.request(frame_text(obs));
  EXPECT_FALSE(ok.busy);
  EXPECT_EQ(canonical(ok.lines), expected_reply(obs));

  // The retrying client rides busy replies to success on its own.
  failpoint::arm("net.submit.full", 1);  // one-shot: first attempt sheds
  net::BackoffPolicy policy;
  policy.base_ms = 1;
  const net::Reply retried = client.request_with_retry(frame_text(obs), policy);
  EXPECT_FALSE(retried.busy);
  EXPECT_GE(retried.busy_retries, 1);
  EXPECT_EQ(canonical(retried.lines), expected_reply(obs));
}

TEST(NetServing, SessionInflightCapShedsInReplyOrder) {
  FailpointGuard guard;
  net::NetServerOptions nopts;
  nopts.session_inflight = 1;
  nopts.max_pending = 128;
  TestServer server(nopts);
  net::Client client = server.connect();
  const auto obs = fault_observation(2);

  // Hold the first request undispatchable so the pipelined second one
  // deterministically exceeds the per-session cap.
  failpoint::arm_cyclic("net.submit.full", 1);
  const std::string frame = frame_text(obs);
  client.send_raw(frame + frame);
  ASSERT_TRUE(server.wait_stats(
      [](const net::NetStats& s) { return s.frames >= 2; }));
  failpoint::disarm("net.submit.full");

  // Replies must come back in request order: the first request's full
  // diagnosis, then the second's busy — the busy never overtakes.
  const net::Reply first = client.read_reply();
  EXPECT_FALSE(first.busy);
  EXPECT_EQ(canonical(first.lines), expected_reply(obs));
  const net::Reply second = client.read_reply();
  EXPECT_TRUE(second.busy);
  const net::NetStats s = server.stats();
  EXPECT_GE(s.busy_shed, 1u);
}

// --------------------------------------------------------- fault isolation --

TEST(NetServing, MalformedFramePoisonsOnlyItsOwnReply) {
  TestServer server;
  net::Client client = server.connect();
  // No testerlog header: a structural defect even the recovery-mode
  // reader rejects.
  const net::Reply bad = client.request("t 0 garbage\nend\n");
  EXPECT_TRUE(bad.error);
  EXPECT_EQ(bad.lines.back(), "done");
  // The session survives and serves the next request correctly.
  const auto obs = fault_observation(3);
  const net::Reply good = client.request(frame_text(obs));
  EXPECT_FALSE(good.error);
  EXPECT_EQ(canonical(good.lines), expected_reply(obs));
  EXPECT_TRUE(server.wait_stats(
      [](const net::NetStats& s) { return s.malformed >= 1; }));
}

TEST(NetServing, OversizeFrameGetsErrorThenClose) {
  net::NetServerOptions nopts;
  nopts.max_frame_bytes = 1024;  // bigger than any legitimate fixture frame
  TestServer server(nopts);
  net::Client oversized = server.connect();
  // One endless line; no newline needed to trip the cap.
  oversized.send_raw(std::string(4096, 'x'));
  const net::Reply reply = oversized.read_reply();
  EXPECT_TRUE(reply.error);
  EXPECT_NE(reply.error_text.find("exceeds"), std::string::npos);
  // The offending session is closed...
  EXPECT_THROW(oversized.read_line(), std::runtime_error);
  // ...but a well-behaved one is not.
  net::Client polite = server.connect();
  const auto obs = fault_observation(4);
  EXPECT_EQ(canonical(polite.request(frame_text(obs)).lines),
            expected_reply(obs));
  EXPECT_TRUE(server.wait_stats(
      [](const net::NetStats& s) { return s.oversize >= 1; }));
}

TEST(NetServing, MidFrameDisconnectIsIsolated) {
  TestServer server;
  {
    net::Client dying = server.connect();
    dying.send_raw("sddict testerlog v1\ntests 10\nt 0 1\n");  // no `end`
    // Destructor closes mid-frame.
  }
  EXPECT_TRUE(server.wait_stats(
      [](const net::NetStats& s) { return s.midframe_disconnects >= 1; }));
  net::Client client = server.connect();
  const auto obs = fault_observation(5);
  EXPECT_EQ(canonical(client.request(frame_text(obs)).lines),
            expected_reply(obs));
}

// ------------------------------------------------------------ health probe --

TEST(NetServing, HealthVerbAnswersOneMachineReadableLine) {
  TestServer server;
  net::Client client = server.connect();
  // One line, no `done`: shaped for the fleet proxy's rotation and drain
  // decisions. Store mode has no repository version to report.
  const std::string line = client.command_line("!health");
  EXPECT_EQ(line.rfind("health state=ok ", 0), 0u) << line;
  EXPECT_NE(line.find(" queue_depth=0"), std::string::npos) << line;
  EXPECT_NE(line.find(" in_flight=0"), std::string::npos) << line;
  EXPECT_NE(line.find(" epoch=0"), std::string::npos) << line;
  EXPECT_NE(line.find(" version=0"), std::string::npos) << line;
  // The session is fully usable afterwards — nothing queued behind the
  // one-liner.
  const auto obs = fault_observation(7);
  EXPECT_EQ(canonical(client.request(frame_text(obs)).lines),
            expected_reply(obs));
}

// ----------------------------------------------------------- retry backoff --

TEST(NetClient, BackoffNeverSleepsBelowServerHint) {
  // Regression: the jitter used to scale the WHOLE delay into
  // [0.5, 1.0]x, so a client could sleep less than the server's
  // retry_after_ms floor and earn an immediate re-shed. Only the excess
  // above the hint is jittered now.
  for (const double u : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    // Hint above the client's own backoff: the hint is the floor.
    EXPECT_GE(net::compute_backoff_delay_ms(50, 10, 1000, u), 50.0);
    // Hint below the backoff: never under the hint, never over the
    // un-jittered target.
    const double d = net::compute_backoff_delay_ms(50, 200, 1000, u);
    EXPECT_GE(d, 50.0);
    EXPECT_LE(d, 200.0);
  }
  // u sweeps exactly the [hint + excess/2, target] range.
  EXPECT_DOUBLE_EQ(net::compute_backoff_delay_ms(50, 200, 1000, 0.0), 125.0);
  EXPECT_DOUBLE_EQ(net::compute_backoff_delay_ms(50, 200, 1000, 1.0), 200.0);
  // The cap bounds the backoff but can never undercut the server's hint.
  EXPECT_DOUBLE_EQ(net::compute_backoff_delay_ms(500, 800, 300, 1.0), 500.0);
}

// ----------------------------------------------------------------- reaping --

TEST(NetServing, IdleAndSlowLorisSessionsAreReaped) {
  net::NetServerOptions nopts;
  nopts.idle_timeout_ms = 40;
  nopts.frame_timeout_ms = 40;
  TestServer server(nopts);
  net::Client idle = server.connect();
  net::Client loris = server.connect();
  loris.send_raw("sddict testerlog v1\n");  // open frame, then dribble nothing
  EXPECT_TRUE(server.wait_stats([](const net::NetStats& s) {
    return s.idle_reaped >= 1 && s.frame_reaped >= 1;
  }));
  EXPECT_TRUE(server.wait_stats(
      [](const net::NetStats& s) { return s.active_sessions == 0; }));
}

// ------------------------------------------------------------------- drain --

TEST(NetServing, DrainAnswersEveryAcceptedRequest) {
  TestServer server;
  net::Client client = server.connect();
  const auto obs = fault_observation(6);
  const std::string frame = frame_text(obs);
  client.send_raw(frame + frame + frame);
  // Stop only after the server has accepted all three frames; drain mode
  // stops reading but must answer everything already parsed.
  ASSERT_TRUE(server.wait_stats(
      [](const net::NetStats& s) { return s.frames >= 3; }));
  server.server().request_stop();
  for (int i = 0; i < 3; ++i) {
    const net::Reply reply = client.read_reply();
    EXPECT_FALSE(reply.busy) << "reply " << i;
    EXPECT_EQ(canonical(reply.lines), expected_reply(obs)) << "reply " << i;
  }
  server.stop();  // joins run(); must not hang
  const net::NetStats s = server.stats();
  EXPECT_GE(s.responses, 3u);
  EXPECT_EQ(s.active_sessions, 0u);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.in_flight, 0u);
  // The listener is gone: new connections are refused.
  EXPECT_THROW(server.connect(), std::runtime_error);
}

// A frame that arrives after the drain's final read sweep is never
// accepted, but the session must still end with FIN: the server discards
// the late input before closing, so the client reads every owed reply and
// then a clean EOF. Closing with the frame unread would send a reset.
TEST(NetServing, DrainClosesWithEofAfterLateFrame) {
  TestServer server;
  net::Client client = server.connect();
  const auto obs = fault_observation(6);
  const std::string frame = frame_text(obs);
  client.send_raw(frame + frame + frame);
  ASSERT_TRUE(server.wait_stats(
      [](const net::NetStats& s) { return s.frames >= 3; }));
  server.server().request_stop();
  // The listener closes right after the sweep, so once connects are
  // refused the next frame is late.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool refused = false;
  while (!refused && std::chrono::steady_clock::now() < deadline) {
    try {
      server.connect();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } catch (const std::runtime_error&) {
      refused = true;
    }
  }
  ASSERT_TRUE(refused);
  client.send_raw(frame);
  for (int i = 0; i < 3; ++i) {
    const net::Reply reply = client.read_reply();
    EXPECT_FALSE(reply.busy) << "reply " << i;
    EXPECT_EQ(canonical(reply.lines), expected_reply(obs)) << "reply " << i;
  }
  char byte = 0;
  const ssize_t n = ::read(client.fd(), &byte, 1);
  EXPECT_EQ(n, 0) << (n < 0 ? std::strerror(errno) : "unexpected data");
  server.stop();
  EXPECT_EQ(server.stats().frames, 3u);
}

}  // namespace
}  // namespace sddict
