// Event-loop TCP (+ Unix-socket) front end over the DiagnosisService MPMC
// batcher: one poll() loop multiplexes every client session, so the
// serving tier survives what the old accept-and-serve-serially loop could
// not — bursty concurrent connections, slow-loris peers, mid-frame
// disconnects, and sustained overload.
//
// Robustness model, in order of the request path:
//
//   accept      EINTR-retried; over max_sessions the connection gets a
//               best-effort `busy` reply and is closed (connection-level
//               admission control).
//   read        nonblocking, short-read/EINTR tolerant (util/fdio.h
//               failpoints inject both); per-session frame-size cap and
//               slow-loris/idle timers; a malformed datalog poisons only
//               its own reply (`error ... done`), never the loop.
//   admit       parsed requests enter a bounded server-side pending queue
//               and are fed to DiagnosisService::try_submit as capacity
//               allows (the loop never blocks in submit()). Three explicit
//               shed points, all answered with `busy retry_after_ms=N`,
//               never a silent drop: per-session in-flight cap, global
//               in-flight cap via the pending-queue overflow — which sheds
//               OLDEST-deadline-first, because under overload the oldest
//               queued request is the one whose client has waited longest
//               and is closest to giving up — and service-queue-full.
//   respond     per-session replies always drain in request order (admin
//               verbs and `stats` are sequenced in-order too); writes are
//               nonblocking with short-write tolerance and a no-progress
//               timeout.
//   shutdown    request_stop() (async-signal-safe) reads once more what
//               each session has already received, then stops accepting
//               and reading, completes every accepted request, flushes
//               every reply, then returns from run() — bounded by
//               drain_timeout_ms.
//   close       a session that ends after its last reply (drain, quit,
//               oversize frame) closes with FIN, never a TCP reset: it is
//               half-closed, late input is discarded until the peer's EOF
//               or fdio::kLingerTimeoutMs, then closed (fdio::LingerSet).
//
// The loop itself is single-threaded; concurrency lives in the service's
// dispatcher/pool. stats() may be called from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "serve/diagnosis_service.h"
#include "util/fdio.h"

namespace sddict::net {

struct NetServerOptions {
  int tcp_port = -1;           // -1 = no TCP listener; 0 = kernel-assigned
  std::string bind_host = "127.0.0.1";
  std::string unix_path;       // empty = no Unix listener
  int backlog = 64;
  std::size_t max_sessions = 256;
  std::size_t max_inflight = 64;     // requests dispatched into the service
  std::size_t session_inflight = 8;  // unresolved requests per session
  std::size_t max_pending = 128;     // parsed-but-undispatched (shed beyond)
  std::size_t max_frame_bytes = 1 << 20;
  double idle_timeout_ms = 30000;    // connected but silent, nothing owed
  double frame_timeout_ms = 10000;   // an open partial frame (slow loris)
  double write_timeout_ms = 10000;   // reply owed but no write progress
  double drain_timeout_ms = 30000;   // hard bound on shutdown drain
  std::uint32_t busy_retry_ms = 25;  // base retry-after hint, scaled by load
};

// Counter snapshot. Gauges (active_sessions/pending/in_flight) are
// point-in-time; everything else is monotone.
struct NetStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_sessions = 0;  // over max_sessions at accept
  std::uint64_t frames = 0;             // complete datalog frames parsed
  std::uint64_t responses = 0;          // diagnosis/error replies rendered
  std::uint64_t busy_shed = 0;          // explicit busy replies, all causes
  std::uint64_t malformed = 0;          // datalogs the reader rejected
  std::uint64_t oversize = 0;           // frame-size cap closures
  std::uint64_t idle_reaped = 0;
  std::uint64_t frame_reaped = 0;       // slow-loris partial frames
  std::uint64_t write_reaped = 0;       // write-progress timeouts
  std::uint64_t midframe_disconnects = 0;
  std::uint64_t io_errors = 0;          // hard read/write failures
  std::uint64_t active_sessions = 0;
  std::uint64_t pending = 0;
  std::uint64_t in_flight = 0;
};

std::string format_net_stats(const NetStats& s);

class NetServer {
 public:
  // How the loop reaches the serving layer. service() resolves the
  // current dispatch target (may throw — the thrown message becomes the
  // reply); handle_admin() services `!verb` lines, returning false when
  // admin is unsupported (single-store mode). Both are called only from
  // the loop thread.
  struct Backend {
    virtual ~Backend() = default;
    virtual DiagnosisService& service() = 0;
    virtual bool handle_admin(const std::vector<std::string>& tokens,
                              std::ostream& out) = 0;
    // Services one complete `session ...` frame (see session/service.h),
    // writing the full reply including its closing `done`. Executed
    // inline on the loop thread, in request order, exactly like admin
    // verbs — session state is loop-thread-owned and needs no locking.
    // Returns false when session verbs are unsupported.
    virtual bool handle_session(const std::string& frame_text,
                                std::ostream& out) {
      (void)frame_text;
      (void)out;
      return false;
    }
    // The store version currently served (repository mode); 0 when the
    // backend has no versioning (single-store mode). Reported by the
    // `!health` verb so fleet supervisors can verify epoch consistency.
    virtual std::uint64_t store_version() { return 0; }
  };

  NetServer(Backend& backend, const NetServerOptions& options);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  // Binds and listens on the configured endpoints; throws
  // std::runtime_error on failure. Call before run().
  void start();
  // The actually-bound TCP port (after start(); kernel-assigned when the
  // option was 0), or -1 without a TCP listener.
  int tcp_port() const { return bound_tcp_port_; }

  // Runs the event loop until request_stop(), then drains and returns.
  // The drain reads once more what has already arrived and answers it,
  // then stops reading; sessions close with FIN after late input is
  // discarded, never with a reset.
  void run();

  // Async-signal-safe stop request; run() drains and returns.
  void request_stop();

  NetStats stats() const;

 private:
  struct Session;
  struct Pending;

  void accept_ready(int listener);
  // Reads and parses what the peer sent; true when the per-cycle read
  // cap, not an empty socket, ended it.
  bool read_ready(Session& s);
  void handle_frame(Session& s, Frame frame);
  void pump_admission();
  void resolve_fronts(Session& s);
  void flush_writes(Session& s);
  void enforce_timeouts(Session& s, double now_ms);
  void force_close(Session& s, bool count_midframe);
  std::uint32_t retry_hint() const;
  double now_ms() const;
  NetStats snapshot_live() const;

  Backend& backend_;
  NetServerOptions options_;
  int tcp_listener_ = -1;
  int unix_listener_ = -1;
  int bound_tcp_port_ = -1;
  fdio::WakePipe wake_;
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;  // loop-thread-only; reported by `!health`
  fdio::LingerSet linger_;  // closed sessions waiting for the peer's EOF

  std::uint64_t next_session_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::deque<Pending> pending_;      // admission queue, front = oldest
  std::size_t inflight_ = 0;         // dispatched into the service
  // Futures of force-closed sessions: still occupy service capacity, so
  // they are polled until resolution to keep inflight_ honest.
  std::vector<std::future<ServiceResponse>> orphans_;

  // The loop thread owns live_ lock-free; once per iteration it publishes
  // a copy into stats_ under the mutex, which is all stats() ever reads —
  // so cross-thread observation is at most one loop tick stale and
  // TSan-clean.
  NetStats live_;
  mutable std::mutex stats_mutex_;
  NetStats stats_;
};

}  // namespace sddict::net
