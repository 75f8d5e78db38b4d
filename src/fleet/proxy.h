// Round-robin fleet proxy: one poll() event loop (the src/net pattern)
// multiplexing client sessions on the front and one connection per
// backend on the back, with health probing, circuit-breaker ejection,
// transparent failover, and fleet-wide epoch-consistent hot swap.
//
// Request path. A client datalog frame becomes a RequestRec with an
// idempotent request key; keys queue FIFO and are dealt round-robin to
// healthy backends (bounded per-backend in-flight). Replies are matched
// FIFO against the keys outstanding on that backend — the line protocol
// answers strictly in request order per connection — and are buffered
// complete (through `done`) before being forwarded verbatim, so a client
// never sees a half-reply from a backend that died mid-write.
//
// Failover. When a backend connection drops (process death, kill -9, or
// the fleet.backend.reset failpoint), every key outstanding on it goes
// back to the FRONT of the queue in order and is re-dealt to a healthy
// backend. A request is outstanding on at most one backend at a time, so
// the client sees exactly one reply — byte-identical to what single-store
// stdio mode would produce, because diagnosis is a pure function of the
// store version and the fleet serves one version at a time (below).
// Requests that exceed max_failovers answer `error backend unavailable`.
//
// Health. Each backend is probed with `!health` every probe_interval_ms
// over its connection. eject_after_failures consecutive probe failures
// (timeout, parse error, connection error) open the circuit: the backend
// leaves rotation, its connection is closed (failing over its work), and
// after probation_ms it is re-probed; reinstate_after_successes
// consecutive successes close the circuit again. Any backend ENTERING
// rotation — first connect, respawn, reinstatement — first gets a
// `!reload` and must ack it, so it provably serves the newest published
// version regardless of when it last read the manifest.
//
// Epoch flip. A client `!reload` triggers the fleet-wide two-phase swap:
// phase 1 quiesces dispatch and waits for zero in-flight across the
// fleet (new work queues up behind the flip); phase 2 sends `!reload` to
// every in-rotation backend and waits for every ack, then dispatch
// resumes. Between the last pre-flip reply and the first post-flip
// dispatch no request runs anywhere, so no client session can interleave
// rankings from two store versions. Out-of-rotation backends are exempt:
// the entry reload covers them.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/supervisor.h"
#include "net/protocol.h"
#include "util/fdio.h"

namespace sddict::fleet {

struct ProxyOptions {
  int tcp_port = 0;  // 0 = kernel-assigned
  std::string bind_host = "127.0.0.1";
  int backlog = 64;
  std::size_t max_sessions = 256;
  std::size_t session_inflight = 8;   // unresolved requests per session
  std::size_t max_pending = 256;      // queued fleet-wide (shed beyond)
  std::size_t backend_inflight = 16;  // outstanding datalogs per backend
  std::size_t max_frame_bytes = 1 << 20;
  double idle_timeout_ms = 30000;
  double frame_timeout_ms = 10000;
  double write_timeout_ms = 10000;
  double drain_timeout_ms = 30000;
  double probe_interval_ms = 250;
  double probe_timeout_ms = 2000;   // reply deadline for any backend op
  int eject_after_failures = 3;
  double probation_ms = 1000;       // ejection -> first probation probe
  int reinstate_after_successes = 2;
  int max_failovers = 4;            // attempts per request
  double op_timeout_ms = 20000;     // epoch flip / rolling restart bound
  std::uint32_t busy_retry_ms = 25;
};

struct ProxyStats {
  std::uint64_t accepted = 0;
  std::uint64_t responses = 0;          // replies forwarded or rendered
  std::uint64_t busy_shed = 0;          // proxy-issued busy replies
  std::uint64_t failovers = 0;          // requests re-dealt after a death
  std::uint64_t backend_disconnects = 0;
  std::uint64_t ejections = 0;
  std::uint64_t reinstatements = 0;
  std::uint64_t respawns = 0;           // from the BackendSource
  std::uint64_t flips = 0;              // completed epoch flips
  std::uint64_t rolling_restarts = 0;   // completed rolling restarts
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t io_errors = 0;
  // Gauges.
  std::uint64_t active_sessions = 0;
  std::uint64_t pending = 0;            // queued, not yet dealt
  std::uint64_t in_flight = 0;          // dealt, reply not yet complete
  std::uint64_t backends_healthy = 0;
  std::uint64_t backends_total = 0;
};

std::string format_proxy_stats(const ProxyStats& s);

class FleetProxy {
 public:
  FleetProxy(BackendSource& source, const ProxyOptions& options);
  ~FleetProxy();
  FleetProxy(const FleetProxy&) = delete;
  FleetProxy& operator=(const FleetProxy&) = delete;

  // Binds and listens; throws std::runtime_error on failure.
  void start();
  int tcp_port() const { return bound_tcp_port_; }

  // Runs the event loop until request_stop(), then drains every accepted
  // request (dispatch and failover keep working during the drain) and
  // returns. The drain first reads once more what clients have already
  // sent — those frames count as accepted — then stops reading; client
  // sessions close with FIN after late input is discarded, never with a
  // reset. Does NOT shut the BackendSource down — the caller owns that
  // ordering (drain first, then stop backends).
  void run();
  void request_stop();  // async-signal-safe

  ProxyStats stats() const;

 private:
  struct Session;
  struct SessionSlot;
  struct BackendConn;
  struct RequestRec;
  struct FleetOp;

  void accept_ready();
  bool read_ready(Session& s);  // true: the read cap, not EAGAIN, ended it
  void handle_frame(Session& s, net::Frame frame);
  void handle_command(Session& s, SessionSlot& slot,
                      std::vector<std::string> tokens);
  void resolve_fronts(Session& s);
  void flush_writes(Session& s);
  void enforce_timeouts(Session& s, double now);
  void force_close(Session& s);
  std::uint32_t retry_hint() const;

  void sync_backends(double now);
  void connect_backend(BackendConn& b, double now);
  void on_backend_connected(BackendConn& b, double now);
  void close_backend(BackendConn& b, const char* why, bool count_disconnect);
  void backend_conn_lost(BackendConn& b, double now, bool count_disconnect);
  void backend_read_ready(BackendConn& b, double now);
  void consume_backend_line(BackendConn& b, std::string line, double now);
  void backend_flush(BackendConn& b);
  void probe_backends(double now);
  void probe_success(BackendConn& b, const std::vector<std::string>& tokens,
                     double now);
  void probe_failure(BackendConn& b, double now);
  void dispatch(double now);
  void requeue_or_fail(std::uint64_t key);
  void finish_request(std::uint64_t key, std::string reply_text);
  void step_fleet_op(double now);
  void finish_fleet_op(const std::string& text, bool ok);
  void render_fleet(std::ostream& os) const;

  double now_ms() const;
  ProxyStats snapshot_live() const;

  BackendSource& source_;
  ProxyOptions options_;
  int listener_ = -1;
  int bound_tcp_port_ = -1;
  fdio::WakePipe wake_;
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  fdio::LingerSet linger_;  // closed sessions waiting for the peer's EOF

  std::uint64_t next_session_id_ = 1;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;

  std::uint64_t next_key_ = 1;
  std::unordered_map<std::uint64_t, std::unique_ptr<RequestRec>> requests_;
  std::deque<std::uint64_t> queue_;  // keys waiting for a backend
  std::size_t rr_cursor_ = 0;        // round-robin dealing position

  FleetView view_;
  std::vector<std::unique_ptr<BackendConn>> backends_;
  bool dispatch_paused_ = false;  // epoch-flip quiesce
  std::unique_ptr<FleetOp> op_;   // at most one flip/rolling at a time

  ProxyStats live_;
  mutable std::mutex stats_mutex_;
  ProxyStats stats_;
};

}  // namespace sddict::fleet
