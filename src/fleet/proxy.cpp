#include "fleet/proxy.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>

#include "util/failpoint.h"
#include "util/strings.h"

namespace sddict::fleet {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::uint64_t parse_field(const std::vector<std::string>& tokens,
                          const std::string& name) {
  const std::string prefix = name + "=";
  for (const std::string& t : tokens)
    if (starts_with(t, prefix))
      return std::strtoull(t.c_str() + prefix.size(), nullptr, 10);
  return 0;
}

}  // namespace

std::string format_proxy_stats(const ProxyStats& s) {
  std::ostringstream out;
  out << "accepted=" << s.accepted << " responses=" << s.responses
      << " busy_shed=" << s.busy_shed << " failovers=" << s.failovers
      << " backend_disconnects=" << s.backend_disconnects
      << " ejections=" << s.ejections
      << " reinstatements=" << s.reinstatements << " respawns=" << s.respawns
      << " flips=" << s.flips << " rolling_restarts=" << s.rolling_restarts
      << " probes=" << s.probes << " probe_failures=" << s.probe_failures
      << " io_errors=" << s.io_errors << " sessions=" << s.active_sessions
      << " pending=" << s.pending << " proxy_in_flight=" << s.in_flight
      << " backends_healthy=" << s.backends_healthy
      << " backends_total=" << s.backends_total;
  return out.str();
}

// Client-side reply slot; same strict in-order discipline as the
// NetServer. kWaiting with key != 0 is a proxied request; key == 0 is a
// deferred fleet-op reply (flip / rolling restart).
struct FleetProxy::SessionSlot {
  enum class State { kWaiting, kText, kQuit };
  State state = State::kText;
  std::uint64_t seq = 0;
  std::uint64_t key = 0;
  std::string text;
};

struct FleetProxy::Session {
  std::uint64_t id = 0;
  int fd = -1;
  net::FrameReader reader;
  std::string outbuf;
  std::deque<SessionSlot> slots;
  std::uint64_t next_slot_seq = 1;
  double last_read_ms = 0;
  double last_write_progress_ms = 0;
  double frame_open_ms = -1;
  bool closing = false;
  bool dead = false;

  explicit Session(std::size_t max_frame_bytes) : reader(max_frame_bytes) {}

  std::size_t unresolved() const {
    std::size_t n = 0;
    for (const SessionSlot& s : slots)
      if (s.state == SessionSlot::State::kWaiting) ++n;
    return n;
  }
  SessionSlot* find_slot(std::uint64_t seq) {
    for (SessionSlot& s : slots)
      if (s.seq == seq) return &s;
    return nullptr;
  }
};

struct FleetProxy::RequestRec {
  std::uint64_t key = 0;
  std::uint64_t session_id = 0;  // 0 = orphaned (client gone); drop reply
  std::uint64_t slot_seq = 0;
  std::string frame;  // the complete datalog text, resent verbatim on failover
  int attempts = 0;   // dispatches so far (capped at max_failovers)
  int backend = -1;   // id it is outstanding on; -1 = queued
};

// One connection per backend, carrying datalog requests and admin ops
// (probes, reloads) interleaved. The line protocol replies strictly in
// request order per connection, so replies are matched FIFO against ops.
struct FleetProxy::BackendConn {
  enum class Health {
    kDown,        // no process/port, or waiting out a reconnect delay
    kConnecting,  // nonblocking connect in flight
    kEntering,    // connected; entry !reload sent, ack pending
    kHealthy,     // in rotation
    kDraining,    // in rotation for replies only (rolling restart)
    kEjected,     // circuit open; waiting out probation_ms
    kProbation,   // reconnected; probing toward reinstatement
  };
  struct Op {
    enum class Kind { kRequest, kProbe, kReload };
    Kind kind = Kind::kRequest;
    std::uint64_t key = 0;  // kRequest only
    double sent_ms = 0;
  };

  FleetBackendAddr addr;
  std::uint64_t seen_generation = 0;       // last generation observed
  std::uint64_t connected_generation = 0;  // generation this fd talks to
  int fd = -1;
  bool connecting = false;
  Health health = Health::kDown;
  bool was_ejected = false;  // reinstatement (not first-entry) path
  std::string inbuf;
  std::string outbuf;
  std::string reply;  // accumulating reply for ops.front()
  std::deque<Op> ops;
  double connect_started_ms = 0;
  double reconnect_after_ms = 0;
  double last_probe_ms = -1e18;
  double ejected_at_ms = 0;
  int consecutive_failures = 0;
  int probation_successes = 0;
  // Last parsed !health reply.
  std::uint64_t health_inflight = 0;
  std::uint64_t version = 0;
  double last_health_ms = -1e18;

  std::size_t request_ops() const {
    std::size_t n = 0;
    for (const Op& op : ops)
      if (op.kind == Op::Kind::kRequest) ++n;
    return n;
  }
  bool probe_outstanding() const {
    for (const Op& op : ops)
      if (op.kind == Op::Kind::kProbe) return true;
    return false;
  }
  bool in_rotation() const {
    return health == Health::kHealthy || health == Health::kDraining;
  }
  const char* health_name() const {
    switch (health) {
      case Health::kDown: return "down";
      case Health::kConnecting: return "connecting";
      case Health::kEntering: return "entering";
      case Health::kHealthy: return "healthy";
      case Health::kDraining: return "draining";
      case Health::kEjected: return "ejected";
      case Health::kProbation: return "probation";
    }
    return "?";
  }
};

// At most one fleet-wide operation runs at a time; its reply is deferred
// until the state machine completes (or op_timeout_ms aborts it).
struct FleetProxy::FleetOp {
  enum class Kind { kFlip, kRolling };
  Kind kind = Kind::kFlip;
  std::uint64_t session_id = 0;
  std::uint64_t slot_seq = 0;
  double started_ms = 0;
  // Flip: 1 = quiescing, 2 = reloads outstanding.
  int phase = 1;
  std::set<int> awaiting;  // backend ids whose reload ack is pending
  // Rolling restart.
  enum class RollStage { kPick, kDrain, kAwaitHealthZero, kAwaitRespawn };
  RollStage roll_stage = RollStage::kPick;
  std::vector<int> order;
  std::size_t idx = 0;
  std::uint64_t gen_at_drain = 0;
  double drain_started_ms = 0;
  int restarted = 0;
};

FleetProxy::FleetProxy(BackendSource& source, const ProxyOptions& options)
    : source_(source), options_(options) {}

FleetProxy::~FleetProxy() {
  for (auto& [id, s] : sessions_)
    if (!s->dead && s->fd >= 0) ::close(s->fd);
  for (auto& b : backends_)
    if (b->fd >= 0) ::close(b->fd);
  if (listener_ >= 0) ::close(listener_);
}

void FleetProxy::start() {
  ::signal(SIGPIPE, SIG_IGN);
  listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener_ < 0) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
  if (::inet_pton(AF_INET, options_.bind_host.c_str(), &addr.sin_addr) != 1)
    throw std::runtime_error("bad bind host '" + options_.bind_host + "'");
  if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
    throw_errno("bind tcp port " + std::to_string(options_.tcp_port));
  if (::listen(listener_, options_.backlog) != 0) throw_errno("listen");
  socklen_t len = sizeof addr;
  if (::getsockname(listener_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    throw_errno("getsockname");
  bound_tcp_port_ = ntohs(addr.sin_port);
  fdio::set_nonblocking(listener_);
  fdio::set_cloexec(listener_);
}

void FleetProxy::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake_.notify();
}

ProxyStats FleetProxy::stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return stats_;
}

ProxyStats FleetProxy::snapshot_live() const {
  ProxyStats s = live_;
  s.active_sessions = sessions_.size();
  s.pending = queue_.size();
  std::uint64_t inflight = 0, healthy = 0;
  for (const auto& b : backends_) {
    inflight += b->request_ops();
    if (b->health == BackendConn::Health::kHealthy) ++healthy;
  }
  s.in_flight = inflight;
  s.backends_healthy = healthy;
  s.backends_total = backends_.size();
  s.respawns = view_.respawns;
  return s;
}

double FleetProxy::now_ms() const {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

std::uint32_t FleetProxy::retry_hint() const {
  const double pressure =
      options_.max_pending > 0
          ? static_cast<double>(queue_.size()) /
                static_cast<double>(options_.max_pending)
          : 1.0;
  const double hint = options_.busy_retry_ms * (1.0 + 3.0 * pressure);
  return static_cast<std::uint32_t>(
      std::min(hint, options_.busy_retry_ms * 16.0));
}

// ------------------------------------------------------- client side --

void FleetProxy::accept_ready() {
  for (;;) {
    fdio::IoResult r;
    const int fd = fdio::accept_retry(listener_, &r);
    if (fd < 0) {
      if (r.failed) ++live_.io_errors;
      return;
    }
    if (sessions_.size() >= options_.max_sessions) {
      std::ostringstream os;
      net::write_busy(os, retry_hint());
      const std::string text = os.str();
      (void)fdio::write_some(fd, text.data(), text.size());
      ::close(fd);
      ++live_.busy_shed;
      continue;
    }
    fdio::set_nonblocking(fd);
    fdio::set_cloexec(fd);
    auto s = std::make_unique<Session>(options_.max_frame_bytes);
    s->id = next_session_id_++;
    s->fd = fd;
    s->last_read_ms = s->last_write_progress_ms = now_ms();
    ++live_.accepted;
    sessions_.emplace(s->id, std::move(s));
  }
}

bool FleetProxy::read_ready(Session& s) {
  char buf[4096];
  bool capped = true;
  for (int round = 0; round < 8 && !s.closing && !s.dead; ++round) {
    const fdio::IoResult r = fdio::read_some(s.fd, buf, sizeof buf);
    if (r.would_block) {
      capped = false;
      break;
    }
    if (r.failed) {
      ++live_.io_errors;
      force_close(s);
      return false;
    }
    if (r.n == 0) {
      s.closing = true;
      break;
    }
    s.last_read_ms = now_ms();
    s.reader.feed(buf, static_cast<std::size_t>(r.n));
    net::Frame frame;
    while (!s.closing && !s.dead && s.reader.next(&frame))
      handle_frame(s, std::move(frame));
  }
  if (!s.dead) {
    if (s.reader.mid_frame()) {
      if (s.frame_open_ms < 0) s.frame_open_ms = now_ms();
    } else {
      s.frame_open_ms = -1;
    }
  }
  return capped && !s.closing && !s.dead;
}

void FleetProxy::handle_frame(Session& s, net::Frame frame) {
  SessionSlot slot;
  slot.seq = s.next_slot_seq++;
  switch (frame.type) {
    case net::Frame::Type::kOversize: {
      std::ostringstream os;
      net::write_error(os, "frame exceeds " +
                               std::to_string(options_.max_frame_bytes) +
                               " bytes");
      slot.state = SessionSlot::State::kText;
      slot.text = os.str();
      s.slots.push_back(std::move(slot));
      s.closing = true;
      return;
    }
    case net::Frame::Type::kCommand:
      s.slots.push_back(std::move(slot));
      handle_command(s, s.slots.back(), std::move(frame.tokens));
      return;
    case net::Frame::Type::kDatalog:
      break;
  }
  if (s.unresolved() >= options_.session_inflight ||
      queue_.size() >= options_.max_pending) {
    ++live_.busy_shed;
    std::ostringstream os;
    net::write_busy(os, retry_hint());
    slot.state = SessionSlot::State::kText;
    slot.text = os.str();
    s.slots.push_back(std::move(slot));
    return;
  }
  auto rec = std::make_unique<RequestRec>();
  rec->key = next_key_++;
  rec->session_id = s.id;
  rec->slot_seq = slot.seq;
  rec->frame = std::move(frame.text);
  slot.state = SessionSlot::State::kWaiting;
  slot.key = rec->key;
  queue_.push_back(rec->key);
  requests_.emplace(rec->key, std::move(rec));
  s.slots.push_back(std::move(slot));
}

void FleetProxy::handle_command(Session& s, SessionSlot& slot,
                                std::vector<std::string> tokens) {
  std::ostringstream os;
  if (tokens.size() == 1 && tokens[0] == "quit") {
    slot.state = SessionSlot::State::kQuit;
    return;
  }
  if (tokens.size() == 1 && tokens[0] == "stats") {
    os << "stats " << format_proxy_stats(snapshot_live()) << "\n";
  } else if (tokens.size() == 1 && tokens[0] == "!health") {
    const ProxyStats ps = snapshot_live();
    os << "health state=" << (draining_ ? "draining" : "ok")
       << " healthy=" << ps.backends_healthy
       << " total=" << ps.backends_total << " pending=" << ps.pending
       << " in_flight=" << ps.in_flight << "\n";
  } else if (tokens.size() == 1 && tokens[0] == "!fleet") {
    render_fleet(os);
  } else if (tokens.size() == 1 &&
             (tokens[0] == "!reload" || tokens[0] == "!rolling")) {
    if (op_ != nullptr) {
      net::write_error(os, "fleet operation already in progress");
    } else {
      op_ = std::make_unique<FleetOp>();
      op_->kind = tokens[0] == "!reload" ? FleetOp::Kind::kFlip
                                         : FleetOp::Kind::kRolling;
      op_->session_id = s.id;
      op_->slot_seq = slot.seq;
      op_->started_ms = now_ms();
      if (op_->kind == FleetOp::Kind::kFlip) {
        // Phase 1: quiesce. New work queues behind the flip; the flip
        // completes when nothing is running anywhere.
        dispatch_paused_ = true;
      } else {
        for (const auto& b : backends_)
          if (b->health == BackendConn::Health::kHealthy)
            op_->order.push_back(b->addr.id);
      }
      slot.state = SessionSlot::State::kWaiting;  // deferred reply, key == 0
      return;
    }
  } else {
    net::write_error(os, "unknown verb " + (tokens.empty() ? "" : tokens[0]) +
                             " (have stats !health !fleet !reload !rolling"
                             " quit)");
  }
  slot.state = SessionSlot::State::kText;
  slot.text = os.str();
}

void FleetProxy::render_fleet(std::ostream& os) const {
  for (const auto& b : backends_) {
    os << "backend id=" << b->addr.id << " pid=" << b->addr.pid
       << " gen=" << b->addr.generation << " addr=" << b->addr.host << ":"
       << b->addr.port << " state=" << b->health_name()
       << " version=" << b->version << " inflight=" << b->request_ops()
       << " fails=" << b->consecutive_failures << "\n";
  }
  std::uint64_t healthy = 0;
  for (const auto& b : backends_)
    if (b->health == BackendConn::Health::kHealthy) ++healthy;
  os << "fleet healthy=" << healthy << " total=" << backends_.size()
     << " respawns=" << view_.respawns << " failovers=" << live_.failovers
     << " ejections=" << live_.ejections << " flips=" << live_.flips
     << "\n"
     << "done\n";
}

void FleetProxy::resolve_fronts(Session& s) {
  while (!s.slots.empty() && !s.dead) {
    SessionSlot& front = s.slots.front();
    switch (front.state) {
      case SessionSlot::State::kWaiting:
        return;
      case SessionSlot::State::kText:
        s.outbuf += front.text;
        ++live_.responses;
        s.slots.pop_front();
        break;
      case SessionSlot::State::kQuit:
        s.closing = true;
        s.slots.pop_front();
        break;
    }
  }
}

void FleetProxy::flush_writes(Session& s) {
  while (!s.outbuf.empty() && !s.dead) {
    const fdio::IoResult r =
        fdio::write_some(s.fd, s.outbuf.data(), s.outbuf.size());
    if (r.would_block) return;
    if (r.failed) {
      ++live_.io_errors;
      force_close(s);
      return;
    }
    if (r.n > 0) {
      s.outbuf.erase(0, static_cast<std::size_t>(r.n));
      s.last_write_progress_ms = now_ms();
    }
  }
}

void FleetProxy::enforce_timeouts(Session& s, double now) {
  if (s.dead) return;
  if (!s.outbuf.empty() &&
      now - s.last_write_progress_ms > options_.write_timeout_ms) {
    force_close(s);
    return;
  }
  if (s.frame_open_ms >= 0 &&
      now - s.frame_open_ms > options_.frame_timeout_ms) {
    force_close(s);
    return;
  }
  if (!s.closing && s.outbuf.empty() && s.slots.empty() &&
      !s.reader.mid_frame() && now - s.last_read_ms > options_.idle_timeout_ms)
    force_close(s);
}

// Teardown. Queued requests are erased (the dispatcher skips missing
// keys); requests outstanding on a backend become orphans — the backend
// will still answer them (they hold its capacity), and the reply is
// dropped on arrival.
void FleetProxy::force_close(Session& s) {
  if (s.dead) return;
  for (SessionSlot& slot : s.slots) {
    if (slot.state != SessionSlot::State::kWaiting || slot.key == 0) continue;
    auto it = requests_.find(slot.key);
    if (it == requests_.end()) continue;
    if (it->second->backend < 0)
      requests_.erase(it);
    else
      it->second->session_id = 0;  // orphan
  }
  s.slots.clear();
  s.outbuf.clear();
  ::close(s.fd);
  s.fd = -1;
  s.dead = true;
}

// ------------------------------------------------------ backend side --

void FleetProxy::sync_backends(double now) {
  while (backends_.size() < view_.backends.size()) {
    auto b = std::make_unique<BackendConn>();
    b->addr = view_.backends[backends_.size()];
    backends_.push_back(std::move(b));
  }
  for (std::size_t i = 0; i < view_.backends.size(); ++i) {
    BackendConn& b = *backends_[i];
    b.addr = view_.backends[i];
    if (b.addr.generation != b.seen_generation) {
      // A respawn: any existing connection talks to a corpse, and the
      // fresh process deserves a fresh circuit breaker.
      b.seen_generation = b.addr.generation;
      if (b.fd >= 0 || b.connecting) backend_conn_lost(b, now, true);
      b.consecutive_failures = 0;
      b.was_ejected = false;
      b.health = BackendConn::Health::kDown;
      b.reconnect_after_ms = now;
    }
    if ((b.fd >= 0 || b.connecting) && b.addr.port < 0) {
      // The supervisor says the process is gone; don't wait for EOF.
      backend_conn_lost(b, now, true);
    }
    if (b.fd < 0 && !b.connecting && b.addr.port >= 0 &&
        now >= b.reconnect_after_ms) {
      if (b.health == BackendConn::Health::kEjected) {
        if (now - b.ejected_at_ms >= options_.probation_ms)
          connect_backend(b, now);
      } else {
        connect_backend(b, now);
      }
    }
    if (b.connecting &&
        now - b.connect_started_ms > options_.probe_timeout_ms) {
      backend_conn_lost(b, now, false);  // connect() never completed
    }
  }
}

void FleetProxy::connect_backend(BackendConn& b, double now) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ++live_.io_errors;
    b.reconnect_after_ms = now + options_.probe_interval_ms;
    return;
  }
  fdio::set_nonblocking(fd);
  fdio::set_cloexec(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(b.addr.port));
  if (::inet_pton(AF_INET, b.addr.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    b.reconnect_after_ms = now + options_.probe_interval_ms;
    return;
  }
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    b.reconnect_after_ms = now + options_.probe_interval_ms;
    return;
  }
  b.fd = fd;
  b.connected_generation = b.addr.generation;
  b.connect_started_ms = now;
  b.inbuf.clear();
  b.outbuf.clear();
  b.reply.clear();
  if (rc == 0) {
    b.connecting = false;
    on_backend_connected(b, now);
  } else {
    b.connecting = true;
    b.health = BackendConn::Health::kConnecting;
  }
}

void FleetProxy::on_backend_connected(BackendConn& b, double now) {
  b.connecting = false;
  if (b.was_ejected) {
    // Reinstatement path: earn reinstate_after_successes probe successes
    // before the entry reload readmits it.
    b.health = BackendConn::Health::kProbation;
    b.probation_successes = 0;
    b.last_probe_ms = -1e18;
  } else {
    // Uniform entry rule: every backend joining rotation reloads first,
    // so it provably serves the newest published version no matter when
    // its process last read the manifest.
    b.health = BackendConn::Health::kEntering;
    b.outbuf += "!reload\n";
    b.ops.push_back({BackendConn::Op::Kind::kReload, 0, now});
    backend_flush(b);
  }
}

// Closes the connection (if open) and fails over every request that was
// outstanding on it: keys go back to the FRONT of the queue in their
// original order, so failover never reorders a session's requests.
void FleetProxy::close_backend(BackendConn& b, const char* why,
                               bool count_disconnect) {
  if (b.fd < 0 && !b.connecting) return;
  (void)why;
  if (count_disconnect) ++live_.backend_disconnects;
  ::close(b.fd);
  b.fd = -1;
  b.connecting = false;
  b.inbuf.clear();
  b.outbuf.clear();
  b.reply.clear();
  std::vector<std::uint64_t> keys;  // oldest first
  for (const BackendConn::Op& op : b.ops)
    if (op.kind == BackendConn::Op::Kind::kRequest) keys.push_back(op.key);
  // A pending flip must not wait forever for an ack this backend can no
  // longer send; it re-enters via the entry reload instead.
  if (op_ != nullptr && op_->kind == FleetOp::Kind::kFlip)
    op_->awaiting.erase(b.addr.id);
  b.ops.clear();
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) requeue_or_fail(*it);
}

void FleetProxy::backend_conn_lost(BackendConn& b, double now,
                                   bool count_disconnect) {
  close_backend(b, "lost", count_disconnect);
  ++b.consecutive_failures;
  b.probation_successes = 0;
  if (b.was_ejected || b.health == BackendConn::Health::kProbation ||
      b.health == BackendConn::Health::kEjected) {
    b.health = BackendConn::Health::kEjected;
    b.ejected_at_ms = now;
  } else if (b.in_rotation() &&
             b.consecutive_failures >= options_.eject_after_failures) {
    ++live_.ejections;
    b.was_ejected = true;
    b.health = BackendConn::Health::kEjected;
    b.ejected_at_ms = now;
  } else {
    b.health = BackendConn::Health::kDown;
    b.reconnect_after_ms = now + options_.probe_interval_ms;
  }
}

void FleetProxy::requeue_or_fail(std::uint64_t key) {
  auto it = requests_.find(key);
  if (it == requests_.end()) return;
  RequestRec& rec = *it->second;
  rec.backend = -1;
  if (rec.session_id == 0) {
    requests_.erase(it);  // orphan: nobody is owed the reply anymore
    return;
  }
  if (rec.attempts >= options_.max_failovers) {
    std::ostringstream os;
    net::write_error(os, "backend unavailable (gave up after " +
                             std::to_string(rec.attempts) + " attempts)");
    finish_request(key, os.str());
    return;
  }
  ++live_.failovers;
  queue_.push_front(key);
}

void FleetProxy::finish_request(std::uint64_t key, std::string reply_text) {
  auto it = requests_.find(key);
  if (it == requests_.end()) return;
  const std::uint64_t session_id = it->second->session_id;
  const std::uint64_t slot_seq = it->second->slot_seq;
  requests_.erase(it);
  if (session_id == 0) return;
  auto sit = sessions_.find(session_id);
  if (sit == sessions_.end() || sit->second->dead) return;
  SessionSlot* slot = sit->second->find_slot(slot_seq);
  if (slot == nullptr || slot->state != SessionSlot::State::kWaiting) return;
  slot->state = SessionSlot::State::kText;
  slot->text = std::move(reply_text);
}

void FleetProxy::backend_flush(BackendConn& b) {
  while (!b.outbuf.empty() && b.fd >= 0 && !b.connecting) {
    if (failpoint::triggered("fleet.backend.reset")) {
      // Chaos hook: sever the data path mid-conversation; everything
      // outstanding fails over exactly as it would on a real death.
      backend_conn_lost(b, now_ms(), true);
      return;
    }
    const fdio::IoResult r =
        fdio::write_some(b.fd, b.outbuf.data(), b.outbuf.size());
    if (r.would_block) return;
    if (r.failed) {
      ++live_.io_errors;
      backend_conn_lost(b, now_ms(), true);
      return;
    }
    if (r.n > 0) b.outbuf.erase(0, static_cast<std::size_t>(r.n));
  }
}

void FleetProxy::backend_read_ready(BackendConn& b, double now) {
  char buf[4096];
  for (int round = 0; round < 8 && b.fd >= 0; ++round) {
    const fdio::IoResult r = fdio::read_some(b.fd, buf, sizeof buf);
    if (r.would_block) break;
    if (r.failed || r.n == 0) {
      if (r.failed) ++live_.io_errors;
      backend_conn_lost(b, now, true);
      return;
    }
    b.inbuf.append(buf, static_cast<std::size_t>(r.n));
    std::size_t nl;
    while (b.fd >= 0 && (nl = b.inbuf.find('\n')) != std::string::npos) {
      std::string line = b.inbuf.substr(0, nl);
      b.inbuf.erase(0, nl + 1);
      consume_backend_line(b, std::move(line), now);
    }
  }
}

void FleetProxy::consume_backend_line(BackendConn& b, std::string line,
                                      double now) {
  if (b.ops.empty()) {
    // A reply nobody asked for: protocol violation; drop the connection.
    ++live_.io_errors;
    backend_conn_lost(b, now, true);
    return;
  }
  BackendConn::Op& front = b.ops.front();
  if (front.kind == BackendConn::Op::Kind::kProbe && b.reply.empty() &&
      starts_with(line, "health ")) {
    b.ops.pop_front();
    probe_success(b, split_ws(line), now);
    return;
  }
  const bool done = line == "done";
  b.reply += line;
  b.reply += '\n';
  if (!done) return;
  std::string reply = std::move(b.reply);
  b.reply.clear();
  const BackendConn::Op op = front;
  b.ops.pop_front();
  switch (op.kind) {
    case BackendConn::Op::Kind::kRequest:
      finish_request(op.key, std::move(reply));
      break;
    case BackendConn::Op::Kind::kProbe:
      // A probe answered with error...done (e.g. no circuit selected yet).
      probe_failure(b, now);
      break;
    case BackendConn::Op::Kind::kReload: {
      const bool ok = starts_with(reply, "reloaded");
      if (b.health == BackendConn::Health::kEntering) {
        if (ok) {
          b.health = BackendConn::Health::kHealthy;
          if (b.was_ejected) {
            ++live_.reinstatements;
            b.was_ejected = false;
          }
        } else {
          // Can't prove it serves the current version; keep it out.
          backend_conn_lost(b, now, false);
        }
      } else if (op_ != nullptr && op_->kind == FleetOp::Kind::kFlip) {
        op_->awaiting.erase(b.addr.id);
        if (!ok) {
          // This backend missed the flip; eject it so the entry reload
          // re-proves its version before it serves again.
          ++live_.ejections;
          b.was_ejected = true;
          backend_conn_lost(b, now, false);
        }
      }
      break;
    }
  }
}

void FleetProxy::probe_success(BackendConn& b,
                               const std::vector<std::string>& tokens,
                               double now) {
  b.consecutive_failures = 0;
  b.health_inflight = parse_field(tokens, "in_flight");
  b.version = parse_field(tokens, "version");
  b.last_health_ms = now;
  if (b.health == BackendConn::Health::kProbation) {
    if (++b.probation_successes >= options_.reinstate_after_successes) {
      b.health = BackendConn::Health::kEntering;
      b.outbuf += "!reload\n";
      b.ops.push_back({BackendConn::Op::Kind::kReload, 0, now});
      backend_flush(b);
    }
  }
}

void FleetProxy::probe_failure(BackendConn& b, double now) {
  ++live_.probe_failures;
  b.probation_successes = 0;
  ++b.consecutive_failures;
  if (b.in_rotation() &&
      b.consecutive_failures >= options_.eject_after_failures) {
    ++live_.ejections;
    b.was_ejected = true;
    close_backend(b, "ejected", false);
    b.health = BackendConn::Health::kEjected;
    b.ejected_at_ms = now;
  } else if (b.health == BackendConn::Health::kProbation) {
    close_backend(b, "probation failure", false);
    b.health = BackendConn::Health::kEjected;
    b.ejected_at_ms = now;
  }
}

void FleetProxy::probe_backends(double now) {
  for (const auto& bp : backends_) {
    BackendConn& b = *bp;
    if (b.fd < 0 || b.connecting) continue;
    // A wedged backend (alive but silent) must not hold requests hostage:
    // when the OLDEST outstanding op has had no complete reply for
    // probe_timeout_ms, the connection is declared dead and everything
    // on it fails over. Diagnosis replies normally land in microseconds;
    // the deadline only fires for genuine wedges.
    if (!b.ops.empty() &&
        now - b.ops.front().sent_ms > options_.probe_timeout_ms) {
      ++live_.probe_failures;
      backend_conn_lost(b, now, true);
      continue;
    }
    const bool probeable = b.in_rotation() ||
                           b.health == BackendConn::Health::kProbation;
    if (probeable && !b.probe_outstanding() &&
        now - b.last_probe_ms >= options_.probe_interval_ms) {
      b.last_probe_ms = now;
      ++live_.probes;
      b.outbuf += "!health\n";
      b.ops.push_back({BackendConn::Op::Kind::kProbe, 0, now});
      backend_flush(b);
    }
  }
}

void FleetProxy::dispatch(double now) {
  if (dispatch_paused_) return;
  while (!queue_.empty()) {
    // Round-robin over dispatchable backends, resuming after the one the
    // previous request landed on.
    BackendConn* target = nullptr;
    const std::size_t n = backends_.size();
    for (std::size_t probe = 0; probe < n; ++probe) {
      BackendConn& cand = *backends_[(rr_cursor_ + 1 + probe) % n];
      if (cand.health != BackendConn::Health::kHealthy || cand.fd < 0 ||
          cand.connecting)
        continue;
      if (cand.request_ops() >= options_.backend_inflight) continue;
      target = &cand;
      rr_cursor_ = (rr_cursor_ + 1 + probe) % n;
      break;
    }
    if (target == nullptr) return;  // nobody can take work right now
    const std::uint64_t key = queue_.front();
    queue_.pop_front();
    auto it = requests_.find(key);
    if (it == requests_.end()) continue;  // its session died while queued
    RequestRec& rec = *it->second;
    ++rec.attempts;
    rec.backend = target->addr.id;
    target->outbuf += rec.frame;
    target->ops.push_back({BackendConn::Op::Kind::kRequest, key, now});
    backend_flush(*target);
  }
}

// ----------------------------------------------------- fleet ops ------

void FleetProxy::finish_fleet_op(const std::string& text, bool ok) {
  (void)ok;
  if (op_ == nullptr) return;
  const std::uint64_t session_id = op_->session_id;
  const std::uint64_t slot_seq = op_->slot_seq;
  op_.reset();
  dispatch_paused_ = false;
  auto it = sessions_.find(session_id);
  if (it == sessions_.end() || it->second->dead) return;
  SessionSlot* slot = it->second->find_slot(slot_seq);
  if (slot == nullptr || slot->state != SessionSlot::State::kWaiting) return;
  slot->state = SessionSlot::State::kText;
  slot->text = text;
}

void FleetProxy::step_fleet_op(double now) {
  if (op_ == nullptr) return;
  if (now - op_->started_ms > options_.op_timeout_ms) {
    if (op_->kind == FleetOp::Kind::kRolling) {
      // Put the half-drained backend back to work.
      for (const auto& b : backends_)
        if (b->health == BackendConn::Health::kDraining)
          b->health = BackendConn::Health::kHealthy;
    }
    std::ostringstream os;
    net::write_error(os, "fleet operation timed out");
    finish_fleet_op(os.str(), false);
    return;
  }
  if (op_->kind == FleetOp::Kind::kFlip) {
    if (op_->phase == 1) {
      std::size_t inflight = 0;
      for (const auto& b : backends_) inflight += b->request_ops();
      if (inflight > 0) return;  // still quiescing
      op_->phase = 2;
      for (const auto& b : backends_) {
        if (!b->in_rotation() || b->fd < 0) continue;
        op_->awaiting.insert(b->addr.id);
        b->outbuf += "!reload\n";
        b->ops.push_back({BackendConn::Op::Kind::kReload, 0, now});
        backend_flush(*b);
      }
    }
    if (op_->phase == 2 && op_->awaiting.empty()) {
      ++live_.flips;
      std::size_t in_rotation = 0;
      for (const auto& b : backends_)
        if (b->in_rotation()) ++in_rotation;
      finish_fleet_op(
          "reloaded backends=" + std::to_string(in_rotation) + "\ndone\n",
          true);
    }
    return;
  }
  // Rolling restart: one backend at a time, in the order captured when
  // the op started.
  for (;;) {
    if (op_->idx >= op_->order.size()) {
      ++live_.rolling_restarts;
      finish_fleet_op(
          "rolling restarted=" + std::to_string(op_->restarted) + "\ndone\n",
          true);
      return;
    }
    const int id = op_->order[op_->idx];
    BackendConn* b = nullptr;
    for (const auto& bp : backends_)
      if (bp->addr.id == id) b = bp.get();
    if (b == nullptr) {
      ++op_->idx;
      continue;
    }
    switch (op_->roll_stage) {
      case FleetOp::RollStage::kPick:
        if (b->health != BackendConn::Health::kHealthy) {
          ++op_->idx;  // died or was ejected since the order was captured
          continue;
        }
        b->health = BackendConn::Health::kDraining;
        op_->gen_at_drain = b->addr.generation;
        op_->drain_started_ms = now;
        op_->roll_stage = FleetOp::RollStage::kDrain;
        return;
      case FleetOp::RollStage::kDrain:
        if (b->health != BackendConn::Health::kDraining) {
          // It fell out of rotation on its own (crash, ejection); the
          // respawn/reinstatement machinery takes it from here.
          op_->roll_stage = FleetOp::RollStage::kAwaitRespawn;
          continue;
        }
        if (b->request_ops() > 0) return;  // proxy-side work still owed
        op_->roll_stage = FleetOp::RollStage::kAwaitHealthZero;
        b->last_probe_ms = -1e18;  // force an immediate fresh probe
        continue;
      case FleetOp::RollStage::kAwaitHealthZero:
        if (b->health != BackendConn::Health::kDraining) {
          op_->roll_stage = FleetOp::RollStage::kAwaitRespawn;
          continue;
        }
        // The backend itself must confirm zero in-flight on a probe taken
        // after the drain began — proxy-side zero plus a stale health
        // line is not proof.
        if (b->last_health_ms < op_->drain_started_ms ||
            b->health_inflight != 0)
          return;
        source_.restart(id);
        op_->roll_stage = FleetOp::RollStage::kAwaitRespawn;
        return;
      case FleetOp::RollStage::kAwaitRespawn:
        if (b->addr.generation > op_->gen_at_drain &&
            b->health == BackendConn::Health::kHealthy) {
          ++op_->restarted;
          ++op_->idx;
          op_->roll_stage = FleetOp::RollStage::kPick;
          continue;
        }
        return;
    }
  }
}

// ----------------------------------------------------------- run ------

void FleetProxy::run() {
  draining_ = false;
  double drain_start = 0;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_session;  // session id, 0 = none
  std::vector<int> fd_backend;            // index into backends_, -1 = none
  for (;;) {
    const double tick_now = now_ms();
    source_.tick(tick_now, &view_);
    sync_backends(tick_now);
    probe_backends(tick_now);

    fds.clear();
    fd_session.clear();
    fd_backend.clear();
    fds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
    fd_session.push_back(0);
    fd_backend.push_back(-1);
    std::size_t listener_idx = 0;
    if (!draining_ && listener_ >= 0) {
      listener_idx = fds.size();
      fds.push_back(pollfd{listener_, POLLIN, 0});
      fd_session.push_back(0);
      fd_backend.push_back(-1);
    }
    for (auto& [id, sp] : sessions_) {
      Session& s = *sp;
      if (s.dead) continue;
      short events = 0;
      if (!s.closing && !draining_) events |= POLLIN;
      if (!s.outbuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{s.fd, events, 0});
      fd_session.push_back(id);
      fd_backend.push_back(-1);
    }
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      BackendConn& b = *backends_[i];
      if (b.fd < 0) continue;
      short events = POLLIN;
      if (b.connecting || !b.outbuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{b.fd, events, 0});
      fd_session.push_back(0);
      fd_backend.push_back(static_cast<int>(i));
    }

    linger_.append_pollfds(&fds);
    fd_session.resize(fds.size(), 0);
    fd_backend.resize(fds.size(), -1);

    // Probe cadence, reconnect backoff and supervisor reaping all need
    // periodic ticks even when no fd fires.
    const int nready = ::poll(fds.data(), fds.size(), 20);
    if (nready < 0 && errno != EINTR) ++live_.io_errors;
    wake_.drain();

    if (stop_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_start = now_ms();
      // Final read sweep, as in NetServer::run(): what arrived before the
      // stop is accepted and answered; after it the drain reads nothing.
      for (auto& [id, sp] : sessions_)
        while (read_ready(*sp) &&
               now_ms() - drain_start <= options_.drain_timeout_ms) {
        }
      if (listener_ >= 0) ::close(listener_);
      listener_ = -1;
    }

    const double now = now_ms();
    if (!draining_ && nready > 0 && listener_idx != 0 &&
        (fds[listener_idx].revents & POLLIN))
      accept_ready();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fd_backend[i] >= 0) {
        BackendConn& b = *backends_[static_cast<std::size_t>(fd_backend[i])];
        if (b.fd != fds[i].fd) continue;  // replaced mid-loop
        if (fds[i].revents & (POLLERR | POLLNVAL)) {
          ++live_.io_errors;
          backend_conn_lost(b, now, true);
          continue;
        }
        if (b.connecting && (fds[i].revents & (POLLOUT | POLLHUP))) {
          int err = 0;
          socklen_t len = sizeof err;
          ::getsockopt(b.fd, SOL_SOCKET, SO_ERROR, &err, &len);
          if (err != 0) {
            backend_conn_lost(b, now, false);
            continue;
          }
          on_backend_connected(b, now);
        }
        if (b.fd >= 0 && (fds[i].revents & (POLLIN | POLLHUP)))
          backend_read_ready(b, now);
        if (b.fd >= 0 && (fds[i].revents & POLLOUT)) backend_flush(b);
        continue;
      }
      if (fd_session[i] == 0) continue;
      auto it = sessions_.find(fd_session[i]);
      if (it == sessions_.end() || it->second->dead) continue;
      Session& s = *it->second;
      if (fds[i].revents & (POLLERR | POLLNVAL)) {
        ++live_.io_errors;
        force_close(s);
        continue;
      }
      if (!draining_ && (fds[i].revents & (POLLIN | POLLHUP))) read_ready(s);
    }

    dispatch(now);
    step_fleet_op(now);

    linger_.step(now);
    for (auto& [id, sp] : sessions_) {
      if (sp->dead) continue;
      resolve_fronts(*sp);
      flush_writes(*sp);
      enforce_timeouts(*sp, now);
      if (!sp->dead && sp->closing && sp->slots.empty() && sp->outbuf.empty()) {
        linger_.add(sp->fd, now + fdio::kLingerTimeoutMs);
        sp->fd = -1;
        sp->dead = true;
      }
    }
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->dead)
        it = sessions_.erase(it);
      else
        ++it;
    }

    {
      std::lock_guard<std::mutex> lk(stats_mutex_);
      stats_ = snapshot_live();
    }

    if (draining_) {
      bool work_left = !queue_.empty() || !requests_.empty();
      for (auto& [id, sp] : sessions_)
        if (!sp->dead && (!sp->slots.empty() || !sp->outbuf.empty()))
          work_left = true;
      const bool expired = now - drain_start > options_.drain_timeout_ms;
      if (!work_left || expired) {
        for (auto& [id, sp] : sessions_)
          if (!sp->dead) linger_.add(sp->fd, now + fdio::kLingerTimeoutMs);
        sessions_.clear();
        if (!linger_.empty() && !expired) continue;
        linger_.close_all();
        for (auto& b : backends_)
          if (b->fd >= 0) {
            ::close(b->fd);
            b->fd = -1;
            b->connecting = false;
            b->ops.clear();
          }
        std::lock_guard<std::mutex> lk(stats_mutex_);
        stats_ = snapshot_live();
        stats_.active_sessions = 0;
        return;
      }
    }
  }
}

}  // namespace sddict::fleet
