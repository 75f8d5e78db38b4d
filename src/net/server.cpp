#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "diag/testerlog.h"
#include "util/failpoint.h"

namespace sddict::net {

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

std::string format_net_stats(const NetStats& s) {
  std::ostringstream out;
  out << "accepted=" << s.accepted
      << " rejected_sessions=" << s.rejected_sessions << " frames=" << s.frames
      << " responses=" << s.responses << " busy_shed=" << s.busy_shed
      << " malformed=" << s.malformed << " oversize=" << s.oversize
      << " idle_reaped=" << s.idle_reaped << " frame_reaped=" << s.frame_reaped
      << " write_reaped=" << s.write_reaped
      << " midframe_disconnects=" << s.midframe_disconnects
      << " io_errors=" << s.io_errors << " sessions=" << s.active_sessions
      << " pending=" << s.pending << " net_in_flight=" << s.in_flight;
  return out.str();
}

// One reply slot. Replies leave a session strictly in request order: only
// the front slot of the deque may render, so a slow diagnosis never lets
// a later reply (even an instant busy or admin one) overtake it.
struct SessionSlot {
  enum class State {
    kQueued,    // parsed, waiting for service capacity (in pending_)
    kInFlight,  // submitted; future pending
    kText,      // rendered reply text, ready to write
    kAdmin,     // admin/stats command, executed when it reaches the front
    kSession,   // `session` verb frame, executed when it reaches the front
    kQuit,      // quit command: start closing when it reaches the front
  };
  State state = State::kText;
  std::uint64_t seq = 0;
  std::vector<Observed> observed;  // kQueued; moved out at dispatch
  std::size_t dropped = 0;
  std::future<ServiceResponse> future;  // kInFlight
  std::string text;                     // kText
  std::vector<std::string> tokens;      // kAdmin
};

struct NetServer::Session {
  std::uint64_t id = 0;
  int fd = -1;
  FrameReader reader;
  std::string outbuf;
  std::deque<SessionSlot> slots;
  std::uint64_t next_slot_seq = 1;
  double last_read_ms = 0;
  double last_write_progress_ms = 0;
  double frame_open_ms = -1;  // -1 = no partial frame open
  bool closing = false;       // stop reading; drain slots, flush, close
  bool dead = false;          // fd closed; erase at cleanup

  explicit Session(std::size_t max_frame_bytes) : reader(max_frame_bytes) {}

  std::size_t unresolved() const {
    std::size_t n = 0;
    for (const SessionSlot& s : slots)
      if (s.state == SessionSlot::State::kQueued ||
          s.state == SessionSlot::State::kInFlight)
        ++n;
    return n;
  }

  SessionSlot* find_slot(std::uint64_t seq) {
    for (SessionSlot& s : slots)
      if (s.seq == seq) return &s;
    return nullptr;
  }
};

struct NetServer::Pending {
  std::uint64_t session_id = 0;
  std::uint64_t slot_seq = 0;
};

NetServer::NetServer(Backend& backend, const NetServerOptions& options)
    : backend_(backend), options_(options) {}

NetServer::~NetServer() {
  for (auto& [id, s] : sessions_)
    if (!s->dead && s->fd >= 0) ::close(s->fd);
  if (tcp_listener_ >= 0) ::close(tcp_listener_);
  if (unix_listener_ >= 0) ::close(unix_listener_);
  if (!options_.unix_path.empty() && unix_listener_ >= 0)
    ::unlink(options_.unix_path.c_str());
}

void NetServer::start() {
  // A peer that disappears mid-write must surface as EPIPE from write(),
  // not kill the process.
  ::signal(SIGPIPE, SIG_IGN);
  if (options_.tcp_port >= 0) {
    tcp_listener_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_listener_ < 0) throw_errno("socket(AF_INET)");
    const int one = 1;
    ::setsockopt(tcp_listener_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::inet_pton(AF_INET, options_.bind_host.c_str(), &addr.sin_addr) != 1)
      throw std::runtime_error("bad bind host '" + options_.bind_host + "'");
    if (::bind(tcp_listener_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw_errno("bind tcp port " + std::to_string(options_.tcp_port));
    if (::listen(tcp_listener_, options_.backlog) != 0) throw_errno("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(tcp_listener_, reinterpret_cast<sockaddr*>(&addr),
                      &len) != 0)
      throw_errno("getsockname");
    bound_tcp_port_ = ntohs(addr.sin_port);
    fdio::set_nonblocking(tcp_listener_);
    fdio::set_cloexec(tcp_listener_);
  }
  if (!options_.unix_path.empty()) {
    const std::string& path = options_.unix_path;
    unix_listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_listener_ < 0) throw_errno("socket(AF_UNIX)");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
      throw std::runtime_error("socket path too long: " + path);
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
    // Reclaim a stale socket file from a dead server, but refuse to
    // clobber anything that is not a socket.
    struct stat st{};
    if (::lstat(path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode))
        throw std::runtime_error("refusing to replace non-socket " + path);
      ::unlink(path.c_str());
    }
    if (::bind(unix_listener_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0)
      throw_errno("bind " + path);
    if (::listen(unix_listener_, options_.backlog) != 0) throw_errno("listen");
    fdio::set_nonblocking(unix_listener_);
    fdio::set_cloexec(unix_listener_);
  }
  if (tcp_listener_ < 0 && unix_listener_ < 0)
    throw std::runtime_error("NetServer: no listener configured");
}

void NetServer::request_stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake_.notify();
}

NetStats NetServer::stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  return stats_;
}

// Loop-thread-only: live counters plus current gauges, for the in-band
// `stats` reply (fresher than the published cross-thread copy).
NetStats NetServer::snapshot_live() const {
  NetStats s = live_;
  s.active_sessions = sessions_.size();
  s.pending = pending_.size();
  s.in_flight = inflight_;
  return s;
}

double NetServer::now_ms() const {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

// Retry-after hint, scaled by how deep the pending queue already is: a
// client shed at 3x pressure is told to stay away ~4x longer than one
// shed at an instantaneous blip, which spreads the retry herd out.
std::uint32_t NetServer::retry_hint() const {
  const double pressure =
      options_.max_pending > 0
          ? static_cast<double>(pending_.size()) /
                static_cast<double>(options_.max_pending)
          : 1.0;
  const double hint = options_.busy_retry_ms * (1.0 + 3.0 * pressure);
  return static_cast<std::uint32_t>(
      std::min(hint, options_.busy_retry_ms * 16.0));
}

void NetServer::accept_ready(int listener) {
  for (;;) {
    fdio::IoResult r;
    const int fd = fdio::accept_retry(listener, &r);
    if (fd < 0) {
      if (r.failed) ++live_.io_errors;
      return;  // would_block: accepted everything ready
    }
    if (sessions_.size() >= options_.max_sessions) {
      // Connection-level admission control: an explicit busy, never a
      // silent RST. Best effort — the peer may already be gone.
      std::ostringstream os;
      write_busy(os, retry_hint());
      const std::string text = os.str();
      (void)fdio::write_some(fd, text.data(), text.size());
      ::close(fd);
      ++live_.rejected_sessions;
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

bool NetServer::read_ready(Session& s) {
  char buf[4096];
  // Bounded rounds per poll cycle so one firehose client cannot starve
  // the rest of the loop.
  bool capped = true;
  for (int round = 0; round < 8 && !s.closing && !s.dead; ++round) {
    const fdio::IoResult r = fdio::read_some(s.fd, buf, sizeof buf);
    if (r.would_block) {
      capped = false;
      break;
    }
    if (r.failed) {
      ++live_.io_errors;
      force_close(s, s.reader.mid_frame());
      return false;
    }
    if (r.n == 0) {  // EOF: drain what was accepted, flush, then close
      if (s.reader.mid_frame()) ++live_.midframe_disconnects;
      s.closing = true;
      break;
    }
    s.last_read_ms = now_ms();
    s.reader.feed(buf, static_cast<std::size_t>(r.n));
    Frame frame;
    while (!s.closing && !s.dead && s.reader.next(&frame))
      handle_frame(s, std::move(frame));
  }
  // Slow-loris bookkeeping: note when a partial frame opened, clear when
  // it completed.
  if (!s.dead) {
    if (s.reader.mid_frame()) {
      if (s.frame_open_ms < 0) s.frame_open_ms = now_ms();
    } else {
      s.frame_open_ms = -1;
    }
  }
  return capped && !s.closing && !s.dead;
}

void NetServer::handle_frame(Session& s, Frame frame) {
  switch (frame.type) {
    case Frame::Type::kOversize: {
      ++live_.oversize;
      SessionSlot slot;
      slot.state = SessionSlot::State::kText;
      slot.seq = s.next_slot_seq++;
      std::ostringstream os;
      write_error(os, "frame exceeds " +
                          std::to_string(options_.max_frame_bytes) + " bytes");
      slot.text = os.str();
      s.slots.push_back(std::move(slot));
      s.closing = true;  // the reader is wedged; reply, flush, close
      return;
    }
    case Frame::Type::kCommand: {
      SessionSlot slot;
      slot.seq = s.next_slot_seq++;
      if (frame.tokens.size() == 1 && frame.tokens[0] == "quit") {
        slot.state = SessionSlot::State::kQuit;
      } else {
        slot.state = SessionSlot::State::kAdmin;
        slot.tokens = std::move(frame.tokens);
      }
      s.slots.push_back(std::move(slot));
      return;
    }
    case Frame::Type::kDatalog:
      break;
  }
  ++live_.frames;
  SessionSlot slot;
  slot.seq = s.next_slot_seq++;
  if (is_session_frame(frame.text)) {
    // Session verbs execute inline on the loop thread when they reach the
    // front of the slot queue (the admin-verb discipline), so they stay
    // ordered with the replies around them and the session state needs no
    // locking. The raw frame rides in the slot's text field until then.
    slot.state = SessionSlot::State::kSession;
    slot.text = std::move(frame.text);
    s.slots.push_back(std::move(slot));
    return;
  }
  std::istringstream blockin(frame.text);
  try {
    TesterLog log = read_testerlog(blockin, {.recover = true});
    slot.dropped = log.dropped.size();
    slot.observed = std::move(log.observations);
  } catch (const std::exception& e) {
    // Malformed frame: an error reply on this slot only. The session —
    // and every other session — keeps going.
    ++live_.malformed;
    slot.state = SessionSlot::State::kText;
    std::ostringstream os;
    write_error(os, e.what());
    slot.text = os.str();
    s.slots.push_back(std::move(slot));
    return;
  }
  if (s.unresolved() >= options_.session_inflight) {
    // Per-session admission: one greedy client cannot occupy the whole
    // service; it gets explicit busy replies past its in-flight cap.
    ++live_.busy_shed;
    slot.state = SessionSlot::State::kText;
    std::ostringstream os;
    write_busy(os, retry_hint());
    slot.text = os.str();
    s.slots.push_back(std::move(slot));
    return;
  }
  slot.state = SessionSlot::State::kQueued;
  pending_.push_back(Pending{s.id, slot.seq});
  s.slots.push_back(std::move(slot));
  pump_admission();
}

// Feeds queued requests into the service while capacity lasts, then
// sheds pending-queue overflow oldest-first with explicit busy replies.
void NetServer::pump_admission() {
  while (!pending_.empty() && inflight_ < options_.max_inflight) {
    const Pending p = pending_.front();
    auto it = sessions_.find(p.session_id);
    SessionSlot* slot = it == sessions_.end()
                            ? nullptr
                            : it->second->find_slot(p.slot_seq);
    if (slot == nullptr || slot->state != SessionSlot::State::kQueued) {
      pending_.pop_front();  // session closed or slot already shed
      continue;
    }
    std::optional<std::future<ServiceResponse>> fut;
    try {
      if (failpoint::triggered("net.submit.full"))
        fut = std::nullopt;  // injected service saturation
      else
        // Copied, not moved: a full service queue keeps the request
        // intact for the next pump.
        fut = backend_.service().try_submit(slot->observed);
    } catch (const std::exception& e) {
      // No service to dispatch to (e.g. repo mode without a circuit).
      slot->state = SessionSlot::State::kText;
      std::ostringstream os;
      write_error(os, e.what());
      slot->text = os.str();
      pending_.pop_front();
      continue;
    }
    if (!fut.has_value()) {
      // Service queue full: the request stays pending until the
      // dispatcher frees capacity; overflow past max_pending is shed
      // below.
      break;
    }
    slot->state = SessionSlot::State::kInFlight;
    slot->observed.clear();
    slot->observed.shrink_to_fit();
    slot->future = std::move(*fut);
    ++inflight_;
    pending_.pop_front();
  }
  while (pending_.size() > options_.max_pending) {
    // Overload: shed OLDEST first. The front of the queue has waited
    // longest — its deadline expires soonest and its client is the most
    // likely to have given up — so shedding it (with an explicit busy)
    // preserves the requests that still have time to be useful.
    const Pending p = pending_.front();
    pending_.pop_front();
    auto it = sessions_.find(p.session_id);
    if (it == sessions_.end()) continue;
    SessionSlot* slot = it->second->find_slot(p.slot_seq);
    if (slot == nullptr || slot->state != SessionSlot::State::kQueued)
      continue;
    ++live_.busy_shed;
    slot->state = SessionSlot::State::kText;
    std::ostringstream os;
    write_busy(os, retry_hint());
    slot->text = os.str();
  }
}

// Renders every resolvable reply at the front of the slot queue into the
// session's write buffer, preserving request order.
void NetServer::resolve_fronts(Session& s) {
  while (!s.slots.empty() && !s.dead) {
    SessionSlot& front = s.slots.front();
    switch (front.state) {
      case SessionSlot::State::kQueued:
        return;  // waiting for admission
      case SessionSlot::State::kInFlight: {
        if (front.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
          return;
        std::ostringstream os;
        try {
          write_response(os, front.future.get(), front.dropped);
        } catch (const std::exception& e) {
          write_error(os, e.what());
        }
        s.outbuf += os.str();
        --inflight_;
        ++live_.responses;
        s.slots.pop_front();
        break;
      }
      case SessionSlot::State::kText:
        s.outbuf += front.text;
        ++live_.responses;
        s.slots.pop_front();
        break;
      case SessionSlot::State::kAdmin: {
        std::ostringstream os;
        try {
          if (front.tokens.size() == 1 && front.tokens[0] == "stats") {
            os << "stats " << format_service_stats(backend_.service().stats())
               << " " << format_net_stats(snapshot_live()) << "\n";
          } else if (front.tokens.size() == 1 && front.tokens[0] == "!health") {
            // Machine-readable one-liner (no `done`): what a supervisor or
            // proxy health probe needs to decide rotation membership and
            // drain completion. in_flight counts every accepted request not
            // yet replied to (net pending + dispatched), so zero here means
            // this backend owes nobody anything.
            const ServiceStats svc = backend_.service().stats();
            os << "health state=" << (draining_ ? "draining" : "ok")
               << " queue_depth=" << svc.queue_depth
               << " in_flight=" << (pending_.size() + inflight_)
               << " epoch=" << svc.swaps
               << " version=" << backend_.store_version() << "\n";
          } else if (!backend_.handle_admin(front.tokens, os)) {
            write_error(os, "admin verbs need repository mode (--repo)");
          }
        } catch (const std::exception& e) {
          write_error(os, e.what());
        }
        s.outbuf += os.str();
        ++live_.responses;
        s.slots.pop_front();
        break;
      }
      case SessionSlot::State::kSession: {
        std::ostringstream os;
        try {
          if (!backend_.handle_session(front.text, os))
            write_error(os, "session verbs not supported by this server");
        } catch (const std::exception& e) {
          write_error(os, e.what());
        }
        s.outbuf += os.str();
        ++live_.responses;
        s.slots.pop_front();
        break;
      }
      case SessionSlot::State::kQuit:
        s.closing = true;
        s.slots.pop_front();
        break;
    }
  }
}

void NetServer::flush_writes(Session& s) {
  while (!s.outbuf.empty() && !s.dead) {
    const fdio::IoResult r =
        fdio::write_some(s.fd, s.outbuf.data(), s.outbuf.size());
    if (r.would_block) return;
    if (r.failed) {
      ++live_.io_errors;
      force_close(s, s.reader.mid_frame());
      return;
    }
    if (r.n > 0) {
      s.outbuf.erase(0, static_cast<std::size_t>(r.n));
      s.last_write_progress_ms = now_ms();
    }
  }
}

void NetServer::enforce_timeouts(Session& s, double now) {
  if (s.dead) return;
  if (!s.outbuf.empty() &&
      now - s.last_write_progress_ms > options_.write_timeout_ms) {
    ++live_.write_reaped;
    force_close(s, s.reader.mid_frame());
    return;
  }
  if (s.frame_open_ms >= 0 && now - s.frame_open_ms > options_.frame_timeout_ms) {
    // Slow loris: a frame has been dribbling in for too long.
    ++live_.frame_reaped;
    force_close(s, /*count_midframe=*/true);
    return;
  }
  if (!s.closing && s.outbuf.empty() && s.slots.empty() &&
      !s.reader.mid_frame() &&
      now - s.last_read_ms > options_.idle_timeout_ms) {
    ++live_.idle_reaped;
    force_close(s, /*count_midframe=*/false);
  }
}

// Immediate teardown (timeout, I/O failure). In-flight futures still hold
// service capacity, so they move to the orphan list and keep being polled
// until resolution; queued slots become dead entries the admission pump
// skips.
void NetServer::force_close(Session& s, bool count_midframe) {
  if (s.dead) return;
  if (count_midframe) ++live_.midframe_disconnects;
  for (SessionSlot& slot : s.slots)
    if (slot.state == SessionSlot::State::kInFlight)
      orphans_.push_back(std::move(slot.future));
  s.slots.clear();
  s.outbuf.clear();
  ::close(s.fd);
  s.fd = -1;
  s.dead = true;
}

void NetServer::run() {
  draining_ = false;
  double drain_start = 0;
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_session;  // session id per pollfd slot, 0 = none
  for (;;) {
    fds.clear();
    fd_session.clear();
    fds.push_back(pollfd{wake_.read_fd(), POLLIN, 0});
    fd_session.push_back(0);
    std::size_t tcp_idx = 0, unix_idx = 0;
    if (!draining_) {
      if (tcp_listener_ >= 0) {
        tcp_idx = fds.size();
        fds.push_back(pollfd{tcp_listener_, POLLIN, 0});
        fd_session.push_back(0);
      }
      if (unix_listener_ >= 0) {
        unix_idx = fds.size();
        fds.push_back(pollfd{unix_listener_, POLLIN, 0});
        fd_session.push_back(0);
      }
    }
    bool futures_pending = !orphans_.empty() || !pending_.empty();
    for (auto& [id, sp] : sessions_) {
      Session& s = *sp;
      if (s.dead) continue;
      short events = 0;
      if (!s.closing && !draining_) events |= POLLIN;
      if (!s.outbuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{s.fd, events, 0});
      fd_session.push_back(id);
      for (const SessionSlot& slot : s.slots)
        if (slot.state == SessionSlot::State::kInFlight) {
          futures_pending = true;
          break;
        }
    }
    // Futures resolve on the service's dispatcher thread with no fd to
    // poll, so while any are outstanding the loop ticks fast; otherwise
    // it sleeps until the nearest timeout could possibly fire.
    const int timeout = futures_pending ? 2 : 100;
    linger_.append_pollfds(&fds);
    fd_session.resize(fds.size(), 0);
    const int nready = ::poll(fds.data(), fds.size(), timeout);
    if (nready < 0 && errno != EINTR) ++live_.io_errors;
    wake_.drain();

    if (stop_requested_.load(std::memory_order_acquire) && !draining_) {
      draining_ = true;
      drain_start = now_ms();
      // Final read sweep: frames that arrived before the stop are
      // accepted and answered like any other, past the per-cycle read
      // cap; after it the drain reads nothing more. It runs before the
      // listeners close, so a refused connect means it is done.
      for (auto& [id, sp] : sessions_)
        while (read_ready(*sp) &&
               now_ms() - drain_start <= options_.drain_timeout_ms) {
        }
      if (tcp_listener_ >= 0) ::close(tcp_listener_);
      if (unix_listener_ >= 0) {
        ::close(unix_listener_);
        if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
      }
      tcp_listener_ = -1;
      unix_listener_ = -1;
    }

    if (!draining_ && nready > 0) {
      if (tcp_idx != 0 && (fds[tcp_idx].revents & POLLIN))
        accept_ready(fds[tcp_idx].fd);
      if (unix_idx != 0 && (fds[unix_idx].revents & POLLIN))
        accept_ready(fds[unix_idx].fd);
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fd_session[i] == 0) continue;
      auto it = sessions_.find(fd_session[i]);
      if (it == sessions_.end() || it->second->dead) continue;
      Session& s = *it->second;
      if (fds[i].revents & (POLLERR | POLLNVAL)) {
        ++live_.io_errors;
        force_close(s, s.reader.mid_frame());
        continue;
      }
      if (!draining_ && (fds[i].revents & (POLLIN | POLLHUP))) read_ready(s);
    }

    pump_admission();

    // Orphaned futures (their session died) still occupy service slots.
    for (std::size_t i = 0; i < orphans_.size();) {
      if (orphans_[i].wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        try {
          orphans_[i].get();
        } catch (...) {
        }
        --inflight_;
        orphans_.erase(orphans_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    const double now = now_ms();
    linger_.step(now);
    for (auto& [id, sp] : sessions_) {
      if (sp->dead) continue;
      resolve_fronts(*sp);
      flush_writes(*sp);
      enforce_timeouts(*sp, now);
      if (!sp->dead && sp->closing && sp->slots.empty() &&
          sp->outbuf.empty()) {
        // The peer may have pipelined more after a `quit` or an oversize
        // frame: close with FIN after discarding it, never with a reset.
        linger_.add(sp->fd, now + fdio::kLingerTimeoutMs);
        sp->fd = -1;
        sp->dead = true;
      }
    }
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second->dead) {
        const std::uint64_t id = it->first;
        pending_.erase(std::remove_if(pending_.begin(), pending_.end(),
                                      [id](const Pending& p) {
                                        return p.session_id == id;
                                      }),
                       pending_.end());
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }

    {
      std::lock_guard<std::mutex> lk(stats_mutex_);
      stats_ = live_;
      stats_.active_sessions = sessions_.size();
      stats_.pending = pending_.size();
      stats_.in_flight = inflight_;
    }

    if (draining_) {
      bool work_left = !pending_.empty() || inflight_ > 0;
      for (auto& [id, sp] : sessions_)
        if (!sp->dead && (!sp->slots.empty() || !sp->outbuf.empty()))
          work_left = true;
      const bool expired = now - drain_start > options_.drain_timeout_ms;
      if (!work_left || expired) {
        // Every reply is written: half-close each session and discard late
        // input until the peer's EOF; `expired` still bounds the wait.
        for (auto& [id, sp] : sessions_)
          if (!sp->dead) linger_.add(sp->fd, now + fdio::kLingerTimeoutMs);
        sessions_.clear();
        if (!linger_.empty() && !expired) continue;
        linger_.close_all();
        std::lock_guard<std::mutex> lk(stats_mutex_);
        stats_ = live_;
        stats_.active_sessions = 0;
        stats_.pending = pending_.size();
        stats_.in_flight = inflight_;
        return;
      }
    }
  }
}

}  // namespace sddict::net
