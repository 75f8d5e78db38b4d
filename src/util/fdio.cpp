#include "util/fdio.h"

#include <cerrno>
#include <fcntl.h>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

#include "util/failpoint.h"

namespace sddict::fdio {

namespace {

// Reads and throws away what the peer has sent so far (a bounded number
// of reads, so a firehose peer cannot pin the caller). Returns false once
// the peer's EOF or a read error ends the stream.
bool discard_input(int fd) {
  char sink[4096];
  for (int round = 0; round < 8; ++round) {
    const ssize_t got = ::read(fd, sink, sizeof sink);
    if (got > 0) continue;
    if (got < 0 && errno == EINTR) continue;
    return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return true;
}

void set_fd_flag(int fd, int get, int set, int flag, const char* what) {
  const int flags = ::fcntl(fd, get);
  if (flags < 0 || ::fcntl(fd, set, flags | flag) < 0)
    throw std::runtime_error(std::string("fcntl ") + what + " failed");
}

}  // namespace

void set_nonblocking(int fd) {
  set_fd_flag(fd, F_GETFL, F_SETFL, O_NONBLOCK, "O_NONBLOCK");
}

void set_cloexec(int fd) {
  set_fd_flag(fd, F_GETFD, F_SETFD, FD_CLOEXEC, "FD_CLOEXEC");
}

IoResult read_some(int fd, char* buf, std::size_t n) {
  IoResult r;
  for (;;) {
    if (failpoint::triggered("net.read.fail")) {
      r.failed = true;
      r.errno_value = ECONNRESET;
      return r;
    }
    if (failpoint::triggered("net.read.eintr")) continue;  // injected EINTR
    const std::size_t want =
        failpoint::triggered("net.read.short") ? std::size_t{1} : n;
    const ssize_t got = ::read(fd, buf, want);
    if (got >= 0) {
      r.n = got;
      return r;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      r.would_block = true;
      return r;
    }
    r.failed = true;
    r.errno_value = errno;
    return r;
  }
}

IoResult write_some(int fd, const char* buf, std::size_t n) {
  IoResult r;
  for (;;) {
    if (failpoint::triggered("net.write.fail")) {
      r.failed = true;
      r.errno_value = EPIPE;
      return r;
    }
    if (failpoint::triggered("net.write.eintr")) continue;  // injected EINTR
    const std::size_t want =
        failpoint::triggered("net.write.short") && n > 0 ? std::size_t{1} : n;
    // MSG_NOSIGNAL would need send(); plain write() keeps this usable on
    // pipes too, so callers must ignore SIGPIPE process-wide (the server
    // and client both do).
    const ssize_t put = ::write(fd, buf, want);
    if (put >= 0) {
      r.n = put;
      return r;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      r.would_block = true;
      return r;
    }
    r.failed = true;
    r.errno_value = errno;
    return r;
  }
}

int accept_retry(int listener, IoResult* result) {
  *result = IoResult{};
  for (;;) {
    if (failpoint::triggered("net.accept.eintr")) continue;  // injected EINTR
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result->would_block = true;
      return -1;
    }
    result->failed = true;
    result->errno_value = errno;
    return -1;
  }
}

WakePipe::WakePipe() {
  if (::pipe(fds_) != 0) throw std::runtime_error("pipe() failed");
  for (int fd : fds_) {
    set_nonblocking(fd);
    set_cloexec(fd);
  }
}

WakePipe::~WakePipe() {
  ::close(fds_[0]);
  ::close(fds_[1]);
}

void WakePipe::notify() const {
  const char byte = 1;
  // Async-signal-safe: one nonblocking write; a full pipe already
  // guarantees the loop will wake, so EAGAIN is success.
  [[maybe_unused]] const ssize_t n = ::write(fds_[1], &byte, 1);
}

void WakePipe::drain() const {
  char sink[64];
  while (::read(fds_[0], sink, sizeof sink) > 0) {
  }
}

void LingerSet::add(int fd, double deadline_ms) {
  ::shutdown(fd, SHUT_WR);
  held_.push_back(Held{fd, deadline_ms});
}

void LingerSet::append_pollfds(std::vector<pollfd>* fds) const {
  for (const Held& h : held_) fds->push_back(pollfd{h.fd, POLLIN, 0});
}

void LingerSet::step(double now_ms) {
  for (std::size_t i = 0; i < held_.size();) {
    if (discard_input(held_[i].fd) && now_ms < held_[i].deadline_ms) {
      ++i;
      continue;
    }
    ::close(held_[i].fd);
    held_[i] = held_.back();
    held_.pop_back();
  }
}

void LingerSet::close_all() {
  for (const Held& h : held_) {
    discard_input(h.fd);
    ::close(h.fd);
  }
  held_.clear();
}

}  // namespace sddict::fdio
