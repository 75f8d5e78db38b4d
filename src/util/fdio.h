// POSIX fd helpers for the networked serving tier: nonblocking setup and
// read/write/accept wrappers with a uniform result type, EINTR retry, and
// failpoint hooks so the chaos harness can deterministically inject the
// syscall-level degradations production sees — short reads, spurious
// EINTR, mid-transfer resets — without a misbehaving peer.
//
// Failpoints (all condition-style, see util/failpoint.h triggered()):
//   net.read.eintr / net.write.eintr / net.accept.eintr
//       one attempt behaves as if interrupted; the wrapper retries, so
//       the injection exercises the retry loop, not the caller.
//   net.read.short / net.write.short
//       one attempt transfers at most 1 byte (a short read/write).
//   net.read.fail / net.write.fail
//       the attempt fails hard (ECONNRESET / EPIPE) without touching
//       the fd — a mid-frame peer reset.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <cstddef>
#include <vector>

namespace sddict::fdio {

// Outcome of one read_some/write_some call on a (possibly nonblocking)
// fd. Exactly one of the three shapes holds: transferred `n` bytes
// (n == 0 on read means EOF), would_block (EAGAIN — wait for poll), or
// failed (hard error, errno_value names it).
struct IoResult {
  ssize_t n = 0;
  bool would_block = false;
  bool failed = false;
  int errno_value = 0;
};

// Throw std::runtime_error on fcntl failure.
void set_nonblocking(int fd);
void set_cloexec(int fd);

// One read/write with EINTR retry and the failpoints above. Never throws.
IoResult read_some(int fd, char* buf, std::size_t n);
IoResult write_some(int fd, const char* buf, std::size_t n);

// accept() with EINTR retry (real and injected). Returns the connected
// fd, or -1 with would_block/failed semantics reported via *result.
int accept_retry(int listener, IoResult* result);

// Self-pipe pair for waking a poll loop from a signal handler or another
// thread: notify() is async-signal-safe (one nonblocking write, EAGAIN
// ignored — the pipe being full already guarantees a wakeup), drain()
// empties the read end. Both fds are nonblocking and close-on-exec.
class WakePipe {
 public:
  WakePipe();   // throws std::runtime_error on pipe() failure
  ~WakePipe();
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;

  int read_fd() const { return fds_[0]; }
  void notify() const;
  void drain() const;

 private:
  int fds_[2];
};

// Lingering close for connected sockets. Closing a socket whose receive
// queue still holds unread bytes makes the kernel answer with a TCP reset,
// and a reset can destroy replies the peer has not read yet. add()
// half-closes the fd instead (shutdown(SHUT_WR): the peer gets every byte
// already written, then a FIN); step() reads and discards whatever the
// peer still sends and closes the fd at its EOF, on a read error, or at
// the fd's deadline. Discarding bypasses the net.read.* failpoints: none
// of its bytes are used. Single-threaded, like the poll loops that own it.
class LingerSet {
 public:
  LingerSet() = default;
  ~LingerSet() { close_all(); }
  LingerSet(const LingerSet&) = delete;
  LingerSet& operator=(const LingerSet&) = delete;

  // Takes ownership of `fd` and half-closes it; it is closed by
  // deadline_ms at the latest (same clock as step()'s now_ms).
  void add(int fd, double deadline_ms);
  // Appends one POLLIN entry per held fd, so late input or the peer's EOF
  // wakes the loop.
  void append_pollfds(std::vector<pollfd>* fds) const;
  // Discards pending input on every held fd; closes those that reached
  // EOF, failed, or passed their deadline.
  void step(double now_ms);
  // Discards what is pending, then closes every held fd now.
  void close_all();
  bool empty() const { return held_.empty(); }

 private:
  struct Held {
    int fd;
    double deadline_ms;
  };
  std::vector<Held> held_;
};

// How long a half-closed session waits for the peer's EOF (a drain's own
// deadline still cuts it short).
inline constexpr double kLingerTimeoutMs = 2000;

}  // namespace sddict::fdio
