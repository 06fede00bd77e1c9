// RAII advisory file lock: opens (creating if needed) `path` and takes a
// blocking exclusive flock(2) on it. Used to serialize writers of the
// shared result cache. Every FileLock opens its own file description, so
// the flock serializes threads of one process as well as processes.
//
// flock is advisory: every writer must go through this helper. The lock is
// released (and the fd closed) on destruction, including on exceptions.
//
// Failure is reported, never swallowed: on a failed acquire ok() is false
// and error()/failed_step()/error_detail() say which syscall failed and
// why, so callers can log a useful one-liner instead of a bare "could not
// lock". The cache writer acquires through acquire_with_retry(), which
// rides out transient failures (injected or real EINTR/EIO storms,
// momentary ENOSPC) with bounded exponential backoff before giving up.
//
// Fault site "lock.acquire" (common/fault_inject.hh) sits between open and
// flock: injected eintr re-enters the retry loop, eio/enospc/timeout fail
// the acquire with the matching errno, kill dies waiting for the lock.
//
// Identity re-check: a lock only counts once the locked fd still names the
// file at `path`. A process that opened the path before another holder
// renamed a replacement into place (`avr_sweep --fsck --repair`) or
// unlinked it would otherwise win the flock on the old, now nameless inode
// and append into a file nobody reads again. After flock succeeds the
// constructor compares fstat(fd) with stat(path); if (st_dev, st_ino)
// differ or the path is gone, it closes the fd and runs one more acquire
// round on the current file.
#pragma once

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/backoff.hh"
#include "common/fault_inject.hh"

namespace avr {

class FileLock {
 public:
  /// Opens `path` with `oflags` (mode 0644 when creating) and blocks until
  /// an exclusive flock is held. On failure `ok()` is false, no lock is
  /// held, and error()/failed_step() describe the failure; the caller
  /// decides whether that is fatal.
  explicit FileLock(const std::string& path, int oflags = O_RDWR | O_CREAT) {
    for (;;) {
      do {
        fd_ = ::open(path.c_str(), oflags | O_CLOEXEC, 0644);
      } while (fd_ < 0 && errno == EINTR);
      if (fd_ < 0) {
        errno_ = errno;
        step_ = "open";
        return;
      }
      for (;;) {
        switch (fault::fire(fault::Site::kLockAcquire)) {
          case fault::Kind::kNone:
            break;
          case fault::Kind::kEintr:
            continue;  // one injected EINTR round through this loop
          case fault::Kind::kKill:
            fault::kill_now(fault::Site::kLockAcquire);
          case fault::Kind::kTimeout:
            fail_acquire(ETIMEDOUT);
            return;
          case fault::Kind::kEnospc:
            fail_acquire(ENOSPC);
            return;
          default:  // short_write / eio: a hard I/O error on the lock path
            fail_acquire(EIO);
            return;
        }
        if (::flock(fd_, LOCK_EX) == 0) break;
        if (errno != EINTR) {
          fail_acquire(errno);
          return;
        }
      }
      if (names_path(path)) return;
      release();  // locked a replaced or unlinked inode: reopen the path
    }
  }

  /// Acquires with up to `attempts` tries, sleeping an exponentially
  /// growing, jittered interval between failures (common/backoff.hh). The
  /// returned lock may still be !ok() after the final attempt — transient
  /// storms end, dead disks do not.
  static FileLock acquire_with_retry(const std::string& path,
                                     int oflags = O_RDWR | O_CREAT,
                                     int attempts = kIoRetryAttempts) {
    for (int attempt = 0;; ++attempt) {
      FileLock lock(path, oflags);
      if (lock.ok() || attempt + 1 >= attempts) return lock;
      backoff_sleep(attempt,
                    static_cast<uint64_t>(::getpid()) ^
                        (static_cast<uint64_t>(attempt) << 32));
    }
  }

  ~FileLock() { release(); }

  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  FileLock(FileLock&& o) noexcept
      : fd_(o.fd_), errno_(o.errno_), step_(o.step_) {
    o.fd_ = -1;
  }
  FileLock& operator=(FileLock&& o) noexcept {
    if (this != &o) {
      release();
      fd_ = o.fd_;
      errno_ = o.errno_;
      step_ = o.step_;
      o.fd_ = -1;
    }
    return *this;
  }

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// errno of the failed syscall (0 after a successful acquire).
  int error() const { return errno_; }

  /// Which step failed: "open" or "flock"; nullptr after success.
  const char* failed_step() const { return step_; }

  /// One-line human-readable failure description, e.g.
  /// "flock failed: No space left on device".
  std::string error_detail() const {
    if (ok()) return "ok";
    return std::string(step_ ? step_ : "acquire") +
           " failed: " + std::strerror(errno_);
  }

  /// Unlock early (also closes the fd). Idempotent.
  void release() {
    if (fd_ >= 0) {
      ::flock(fd_, LOCK_UN);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  /// True when the locked fd is still the file at `path`. A failed fstat
  /// (never seen in practice) keeps the lock rather than spin.
  bool names_path(const std::string& path) const {
    struct stat held, named;
    if (::fstat(fd_, &held) != 0) return true;
    if (::stat(path.c_str(), &named) != 0) return errno != ENOENT;
    return held.st_dev == named.st_dev && held.st_ino == named.st_ino;
  }

  void fail_acquire(int err) {
    ::close(fd_);
    fd_ = -1;
    errno_ = err;
    step_ = "flock";
  }

  int fd_ = -1;
  int errno_ = 0;
  const char* step_ = nullptr;
};

}  // namespace avr
