#ifndef HALK_COMMON_MUTEX_H_
#define HALK_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace halk {

/// A `std::mutex` annotated as a thread-safety capability, so clang's
/// `-Wthread-safety` analysis can verify lock discipline: members declared
/// `HALK_GUARDED_BY(mu_)` may only be touched while `mu_` is held, and
/// functions declared `HALK_REQUIRES(mu_)` may only be called with it held.
/// libstdc++'s own `std::mutex` carries no annotations, which is why the
/// repo rule (halk_lint: no-std-mutex) bans it outside this wrapper.
class HALK_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() HALK_ACQUIRE() { mu_.lock(); }
  void Unlock() HALK_RELEASE() { mu_.unlock(); }
  bool TryLock() HALK_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;  // halk_lint:allow no-std-mutex — the annotated wrapper
};

/// RAII lock over Mutex — the annotated replacement for
/// `std::lock_guard<std::mutex>`.
class HALK_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) HALK_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() HALK_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait requires the mutex held
/// (checked by the analysis); internally it adopts the underlying
/// std::mutex for the wait, so there is zero overhead over
/// `std::condition_variable` + `std::unique_lock`.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, and reacquires before returning.
  void Wait(Mutex& mu) HALK_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  /// Waits until `pred()` is true (re-checking after each wakeup).
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) HALK_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock, std::move(pred));
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace halk

#endif  // HALK_COMMON_MUTEX_H_
