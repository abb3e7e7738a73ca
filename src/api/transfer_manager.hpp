// TransferManager (paper §3.3): a non-blocking view over this node's
// concurrent transfers — probe per datum, completion callbacks (the async
// analogue of waitFor), and a tunable concurrency cap with FIFO admission.
//
// The node runtime (simulated or local) registers every transfer it starts
// through begin()/finish(); user code observes them here. All methods are
// thread-safe (PR 3: real TcpTransfer streams call begin()/finish() from
// worker threads), and every callback — admitted jobs and when_done
// waiters — is invoked with the manager's lock released, so an admitted
// job may be a blocking transfer and callbacks may call back in freely.
// admit() reserves the concurrency slot before the job runs; the job's
// begin() converts the reservation into an active transfer.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "api/expected.hpp"
#include "core/data.hpp"
#include "util/thread_annotations.hpp"

namespace bitdew::api {

enum class TransferProbe { kUnknown, kActive, kDone, kFailed };

class TransferManager {
 public:
  /// Limits simultaneously running transfers on this node (0 == unlimited).
  void set_max_concurrent(int limit) EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    max_concurrent_ = limit;
  }
  int max_concurrent() const EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return max_concurrent_;
  }

  /// Queues work under the concurrency cap; `run` is invoked when a slot is
  /// free. The runtime wraps protocol starts with this. The admitted job
  /// runs with the lock released — it may block, and may call back in.
  void admit(std::function<void()> run) EXCLUDES(mutex_);

  /// Marks a transfer of `uid` started (runtime side).
  void begin(const util::Auid& uid) EXCLUDES(mutex_);

  /// Marks it finished with its outcome — ok, or the Error saying why the
  /// download died (no source, transport loss, checksum exhaustion).
  /// Releases the slot and fires waiters (runtime side). Every callback —
  /// waiters and admitted jobs — fires OUTSIDE the lock.
  void finish(const util::Auid& uid, Status outcome) EXCLUDES(mutex_);

  /// Non-blocking probe of the paper's API.
  TransferProbe probe(const util::Auid& uid) const EXCLUDES(mutex_);

  /// Outcome of a finished transfer (Errc::kUnavailable while unknown or
  /// still active).
  Status outcome(const util::Auid& uid) const EXCLUDES(mutex_);

  /// The async waitFor: runs `done(outcome)` when the datum's transfer
  /// completes; immediate if it already has.
  void when_done(const util::Auid& uid, std::function<void(Status)> done) EXCLUDES(mutex_);

  int active_count() const EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return active_;
  }
  int queued_count() const EXCLUDES(mutex_) {
    const util::LockGuard lock(mutex_);
    return static_cast<int>(pending_.size());
  }

 private:
  mutable util::Mutex mutex_;
  int max_concurrent_ GUARDED_BY(mutex_) = 0;
  /// Slots reserved by admit(), not yet begin()-ed.
  int admitting_ GUARDED_BY(mutex_) = 0;
  int active_ GUARDED_BY(mutex_) = 0;
  std::deque<std::function<void()>> pending_ GUARDED_BY(mutex_);
  std::map<util::Auid, TransferProbe> states_ GUARDED_BY(mutex_);
  std::map<util::Auid, Status> outcomes_ GUARDED_BY(mutex_);
  std::map<util::Auid, std::vector<std::function<void(Status)>>> waiters_ GUARDED_BY(mutex_);
};

}  // namespace bitdew::api
