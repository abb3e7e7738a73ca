#include "api/transfer_manager.hpp"

#include <optional>

namespace bitdew::api {

void TransferManager::admit(std::function<void()> run) {
  {
    const util::LockGuard lock(mutex_);
    if (max_concurrent_ > 0 && active_ + admitting_ >= max_concurrent_) {
      pending_.push_back(std::move(run));
      return;
    }
    // Reserve the slot before running outside the lock, so a racing admit
    // cannot oversubscribe; begin() converts the reservation into active_.
    ++admitting_;
  }
  run();
}

void TransferManager::begin(const util::Auid& uid) {
  const util::LockGuard lock(mutex_);
  if (admitting_ > 0) --admitting_;
  ++active_;
  states_[uid] = TransferProbe::kActive;
}

void TransferManager::finish(const util::Auid& uid, Status outcome) {
  std::vector<std::function<void(Status)>> callbacks;
  std::vector<std::function<void()>> admitted;
  {
    const util::LockGuard lock(mutex_);
    --active_;
    states_[uid] = outcome.ok() ? TransferProbe::kDone : TransferProbe::kFailed;
    outcomes_.insert_or_assign(uid, outcome);

    const auto waiting = waiters_.find(uid);
    if (waiting != waiters_.end()) {
      callbacks = std::move(waiting->second);
      waiters_.erase(waiting);
    }

    // Reserve slots for queued transfers; they run below, outside the lock
    // (an admitted job may be a blocking real-byte transfer — it must not
    // serialize every other thread's probe/begin/finish behind it).
    while (!pending_.empty() &&
           (max_concurrent_ == 0 || active_ + admitting_ < max_concurrent_)) {
      admitted.push_back(std::move(pending_.front()));
      pending_.pop_front();
      ++admitting_;
    }
  }

  for (auto& callback : callbacks) callback(outcome);
  for (auto& next : admitted) next();
}

TransferProbe TransferManager::probe(const util::Auid& uid) const {
  const util::LockGuard lock(mutex_);
  const auto it = states_.find(uid);
  return it != states_.end() ? it->second : TransferProbe::kUnknown;
}

Status TransferManager::outcome(const util::Auid& uid) const {
  const util::LockGuard lock(mutex_);
  const auto it = outcomes_.find(uid);
  if (it == outcomes_.end()) {
    return Error{Errc::kUnavailable, "tm", "no finished transfer for " + uid.str()};
  }
  return it->second;
}

void TransferManager::when_done(const util::Auid& uid, std::function<void(Status)> done) {
  std::optional<Status> ready;
  {
    const util::LockGuard lock(mutex_);
    const auto it = states_.find(uid);
    const TransferProbe state = it != states_.end() ? it->second : TransferProbe::kUnknown;
    if (state == TransferProbe::kDone || state == TransferProbe::kFailed) {
      const auto found = outcomes_.find(uid);
      ready = found != outcomes_.end()
                  ? found->second
                  : Status(Error{Errc::kUnavailable, "tm",
                                 "no finished transfer for " + uid.str()});
    } else {
      waiters_[uid].push_back(std::move(done));
    }
  }
  if (ready.has_value()) done(*ready);
}

}  // namespace bitdew::api
