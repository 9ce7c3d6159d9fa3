#ifndef HALK_TESTS_SHARD_SLOW_RANGE_MODEL_H_
#define HALK_TESTS_SHARD_SLOW_RANGE_MODEL_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <vector>

#include "core/halk_model.h"

namespace halk::shard {

/// Test-local HaLk model whose top-k scans stall on chosen shard ranges,
/// for driving shard deadline misses without a production hook. A scan
/// whose range starts at a slowed `begin` sleeps `delay` (or until Heal())
/// before scanning normally, so its answers stay exact. Same config, same
/// weights: rankings equal a plain HalkModel built from the same config.
class SlowRangeModel : public core::HalkModel {
 public:
  SlowRangeModel(const core::ModelConfig& config,
                 std::chrono::milliseconds delay)
      : core::HalkModel(config, nullptr), delay_(delay) {}

  /// Slows every later scan of the range that starts at `begin`.
  void SlowRange(int64_t begin) {
    std::lock_guard<std::mutex> lock(mu_);
    slow_begins_.insert(begin);
  }

  /// Clears every slowed range and wakes scans still sleeping.
  void Heal() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slow_begins_.clear();
    }
    healed_.notify_all();
  }

  void AccumulateTopKRange(const std::vector<core::BranchRef>& branches,
                           int64_t begin, int64_t end,
                           core::TopKAccumulator* acc,
                           core::ScanStats* stats = nullptr) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      healed_.wait_for(lock, delay_,
                       [&] { return slow_begins_.count(begin) == 0; });
    }
    core::HalkModel::AccumulateTopKRange(branches, begin, end, acc, stats);
  }

 private:
  const std::chrono::milliseconds delay_;
  mutable std::mutex mu_;
  mutable std::condition_variable healed_;
  std::set<int64_t> slow_begins_;
};

}  // namespace halk::shard

#endif  // HALK_TESTS_SHARD_SLOW_RANGE_MODEL_H_
