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
/// before scanning normally, so its answers stay exact. Same config and
/// grouping, same weights: rankings equal a plain HalkModel built from
/// them. A slowed range that starts at 0 also holds a serving worker
/// inside its scan (shard 0 scans on the serving thread), so a test can
/// queue requests behind it and release them with Heal().
class SlowRangeModel : public core::HalkModel {
 public:
  SlowRangeModel(const core::ModelConfig& config,
                 std::chrono::milliseconds delay,
                 const kg::NodeGrouping* grouping = nullptr)
      : core::HalkModel(config, grouping), delay_(delay) {}

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
    changed_.notify_all();
  }

  /// Blocks until some scan is sleeping on a slowed range.
  void AwaitStall() {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return stalled_ > 0; });
  }

  void AccumulateTopKRange(const std::vector<core::BranchRef>& branches,
                           int64_t begin, int64_t end,
                           core::TopKAccumulator* acc,
                           core::ScanStats* stats = nullptr) const override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (slow_begins_.count(begin) != 0) {
        ++stalled_;
        changed_.notify_all();
        changed_.wait_for(lock, delay_,
                          [&] { return slow_begins_.count(begin) == 0; });
        --stalled_;
      }
    }
    core::HalkModel::AccumulateTopKRange(branches, begin, end, acc, stats);
  }

 private:
  const std::chrono::milliseconds delay_;
  mutable std::mutex mu_;
  /// Signals Heal() to sleeping scans and a new stall to AwaitStall().
  mutable std::condition_variable changed_;
  std::set<int64_t> slow_begins_;
  mutable int stalled_ = 0;  // scans sleeping on a slowed range
};

}  // namespace halk::shard

#endif  // HALK_TESTS_SHARD_SLOW_RANGE_MODEL_H_
