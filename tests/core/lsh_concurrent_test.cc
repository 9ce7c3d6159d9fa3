// One shared AngularLshIndex queried from several threads: TopK is const
// and keeps no per-call state, so concurrent callers get exactly the
// serial answers and scan fractions (and TSan sees no race).
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lsh.h"

namespace halk::core {
namespace {

TEST(LshConcurrencyTest, SharedIndexTopKFromFourThreadsMatchesSerial) {
  Rng rng(11);
  const int64_t n = 2000;
  const int64_t d = 8;
  std::vector<float> angles(static_cast<size_t>(n * d));
  for (float& x : angles) x = static_cast<float>(rng.Uniform(0.0, 6.2831853));
  const AngularLshIndex index(angles.data(), n, d, {});
  const std::vector<float> length(static_cast<size_t>(d), 0.05f);

  constexpr int kProbes = 32;
  std::vector<std::vector<int64_t>> want(kProbes);
  std::vector<double> want_fraction(kProbes);
  for (int p = 0; p < kProbes; ++p) {
    want[static_cast<size_t>(p)] =
        index.TopK(angles.data() + p * 61 * d, length.data(), 10, 1.0f, 0.9f,
                   &want_fraction[static_cast<size_t>(p)]);
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 4; ++round) {
        for (int p = 0; p < kProbes; ++p) {
          double fraction = -1.0;
          const std::vector<int64_t> got =
              index.TopK(angles.data() + p * 61 * d, length.data(), 10, 1.0f,
                         0.9f, &fraction);
          if (got != want[static_cast<size_t>(p)] ||
              fraction != want_fraction[static_cast<size_t>(p)]) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace halk::core
