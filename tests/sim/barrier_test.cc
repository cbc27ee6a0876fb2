#include "sim/barrier.h"

#include <gtest/gtest.h>

namespace hyperprof::sim {
namespace {

TEST(BarrierTest, FiresAfterAllArrive) {
  bool done = false;
  auto token = Barrier(3, [&] { done = true; });
  token();
  token();
  EXPECT_FALSE(done);
  token();
  EXPECT_TRUE(done);
}

TEST(BarrierTest, SingleCount) {
  bool done = false;
  auto token = Barrier(1, [&] { done = true; });
  token();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace hyperprof::sim
