// Admission guards of the socketless serving front door. Own binary, so
// its death tests fork a process that runs no daemon thread.

#include <gtest/gtest.h>

#include "serve/front_door.h"

namespace hyperprof::serve {
namespace {

TEST(FrontDoorDeathTest, RefusesShardedPlatforms) {
  // Checked in every build: a sharded fleet would route every admission
  // into worker shard 0's engine, whose query stream Submit never sets.
  FrontDoorOptions options;
  options.fleet.shards_per_platform = 2;
  EXPECT_DEATH(VirtualFrontDoor door(options),
               "shards_per_platform is 2; serving requires fused platforms");
}

}  // namespace
}  // namespace hyperprof::serve
