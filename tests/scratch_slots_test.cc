#include "common/scratch_slots.h"

#include <gtest/gtest.h>

namespace osq {
namespace {

TEST(ScratchSlotsTest, SlotsFollowInsertionOrder) {
  ScratchSlots slots(100);
  EXPECT_EQ(slots.Insert(42), 0u);
  EXPECT_EQ(slots.Insert(7), 1u);
  EXPECT_EQ(slots.Insert(42), 0u);  // already there
  EXPECT_EQ(slots.Find(7), 1u);
  EXPECT_EQ(slots.Find(8), ScratchSlots::kNone);
  EXPECT_EQ(slots.Insert(8), 2u);
}

TEST(ScratchSlotsTest, NewLeaseForgetsEarlierSlots) {
  {
    ScratchSlots first(10);
    for (uint32_t id = 0; id < 10; ++id) first.Insert(id);
  }
  // A larger universe grows the array; a smaller one reuses it.
  for (size_t universe : {1000u, 5u}) {
    ScratchSlots next(universe);
    for (uint32_t id = 0; id < universe; ++id) {
      EXPECT_EQ(next.Find(id), ScratchSlots::kNone) << id;
    }
    EXPECT_EQ(next.Insert(3), 0u);
    EXPECT_EQ(next.Find(3), 0u);
  }
}

TEST(ScratchSlotsDeathTest, OneLeasePerThread) {
  EXPECT_DEATH(
      {
        ScratchSlots outer(4);
        ScratchSlots inner(4);
      },
      "");
}

}  // namespace
}  // namespace osq
