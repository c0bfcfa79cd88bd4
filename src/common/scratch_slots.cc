#include "common/scratch_slots.h"

#include <algorithm>

namespace osq {

ScratchSlots::State& ScratchSlots::ThreadState() {
  static thread_local State state;
  return state;
}

ScratchSlots::ScratchSlots(size_t universe) : state_(ThreadState()) {
  OSQ_CHECK(!state_.leased);
  OSQ_CHECK(universe < kNone);
  state_.leased = true;
  state_.base += state_.count;
  state_.count = 0;
  if (state_.stamp.size() < universe) state_.stamp.resize(universe, 0);
  // Every live stamp base + slot must stay below the wrap point.
  if (state_.stamp.size() > UINT32_MAX - state_.base) {
    std::fill(state_.stamp.begin(), state_.stamp.end(), 0);
    state_.base = 1;
  }
}

ScratchSlots::~ScratchSlots() { state_.leased = false; }

}  // namespace osq
