// Per-thread scratch for per-query working sets over a dense id space.
//
// The query path keeps small sets of data-node ids (the Gview candidate
// sets, KMatch's candidate ranks), but the ids range over the whole
// graph.  A dense array per query would cost O(|V|) to allocate and clear
// even when the set holds a few dozen ids.  ScratchSlots instead leases one
// reusable array per thread and maps each inserted id to a compact *slot*
// 0, 1, 2, ... in insertion order, so callers can keep per-id payload in a
// vector sized by the ids actually touched.
//
// Slots are epoch-stamped, as in OntologyGraph's BFS scratch: the array
// stores base + slot, and a new lease moves `base` past every slot handed
// out so far, which invalidates them all without touching the array.  It
// is zero-filled only when it grows or the 32-bit stamps wrap.
//
// There is one array per thread, shared by every user, so at most one
// lease may be live on a thread at a time (checked).  Never hold a lease
// across ParallelFor: its body may run inline on the calling thread.

#ifndef OSQ_COMMON_SCRATCH_SLOTS_H_
#define OSQ_COMMON_SCRATCH_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace osq {

class ScratchSlots {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Leases the calling thread's array, empty, for ids < `universe`.
  explicit ScratchSlots(size_t universe);
  ~ScratchSlots();
  ScratchSlots(const ScratchSlots&) = delete;
  ScratchSlots& operator=(const ScratchSlots&) = delete;

  // Slot of `id`, or kNone when `id` was not inserted under this lease.
  uint32_t Find(uint32_t id) const {
    OSQ_DCHECK(id < state_.stamp.size());
    // Stamps from earlier leases lie below base and wrap to huge values.
    uint32_t slot = state_.stamp[id] - state_.base;
    return slot < state_.count ? slot : kNone;
  }

  // Cache hint for the Find / Insert of `id`; changes nothing observable.
  void Prefetch(uint32_t id) const { __builtin_prefetch(&state_.stamp[id]); }

  // Number of ids inserted under this lease.
  uint32_t size() const { return state_.count; }

  // Slot of `id`, assigning the next free slot when it has none.
  uint32_t Insert(uint32_t id) {
    uint32_t slot = Find(id);
    if (slot != kNone) return slot;
    state_.stamp[id] = state_.base + state_.count;
    return state_.count++;
  }

 private:
  struct State {
    std::vector<uint32_t> stamp;
    uint32_t base = 1;  // stamp 0 (a fresh entry) is never a live slot
    uint32_t count = 0;
    bool leased = false;
  };
  static State& ThreadState();

  State& state_;
};

}  // namespace osq

#endif  // OSQ_COMMON_SCRATCH_SLOTS_H_
