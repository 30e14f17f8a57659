// Open-addressing set of 64-bit keys with an O(1) clear: the per-run
// dedup state of the operator pipeline, refilled on every query run.
//
// Linear probing over a power-of-two table of (key, stamp) slots, kept at
// most half full. A slot is occupied iff its stamp equals the set's
// generation, so clear() bumps the generation instead of touching the
// table: a warm set refills with no allocation and no sweep. Every
// uint64_t is a valid key (there is no reserved empty marker).

#ifndef GDBMICRO_UTIL_FLAT_SET_H_
#define GDBMICRO_UTIL_FLAT_SET_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/hash.h"

namespace gdbmicro {

class FlatU64Set {
 public:
  /// Inserts `key`; true when it was not already present.
  bool insert(uint64_t key) {
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = HashInt(key) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.stamp != generation_) {
        slot = {key, generation_};
        ++size_;
        return true;
      }
      if (slot.key == key) return false;
    }
  }

  /// Empties the set in O(1); the table keeps its capacity.
  void clear() {
    size_ = 0;
    if (++generation_ == 0) {  // stamps wrapped: one sweep per 2^32 clears
      for (Slot& slot : slots_) slot.stamp = 0;
      generation_ = 1;
    }
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t stamp = 0;  // 0 is never a live generation
  };

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    const uint32_t live = generation_;
    generation_ = 1;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.stamp == live) insert(slot.key);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  uint32_t generation_ = 1;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_UTIL_FLAT_SET_H_
