// Open-addressing hash index (linear probing, tombstones, load-factor
// driven rehash). Used as the row-key index of the columnar engine, the
// edge-endpoint index of the document engine, and the primary-key indexes
// of the relational engine.

#ifndef GDBMICRO_STORAGE_HASH_INDEX_H_
#define GDBMICRO_STORAGE_HASH_INDEX_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/util/function_ref.h"
#include "src/util/hash.h"

namespace gdbmicro {

/// Default hasher: integers through HashInt, strings through FNV-1a. The
/// string_view overload backs the heterogeneous lookups below: a probe by
/// view hashes to the same value as the stored std::string key.
struct IndexHash {
  uint64_t operator()(uint64_t k) const { return HashInt(k); }
  uint64_t operator()(const std::string& k) const { return HashBytes(k); }
  uint64_t operator()(std::string_view k) const { return HashBytes(k); }
};

/// Open-addressing hash map. Key must be equality comparable; Value must be
/// default constructible. Capacity is a power of two; probing is linear.
template <typename Key, typename Value, typename Hash = IndexHash>
class HashIndex {
 public:
  /// Probe type of the lookup methods: std::string keys are probed as
  /// string_view, so Get/Contains on a string-keyed index never
  /// materialize a std::string per call (heterogeneous lookup).
  using LookupKey = std::conditional_t<std::is_same_v<Key, std::string>,
                                       std::string_view, const Key&>;

  HashIndex() { Rehash(kInitialCapacity); }

  /// Inserts or overwrites. Returns true if the key was new.
  bool Put(const Key& key, Value value) {
    if ((size_ + tombstones_ + 1) * 4 >= slots_.size() * 3) {
      Rehash(slots_.size() * 2);
    }
    size_t i = FindSlot(key);
    Slot& s = slots_[i];
    bool was_new = s.state != State::kFull;
    if (was_new) {
      if (s.state == State::kTombstone) --tombstones_;
      s.key = key;
      s.state = State::kFull;
      ++size_;
    }
    s.value = std::move(value);
    return was_new;
  }

  /// Returns a pointer to the value or nullptr.
  Value* Get(LookupKey key) {
    size_t i = FindSlot(key);
    return slots_[i].state == State::kFull ? &slots_[i].value : nullptr;
  }
  const Value* Get(LookupKey key) const {
    size_t i = FindSlot(key);
    return slots_[i].state == State::kFull ? &slots_[i].value : nullptr;
  }

  bool Contains(LookupKey key) const { return Get(key) != nullptr; }

  /// Removes the key. Returns true if present.
  bool Erase(const Key& key) {
    size_t i = FindSlot(key);
    if (slots_[i].state != State::kFull) return false;
    slots_[i].state = State::kTombstone;
    slots_[i].value = Value{};
    ++tombstones_;
    --size_;
    return true;
  }

  /// Visits every (key, value). Return false from `fn` to stop early.
  void ForEach(FunctionRef<bool(const Key&, const Value&)> fn) const {
    for (const Slot& s : slots_) {
      if (s.state == State::kFull) {
        if (!fn(s.key, s.value)) return;
      }
    }
  }

  /// Grows the table so that `n` entries fit without another rehash (the
  /// bulk loaders presize from GraphData counts). Never shrinks.
  void Reserve(uint64_t n) {
    size_t needed = kInitialCapacity;
    // Load-factor invariant from Put: (size + tombstones + 1) * 4 < cap * 3.
    while ((n + 1) * 4 >= needed * 3) needed *= 2;
    if (needed > slots_.size()) Rehash(needed);
  }

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Bytes of table backing store (for memory accounting / space reports).
  uint64_t MemoryBytes() const { return slots_.capacity() * sizeof(Slot); }

  void Clear() {
    slots_.clear();
    size_ = 0;
    tombstones_ = 0;
    Rehash(kInitialCapacity);
  }

 private:
  static constexpr size_t kInitialCapacity = 16;

  enum class State : uint8_t { kEmpty, kFull, kTombstone };

  struct Slot {
    Key key{};
    Value value{};
    State state = State::kEmpty;
  };

  // Returns the slot holding `key` or the first insertable slot.
  size_t FindSlot(LookupKey key) const {
    size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash_(key)) & mask;
    std::optional<size_t> first_tombstone;
    while (true) {
      const Slot& s = slots_[i];
      if (s.state == State::kEmpty) {
        return first_tombstone.value_or(i);
      }
      if (s.state == State::kTombstone) {
        if (!first_tombstone) first_tombstone = i;
      } else if (s.key == key) {
        return i;
      }
      i = (i + 1) & mask;
    }
  }

  void Rehash(size_t new_capacity) {
    assert((new_capacity & (new_capacity - 1)) == 0);
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    size_ = 0;
    tombstones_ = 0;
    for (Slot& s : old) {
      if (s.state == State::kFull) {
        size_t mask = slots_.size() - 1;
        size_t i = static_cast<size_t>(hash_(s.key)) & mask;
        while (slots_[i].state == State::kFull) i = (i + 1) & mask;
        slots_[i] = std::move(s);
        ++size_;
      }
    }
  }

  std::vector<Slot> slots_;
  uint64_t size_ = 0;
  uint64_t tombstones_ = 0;
  Hash hash_{};
};

}  // namespace gdbmicro

#endif  // GDBMICRO_STORAGE_HASH_INDEX_H_
