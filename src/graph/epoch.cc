#include "src/graph/epoch.h"

namespace gdbmicro {

uint64_t EpochManager::Pin() {
  uint64_t gate = gate_.load(std::memory_order_relaxed);
  for (;;) {
    if ((gate & kApplying) != 0) {
      std::unique_lock<std::mutex> lock(mu_);
      reader_cv_.wait(lock, [this] {
        return (gate_.load(std::memory_order_relaxed) & kApplying) == 0;
      });
      gate = gate_.load(std::memory_order_relaxed);
      continue;
    }
    // Acquire pairs with EndApply's release: the pin sees the store and
    // current_ as the last publish left them.
    if (gate_.compare_exchange_weak(gate, gate + kOnePin,
                                    std::memory_order_acquire,
                                    std::memory_order_relaxed)) {
      return current_.load(std::memory_order_relaxed);
    }
  }
}

void EpochManager::Unpin(uint64_t epoch) {
  // Every pin is on current_ (see the header), so any other epoch names
  // no pin.
  if (epoch != current_.load(std::memory_order_relaxed)) return;
  // Release pairs with the drain's acquire: the reads made under this pin
  // happen before the writer mutates the store.
  const uint64_t prev = gate_.fetch_sub(kOnePin, std::memory_order_release);
  uint64_t now = prev - kOnePin;
  if (PinCount(prev) == 0) {
    // No pin to release. The borrow wrapped the count field off the top
    // of the word and left the flag bits below it intact; undo it.
    now = gate_.fetch_add(kOnePin, std::memory_order_relaxed) + kOnePin;
  }
  if (PinCount(now) == 0 && (now & (kApplying | kRetirePending)) != 0) {
    Drained();
  }
}

void EpochManager::Drained() {
  std::vector<std::function<void()>> eligible;
  {
    std::lock_guard<std::mutex> lock(mu_);
    eligible = TakeEligibleLocked();
    writer_cv_.notify_all();
  }
  for (auto& fn : eligible) fn();
}

void EpochManager::BeginApply() {
  std::unique_lock<std::mutex> lock(mu_);
  // Gate closed: a Pin() that has not landed its CAS blocks from here on.
  gate_.fetch_or(kApplying, std::memory_order_relaxed);
  writer_cv_.wait(lock, [this] {
    return PinCount(gate_.load(std::memory_order_acquire)) == 0;
  });
}

uint64_t EpochManager::EndApply() {
  std::vector<std::function<void()>> eligible;
  uint64_t published;
  {
    std::lock_guard<std::mutex> lock(mu_);
    published = current_.load(std::memory_order_relaxed) + 1;
    current_.store(published, std::memory_order_relaxed);
    // Release publishes the applied store and current_ to every later
    // Pin.
    gate_.fetch_and(~kApplying, std::memory_order_release);
    eligible = TakeEligibleLocked();
    reader_cv_.notify_all();
  }
  for (auto& fn : eligible) fn();
  return published;
}

void EpochManager::Retire(uint64_t epoch, std::function<void()> reclaim) {
  std::vector<std::function<void()>> eligible;
  {
    std::lock_guard<std::mutex> lock(mu_);
    retired_.emplace_back(epoch, std::move(reclaim));
    // Flag first, count second: an Unpin that drains after the count is
    // read below sees the flag and reclaims in Drained().
    gate_.fetch_or(kRetirePending, std::memory_order_relaxed);
    eligible = TakeEligibleLocked();
  }
  for (auto& fn : eligible) fn();
}

std::vector<std::function<void()>> EpochManager::TakeEligibleLocked() {
  std::vector<std::function<void()>> eligible;
  if (retired_.empty()) return eligible;
  // Every pin is on current_, so it is the oldest pinned epoch.
  const uint64_t min_pinned =
      PinCount(gate_.load(std::memory_order_acquire)) == 0
          ? ~uint64_t{0}
          : current_.load(std::memory_order_relaxed);
  auto keep = retired_.begin();
  for (auto& [epoch, fn] : retired_) {
    if (min_pinned > epoch) {
      eligible.push_back(std::move(fn));
      ++reclaimed_;
    } else {
      *keep++ = {epoch, std::move(fn)};
    }
  }
  retired_.erase(keep, retired_.end());
  if (retired_.empty()) {
    gate_.fetch_and(~kRetirePending, std::memory_order_relaxed);
  }
  return eligible;
}

uint64_t EpochManager::current() const {
  return current_.load(std::memory_order_acquire);
}

uint64_t EpochManager::pinned() const {
  return PinCount(gate_.load(std::memory_order_acquire));
}

uint64_t EpochManager::reclaimed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reclaimed_;
}

bool EpochManager::writer_waiting() const {
  const uint64_t gate = gate_.load(std::memory_order_acquire);
  return (gate & kApplying) != 0 && PinCount(gate) != 0;
}

}  // namespace gdbmicro
