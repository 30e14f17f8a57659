// Snapshot-epoch manager: the versioning half of the concurrent-write
// contract (see the contract comment in src/graph/engine.h).
//
// Time is divided into epochs numbered from 0. Readers pin the current
// epoch when a QuerySession is created and unpin it when the session is
// destroyed; for the session's whole lifetime the engine it reads is the
// immutable snapshot published as that epoch. A single writer advances
// time: BeginApply() closes the gate (new pins block) and drains the
// pinned readers of the current epoch; the writer then mutates the store
// in place with exclusive access; EndApply() publishes the next epoch and
// reopens the gate. Retired epochs carry reclaim callbacks that run only
// once no reader pins an epoch <= the retired one — with drain-on-publish
// they usually run immediately, but the deferral is real and is what a
// multi-version store would hang old-version garbage off.
//
// The gate word. Reader state is one atomic 64-bit word: bit 0 is
// kApplying (a writer is between BeginApply and EndApply), bit 1 is
// kRetirePending (a reclaim callback waits for the pins to drain), and
// bits 2..63 count the outstanding pins. Pin() is one CAS that bumps the
// count while kApplying is clear; Unpin() is one fetch_sub. Neither takes
// the mutex on its fast path. The mutex and the two condition variables
// serve only the slow paths: a reader that finds the gate closed, the
// writer's drain wait, the Unpin that drops the last pin while the writer
// waits or a reclaim is pending, and the retired-callback list.
//
// Why one counter is enough: a publish waits for every pin to drain, and
// new pins block until the publish ends. So every outstanding pin is on
// current(); a per-epoch pin table would only ever hold one key.
//
// The manager is a synchronization object only: it never touches graph
// data. Engines expose one via GraphEngine::epochs().

#ifndef GDBMICRO_GRAPH_EPOCH_H_
#define GDBMICRO_GRAPH_EPOCH_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace gdbmicro {

class EpochManager {
 public:
  EpochManager() = default;
  EpochManager(const EpochManager&) = delete;
  EpochManager& operator=(const EpochManager&) = delete;

  // --- reader side --------------------------------------------------------

  /// Pins the current epoch and returns it. Blocks while a writer is
  /// between BeginApply() and EndApply() (writer preference: a stream of
  /// new readers cannot starve the writer).
  uint64_t Pin();

  /// Releases one pin on `epoch`. Runs any retirement callbacks that
  /// became eligible. A no-op when `epoch` is not current() or no pin is
  /// outstanding.
  void Unpin(uint64_t epoch);

  // --- writer side --------------------------------------------------------

  /// Closes the pin gate and blocks until every pinned reader has
  /// unpinned. On return the caller has exclusive access to the store.
  void BeginApply();

  /// Publishes the next epoch, reopens the pin gate, and returns the new
  /// current epoch. Must follow BeginApply() on the same thread.
  uint64_t EndApply();

  /// Registers `reclaim` to run once no reader pins any epoch <= `epoch`.
  /// Runs immediately when that already holds.
  void Retire(uint64_t epoch, std::function<void()> reclaim);

  // --- observers ----------------------------------------------------------

  uint64_t current() const;
  /// Total outstanding pins.
  uint64_t pinned() const;
  /// Retirement callbacks that have run.
  uint64_t reclaimed() const;
  /// True while a writer sits in BeginApply() waiting for readers to
  /// drain (the window the concurrency golden inspects).
  bool writer_waiting() const;

 private:
  static constexpr uint64_t kApplying = 1;
  static constexpr uint64_t kRetirePending = 2;
  static constexpr uint64_t kOnePin = 4;
  static uint64_t PinCount(uint64_t gate) { return gate / kOnePin; }

  /// The Unpin slow path, taken by the unpin that leaves no pin while a
  /// flag is set: wakes a draining writer and runs eligible reclaims.
  void Drained();
  /// Moves eligible retirement callbacks out of retired_ and clears
  /// kRetirePending once none is left. Caller runs them after dropping
  /// `mu_`.
  std::vector<std::function<void()>> TakeEligibleLocked();

  // The reader fast path touches only these two words; they get a cache
  // line of their own, away from the engine's read-only fields.
  alignas(64) std::atomic<uint64_t> gate_{0};
  std::atomic<uint64_t> current_{0};

  alignas(64) mutable std::mutex mu_;
  std::condition_variable reader_cv_;  // waits: gate open
  std::condition_variable writer_cv_;  // waits: pins drained
  std::vector<std::pair<uint64_t, std::function<void()>>> retired_;
  uint64_t reclaimed_ = 0;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_GRAPH_EPOCH_H_
