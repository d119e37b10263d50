// Per-worker work-stealing deques for the pooled scheduler.
//
// Each worker owns one deque of actor-id hints.  The owner pushes and pops
// at the back (LIFO — the actor it just made ready is the one whose
// messages are hot in cache), while thieves steal from the front (FIFO —
// the oldest hint, the one least likely to be in anyone's cache and the
// fairest to age out).  Producers route a hint to a *preferred* queue (the
// worker that last ran the actor) so mailbox readiness notifications keep
// actor state on a warm core; any idle worker can still steal it, so no
// hint ever waits on a busy worker.
//
// Each deque has its own mutex: contention is spread over W locks instead
// of the single shared ready-queue lock this replaces (the hop bottleneck
// called out in ROADMAP).  The queues never block: a worker that misses on
// its own deque and every steal target parks in its scheduler
// (SchedulerHost), which owns the park/wake protocol.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace ss::runtime {

/// Lifetime counters of the hint queues (telemetry; exact once the pool is
/// quiescent).  Invariant then: pushes == local_pops + steals + discarded.
struct WorkStealingCounters {
  std::uint64_t pushes = 0;
  std::uint64_t local_pops = 0;
  std::uint64_t steals = 0;
  std::uint64_t discarded = 0;  ///< hints still queued
};

class WorkStealingQueues {
 public:
  /// One deque per potential worker.  `num_queues` is fixed for the
  /// lifetime of the object.
  explicit WorkStealingQueues(std::size_t num_queues);

  WorkStealingQueues(const WorkStealingQueues&) = delete;
  WorkStealingQueues& operator=(const WorkStealingQueues&) = delete;

  /// Enqueues `item` at the back of queue `preferred % num_queues()`.
  /// Callable from any thread, including non-workers (mailbox readiness
  /// hooks).
  void push(std::size_t item, std::size_t preferred);

  /// Non-blocking claim for worker `self`: pops the back of the own deque
  /// (LIFO); on miss, steals the *front* of another deque (FIFO), scanning
  /// victims round-robin from `self + 1`.  Returns false when every deque
  /// is empty right now.
  bool try_acquire(std::size_t self, std::size_t& out);

  /// Items currently enqueued across all deques (approximate under
  /// concurrency, exact when quiescent).
  [[nodiscard]] std::size_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t num_queues() const { return queues_.size(); }

  /// Telemetry counters (see WorkStealingCounters for the invariant).
  [[nodiscard]] WorkStealingCounters counters() const;

 private:
  /// Cache-line aligned so neighbouring workers' deques (and their locks)
  /// never false-share: a push to worker i's queue must not bounce the
  /// line under worker i±1's pop — the queues exist precisely to spread
  /// hot-path contention over W locks.
  struct alignas(64) Queue {
    mutable std::mutex mu;
    std::deque<std::size_t> items;
    // per-queue telemetry, guarded by mu (already held on every hot-path
    // touch, so counting costs no extra synchronization); steals are
    // charged to the *victim's* queue and summed in counters().
    std::uint64_t pushes = 0;
    std::uint64_t local_pops = 0;
    std::uint64_t steals = 0;
  };

  bool pop_local(std::size_t self, std::size_t& out);    // back: LIFO
  bool steal_from(std::size_t victim, std::size_t& out); // front: FIFO

  std::vector<Queue> queues_;
  /// pending_ is touched by every push and every claim; keep it off the
  /// queues' lines (same false-sharing argument as Queue).
  alignas(64) std::atomic<std::size_t> pending_{0};
  // `discarded` is not a counter: counters() sums the items still queued,
  // which is exact precisely when it matters (after the pool quiesced).
};

}  // namespace ss::runtime
