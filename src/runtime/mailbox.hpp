// Bounded blocking mailbox with Blocking-After-Service semantics.
//
// This is the C++ equivalent of the Akka BoundedMailbox configuration the
// paper evaluates (§5.1): a fixed-capacity MPSC queue whose send() blocks
// the producer while the buffer is full — that blocking *is* the
// backpressure the cost models capture — and gives up after a timeout, in
// which case the item is dropped (the paper sets the timeout high enough,
// five seconds, that drops never happen in practice).
//
// The queue is a bounded lock-free MPSC ring in the style of Vyukov's
// bounded queue.  Producers claim slots with a CAS on enqueue_pos_ and
// publish through per-cell sequence numbers; the single consumer (the
// actor's own thread, or the pool's actor claim, which serializes
// consumers across workers and publishes the ring between them through
// its acquire/release ordering) advances dequeue_pos_ without any atomic
// RMW.  The logical capacity is decoupled from the physical ring: a
// separate credit counter (size_) enforces the BAS bound, so deferred
// release (drain(..., release_now=false) + release()) keeps capacity
// exactly B.  Capacity-exempt sends
// (send_unbounded: shutdown/fence tokens) that find the physical ring full
// spill into a mutex-guarded side queue; once spilled, *all* later enqueues
// follow it until the consumer has drained the spill, which preserves
// per-producer FIFO — the property the engine's token counting relies on
// ("every channel's tokens arrive after that channel's data").  Blocking
// (BAS), kShedNewest and close are the slow path: a full mailbox parks the
// sender on a condition variable, and that park is where blocked-on-send
// telemetry is charged.  The empty→non-empty readiness edge is not: it
// reads the hook pointer with one acquire load and calls it.
//
// The mailbox is MPSC: many producers, one consumer *at a time*.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/message.hpp"

namespace ss::runtime {

/// What a full mailbox does to a new item (paper §2): block the sender
/// (backpressure, the semantics the cost models capture) or discard the
/// item immediately (load shedding, which trades loss for liveness).
enum class OverflowPolicy : std::uint8_t {
  kBlockAfterService,
  kShedNewest,
};

class Mailbox {
 public:
  explicit Mailbox(std::size_t capacity,
                   OverflowPolicy policy = OverflowPolicy::kBlockAfterService);

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  /// Enqueues `m`.  Under kBlockAfterService, blocks while full (BAS) and
  /// returns false only if `timeout` expired or the mailbox was closed;
  /// under kShedNewest a full mailbox discards the item immediately.
  bool send(const Message& m, std::chrono::nanoseconds timeout);

  /// Non-blocking fast path: enqueues if a slot is free right now and
  /// returns true.  Returns false when the mailbox is closed or full; a
  /// full kShedNewest mailbox counts the drop (the item is shed), a full
  /// kBlockAfterService one does not — the caller decides whether to fall
  /// back to the blocking send() or to retry later.
  bool try_send(const Message& m);

  /// Non-blocking batched enqueue: accepts the longest prefix of
  /// `msgs[0..n)` that fits in free capacity right now and returns how many
  /// were taken (0 when closed or full): one credit CAS plus one slot
  /// reservation for the whole prefix.  Never counts drops — the caller
  /// falls back to send()/try_send() per remaining message, which applies
  /// the usual BAS/shed semantics.
  std::size_t try_send_batch(const Message* msgs, std::size_t n);

  /// Enqueues bypassing the capacity bound (used for shutdown tokens so a
  /// drain can never deadlock behind a full buffer).  A closed mailbox
  /// counts the item as dropped instead of enqueueing it.
  void send_unbounded(const Message& m);

  /// Consumer-side park: blocks until a message is readable (returns true)
  /// or the mailbox is closed with nothing left to read (returns false).
  /// Takes nothing — a dedicated actor thread waits here, then drains a
  /// slice with drain().
  bool wait_ready();

  /// Dequeues into `out`, blocking while empty (wait_ready + try_receive).
  /// Returns false once the mailbox is closed *and* drained.
  bool receive(Message& out);

  /// Non-blocking variant; returns false when empty right now.
  bool try_receive(Message& out);

  /// Batched dequeue: appends up to `max` messages to `out` in FIFO order
  /// and returns how many were taken (0 when empty right now).  With
  /// `release_now` (the default) the taken messages free their capacity
  /// slots immediately, exactly as if each had been try_receive()d before
  /// the batch ran; a consumer that processes the batch over time should
  /// pass false and call release() as each message enters service instead —
  /// releasing a whole batch up front would hand senders up to `max` extra
  /// slots and visibly weaken Blocking-After-Service backpressure (the
  /// cost models assume capacity B, not B + batch).
  std::size_t drain(std::vector<Message>& out, std::size_t max, bool release_now = true);

  /// Frees `n` capacity slots taken by drain(..., release_now=false) and
  /// wakes blocked senders if any — an atomic decrement unless senders are
  /// actually waiting.
  void release(std::size_t n) { release_slots(n); }

  /// Wakes all waiters; send() starts failing, receive() drains then stops.
  void close();

  /// Receiver of the readiness edge (set_on_ready).  Owned by the caller.
  class ReadyHook {
   public:
    /// Called by the sender whose enqueue turned the mailbox from empty to
    /// non-empty, after the message is published.
    virtual void on_ready() = 0;

   protected:
    ~ReadyHook() = default;
  };

  /// Installs a readiness hook fired whenever an enqueue turns the mailbox
  /// from empty to non-empty.  The pooled scheduler uses it to learn that
  /// the owning actor has work without parking a worker on this mailbox's
  /// condition variable.  The hook is one atomic pointer, so it may be
  /// swapped while producers are live: an enqueue concurrent with the swap
  /// fires either the old or the new hook, never a torn one.  The caller
  /// keeps a hook alive as long as a send that may have read it can still
  /// be running.  Pass nullptr to clear.
  void set_on_ready(ReadyHook* hook) { on_ready_.store(hook, std::memory_order_release); }

  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool closed() const {
    return closed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] OverflowPolicy policy() const { return policy_; }

  /// Items dropped on send timeout since construction.
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Messages that took the lock-free ring fast path.  The scheduler folds
  /// these into its counter report so the ready-hint ledger can be read
  /// next to the enqueue volume that fed it.
  [[nodiscard]] std::uint64_t ring_enqueues() const {
    return ring_enqueues_.load(std::memory_order_relaxed);
  }
  /// Messages that overflowed the physical ring into the spill queue —
  /// capacity-exempt tokens beyond the ring's slack, or stragglers behind
  /// them.
  [[nodiscard]] std::uint64_t ring_spills() const {
    return ring_spills_.load(std::memory_order_relaxed);
  }

  /// Queue-depth high-water mark since construction or the last
  /// reset_depth_peak() — the sampled backpressure gauge the telemetry
  /// layer reports per steady-state window.
  [[nodiscard]] std::size_t depth_peak() const {
    return depth_peak_.load(std::memory_order_relaxed);
  }
  /// Restarts the high-water tracking at the current depth (window open).
  void reset_depth_peak() {
    depth_peak_.store(size_.load(std::memory_order_acquire),
                      std::memory_order_relaxed);
  }

  /// Logical operator that consumes from this mailbox.  The engine tags
  /// every actor's mailbox at epoch build; the blocking slow path passes
  /// it to charge_blocked so blocked-on-send time can be attributed per
  /// *edge* (sender → this op), not just per sender.  kInvalidOp (the
  /// default) degrades to the plain per-sender charge.
  void set_owner_op(OpIndex op) { owner_op_ = op; }
  [[nodiscard]] OpIndex owner_op() const { return owner_op_; }

 private:
  /// One ring slot: the per-cell sequence number is the publication
  /// protocol (seq == pos: free for the producer claiming pos; seq ==
  /// pos + 1: published, readable by the consumer).  Cache-line aligned so
  /// neighbouring publishes don't false-share.
  struct alignas(64) Cell {
    std::atomic<std::size_t> seq{0};
    Message msg{};
  };

  void release_slots(std::size_t n);
  void bump_peak(std::size_t depth) {
    std::size_t cur = depth_peak_.load(std::memory_order_relaxed);
    while (depth > cur &&
           !depth_peak_.compare_exchange_weak(cur, depth,
                                              std::memory_order_relaxed)) {
    }
  }

  /// Claims one credit of logical capacity; returns false when full.
  /// `depth_out` is the post-claim depth (1 == empty→non-empty edge).
  bool acquire_credit(std::size_t& depth_out);
  /// Producer-side slot claim + publish; false when the physical ring is
  /// full (caller spills).
  bool ring_enqueue(const Message& m);
  /// Claims `k` contiguous slots with one CAS and publishes all of them;
  /// returns false (publishing nothing) when the ring lacks `k` free slots.
  bool ring_enqueue_many(const Message* msgs, std::size_t k);
  /// Routes one message into the ring or, after a spill, the side queue.
  void ring_publish(const Message& m);
  /// Consumer-side pop: ring first, spill queue once the ring is empty.
  bool ring_consume(Message& out);
  /// Consumer-side peek (only the consumer advances dequeue_pos_).
  [[nodiscard]] bool ring_ready() const;
  /// Post-publish notifications: wake a parked receive()r and fire the
  /// on_ready hook when this publish was the empty→non-empty edge.
  void after_publish(bool edge);

  const std::size_t capacity_;
  const OverflowPolicy policy_;

  /// Guards overflow_ + spilled_ transitions, closed_ writes and the
  /// condition variables.
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;

  std::unique_ptr<Cell[]> cells_;
  std::size_t ring_mask_ = 0;
  alignas(64) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::size_t> dequeue_pos_{0};
  /// True while overflow_ holds spilled messages; producers route every
  /// enqueue through the spill queue until the consumer drains it (FIFO).
  std::atomic<bool> spilled_{false};
  std::deque<Message> overflow_;  ///< spill queue, guarded by mutex_

  /// Unconsumed messages.  The empty→non-empty edge is a 0→1 transition of
  /// this counter; producers see capacity through it (the ring's credit
  /// counter — freed by release_slots, not by dequeue).
  alignas(64) std::atomic<std::size_t> size_{0};
  /// High-water mark of size_, maintained with a CAS max (producers race
  /// on it), read lock-free by telemetry samplers.
  std::atomic<std::size_t> depth_peak_{0};
  /// Senders currently blocked in send(); consumers take the lock before
  /// notifying not_full_ only when this is non-zero, keeping the consume
  /// fast path lock-free.
  std::atomic<int> waiting_senders_{0};
  /// Consumers parked in wait_ready(); producers take the lock before
  /// notifying not_empty_ only when this is non-zero, keeping the publish
  /// fast path lock-free.
  std::atomic<int> waiting_consumers_{0};
  std::atomic<bool> closed_{false};  ///< written under mutex_
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> ring_enqueues_{0};
  std::atomic<std::uint64_t> ring_spills_{0};
  /// Consumer operator of this mailbox (set once at epoch build, before
  /// producers run; plain member, read from the blocking slow path only).
  OpIndex owner_op_ = kInvalidOp;
  std::atomic<ReadyHook*> on_ready_{nullptr};  ///< empty→non-empty edge notification
};

}  // namespace ss::runtime
