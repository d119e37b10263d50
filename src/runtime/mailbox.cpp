#include "runtime/mailbox.hpp"

#include <algorithm>
#include <cstdint>

#include "runtime/clock.hpp"
#include "runtime/telemetry.hpp"

namespace ss::runtime {

namespace {

std::size_t next_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Parked consumers (wait_ready) re-poll at this period so a publish racing the very
/// first park can never strand a message behind a missed notify: the ring
/// fast path deliberately avoids a full fence between "publish" and "is a
/// consumer waiting?", and this bounds the cost of losing that race.
constexpr std::chrono::milliseconds kConsumerRepoll{10};

}  // namespace

Mailbox::Mailbox(std::size_t capacity, OverflowPolicy policy)
    : capacity_(capacity == 0 ? 1 : capacity), policy_(policy) {
  // Physical ring ≥ 2× the logical capacity: the slack absorbs
  // capacity-exempt tokens (send_unbounded) so spills stay rare.
  const std::size_t slots = next_pow2(std::max<std::size_t>(capacity_ * 2, 16));
  cells_ = std::make_unique<Cell[]>(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    cells_[i].seq.store(i, std::memory_order_relaxed);
  }
  ring_mask_ = slots - 1;
}

// ---------------------------------------------------------------------------
// Producers claim a capacity credit (size_), then a physical slot; the 0→1
// transition of the credit counter is the empty→non-empty edge.  The hook
// is *captured* under the lock (so set_on_ready can swap it concurrently)
// but *fired* outside it.

bool Mailbox::acquire_credit(std::size_t& depth_out) {
  std::size_t cur = size_.load(std::memory_order_relaxed);
  do {
    if (cur >= capacity_) return false;
  } while (!size_.compare_exchange_weak(cur, cur + 1,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
  depth_out = cur + 1;
  return true;
}

bool Mailbox::ring_enqueue(const Message& m) {
  std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
  for (;;) {
    Cell& cell = cells_[pos & ring_mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto dif = static_cast<std::intptr_t>(seq) - static_cast<std::intptr_t>(pos);
    if (dif == 0) {
      if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                             std::memory_order_relaxed)) {
        cell.msg = m;
        cell.seq.store(pos + 1, std::memory_order_release);
        ring_enqueues_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      // CAS failure reloaded pos; retry with the fresh value.
    } else if (dif < 0) {
      return false;  // physically full (a lap behind): caller spills
    } else {
      pos = enqueue_pos_.load(std::memory_order_relaxed);
    }
  }
}

bool Mailbox::ring_enqueue_many(const Message* msgs, std::size_t k) {
  for (;;) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    // The consumer recycles cells strictly in order and producers only
    // claim at enqueue_pos_, so "the last slot of the range is free"
    // implies the whole range is free.
    Cell& last = cells_[(pos + k - 1) & ring_mask_];
    if (last.seq.load(std::memory_order_acquire) != pos + k - 1) return false;
    if (enqueue_pos_.compare_exchange_weak(pos, pos + k,
                                           std::memory_order_relaxed)) {
      for (std::size_t i = 0; i < k; ++i) {
        Cell& cell = cells_[(pos + i) & ring_mask_];
        cell.msg = msgs[i];
        cell.seq.store(pos + i + 1, std::memory_order_release);
      }
      ring_enqueues_.fetch_add(k, std::memory_order_relaxed);
      return true;
    }
  }
}

void Mailbox::ring_publish(const Message& m) {
  if (!spilled_.load(std::memory_order_acquire) && ring_enqueue(m)) return;
  // Spill slow path.  Once one message lands in the side queue, every
  // later enqueue (from producers that observe the spill — which includes
  // every producer whose own earlier message spilled) follows it until the
  // consumer drains the queue, preserving per-producer FIFO.
  std::lock_guard lock(mutex_);
  if (!spilled_.load(std::memory_order_relaxed) && ring_enqueue(m)) return;
  spilled_.store(true, std::memory_order_release);
  overflow_.push_back(m);
  ring_spills_.fetch_add(1, std::memory_order_relaxed);
}

bool Mailbox::ring_ready() const {
  const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  return cells_[pos & ring_mask_].seq.load(std::memory_order_acquire) == pos + 1;
}

bool Mailbox::ring_consume(Message& out) {
  const std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
  Cell& cell = cells_[pos & ring_mask_];
  if (cell.seq.load(std::memory_order_acquire) == pos + 1) {
    out = cell.msg;
    cell.seq.store(pos + ring_mask_ + 1, std::memory_order_release);  // recycle
    dequeue_pos_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }
  if (!spilled_.load(std::memory_order_acquire)) return false;
  std::lock_guard lock(mutex_);
  if (overflow_.empty()) {
    // A racing producer re-entered the ring after the spill drained.
    spilled_.store(false, std::memory_order_release);
    return false;
  }
  out = overflow_.front();
  overflow_.pop_front();
  if (overflow_.empty()) spilled_.store(false, std::memory_order_release);
  return true;
}

void Mailbox::after_publish(bool edge) {
  if (waiting_consumers_.load(std::memory_order_acquire) > 0) {
    // Order our publish with the parked consumer's predicate check (the
    // empty lock scope is intentional; see release_slots).
    { std::lock_guard lock(mutex_); }
    not_empty_.notify_all();
  }
  if (edge) {
    std::function<void()> hook;
    {
      std::lock_guard lock(mutex_);
      hook = on_ready_;
    }
    fire(hook);
  }
}

bool Mailbox::send(const Message& m, std::chrono::nanoseconds timeout) {
  bool deadline_set = false;
  Clock::time_point deadline{};
  for (;;) {
    if (closed_.load(std::memory_order_acquire)) return false;
    std::size_t depth = 0;
    if (acquire_credit(depth)) {
      bump_peak(depth);
      ring_publish(m);
      after_publish(depth == 1);
      return true;
    }
    if (policy_ == OverflowPolicy::kShedNewest) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Backpressure slow path — the sender's park.  This wait *is* the
    // blocked-on-send time the cost models capture, so charge it to the
    // sending operator's telemetry context (a paced source also re-bases
    // its schedule on it).  Clock reads happen only when actually
    // blocking.  A single deadline spans every park episode: a
    // woken sender that loses the credit race to a lock-free try_send
    // re-parks with the remaining budget, never a fresh one.
    if (!deadline_set) {
      deadline = Clock::now() + timeout;
      deadline_set = true;
    }
    const bool meter = has_actor_context();
    const auto blocked_from = meter ? metering_now() : Clock::time_point{};
    bool freed;
    {
      std::unique_lock lock(mutex_);
      waiting_senders_.fetch_add(1, std::memory_order_acq_rel);
      freed = not_full_.wait_until(lock, deadline, [&] {
        return closed_.load(std::memory_order_relaxed) ||
               size_.load(std::memory_order_acquire) < capacity_;
      });
      waiting_senders_.fetch_sub(1, std::memory_order_acq_rel);
    }
    if (meter) {
      charge_blocked(static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             metering_now() - blocked_from)
                             .count()),
                     owner_op_);
    }
    if (!freed) {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // timed out (§5.1)
      return false;
    }
  }
}

// ---------------------------------------------------------------------------
// Non-blocking sends, the consumer side, close.

bool Mailbox::try_send(const Message& m) {
  if (closed_.load(std::memory_order_acquire)) return false;
  std::size_t depth = 0;
  if (!acquire_credit(depth)) {
    if (policy_ == OverflowPolicy::kShedNewest) {
      dropped_.fetch_add(1, std::memory_order_relaxed);  // shed, like send()
    }
    return false;
  }
  bump_peak(depth);
  ring_publish(m);
  after_publish(depth == 1);
  return true;
}

std::size_t Mailbox::try_send_batch(const Message* msgs, std::size_t n) {
  if (n == 0 || closed_.load(std::memory_order_acquire)) return 0;
  // One CAS claims credits for the longest prefix that fits.
  std::size_t cur = size_.load(std::memory_order_relaxed);
  std::size_t k = 0;
  do {
    if (cur >= capacity_) return 0;
    k = std::min(n, capacity_ - cur);
  } while (!size_.compare_exchange_weak(cur, cur + k,
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
  bump_peak(cur + k);
  std::size_t published = 0;
  if (!spilled_.load(std::memory_order_acquire) && ring_enqueue_many(msgs, k)) {
    published = k;
  }
  for (; published < k; ++published) ring_publish(msgs[published]);
  after_publish(cur == 0);
  return k;
}

void Mailbox::send_unbounded(const Message& m) {
  if (closed_.load(std::memory_order_acquire)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);  // never drained again
    return;
  }
  const std::size_t depth = size_.fetch_add(1, std::memory_order_acq_rel) + 1;
  bump_peak(depth);
  ring_publish(m);
  after_publish(depth == 1);
}

void Mailbox::release_slots(std::size_t n) {
  size_.fetch_sub(n, std::memory_order_acq_rel);
  if (waiting_senders_.load(std::memory_order_acquire) > 0) {
    // A sender may be between its predicate check and the wait; taking the
    // lock here orders our size_ decrement with that check so the notify
    // cannot be lost.  The empty lock scope is intentional.
    { std::lock_guard lock(mutex_); }
    not_full_.notify_all();
  }
}

bool Mailbox::wait_ready() {
  for (;;) {
    if (ring_ready() || spilled_.load(std::memory_order_acquire)) return true;
    std::unique_lock lock(mutex_);
    if (ring_ready() || spilled_.load(std::memory_order_relaxed)) return true;
    if (closed_.load(std::memory_order_relaxed)) return false;
    waiting_consumers_.fetch_add(1, std::memory_order_acq_rel);
    // Bounded waits, not one indefinite one: combined with kConsumerRepoll
    // this makes a publish that raced the registration self-healing.
    not_empty_.wait_for(lock, kConsumerRepoll, [&] {
      return closed_.load(std::memory_order_relaxed) || ring_ready() ||
             spilled_.load(std::memory_order_relaxed);
    });
    waiting_consumers_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

bool Mailbox::receive(Message& out) {
  // A set spill flag can be stale (the queue drained under a racing
  // producer); try_receive then clears it and the loop parks again.
  while (wait_ready()) {
    if (try_receive(out)) return true;
  }
  return false;
}

bool Mailbox::try_receive(Message& out) {
  if (!ring_consume(out)) return false;
  release_slots(1);
  return true;
}

std::size_t Mailbox::drain(std::vector<Message>& out, std::size_t max, bool release_now) {
  std::size_t taken = 0;
  Message m;
  while (taken < max && ring_consume(m)) {
    out.push_back(m);
    ++taken;
  }
  if (release_now && taken > 0) release_slots(taken);
  return taken;
}

void Mailbox::close() {
  {
    std::lock_guard lock(mutex_);
    closed_.store(true, std::memory_order_release);
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

void Mailbox::set_on_ready(std::function<void()> on_ready) {
  std::lock_guard lock(mutex_);
  on_ready_ = std::move(on_ready);
}

}  // namespace ss::runtime
