#include "runtime/work_stealing.hpp"

#include "runtime/trace.hpp"

namespace ss::runtime {

WorkStealingQueues::WorkStealingQueues(std::size_t num_queues)
    : queues_(num_queues == 0 ? 1 : num_queues) {}

void WorkStealingQueues::push(std::size_t item, std::size_t preferred) {
  Queue& q = queues_[preferred % queues_.size()];
  {
    std::lock_guard lock(q.mu);
    q.items.push_back(item);
    ++q.pushes;  // under q.mu: no shared counter line in the hot path
  }
  pending_.fetch_add(1, std::memory_order_release);
}

bool WorkStealingQueues::pop_local(std::size_t self, std::size_t& out) {
  Queue& q = queues_[self % queues_.size()];
  std::lock_guard lock(q.mu);
  if (q.items.empty()) return false;
  out = q.items.back();  // LIFO: the hint this worker pushed most recently
  q.items.pop_back();
  ++q.local_pops;
  return true;
}

bool WorkStealingQueues::steal_from(std::size_t victim, std::size_t& out) {
  Queue& q = queues_[victim];
  std::lock_guard lock(q.mu);
  if (q.items.empty()) return false;
  out = q.items.front();  // FIFO: the victim's oldest (coldest) hint
  q.items.pop_front();
  ++q.steals;  // charged to the victim's queue; counters() sums them all
  return true;
}

bool WorkStealingQueues::try_acquire(std::size_t self, std::size_t& out) {
  if (pop_local(self, out)) {
    pending_.fetch_sub(1, std::memory_order_release);
    return true;
  }
  const std::size_t n = queues_.size();
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t victim = (self + i) % n;
    if (steal_from(victim, out)) {
      pending_.fetch_sub(1, std::memory_order_release);
      trace::instant("steal", "sched", "victim", static_cast<std::int64_t>(victim));
      return true;
    }
  }
  return false;
}

WorkStealingCounters WorkStealingQueues::counters() const {
  WorkStealingCounters c;
  for (const Queue& q : queues_) {
    std::lock_guard lock(q.mu);
    c.pushes += q.pushes;
    c.local_pops += q.local_pops;
    c.steals += q.steals;
    c.discarded += q.items.size();
  }
  return c;
}

}  // namespace ss::runtime
