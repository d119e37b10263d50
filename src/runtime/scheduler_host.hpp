// SchedulerHost: the shared worker pool that runs *tenants* — multiple
// actor-sets (one per Engine epoch) multiplexed onto one set of K worker
// threads.  This inverts the pre-multi-tenant ownership: the pool no longer
// belongs to a scheduler that belongs to an engine; engines register with
// the host and the host owns the threads, the parking machinery, the
// blocking-compensation budget and the per-tenant work-stealing deques.
//
// Tenancy model:
//   * each tenant keeps its own WorkStealingQueues (per-tenant ready
//     queues), actor state words, affinity hints and drain-batch counters,
//     so tenant telemetry stays separable and the counter ledger invariant
//     (pushes == local_pops + steals + discarded) holds per tenant;
//   * dispatch across tenants is *stride scheduling*: tenant i advances a
//     pass counter by scale/weight_i per claimed actor batch, and a free
//     worker serves the ready tenant with the smallest pass.  Weights set
//     the long-run CPU share; every ready tenant has finite pass distance
//     to the front, so no tenant starves.  A tenant waking from idle has
//     its pass clamped up to the host's pass clock so it cannot monopolize
//     workers by replaying the credit it accumulated while idle;
//   * idle workers park on one host-level condition variable keyed on the
//     total pending hint count over all tenants;
//   * hot attach/detach: a tenant joins or leaves while the other tenants
//     keep running.  Engines drive retirement through their own fence/
//     drain barrier; the host only requires that a tenant is drained
//     (every actor finished or retired) before detach.
//
// Actor readiness is one atomic state word per actor (idle, notified,
// running, done).  The mailbox's empty→non-empty edge sets `notified` and
// pushes a ready hint only on the idle → notified transition; a worker
// claims the hint by turning notified into running; at slice end it turns
// running back into idle, or — when a notify arrived during the slice,
// messages remain or the actor is a source — into notified and pushes the
// hint itself.  Every hint is therefore claimed exactly once and runs one
// slice, and no readiness edge is lost between a slice's end and the next
// send.
//
// Blocking compensation keeps exactly K workers *runnable*: a worker that
// enters a BlockingSection stops counting, and the host wakes a parked
// surplus worker or spawns one to stand in for it; when the section ends
// and more than K workers are runnable, the first worker back at the top
// of its loop parks as surplus until a BlockingSection entry needs it.
//
// The single-tenant configuration *is* the pooled scheduler:
// make_pooled_scheduler() wraps a private one-tenant host, so the
// dispatcher semantics the scheduler tests pin down are the host's
// semantics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/work_stealing.hpp"

namespace ss::runtime {

class SchedulerHost {
 public:
  struct Tenant;  // opaque to callers; defined in scheduler_host.cpp
  /// Handle to a registered tenant.  Shared ownership: workers may hold a
  /// reference briefly after detach (they stop touching the engine the
  /// moment every actor slot is done).
  using TenantId = std::shared_ptr<Tenant>;

  /// `workers <= 0` means one per hardware thread; `batch` is the slice
  /// size of every actor claim (`<= 0`: kDefaultSliceSize); `pin` maps worker
  /// threads to CPUs (best-effort: warns once and continues unpinned when
  /// sched_setaffinity is unavailable).
  explicit SchedulerHost(int workers = 0, int batch = 0,
                         PinMode pin = PinMode::kNone);
  ~SchedulerHost();

  SchedulerHost(const SchedulerHost&) = delete;
  SchedulerHost& operator=(const SchedulerHost&) = delete;

  /// Registers `core` as a tenant and makes its sources runnable.  `label`
  /// tags the tenant's trace events; `weight` (> 0) is its stride-
  /// scheduling share relative to the other tenants.  The first attach
  /// spawns the worker threads.  `core` must stay valid until wait_drained
  /// + detach.
  TenantId attach(EngineCore& core, std::string label, double weight = 1.0);

  /// Blocks until every actor of the tenant finished or retired.
  void wait_drained(const TenantId& tenant);

  /// Unregisters a *drained* tenant and clears its mailboxes' readiness
  /// hooks: workers stop touching its engine.  A drained tenant has no
  /// queued hint (every actor is done, and a done actor is never
  /// notified).  The other tenants keep running undisturbed.
  void detach(const TenantId& tenant);

  /// The tenant's scheduler telemetry: its own queue/batch/slice counters
  /// plus the host-level idle park/wakeup counts (parking is shared
  /// machinery, so the park columns are per host, not per tenant; surplus
  /// parks are not counted).
  [[nodiscard]] SchedulerCounters tenant_counters(const TenantId& tenant) const;

  /// The runnable-worker budget K.
  [[nodiscard]] int workers() const { return target_; }
  /// Tenants currently attached.
  [[nodiscard]] std::size_t num_tenants() const;

  /// Sampling-cadence scale for per-tenant background samplers (the
  /// online profiler's fold loop): with N tenants sharing the pool, each
  /// tenant stretches its period N× so the combined probe pressure on
  /// the workers stays what a single tenant would generate.
  [[nodiscard]] double sampling_period_scale() const {
    const std::size_t n = num_tenants();
    return n > 1 ? static_cast<double>(n) : 1.0;
  }

  /// Cooperative blocking compensation (BlockingSection): a worker about
  /// to park inside operator/engine code reports in so the host can keep K
  /// *runnable* workers draining; on leaving it counts as runnable again
  /// (one atomic decrement), and any surplus parks at a loop top.
  void blocking_begin();
  void blocking_end();

 private:
  void ensure_started();
  void spawn_locked();
  /// Stands a worker in for one that blocked: wakes a surplus worker, or
  /// spawns one (up to the cap), while fewer than K workers are runnable.
  void compensate();
  /// Workers counted against K: spawned, minus those inside a
  /// BlockingSection, minus those parked as surplus.
  [[nodiscard]] int runnable() const {
    return spawned_.load() - blocked_.load() - surplus_.load();
  }
  /// Parks the calling worker while more than K workers are runnable;
  /// returns whether it parked.
  bool park_if_surplus();
  void worker_loop(std::size_t self);
  bool run_one(std::size_t self);
  void run_actor_slot(Tenant& t, std::size_t self, std::size_t id);
  /// Marks a `done` actor complete: state word set to done, engine told,
  /// tenant drain count dropped (the engine may be destroyed right after).
  void complete(Tenant& t, std::size_t id);
  /// The mailbox readiness edge of actor `id`: idle → notified pushes a hint.
  void notify(Tenant& t, std::size_t id);
  void push_hint(Tenant& t, std::size_t id);
  void wake_or_spawn();

  int target_;           ///< runnable-worker budget (K)
  std::size_t batch_;    ///< slice size: messages drained per actor claim
  PinMode pin_;          ///< worker-to-CPU mapping (--pin)
  int max_threads_ = 0;  ///< cap: target_ + sum of active tenants' actors (mu_)

  /// Guards the tenant list.  Workers scan under a shared lock; attach/
  /// detach take it exclusively, which is what makes detach safe without
  /// hazard pointers: no worker can be mid-scan over a leaving tenant.
  mutable std::shared_mutex tenants_mu_;
  std::vector<TenantId> tenants_;

  /// Stride-scheduling clock: the largest pass any dispatch advanced to.
  /// Tenants waking from idle clamp their pass up to it (no credit replay).
  std::atomic<std::uint64_t> pass_clock_{0};

  /// Ready hints over all tenants (the idle-park predicate).  A hint push
  /// and an idle park each write one of pending_/idle_ and then read the
  /// other, sequentially consistent, so one of them always sees the other.
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> idle_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::atomic<std::uint64_t> parks_{0};    ///< idle parks only
  std::atomic<std::uint64_t> wakeups_{0};  ///< idle parks that resumed with work

  /// The runnable count's terms, read together on every compensation check.
  /// A BlockingSection entry writes blocked_ then reads surplus_, a worker
  /// turning surplus writes surplus_ then reads blocked_ (sequentially
  /// consistent), so a block never misses a parking surplus worker.
  alignas(64) std::atomic<int> spawned_{0};  ///< written under mu_
  std::atomic<int> blocked_{0};              ///< workers inside a BlockingSection
  std::atomic<int> surplus_{0};              ///< workers parked as surplus
  std::mutex surplus_mu_;
  std::condition_variable surplus_cv_;

  std::mutex mu_;  ///< spawning, the thread cap and tenant drain counts
  std::condition_variable drained_cv_;
  std::vector<std::thread> threads_;
  bool started_ = false;
};

/// Scheduler adapter running one engine epoch as a tenant of `host` (which
/// must outlive the adapter).  start() attaches, join() waits for the
/// drain and detaches; the host keeps serving its other tenants.
std::unique_ptr<Scheduler> make_hosted_scheduler(SchedulerHost& host, std::string label,
                                                 double weight = 1.0);

}  // namespace ss::runtime
