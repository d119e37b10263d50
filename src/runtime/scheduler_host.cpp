// SchedulerHost implementation: the pooled dispatcher generalized to many
// tenants.  Per actor the host only claims, runs one engine slice
// (EngineCore::run_slice: drain, metering, staging, fence retirement and
// the finish epilogue all live there) and completes or requeues; what it
// adds is the cross-tenant layer — stride-weighted tenant selection,
// host-level parking keyed on the aggregate pending count, blocking
// compensation shared across tenants, and hot attach/detach under the
// tenant lock.
#include "runtime/scheduler_host.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

#include "runtime/trace.hpp"

namespace ss::runtime {

namespace {
/// Stride numerator: pass advances by kStrideScale/weight per dispatched
/// actor batch, so a weight-2 tenant is served twice as often as a
/// weight-1 neighbor when both stay ready.
constexpr std::uint64_t kStrideScale = 1 << 20;

thread_local SchedulerHost* tls_host = nullptr;

/// Best-effort degradation (--pin in restricted environments, e.g. CI
/// containers without CAP_SYS_NICE-adjacent affinity rights): warn once on
/// stderr, keep running unpinned.
void warn_pin_unavailable() {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "spinstreams: warning: --pin requested but CPU affinity is "
                 "unavailable here; continuing unpinned\n");
  }
}

#if defined(__linux__)
/// physical_package_id per CPU from sysfs; empty when the topology cannot
/// be read (then kSockets degrades to an all-CPU mask).
std::vector<int> cpu_packages(unsigned ncpu) {
  std::vector<int> packages(ncpu, -1);
  for (unsigned cpu = 0; cpu < ncpu; ++cpu) {
    std::ifstream in("/sys/devices/system/cpu/cpu" + std::to_string(cpu) +
                     "/topology/physical_package_id");
    if (!(in >> packages[cpu])) return {};
  }
  return packages;
}
#endif

/// Pins the calling worker thread per `mode`: kCores assigns worker
/// `self` → CPU (self mod N) round-robin — the hardware analogue of the
/// last_worker_ hint routing; kSockets confines the worker to every CPU of
/// one physical package (round-robin over packages), keeping the shared
/// L3 warm without forbidding intra-socket migration.
void apply_pinning(PinMode mode, std::size_t self) {
#if defined(__linux__)
  const unsigned ncpu = std::thread::hardware_concurrency();
  if (ncpu == 0) {
    warn_pin_unavailable();
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  if (mode == PinMode::kCores) {
    CPU_SET(self % ncpu, &set);
  } else {
    static const std::vector<int> packages = cpu_packages(ncpu);
    const int npkg =
        packages.empty() ? 0 : *std::max_element(packages.begin(), packages.end()) + 1;
    if (npkg <= 1) {
      // Single socket (or unreadable topology): every CPU is "the" socket.
      for (unsigned cpu = 0; cpu < ncpu; ++cpu) CPU_SET(cpu, &set);
    } else {
      const int pkg = static_cast<int>(self % static_cast<std::size_t>(npkg));
      for (unsigned cpu = 0; cpu < ncpu; ++cpu) {
        if (packages[cpu] == pkg) CPU_SET(cpu, &set);
      }
    }
  }
  if (sched_setaffinity(0, sizeof(set), &set) != 0) warn_pin_unavailable();
#else
  (void)mode;
  (void)self;
  warn_pin_unavailable();
#endif
}
}  // namespace

/// Actor state word bits.  idle (0) → notified: the readiness edge, which
/// pushes the one hint; notified → running: the claim; running → idle or
/// notified: the slice end; running → done: completion.
constexpr std::uint32_t kNotified = 1;
constexpr std::uint32_t kRunning = 2;
constexpr std::uint32_t kDone = 4;

struct SchedulerHost::Tenant {
  EngineCore* core = nullptr;
  std::string label;
  const char* trace_label = nullptr;  ///< interned for Event tagging
  double weight = 1.0;
  std::uint64_t stride = kStrideScale;
  std::atomic<std::uint64_t> pass{0};

  /// One actor's readiness, and the hook its mailbox fires on the
  /// empty→non-empty edge.  One cache line per actor: producers of
  /// different actors never share the line they RMW.
  struct alignas(64) ActorSlot final : Mailbox::ReadyHook {
    SchedulerHost* host = nullptr;
    Tenant* tenant = nullptr;
    std::size_t id = 0;
    std::atomic<std::uint32_t> state{0};          ///< kNotified | kRunning | kDone
    std::atomic<std::size_t> last_worker{0};  ///< affinity: who ran it last
    void on_ready() override { host->notify(*tenant, id); }
  };

  std::unique_ptr<WorkStealingQueues> queues;  ///< per-tenant ready hints
  std::vector<ActorSlot> slots;

  std::size_t remaining = 0;  ///< actors not yet done (host mu_)

  /// Drain-batch telemetry.  One shard per tenant (not per worker): any
  /// worker index maps onto the tenant's queues by modulo, so the
  /// single-writer-per-shard assumption of the old per-worker layout does
  /// not survive multi-tenancy.  fetch_add + CAS-max keep it exact.
  std::atomic<std::uint64_t> slices{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> batch_messages{0};
  std::atomic<std::uint64_t> max_batch{0};
};

SchedulerHost::SchedulerHost(int workers, int batch, PinMode pin)
    : target_(workers),
      batch_(batch > 0 ? static_cast<std::size_t>(batch) : kDefaultSliceSize),
      pin_(pin) {
  if (target_ <= 0) {
    target_ = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  max_threads_ = target_;
}

SchedulerHost::~SchedulerHost() {
  shutdown_.store(true);
  {
    std::lock_guard lock(park_mu_);
    park_cv_.notify_all();
  }
  {
    std::lock_guard lock(surplus_mu_);
    surplus_cv_.notify_all();
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard lock(mu_);
    threads.swap(threads_);
  }
  for (std::thread& thread : threads) {
    if (thread.joinable()) thread.join();
  }
}

std::size_t SchedulerHost::num_tenants() const {
  std::shared_lock lock(tenants_mu_);
  return tenants_.size();
}

SchedulerHost::TenantId SchedulerHost::attach(EngineCore& core, std::string label,
                                              double weight) {
  auto t = std::make_shared<Tenant>();
  t->core = &core;
  t->label = std::move(label);
  if (!t->label.empty()) t->trace_label = trace::intern_label(t->label);
  t->weight = weight > 0.0 ? weight : 1.0;
  t->stride = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(kStrideScale) / t->weight));
  const std::size_t n = core.num_actors();
  // Same queue-count sizing as the single-tenant pooled scheduler: one
  // deque per potential worker of a dedicated pool.  Host workers whose
  // index exceeds it fold in by modulo (work_stealing.hpp).
  t->queues = std::make_unique<WorkStealingQueues>(static_cast<std::size_t>(target_) + n);
  t->slots = std::vector<Tenant::ActorSlot>(n);
  // A newcomer starts at the host's pass clock: it competes fairly from
  // now on instead of replaying credit for the time before it existed.
  t->pass.store(pass_clock_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  for (std::size_t id = 0; id < n; ++id) {
    Tenant::ActorSlot& slot = t->slots[id];
    slot.host = this;
    slot.tenant = t.get();
    slot.id = id;
    slot.last_worker.store(id % static_cast<std::size_t>(target_), std::memory_order_relaxed);
    core.mailbox(id).set_on_ready(&slot);
  }
  {
    std::unique_lock lock(tenants_mu_);
    tenants_.push_back(t);
  }
  {
    std::lock_guard lock(mu_);
    t->remaining = n;
    max_threads_ += static_cast<int>(n);
    ensure_started();
  }
  for (std::size_t id = 0; id < n; ++id) {
    if (core.is_source(id)) notify(*t, id);
  }
  return t;
}

void SchedulerHost::wait_drained(const TenantId& tenant) {
  std::unique_lock lock(mu_);
  drained_cv_.wait(lock, [&] { return tenant->remaining == 0; });
}

void SchedulerHost::detach(const TenantId& tenant) {
  {
    std::unique_lock lock(tenants_mu_);
    auto it = std::find(tenants_.begin(), tenants_.end(), tenant);
    if (it == tenants_.end()) return;
    tenants_.erase(it);
  }
  // The hooks point into the tenant, which may die after this returns; a
  // drained tenant's actors send nothing more, so no edge is in flight.
  for (std::size_t id = 0; id < tenant->slots.size(); ++id) {
    tenant->core->mailbox(id).set_on_ready(nullptr);
  }
  std::lock_guard lock(mu_);
  max_threads_ -= static_cast<int>(tenant->slots.size());
}

SchedulerCounters SchedulerHost::tenant_counters(const TenantId& tenant) const {
  SchedulerCounters c;
  const WorkStealingCounters q = tenant->queues->counters();
  c.pushes = q.pushes;
  c.local_pops = q.local_pops;
  c.steals = q.steals;
  c.discarded = q.discarded;
  c.parks = parks_.load(std::memory_order_relaxed);
  c.wakeups = wakeups_.load(std::memory_order_relaxed);
  c.slices = tenant->slices.load(std::memory_order_relaxed);
  c.batches = tenant->batches.load(std::memory_order_relaxed);
  c.batch_messages = tenant->batch_messages.load(std::memory_order_relaxed);
  c.max_batch = tenant->max_batch.load(std::memory_order_relaxed);
  return c;
}

void SchedulerHost::blocking_begin() {
  blocked_.fetch_add(1);
  // Stand a worker in only when work is waiting that no idle worker will
  // take; otherwise the next hint compensates (wake_or_spawn).
  if (pending_.load() > 0 && idle_.load() == 0) compensate();
}

void SchedulerHost::blocking_end() { blocked_.fetch_sub(1); }

void SchedulerHost::ensure_started() {
  if (started_) return;
  started_ = true;
  for (int i = 0; i < target_; ++i) spawn_locked();
}

void SchedulerHost::compensate() {
  if (runnable() >= target_) return;
  {
    // A surplus worker leaves only under surplus_mu_, so a count read here
    // has a worker behind it that will re-check runnable() < K: waking one
    // too many costs a spurious wakeup, never an extra runnable worker.
    std::lock_guard lock(surplus_mu_);
    if (surplus_.load() > 0) {
      surplus_cv_.notify_one();
      return;
    }
  }
  std::lock_guard lock(mu_);
  if (runnable() < target_ && spawned_.load() < max_threads_) spawn_locked();
}

void SchedulerHost::spawn_locked() {
  if (shutdown_.load()) return;
  const auto self = static_cast<std::size_t>(spawned_.fetch_add(1));
  threads_.emplace_back([this, self] { worker_loop(self); });
}

bool SchedulerHost::park_if_surplus() {
  int surplus = surplus_.load();
  do {
    if (spawned_.load() - blocked_.load() - surplus <= target_) return false;
  } while (!surplus_.compare_exchange_weak(surplus, surplus + 1));
  // An idle worker woken for a hint may be the one that parks here: pass
  // the wakeup on, so the hint is not left to workers that sleep.
  if (pending_.load() > 0 && idle_.load() > 0) {
    std::lock_guard lock(park_mu_);
    park_cv_.notify_one();
  }
  std::unique_lock lock(surplus_mu_);
  {
    trace::Span span("surplus", "sched");
    surplus_cv_.wait(lock, [&] { return shutdown_.load() || runnable() < target_; });
  }
  // Under the lock: a second waiter woken with us re-reads runnable() and
  // stays parked if our leaving already refilled K.
  surplus_.fetch_sub(1);
  return true;
}

void SchedulerHost::notify(Tenant& t, std::size_t id) {
  if (t.slots[id].state.fetch_or(kNotified, std::memory_order_acq_rel) == 0) push_hint(t, id);
}

void SchedulerHost::push_hint(Tenant& t, std::size_t id) {
  if (t.queues->pending() == 0) {
    // Idle → ready edge: clamp the tenant's pass up to the host clock so
    // the credit it "saved" while idle cannot buy a worker monopoly now.
    std::uint64_t clock = pass_clock_.load(std::memory_order_relaxed);
    std::uint64_t pass = t.pass.load(std::memory_order_relaxed);
    while (pass < clock &&
           !t.pass.compare_exchange_weak(pass, clock, std::memory_order_relaxed)) {
    }
  }
  // Route the hint to the actor's last worker (warm cache); any worker can
  // steal it, so a busy preferred worker never delays the actor.
  t.queues->push(id, t.slots[id].last_worker.load(std::memory_order_relaxed));
  pending_.fetch_add(1);
  wake_or_spawn();
}

void SchedulerHost::wake_or_spawn() {
  // Race-free against the idle park: a worker only parks after
  // re-evaluating `pending_ > 0` under park_mu_ (see pending_).
  if (idle_.load() > 0) {
    std::lock_guard lock(park_mu_);
    park_cv_.notify_one();
    return;
  }
  // Nobody idle: all workers are busy, blocked or surplus.  Compensate if
  // fewer than K are runnable (workers inside a BlockingSection don't count
  // against K).
  compensate();
}

void SchedulerHost::worker_loop(std::size_t self) {
  tls_host = this;
  trace::Tracer::instance().set_thread_name("worker-" + std::to_string(self));
  // Compensation workers (self >= target_) pin by the same modulo: they
  // substitute for a blocked worker, so they inherit a blocked worker's
  // placement rather than landing on an arbitrary core.
  if (pin_ != PinMode::kNone) apply_pinning(pin_, self);
  for (;;) {
    if (shutdown_.load()) break;
    if (park_if_surplus()) continue;
    if (run_one(self)) continue;
    // Global miss: park until the next hint (or shutdown).  The predicate
    // re-check under park_mu_ closes the lost-wakeup window with
    // wake_or_spawn().
    std::unique_lock lock(park_mu_);
    idle_.fetch_add(1);
    const auto has_work = [&] { return shutdown_.load() || pending_.load() > 0; };
    if (!has_work()) {
      parks_.fetch_add(1, std::memory_order_relaxed);
      trace::Span span("park", "sched");
      park_cv_.wait(lock, has_work);
      if (!shutdown_.load()) wakeups_.fetch_add(1, std::memory_order_relaxed);
    }
    idle_.fetch_sub(1);
  }
  tls_host = nullptr;
}

bool SchedulerHost::run_one(std::size_t self) {
  TenantId chosen;
  std::size_t id = 0;
  {
    std::shared_lock lock(tenants_mu_);
    const std::size_t n = tenants_.size();
    if (n == 0) return false;
    if (n == 1) {
      // Single-tenant fast path: no selection — this *is* the pooled
      // scheduler.
      if (tenants_[0]->queues->try_acquire(self, id)) chosen = tenants_[0];
    } else {
      // Stride scheduling: serve ready tenants in ascending pass order.
      thread_local std::vector<std::pair<std::uint64_t, std::size_t>> order;
      order.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (tenants_[i]->queues->pending() == 0) continue;
        order.emplace_back(tenants_[i]->pass.load(std::memory_order_relaxed), i);
      }
      std::sort(order.begin(), order.end());
      for (const auto& [pass, i] : order) {
        if (tenants_[i]->queues->try_acquire(self, id)) {
          chosen = tenants_[i];
          break;
        }
      }
    }
    if (chosen) {
      pending_.fetch_sub(1);
      const std::uint64_t next =
          chosen->pass.fetch_add(chosen->stride, std::memory_order_relaxed) +
          chosen->stride;
      std::uint64_t clock = pass_clock_.load(std::memory_order_relaxed);
      while (clock < next &&
             !pass_clock_.compare_exchange_weak(clock, next, std::memory_order_relaxed)) {
      }
    }
  }
  if (!chosen) return false;
  run_actor_slot(*chosen, self, id);
  return true;
}

void SchedulerHost::run_actor_slot(Tenant& t, std::size_t self, std::size_t id) {
  Tenant::ActorSlot& slot = t.slots[id];
  // Every hint was pushed on an idle → notified transition and is claimed
  // once, so the actor is notified here; anything else would be a second
  // hint, which must not run a second slice (the slices counter shows it).
  std::uint32_t expected = kNotified;
  if (!slot.state.compare_exchange_strong(expected, kRunning, std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
    return;
  }
  // Tag every event this slot records (spans, steals, operator logic) with
  // the tenant; cleared on all exit paths.
  struct TenantTagGuard {
    ~TenantTagGuard() { trace::set_thread_tenant(nullptr); }
  } tag_guard;
  trace::set_thread_tenant(t.trace_label);
  EngineCore* core = t.core;
  slot.last_worker.store(self, std::memory_order_relaxed);
  t.slices.fetch_add(1, std::memory_order_relaxed);
  const SliceOutcome slice = core->run_slice(id, batch_);
  if (slice.messages > 0) {
    t.batches.fetch_add(1, std::memory_order_relaxed);
    t.batch_messages.fetch_add(slice.messages, std::memory_order_relaxed);
    std::uint64_t prev = t.max_batch.load(std::memory_order_relaxed);
    while (prev < slice.messages &&
           !t.max_batch.compare_exchange_weak(prev, slice.messages,
                                              std::memory_order_relaxed)) {
    }
  }
  if (slice.done) {
    complete(t, id);
    return;
  }
  // Sources stay ready until exhausted; an actor with messages left stays
  // ready too.  Otherwise go idle — unless a notify arrived during the
  // slice (running|notified), whose edge found us running and pushed
  // nothing.  Every transition is a read-modify-write of the one word, so
  // the producer's notify and this release cannot both miss each other.
  expected = kRunning;
  if (!core->is_source(id) && core->mailbox(id).size() == 0 &&
      slot.state.compare_exchange_strong(expected, 0, std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
    return;
  }
  slot.state.store(kNotified, std::memory_order_release);
  push_hint(t, id);
}

void SchedulerHost::complete(Tenant& t, std::size_t id) {
  t.slots[id].state.store(kDone, std::memory_order_release);
  t.core->actor_done(id);
  bool drained = false;
  {
    std::lock_guard lock(mu_);
    drained = (--t.remaining == 0);
  }
  if (drained) drained_cv_.notify_all();
}

// --------------------------------------------------------------------------
// BlockingSection: cooperative blocking compensation (scheduler.hpp).  The
// thread-local host pointer is set by worker_loop, so on a non-worker
// thread the section only flushes the staged output.

BlockingSection::BlockingSection() noexcept : pool_(tls_host) {
  // First, so the blocking deliveries of the flush are not nested inside
  // this section's compensation.
  flush_staged_output();
  if (pool_ != nullptr) static_cast<SchedulerHost*>(pool_)->blocking_begin();
}

BlockingSection::~BlockingSection() {
  if (pool_ != nullptr) static_cast<SchedulerHost*>(pool_)->blocking_end();
}

// --------------------------------------------------------------------------
// HostedScheduler: one engine epoch as a tenant of a SchedulerHost.

namespace {

class HostedScheduler final : public Scheduler {
 public:
  /// `owned` (may be null) gives the adapter a private host — the
  /// single-tenant pooled configuration; `host` points at it or at a
  /// shared multi-tenant host owned elsewhere.
  HostedScheduler(SchedulerHost* host, std::unique_ptr<SchedulerHost> owned,
                  std::string label, double weight)
      : host_(host), owned_(std::move(owned)), label_(std::move(label)), weight_(weight) {}

  void start(EngineCore& core) override { tenant_ = host_->attach(core, label_, weight_); }

  void join() override {
    if (joined_) return;
    host_->wait_drained(tenant_);
    saved_ = host_->tenant_counters(tenant_);
    host_->detach(tenant_);
    joined_ = true;
  }

  [[nodiscard]] SchedulerCounters counters() const override {
    if (joined_) return saved_;
    return tenant_ ? host_->tenant_counters(tenant_) : SchedulerCounters{};
  }

 private:
  SchedulerHost* host_;
  std::unique_ptr<SchedulerHost> owned_;
  std::string label_;
  double weight_;
  SchedulerHost::TenantId tenant_;
  SchedulerCounters saved_;
  bool joined_ = false;
};

}  // namespace

std::unique_ptr<Scheduler> make_hosted_scheduler(SchedulerHost& host, std::string label,
                                                 double weight) {
  return std::make_unique<HostedScheduler>(&host, nullptr, std::move(label), weight);
}

std::unique_ptr<Scheduler> make_pooled_scheduler(int workers, int batch, PinMode pin);

std::unique_ptr<Scheduler> make_pooled_scheduler(int workers, int batch, PinMode pin) {
  auto host = std::make_unique<SchedulerHost>(workers, batch, pin);
  SchedulerHost* raw = host.get();
  return std::make_unique<HostedScheduler>(raw, std::move(host), std::string(), 1.0);
}

}  // namespace ss::runtime
