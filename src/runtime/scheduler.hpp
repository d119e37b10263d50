// Execution scheduling behind the actor engine.
//
// The engine (engine.hpp) is the *actor core*: it owns the actor graph,
// message dispatch, routing, metering and the drain protocol, and it runs
// an actor in *slices* (EngineCore::run_slice): drain what the mailbox
// holds, up to a bound, and process it — or, for a source, emit up to that
// many items.  A Scheduler only decides where slices run:
//
//   * ThreadPerActorScheduler — one dedicated thread per actor that waits
//     on the mailbox (Mailbox::wait_ready), then runs a slice.  This is
//     the configuration the paper evaluates (§5.1, one Akka actor per
//     operator) and the default.
//   * PooledScheduler — multiplexes N actors onto K worker threads with
//     work stealing.  Workers never park on a per-mailbox condition
//     variable: each mailbox routes its empty→non-empty readiness hint
//     (Mailbox::set_on_ready) to the per-worker deque of the worker that
//     last ran the actor (warm cache); owners pop LIFO, idle workers steal
//     FIFO, and a claimed actor runs one slice.
//     Operator logic that parks its thread (timed-wait services, blocking
//     sends under backpressure) wraps the park in a BlockingSection so the
//     pool can lend the core to another worker meanwhile — K bounds the
//     number of *runnable* workers, not the number of sleepers, which is
//     what keeps wait-realized service times (clock.hpp) rate-faithful.
//
// Both policies run the same slice code, and the engine delivers messages
// itself (try_send fast path, blocking send inside a BlockingSection), so
// the two backends differ only in placement, never in what an actor does.
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "runtime/mailbox.hpp"
#include "runtime/metrics.hpp"

namespace ss::runtime {

/// Which execution backend runs the actors of an Engine.
enum class SchedulerKind : std::uint8_t {
  kThreadPerActor,  ///< paper-faithful default: one thread per actor
  kPooled,          ///< N actors multiplexed onto K worker threads
};

/// Parses "threads"/"pool"; throws ss::Error otherwise.
SchedulerKind scheduler_kind_from_string(const std::string& name);
const char* to_string(SchedulerKind kind);

/// Worker-to-CPU pinning (--pin): extends the pool's last_worker_ affinity
/// hints (warm caches via hint routing) down to the hardware.  kCores pins
/// each worker to one CPU round-robin; kSockets confines each worker to
/// the CPUs of one physical package (cache locality without giving up
/// intra-socket migration).  When sched_setaffinity is unavailable (non-
/// Linux, or restricted CI containers) the runtime warns once and
/// continues unpinned.
enum class PinMode : std::uint8_t {
  kNone,
  kCores,
  kSockets,
};

/// Parses "none"/"cores"/"sockets"; throws ss::Error otherwise.
PinMode pin_mode_from_string(const std::string& name);
const char* to_string(PinMode mode);

/// Messages (or source items) one actor slice handles unless configured
/// otherwise (EngineConfig::pool_batch, --batch).
inline constexpr std::size_t kDefaultSliceSize = 64;

/// What one EngineCore::run_slice() call did.
struct SliceOutcome {
  /// The actor finished (end of stream, finish epilogue run), retired at
  /// an epoch fence (no epilogue: its state carries into the next epoch)
  /// or failed.  It must not be run again; the scheduler reports it with
  /// actor_done() once it gave up its claim.
  bool done = false;
  /// Mailbox messages this slice consumed (0 for sources).
  std::size_t messages = 0;
};

/// What a Scheduler needs from the engine: the actor-graph shape and one
/// step function.  Implemented by Engine.
class EngineCore {
 public:
  virtual ~EngineCore() = default;

  virtual std::size_t num_actors() const = 0;
  virtual bool is_source(std::size_t id) const = 0;
  virtual Mailbox& mailbox(std::size_t id) = 0;

  /// Runs one slice of actor `id`; the caller guarantees one slice per
  /// actor at a time.  A source emits up to `max` items.  Any other actor
  /// drains what its mailbox holds now, up to `max` messages, releasing
  /// each message's capacity slot as it enters service, and processes
  /// them.  The slice counts shutdown tokens, detects fence retirement,
  /// stages outputs and meters busy time, and runs the finish epilogue or
  /// reports a failure itself.  It returns only after every staged message
  /// is delivered and every meter slice is closed, so a `done` actor may be
  /// completed at once.
  virtual SliceOutcome run_slice(std::size_t id, std::size_t max) = 0;

  /// Actor `id` is done (run_slice said so); the engine's active-actor
  /// accounting and completion signalling live here.
  virtual void actor_done(std::size_t id) = 0;
};

/// Execution policy: owns the threads that run the actors.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Spawns execution resources.  Called exactly once; `core` outlives the
  /// scheduler.
  virtual void start(EngineCore& core) = 0;

  /// Waits until every actor finished (the drain completed), then stops
  /// and joins all execution threads.  Idempotent.
  virtual void join() = 0;

  /// Telemetry counters of this scheduler's machinery (steals, parks,
  /// batch sizes).  All-zero for schedulers without such machinery (the
  /// thread-per-actor default).  Exact once the scheduler is quiescent.
  [[nodiscard]] virtual SchedulerCounters counters() const { return {}; }
};

/// `batch` is the slice size of both backends (`batch <= 0` means
/// kDefaultSliceSize); `workers` (<= 0: one per hardware thread) and `pin`
/// (worker-to-CPU mapping) apply to the pool only.
std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, int workers, int batch = 0,
                                          PinMode pin = PinMode::kNone);

/// Delivers the output the calling thread's operator slice has staged so
/// far (a no-op when nothing is staged, and for source slices, which keep
/// their own batching policy).  Implemented by the engine.
void flush_staged_output() noexcept;

/// RAII marker around a thread-parking section (timed wait, blocking send,
/// I/O) inside operator or engine code.  On entry it delivers the output
/// the calling thread's operator slice has staged so far, so results never
/// wait out the park (on both backends).  Under the pooled scheduler it
/// then releases the caller's worker slot so another worker can keep
/// draining — the mechanism that makes K-worker pools throughput-
/// equivalent to thread-per-actor on wait-bound workloads and that
/// guarantees backpressure blocking can never deadlock the pool.
class BlockingSection {
 public:
  BlockingSection() noexcept;
  ~BlockingSection();

  BlockingSection(const BlockingSection&) = delete;
  BlockingSection& operator=(const BlockingSection&) = delete;

 private:
  void* pool_;  ///< the worker's PooledScheduler, or nullptr
};

}  // namespace ss::runtime
