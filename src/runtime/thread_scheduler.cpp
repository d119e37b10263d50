// ThreadPerActorScheduler: one dedicated thread per actor, the §5.1
// configuration the paper evaluates and the engine's default.  Each thread
// waits on its actor's mailbox and runs the engine's slice step — the same
// step the pool's workers run.  A full destination mailbox blocks the
// sending thread (Blocking-After-Service), which *is* the backpressure the
// cost models capture.
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "runtime/scheduler.hpp"

namespace ss::runtime {

namespace {

class ThreadPerActorScheduler final : public Scheduler {
 public:
  explicit ThreadPerActorScheduler(std::size_t slice) : slice_(slice) {}

  void start(EngineCore& core) override {
    core_ = &core;
    threads_.reserve(core.num_actors());
    for (std::size_t id = 0; id < core.num_actors(); ++id) {
      threads_.emplace_back([this, id] {
        if (core_->is_source(id)) {
          while (!core_->run_slice(id, slice_).done) {
          }
        } else {
          // wait_ready() is false only for a closed, drained mailbox, and
          // only a failed actor's own slice closes it (then reports done).
          Mailbox& box = core_->mailbox(id);
          while (box.wait_ready() && !core_->run_slice(id, slice_).done) {
          }
        }
        core_->actor_done(id);
      });
    }
  }

  void join() override {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

 private:
  std::size_t slice_;
  EngineCore* core_ = nullptr;
  std::vector<std::thread> threads_;
};

}  // namespace

SchedulerKind scheduler_kind_from_string(const std::string& name) {
  if (name == "threads") return SchedulerKind::kThreadPerActor;
  if (name == "pool") return SchedulerKind::kPooled;
  throw Error("unknown scheduler '" + name + "' (expected 'threads' or 'pool')");
}

const char* to_string(SchedulerKind kind) {
  return kind == SchedulerKind::kThreadPerActor ? "threads" : "pool";
}

PinMode pin_mode_from_string(const std::string& name) {
  if (name == "none") return PinMode::kNone;
  if (name == "cores") return PinMode::kCores;
  if (name == "sockets") return PinMode::kSockets;
  throw Error("unknown pin mode '" + name +
              "' (expected 'none', 'cores' or 'sockets')");
}

const char* to_string(PinMode mode) {
  switch (mode) {
    case PinMode::kCores:
      return "cores";
    case PinMode::kSockets:
      return "sockets";
    default:
      return "none";
  }
}

std::unique_ptr<Scheduler> make_pooled_scheduler(int workers, int batch, PinMode pin);

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind, int workers, int batch,
                                          PinMode pin) {
  if (kind == SchedulerKind::kPooled) return make_pooled_scheduler(workers, batch, pin);
  return std::make_unique<ThreadPerActorScheduler>(
      batch > 0 ? static_cast<std::size_t>(batch) : kDefaultSliceSize);
}

}  // namespace ss::runtime
