// Monotonic time helpers and the precise timed wait used by synthetic
// operators.
//
// Synthetic workloads realize a profiled service time as a *timed wait*
// rather than CPU burn: blocked/sleeping threads do not contend for cores,
// so all rate relationships (mu, lambda, rho, backpressure) survive on
// machines with fewer cores than actors — see DESIGN.md.  sleep_for alone
// overshoots by tens of microseconds at millisecond scale, so the wait
// sleeps for most of the interval and spins the short residue on the
// monotonic clock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

namespace ss::runtime {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed between two steady_clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Cheap approximate Clock::now() for high-frequency metering stamps.
///
/// Busy-span telemetry and per-tuple latency samples read the clock up to
/// four times per message; at ~25 ns per vDSO steady_clock read that is
/// measurable overhead on sub-microsecond operators.  On x86_64 this reads
/// the invariant TSC (~7 ns) and maps it onto the steady_clock timeline
/// through a once-per-process anchor + frequency calibration (≲0.1% rate
/// error — irrelevant for utilization fractions and the ~3%-resolution
/// latency buckets, which is all this stamp feeds; pacing and scheduling
/// keep using the real clock).  On other targets it is exactly
/// Clock::now().
inline Clock::time_point metering_now() {
#if defined(__x86_64__) || defined(_M_X64)
  struct Anchor {
    Clock::time_point base;
    std::uint64_t tsc;
    double ns_per_tick;
    Anchor() {
      const Clock::time_point t0 = Clock::now();
      const std::uint64_t c0 = __rdtsc();
      // ~200 us calibration spin: enough for ≲0.1% frequency accuracy,
      // short enough to vanish into engine start-up (runs once ever).
      Clock::time_point t1;
      std::uint64_t c1;
      do {
        t1 = Clock::now();
        c1 = __rdtsc();
      } while (t1 - t0 < std::chrono::microseconds(200));
      ns_per_tick = static_cast<double>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                            .count()) /
                    static_cast<double>(c1 - c0);
      base = t1;
      tsc = c1;
    }
  };
  static const Anchor anchor;  // thread-safe magic-static calibration
  const double ticks = static_cast<double>(__rdtsc() - anchor.tsc);
  return anchor.base +
         std::chrono::nanoseconds(static_cast<std::int64_t>(ticks * anchor.ns_per_tick));
#else
  return Clock::now();
#endif
}

/// `seconds` as a steady_clock duration.
inline Clock::duration to_clock_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Waits until `deadline` with microsecond-level accuracy.
inline void precise_wait_until(Clock::time_point deadline) {
  // Leave ~120us for the spin phase; below that the kernel timer slack
  // dominates and sleeping would overshoot.
  constexpr auto kSpinSlack = std::chrono::microseconds(120);
  const auto sleep_until = deadline - kSpinSlack;
  if (sleep_until > Clock::now()) std::this_thread::sleep_until(sleep_until);
  while (Clock::now() < deadline) {
    // short spin; yield keeps single-core hosts responsive
    std::this_thread::yield();
  }
}

/// Waits for `seconds` with microsecond-level accuracy.
inline void precise_wait(double seconds) {
  if (seconds <= 0.0) return;
  precise_wait_until(Clock::now() + to_clock_duration(seconds));
}

/// Timed wait with drift compensation.
///
/// On an oversubscribed machine every sleep/spin overshoots a little
/// (scheduler quanta, timer slack); uncorrected, that bias compounds into
/// service rates measurably below the profiled ones.  PacedWaiter keeps a
/// running debt of extra time already spent and discounts it from later
/// waits, so the long-run average interval converges to exactly the
/// requested service time.
class PacedWaiter {
 public:
  void wait(double seconds) {
    if (seconds <= 0.0) return;
    const double effective = seconds - debt_;
    if (effective <= 0.0) {
      debt_ -= seconds;  // still repaying earlier overshoot
      return;
    }
    const auto start = Clock::now();
    precise_wait(effective);
    debt_ = seconds_between(start, Clock::now()) - effective;
  }

  [[nodiscard]] double debt() const { return debt_; }

 private:
  double debt_ = 0.0;
};

/// Paces a source: PacedWaiter's drift compensation, plus the time the
/// caller spends between two waits.
///
/// What the caller does between two waits (emitting, staging, on the pool
/// the claim and dispatch between two slices) counts against the next
/// wait instead of stretching the period; PacedWaiter repays only its own
/// overshoot, which left pool sources several percent below their declared
/// rate.  Two kinds of time between waits are not made up, so a late
/// source never bursts to catch up:
/// - time blocked on send (`blocked_ns`): as in the model, a BAS source
///   server loses its blocked time, so a backpressured source still waits
///   a full period per item — the service time the profiler reads;
/// - of a pause longer than one period (a fence, preemption), everything
///   beyond that one period: the next item leaves at once, the rest is lost.
class SchedulePacer {
 public:
  /// `blocked_ns` is the caller's running total of time blocked on send
  /// (scope_blocked_ns(); it restarts at 0 with each actor slice).
  void wait(double period, std::uint64_t blocked_ns) {
    if (period <= 0.0) return;
    const auto now = Clock::now();
    // A total below the last one means a new slice began, and no send of
    // it can have blocked yet.
    const std::uint64_t blocked = blocked_ns >= blocked_seen_ ? blocked_ns - blocked_seen_ : 0;
    blocked_seen_ = blocked_ns;
    if (started_) {
      const double gap = seconds_between(returned_, now) - static_cast<double>(blocked) * 1e-9;
      debt_ += std::clamp(gap, 0.0, period);
    }
    started_ = true;
    const double effective = period - debt_;
    if (effective <= 0.0) {
      debt_ -= period;  // still repaying: this item leaves at once
      returned_ = now;
      return;
    }
    precise_wait_until(now + to_clock_duration(effective));
    returned_ = Clock::now();
    debt_ = seconds_between(now, returned_) - effective;
  }

 private:
  Clock::time_point returned_{};
  double debt_ = 0.0;
  std::uint64_t blocked_seen_ = 0;
  bool started_ = false;
};

}  // namespace ss::runtime
