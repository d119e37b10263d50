#include "runtime/telemetry.hpp"

#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <utility>

#include "core/error.hpp"

namespace ss::runtime {

// ------------------------------------------------------- thread-local context

namespace {

struct ActorContext {
  TelemetryBoard* board = nullptr;
  OpIndex op = kInvalidOp;
  std::uint64_t blocked_in_scope = 0;
};

thread_local ActorContext tls_context;

}  // namespace

ScopedActorContext::ScopedActorContext(TelemetryBoard& board, OpIndex op) noexcept
    : saved_{tls_context.board, tls_context.op, tls_context.blocked_in_scope} {
  tls_context.board = &board;
  tls_context.op = op;
  tls_context.blocked_in_scope = 0;
}

ScopedActorContext::~ScopedActorContext() {
  tls_context.board = saved_.board;
  tls_context.op = saved_.op;
  tls_context.blocked_in_scope = saved_.blocked_in_scope;
}

std::uint64_t ScopedActorContext::blocked_ns() const {
  return tls_context.blocked_in_scope;
}

bool blocked_metering_enabled() {
  return tls_context.board != nullptr && tls_context.board->enabled();
}

bool has_actor_context() { return tls_context.board != nullptr; }

std::uint64_t scope_blocked_ns() { return tls_context.blocked_in_scope; }

void charge_blocked(std::uint64_t ns) {
  if (tls_context.board == nullptr) return;
  tls_context.blocked_in_scope += ns;
  if (tls_context.board->enabled()) tls_context.board->add_blocked(tls_context.op, ns);
}

void charge_blocked(std::uint64_t ns, OpIndex dest_op) {
  if (tls_context.board == nullptr) return;
  tls_context.blocked_in_scope += ns;
  if (!tls_context.board->enabled()) return;
  tls_context.board->add_blocked(tls_context.op, ns);
  if (dest_op == kInvalidOp) return;
  if (BlockedEdgeSink* sink = tls_context.board->blocked_sink(); sink != nullptr) {
    sink->record_blocked_edge(tls_context.op, dest_op, ns);
  }
}

// ---------------------------------------------------------------- exporter

namespace {

/// Escapes operator names for JSON (the only user-controlled strings).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
  }
  return out;
}

std::uint64_t delta(const std::vector<std::uint64_t>& now,
                    const std::vector<std::uint64_t>& prev, std::size_t i) {
  const std::uint64_t a = i < now.size() ? now[i] : 0;
  const std::uint64_t b = i < prev.size() ? prev[i] : 0;
  return a >= b ? a - b : 0;
}

}  // namespace

struct MetricsExporter::Impl {
  std::ofstream out;
  std::mutex mu;
  std::condition_variable cv;  ///< wakes the loop early on stop()
};

MetricsExporter::MetricsExporter(std::function<MetricsSample()> sampler,
                                 std::vector<std::string> op_names,
                                 const std::string& path, double period_seconds,
                                 std::string tenant)
    : sampler_(std::move(sampler)),
      op_names_(std::move(op_names)),
      period_(period_seconds > 0.0 ? period_seconds : 0.5),
      tenant_(std::move(tenant)),
      impl_(std::make_unique<Impl>()) {
  impl_->out.open(path, std::ios::trunc);
  require(impl_->out.good(), "cannot write metrics file: " + path);
}

MetricsExporter::~MetricsExporter() { stop(); }

void MetricsExporter::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  thread_ = std::thread([this] { loop(); });
}

void MetricsExporter::stop() {
  if (!started_.load(std::memory_order_relaxed)) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    stop_.store(true, std::memory_order_relaxed);
  }
  impl_->cv.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsExporter::loop() {
  const auto period = std::chrono::duration<double>(period_);
  std::unique_lock<std::mutex> lock(impl_->mu);
  while (!stop_.load(std::memory_order_relaxed)) {
    if (impl_->cv.wait_for(lock, period,
                           [this] { return stop_.load(std::memory_order_relaxed); })) {
      break;
    }
    lock.unlock();
    write_sample(sampler_());
    lock.lock();
  }
  lock.unlock();
  // Final sample so short runs always leave at least one line.
  write_sample(sampler_());
  impl_->out.flush();
}

void MetricsExporter::write_sample(const MetricsSample& s) {
  const CounterSnapshot& now = s.counters;
  const CounterSnapshot& prev = prev_.counters;
  const double window = have_prev_ ? now.at_seconds - prev.at_seconds : now.at_seconds;
  const double dt = window > 1e-9 ? window : 1.0;

  std::ofstream& out = impl_->out;
  out.precision(6);
  out << "{\"t\":" << now.at_seconds;
  if (!tenant_.empty()) out << ",\"tenant\":\"" << json_escape(tenant_) << "\"";
  out << ",\"epoch\":" << s.epoch
      << ",\"dropped\":" << s.dropped << ",\"ops\":[";
  const std::size_t n = now.processed.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out << ",";
    const double proc_rate = static_cast<double>(delta(now.processed, prev.processed, i)) / dt;
    const double emit_rate = static_cast<double>(delta(now.emitted, prev.emitted, i)) / dt;
    const double rho = static_cast<double>(delta(now.busy_ns, prev.busy_ns, i)) / 1e9 / dt;
    const double blocked =
        static_cast<double>(delta(now.blocked_ns, prev.blocked_ns, i)) / 1e9 / dt;
    out << "{\"name\":\""
        << json_escape(i < op_names_.size() ? op_names_[i] : std::to_string(i))
        << "\",\"processed\":" << (i < now.processed.size() ? now.processed[i] : 0)
        << ",\"emitted\":" << (i < now.emitted.size() ? now.emitted[i] : 0)
        << ",\"proc_rate\":" << proc_rate << ",\"emit_rate\":" << emit_rate
        << ",\"rho\":" << rho << ",\"blocked\":" << blocked
        << ",\"queue\":" << (i < now.queue_depth.size() ? now.queue_depth[i] : 0)
        << ",\"queue_peak\":" << (i < now.queue_peak.size() ? now.queue_peak[i] : 0);
    if (i < s.latency.per_op.size() && s.latency.per_op[i].count > 0) {
      const LatencySummary& l = s.latency.per_op[i];
      out << ",\"p50_ms\":" << l.p50 * 1e3 << ",\"p95_ms\":" << l.p95 * 1e3
          << ",\"p99_ms\":" << l.p99 * 1e3;
    }
    if (s.predicted.valid && i < s.predicted.op_response.size() &&
        i < s.predicted.op_p99.size()) {
      out << ",\"pred_ms\":" << s.predicted.op_response[i] * 1e3
          << ",\"pred_p99_ms\":" << s.predicted.op_p99[i] * 1e3;
    }
    out << "}";
  }
  out << "],\"e2e\":{\"count\":" << s.latency.end_to_end.count;
  if (s.latency.end_to_end.count > 0) {
    out << ",\"p50_ms\":" << s.latency.end_to_end.p50 * 1e3
        << ",\"p95_ms\":" << s.latency.end_to_end.p95 * 1e3
        << ",\"p99_ms\":" << s.latency.end_to_end.p99 * 1e3;
  }
  if (s.predicted.valid) {
    out << ",\"pred_p50_ms\":" << s.predicted.p50 * 1e3
        << ",\"pred_p95_ms\":" << s.predicted.p95 * 1e3
        << ",\"pred_p99_ms\":" << s.predicted.p99 * 1e3
        << ",\"pred_mean_ms\":" << s.predicted.mean * 1e3;
  }
  out << "}";
  if (s.checkpoints_written > 0 || s.recovered_from_epoch > 0) {
    out << ",\"ckpt\":{\"written\":" << s.checkpoints_written
        << ",\"last_epoch\":" << s.last_epoch_persisted
        << ",\"recovered_from\":" << s.recovered_from_epoch << "}";
  }
  if (!s.profile.empty()) {
    // Profiler estimates ride next to the measurements they correct; only
    // operators with an estimate get an entry (op index keys the join).
    out << ",\"profile\":[";
    bool first = true;
    for (std::size_t i = 0; i < s.profile.size(); ++i) {
      const ProfileEstimate& p = s.profile[i];
      if (p.estimated_rate <= 0.0) continue;
      if (!first) out << ",";
      out << "{\"op\":" << i << ",\"est_rate\":" << p.estimated_rate
          << ",\"busy_rate\":" << p.busy_rate << ",\"confidence\":" << p.confidence
          << ",\"samples\":" << p.samples;
      if (p.cv2 >= 0.0) out << ",\"cv2\":" << p.cv2;
      if (p.queue_full_fraction > 0.0) {
        out << ",\"queue_full\":" << p.queue_full_fraction;
      }
      out << "}";
      first = false;
    }
    out << "]";
  }
  if (!s.bottlenecks.empty()) {
    out << ",\"bottlenecks\":[";
    for (std::size_t i = 0; i < s.bottlenecks.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"op\":" << s.bottlenecks[i].op
          << ",\"blame_s\":" << s.bottlenecks[i].blame_seconds
          << ",\"share\":" << s.bottlenecks[i].share << "}";
    }
    out << "]";
  }
  out << ",\"sched\":{\"steals\":" << s.scheduler.steals
      << ",\"parks\":" << s.scheduler.parks << ",\"wakeups\":" << s.scheduler.wakeups
      << ",\"batches\":" << s.scheduler.batches
      << ",\"batch_messages\":" << s.scheduler.batch_messages
      << ",\"max_batch\":" << s.scheduler.max_batch
      << ",\"ring_enqueues\":" << s.scheduler.ring_enqueues
      << ",\"ring_spills\":" << s.scheduler.ring_spills << "}}\n";
  prev_ = s;
  have_prev_ = true;
  ++lines_;
}

}  // namespace ss::runtime
