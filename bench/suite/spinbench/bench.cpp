#include "bench.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "runtime/scheduler.hpp"


namespace spinbench {

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // KiB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {
/// Nearest-rank quantile of [first, last), reordering it.
template <typename It>
double quantile_in_place(It first, It last, double q) {
  if (first == last) return 0.0;
  const auto top = static_cast<double>(last - first - 1);
  const auto rank = static_cast<std::ptrdiff_t>(std::llround(std::clamp(q, 0.0, 1.0) * top));
  std::nth_element(first, first + rank, last);
  return static_cast<double>(*(first + rank));
}
}  // namespace

double quantile(std::vector<double> values, double q) {
  return quantile_in_place(values.begin(), values.end(), q);
}

double harrell_davis(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const double a = (n + 1.0) * q;
  const double b = (n + 1.0) * (1.0 - q);
  // Order statistic i weighs the Beta(a, b) mass on ((i - 1) / n, i / n];
  // midpoint-rule integration of the density, normalized to sum to one.
  constexpr int kStepsPerValue = 256;
  const double log_norm = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  const double h = 1.0 / (n * kStepsPerValue);
  double total = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    double mass = 0.0;
    for (int k = 0; k < kStepsPerValue; ++k) {
      const double x = (static_cast<double>(i) * kStepsPerValue + k + 0.5) * h;
      mass += std::exp((a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x) - log_norm);
    }
    total += mass;
    weighted += mass * values[i];
  }
  return weighted / total;
}

void Reservoir::add(double value) {
  const auto capacity = static_cast<std::uint64_t>(values_.size());
  const auto seen = static_cast<std::uint64_t>(seen_);
  const std::uint64_t slot = seen < capacity ? seen : rng_.next_u64() % (seen + 1);
  if (slot < capacity) values_[slot] = static_cast<float>(value);
  ++seen_;
}

double Reservoir::quantile(double q) {
  const auto kept = std::min<std::size_t>(values_.size(), static_cast<std::size_t>(seen_));
  return quantile_in_place(values_.begin(), values_.begin() + static_cast<std::ptrdiff_t>(kept), q);
}

// ------------------------------------------------------------------ metrics

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

namespace {
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}
}  // namespace

std::string to_json(const Metrics& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"samples\": " + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

// ------------------------------------------------------------------ tracing

void Tracer::add(std::string name, std::int64_t id, std::int64_t parent, std::int64_t begin_ns,
                 std::int64_t end_ns, int lane, std::int64_t tuple_id) {
  std::lock_guard lock(mutex_);
  records_.push_back(Record{std::move(name), id, parent, begin_ns, end_ns, lane, tuple_id});
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\": [\n";
  const char* lanes[] = {"bench", "control", "tuples"};
  for (int lane = 1; lane <= 3; ++lane) {
    out << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << lane
        << ", \"args\": {\"name\": \"" << lanes[lane - 1] << "\"}},\n";
  }
  std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << "{\"name\": " << json_string(r.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << r.lane << ", \"ts\": " << json_number(static_cast<double>(r.begin_ns) * 1e-3)
        << ", \"dur\": "
        << json_number(static_cast<double>(std::max<std::int64_t>(0, r.end_ns - r.begin_ns)) *
                       1e-3)
        << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent;
    if (r.tuple_id >= 0) out << ", \"tuple_id\": " << r.tuple_id;
    out << "}}" << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

Span::Span(Tracer* tracer, std::string name, std::int64_t parent, int lane)
    : tracer_(tracer), name_(std::move(name)), parent_(parent), lane_(lane),
      begin_ns_(now_ns()) {
  if (tracer_ != nullptr) id_ = tracer_->reserve_id();
}

double Span::end() {
  if (end_ns_ < 0) {
    end_ns_ = now_ns();
    if (tracer_ != nullptr) tracer_->add(name_, id_, parent_, begin_ns_, end_ns_, lane_);
  }
  return ns_to_s(end_ns_ - begin_ns_);
}

// ------------------------------------------------------------ load and exit

void Feed::reserve(std::int64_t n) {
  const auto size = static_cast<std::size_t>(n);
  for (auto* v : {&due_ns, &key, &start_ns, &lag_ns, &exit_ns}) {
    v->reserve(size);
    v->assign(size, 0);
  }
  for (auto* v : {&value, &result}) {
    v->reserve(size);
    v->assign(size, 0.0);
  }
  exits.assign(size, 0);
  due_ns.clear();
  key.clear();
  value.clear();
  reset(0);
}

void Feed::reset(std::int64_t n) {
  items = n;
  const auto size = static_cast<std::size_t>(n);
  start_ns.assign(size, 0);
  exit_ns.assign(size, 0);
  exits.assign(size, 0);
  result.assign(value.empty() ? 0 : size, 0.0);
  lag_ns.assign(due_ns.empty() ? 0 : size, 0);
  cursor.store(0, std::memory_order_relaxed);
  bad_ids.store(0, std::memory_order_relaxed);
  exited.store(0);
  wake_at.store(-1);
}

bool FeedSource::next(ss::runtime::Tuple& out) {
  const std::int64_t id = feed_.cursor.load(std::memory_order_relaxed);
  if (id >= feed_.items) return false;
  const auto i = static_cast<std::size_t>(id);
  std::int64_t now = now_ns();
  if (!feed_.due_ns.empty()) {
    if (!slack_set_) {
      // Default timer slack (50 us) would make every wake-up late by that
      // much; the lag and the due-based latency should show the system,
      // not the sleep granularity.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      slack_set_ = true;
    }
    // Sleep, never spin, and park as any waiting operator does, so a pool
    // lends this worker's core to another worker meanwhile: the generator
    // must not take processing capacity or hide the scheduler's idle
    // behaviour.  A wake-up a few microseconds late emits every tuple due
    // by then at once.
    const std::int64_t due = feed_.t0_ns + feed_.due_ns[i];
    if (now < due) {
      const ss::runtime::BlockingSection parked;
      while (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        now = now_ns();
      }
    }
    feed_.start_ns[i] = due;
    feed_.lag_ns[i] = now - due;
  } else {
    if (feed_.window > 0 && id - feed_.exited.load() >= feed_.window) {
      const std::int64_t target = id - feed_.window / 2;
      const ss::runtime::BlockingSection parked;
      std::unique_lock lock(feed_.window_mutex);
      feed_.wake_at.store(target);
      // Bounded: were a tuple lost, the window would never drain; the run
      // then goes on, and the accounting reports the loss.
      feed_.window_cv.wait_for(lock, std::chrono::seconds(1),
                               [&] { return feed_.exited.load() >= target; });
      feed_.wake_at.store(-1);
      now = now_ns();
    }
    feed_.start_ns[i] = now;
  }
  out.id = id;
  out.key = feed_.key.empty() ? id : feed_.key[i];
  out.f = {feed_.value.empty() ? 1.0 : feed_.value[i], 0.0, 0.0, 0.0};
  feed_.cursor.store(id + 1, std::memory_order_relaxed);
  return true;
}

namespace {

/// Forwards emissions downstream, recording each one as a system exit.
class ExitCollector final : public ss::runtime::Collector {
 public:
  ExitCollector(Feed& feed, ss::runtime::Collector& out) : feed_(feed), out_(out) {}
  void emit(const ss::runtime::Tuple& t) override {
    record(t);
    out_.emit(t);
  }
  void emit_to(ss::OpIndex target, const ss::runtime::Tuple& t) override {
    record(t);
    out_.emit_to(target, t);
  }

 private:
  void record(const ss::runtime::Tuple& t) {
    if (t.id < 0 || t.id >= feed_.items) {
      feed_.bad_ids.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto i = static_cast<std::size_t>(t.id);
    feed_.exit_ns[i] = now_ns();
    if (feed_.exits[i] < 255) ++feed_.exits[i];
    if (!feed_.result.empty()) feed_.result[i] = t.f[1];
    // Both sides use sequentially consistent order: either the source sees
    // this exit before it sleeps, or this exit sees the source's wake_at.
    if (feed_.exited.fetch_add(1) + 1 == feed_.wake_at.load()) {
      std::lock_guard lock(feed_.window_mutex);
      feed_.window_cv.notify_one();
    }
  }
  Feed& feed_;
  ss::runtime::Collector& out_;
};

}  // namespace

void ExitProbe::process(const ss::runtime::Tuple& item, ss::OpIndex from,
                        ss::runtime::Collector& out) {
  ExitCollector exits(feed_, out);
  inner_->process(item, from, exits);
}

void ExitProbe::on_finish(ss::runtime::Collector& out) {
  ExitCollector exits(feed_, out);
  inner_->on_finish(exits);
}

Accounting& Accounting::operator+=(const Accounting& o) {
  generated += o.generated;
  lost += o.lost;
  duplicated += o.duplicated;
  wrong += o.wrong;
  dropped += o.dropped;
  return *this;
}

Accounting account(const Feed& feed, std::uint64_t engine_dropped,
                   const std::vector<double>& expected) {
  Accounting acc;
  acc.generated = feed.items;
  acc.dropped = static_cast<std::int64_t>(engine_dropped) +
                feed.bad_ids.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < feed.exits.size(); ++i) {
    if (feed.exits[i] == 0) {
      ++acc.lost;
    } else if (feed.exits[i] > 1) {
      ++acc.duplicated;
    } else if (!expected.empty() && feed.result[i] != expected[i]) {
      ++acc.wrong;
    }
  }
  return acc;
}

void poisson_schedule(std::uint64_t seed, double rate, double seconds,
                      std::vector<std::int64_t>& due) {
  ss::Rng rng(seed);
  due.clear();
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    if (t >= seconds) break;
    due.push_back(static_cast<std::int64_t>(t * 1e9));
  }
}

std::int64_t poisson_capacity(double rate, double seconds) {
  const double mean = rate * seconds;
  return static_cast<std::int64_t>(mean + 10.0 * std::sqrt(mean)) + 16;
}

}  // namespace spinbench
