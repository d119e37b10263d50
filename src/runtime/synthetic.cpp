#include "runtime/synthetic.hpp"

#include <cmath>

#include "runtime/clock.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/wire.hpp"

namespace ss::runtime {

SyntheticOperator::SyntheticOperator(const OperatorSpec& spec, std::uint64_t seed,
                                     double time_scale)
    : service_time_(spec.service_time * time_scale),
      selectivity_(spec.selectivity),
      seed_(seed),
      time_scale_(time_scale),
      rng_(seed) {}

void SyntheticOperator::process(const Tuple& item, OpIndex from, Collector& out) {
  (void)from;
  if (service_time_ > 0.0) {
    // The timed wait parks this thread; under the pooled scheduler the
    // BlockingSection lends the core to another worker meanwhile.  A
    // zero-cost operator skips the section entirely: blocking_begin/end
    // take the host's global mutex, which would dominate the hop cost.
    BlockingSection blocking;
    waiter_.wait(service_time_);
  }
  last_item_ = item;
  has_pending_ = true;
  // One production event per `input` items consumed (window-slide style).
  input_credit_ += 1.0;
  while (input_credit_ >= selectivity_.input) {
    input_credit_ -= selectivity_.input;
    produce(item, out);
    has_pending_ = false;
  }
}

void SyntheticOperator::produce(const Tuple& item, Collector& out) {
  // `output` results per production event; fractional part statistically.
  double quota = selectivity_.output;
  while (quota >= 1.0) {
    out.emit(item);
    quota -= 1.0;
  }
  if (quota > 0.0 && rng_.bernoulli(quota)) out.emit(item);
}

void SyntheticOperator::on_finish(Collector& out) {
  // Flush a partially filled window so short finite runs do not lose the
  // tail (only when something was consumed since the last result).
  if (selectivity_.input > 1.0 && has_pending_ && input_credit_ > 0.0) {
    produce(last_item_, out);
    input_credit_ = 0.0;
    has_pending_ = false;
  }
}

bool SyntheticOperator::save_state(std::string& out) const {
  // Everything the selectivity machinery accumulated: the Bernoulli rng
  // stream position, the input credit toward the next production, and the
  // pending tail item on_finish() would flush.
  for (std::uint64_t lane : rng_.state()) wire::put_u64(out, lane);
  wire::put_f64(out, input_credit_);
  wire::put_u8(out, has_pending_ ? 1 : 0);
  wire::put_i64(out, last_item_.id);
  wire::put_i64(out, last_item_.key);
  wire::put_f64(out, last_item_.ts);
  for (double f : last_item_.f) wire::put_f64(out, f);
  return true;
}

bool SyntheticOperator::restore_state(const std::string& bytes) {
  wire::Reader in(bytes);
  std::array<std::uint64_t, 4> lanes{};
  for (auto& lane : lanes) {
    if (!in.u64(lane)) return false;
  }
  std::uint8_t pending = 0;
  if (!in.f64(input_credit_) || !in.u8(pending)) return false;
  if (!in.i64(last_item_.id) || !in.i64(last_item_.key) || !in.f64(last_item_.ts)) {
    return false;
  }
  for (double& f : last_item_.f) {
    if (!in.f64(f)) return false;
  }
  if (!in.ok() || in.remaining() != 0) return false;
  rng_.set_state(lanes);
  has_pending_ = pending != 0;
  return true;
}

std::unique_ptr<OperatorLogic> SyntheticOperator::clone() const {
  OperatorSpec spec;
  spec.name = "synthetic";
  spec.service_time = service_time_ / time_scale_;
  spec.selectivity = selectivity_;
  // Derive a distinct stream per replica so Bernoulli draws decorrelate.
  const std::uint64_t child_seed = seed_ + (++clones_) * 0x5851f42d4c957f2dULL;
  return std::make_unique<SyntheticOperator>(spec, child_seed, time_scale_);
}

SyntheticSource::SyntheticSource(const OperatorSpec& spec, std::uint64_t seed,
                                 double time_scale, std::int64_t max_items)
    : service_time_(spec.service_time * time_scale), rng_(seed), max_items_(max_items) {}

bool SyntheticSource::next(Tuple& out) {
  if (max_items_ >= 0 && next_id_ >= max_items_) return false;
  if (service_time_ > 0.0) {
    BlockingSection blocking;
    pacer_.wait(service_time_, scope_blocked_ns());
  }
  out.id = next_id_++;
  out.key = static_cast<std::int64_t>(rng_.next_u64() >> 1);
  out.ts = static_cast<double>(out.id) * service_time_;
  for (double& f : out.f) f = rng_.next_double();
  return true;
}

void SyntheticSource::skip(std::uint64_t n) {
  // Recovery rewind: consume exactly the rng draws next() makes per item
  // (one u64 for the key, four doubles for the attributes) without the
  // paced wait, so the (n+1)-th item matches an uninterrupted run's.
  for (std::uint64_t i = 0; i < n; ++i) {
    if (max_items_ >= 0 && next_id_ >= max_items_) return;
    ++next_id_;
    rng_.next_u64();
    for (int k = 0; k < 4; ++k) rng_.next_double();
  }
}

}  // namespace ss::runtime
