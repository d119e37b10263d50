// Synthetic operator/source logics realizing a profiled OperatorSpec.
//
// These are what the benches run: the service time is realized as a precise
// timed wait (see clock.hpp for why that is the right substitution on small
// machines) and the selectivity parameters are honoured statistically —
// one result per `input` items consumed, `output` results per production
// (fractional parts resolved by Bernoulli draws), so measured rates converge
// to the model's expectations.
#pragma once

#include <cstdint>
#include <memory>

#include "core/topology.hpp"
#include "gen/rng.hpp"
#include "runtime/clock.hpp"
#include "runtime/operator.hpp"

namespace ss::runtime {

class SyntheticOperator final : public OperatorLogic {
 public:
  /// `time_scale` multiplies the spec's service time (benches use < 1 to
  /// shrink paper-scale experiments into CI-friendly runs).
  SyntheticOperator(const OperatorSpec& spec, std::uint64_t seed, double time_scale = 1.0);

  void process(const Tuple& item, OpIndex from, Collector& out) override;
  void on_finish(Collector& out) override;
  [[nodiscard]] std::unique_ptr<OperatorLogic> clone() const override;
  [[nodiscard]] bool save_state(std::string& out) const override;
  bool restore_state(const std::string& bytes) override;

 private:
  void produce(const Tuple& item, Collector& out);

  double service_time_;
  PacedWaiter waiter_;
  Selectivity selectivity_;
  std::uint64_t seed_;
  double time_scale_;
  Rng rng_;
  double input_credit_ = 0.0;   ///< accumulated inputs toward the next result
  Tuple last_item_{};
  bool has_pending_ = false;
  mutable std::uint64_t clones_ = 0;  ///< decorrelates replica RNG streams
};

class SyntheticSource final : public SourceLogic {
 public:
  SyntheticSource(const OperatorSpec& spec, std::uint64_t seed, double time_scale = 1.0,
                  std::int64_t max_items = -1);

  bool next(Tuple& out) override;
  void skip(std::uint64_t n) override;

 private:
  double service_time_;
  SchedulePacer pacer_;
  Rng rng_;
  std::int64_t next_id_ = 0;
  std::int64_t max_items_;
};

}  // namespace ss::runtime
