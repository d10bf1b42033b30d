#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Inputs and the independent answer key of the benchmark.
//
// The CDR stream and the load clients' query parameters come from the
// workload module's seeded generators (aim::CdrGenerator,
// aim::QueryWorkload); the probe events and the fixed-parameter check
// queries are built here. For every event the program acknowledges the
// benchmark keeps its own per-entity tallies (count, sum and max of
// duration and cost per call class) and answers the fixed-parameter Q1-Q7
// with plain loops over them, so a query result is checked against a
// computation that shares no code with the scan path.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aim/esp/event.h"
#include "aim/esp/rule.h"
#include "aim/rta/partial_result.h"
#include "aim/rta/query.h"
#include "aim/schema/schema.h"
#include "aim/workload/dimension_data.h"

namespace perfbench {

/// The deployment's fixed inputs (the aim_server set-up): the full
/// 546-indicator schema, the benchmark dimension tables and the 300
/// generated rules.
struct Env {
  std::unique_ptr<aim::Schema> schema;
  aim::BenchmarkDims dims;
  std::vector<aim::Rule> rules;
};
Env MakeEnv();

/// Event time of the first generated event: one hour into a week-aligned
/// day, so the today/this_week windows Q1-Q7 read cannot roll over while
/// a run (at one millisecond of event time per event) lasts.
inline constexpr aim::Timestamp kTimeOrigin =
    2800 * aim::kMillisPerWeek + aim::kMillisPerHour;

/// Parameters of one Table-5 query. Label fields index the label pools of
/// BenchmarkDims (subscription_types, categories, countries,
/// cell_value_types).
struct QueryParams {
  int q = 1;
  std::int32_t alpha = 1;  // Q1
  std::int32_t beta = 2;   // Q2
  std::int32_t gamma = 2;  // Q4
  std::int32_t delta = 20;  // Q4
  std::uint32_t sub = 0;      // Q5
  std::uint32_t cat = 0;      // Q5
  std::uint32_t country = 0;  // Q6
  std::uint32_t cvt = 0;      // Q7
};

/// The fixed parameters of the output check.
QueryParams FixedParams(int q);
aim::Query BuildQuery(const Env& env, const QueryParams& p);
/// SUM(number_of_calls_this_week) over the whole matrix (conservation).
aim::Query BuildCallCountQuery(const Env& env);
/// SUM(number_of_calls_this_week) WHERE entity_id = `entity` (freshness).
aim::Query BuildProbeQuery(const Env& env, aim::EntityId entity);

/// Per-entity answer key. Entities 1..stream_entities take the generated
/// stream; entity stream_entities + 1 is loaded but only ever receives
/// probe events. Record() may be called from several threads as long as
/// each entity is recorded from one thread only (the stream and the probe
/// entity are disjoint).
class Oracle {
 public:
  Oracle(const Env* env, std::uint64_t stream_entities);

  std::uint64_t stream_entities() const { return stream_entities_; }
  std::uint64_t loaded_entities() const { return stream_entities_ + 1; }
  aim::EntityId probe_entity() const { return stream_entities_ + 1; }

  /// Fills `row` (schema record size) with entity `e`'s profile and keeps
  /// the profile's foreign keys for the answer key.
  void MakeRow(aim::EntityId e, std::uint8_t* row);

  /// Tallies one event the program acknowledged.
  void Record(const aim::Event& e);

  std::uint64_t events() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// Compares `got` with the answer for `p`; on mismatch returns false and
  /// says why.
  bool Check(const QueryParams& p, const aim::QueryResult& got,
             std::string* why) const;

  /// Relative tolerance of a compared value (see README, "Output check").
  double Tolerance() const;

 private:
  struct Profile {
    std::uint32_t zip = 0, sub = 0, cat = 0, cvt = 0;
  };
  // Call classes the checked queries filter on.
  enum Class { kAny = 0, kLocal = 1, kLongDistance = 2, kNumClasses = 3 };
  struct Tally {
    std::int32_t count = 0;
    float sum_dur = 0, max_dur = 0, sum_cost = 0, max_cost = 0;
  };

  const Tally& tally(aim::EntityId e, Class c) const {
    return tallies_[e * kNumClasses + c];
  }
  const std::string& Label(std::uint16_t table, std::uint16_t column,
                           std::uint32_t key) const;
  bool Near(double got, double want) const;

  const Env* env_;
  std::uint64_t stream_entities_;
  std::vector<Profile> profiles_;  // indexed by entity id
  std::vector<Tally> tallies_;     // entity * kNumClasses + class
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::int32_t> max_count_{0};
};

/// The k-th probe event (k = 1, 2, ...) to the probe entity.
aim::Event ProbeEvent(const Oracle& oracle, std::uint64_t k);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
