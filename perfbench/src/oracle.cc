#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "aim/schema/record.h"
#include "aim/storage/column_map.h"
#include "aim/workload/benchmark_schema.h"
#include "aim/workload/cdr_generator.h"
#include "aim/workload/rules_generator.h"

namespace perfbench {

using aim::AggOp;
using aim::CmpOp;
using aim::EntityId;
using aim::QueryBuilder;
using aim::QueryResult;
using aim::Value;

Env MakeEnv() {
  Env env;
  env.schema = aim::MakeBenchmarkSchema();
  env.dims = aim::MakeBenchmarkDims();
  aim::RulesGeneratorOptions rules;
  rules.num_rules = 300;
  env.rules = aim::MakeBenchmarkRules(*env.schema, rules);
  return env;
}

QueryParams FixedParams(int q) {
  QueryParams p;
  p.q = q;
  return p;
}

aim::Query BuildQuery(const Env& env, const QueryParams& p) {
  const aim::BenchmarkDims& d = env.dims;
  QueryBuilder qb(env.schema.get());
  switch (p.q) {
    case 1:
      qb.Select(AggOp::kAvg, "total_duration_this_week")
          .Where("number_of_local_calls_this_week", CmpOp::kGt,
                 Value::Int32(p.alpha));
      break;
    case 2:
      qb.Select(AggOp::kMax, "most_expensive_call_this_week")
          .Where("number_of_calls_this_week", CmpOp::kGt,
                 Value::Int32(p.beta));
      break;
    case 3:
      qb.SelectSumRatio("total_cost_this_week", "total_duration_this_week")
          .GroupByAttr("number_of_calls_this_week")
          .Limit(100);
      break;
    case 4:
      qb.Select(AggOp::kAvg, "number_of_local_calls_this_week")
          .Select(AggOp::kSum, "total_duration_of_local_calls_this_week")
          .Where("number_of_local_calls_this_week", CmpOp::kGt,
                 Value::Int32(p.gamma))
          .Where("total_duration_of_local_calls_this_week", CmpOp::kGt,
                 Value::Float(static_cast<float>(p.delta)))
          .GroupByDim("zip", d.region_info, d.region_city);
      break;
    case 5:
      qb.Select(AggOp::kSum, "total_cost_of_local_calls_this_week")
          .Select(AggOp::kSum, "total_cost_of_long_distance_calls_this_week")
          .WhereDimLabel("subscription_type", d.subscription_type,
                         d.subscription_type_name,
                         d.subscription_types[p.sub])
          .WhereDimLabel("category", d.category, d.category_name,
                         d.categories[p.cat])
          .GroupByDim("zip", d.region_info, d.region_region);
      break;
    case 6:
      qb.TopK("longest_local_call_today", /*ascending=*/false)
          .TopK("longest_local_call_this_week", false)
          .TopK("longest_long_distance_call_today", false)
          .TopK("longest_long_distance_call_this_week", false)
          .WhereDimLabel("zip", d.region_info, d.region_country,
                         d.countries[p.country])
          .WithEntityAttr("entity_id");
      break;
    default:
      qb.TopKRatio("total_cost_this_week", "total_duration_this_week",
                   /*ascending=*/true)
          .WhereDimLabel("cell_value_type", d.cell_value_type,
                         d.cell_value_type_name, d.cell_value_types[p.cvt])
          .WithEntityAttr("entity_id");
      break;
  }
  return std::move(qb.Build()).value();
}

aim::Query BuildCallCountQuery(const Env& env) {
  return std::move(QueryBuilder(env.schema.get())
                       .Select(AggOp::kSum, "number_of_calls_this_week")
                       .Build())
      .value();
}

aim::Query BuildProbeQuery(const Env& env, EntityId entity) {
  return std::move(QueryBuilder(env.schema.get())
                       .Select(AggOp::kSum, "number_of_calls_this_week")
                       .Where("entity_id", CmpOp::kEq, Value::UInt64(entity))
                       .Build())
      .value();
}

Oracle::Oracle(const Env* env, std::uint64_t stream_entities)
    : env_(env),
      stream_entities_(stream_entities),
      profiles_(stream_entities + 2),
      tallies_((stream_entities + 2) * kNumClasses) {}

void Oracle::MakeRow(EntityId e, std::uint8_t* row) {
  const aim::Schema& schema = *env_->schema;
  std::fill(row, row + schema.record_size(), 0);
  aim::PopulateEntityProfile(schema, env_->dims, e, stream_entities_, row);
  aim::RecordView rec(&schema, row);
  Profile& p = profiles_[e];
  p.zip = rec.GetAs<std::uint32_t>(schema.FindAttribute("zip"));
  p.sub = rec.GetAs<std::uint32_t>(schema.FindAttribute("subscription_type"));
  p.cat = rec.GetAs<std::uint32_t>(schema.FindAttribute("category"));
  p.cvt = rec.GetAs<std::uint32_t>(schema.FindAttribute("cell_value_type"));
}

void Oracle::Record(const aim::Event& e) {
  const float dur = static_cast<float>(e.duration);
  std::int32_t count = 0;
  for (Class c : {kAny, e.long_distance() ? kLongDistance : kLocal}) {
    Tally& t = tallies_[e.caller * kNumClasses + c];
    t.count += 1;
    t.sum_dur += dur;
    t.max_dur = std::max(t.max_dur, dur);
    t.sum_cost += e.cost;
    t.max_cost = std::max(t.max_cost, e.cost);
    count = std::max(count, t.count);
  }
  std::int32_t seen = max_count_.load(std::memory_order_relaxed);
  while (count > seen && !max_count_.compare_exchange_weak(
                             seen, count, std::memory_order_relaxed)) {
  }
  events_.fetch_add(1, std::memory_order_relaxed);
}

double Oracle::Tolerance() const {
  // First-order bound of recursive float32 summation: each entity's sums
  // are accumulated over at most M events, and the scan adds a bucket's
  // values in 16 float lanes (bucket/16 terms each) before a 4-level lane
  // reduction. Doubled for quotients of two sums, doubled again to cover
  // second-order terms.
  const double u = std::ldexp(1.0, -24);
  const double m = max_count_.load(std::memory_order_relaxed);
  const double lane = aim::ColumnMap::kDefaultBucketSize / 16.0;
  return 4.0 * (m + lane + 4.0) * u;
}

bool Oracle::Near(double got, double want) const {
  return std::fabs(got - want) <= Tolerance() * std::fabs(want) + 1e-12;
}

const std::string& Oracle::Label(std::uint16_t table, std::uint16_t column,
                                 std::uint32_t key) const {
  const aim::DimensionTable& t = env_->dims.catalog.table(table);
  return t.string_value(t.LookupRow(key), column);
}

namespace {

std::string Num(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

bool Oracle::Check(const QueryParams& p, const QueryResult& got,
                   std::string* why) const {
  const std::string q = "Q" + std::to_string(p.q) + ": ";
  if (!got.status.ok()) {
    *why = q + "status " + got.status.ToString();
    return false;
  }
  const aim::BenchmarkDims& d = env_->dims;
  const EntityId last = loaded_entities();

  // Grouped answers keyed by label (or numeric key for Q3), compared as
  // whole row sets.
  std::map<std::string, std::vector<double>> want_rows;
  auto check_rows = [&](bool by_label) {
    std::map<std::string, std::vector<double>> got_rows;
    for (const QueryResult::Row& r : got.rows) {
      got_rows[by_label ? r.group_label : std::to_string(r.group_key)] =
          r.values;
    }
    if (got_rows.size() != want_rows.size()) {
      *why = q + "got " + std::to_string(got_rows.size()) + " rows, want " +
             std::to_string(want_rows.size());
      return false;
    }
    for (const auto& [key, want] : want_rows) {
      auto it = got_rows.find(key);
      if (it == got_rows.end() || it->second.size() != want.size()) {
        *why = q + "row '" + key + "' missing or malformed";
        return false;
      }
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (!Near(it->second[i], want[i])) {
          *why = q + "row '" + key + "' value " + std::to_string(i) +
                 ": got " + Num(it->second[i]) + ", want " + Num(want[i]);
          return false;
        }
      }
    }
    return true;
  };
  auto check_scalar = [&](double want) {
    if (got.rows.size() != 1 || got.rows[0].values.size() != 1) {
      *why = q + "malformed scalar result";
      return false;
    }
    if (!Near(got.rows[0].values[0], want)) {
      *why = q + "got " + Num(got.rows[0].values[0]) + ", want " + Num(want);
      return false;
    }
    return true;
  };
  // Top-k: the reported value must be the extreme over the filtered set,
  // and the reported entity must pass the filter and hold that value
  // (ties may resolve to any entity).
  auto check_top = [&](std::size_t target, auto&& selected, auto&& value,
                       bool ascending) {
    bool any = false;
    double best = 0;
    for (EntityId e = 1; e <= last; ++e) {
      double v;
      if (!selected(e) || !value(e, &v)) continue;
      if (!any || (ascending ? v < best : v > best)) best = v;
      any = true;
    }
    const std::string t = q + "target " + std::to_string(target) + ": ";
    if (target >= got.topk.size()) {
      *why = t + "missing";
      return false;
    }
    const std::vector<aim::TopKEntry>& list = got.topk[target];
    if (!any) {
      if (list.empty()) return true;
      *why = t + "expected no candidate";
      return false;
    }
    if (list.size() != 1 || !Near(list[0].value, best)) {
      *why = t + (list.empty() ? std::string("empty")
                               : "got " + Num(list[0].value)) +
             ", want " + Num(best);
      return false;
    }
    const EntityId e = list[0].entity;
    double v = 0;
    if (e < 1 || e > last || !selected(e) || !value(e, &v) ||
        !Near(v, list[0].value)) {
      *why = t + "entity " + std::to_string(e) + " does not hold the value";
      return false;
    }
    return true;
  };

  switch (p.q) {
    case 1: {
      double sum = 0;
      std::uint64_t n = 0;
      for (EntityId e = 1; e <= last; ++e) {
        if (tally(e, kLocal).count > p.alpha) {
          sum += tally(e, kAny).sum_dur;
          ++n;
        }
      }
      return check_scalar(n == 0 ? 0.0 : sum / static_cast<double>(n));
    }
    case 2: {
      double mx = 0;
      for (EntityId e = 1; e <= last; ++e) {
        if (tally(e, kAny).count > p.beta) {
          mx = std::max(mx, static_cast<double>(tally(e, kAny).max_cost));
        }
      }
      return check_scalar(mx);
    }
    case 3: {
      std::map<std::int32_t, std::pair<double, double>> groups;
      for (EntityId e = 1; e <= last; ++e) {
        const Tally& t = tally(e, kAny);
        groups[t.count].first += t.sum_cost;
        groups[t.count].second += t.sum_dur;
      }
      for (const auto& [key, g] : groups) {
        if (want_rows.size() == 100) break;  // LIMIT 100, ascending keys
        want_rows[std::to_string(key)] = {
            g.second == 0.0 ? 0.0 : g.first / g.second};
      }
      return check_rows(/*by_label=*/false);
    }
    case 4: {
      std::map<std::string, std::pair<std::uint64_t, std::vector<double>>> g;
      for (EntityId e = 1; e <= last; ++e) {
        const Tally& t = tally(e, kLocal);
        if (t.count <= p.gamma || !(t.sum_dur > static_cast<float>(p.delta))) {
          continue;
        }
        auto& acc = g[Label(d.region_info, d.region_city, profiles_[e].zip)];
        if (acc.second.empty()) acc.second.assign(2, 0.0);
        acc.first += 1;
        acc.second[0] += t.count;
        acc.second[1] += t.sum_dur;
      }
      for (auto& [label, acc] : g) {
        want_rows[label] = {acc.second[0] / static_cast<double>(acc.first),
                            acc.second[1]};
      }
      return check_rows(/*by_label=*/true);
    }
    case 5: {
      const std::string& sub = d.subscription_types[p.sub];
      const std::string& cat = d.categories[p.cat];
      for (EntityId e = 1; e <= last; ++e) {
        const Profile& pr = profiles_[e];
        if (Label(d.subscription_type, d.subscription_type_name, pr.sub) !=
                sub ||
            Label(d.category, d.category_name, pr.cat) != cat) {
          continue;
        }
        std::vector<double>& row =
            want_rows[Label(d.region_info, d.region_region, pr.zip)];
        if (row.empty()) row.assign(2, 0.0);
        row[0] += tally(e, kLocal).sum_cost;
        row[1] += tally(e, kLongDistance).sum_cost;
      }
      return check_rows(/*by_label=*/true);
    }
    case 6: {
      const std::string& country = d.countries[p.country];
      auto in_country = [&](EntityId e) {
        return Label(d.region_info, d.region_country, profiles_[e].zip) ==
               country;
      };
      // today and this_week agree: no window rolls over during a run.
      const Class classes[4] = {kLocal, kLocal, kLongDistance, kLongDistance};
      for (std::size_t t = 0; t < 4; ++t) {
        auto longest = [&](EntityId e, double* v) {
          *v = tally(e, classes[t]).max_dur;
          return true;
        };
        if (!check_top(t, in_country, longest, /*ascending=*/false)) {
          return false;
        }
      }
      return true;
    }
    default: {
      const std::string& cvt = d.cell_value_types[p.cvt];
      auto in_type = [&](EntityId e) {
        return Label(d.cell_value_type, d.cell_value_type_name,
                     profiles_[e].cvt) == cvt;
      };
      auto flat_rate = [&](EntityId e, double* v) {
        const Tally& t = tally(e, kAny);
        if (t.sum_dur == 0.0f) return false;  // undefined ratio: skipped
        *v = static_cast<double>(t.sum_cost) / static_cast<double>(t.sum_dur);
        return true;
      };
      return check_top(0, in_type, flat_rate, /*ascending=*/true);
    }
  }
}

aim::Event ProbeEvent(const Oracle& oracle, std::uint64_t k) {
  aim::Event e;
  e.caller = oracle.probe_entity();
  e.callee = 1;
  e.sequence = k;
  e.timestamp = kTimeOrigin + static_cast<aim::Timestamp>(k);
  e.duration = 60;
  e.cost = static_cast<float>(60 * 0.001);
  return e;
}

}  // namespace perfbench
