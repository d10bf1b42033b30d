#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Raw-sample statistics and the registry readings the traced run
// differences over its windows.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "aim/obs/registry.h"

namespace perfbench {

/// steady_clock nanoseconds — the clock the program stamps completions with.
inline std::int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Exact percentile (q in [0,1]) of raw samples, linear interpolation
/// between closest ranks. 0 for an empty set.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// One timed operation: when it started (an open-loop event: when it was
/// due) and when it completed.
struct Span {
  std::int64_t start = 0, end = 0;
  double Millis() const { return static_cast<double>(end - start) / 1e6; }
};

/// The window [start, end) cut into `n` equal slices. Tail figures are
/// taken per slice and reported as the median over slices, so one burst of
/// interference moves one slice, not the run's figure.
struct Slices {
  std::int64_t start = 0, end = 0;
  int n = 1;

  int Of(std::int64_t t) const {
    if (t < start || t >= end) return -1;
    return static_cast<int>((t - start) * n / (end - start));
  }
  /// Per slice: the q-percentile of the latencies of spans that started
  /// in the slice (slices without spans are left out).
  std::vector<double> Latency(const std::vector<Span>& spans, double q) const {
    std::vector<std::vector<double>> per(static_cast<std::size_t>(n));
    for (const Span& s : spans) {
      const int i = Of(s.start);
      if (i >= 0) per[static_cast<std::size_t>(i)].push_back(s.Millis());
    }
    std::vector<double> values;
    for (std::vector<double>& v : per) {
      if (!v.empty()) values.push_back(Percentile(std::move(v), q));
    }
    return values;
  }
  /// Per slice: completions per second between the slice's first and last
  /// completion.
  std::vector<double> Rate(const std::vector<Span>& spans) const {
    std::vector<std::int64_t> first(static_cast<std::size_t>(n), 0);
    std::vector<std::int64_t> last(static_cast<std::size_t>(n), 0);
    std::vector<double> count(static_cast<std::size_t>(n), 0);
    for (const Span& s : spans) {
      const int i = Of(s.end);
      if (i < 0) continue;
      const std::size_t k = static_cast<std::size_t>(i);
      if (count[k]++ == 0) first[k] = last[k] = s.end;
      first[k] = std::min(first[k], s.end);
      last[k] = std::max(last[k], s.end);
    }
    std::vector<double> rates;
    for (std::size_t k = 0; k < count.size(); ++k) {
      if (count[k] > 1 && last[k] > first[k]) {
        rates.push_back((count[k] - 1) /
                        (static_cast<double>(last[k] - first[k]) / 1e9));
      }
    }
    return rates;
  }
};

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 0.5);
}

/// Interquartile mean: the mean of the samples between the first and third
/// quartile. Unlike the median it moves smoothly when a distribution has
/// two modes of similar weight.
inline double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = std::max(lo + 1, v.size() - v.size() / 4);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

/// VmHWM of this process, in MiB.
inline double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

/// One cumulative reading of the program's always-on series for node 0
/// (and its TCP peers, when there are any).
struct Readings {
  aim::HistogramSnapshot esp_latency, esp_batch, rta_scan, rta_batch,
      rta_query, merge, fresh, log_sync, coalesced;
  std::uint64_t events = 0, rules_fired = 0, merges = 0, records_merged = 0,
                log_syncs = 0, log_bytes = 0, net_bytes = 0, net_timeouts = 0;
};

/// Pointers into a registry, resolved once. `net_peer` is the TcpClient's
/// "host:port" (empty without TCP).
class Series {
 public:
  Series(aim::MetricsRegistry* reg, std::uint32_t partitions,
         const std::string& net_peer) {
    const aim::Labels node = {{"node", "0"}};
    esp_latency_ = reg->GetHistogram("aim_esp_event_latency_micros", node);
    esp_batch_ = reg->GetHistogram("aim_esp_batch_size", node);
    rta_scan_ = reg->GetHistogram("aim_rta_scan_duration_micros", node);
    rta_batch_ = reg->GetHistogram("aim_rta_batch_size_queries", node);
    rta_query_ = reg->GetHistogram("aim_rta_query_latency_micros", node);
    merge_ = reg->GetHistogram("aim_store_merge_duration_micros", node);
    fresh_ = reg->GetHistogram("aim_fresh_staleness_millis", node);
    log_sync_ = reg->GetHistogram("aim_log_sync_micros", node);
    records_merged_ = reg->GetCounter("aim_store_records_merged_total", node);
    log_syncs_ = reg->GetCounter("aim_log_syncs_total", node);
    log_bytes_ = reg->GetCounter("aim_log_bytes_total", node);
    for (std::uint32_t p = 0; p < partitions; ++p) {
      const aim::Labels part = {{"node", "0"}, {"partition", std::to_string(p)}};
      events_.push_back(reg->GetCounter("aim_esp_events_total", part));
      rules_fired_.push_back(reg->GetCounter("aim_esp_rules_fired_total", part));
      merges_.push_back(reg->GetCounter("aim_store_merges_total", part));
    }
    if (!net_peer.empty()) {
      const aim::Labels client = {{"role", "client"}, {"peer", net_peer}};
      const aim::Labels server = {{"role", "server"}, {"addr", net_peer}};
      net_bytes_.push_back(reg->GetCounter("aim_net_bytes_sent_total", client));
      net_bytes_.push_back(
          reg->GetCounter("aim_net_bytes_received_total", client));
      net_timeouts_ = reg->GetCounter("aim_net_timeouts_total", client);
      coalesced_.push_back(reg->GetHistogram("aim_net_frames_coalesced", client));
      coalesced_.push_back(reg->GetHistogram("aim_net_frames_coalesced", server));
    }
  }

  Readings Read() const {
    Readings r;
    r.esp_latency = esp_latency_->Snapshot();
    r.esp_batch = esp_batch_->Snapshot();
    r.rta_scan = rta_scan_->Snapshot();
    r.rta_batch = rta_batch_->Snapshot();
    r.rta_query = rta_query_->Snapshot();
    r.merge = merge_->Snapshot();
    r.fresh = fresh_->Snapshot();
    r.log_sync = log_sync_->Snapshot();
    r.records_merged = records_merged_->Value();
    r.log_syncs = log_syncs_->Value();
    r.log_bytes = log_bytes_->Value();
    for (const aim::Counter* c : events_) r.events += c->Value();
    for (const aim::Counter* c : rules_fired_) r.rules_fired += c->Value();
    for (const aim::Counter* c : merges_) r.merges += c->Value();
    for (const aim::Counter* c : net_bytes_) r.net_bytes += c->Value();
    if (net_timeouts_ != nullptr) r.net_timeouts = net_timeouts_->Value();
    for (const aim::AtomicHistogram* h : coalesced_) {
      r.coalesced.Merge(h->Snapshot());
    }
    return r;
  }

 private:
  aim::AtomicHistogram *esp_latency_, *esp_batch_, *rta_scan_, *rta_batch_,
      *rta_query_, *merge_, *fresh_, *log_sync_;
  aim::Counter *records_merged_, *log_syncs_, *log_bytes_;
  aim::Counter* net_timeouts_ = nullptr;
  std::vector<aim::Counter*> events_, rules_fired_, merges_, net_bytes_;
  std::vector<aim::AtomicHistogram*> coalesced_;
};

/// Mean of the samples recorded between two snapshots (0 if none).
inline double WindowMean(const aim::HistogramSnapshot& a,
                         const aim::HistogramSnapshot& b) {
  return b.Delta(a).Mean();
}

/// x / y, or 0 when nothing happened (a layer the workload does not use).
inline double Ratio(double x, double y) { return y > 0 ? x / y : 0.0; }

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
