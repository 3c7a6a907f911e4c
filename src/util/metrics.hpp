// The metrics layer: named counters, gauges and histograms as one plain
// value, MetricsSnapshot, with JSON and Prometheus text renderings.
//
// The snapshot is the registry. A session builds its snapshot directly
// from its manager's profile when it finishes (core/session.cpp), and the
// daemon keeps one server-cumulative snapshot that merge() folds every
// finished session into, under the server's metrics mutex. Nothing here
// is written concurrently, so the value needs no shards, atomics or lock
// of its own: the kernel's per-worker hot counters already absorb the
// only hot-path traffic, and a snapshot is read out of them once.
//
// Histograms carry fixed bucket upper bounds (inclusive, Prometheus "le"
// semantics, implicit +inf last) plus count and sum. The daemon's
// "metrics" op ships to_json(); the client renders to_prometheus().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace stgcheck::metrics {

/// Named metrics as plain data: the registry, the wire and the report form.
struct MetricsSnapshot {
  struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeSample {
    std::string name;
    double value = 0;
  };
  struct HistogramSample {
    std::string name;
    std::vector<double> edges;
    std::vector<std::uint64_t> buckets;  // edges.size() + 1 (last = +inf)
    std::uint64_t count = 0;
    double sum = 0;
  };
  std::vector<CounterSample> counters;  // first-seen order
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Folds `other` in: counters and histogram buckets/count/sum add,
  /// gauges take `other`'s value, and metrics new here are appended in
  /// `other`'s order. A name that is already a metric of another kind,
  /// empty or non-increasing histogram edges, or an edge mismatch throws
  /// ModelError. This is the server's per-session -> cumulative fold.
  void merge(const MetricsSnapshot& other);

  /// {"counters":{name:value,...},"gauges":{...},
  ///  "histograms":{name:{"edges":[...],"buckets":[...],"count":n,"sum":s}}}
  json::Value to_json() const;
  /// Inverse of to_json(); throws ModelError on a malformed document.
  static MetricsSnapshot from_json(const json::Value& obj);
  /// Prometheus text exposition: one "# TYPE" line per metric, histogram
  /// buckets as name_bucket{le="..."} cumulative counts.
  std::string to_prometheus() const;
};

}  // namespace stgcheck::metrics
