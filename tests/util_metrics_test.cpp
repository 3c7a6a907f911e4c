// The metrics snapshot (util/metrics.hpp): the per-session -> cumulative
// merge() fold (counters and histograms add, gauges take the incoming
// value, first-seen order), its kind and bucket-edge checks, and the JSON
// and Prometheus renderings.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"

namespace stgcheck::metrics {
namespace {

/// Three observations 0.05, 0.5 and 5.0 over the edges {0.1, 1.0}: one
/// per bucket, the last in the implicit +inf bucket.
MetricsSnapshot populated_snapshot() {
  MetricsSnapshot snap;
  snap.counters.push_back({"ops", 7});
  snap.gauges.push_back({"rate", 0.25});
  snap.histograms.push_back(
      {"lat", {0.1, 1.0}, {1, 1, 1}, 3, 0.05 + 0.5 + 5.0});
  return snap;
}

MetricsSnapshot histogram_only(const std::string& name,
                               std::vector<double> edges) {
  MetricsSnapshot snap;
  const std::size_t buckets = edges.size() + 1;
  snap.histograms.push_back(
      {name, std::move(edges), std::vector<std::uint64_t>(buckets, 0), 0, 0});
  return snap;
}

TEST(Snapshot, KindMismatchThrows) {
  MetricsSnapshot reg;
  reg.counters.push_back({"reused", 1});
  MetricsSnapshot as_gauge;
  as_gauge.gauges.push_back({"reused", 2.0});
  EXPECT_THROW(reg.merge(as_gauge), ModelError);
  EXPECT_THROW(reg.merge(histogram_only("reused", {1.0})), ModelError);
  // Same kind folds into the one existing metric.
  MetricsSnapshot again;
  again.counters.push_back({"reused", 2});
  reg.merge(again);
  ASSERT_EQ(reg.counters.size(), 1u);
  EXPECT_EQ(reg.counters[0].value, 3u);
  EXPECT_TRUE(reg.gauges.empty());
  EXPECT_TRUE(reg.histograms.empty());
}

TEST(Snapshot, BadHistogramEdgesThrow) {
  MetricsSnapshot reg;
  EXPECT_THROW(reg.merge(histogram_only("empty", {})), ModelError);
  EXPECT_THROW(reg.merge(histogram_only("unsorted", {2.0, 1.0})), ModelError);
  EXPECT_THROW(reg.merge(histogram_only("dupes", {1.0, 1.0})), ModelError);
  EXPECT_TRUE(reg.histograms.empty());
}

TEST(Snapshot, JsonRoundTrips) {
  const MetricsSnapshot snap = populated_snapshot();
  const MetricsSnapshot back = MetricsSnapshot::from_json(
      json::Value::parse(snap.to_json().dump()));
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].name, "ops");
  EXPECT_EQ(back.counters[0].value, 7u);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(back.gauges[0].value, 0.25);
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].edges, (std::vector<double>{0.1, 1.0}));
  EXPECT_EQ(back.histograms[0].buckets,
            (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_EQ(back.histograms[0].count, 3u);
  EXPECT_DOUBLE_EQ(back.histograms[0].sum, 0.05 + 0.5 + 5.0);
}

TEST(Snapshot, PrometheusRendering) {
  const std::string text = populated_snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE ops counter"), std::string::npos);
  EXPECT_NE(text.find("ops 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rate gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat histogram"), std::string::npos);
  // Cumulative buckets: le="1" covers the le="0.1" observations too.
  EXPECT_NE(text.find("lat_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3"), std::string::npos);
}

TEST(Snapshot, MergeFoldsCountersAndHistograms) {
  const MetricsSnapshot snap = populated_snapshot();
  MetricsSnapshot merged;
  merged.merge(snap);
  merged.merge(snap);
  ASSERT_EQ(merged.counters.size(), 1u);
  EXPECT_EQ(merged.counters[0].value, 14u);  // counters add
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 0.25);  // gauges take the value
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].count, 6u);  // buckets/sums add
  EXPECT_DOUBLE_EQ(merged.histograms[0].sum, 2 * (0.05 + 0.5 + 5.0));
  EXPECT_EQ(merged.histograms[0].buckets,
            (std::vector<std::uint64_t>{2, 2, 2}));
}

TEST(Snapshot, MergeKeepsFirstSeenOrder) {
  MetricsSnapshot merged;
  MetricsSnapshot first;
  first.counters = {{"b", 1}, {"a", 1}};
  first.gauges = {{"y", 1.0}};
  MetricsSnapshot second;
  second.counters = {{"c", 1}, {"a", 1}};
  second.gauges = {{"x", 2.0}, {"y", 3.0}};
  merged.merge(first);
  merged.merge(second);
  ASSERT_EQ(merged.counters.size(), 3u);
  EXPECT_EQ(merged.counters[0].name, "b");
  EXPECT_EQ(merged.counters[1].name, "a");
  EXPECT_EQ(merged.counters[1].value, 2u);
  EXPECT_EQ(merged.counters[2].name, "c");
  ASSERT_EQ(merged.gauges.size(), 2u);
  EXPECT_EQ(merged.gauges[0].name, "y");
  EXPECT_DOUBLE_EQ(merged.gauges[0].value, 3.0);
  EXPECT_EQ(merged.gauges[1].name, "x");
}

TEST(Snapshot, MergeEdgeMismatchThrows) {
  MetricsSnapshot reg = histogram_only("lat", {0.5});
  EXPECT_THROW(reg.merge(histogram_only("lat", {0.1, 1.0})), ModelError);
}

}  // namespace
}  // namespace stgcheck::metrics
