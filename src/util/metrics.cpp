#include "util/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace stgcheck::metrics {

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

namespace {

template <typename Sample>
bool holds(const std::vector<Sample>& samples, const std::string& name) {
  return std::any_of(samples.begin(), samples.end(),
                     [&](const Sample& s) { return s.name == name; });
}

/// The sample named `name` in `own`, appended zero-valued on first sight.
/// Throws when one of the other two kinds already holds the name. Lookups
/// are linear: a session snapshot carries a few dozen names.
template <typename Sample, typename Other1, typename Other2>
Sample& entry(std::vector<Sample>& own, const std::vector<Other1>& other1,
              const std::vector<Other2>& other2, const std::string& name) {
  for (Sample& s : own) {
    if (s.name == name) return s;
  }
  if (holds(other1, name) || holds(other2, name)) {
    throw ModelError("metric '" + name +
                     "' already registered as another kind");
  }
  Sample& s = own.emplace_back();
  s.name = name;
  return s;
}

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const CounterSample& c : other.counters) {
    entry(counters, gauges, histograms, c.name).value += c.value;
  }
  for (const GaugeSample& g : other.gauges) {
    entry(gauges, counters, histograms, g.name).value = g.value;
  }
  for (const HistogramSample& h : other.histograms) {
    if (h.edges.empty()) {
      throw ModelError("histogram '" + h.name + "' needs bucket edges");
    }
    for (std::size_t i = 1; i < h.edges.size(); ++i) {
      if (!(h.edges[i - 1] < h.edges[i])) {
        throw ModelError("histogram '" + h.name +
                         "' edges must be strictly increasing");
      }
    }
    HistogramSample& dst = entry(histograms, counters, gauges, h.name);
    if (dst.edges.empty()) {  // first sight: take the incoming edges
      dst.edges = h.edges;
      dst.buckets.assign(h.edges.size() + 1, 0);
    } else if (dst.edges != h.edges) {
      throw ModelError("histogram '" + h.name +
                       "' merge with different bucket edges");
    }
    const std::size_t n = std::min(h.buckets.size(), dst.buckets.size());
    for (std::size_t b = 0; b < n; ++b) dst.buckets[b] += h.buckets[b];
    dst.count += h.count;
    dst.sum += h.sum;
  }
}

// ---------------------------------------------------------------------------
// Snapshot renderings
// ---------------------------------------------------------------------------

json::Value MetricsSnapshot::to_json() const {
  json::Value counters_obj = json::Value::object();
  for (const CounterSample& c : counters) {
    counters_obj.set(c.name, json::Value(static_cast<double>(c.value)));
  }
  json::Value gauges_obj = json::Value::object();
  for (const GaugeSample& g : gauges) gauges_obj.set(g.name, json::Value(g.value));
  json::Value hists_obj = json::Value::object();
  for (const HistogramSample& h : histograms) {
    json::Value edges = json::Value::array();
    for (double e : h.edges) edges.push_back(json::Value(e));
    json::Value buckets = json::Value::array();
    for (std::uint64_t b : h.buckets) {
      buckets.push_back(json::Value(static_cast<double>(b)));
    }
    json::Value hist = json::Value::object();
    hist.set("edges", std::move(edges));
    hist.set("buckets", std::move(buckets));
    hist.set("count", json::Value(static_cast<double>(h.count)));
    hist.set("sum", json::Value(h.sum));
    hists_obj.set(h.name, std::move(hist));
  }
  json::Value doc = json::Value::object();
  doc.set("counters", std::move(counters_obj));
  doc.set("gauges", std::move(gauges_obj));
  doc.set("histograms", std::move(hists_obj));
  return doc;
}

MetricsSnapshot MetricsSnapshot::from_json(const json::Value& obj) {
  MetricsSnapshot snap;
  if (const json::Value* counters = obj.find("counters")) {
    for (const auto& [name, v] : counters->as_object()) {
      snap.counters.push_back(
          {name, static_cast<std::uint64_t>(v.as_number())});
    }
  }
  if (const json::Value* gauges = obj.find("gauges")) {
    for (const auto& [name, v] : gauges->as_object()) {
      snap.gauges.push_back({name, v.as_number()});
    }
  }
  if (const json::Value* hists = obj.find("histograms")) {
    for (const auto& [name, v] : hists->as_object()) {
      HistogramSample h;
      h.name = name;
      for (const json::Value& e : v.at("edges").as_array()) {
        h.edges.push_back(e.as_number());
      }
      for (const json::Value& b : v.at("buckets").as_array()) {
        h.buckets.push_back(static_cast<std::uint64_t>(b.as_number()));
      }
      h.count = static_cast<std::uint64_t>(v.at("count").as_number());
      h.sum = v.at("sum").as_number();
      snap.histograms.push_back(std::move(h));
    }
  }
  return snap;
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. The registry's
/// names already fit; this guards merged snapshots from the wire.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) {
    out.insert(out.begin(), '_');  // char overload: gcc 12 -Wrestrict FP on the C-string one
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      v > -1e15 && v < 1e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    // Shortest representation that round-trips: bucket edges like 0.1
    // must render as "0.1", not "0.10000000000000001" -- the "le" label
    // is schema (scrapers match it textually across snapshots).
    for (int prec = 15; prec <= 17; ++prec) {
      std::snprintf(buf, sizeof buf, "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
  }
  out += buf;
}

}  // namespace

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const CounterSample& c : counters) {
    const std::string name = prom_name(c.name);
    out += "# TYPE " + name + " counter\n" + name + " ";
    append_number(out, static_cast<double>(c.value));
    out += "\n";
  }
  for (const GaugeSample& g : gauges) {
    const std::string name = prom_name(g.name);
    out += "# TYPE " + name + " gauge\n" + name + " ";
    append_number(out, g.value);
    out += "\n";
  }
  for (const HistogramSample& h : histograms) {
    const std::string name = prom_name(h.name);
    out += "# TYPE " + name + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      out += name + "_bucket{le=\"";
      if (b < h.edges.size()) {
        append_number(out, h.edges[b]);
      } else {
        out += "+Inf";
      }
      out += "\"} ";
      append_number(out, static_cast<double>(cumulative));
      out += "\n";
    }
    out += name + "_sum ";
    append_number(out, h.sum);
    out += "\n" + name + "_count ";
    append_number(out, static_cast<double>(h.count));
    out += "\n";
  }
  return out;
}

}  // namespace stgcheck::metrics
