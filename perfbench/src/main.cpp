// perfbench_driver: runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --checkd PATH --socket PATH --nets-dir DIR
//                    --oracle-cache DIR [--revision TEXT] [--out FILE]
//
// Prints a human-readable report, then as the last stdout line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. --out
// receives the full document (host fingerprint, both metric sets, per-net
// rows, failures). perfbench/run.py builds the driver and supplies the
// paths; README.md explains the workloads and metrics.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "corpus.hpp"
#include "daemon.hpp"
#include "oneshot.hpp"
#include "oracle.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

using stgcheck::Stopwatch;
using stgcheck::json::Value;

constexpr std::size_t kDaemonSetupBurst = 7;
constexpr std::chrono::milliseconds kSetupGap{100};
constexpr std::size_t kDaemonThreads = 4;
constexpr std::size_t kDaemonClients = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string checkd;
  std::string socket;
  std::string nets_dir;
  std::string revision = "unknown";
  std::string out;
  std::string oracle_cache;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--checkd") a.checkd = value;
    else if (flag == "--socket") a.socket = value;
    else if (flag == "--nets-dir") a.nets_dir = value;
    else if (flag == "--revision") a.revision = value;
    else if (flag == "--out") a.out = value;
    else if (flag == "--oracle-cache") a.oracle_cache = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (a.workload.empty() || a.checkd.empty() || a.socket.empty() ||
      a.nets_dir.empty() || a.oracle_cache.empty() || a.seconds <= 0) {
    throw std::runtime_error(
        "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1 "
        "--checkd PATH --socket PATH --nets-dir DIR --oracle-cache DIR "
        "[--revision T] [--out FILE]");
  }
  return a;
}

/// Linear interpolation between order statistics (numpy's default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median time of each check over its runs.
std::vector<double> per_check_medians(const std::vector<CheckResult>& runs,
                                      std::size_t checks) {
  std::vector<std::vector<double>> times(checks);
  for (const CheckResult& r : runs) times[r.check].push_back(r.seconds);
  std::vector<double> medians;
  for (const std::vector<double>& t : times) medians.push_back(quantile(t, 0.5));
  return medians;
}

/// The first run of each check.
std::vector<CheckResult> first_per_check(const std::vector<CheckResult>& runs,
                                         std::size_t checks) {
  std::vector<CheckResult> first(checks);
  std::vector<bool> seen(checks, false);
  for (const CheckResult& r : runs) {
    if (!seen[r.check]) first[r.check] = r;
    seen[r.check] = true;
  }
  return first;
}

/// Ordered name -> (value, unit) list, rendered as the result's metrics.
struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;

  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    entries.push_back({std::move(name), value, std::move(unit)});
  }
  Value to_json() const {
    Value obj = Value::object();
    for (const Entry& e : entries) {
      Value m = Value::object();
      m.set("value", Value(e.value));
      m.set("unit", Value(e.unit));
      obj.set(e.name, std::move(m));
    }
    return obj;
  }
  void print(const char* title) const {
    std::printf("%s\n", title);
    for (const Entry& e : entries) {
      std::printf("  %-36s %16.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
    }
  }
};

struct Failure {
  std::size_t check;
  std::string what;
  bool known = false;
};

/// Checks results against the oracle, outside every timed region.
class Verifier {
 public:
  /// `checks` are the checks that ran; CheckResult::check indexes them.
  Verifier(const std::vector<Check>& checks, std::string oracle_cache)
      : checks_(checks), oracle_(std::move(oracle_cache)) {}

  /// One attempted check; `extra` is a further failure found by the
  /// caller (the traced-pipeline assertion), empty if none.
  void check(const CheckResult& r, const std::string& path,
             const std::string& extra = {}) {
    ++attempted_;
    const Check& c = checks_[r.check];
    if (!r.error.empty()) {
      failures_.push_back({r.check, path + ": " + r.error});
      return;
    }
    const std::vector<std::string> bad = compare(r.report, oracle_.reference(c));
    if (!extra.empty()) {
      failures_.push_back({r.check, path + ": " + extra});
      return;
    }
    if (bad.empty()) return;
    std::string fields;
    for (const std::string& f : bad) fields += (fields.empty() ? "" : ",") + f;
    const char* why = known_defect(c, bad);
    failures_.push_back(
        {r.check,
         path + ": disagrees with the oracle on " + fields +
             (why != nullptr ? std::string(" [known defect: ") + why + "]" : ""),
         why != nullptr});
  }

  /// Runs verified, and runs that failed other than by a known defect.
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const {
    return static_cast<std::size_t>(std::count_if(
        failures_.begin(), failures_.end(), [](const Failure& f) { return !f.known; }));
  }
  /// Share of the distinct checks that ran with a failing run, known
  /// defects included. Per check rather than per run, so the figure does
  /// not move with how often a check repeats.
  double fail_rate() const {
    std::vector<bool> failing(checks_.size(), false);
    for (const Failure& f : failures_) failing[f.check] = true;
    return static_cast<double>(std::count(failing.begin(), failing.end(), true)) /
           static_cast<double>(checks_.size());
  }
  const std::vector<Failure>& failures() const { return failures_; }

 private:
  const std::vector<Check>& checks_;
  Oracle oracle_;
  std::size_t attempted_ = 0;
  std::vector<Failure> failures_;
};

Value host_fingerprint(const Args& a) {
  Value host = Value::object();
  host.set("nproc", Value(static_cast<double>(std::thread::hardware_concurrency())));
  host.set("build_type", Value(PERFBENCH_BUILD_TYPE));
  host.set("compiler", Value(PERFBENCH_COMPILER));
  host.set("revision", Value(a.revision));
  host.set("seed", Value(static_cast<double>(a.seed)));
  return host;
}

/// `rows` are the traced checks of the workload's own configuration;
/// `pool_rows` the traced threads=4 checks, which feed only pool.*.
Metrics layer_metrics(const std::vector<LayerRow>& rows,
                      const std::vector<LayerRow>& pool_rows,
                      const std::vector<DaemonRequest>& requests,
                      double latency_s_p50, double overhead_s, double fail_rate) {
  const auto sum = [&rows](const std::string& name) {
    double s = 0;
    for (const LayerRow& r : rows) s += r.get(name);
    return s;
  };
  const auto max = [&rows](const std::string& name) {
    double m = 0;
    for (const LayerRow& r : rows) m = std::max(m, r.get(name));
    return m;
  };
  const auto rate = [&sum](const char* hits, const char* lookups) {
    const double l = sum(lookups);
    return l == 0 ? 0.0 : sum(hits) / l;
  };
  const auto pool_sum = [&](const char* name) {
    double s = sum(name);
    for (const LayerRow& r : pool_rows) s += r.get(name);
    return s;
  };
  Metrics m;
  for (const char* name : {"stg.parse_s", "encoding.build_s", "engine.build_s",
                           "traversal.s"}) {
    m.add(name, sum(name), "s");
  }
  m.add("encoding.bdd_vars", sum("encoding.bdd_vars"), "vars");
  m.add("engine.relation_nodes", sum("engine.relation_nodes"), "nodes");
  m.add("traversal.passes", sum("traversal.passes"), "count");
  m.add("traversal.images", sum("traversal.images"), "count");
  m.add("traversal.peak_reached_nodes", max("traversal.peak_reached_nodes"), "nodes");
  m.add("traversal.peak_intermediate_nodes", max("traversal.peak_intermediate_nodes"),
        "nodes");
  m.add("bdd.sift_s", sum("bdd.sift_s"), "s");
  m.add("bdd.sift_runs", sum("bdd.sift_runs"), "count");
  m.add("bdd.gc_s", sum("bdd.gc_s"), "s");
  m.add("bdd.gc_runs", sum("bdd.gc_runs"), "count");
  m.add("bdd.cache_hit_rate", rate("bdd.cache_hits", "bdd.cache_lookups"), "ratio");
  m.add("bdd.cache_hit_binary", rate("bdd.binary_hits", "bdd.binary_lookups"), "ratio");
  m.add("bdd.cache_hit_reach", rate("bdd.reach_hits", "bdd.reach_lookups"), "ratio");
  for (const char* op : kOpNames) {
    m.add(std::string("bdd.op_calls.") + op, sum(std::string("bdd.op_calls.") + op),
          "count");
  }
  for (const char* op : kOpNames) {
    m.add(std::string("bdd.op_s.") + op, sum(std::string("bdd.op_s.") + op), "s");
  }
  for (const char* name : {"checks.deadlock_s", "checks.persistency_s",
                           "checks.commutativity_s", "checks.csc_s"}) {
    m.add(name, sum(name), "s");
  }
  const double tasks = pool_sum("pool.tasks_run");
  m.add("pool.tasks_run", tasks, "count");
  m.add("pool.steal_rate", tasks == 0 ? 0.0 : pool_sum("pool.steals") / tasks, "ratio");
  m.add("pool.idle_spins", pool_sum("pool.idle_spins"), "count");
  std::vector<double> waits, services;
  for (const DaemonRequest& q : requests) {
    waits.push_back(q.started - q.accepted);
    services.push_back(q.finished - q.started);
  }
  m.add("server.queue_wait_s_p50", quantile(waits, 0.5), "s");
  m.add("server.queue_wait_s_p90", quantile(waits, 0.9), "s");
  m.add("server.service_s_p50", quantile(services, 0.5), "s");
  m.add("latency_s_p50", latency_s_p50, "s");
  m.add("trace.overhead_s", overhead_s, "s");
  m.add("fail_rate", fail_rate, "ratio");
  return m;
}

Value row_to_json(const Check& c, const LayerRow& r) {
  Value o = Value::object();
  o.set("check", Value(c.label()));
  o.set("verdict_s", Value(r.result.seconds));
  o.set("peak_live_nodes", Value(r.result.peak_live_nodes));
  for (const auto& [name, value] : r.values) o.set(name, Value(value));
  return o;
}

void print_layer_rows(const std::vector<Check>& checks, const std::vector<LayerRow>& rows,
                      const char* title) {
  static const std::pair<const char*, const char*> kColumns[] = {
      {"encoding.build_s", "encode"}, {"encoding.bdd_vars", "vars"},
      {"engine.build_s", "engine"}, {"engine.relation_nodes", "rel_nd"},
      {"traversal.s", "travers"}, {"traversal.passes", "pass"},
      {"traversal.images", "images"}, {"bdd.sift_s", "sift_s"}, {"bdd.gc_s", "gc_s"},
      {"checks.deadlock_s", "deadlk"}, {"checks.persistency_s", "persist"},
      {"checks.commutativity_s", "commut"}, {"checks.csc_s", "csc"}};
  std::printf("%s\n", title);
  std::printf("  %-24s %8s", "check", "verdict");
  for (const auto& [name, title] : kColumns) std::printf(" %8s", title);
  std::printf(" %9s\n", "peak_live");
  for (const LayerRow& r : rows) {
    std::printf("  %-24s %8.4f", checks[r.result.check].label().c_str(),
                r.result.seconds);
    for (const auto& [name, title] : kColumns) std::printf(" %8.4g", r.get(name));
    std::printf(" %9.0f\n", r.result.peak_live_nodes);
  }
}

int run(const Args& a) {
  const Value host = host_fingerprint(a);
  std::printf("perfbench %s  host %s\n", a.workload.c_str(), host.dump().c_str());

  // ---- Set-up: net generation and parsing, daemon start-up -------------
  // Timed many times over the run, not back to back: the host's speed
  // drifts over seconds, and a burst of set-ups of a few milliseconds sees
  // one moment of it. One-shot workloads set up again after each check's
  // first run; a daemon cannot start while the closed loop runs, so its
  // samples come in two bursts kSetupGap apart, before and after the loop.
  std::vector<double> setup_samples;
  std::unique_ptr<Daemon> daemon;
  const auto set_up = [&] {
    if (daemon != nullptr) daemon->stop();  // the previous sample's daemon
    Stopwatch clock;
    Workload fresh = make_workload(a.workload, a.seed, a.seconds, a.nets_dir);
    if (fresh.daemon) {
      daemon = std::make_unique<Daemon>(a.checkd, a.socket, kDaemonThreads);
    } else {
      // What a user's stg_check parses before it checks; each check
      // process parses its own copy again, outside its timer.
      parse_all(fresh.checks);
    }
    setup_samples.push_back(clock.seconds());
    return fresh;
  };
  const auto daemon_setup_burst = [&](std::size_t samples) {
    for (std::size_t i = 0; i < samples; ++i) {
      std::this_thread::sleep_for(kSetupGap);
      set_up();
    }
  };
  const Workload w = set_up();
  if (w.daemon) daemon_setup_burst(kDaemonSetupBurst - 1);

  // ---- Untraced measurement ---------------------------------------------
  Metrics e2e;
  std::vector<CheckResult> runs;  // one-shot: every run, in order
  std::vector<DaemonRequest> requests;
  std::vector<double> per_check_s;  // one-shot: per-net medians
  double verdict_s_total = 0, checks_per_s = 0, rss_mb = 0, peak_max = 0;
  std::vector<double> latencies;
  if (w.daemon) {
    double wall = 0;
    requests = run_closed_loop(a.socket, w, kDaemonClients, wall);
    rss_mb = daemon->stop();
    daemon.reset();
    for (const DaemonRequest& q : requests) {
      verdict_s_total += q.result.seconds;
      latencies.push_back(q.finished - q.submitted);
      peak_max = std::max(peak_max, q.result.peak_live_nodes);
    }
    checks_per_s = static_cast<double>(requests.size()) / wall;
  } else {
    for (std::size_t pass = 0; pass < w.passes; ++pass) {
      const std::vector<CheckResult> more = run_pass(w.checks, [&] { set_up(); });
      runs.insert(runs.end(), more.begin(), more.end());
    }
    per_check_s = per_check_medians(runs, w.checks.size());
    for (const CheckResult& r : runs) {
      peak_max = std::max(peak_max, r.peak_live_nodes);
      rss_mb = std::max(rss_mb, r.rss_mb);
    }
    for (double s : per_check_s) verdict_s_total += s;
    latencies = per_check_s;
    checks_per_s = static_cast<double>(w.checks.size()) / verdict_s_total;
  }
  if (w.daemon) {
    daemon_setup_burst(kDaemonSetupBurst);
    daemon.reset();  // the last sample's daemon
  }

  // ---- Traced run: the same checks split by layer -----------------------
  std::vector<LayerRow> rows;
  std::vector<LayerRow> pool_rows;  // w.pool_checks, indexed after w.checks
  std::vector<CheckResult> oneshot_baseline;  // daemon_mixed, traced runs only
  std::vector<CheckResult> untraced_ref;  // what each traced row must match
  double overhead_s = 0;
  if (a.trace) {
    double untraced_s = verdict_s_total;
    if (w.daemon) {
      // The daemon's distinct checks run one-shot once, untraced, as the
      // baseline for the traced pass.
      oneshot_baseline = run_pass(w.checks);
      untraced_s = 0;
      for (double s : per_check_medians(oneshot_baseline, w.checks.size())) {
        untraced_s += s;
      }
    }
    untraced_ref = first_per_check(w.daemon ? oneshot_baseline : runs, w.checks.size());
    rows = run_traced(w.checks);
    double traced_s = 0;
    for (const LayerRow& r : rows) traced_s += r.result.seconds;
    overhead_s = traced_s - untraced_s;
    pool_rows = run_traced(w.pool_checks);
    for (LayerRow& r : pool_rows) r.result.check += w.checks.size();
  }
  std::vector<Check> ran = w.checks;
  if (a.trace) ran.insert(ran.end(), w.pool_checks.begin(), w.pool_checks.end());

  // ---- Verification (outside every timed region) ------------------------
  Verifier verifier(ran, a.oracle_cache);
  const Stopwatch verify_clock;
  for (const CheckResult& r : runs) verifier.check(r, "one-shot");
  for (const DaemonRequest& q : requests) verifier.check(q.result, "daemon");
  for (const CheckResult& r : oneshot_baseline) verifier.check(r, "one-shot");
  for (const LayerRow& row : rows) {
    const CheckResult& ref = untraced_ref[row.result.check];
    std::string extra;
    if (row.result.error.empty() && ref.error.empty()) {
      if (!same_verdicts(row.result.report, ref.report)) {
        extra = "traced pipeline verdicts differ from CheckSession::run";
      } else if (row.result.peak_live_nodes != ref.peak_live_nodes) {
        extra = "traced pipeline peak_live_nodes " +
                std::to_string(row.result.peak_live_nodes) + " != CheckSession " +
                std::to_string(ref.peak_live_nodes);
      }
    }
    verifier.check(row.result, "traced", extra);
  }
  // No untraced run to match at threads=4, and its peaks race anyway: the
  // oracle alone judges these.
  for (const LayerRow& row : pool_rows) verifier.check(row.result, "traced");

  const double verify_s = verify_clock.seconds();
  const double fail_rate = verifier.fail_rate();
  e2e.add("setup_s", quantile(setup_samples, 0.5), "s");
  e2e.add("verdict_s_total", verdict_s_total, "s");
  e2e.add("peak_live_nodes_max", peak_max, "nodes");
  e2e.add("peak_rss_mb", rss_mb, "MB");
  e2e.add("pass_rate", 1 - fail_rate, "ratio");
  e2e.add("checks_per_s", checks_per_s, "1/s");
  e2e.add("latency_s_p90", quantile(latencies, 0.9), "s");
  const Metrics layers = layer_metrics(rows, pool_rows, requests,
                                       quantile(latencies, 0.5), overhead_s, fail_rate);

  // ---- Report ------------------------------------------------------------
  if (!w.daemon) {
    const std::vector<CheckResult> first = first_per_check(runs, w.checks.size());
    std::printf("per-check time to verdict: median over %zu pass%s and repeats\n",
                w.passes, w.passes == 1 ? "" : "es");
    for (std::size_t i = 0; i < w.checks.size(); ++i) {
      const auto n = std::count_if(runs.begin(), runs.end(),
                                   [i](const CheckResult& r) { return r.check == i; });
      std::printf("  %-24s %10.4f s  runs %2td  peak_live %9.0f\n",
                  w.checks[i].label().c_str(), per_check_s[i], n,
                  first[i].peak_live_nodes);
    }
  } else {
    std::printf("daemon closed loop: %zu requests, %zu clients, %zu session threads\n",
                requests.size(), kDaemonClients, kDaemonThreads);
  }
  std::printf("set-up: %zu samples, min %.6f s, median %.6f s, max %.6f s\n",
              setup_samples.size(), quantile(setup_samples, 0),
              quantile(setup_samples, 0.5), quantile(setup_samples, 1));
  if (a.trace) {
    print_layer_rows(ran, rows, "per-net layer split (traced pass, seconds)");
  }
  if (!pool_rows.empty()) {
    print_layer_rows(ran, pool_rows, "threads=4 traced pass, for pool.* (seconds)");
  }
  e2e.print("end-to-end");
  // Printed with the end-to-end set, reported with the per-layer one.
  std::printf("  %-36s %16.6g %s\n", "fail_rate", fail_rate, "ratio");
  std::printf("  %-36s %16.6g %s\n", "latency_s_p50", quantile(latencies, 0.5), "s");
  if (a.trace) layers.print("per-layer (traced run, summed over the corpus)");
  std::printf("runs verified %zu in %.1f s, failed %zu (known defects not counted)\n",
              verifier.attempted(), verify_s, verifier.failed());
  for (const Failure& f : verifier.failures()) {
    std::printf("  %s %s: %s\n", f.known ? "KNOWN " : "FAILED",
                ran[f.check].label().c_str(), f.what.c_str());
  }

  if (!a.out.empty()) {
    Value doc = Value::object();
    doc.set("host", host);
    doc.set("workload", Value(a.workload));
    doc.set("seconds", Value(a.seconds));
    doc.set("trace", Value(a.trace));
    doc.set("end_to_end", e2e.to_json());
    doc.set("per_layer", layers.to_json());
    Value checks = Value::array();
    for (const CheckResult& r : runs) {
      Value o = Value::object();
      o.set("check", Value(w.checks[r.check].label()));
      o.set("seconds", Value(r.seconds));
      o.set("peak_live_nodes", Value(r.peak_live_nodes));
      o.set("rss_mb", Value(r.rss_mb));
      checks.push_back(std::move(o));
    }
    for (const DaemonRequest& q : requests) {
      Value o = Value::object();
      o.set("check", Value(w.checks[q.result.check].label()));
      o.set("latency_s", Value(q.finished - q.submitted));
      o.set("queue_wait_s", Value(q.started - q.accepted));
      o.set("service_s", Value(q.finished - q.started));
      o.set("peak_live_nodes", Value(q.result.peak_live_nodes));
      checks.push_back(std::move(o));
    }
    doc.set("checks", std::move(checks));
    Value layer_rows = Value::array();
    for (const std::vector<LayerRow>* part : {&rows, &pool_rows}) {
      for (const LayerRow& r : *part) {
        layer_rows.push_back(row_to_json(ran[r.result.check], r));
      }
    }
    doc.set("layers", std::move(layer_rows));
    Value failures = Value::array();
    for (const Failure& f : verifier.failures()) {
      Value o = Value::object();
      o.set("check", Value(ran[f.check].label()));
      o.set("what", Value(f.what));
      o.set("known", Value(f.known));
      failures.push_back(std::move(o));
    }
    doc.set("failures", std::move(failures));
    std::ofstream(a.out) << doc.dump() << "\n";
  }

  Value result = Value::object();
  result.set("correct", Value(verifier.failed() == 0));
  result.set("attempted", Value(verifier.attempted()));
  result.set("failed", Value(verifier.failed()));
  result.set("metrics", a.trace ? layers.to_json() : e2e.to_json());
  std::printf("%s\n", result.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == perfbench::kCheckProcessFlag) {
    return perfbench::check_process_main();
  }
  // A check process or the daemon that dies mid-write must not kill the
  // driver; the failed write is reported instead.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
