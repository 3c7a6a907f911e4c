#include "oneshot.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fcntl.h>
#include <map>
#include <memory>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/checks.hpp"
#include "core/implementability.hpp"
#include "core/session.hpp"
#include "petri/structural.hpp"
#include "server/protocol.hpp"
#include "stg/astg_io.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

namespace core = stgcheck::core;
namespace bdd = stgcheck::bdd;
namespace stg = stgcheck::stg;
using stgcheck::Stopwatch;
using stgcheck::TraceRecorder;
using stgcheck::json::Value;

constexpr bdd::OpKind kOps[] = {bdd::OpKind::kAnd,   bdd::OpKind::kCofactor,
                                bdd::OpKind::kExists, bdd::OpKind::kReach,
                                bdd::OpKind::kRelNext, bdd::OpKind::kPermute};

/// Appends everything readable from `fd` until end of file to `out`.
void read_all(int fd, std::string& out) {
  char buf[1 << 16];
  for (ssize_t n; (n = ::read(fd, buf, sizeof(buf))) != 0;) {
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
}

Value error_json(const std::string& what) {
  Value o = Value::object();
  o.set("error", Value(what));
  return o;
}

Value result_to_json(const CheckResult& r) {
  Value o = Value::object();
  o.set("seconds", Value(r.seconds));
  o.set("peak_live_nodes", Value(r.peak_live_nodes));
  o.set("report", r.report);
  o.set("error", Value(r.error));
  return o;
}

/// A child's result object as a CheckResult; a bare {"error"} object (the
/// child failed outright) becomes CheckResult::error.
CheckResult result_from_json(std::size_t index, const Value& o, double rss_mb) {
  CheckResult r;
  r.check = index;
  r.rss_mb = rss_mb;
  r.error = o.at("error").as_string();
  if (o.find("seconds") != nullptr) {
    r.seconds = o.at("seconds").as_number();
    r.peak_live_nodes = o.at("peak_live_nodes").as_number();
    r.report = o.at("report");
  }
  return r;
}

/// Runs one check in a fresh process: this driver executed again in check
/// mode (check_process_main), with `request` on its stdin. Returns the JSON
/// the process printed and sets `rss_mb` to its peak RSS. A process that
/// throws, crashes or prints garbage yields {"error": ...}.
///
/// A fresh image gives every run its own address layout and an unused
/// heap, as stg_check has. A forked copy of the driver would share the
/// driver's layout, so every run of one driver would share one layout, and
/// would inherit the driver's heap copy-on-write.
Value in_process(const Value& request, double& rss_mb) {
  int to_child[2], from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0) return error_json("pipe failed");
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return error_json("pipe failed");
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::execl("/proc/self/exe", "perfbench_driver", kCheckProcessFlag,
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  if (pid > 0) {
    const std::string in = request.dump();
    for (std::size_t off = 0; off < in.size();) {
      const ssize_t n = ::write(to_child[1], in.data() + off, in.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // the process died; its status says why
      off += static_cast<std::size_t>(n);
    }
  }
  ::close(to_child[1]);
  std::string text;
  if (pid > 0) read_all(from_child[0], text);
  ::close(from_child[0]);
  if (pid < 0) return error_json("fork failed");
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return error_json("check process ended with status " + std::to_string(status));
  }
  try {
    return Value::parse(text);
  } catch (const std::exception& e) {
    return error_json(std::string("bad check process output: ") + e.what());
  }
}

/// The request check_process_main reads.
Value check_request(const Check& check, bool traced) {
  Value o = Value::object();
  o.set("net", Value(check.text));
  o.set("config", check.config.to_json());
  o.set("traced", Value(traced));
  return o;
}

CheckResult run_session(const Check& check, stg::Stg net) {
  CheckResult r;
  try {
    Stopwatch clock;
    core::CheckSession session(std::move(net), check.config);
    const core::ImplementabilityReport& report = session.run();
    r.seconds = clock.seconds();
    r.peak_live_nodes =
        static_cast<double>(session.encoding()->manager().peak_live_nodes());
    if (session.outcome() == core::SessionOutcome::kCompleted) {
      r.report = stgcheck::server::report_to_json(session.stg(), report);
    } else {
      r.error = core::to_string(session.outcome());
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// check_implementability (core/implementability.cpp) after CheckSession's
/// encoding set-up, one public layer call per span. Runs in a check
/// process.
LayerRow traced_check(const Check& check) {
  LayerRow row;
  const core::CheckOptions& options = check.config.check;
  TraceRecorder rec;
  // The layer spans are contiguous: each one closes where the next opens,
  // so a span's duration is its layer's time.
  std::map<std::string, double> span_s;
  double t = rec.now();
  const auto close_span = [&](const char* name) {
    const double now = rec.now();
    rec.complete(name, "perfbench", t, now);
    span_s[name] = now - t;
    t = now;
  };

  const stg::Stg net = stg::parse_astg_string(check.text);
  close_span("stg.parse");
  const double verdict_start = t;

  auto sym = std::make_shared<core::SymbolicStg>(
      net, options.ordering, check.config.initial_nodes,
      options.engine != core::EngineKind::kCofactor);
  bdd::Manager& manager = sym->manager();
  manager.set_profiling(true);
  manager.reset_peak_stats();
  close_span("encoding.build");

  core::ImplementabilityReport report;
  report.encoding = sym;
  const std::unique_ptr<core::ImageEngine> engine =
      core::make_engine(options.engine, *sym, options.engine_options);
  close_span("engine.build");

  core::TraversalOptions topts;
  topts.strategy = options.strategy;
  topts.engine = options.engine;
  topts.engine_options = options.engine_options;
  report.traversal = core::traverse(*engine, topts);
  report.safe = report.traversal.safe;
  report.consistent = report.traversal.consistent;
  close_span("traversal");

  if (report.traversal.ok()) {
    const bdd::Bdd& reached = report.traversal.reached;
    report.deadlock_states_count =
        sym->count_states(core::deadlock_states(*sym, reached));
    report.deadlock_free = report.deadlock_states_count == 0;
    close_span("checks.deadlock");

    if (!(options.exploit_marked_graphs &&
          stgcheck::pn::conflict_places(net.net()).empty())) {
      // The benchmark corpus declares no arbitration pairs.
      report.persistency_violations = core::signal_persistency(*engine, reached);
      report.transition_conflicts = core::transition_persistency(*engine, reached);
    }
    report.signal_persistent = report.persistency_violations.empty();
    close_span("checks.persistency");

    report.deterministic = core::determinism_violations(*sym, reached).is_false();
    report.fake_freedom = core::check_fake_freedom(*engine, reached);
    report.fake_free = report.fake_freedom.fake_free;
    close_span("checks.commutativity");

    report.csc_result = core::check_csc(*sym, reached);
    report.usc = report.csc_result.unique_state_coding;
    report.csc = report.csc_result.complete_state_coding;
    if (report.csc) {
      report.csc_reducible = true;
    } else {
      report.reducibility = core::check_csc_reducibility(*engine, reached);
      report.csc_reducible = report.reducibility.reducible;
    }
    close_span("checks.csc");

    const bool core_ok = report.safe && report.consistent &&
                         report.signal_persistent && report.deterministic &&
                         report.fake_free;
    if (core_ok && report.csc) {
      report.level = core::ImplementabilityLevel::kGateImplementable;
    } else if (core_ok && report.csc_reducible) {
      report.level = core::ImplementabilityLevel::kIoImplementable;
    } else if (report.signal_persistent) {
      report.level = core::ImplementabilityLevel::kSiImplementable;
    } else {
      report.level = core::ImplementabilityLevel::kNotImplementable;
    }
  }
  row.result.seconds = t - verdict_start;

  row.result.peak_live_nodes = static_cast<double>(manager.peak_live_nodes());
  row.result.report = stgcheck::server::report_to_json(net, report);

  const auto add = [&row](std::string name, double value) {
    row.values.emplace_back(std::move(name), value);
  };
  const auto count = [&add](std::string name, std::size_t value) {
    add(std::move(name), static_cast<double>(value));
  };
  const core::TraversalStats& ts = report.traversal.stats;
  const core::ImageEngineStats& es = engine->stats();
  add("stg.parse_s", span_s["stg.parse"]);
  add("encoding.build_s", span_s["encoding.build"]);
  count("encoding.bdd_vars", manager.var_count());
  add("engine.build_s", span_s["engine.build"]);
  count("engine.relation_nodes", es.relation_nodes);
  add("traversal.s", span_s["traversal"]);
  count("traversal.passes", ts.passes);
  count("traversal.images", ts.image_computations);
  count("traversal.peak_reached_nodes", ts.peak_reached_nodes);
  count("traversal.peak_intermediate_nodes", es.peak_intermediate_nodes);
  add("checks.deadlock_s", span_s["checks.deadlock"]);
  add("checks.persistency_s", span_s["checks.persistency"]);
  add("checks.commutativity_s", span_s["checks.commutativity"]);
  add("checks.csc_s", span_s["checks.csc"]);

  const bdd::ManagerProfile prof = manager.profile();
  add("bdd.sift_s", prof.sift_seconds);
  count("bdd.sift_runs", prof.sift_runs);
  add("bdd.gc_s", prof.gc_seconds);
  count("bdd.gc_runs", prof.gc_runs);
  const bdd::ManagerStats stats = manager.stats();
  count("bdd.cache_hits", stats.cache_hits);
  count("bdd.cache_lookups", stats.cache_lookups);
  count("bdd.binary_hits", stats.binary_cache_hits);
  count("bdd.binary_lookups", stats.binary_cache_lookups);
  count("bdd.reach_hits", stats.reach_cache_hits);
  count("bdd.reach_lookups", stats.reach_cache_lookups);
  for (std::size_t k = 0; k < std::size(kOps); ++k) {
    count(std::string("bdd.op_calls.") + kOpNames[k], prof.op(kOps[k]).calls);
  }
  for (std::size_t k = 0; k < std::size(kOps); ++k) {
    add(std::string("bdd.op_s.") + kOpNames[k], prof.op(kOps[k]).seconds);
  }
  const stgcheck::PoolTelemetry pool = manager.pool_telemetry();
  count("pool.tasks_run", pool.total.tasks_run);
  count("pool.steals", pool.total.steals_succeeded);
  count("pool.idle_spins", pool.total.idle_spins);
  return row;
}

}  // namespace

double LayerRow::get(const std::string& name) const {
  for (const auto& [n, v] : values) {
    if (n == name) return v;
  }
  return 0;
}

std::vector<stg::Stg> parse_all(const std::vector<Check>& checks) {
  std::vector<stg::Stg> parsed;
  parsed.reserve(checks.size());
  for (const Check& c : checks) parsed.push_back(stg::parse_astg_string(c.text));
  return parsed;
}

std::vector<CheckResult> run_pass(const std::vector<Check>& checks,
                                  const std::function<void()>& between) {
  std::vector<CheckResult> runs;
  std::vector<std::size_t> count(checks.size(), 0);
  std::vector<double> used(checks.size(), 0);
  const auto run = [&](std::size_t i) {
    Stopwatch clock;
    double rss_mb = 0;
    const Value out = in_process(check_request(checks[i], false), rss_mb);
    runs.push_back(result_from_json(i, out, rss_mb));
    used[i] += clock.seconds();
    ++count[i];
  };
  const auto repeat_short = [&](std::size_t end) {
    bool ran = false;
    for (std::size_t j = 0; j < end; ++j) {
      if (count[j] < kMaxRepeats && used[j] < kMinCheckSeconds) {
        run(j);
        ran = true;
      }
    }
    return ran;
  };
  // Each check's first run, in corpus order, followed by one more run of
  // every earlier check still short of samples: a short check's repeats
  // are spread over the pass rather than run back to back, in one moment
  // of the host's drifting speed.
  for (std::size_t i = 0; i < checks.size(); ++i) {
    run(i);
    if (between) between();
    repeat_short(i);
  }
  while (repeat_short(checks.size())) {
  }
  return runs;
}

std::vector<LayerRow> run_traced(const std::vector<Check>& checks) {
  std::vector<LayerRow> rows;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    double rss_mb = 0;
    const Value out = in_process(check_request(checks[i], true), rss_mb);
    LayerRow row;
    row.result = result_from_json(i, out, rss_mb);
    if (const Value* values = out.find("values")) {
      for (const auto& [name, value] : values->as_object()) {
        row.values.emplace_back(name, value.as_number());
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

int check_process_main() {
  Value out;
  try {
    std::string text;
    read_all(STDIN_FILENO, text);
    const Value request = Value::parse(text);
    Check check;
    check.text = request.at("net").as_string();
    check.config = core::CheckConfig::from_json(request.at("config"));
    if (request.at("traced").as_bool()) {
      const LayerRow row = traced_check(check);
      Value values = Value::object();
      for (const auto& [name, value] : row.values) values.set(name, Value(value));
      out = result_to_json(row.result);
      out.set("values", std::move(values));
    } else {
      // Parsing is set-up work: it stays outside the timed session.
      out = result_to_json(run_session(check, stg::parse_astg_string(check.text)));
    }
  } catch (const std::exception& e) {
    out = error_json(e.what());
  }
  const std::string line = out.dump();
  return std::fwrite(line.data(), 1, line.size(), stdout) == line.size() &&
                 std::fflush(stdout) == 0
             ? 0
             : 1;
}

bool same_verdicts(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return false;
  const auto field = [](const Value& v, const char* obj, const char* key) {
    const Value* o = v.find(obj);
    const Value* f = o != nullptr ? o->find(key) : nullptr;
    return f != nullptr ? f->dump() : std::string("missing");
  };
  return a.at("level").dump() == b.at("level").dump() &&
         a.at("verdicts").dump() == b.at("verdicts").dump() &&
         field(a, "traversal", "states") == field(b, "traversal", "states") &&
         field(a, "traversal", "markings") == field(b, "traversal", "markings") &&
         field(a, "traversal", "passes") == field(b, "traversal", "passes");
}

}  // namespace perfbench
