// Resource governance: budgets and cooperative cancellation, kernel to
// session. The contract under test (docs/architecture.md): a tripped
// limit unwinds between kernel operations via CancelledError, leaves the
// manager invariant-clean and reusable, freezes its gauges in the trip,
// and surfaces as a typed event record plus a governed SessionOutcome --
// never as a crash or a failed session. Unit label, so TSan covers the
// concurrent-cancel tests in CI.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "bdd/bdd.hpp"
#include "core/session.hpp"
#include "server/protocol.hpp"
#include "stg/generators.hpp"
#include "util/budget.hpp"
#include "util/json.hpp"

#include "example_nets.hpp"

namespace stgcheck::core {
namespace {

using bdd::Bdd;
using bdd::Manager;

// ---- Kernel level --------------------------------------------------------

TEST(Budget, UnlimitedByDefault) {
  ResourceBudget budget;
  EXPECT_TRUE(budget.unlimited());
  budget.max_steps = 1;
  EXPECT_FALSE(budget.unlimited());
}

TEST(Budget, LimitKindNamesRoundTrip) {
  for (const LimitKind kind : {LimitKind::kCancelled, LimitKind::kNodeCap,
                               LimitKind::kDeadline, LimitKind::kStepCap}) {
    const auto parsed = parse_limit_kind(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(parse_limit_kind("never-heard-of-it").has_value());
}

TEST(Budget, CancelTokenTripsNextOperation) {
  Manager m;
  const Bdd a = m.new_var("a");
  const Bdd b = m.new_var("b");

  ResourceBudget budget;
  budget.token = std::make_shared<CancelToken>();
  m.set_budget(budget);
  EXPECT_EQ((a & b), m.ite(a, b, m.bdd_false()));  // armed but not cancelled

  budget.token->cancel();
  try {
    const Bdd unused = a | b;
    (void)unused;
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.trip().kind, LimitKind::kCancelled);
  }

  // The unwind left the manager consistent and reusable.
  EXPECT_NO_THROW(m.check_invariants());
  m.clear_budget();
  EXPECT_EQ((a | b), !(!a & !b));
  EXPECT_NO_THROW(m.check_invariants());
}

TEST(Budget, NodeCapCarriesGaugesAndLeavesManagerClean) {
  Manager m;
  std::vector<Bdd> vars;
  for (int i = 0; i < 24; ++i) vars.push_back(m.new_var());

  ResourceBudget budget;
  budget.max_live_nodes = 8;  // far below what the conjunctions need
  m.set_budget(budget);

  Bdd f = m.bdd_true();
  try {
    for (std::size_t i = 0; i + 1 < vars.size(); i += 2) {
      f &= (vars[i] ^ vars[i + 1]);
    }
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.trip().kind, LimitKind::kNodeCap);
    EXPECT_GT(e.trip().live_nodes, 8u);
    EXPECT_GE(e.trip().elapsed_seconds, 0.0);
  }
  EXPECT_NO_THROW(m.check_invariants());

  // Disarmed by the trip: the same operations now run to completion.
  Bdd g = m.bdd_true();
  for (std::size_t i = 0; i + 1 < vars.size(); i += 2) {
    g &= (vars[i] ^ vars[i + 1]);
  }
  EXPECT_FALSE(g.is_false());
  EXPECT_NO_THROW(m.check_invariants());
}

// ---- Session level -------------------------------------------------------

/// The comparable part of a report: everything except wall-clock times.
std::string fingerprint(const CheckSession& session) {
  json::Value stripped = json::Value::object();
  const json::Value report =
      server::report_to_json(session.stg(), session.report());
  for (const auto& [key, value] : report.as_object()) {
    if (key != "times") stripped.set(key, value);
  }
  return stripped.dump();
}

TEST(Budget, StepCapStopsSessionWithTypedEventAndCleanManager) {
  CheckConfig options;
  options.limits.max_steps = 1;  // muller_pipeline(5) needs many passes
  CheckSession session(stg::muller_pipeline(5), options);
  EXPECT_NO_THROW(session.run());  // a governed stop, not a failure

  EXPECT_EQ(session.outcome(), SessionOutcome::kResourceExhausted);
  ASSERT_TRUE(session.trip().has_value());
  EXPECT_EQ(session.trip()->kind, LimitKind::kStepCap);
  EXPECT_GT(session.trip()->steps, 1u);

  // The typed record carries the same gauges the trip froze.
  const EventRecord* record = nullptr;
  for (const EventRecord& r : session.events().records()) {
    if (r.kind == EventKind::kResourceExhausted) record = &r;
    EXPECT_NE(r.kind, EventKind::kError);  // governed, not failed
  }
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->label, "step_cap");
  bool saw_steps = false;
  for (const auto& [name, value] : record->metrics) {
    if (name == "steps") {
      saw_steps = true;
      EXPECT_EQ(value, static_cast<double>(session.trip()->steps));
    }
  }
  EXPECT_TRUE(saw_steps);

  ASSERT_NE(session.encoding(), nullptr);
  EXPECT_NO_THROW(session.encoding()->manager().check_invariants());
}

TEST(Budget, NodeCapStopsSessionOnLargerNet) {
  CheckConfig options;
  options.limits.max_live_nodes = 64;  // encoding alone far exceeds this
  CheckSession session(stg::master_read(4), options);
  EXPECT_NO_THROW(session.run());

  EXPECT_EQ(session.outcome(), SessionOutcome::kResourceExhausted);
  ASSERT_TRUE(session.trip().has_value());
  EXPECT_EQ(session.trip()->kind, LimitKind::kNodeCap);
  EXPECT_GT(session.trip()->live_nodes, 64u);
  EXPECT_NO_THROW(session.encoding()->manager().check_invariants());
}

TEST(Budget, DeadlineStopsSession) {
  CheckConfig options;
  options.limits.max_seconds = 1e-9;  // expired by the first safe point
  CheckSession session(stg::master_read(2), options);
  EXPECT_NO_THROW(session.run());

  EXPECT_EQ(session.outcome(), SessionOutcome::kResourceExhausted);
  ASSERT_TRUE(session.trip().has_value());
  EXPECT_EQ(session.trip()->kind, LimitKind::kDeadline);
}

TEST(Budget, PreCancelledTokenYieldsCancelledOutcome) {
  CheckConfig options;
  options.limits.token = std::make_shared<CancelToken>();
  options.limits.token->cancel();
  CheckSession session(stg::muller_pipeline(2), options);
  EXPECT_NO_THROW(session.run());

  EXPECT_EQ(session.outcome(), SessionOutcome::kCancelled);
  ASSERT_TRUE(session.trip().has_value());
  EXPECT_EQ(session.trip()->kind, LimitKind::kCancelled);
  bool saw_cancelled = false;
  for (const EventRecord& r : session.events().records()) {
    if (r.kind == EventKind::kCancelled) saw_cancelled = true;
  }
  EXPECT_TRUE(saw_cancelled);
}

TEST(Budget, GenerousLimitsAreBitIdenticalToNoLimits) {
  // Arming a budget must not perturb the computation: a never-tripping
  // budget produces the same report, field for field, as no budget.
  for (const int net : {0, 2, 4, 16}) {
    CheckSession unlimited(testutil::example_net(net));
    unlimited.run();

    CheckConfig governed;
    governed.limits.max_live_nodes = 1u << 30;
    governed.limits.max_seconds = 3600.0;
    governed.limits.max_steps = 1u << 30;
    governed.limits.token = std::make_shared<CancelToken>();
    CheckSession with_budget(testutil::example_net(net), governed);
    with_budget.run();

    EXPECT_EQ(with_budget.outcome(), SessionOutcome::kCompleted);
    EXPECT_EQ(fingerprint(unlimited), fingerprint(with_budget))
        << "budget perturbed the report on net " << net;
  }
}

// ---- Concurrent cancellation (TSan-covered) ------------------------------

TEST(Budget, ConcurrentCancelRacingRunningSessionsIsClean) {
  // One cancel thread flips every token while the sessions run. Whichever
  // side wins each race, nothing crashes, every manager stays consistent,
  // and a cancelled session reports the governed outcome.
  constexpr int kSessions = 4;
  std::vector<std::unique_ptr<CheckSession>> sessions;
  std::vector<std::shared_ptr<CancelToken>> tokens;
  for (int i = 0; i < kSessions; ++i) {
    CheckConfig options;
    options.limits.token = std::make_shared<CancelToken>();
    tokens.push_back(options.limits.token);
    sessions.push_back(std::make_unique<CheckSession>(
        stg::muller_pipeline(5), std::move(options)));
  }

  std::vector<std::thread> runners;
  runners.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    runners.emplace_back([&, i] { sessions[size_t(i)]->run(); });
  }
  std::thread canceller([&] {
    for (const auto& token : tokens) token->cancel();
  });
  for (std::thread& t : runners) t.join();
  canceller.join();

  for (const auto& session : sessions) {
    EXPECT_TRUE(session->outcome() == SessionOutcome::kCancelled ||
                session->outcome() == SessionOutcome::kCompleted);
    if (session->outcome() == SessionOutcome::kCancelled) {
      ASSERT_TRUE(session->trip().has_value());
      EXPECT_EQ(session->trip()->kind, LimitKind::kCancelled);
    }
    ASSERT_NE(session->encoding(), nullptr);
    EXPECT_NO_THROW(session->encoding()->manager().check_invariants());
  }
}

}  // namespace
}  // namespace stgcheck::core
