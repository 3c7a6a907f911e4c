#include "core/traversal.hpp"

#include <algorithm>

#include "util/strings.hpp"
#include "util/trace.hpp"

namespace stgcheck::core {

using bdd::Bdd;

const char* to_string(TraversalStrategy strategy) {
  switch (strategy) {
    case TraversalStrategy::kChaining: return "chaining";
    case TraversalStrategy::kFrontierBfs: return "bfs";
    case TraversalStrategy::kFullFixpoint: return "fixpoint";
  }
  return "?";
}

std::optional<TraversalStrategy> parse_traversal_strategy(
    std::string_view name) {
  for (const TraversalStrategy s :
       {TraversalStrategy::kChaining, TraversalStrategy::kFrontierBfs,
        TraversalStrategy::kFullFixpoint}) {
    if (names_equal_dashed(name, to_string(s))) return s;
  }
  return std::nullopt;
}

std::string valid_traversal_strategy_names() {
  return "chaining, bfs, fixpoint";
}

namespace {

/// Tracks lazy binding of unknown initial signal values (Sec. 5.1).
class LazyBinder {
 public:
  LazyBinder(SymbolicStg& sym) : sym_(sym) {
    const stg::Stg& stg = sym.stg();
    bound_.assign(stg.signal_count(), false);
    for (stg::SignalId s = 0; s < stg.signal_count(); ++s) {
      if (stg.initial_value(s).has_value()) bound_[s] = true;
    }
  }

  /// If the signal of `t` is still unknown and `t` is enabled somewhere in
  /// `fire_base`, binds the implied value (a+ enabled implies a has been 0
  /// since the start) in every given set. Returns true if a binding
  /// happened. Cheap when nothing is unbound.
  bool maybe_bind(pn::TransitionId t, const Bdd& fire_base,
                  std::initializer_list<Bdd*> sets) {
    if (all_bound_) return false;
    const stg::TransitionLabel& label = sym_.stg().label(t);
    if (label.is_dummy() || bound_[label.signal]) return false;
    if (fire_base.disjoint_with(sym_.enabling_cube(t))) return false;
    bound_[label.signal] = true;
    all_bound_ = std::all_of(bound_.begin(), bound_.end(),
                             [](bool b) { return b; });
    const Bdd literal = label.dir == stg::Dir::kPlus
                            ? !sym_.signal(label.signal)
                            : sym_.signal(label.signal);
    for (Bdd* set : sets) *set &= literal;
    return true;
  }

  std::vector<stg::SignalId> unbound() const {
    std::vector<stg::SignalId> result;
    for (stg::SignalId s = 0; s < bound_.size(); ++s) {
      if (!bound_[s]) result.push_back(s);
    }
    return result;
  }

 private:
  SymbolicStg& sym_;
  std::vector<bool> bound_;
  bool all_bound_ = false;
};

/// Appends consistency violations found in `states` to the result.
void check_consistency_on(SymbolicStg& sym, const Bdd& states,
                          TraversalResult& result) {
  const stg::Stg& stg = sym.stg();
  for (stg::SignalId s = 0; s < stg.signal_count(); ++s) {
    const Bdd sig = sym.signal(s);
    // Inconsistent(a+) = E(a+) & a, Inconsistent(a-) = E(a-) & a'.
    const Bdd bad_rise = sym.enabled_signal(s, stg::Dir::kPlus) & sig & states;
    const Bdd bad_fall = sym.enabled_signal(s, stg::Dir::kMinus) & !sig & states;
    if (!bad_rise.is_false()) {
      result.consistent = false;
      result.consistency_violations.push_back(
          stg.signal_name(s) + "+ enabled while " + stg.signal_name(s) + " = 1");
    }
    if (!bad_fall.is_false()) {
      result.consistent = false;
      result.consistency_violations.push_back(
          stg.signal_name(s) + "- enabled while " + stg.signal_name(s) + " = 0");
    }
  }
}

}  // namespace

TraversalResult traverse(ImageEngine& engine, const TraversalOptions& options) {
  Stopwatch watch;
  SymbolicStg& sym = engine.sym();
  sym.manager().set_thread_count(options.engine_options.threads);
  const pn::PetriNet& net = sym.stg().net();
  TraversalResult result;
  LazyBinder binder(sym);

  Bdd reached = sym.initial_state();
  Bdd from = reached;

  // Bind signals enabled in the very first state before anything fires.
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    binder.maybe_bind(t, from, {&reached, &from});
  }
  check_consistency_on(sym, reached, result);

  const auto track_peak = [&](const Bdd& r) {
    const std::size_t nodes = sym.manager().count_nodes(r);
    result.stats.peak_reached_nodes =
        std::max(result.stats.peak_reached_nodes, nodes);
    return nodes;
  };
  track_peak(reached);

  // Primed encodings reorder safely: their twin pairs are registered as
  // manager groups, so sifting keeps each v' directly below its v and the
  // relational renames stay valid -- for this engine and for any other
  // engine sharing the encoding after we return.
  AutoSiftPolicy sift_policy(options.auto_sift_threshold);

  // Between-pass maintenance (never inside a pass: the cubes and literal
  // handles stay valid, only levels move). The raw live count includes
  // garbage held alive by dead parents, so collect first and only sift
  // when the *true* working set doubled since the last watermark reset
  // (CUDD's policy, AutoSiftPolicy). The GC and the watermark run on the
  // same schedule whether or not sifting is enabled, so sift-on vs
  // sift-off comparisons isolate what the reordering itself buys.
  const auto maintain = [&]() {
    if (sift_policy.should_sift(sym.manager().live_nodes())) {
      sym.manager().collect_garbage();
      const std::size_t live = sym.manager().live_nodes();
      if (sift_policy.should_sift(live)) {
        if (options.auto_sift) {
          Stopwatch sift_watch;
          const std::size_t after = sym.manager().sift();
          if (options.events != nullptr) {
            options.events->reorder(live, after, sift_watch.seconds());
          }
        }
        sift_policy.reset_watermark(sym.manager().live_nodes());
      }
    }
  };

  bool stop = false;

  // The saturation path: the engine computes the whole least fixpoint in
  // one in-kernel operation, so there is no pass/unit loop to interleave
  // the on-the-fly checks with. That is only sound when no lazy binding
  // remains: binding infers a signal's initial value from the *first*
  // enabling of one of its transitions, a temporal fact the closed set
  // has erased (both directions of the signal may be enabled somewhere in
  // the closure, and picking either from the closure could contradict the
  // value every step-wise engine binds during exploration). Signals with
  // declared initial values -- every bench family and example net -- and
  // signals enabled in the very first state are already bound by the
  // preamble above; anything still unbound routes to the step-wise loop
  // below, which runs correctly on this engine's per-cluster units. The
  // consistency/safeness checks run once on the final closed set, which
  // contains every state the step-wise engines would have checked.
  if (engine.computes_global_fixpoint() && binder.unbound().empty()) {
    ++result.stats.passes;
    sym.manager().count_budget_step();
    {
      TraceSpan closure(options.trace, "reach_fixpoint", "engine");
      reached = engine.reach_fixpoint(reached);
    }
    ++result.stats.image_computations;
    const std::size_t reached_nodes = track_peak(reached);
    maintain();
    if (options.events != nullptr) {
      // The closure has no frontier: the whole fixpoint arrived in one
      // operation.
      options.events->pass(result.stats.passes, result.stats.image_computations,
                           sym.manager().live_nodes(),
                           sym.manager().peak_live_nodes(), reached_nodes,
                           /*frontier_nodes=*/0);
    }
    check_consistency_on(sym, reached, result);
    for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
      if (!engine.unsafe_states(reached, t).is_false()) {
        result.safe = false;
        result.safeness_detail =
            "firing " + sym.stg().format_label(t) +
            " deposits a second token on a successor place";
        break;
      }
    }
    // Match the step-wise engines' verdict: a violation under
    // abort_on_violation reports the traversal as incomplete.
    if (options.abort_on_violation && (!result.consistent || !result.safe)) {
      stop = true;
    }
  } else {
    while (!stop) {
      ++result.stats.passes;
      TraceSpan pass_span(options.trace, "pass", "traversal");
      pass_span.arg("pass", static_cast<double>(result.stats.passes));
      // Pass boundary: the coarsest budget safe point (one pass = one
      // budget step). Finer trips land on the kernel wrapper entries.
      sym.manager().count_budget_step();

      Bdd pass_new = sym.manager().bdd_false();
      Bdd fire_base = options.strategy == TraversalStrategy::kFullFixpoint
                          ? reached
                          : from;

      for (std::size_t u = 0; u < engine.unit_count() && !stop; ++u) {
        for (pn::TransitionId t : engine.unit_transitions(u)) {
          // Lazy initial-value binding: the first enabling of a signal pins
          // its value in everything collected so far.
          binder.maybe_bind(t, fire_base, {&reached, &from, &fire_base, &pass_new});

          // Every backend silently excludes unsafe firings from its image;
          // detect and report them here (uniformly, from the cubes).
          const Bdd unsafe = engine.unsafe_states(fire_base, t);
          if (!unsafe.is_false()) {
            result.safe = false;
            result.safeness_detail =
                "firing " + sym.stg().format_label(t) +
                " deposits a second token on a successor place";
            if (options.abort_on_violation) {
              stop = true;
              break;
            }
          }
        }
        if (stop) break;

        Bdd to = sym.manager().bdd_false();
        {
          TraceSpan image(options.trace, "image_unit", "engine");
          image.arg("unit", static_cast<double>(u));
          to = engine.image_unit(fire_base, u);
        }
        ++result.stats.image_computations;
        const Bdd fresh = to.minus(reached);
        if (fresh.is_false()) continue;
        reached |= fresh;
        pass_new |= fresh;
        if (options.strategy == TraversalStrategy::kChaining) {
          // Later units in this pass fire from the enriched set ("chaining";
          // with the relational backend this is disjunctive chaining over
          // clusters).
          fire_base |= fresh;
        }
      }

      if (!pass_new.is_false()) {
        const std::size_t before = result.consistency_violations.size();
        check_consistency_on(sym, pass_new, result);
        if (options.abort_on_violation &&
            result.consistency_violations.size() > before) {
          stop = true;
        }
      }

      const std::size_t reached_nodes = track_peak(reached);
      maintain();
      if (options.events != nullptr) {
        options.events->pass(result.stats.passes,
                             result.stats.image_computations,
                             sym.manager().live_nodes(),
                             sym.manager().peak_live_nodes(), reached_nodes,
                             sym.manager().count_nodes(pass_new));
      }

      if (pass_new.is_false()) break;  // fixed point
      from = pass_new;
    }
  }  // step-wise path
  if (stop) result.complete = false;

  // De-duplicate violation messages (the same signal can trip many passes).
  std::sort(result.consistency_violations.begin(),
            result.consistency_violations.end());
  result.consistency_violations.erase(
      std::unique(result.consistency_violations.begin(),
                  result.consistency_violations.end()),
      result.consistency_violations.end());

  result.reached = reached;
  result.unbound_signals = binder.unbound();
  result.stats.final_reached_nodes = sym.manager().count_nodes(reached);
  result.stats.states = sym.count_states(reached);
  result.stats.markings = sym.count_markings(reached);
  result.stats.seconds = watch.seconds();
  if (options.events != nullptr) {
    options.events->traversal_done(
        {{"passes", static_cast<double>(result.stats.passes)},
         {"image_computations",
          static_cast<double>(result.stats.image_computations)},
         {"peak_reached_nodes",
          static_cast<double>(result.stats.peak_reached_nodes)},
         {"final_reached_nodes",
          static_cast<double>(result.stats.final_reached_nodes)},
         {"states", result.stats.states},
         {"markings", result.stats.markings},
         {"peak_live_nodes", static_cast<double>(sym.manager().peak_live_nodes())},
         {"seconds", result.stats.seconds}});
  }
  return result;
}

TraversalResult traverse(SymbolicStg& sym, const TraversalOptions& options) {
  const std::unique_ptr<ImageEngine> engine =
      make_engine(options.engine, sym, options.engine_options);
  return traverse(*engine, options);
}

Bdd deadlock_states(SymbolicStg& sym, const Bdd& reached) {
  Bdd dead = reached;
  const pn::PetriNet& net = sym.stg().net();
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    if (dead.is_false()) break;
    dead = dead.minus(sym.enabling_cube(t));
  }
  return dead;
}

}  // namespace stgcheck::core
