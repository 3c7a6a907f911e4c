#include "core/image_engine.hpp"

#include <algorithm>

#include "core/saturation.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace stgcheck::core {

using bdd::Bdd;
using bdd::Var;

namespace {

/// The single source for parse_engine_kind and valid_engine_kind_names.
constexpr EngineKind kAllEngineKinds[] = {
    EngineKind::kCofactor,
    EngineKind::kRelational,
    EngineKind::kSaturation,
};

}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kCofactor: return "cofactor";
    case EngineKind::kRelational: return "relational";
    case EngineKind::kSaturation: return "saturation";
  }
  return "?";
}

std::optional<EngineKind> parse_engine_kind(std::string_view name) {
  for (const EngineKind kind : kAllEngineKinds) {
    if (names_equal_dashed(name, to_string(kind))) return kind;
  }
  return std::nullopt;
}

std::string valid_engine_kind_names() {
  std::string names;
  for (const EngineKind kind : kAllEngineKinds) {
    if (!names.empty()) names += ", ";
    names += to_string(kind);
  }
  return names;
}

std::optional<std::size_t> parse_thread_count(std::string_view text) {
  if (text.empty() || text.size() > 3) return std::nullopt;
  std::size_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  if (value < 1 || value > bdd::Manager::kMaxThreads) return std::nullopt;
  return value;
}

std::string valid_thread_count_range() {
  return "1.." + std::to_string(bdd::Manager::kMaxThreads);
}

// ---------------------------------------------------------------------------
// The delta_N pipeline
// ---------------------------------------------------------------------------

namespace {

/// BDD operations mutate only the manager's caches; the encoding itself is
/// logically const. (SymbolicStg::image was a const member for the same
/// reason.)
bdd::Manager& mgr(const SymbolicStg& sym) {
  return const_cast<SymbolicStg&>(sym).manager();
}

/// OR of the place literals a firing of `t` produces into without
/// consuming from: the states where those are already marked are exactly
/// the safeness violations of `t`.
Bdd marked_successor_cube(const SymbolicStg& sym, pn::TransitionId t) {
  bdd::Manager& m = mgr(sym);
  const pn::PetriNet& net = sym.stg().net();
  const std::vector<pn::PlaceId>& pre = net.preset(t);
  Bdd marked = m.bdd_false();
  for (pn::PlaceId p : net.postset(t)) {
    if (std::find(pre.begin(), pre.end(), p) != pre.end()) continue;
    marked |= m.var(sym.place_var(p));
  }
  return marked;
}

/// Keep the consistent half of `set` and flip the fired signal's bit.
/// States with the signal already at its post-transition value would be
/// inconsistent firings; the consistency check reports them, the image
/// simply never creates them (Sec. 5.1).
Bdd signal_flip_forward(const SymbolicStg& sym, const Bdd& set,
                        pn::TransitionId t) {
  const stg::TransitionLabel& label = sym.stg().label(t);
  if (label.is_dummy()) return set;
  bdd::Manager& m = mgr(sym);
  const Bdd sig = m.var(sym.signal_var(label.signal));
  if (label.dir == stg::Dir::kPlus) {
    return m.cofactor(set, !sig) & sig;
  }
  return m.cofactor(set, sig) & !sig;
}

}  // namespace

Bdd cofactor_image(const SymbolicStg& sym, const Bdd& states,
                   pn::TransitionId t, Bdd* unsafe_out) {
  // The paper's pipeline: select the enabled part and drop the preset
  // variables (cofactor by E(t)), set the preset to empty, check/cofactor
  // the postset empty, then set the postset full.
  bdd::Manager& m = mgr(sym);
  if (unsafe_out != nullptr) {
    *unsafe_out = states & sym.enabling_cube(t) & marked_successor_cube(sym, t);
  }
  Bdd step = m.cofactor(states, sym.enabling_cube(t));
  step &= sym.npm_cube(t);
  step = m.cofactor(step, sym.nsm_cube(t));
  step &= sym.asm_cube(t);
  if (step.is_false()) return step;
  return signal_flip_forward(sym, step, t);
}

Bdd cofactor_preimage(const SymbolicStg& sym, const Bdd& states,
                      pn::TransitionId t) {
  // The exact inverse: swap the roles of the four cubes and flip the
  // signal the other way.
  bdd::Manager& m = mgr(sym);
  Bdd step = m.cofactor(states, sym.asm_cube(t));
  step &= sym.nsm_cube(t);
  step = m.cofactor(step, sym.npm_cube(t));
  step &= sym.enabling_cube(t);
  if (step.is_false()) return step;
  const stg::TransitionLabel& label = sym.stg().label(t);
  if (label.is_dummy()) return step;
  const Bdd sig = m.var(sym.signal_var(label.signal));
  if (label.dir == stg::Dir::kPlus) {
    return m.cofactor(step, sig) & !sig;  // a was 0 before a+
  }
  return m.cofactor(step, !sig) & sig;  // a was 1 before a-
}

// ---------------------------------------------------------------------------
// ImageEngine base
// ---------------------------------------------------------------------------

ImageEngine::ImageEngine(SymbolicStg& sym)
    : sym_(sym),
      marked_successor_(sym.stg().net().transition_count()),
      marked_successor_built_(sym.stg().net().transition_count(), false),
      order_epoch_(sym.manager().reorder_epoch()) {}

void ImageEngine::sync_with_order() {
  const std::size_t epoch = sym_.manager().reorder_epoch();
  if (epoch != order_epoch_) {
    order_epoch_ = epoch;
    on_reorder();
  }
}

ImageEngine::StepGauge::StepGauge(ImageEngine& engine) : engine_(engine) {
  outermost_ = engine_.gauge_depth_++ == 0;
  if (outermost_) {
    bdd::Manager& m = engine_.sym_.manager();
    live_before_ = m.live_nodes();
    m.reset_peak_window();
  }
}

ImageEngine::StepGauge::~StepGauge() {
  --engine_.gauge_depth_;
  if (!outermost_) return;
  const std::size_t peak = engine_.sym_.manager().window_peak_live();
  if (peak > live_before_) {
    engine_.stats_.peak_intermediate_nodes =
        std::max(engine_.stats_.peak_intermediate_nodes, peak - live_before_);
  }
}

Bdd ImageEngine::image(const Bdd& states) {
  StepGauge gauge(*this);
  Bdd result = sym_.manager().bdd_false();
  for (std::size_t u = 0; u < unit_count(); ++u) {
    result |= image_unit(states, u);
  }
  return result;
}

Bdd ImageEngine::preimage(const Bdd& states) {
  StepGauge gauge(*this);
  Bdd result = sym_.manager().bdd_false();
  const pn::PetriNet& net = sym_.stg().net();
  for (pn::TransitionId t = 0; t < net.transition_count(); ++t) {
    result |= preimage_via(states, t);
  }
  return result;
}

Bdd ImageEngine::reach_fixpoint(const Bdd&) {
  throw ModelError(std::string(name()) +
                   " engine does not compute whole-space fixpoints "
                   "(computes_global_fixpoint() is false)");
}

Bdd ImageEngine::unsafe_states(const Bdd& states, pn::TransitionId t) {
  if (!marked_successor_built_[t]) {
    marked_successor_[t] = marked_successor_cube(sym_, t);
    marked_successor_built_[t] = true;
  }
  const Bdd& ms = marked_successor_[t];
  if (ms.is_false()) return sym_.manager().bdd_false();
  if (states.disjoint_with(sym_.enabling_cube(t))) {
    return sym_.manager().bdd_false();
  }
  return states & sym_.enabling_cube(t) & ms;
}

// ---------------------------------------------------------------------------
// CofactorEngine
// ---------------------------------------------------------------------------

CofactorEngine::CofactorEngine(SymbolicStg& sym) : ImageEngine(sym) {
  const std::size_t n = sym.stg().net().transition_count();
  units_.reserve(n);
  for (pn::TransitionId t = 0; t < n; ++t) {
    units_.push_back({t});
  }
  stats_.units = n;
}

Bdd CofactorEngine::image_via(const Bdd& states, pn::TransitionId t) {
  ++stats_.image_calls;
  StepGauge gauge(*this);
  return cofactor_image(sym_, states, t);
}

Bdd CofactorEngine::preimage_via(const Bdd& states, pn::TransitionId t) {
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  return cofactor_preimage(sym_, states, t);
}

Bdd CofactorEngine::image_unit(const Bdd& states, std::size_t u) {
  return image_via(states, units_[u][0]);
}

// ---------------------------------------------------------------------------
// SparseRelationEngine
// ---------------------------------------------------------------------------

SparseRelationEngine::SparseRelationEngine(SymbolicStg& sym)
    : ImageEngine(sym), by_transition_(sparse_relations(sym)) {}

Bdd SparseRelationEngine::cluster_image(const Bdd& states,
                                        const RelationCluster& c) {
  sync_with_order();
  ++stats_.image_calls;
  StepGauge gauge(*this);
  return sym_.manager().rel_next(states, c.rel, c.quant_cube);
}

Bdd SparseRelationEngine::cluster_preimage(const Bdd& states,
                                           const RelationCluster& c) {
  sync_with_order();
  ++stats_.preimage_calls;
  StepGauge gauge(*this);
  bdd::Manager& m = sym_.manager();
  return m.and_exists(m.permute(states, c.rename_to_primed), c.rel,
                      c.primed_quant_cube);
}

Bdd SparseRelationEngine::image_via(const Bdd& states, pn::TransitionId t) {
  return cluster_image(states, by_transition_[t]);
}

Bdd SparseRelationEngine::preimage_via(const Bdd& states, pn::TransitionId t) {
  return cluster_preimage(states, by_transition_[t]);
}

void SparseRelationEngine::count_relation_nodes(
    const std::vector<RelationCluster>& clusters) {
  std::vector<Bdd> rels;
  rels.reserve(clusters.size());
  for (const RelationCluster& c : clusters) rels.push_back(c.rel);
  stats_.relation_nodes = sym_.manager().count_nodes(rels);
}

// ---------------------------------------------------------------------------
// RelationalEngine
// ---------------------------------------------------------------------------

RelationalEngine::RelationalEngine(SymbolicStg& sym)
    : SparseRelationEngine(sym) {
  std::vector<RelationCluster> built =
      cluster_relations(sym, by_transition_, kClusterNodeCap);
  std::vector<std::vector<Var>> supports;
  supports.reserve(built.size());
  for (const RelationCluster& c : built) supports.push_back(c.support);
  clusters_.reserve(built.size());
  for (const std::size_t c : support_overlap_order(supports)) {
    clusters_.push_back(std::move(built[c]));
  }
  stats_.units = clusters_.size();
  count_relation_nodes(clusters_);
}

void RelationalEngine::on_reorder() {
  // The relation handles survive a reorder (sifting rewrites nodes in
  // place), but their node counts -- reported by the benches -- do not.
  count_relation_nodes(clusters_);
}

Bdd RelationalEngine::image_unit(const Bdd& states, std::size_t u) {
  return cluster_image(states, clusters_[u]);
}

Bdd RelationalEngine::preimage(const Bdd& states) {
  StepGauge gauge(*this);
  Bdd result = sym_.manager().bdd_false();
  for (const RelationCluster& c : clusters_) {
    result |= cluster_preimage(states, c);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::unique_ptr<ImageEngine> make_engine(EngineKind kind, SymbolicStg& sym,
                                         const EngineOptions& /*options*/) {
  switch (kind) {
    case EngineKind::kCofactor:
      return std::make_unique<CofactorEngine>(sym);
    case EngineKind::kRelational:
      return std::make_unique<RelationalEngine>(sym);
    case EngineKind::kSaturation:
      return std::make_unique<SaturationEngine>(sym);
  }
  throw ModelError("unknown engine kind");
}

}  // namespace stgcheck::core
