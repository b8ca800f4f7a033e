#include "transformer/rotating_check.hpp"

#include <cstdlib>
#include <vector>

#include "support/require.hpp"

namespace sss {

namespace {
constexpr int kRepair = 0;
constexpr int kAdvance = 1;
}  // namespace

RotatingCheck::RotatingCheck(const Graph& g, const PairwiseCheckable& source)
    : source_(source), name_("ROTATING-CHECK(" + source.name() + ")") {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "ROTATING-CHECK requires a connected network with n >= 2");
  spec_ = source.base_spec();
  SSS_REQUIRE(spec_.num_internal() == 0,
              "pairwise-checkable sources expose communication state only");
  spec_.internal.emplace_back("cur", domain_channel());
}

namespace {
const PairwiseCheckable& require_source(
    const std::unique_ptr<PairwiseCheckable>& source) {
  SSS_REQUIRE(source != nullptr, "ROTATING-CHECK needs a checker source");
  return *source;
}
}  // namespace

RotatingCheck::RotatingCheck(const Graph& g,
                             std::unique_ptr<PairwiseCheckable> source)
    : RotatingCheck(g, require_source(source)) {
  owned_ = std::move(source);
}

int RotatingCheck::first_enabled(GuardContext& ctx) const {
  const auto cur = static_cast<NbrIndex>(ctx.self_internal(kCurVar));
  return source_.pair_suspicious(ctx, cur) ? kRepair : kAdvance;
}

void RotatingCheck::execute(int action, ActionContext& ctx) const {
  const auto cur = static_cast<Value>(ctx.self_internal(kCurVar));
  const Value next = (cur % static_cast<Value>(ctx.degree())) + 1;
  switch (action) {
    case kRepair:
      source_.repair(ctx);
      ctx.set_internal(kCurVar, next);
      break;
    case kAdvance:
      ctx.set_internal(kCurVar, next);
      break;
    default:
      SSS_ASSERT(false, "ROTATING-CHECK has exactly two actions");
  }
}

PairwiseColoring::PairwiseColoring(const Graph& g, int palette_size)
    : palette_size_(palette_size == 0 ? g.max_degree() + 1 : palette_size) {
  SSS_REQUIRE(palette_size_ >= g.max_degree() + 1,
              "palette must have at least Delta+1 colors");
  spec_.comm.emplace_back("C",
                          VarDomain{1, static_cast<Value>(palette_size_)});
}

bool PairwiseColoring::pair_suspicious(const GuardContext& ctx,
                                       NbrIndex channel) const {
  return ctx.nbr_comm(channel, kColorVar) == ctx.self_comm(kColorVar);
}

void PairwiseColoring::repair(ActionContext& ctx) const {
  std::vector<bool> used(static_cast<std::size_t>(palette_size_) + 1, false);
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    used[static_cast<std::size_t>(ctx.nbr_comm(ch, kColorVar))] = true;
  }
  std::vector<Value> free_colors;
  for (Value c = 1; c <= static_cast<Value>(palette_size_); ++c) {
    if (!used[static_cast<std::size_t>(c)]) free_colors.push_back(c);
  }
  SSS_ASSERT(!free_colors.empty(), "Delta+1 colors leave a free one");
  const auto pick = static_cast<std::size_t>(
      ctx.random_range(0, static_cast<Value>(free_colors.size()) - 1));
  ctx.set_comm(kColorVar, free_colors[pick]);
}

PairwiseSeparation::PairwiseSeparation(const Graph& g, int separation,
                                       int palette_size)
    : name_("pairwise-separation(" + std::to_string(separation) + ")"),
      separation_(separation),
      palette_size_(palette_size == 0
                        ? separation * 2 * g.max_degree() + 1
                        : palette_size) {
  SSS_REQUIRE(separation >= 1, "separation must be positive");
  SSS_REQUIRE(palette_size_ >= separation * 2 * g.max_degree() + 1,
              "palette must leave a free slot: need sep*2*Delta + 1 values");
  spec_.comm.emplace_back("F",
                          VarDomain{1, static_cast<Value>(palette_size_)});
}

bool PairwiseSeparation::pair_suspicious(const GuardContext& ctx,
                                         NbrIndex channel) const {
  const Value mine = ctx.self_comm(kValueVar);
  const Value theirs = ctx.nbr_comm(channel, kValueVar);
  return std::abs(mine - theirs) < static_cast<Value>(separation_);
}

void PairwiseSeparation::repair(ActionContext& ctx) const {
  std::vector<Value> neighbor_values;
  neighbor_values.reserve(static_cast<std::size_t>(ctx.degree()));
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    neighbor_values.push_back(ctx.nbr_comm(ch, kValueVar));
  }
  std::vector<Value> free_values;
  for (Value v = 1; v <= static_cast<Value>(palette_size_); ++v) {
    bool blocked = false;
    for (Value nv : neighbor_values) {
      if (std::abs(v - nv) < static_cast<Value>(separation_)) {
        blocked = true;
        break;
      }
    }
    if (!blocked) free_values.push_back(v);
  }
  SSS_ASSERT(!free_values.empty(),
             "the palette sizing guarantees a free slot");
  const auto pick = static_cast<std::size_t>(
      ctx.random_range(0, static_cast<Value>(free_values.size()) - 1));
  ctx.set_comm(kValueVar, free_values[pick]);
}

bool PairwiseSeparation::separated(const Graph& g,
                                   const Configuration& config,
                                   int separation, int value_var) {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    const Value mine = config.comm(p, value_var);
    for (const ProcessId q : g.neighbors(p)) {
      if (q > p && std::abs(mine - config.comm(q, value_var)) <
                       static_cast<Value>(separation)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace sss
