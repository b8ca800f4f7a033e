#include "baselines/full_read_matching.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace sss {

namespace {
constexpr int kUpdate = 0;
constexpr int kAbandon = 1;
constexpr int kAccept = 2;
constexpr int kPropose = 3;

constexpr Value kFalse = 0;
constexpr Value kTrue = 1;
}  // namespace

FullReadMatching::FullReadMatching(const Graph& g, Coloring colors)
    : colors_(std::move(colors)) {
  SSS_REQUIRE(g.num_vertices() >= 2 && g.min_degree() >= 1,
              "FULL-READ-MATCHING requires a connected network with n >= 2");
  SSS_REQUIRE(is_proper_coloring(g, colors_),
              "FULL-READ-MATCHING requires a proper coloring");
  const Value max_color = *std::max_element(colors_.begin(), colors_.end());
  spec_.comm.emplace_back("M", VarDomain{kFalse, kTrue});
  spec_.comm.emplace_back("PR", domain_channel_or_none());
  spec_.comm.emplace_back("C", VarDomain{1, max_color}, /*is_constant=*/true);
}

void FullReadMatching::install_constants(const Graph& g,
                                         Configuration& config) const {
  for (ProcessId p = 0; p < g.num_vertices(); ++p) {
    config.set_comm(p, kColorVar,
                    static_cast<Value>(colors_[static_cast<std::size_t>(p)]));
  }
}

bool FullReadMatching::married(const GuardContext& ctx) const {
  const Value pr = ctx.self_comm(kPrVar);
  if (pr == 0) return false;
  const auto ch = static_cast<NbrIndex>(pr);
  return ctx.nbr_comm(ch, kPrVar) ==
         static_cast<Value>(ctx.self_index_at(ch));
}

NbrIndex FullReadMatching::first_proposer(const GuardContext& ctx) const {
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    if (ctx.nbr_comm(ch, kPrVar) ==
        static_cast<Value>(ctx.self_index_at(ch))) {
      return ch;
    }
  }
  return 0;
}

NbrIndex FullReadMatching::first_candidate(const GuardContext& ctx) const {
  const Value own_color = ctx.self_comm(kColorVar);
  for (NbrIndex ch = 1; ch <= ctx.degree(); ++ch) {
    if (ctx.nbr_comm(ch, kPrVar) == 0 &&
        ctx.nbr_comm(ch, kMarriedVar) == kFalse &&
        own_color < ctx.nbr_comm(ch, kColorVar)) {
      return ch;
    }
  }
  return 0;
}

int FullReadMatching::first_enabled(GuardContext& ctx) const {
  const Value pr = ctx.self_comm(kPrVar);
  const Value announced = ctx.self_comm(kMarriedVar);
  const Value own_color = ctx.self_comm(kColorVar);

  if ((announced == kTrue) != married(ctx)) return kUpdate;

  if (pr != 0) {
    const auto ch = static_cast<NbrIndex>(pr);
    const Value nbr_pr = ctx.nbr_comm(ch, kPrVar);
    if (nbr_pr != static_cast<Value>(ctx.self_index_at(ch)) &&
        (ctx.nbr_comm(ch, kMarriedVar) == kTrue ||
         ctx.nbr_comm(ch, kColorVar) < own_color)) {
      return kAbandon;
    }
  }

  if (pr == 0) {
    if (first_proposer(ctx) != 0) return kAccept;
    if (first_candidate(ctx) != 0) return kPropose;
  }

  return kDisabled;
}

void FullReadMatching::sweep_enabled_range(BulkGuardContext& ctx,
                                           EnabledBitmap& out, ProcessId begin,
                                           ProcessId end) const {
  const Graph& g = ctx.graph();
  const Configuration& cfg = ctx.config();
  const std::int32_t* offsets = g.csr_offsets().data();
  const ProcessId* neighbors = g.csr_neighbors().data();
  const NbrIndex* mirrors = g.csr_mirrors().data();
  const Value* data = cfg.row(0);
  const auto stride = static_cast<std::size_t>(cfg.stride());
  std::int8_t* actions = out.actions();
  // Scalar transcription; the early-exit proposer/candidate scans keep
  // their exact stopping points so the logged read prefixes match.
  for (ProcessId p = begin; p < end; ++p) {
    const Value* row = data + static_cast<std::size_t>(p) * stride;
    const Value pr = row[kPrVar];
    const Value announced = row[kMarriedVar];
    const Value own_color = row[kColorVar];
    const std::int32_t begin = offsets[p];
    const std::int32_t end = offsets[p + 1];

    // married(ctx): one PR read of the pointed-at neighbor when pr != 0.
    bool is_married = false;
    if (pr != 0) {
      const std::size_t slot =
          static_cast<std::size_t>(begin + static_cast<std::int32_t>(pr) - 1);
      const ProcessId q = neighbors[slot];
      const Value nbr_pr = data[static_cast<std::size_t>(q) * stride + kPrVar];
      ctx.log(p, q, kPrVar);
      is_married = nbr_pr == static_cast<Value>(mirrors[slot]);
    }
    if ((announced == kTrue) != is_married) {
      actions[p] = static_cast<std::int8_t>(kUpdate);
      continue;
    }

    if (pr != 0) {
      // The scalar guard re-reads PR.(pr) here; the repeat is logged too.
      const std::size_t slot =
          static_cast<std::size_t>(begin + static_cast<std::int32_t>(pr) - 1);
      const ProcessId q = neighbors[slot];
      const Value* nbr_row = data + static_cast<std::size_t>(q) * stride;
      ctx.log(p, q, kPrVar);
      if (nbr_row[kPrVar] != static_cast<Value>(mirrors[slot])) {
        ctx.log(p, q, kMarriedVar);
        if (nbr_row[kMarriedVar] == kTrue) {
          actions[p] = static_cast<std::int8_t>(kAbandon);
          continue;
        }
        ctx.log(p, q, kColorVar);
        if (nbr_row[kColorVar] < own_color) {
          actions[p] = static_cast<std::int8_t>(kAbandon);
          continue;
        }
      }
      continue;  // pr != 0 and no abandon: disabled
    }

    // pr == 0: accept the first proposer, else propose to the first
    // free, unmarried, higher-colored neighbor.
    bool found = false;
    for (std::int32_t slot = begin; slot < end && !found; ++slot) {
      const ProcessId q = neighbors[static_cast<std::size_t>(slot)];
      ctx.log(p, q, kPrVar);
      found = data[static_cast<std::size_t>(q) * stride + kPrVar] ==
              static_cast<Value>(mirrors[static_cast<std::size_t>(slot)]);
    }
    if (found) {
      actions[p] = static_cast<std::int8_t>(kAccept);
      continue;
    }
    for (std::int32_t slot = begin; slot < end && !found; ++slot) {
      const ProcessId q = neighbors[static_cast<std::size_t>(slot)];
      const Value* nbr_row = data + static_cast<std::size_t>(q) * stride;
      ctx.log(p, q, kPrVar);
      if (nbr_row[kPrVar] != 0) continue;
      ctx.log(p, q, kMarriedVar);
      if (nbr_row[kMarriedVar] != kFalse) continue;
      ctx.log(p, q, kColorVar);
      found = own_color < nbr_row[kColorVar];
    }
    if (found) actions[p] = static_cast<std::int8_t>(kPropose);
  }
}

void FullReadMatching::execute_selected(BulkExecContext& ctx,
                                        const EnabledBitmap& enabled,
                                        std::span<const ProcessId> selection,
                                        std::size_t begin,
                                        std::size_t end) const {
  const Graph& g = ctx.graph();
  const Configuration& cfg = ctx.config();
  const std::int32_t* offsets = g.csr_offsets().data();
  const ProcessId* neighbors = g.csr_neighbors().data();
  const NbrIndex* mirrors = g.csr_mirrors().data();
  const Value* data = cfg.row(0);
  const auto stride = static_cast<std::size_t>(cfg.stride());
  // The execute-time helpers (married / first_proposer / first_candidate)
  // re-read neighbors with the scalar actions' exact stopping points, so
  // the logged prefixes match.
  for (std::size_t i = begin; i < end; ++i) {
    const ProcessId p = selection[i];
    ctx.replay_guard_reads(p);
    const int action = enabled.action(p);
    if (action == kDisabled) continue;
    const Value* row = data + static_cast<std::size_t>(p) * stride;
    const std::int32_t nbr_begin = offsets[p];
    const std::int32_t nbr_end = offsets[p + 1];
    Value* out = ctx.stage(i, p);
    switch (action) {
      case kUpdate: {
        const Value pr = row[kPrVar];
        bool is_married = false;
        if (pr != 0) {
          const std::size_t slot = static_cast<std::size_t>(
              nbr_begin + static_cast<std::int32_t>(pr) - 1);
          const ProcessId q = neighbors[slot];
          const Value nbr_pr =
              data[static_cast<std::size_t>(q) * stride + kPrVar];
          ctx.log(p, q, kPrVar);
          is_married = nbr_pr == static_cast<Value>(mirrors[slot]);
        }
        out[kMarriedVar] = is_married ? kTrue : kFalse;
        break;
      }
      case kAbandon:
        out[kPrVar] = 0;
        break;
      case kAccept: {
        Value proposer = 0;
        for (std::int32_t slot = nbr_begin; slot < nbr_end; ++slot) {
          const ProcessId q = neighbors[static_cast<std::size_t>(slot)];
          const Value nbr_pr =
              data[static_cast<std::size_t>(q) * stride + kPrVar];
          ctx.log(p, q, kPrVar);
          if (nbr_pr ==
              static_cast<Value>(mirrors[static_cast<std::size_t>(slot)])) {
            proposer = static_cast<Value>(slot - nbr_begin + 1);
            break;
          }
        }
        out[kPrVar] = proposer;
        break;
      }
      default: {  // kPropose
        const Value own_color = row[kColorVar];
        Value candidate = 0;
        for (std::int32_t slot = nbr_begin; slot < nbr_end; ++slot) {
          const ProcessId q = neighbors[static_cast<std::size_t>(slot)];
          const Value* nbr_row = data + static_cast<std::size_t>(q) * stride;
          ctx.log(p, q, kPrVar);
          if (nbr_row[kPrVar] != 0) continue;
          ctx.log(p, q, kMarriedVar);
          if (nbr_row[kMarriedVar] != kFalse) continue;
          ctx.log(p, q, kColorVar);
          if (own_color < nbr_row[kColorVar]) {
            candidate = static_cast<Value>(slot - nbr_begin + 1);
            break;
          }
        }
        out[kPrVar] = candidate;
        break;
      }
    }
  }
}

void FullReadMatching::execute(int action, ActionContext& ctx) const {
  switch (action) {
    case kUpdate:
      ctx.set_comm(kMarriedVar, married(ctx) ? kTrue : kFalse);
      break;
    case kAbandon:
      ctx.set_comm(kPrVar, 0);
      break;
    case kAccept:
      ctx.set_comm(kPrVar, static_cast<Value>(first_proposer(ctx)));
      break;
    case kPropose:
      ctx.set_comm(kPrVar, static_cast<Value>(first_candidate(ctx)));
      break;
    default:
      SSS_ASSERT(false, "FULL-READ-MATCHING has exactly four actions");
  }
}

bool MutualPrMatchingProblem::holds(const Graph& g,
                                    const Configuration& config) const {
  // Mutual PR pairs never share an endpoint, so only maximality remains.
  return every_edge_covered(g, [&](ProcessId p) {
    return matching_pr_partner(g, config, p) >= 0;
  });
}

}  // namespace sss
