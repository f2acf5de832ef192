// solve-forest and solve-gadget: exact Algorithm-1 solves from an mmap load.
//
// solve-forest runs the λ-known Theorem-2 solve on a forest union whose
// dynamics converge, so most rounds take the frontier engine's sparse path
// and validate() is a large share of the op. solve-gadget runs the
// λ-oblivious adaptive solve on Theorem 9's tight instance: every round is
// dense and checks termination. The two share the round kernels, so a
// sparse-path gain that costs the dense path shows on the second.
#include "harness.hpp"

#include "alloc/proportional.hpp"
#include "alloc/round_engine.hpp"
#include "alloc/solver.hpp"
#include "alloc/verify.hpp"
#include "graph/generators.hpp"
#include "graph/mpcb.hpp"
#include "util/rng.hpp"

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {
namespace {

using namespace mpcalloc;

constexpr double kEpsilon = 0.25;
/// Share of a traced run spent timing untraced ops, the base of
/// trace.overhead; the rest replays traced ops.
constexpr double kUntracedShare = 0.3;

/// Bytes a dense round reads per edge visit, from the array widths: the
/// left sweep reads each left incidence (8 B) and its neighbour's level
/// (4 B) twice (max pass, then denominator pass); the alloc sweep reads
/// each right incidence (8 B), the neighbour's max level (4 B) and its
/// inverse denominator (8 B). 44 B over the round's 2 visits per edge.
constexpr double kDenseBytesPerEdgeVisit = (2 * (8 + 4) + (8 + 4 + 8)) / 2.0;

AllocationInstance forest_instance(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  Xoshiro256pp rng(seed);
  AllocationInstance instance;
  instance.graph = union_of_forests(full ? 100000 : 2000, full ? 50000 : 1000,
                                    /*lambda=*/8, rng);
  instance.capacities.assign(instance.graph.num_right(), 2);
  return instance;
}

/// The gadget generator takes no seed: every seed solves the same instance.
AllocationInstance gadget_instance(Scale scale) {
  return oversubscribed_core_instance(/*core=*/32, /*load_factor=*/4,
                                      /*copies=*/scale == Scale::kFull ? 512 : 8);
}

SolveOptions solve_options(bool gadget) {
  SolveOptions options;
  options.method = gadget ? SolveMethod::kAdaptive : SolveMethod::kTwoPlusEps;
  options.epsilon = kEpsilon;
  options.lambda = gadget ? 0.0 : 8.0;
  options.num_threads = 2;
  return options;
}

struct SolveSetup {
  PackedInput input;
  SolveResult reference;
};

SolveSetup set_up(const RunConfig& config, bool gadget, const SolveOptions& options) {
  SolveSetup setup;
  const AllocationInstance generated =
      gadget ? gadget_instance(config.scale) : forest_instance(config.seed, config.scale);
  setup.input = pack_and_certify(generated, config.input_path);
  // The reference solve doubles as the warm-up op.
  const AllocationInstance loaded = load_instance_mmap(setup.input.path);
  setup.reference = Solver(options).solve(loaded);
  setup.reference.allocation.check_valid(loaded);
  return setup;
}

/// Output checks of one solve against the workload's reference.
std::string check_solve(const AllocationInstance& instance, const SolveResult& got,
                        const SolveSetup& setup) {
  got.allocation.check_valid(instance);
  const SolveResult& ref = setup.reference;
  if (!same_bits(got.final_levels, ref.final_levels)) return "levels differ from the reference";
  if (!same_bits(got.final_alloc, ref.final_alloc)) return "alloc differs from the reference";
  if (!same_bits(got.allocation.x, ref.allocation.x)) return "x differs from the reference";
  if (!same_bits(got.match_weight, ref.match_weight)) return "weight differs from the reference";
  if (got.rounds_executed != ref.rounds_executed) return "round count differs from the reference";
  if (approximation_ratio(setup.input.opt, got.allocation.weight()) > 2.0 + 10.0 * kEpsilon) {
    return "ratio above 2+10eps";
  }
  return {};
}

/// One untraced op (load + solve), checked against the reference; its wall
/// time goes to `ms`.
std::string solve_op(const Solver& solver, const SolveSetup& setup, double& ms) {
  const Clock::time_point start = Clock::now();
  const AllocationInstance instance = load_instance_mmap(setup.input.path);
  const SolveResult result = solver.solve(instance);
  ms = seconds_between(start, Clock::now()) * 1e3;
  return check_solve(instance, result, setup);
}

/// Closed loop of untraced ops for `seconds`, each right after a
/// calibration sample.
Latencies untraced_ops(double seconds, const Solver& solver, const SolveSetup& setup,
                       OpLedger& ledger, Calibration& calibration) {
  Latencies latencies;
  const Clock::time_point deadline = deadline_after(seconds);
  do {
    calibration.sample();
    ledger.attempt([&] {
      double ms = 0.0;
      std::string why = solve_op(solver, setup, ms);
      latencies.add(ms, calibration);
      return why;
    });
  } while (Clock::now() < deadline);
  if (latencies.ms.empty()) throw std::runtime_error("no op completed");
  return latencies;
}

/// The exact solve rebuilt from the round kernels, mirroring the Solver's
/// proportional round loop call for call.
struct ExactReplay {
  std::vector<std::int32_t> levels;
  std::vector<double> alloc;
  FractionalAllocation allocation;
  double weight = 0.0;
  std::size_t rounds = 0;
  std::size_t dense_rounds = 0;
  std::size_t sparse_rounds = 0;
  std::size_t sparse_attempts = 0;  ///< rounds that derived touched sets
  std::uint64_t sparse_volume = 0;  ///< edge visits of the sparse rounds
};

ExactReplay replay_exact(const AllocationInstance& instance, const SolveOptions& options,
                         SpanSheet& spans) {
  const BipartiteGraph& g = instance.graph;
  const bool adaptive = options.method == SolveMethod::kAdaptive;
  const std::size_t max_rounds =
      adaptive ? tau_for_arboricity(
                     static_cast<double>(std::max<std::size_t>(g.num_vertices(), 2)),
                     options.epsilon)
               : tau_for_arboricity(options.lambda, options.epsilon);
  const std::size_t threads = options.num_threads;
  const RoundEngine engine = resolve_round_engine(options.engine);
  const std::uint64_t budget = sparse_edge_budget(g.num_edges(), options.dense_switch_fraction);
  const PowTable pow_table(options.epsilon);
  const std::span<const std::uint32_t> capacities(instance.capacities);

  ExactReplay out;
  LeftAggregate left;
  RoundWorkspace ws;
  TerminationScratch scratch;
  spans.timed("alloc.workspace", [&] {
    out.levels.assign(g.num_right(), 0);
    out.alloc.assign(g.num_right(), 0.0);
    ws.init(g);
  });
  bool have_frontier = false;
  for (std::size_t round = 1; round <= max_rounds; ++round) {
    // choose_sparse derives the touched sets (an attempt) only past this
    // frontier-volume pre-filter.
    out.sparse_attempts += have_frontier && engine == RoundEngine::kAuto &&
                           ws.frontier_volume() + ws.frontier().size() <= budget;
    const bool sparse = spans.timed("alloc.engine", [&] {
      return ws.choose_sparse(g, engine, have_frontier, options.dense_switch_fraction);
    });
    if (sparse) {
      spans.timed("alloc.sparse_left", [&] {
        parallel_for_each_vertex(ws.touched_left(), threads, [&](Vertex u) {
          recompute_left_entry(g, out.levels, pow_table, u, left);
        });
      });
      spans.timed("alloc.sparse_right", [&] {
        parallel_for_each_vertex(ws.touched_right(), threads, [&](Vertex v) {
          out.alloc[v] = recompute_alloc_entry(g, out.levels, left, pow_table, v);
        });
      });
      ++out.sparse_rounds;
      for (const Vertex u : ws.touched_left()) out.sparse_volume += g.left_degree(u);
      for (const Vertex v : ws.touched_right()) out.sparse_volume += g.right_degree(v);
    } else {
      spans.timed("alloc.left_aggregate", [&] {
        compute_left_aggregate_into(g, out.levels, pow_table, threads, left);
      });
      spans.timed("alloc.alloc", [&] {
        compute_alloc_into(g, out.levels, left, pow_table, threads, out.alloc);
      });
      ++out.dense_rounds;
    }
    spans.timed("alloc.level_update", [&] {
      return apply_level_update(capacities, out.alloc, options.epsilon, round,
                                UnitThreshold{}, out.levels, threads, &ws.deltas);
    });
    spans.timed("alloc.frontier", [&] { ws.derive_frontier(g, ws.deltas, threads); });
    have_frontier = true;
    out.rounds = round;
    if (adaptive && spans.timed("alloc.termination", [&] {
          return check_termination(instance, out.levels, out.alloc, round,
                                   options.epsilon, scratch, threads)
              .satisfied;
        })) {
      break;
    }
  }
  spans.timed("alloc.materialize", [&] {
    const std::vector<std::int32_t> start_levels =
        reconstruct_start_levels(out.levels, ws.deltas, threads);
    out.allocation = materialize_allocation(instance, start_levels, left, out.alloc,
                                            pow_table, threads);
    out.weight = match_weight(instance, out.alloc, threads);
  });
  return out;
}

/// Replay guard: the rebuilt solve must match the facade's bit for bit.
std::string check_replay(const ExactReplay& replay, const SolveResult& ref) {
  if (!same_bits(replay.levels, ref.final_levels)) return "replay levels differ";
  if (!same_bits(replay.alloc, ref.final_alloc)) return "replay alloc differs";
  if (!same_bits(replay.allocation.x, ref.allocation.x)) return "replay x differs";
  if (!same_bits(replay.weight, ref.match_weight)) return "replay weight differs";
  if (replay.rounds != ref.rounds_executed ||
      replay.dense_rounds != ref.stats.dense_rounds ||
      replay.sparse_rounds != ref.stats.sparse_rounds) {
    return "replay round split differs";
  }
  return {};
}

}  // namespace

Report run_solve_workload(const RunConfig& config, bool gadget) {
  Report report;
  const SolveOptions options = solve_options(gadget);
  Calibration calibration(options.num_threads);
  const SolveSetup setup = repeated_setup(report.metrics, calibration, [&] {
    return set_up(config, gadget, options);
  });

  const Solver solver(options);
  if (!config.trace) {
    const Latencies latencies =
        untraced_ops(config.seconds, solver, setup, report.ledger, calibration);
    measure_peak_rss(report.metrics, calibration, /*ops=*/3, [&] {
      report.ledger.attempt([&] {
        double ms = 0.0;
        return solve_op(solver, setup, ms);
      });
    });
    report.metrics["op_ms.p50"] = quantile(latencies.ms, 0.5);
    report.metrics["op_ms.p90"] = quantile(latencies.ms, 0.9);
    report.metrics["ratio_vs_opt"] =
        approximation_ratio(setup.input.opt, setup.reference.allocation.weight());
    report.note = calibration.describe(latencies);
    return report;
  }

  const Latencies untraced = untraced_ops(config.seconds * kUntracedShare, solver, setup,
                                          report.ledger, calibration);
  const double edges = static_cast<double>(setup.reference.allocation.x.size());
  LayerTable table;
  const Clock::time_point deadline = deadline_after(config.seconds * (1 - kUntracedShare));
  do {
    report.ledger.attempt([&]() -> std::string {
      SpanSheet spans;
      const Clock::time_point start = Clock::now();
      const AllocationInstance instance =
          spans.timed("graph.load", [&] { return load_instance_mmap(setup.input.path); });
      spans.timed("graph.validate", [&] { instance.validate(); });
      const ExactReplay replay = replay_exact(instance, options, spans);
      const double op_seconds = seconds_between(start, Clock::now());

      const double kernel_ns =
          1e9 * (spans.seconds("alloc.left_aggregate") + spans.seconds("alloc.alloc") +
                 spans.seconds("alloc.sparse_left") + spans.seconds("alloc.sparse_right"));
      const double edge_visits =
          2.0 * edges * static_cast<double>(replay.dense_rounds) +
          static_cast<double>(replay.sparse_volume);
      spans.count("graph.validate_ns_per_edge", 1e9 * spans.seconds("graph.validate") / edges);
      spans.count("alloc.rounds", static_cast<double>(replay.rounds));
      spans.count("alloc.dense_rounds", static_cast<double>(replay.dense_rounds));
      spans.count("alloc.sparse_rounds", static_cast<double>(replay.sparse_rounds));
      spans.count("alloc.sparse_attempts", static_cast<double>(replay.sparse_attempts));
      spans.count("alloc.sparse_yield",
                  replay.sparse_attempts == 0
                      ? 0.0
                      : static_cast<double>(replay.sparse_rounds) /
                            static_cast<double>(replay.sparse_attempts));
      spans.count("alloc.edge_visits", edge_visits);
      spans.count("alloc.ns_per_edge_round", kernel_ns / edge_visits);
      table.add_op(spans, op_seconds);

      std::string why = check_replay(replay, setup.reference);
      if (!why.empty()) report.fail_check(why);
      return why;
    });
  } while (Clock::now() < deadline);

  report.metrics.merge(table.reduce(median(untraced.raw_ms) / 1e3));
  report.metrics["alloc.bytes_per_edge"] = kDenseBytesPerEdgeVisit;
  report.metrics["raw.op_ms.p50"] = median(untraced.raw_ms);
  report.metrics["raw.kernel_ms"] = calibration.median_ms();
  report.metrics["graph.pack_ms"] = setup.input.pack_ms;
  report.metrics["flow.opt_ms"] = setup.input.opt_ms;
  return report;
}

}  // namespace perfbench
