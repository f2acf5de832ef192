// mpc-sim: the naive and the phased MPC drivers on one left-regular
// instance — the only workload that reaches the mpc layer (scatter,
// reduce_by_key and gather in the naive driver; ball collection in the
// phased one).
#include "harness.hpp"

#include "alloc/proportional.hpp"
#include "alloc/round_engine.hpp"
#include "alloc/solver.hpp"
#include "alloc/verify.hpp"
#include "graph/arboricity.hpp"
#include "graph/generators.hpp"
#include "graph/mpcb.hpp"
#include "mpc/cluster.hpp"
#include "mpc/exponentiation.hpp"
#include "mpc/primitives.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {
namespace {

using namespace mpcalloc;
using mpc::Cluster;
using mpc::DistVec;
using mpc::Word;

constexpr double kEpsilon = 0.25;
constexpr double kUntracedShare = 0.3;

AllocationInstance mpc_instance(std::uint64_t seed, Scale scale) {
  const std::size_t n = scale == Scale::kFull ? 6400 : 400;
  Xoshiro256pp rng(seed);
  AllocationInstance instance;
  instance.graph = left_regular(n, n, /*degree=*/4, rng);
  instance.capacities = uniform_capacities(n, 1, 5, rng);
  return instance;
}

struct MpcOptions {
  SolveOptions naive;
  SolveOptions phased;
};

MpcOptions mpc_options(std::uint64_t seed, double lambda) {
  MpcOptions out;
  out.naive.method = SolveMethod::kMpcNaive;
  out.naive.epsilon = kEpsilon;
  out.naive.lambda = lambda;
  out.naive.alpha = 0.8;
  out.naive.samples_per_group = 8;
  out.naive.num_threads = 1;
  out.naive.seed = seed;
  out.phased = out.naive;
  out.phased.method = SolveMethod::kMpcPhased;
  out.phased.phase_length = 2;
  return out;
}

struct MpcSetup {
  PackedInput input;
  MpcOptions options;
  SolveResult naive;
  SolveResult phased;
};

MpcSetup set_up(const RunConfig& config) {
  MpcSetup setup;
  const AllocationInstance generated = mpc_instance(config.seed, config.scale);
  setup.options = mpc_options(config.seed,
                              estimate_arboricity(generated.graph).upper_bound);
  setup.input = pack_and_certify(generated, config.input_path);
  const AllocationInstance loaded = load_instance_mmap(setup.input.path);
  setup.naive = Solver(setup.options.naive).solve(loaded);
  setup.phased = Solver(setup.options.phased).solve(loaded);
  setup.naive.allocation.check_valid(loaded);
  setup.phased.allocation.check_valid(loaded);
  return setup;
}

/// Bitwise and counter identity of one MPC solve against its reference.
std::string check_mpc(const SolveResult& got, const SolveResult& ref, const char* which) {
  const std::string tag = std::string(which) + ": ";
  if (!got.mpc || !ref.mpc) return tag + "no MPC counters";
  if (!same_bits(got.allocation.x, ref.allocation.x)) return tag + "x differs from the reference";
  if (!same_bits(got.match_weight, ref.match_weight)) return tag + "weight differs";
  if (got.rounds_executed != ref.rounds_executed || got.phases != ref.phases) {
    return tag + "LOCAL rounds differ";
  }
  const MpcSolveCounters& a = *got.mpc;
  const MpcSolveCounters& b = *ref.mpc;
  if (a.mpc_rounds != b.mpc_rounds || a.words_moved != b.words_moved ||
      a.peak_machine_words != b.peak_machine_words ||
      a.peak_total_words != b.peak_total_words ||
      a.host_record_updates != b.host_record_updates ||
      a.max_ball_volume != b.max_ball_volume) {
    return tag + "MPC counters differ from the reference";
  }
  if (!(a.recovery == mpc::MpcRecoveryStats{})) return tag + "recovery ledger is not zero";
  return {};
}

struct OpTimes {
  std::vector<double> naive_ms;  ///< as measured
  std::vector<double> phased_ms;
  Latencies op;
};

/// Wall times of one untraced op, in ms.
struct OpMs {
  double naive = 0.0;
  double phased = 0.0;
  double total = 0.0;  ///< load + naive + phased
};

/// One untraced op (load, naive solve, phased solve), checked against the
/// references.
std::string mpc_op(const Solver& naive, const Solver& phased, const MpcSetup& setup,
                   OpMs& ms) {
  const Clock::time_point start = Clock::now();
  const AllocationInstance instance = load_instance_mmap(setup.input.path);
  const Clock::time_point loaded = Clock::now();
  const SolveResult a = naive.solve(instance);
  const Clock::time_point mid = Clock::now();
  const SolveResult b = phased.solve(instance);
  const Clock::time_point end = Clock::now();
  ms = {seconds_between(loaded, mid) * 1e3, seconds_between(mid, end) * 1e3,
        seconds_between(start, end) * 1e3};
  a.allocation.check_valid(instance);
  b.allocation.check_valid(instance);
  if (approximation_ratio(setup.input.opt, a.allocation.weight()) > 2.0 + 10.0 * kEpsilon) {
    return "naive ratio above 2+10eps";
  }
  std::string why = check_mpc(a, setup.naive, "naive");
  return why.empty() ? check_mpc(b, setup.phased, "phased") : why;
}

/// Closed loop of untraced ops for `seconds`, each right after a
/// calibration sample.
OpTimes untraced_ops(double seconds, const Solver& naive, const Solver& phased,
                     const MpcSetup& setup, OpLedger& ledger, Calibration& calibration) {
  OpTimes times;
  const Clock::time_point deadline = deadline_after(seconds);
  do {
    calibration.sample();
    ledger.attempt([&] {
      OpMs ms;
      std::string why = mpc_op(naive, phased, setup, ms);
      times.naive_ms.push_back(ms.naive);
      times.phased_ms.push_back(ms.phased);
      times.op.add(ms.total, calibration);
      return why;
    });
  } while (Clock::now() < deadline);
  if (times.op.ms.empty()) throw std::runtime_error("no op completed");
  return times;
}

// ---------------------------------------------------------------------------
// Traced replays
// ---------------------------------------------------------------------------

Word pack(double d) { return std::bit_cast<Word>(d); }
double unpack(Word w) { return std::bit_cast<double>(w); }

/// The naive driver's reduce_by_key combine: value words add as doubles.
void add_doubles(std::span<Word> accum, std::span<const Word> next) {
  for (std::size_t i = 1; i < accum.size(); ++i) {
    accum[i] = pack(unpack(accum[i]) + unpack(next[i]));
  }
}

std::uint64_t input_words(const AllocationInstance& instance) {
  return 2 * static_cast<std::uint64_t>(instance.graph.num_edges()) +
         instance.graph.num_vertices();
}

Cluster make_cluster(const AllocationInstance& instance, const SolveOptions& options,
                     SpanSheet& spans) {
  return spans.timed("mpc.cluster_setup", [&] {
    Cluster cluster = Cluster::for_input(input_words(instance), options.alpha);
    cluster.set_num_threads(options.num_threads);
    cluster.set_transport_kind(options.transport, options.process_options);
    cluster.set_overflow_policy(options.overflow_policy);
    return cluster;
  });
}

struct NaiveReplay {
  FractionalAllocation allocation;
  double weight = 0.0;
  std::size_t local_rounds = 0;
  std::size_t mpc_rounds = 0;
  std::uint64_t words_moved = 0;
  std::uint64_t peak_machine_words = 0;
  std::uint64_t host_record_updates = 0;
};

/// The naive driver's fault-free loop rebuilt from Cluster::scatter,
/// reduce_by_key, DistVec::gather and charge_rounds, with the same host
/// record maintenance and the same dataset lifetimes.
NaiveReplay replay_naive(const AllocationInstance& instance, const SolveOptions& options,
                         SpanSheet& spans) {
  const BipartiteGraph& g = instance.graph;
  const std::size_t tau = tau_for_arboricity(options.lambda, options.epsilon);
  const std::size_t threads = options.num_threads;
  const PowTable pow_table(options.epsilon);
  Xoshiro256pp rng(options.seed);
  Cluster cluster = make_cluster(instance, options, spans);

  NaiveReplay out;
  std::vector<std::int32_t> levels(g.num_right(), 0);
  std::vector<std::int32_t> start_levels(g.num_right(), 0);
  std::vector<double> alloc(g.num_right(), 0.0);
  std::vector<double> beta_right(g.num_right(), 1.0);
  std::vector<double> denom(g.num_left(), 0.0);
  std::vector<Word> records1;
  std::vector<Word> records2;
  std::vector<Vertex> changed_denoms;
  RoundWorkspace ws;
  spans.timed("mpc.host_records", [&] {
    changed_denoms.reserve(g.num_left());
    ws.init(g);
  });
  bool have_records = false;
  const auto beta = [&](Vertex v) {
    return std::pow(1.0 + options.epsilon, static_cast<double>(levels[v]));
  };
  const auto refresh_record2 = [&](EdgeId e) {
    const Edge& ed = g.edge(e);
    records2[2 * e + 1] = pack(denom[ed.u] > 0.0 ? beta_right[ed.v] / denom[ed.u] : 0.0);
  };

  for (std::size_t round = 1; round <= tau; ++round) {
    spans.timed("mpc.host_records", [&] {
      start_levels = levels;
      if (!have_records) {
        for (Vertex v = 0; v < g.num_right(); ++v) beta_right[v] = beta(v);
        records1.reserve(2 * g.num_edges());
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          records1.push_back(g.edge(e).u);
          records1.push_back(pack(beta_right[g.edge(e).v]));
        }
        out.host_record_updates += g.num_edges();
      } else {
        for (const Vertex v : ws.frontier()) {
          beta_right[v] = beta(v);
          for (const Incidence& inc : g.right_neighbors(v)) {
            records1[2 * inc.edge + 1] = pack(beta_right[v]);
            ++out.host_record_updates;
          }
        }
      }
    });
    DistVec denom_vec = spans.timed("mpc.scatter", [&] { return cluster.scatter(records1, 2); });
    spans.timed("mpc.reduce_by_key", [&] {
      mpc::reduce_by_key(cluster, denom_vec, add_doubles, rng);
    });
    const std::vector<Word> denoms =
        spans.timed("mpc.gather", [&] { return denom_vec.gather(threads); });
    spans.timed("mpc.host_records", [&] {
      changed_denoms.clear();
      for (std::size_t i = 0; i + 1 < denoms.size(); i += 2) {
        const auto u = static_cast<Vertex>(denoms[i]);
        const double value = unpack(denoms[i + 1]);
        if (!have_records || denom[u] != value) {
          denom[u] = value;
          changed_denoms.push_back(u);
        }
      }
    });
    cluster.charge_rounds(1);

    spans.timed("mpc.host_records", [&] {
      if (!have_records) {
        records2.reserve(2 * g.num_edges());
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          records2.push_back(g.edge(e).v);
          records2.push_back(0);
        }
        for (EdgeId e = 0; e < g.num_edges(); ++e) refresh_record2(e);
        out.host_record_updates += g.num_edges();
        have_records = true;
      } else {
        for (const Vertex v : ws.frontier()) {
          for (const Incidence& inc : g.right_neighbors(v)) {
            refresh_record2(inc.edge);
            ++out.host_record_updates;
          }
        }
        for (const Vertex u : changed_denoms) {
          for (const Incidence& inc : g.left_neighbors(u)) {
            refresh_record2(inc.edge);
            ++out.host_record_updates;
          }
        }
      }
    });
    DistVec alloc_vec = spans.timed("mpc.scatter", [&] { return cluster.scatter(records2, 2); });
    spans.timed("mpc.reduce_by_key", [&] {
      mpc::reduce_by_key(cluster, alloc_vec, add_doubles, rng);
    });
    const std::vector<Word> allocs =
        spans.timed("mpc.gather", [&] { return alloc_vec.gather(threads); });
    spans.timed("mpc.host_records", [&] {
      std::fill(alloc.begin(), alloc.end(), 0.0);
      for (std::size_t i = 0; i + 1 < allocs.size(); i += 2) {
        alloc[static_cast<Vertex>(allocs[i])] = unpack(allocs[i + 1]);
      }
    });
    cluster.charge_rounds(1);
    spans.timed("alloc.level_update", [&] {
      return apply_level_update(std::span<const std::uint32_t>(instance.capacities), alloc,
                                options.epsilon, round, UnitThreshold{}, levels, threads,
                                &ws.deltas);
    });
    spans.timed("alloc.frontier", [&] { ws.derive_frontier(g, ws.deltas, threads); });
    out.local_rounds = round;
  }

  spans.timed("alloc.materialize", [&] {
    out.allocation = materialize_allocation(instance, start_levels, alloc, pow_table, threads);
    out.weight = match_weight(instance, alloc, threads);
  });
  cluster.charge_rounds(2);
  out.mpc_rounds = cluster.rounds();
  out.words_moved = cluster.total_words_moved();
  out.peak_machine_words = cluster.peak_machine_words();
  return out;
}

struct PhasedReplay {
  SolveResult sampled;
  std::size_t mpc_rounds = 0;
  std::uint64_t words_moved = 0;
  std::uint64_t peak_machine_words = 0;
  std::size_t max_ball_vertices = 0;
  std::uint64_t total_ball_words = 0;
};

/// The phased driver rebuilt as a kSampled solve whose phase observer
/// collects the radius-B balls on a benchmark-owned cluster.
PhasedReplay replay_phased(const AllocationInstance& instance, const SolveOptions& options,
                           SpanSheet& spans) {
  const auto radius = static_cast<std::uint32_t>(options.phase_length);
  Cluster cluster = make_cluster(instance, options, spans);
  spans.timed("mpc.scatter", [&] {
    std::vector<Word> flat;
    flat.reserve(2 * instance.graph.num_edges());
    for (const Edge& ed : instance.graph.edges()) {
      flat.push_back(ed.u);
      flat.push_back(ed.v);
    }
    (void)cluster.scatter(flat, 2);  // resident input: counts toward peaks only
  });

  PhasedReplay out;
  SolveOptions sampled = options;
  sampled.method = SolveMethod::kSampled;
  sampled.max_rounds = tau_for_arboricity(options.lambda, options.epsilon);
  sampled.on_phase_subgraph = [&](const std::vector<std::vector<std::uint32_t>>& adjacency) {
    cluster.charge_rounds(3);
    const mpc::BallCollection balls = spans.timed(
        "mpc.collect_balls", [&] { return mpc::collect_balls(cluster, adjacency, radius); });
    out.max_ball_vertices = std::max(out.max_ball_vertices, balls.max_ball_vertices);
    out.total_ball_words += balls.total_ball_words;
    cluster.charge_rounds(1);
  };
  out.sampled = spans.timed("alloc.sampled", [&] { return Solver(sampled).solve(instance); });
  cluster.charge_rounds(2);
  out.mpc_rounds = cluster.rounds();
  out.words_moved = cluster.total_words_moved();
  out.peak_machine_words = cluster.peak_machine_words();
  return out;
}

std::string check_naive_replay(const NaiveReplay& r, const SolveResult& ref) {
  if (!same_bits(r.allocation.x, ref.allocation.x)) return "naive replay x differs";
  if (!same_bits(r.weight, ref.match_weight)) return "naive replay weight differs";
  if (r.local_rounds != ref.rounds_executed || r.mpc_rounds != ref.mpc->mpc_rounds ||
      r.words_moved != ref.mpc->words_moved ||
      r.peak_machine_words != ref.mpc->peak_machine_words ||
      r.host_record_updates != ref.mpc->host_record_updates) {
    return "naive replay counters differ from the driver's";
  }
  return {};
}

std::string check_phased_replay(const PhasedReplay& r, const SolveResult& ref) {
  if (!same_bits(r.sampled.allocation.x, ref.allocation.x)) return "phased replay x differs";
  if (!same_bits(r.sampled.match_weight, ref.match_weight)) return "phased replay weight differs";
  if (r.sampled.rounds_executed != ref.rounds_executed || r.sampled.phases != ref.phases ||
      r.mpc_rounds != ref.mpc->mpc_rounds || r.words_moved != ref.mpc->words_moved ||
      r.peak_machine_words != ref.mpc->peak_machine_words ||
      r.max_ball_vertices != ref.mpc->max_ball_volume) {
    return "phased replay counters differ from the driver's";
  }
  return {};
}

}  // namespace

Report run_mpc_workload(const RunConfig& config) {
  Report report;
  Calibration calibration(/*threads=*/1);
  const MpcSetup setup =
      repeated_setup(report.metrics, calibration, [&] { return set_up(config); });

  const Solver naive(setup.options.naive);
  const Solver phased(setup.options.phased);
  if (!config.trace) {
    const OpTimes times =
        untraced_ops(config.seconds, naive, phased, setup, report.ledger, calibration);
    measure_peak_rss(report.metrics, calibration, /*ops=*/3, [&] {
      report.ledger.attempt([&] {
        OpMs ms;
        return mpc_op(naive, phased, setup, ms);
      });
    });
    report.metrics["op_ms.p50"] = quantile(times.op.ms, 0.5);
    report.metrics["op_ms.p90"] = quantile(times.op.ms, 0.9);
    report.metrics["ratio_vs_opt"] =
        approximation_ratio(setup.input.opt, setup.phased.allocation.weight());
    report.note = calibration.describe(times.op);
    return report;
  }

  const OpTimes untraced = untraced_ops(config.seconds * kUntracedShare, naive, phased, setup,
                                        report.ledger, calibration);
  const double edges = static_cast<double>(setup.naive.allocation.x.size());
  LayerTable table;
  const Clock::time_point deadline = deadline_after(config.seconds * (1 - kUntracedShare));
  do {
    report.ledger.attempt([&]() -> std::string {
      SpanSheet spans;
      const Clock::time_point start = Clock::now();
      const AllocationInstance instance =
          spans.timed("graph.load", [&] { return load_instance_mmap(setup.input.path); });
      spans.timed("graph.validate", [&] { instance.validate(); });
      const Clock::time_point naive_start = Clock::now();
      const NaiveReplay naive = replay_naive(instance, setup.options.naive, spans);
      const double naive_seconds = seconds_between(naive_start, Clock::now());
      const PhasedReplay phased = replay_phased(instance, setup.options.phased, spans);
      const double op_seconds = seconds_between(start, Clock::now());

      spans.count("graph.validate_ns_per_edge", 1e9 * spans.seconds("graph.validate") / edges);
      spans.count("mpc.naive_ns_per_edge_round",
                  1e9 * naive_seconds / (edges * static_cast<double>(naive.local_rounds)));
      spans.count("mpc.naive.rounds", static_cast<double>(naive.mpc_rounds));
      spans.count("mpc.naive.words_moved", static_cast<double>(naive.words_moved));
      spans.count("mpc.naive.peak_machine_words", static_cast<double>(naive.peak_machine_words));
      spans.count("mpc.naive.host_record_updates",
                  static_cast<double>(naive.host_record_updates));
      spans.count("mpc.phased.rounds", static_cast<double>(phased.mpc_rounds));
      spans.count("mpc.phased.max_ball_vertices", static_cast<double>(phased.max_ball_vertices));
      spans.count("mpc.phased.total_ball_words", static_cast<double>(phased.total_ball_words));
      table.add_op(spans, op_seconds);

      std::string why = check_naive_replay(naive, setup.naive);
      if (why.empty()) why = check_phased_replay(phased, setup.phased);
      if (!why.empty()) report.fail_check(why);
      return why;
    });
  } while (Clock::now() < deadline);

  report.metrics.merge(table.reduce(median(untraced.op.raw_ms) / 1e3));
  report.metrics["mpc.naive_ms.p50"] = median(untraced.naive_ms);
  report.metrics["mpc.phased_ms.p50"] = median(untraced.phased_ms);
  report.metrics["raw.op_ms.p50"] = median(untraced.op.raw_ms);
  report.metrics["raw.kernel_ms"] = calibration.median_ms();
  report.metrics["graph.pack_ms"] = setup.input.pack_ms;
  report.metrics["flow.opt_ms"] = setup.input.opt_ms;
  return report;
}

}  // namespace perfbench
