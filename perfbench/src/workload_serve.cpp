// serve-churn: an AllocationService under open-loop write churn with one
// closed-loop reader — the only workload with writes beside reads.
//
// A writer applies ~10-op mutation batches on a seeded Poisson schedule at
// a fixed rate, about a third of what one writer sustained when this
// benchmark was written (≈20 ms a write), so queueing stays bounded and a
// slower write path shows as latency. Each write is timed from its
// scheduled arrival. A reader thread pins snapshot() and serves bursts of
// point reads for the whole window. Two threads in all: the writer (the
// service solves on 1 thread) and the reader.
#include "harness.hpp"

#include "alloc/solver.hpp"
#include "alloc/verify.hpp"
#include "flow/optimal_allocation.hpp"
#include "graph/generators.hpp"
#include "graph/mpcb.hpp"
#include "serve/mutation.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve/warm_restart.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

using namespace mpcalloc;

constexpr double kEpsilon = 0.25;
constexpr double kUntracedShare = 0.3;
constexpr double kWritesPerSecond = 16.0;
constexpr std::uint64_t kScheduleSeed = 0x5EED;
constexpr int kWarmupWrites = 2;
constexpr std::size_t kReadBurst = 16;
/// Reservoir size per read sample: bounds memory on a multi-million-read
/// window while keeping every percentile well resolved (the p99 rests on
/// about 650 samples beyond it). Small, so the reservoirs' growth does not
/// move peak_rss_mb.
constexpr std::size_t kReadSampleCap = std::size_t{1} << 16;

AllocationInstance serve_instance(std::uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  Xoshiro256pp rng(seed);
  AllocationInstance instance;
  instance.graph = union_of_forests(full ? 120000 : 3000, full ? 60000 : 1500,
                                    /*lambda=*/2, rng);
  instance.capacities = uniform_capacities(instance.graph.num_right(), 4, 8, rng);
  return instance;
}

SolveOptions serve_options() {
  SolveOptions options;
  options.method = SolveMethod::kTwoPlusEps;
  options.epsilon = kEpsilon;
  options.lambda = 2.0;
  options.num_threads = 1;
  return options;
}

bool has_edge(const BipartiteGraph& g, const Edge& e) {
  const auto nbrs = g.left_neighbors(e.u);
  return std::any_of(nbrs.begin(), nbrs.end(),
                     [&](const Incidence& inc) { return inc.to == e.v; });
}

/// One write: 4 edge removes, 4 edge adds into non-edges and 2 capacity
/// retargets in [4, 8], all valid against `current`.
serve::MutationSet make_batch(const AllocationInstance& current, Xoshiro256pp& rng) {
  const BipartiteGraph& g = current.graph;
  const auto contains = [](const std::vector<Edge>& list, const Edge& e) {
    return std::find(list.begin(), list.end(), e) != list.end();
  };
  serve::MutationSet batch;
  const auto edges = g.edges();
  for (int i = 0; i < 4; ++i) {
    const Edge e = edges[rng.uniform(edges.size())];
    if (!contains(batch.remove_edges, e)) batch.remove_edges.push_back(e);
  }
  for (int i = 0; i < 4; ++i) {
    const Edge e{static_cast<Vertex>(rng.uniform(g.num_left())),
                 static_cast<Vertex>(rng.uniform(g.num_right()))};
    if ((!has_edge(g, e) || contains(batch.remove_edges, e)) && !contains(batch.add_edges, e)) {
      batch.add_edges.push_back(e);
    }
  }
  for (int i = 0; i < 2; ++i) {
    batch.set_capacities.push_back({static_cast<Vertex>(rng.uniform(g.num_right())),
                                    static_cast<std::uint32_t>(4 + rng.uniform(5))});
  }
  return batch;
}

struct ServeSetup {
  PackedInput input;
  std::unique_ptr<serve::AllocationService> service;
  std::vector<Vertex> read_targets;
};

ServeSetup set_up(const RunConfig& config, const SolveOptions& options) {
  ServeSetup setup;
  const AllocationInstance generated = serve_instance(config.seed, config.scale);
  setup.input = pack_and_certify(generated, config.input_path);
  setup.service = std::make_unique<serve::AllocationService>(
      load_instance_mmap(setup.input.path), serve::ServiceOptions{options, true});
  Xoshiro256pp rng(config.seed + 1);
  for (int i = 0; i < kWarmupWrites; ++i) {
    (void)setup.service->apply(make_batch(setup.service->snapshot()->instance(), rng));
  }
  for (int i = 0; i < 4096; ++i) {
    setup.read_targets.push_back(static_cast<Vertex>(rng.uniform(generated.graph.num_right())));
  }
  return setup;
}

/// Keeps a uniform sample of at most kReadSampleCap values of a stream.
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed) : rng_(seed) {}
  void add(double value) {
    if (values_.size() < kReadSampleCap) {
      values_.push_back(value);
    } else if (const std::uint64_t j = rng_.uniform(seen_ + 1); j < kReadSampleCap) {
      values_[j] = value;
    }
    ++seen_;
  }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  Xoshiro256pp rng_;
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
};

struct ReadSamples {
  explicit ReadSamples(std::uint64_t seed) : read_us(seed), snapshot_ns(seed + 1), point_ns(seed + 2) {}
  Reservoir read_us;      ///< snapshot() plus one burst, per read
  Reservoir snapshot_ns;  ///< snapshot() alone
  Reservoir point_ns;     ///< one point read, averaged over its burst
  double sink = 0.0;      ///< keeps the reads observable
};

/// The closed-loop reader: pin the current generation, read a burst of
/// point allocations from it, repeat until stopped.
void read_loop(const std::stop_token& stop, const serve::AllocationService& service,
               const std::vector<Vertex>& targets, ReadSamples& out) {
  std::size_t next = 0;
  while (!stop.stop_requested()) {
    const Clock::time_point t0 = Clock::now();
    const std::shared_ptr<const serve::AllocationSnapshot> snapshot = service.snapshot();
    const Clock::time_point t1 = Clock::now();
    double total = 0.0;
    for (std::size_t k = 0; k < kReadBurst; ++k) {
      total += snapshot->allocation_of(targets[next]);
      next = (next + 1) % targets.size();
    }
    const Clock::time_point t2 = Clock::now();
    out.sink += total;
    out.read_us.add(seconds_between(t0, t2) * 1e6);
    out.snapshot_ns.add(seconds_between(t0, t1) * 1e9);
    out.point_ns.add(seconds_between(t1, t2) * 1e9 / kReadBurst);
  }
}

/// One write: the batch must publish exactly one generation.
std::string write_op(serve::AllocationService& service, const serve::MutationSet& batch) {
  const std::uint64_t before = service.generation();
  const auto published = service.apply(batch);
  return published->generation() == before + 1 ? "" : "write did not publish one generation";
}

struct WriteTimes {
  Latencies latency;               ///< from scheduled arrival to publish
  std::vector<double> late_ms;     ///< from scheduled arrival to apply start
  std::vector<double> service_ms;  ///< from apply start to publish
};

/// Open-loop writes for `seconds`: exponential inter-arrival gaps at
/// kWritesPerSecond (at least one write). The calibration kernel runs in
/// the writer's idle gaps, so it never delays a write; each write is
/// scaled by the latest samples.
WriteTimes open_loop_writes(double seconds, serve::AllocationService& service,
                            Xoshiro256pp& batch_rng, Xoshiro256pp& schedule,
                            OpLedger& ledger, Calibration& calibration) {
  WriteTimes out;
  const Clock::time_point deadline = deadline_after(seconds);
  Clock::time_point due = Clock::now();
  for (;;) {
    due += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
        -std::log1p(-schedule.uniform_double()) / kWritesPerSecond));
    if (due >= deadline && !out.latency.ms.empty()) break;
    const serve::MutationSet batch = make_batch(service.snapshot()->instance(), batch_rng);
    if (due - Clock::now() > std::chrono::duration<double, std::milli>(3 * calibration.last_ms())) {
      calibration.sample();
    }
    std::this_thread::sleep_until(due);
    ledger.attempt([&] {
      const Clock::time_point begin = Clock::now();
      std::string why = write_op(service, batch);
      const Clock::time_point end = Clock::now();
      out.latency.add(seconds_between(due, end) * 1e3, calibration);
      out.late_ms.push_back(std::max(0.0, seconds_between(due, begin) * 1e3));
      out.service_ms.push_back(seconds_between(begin, end) * 1e3);
      return why;
    });
  }
  if (out.latency.ms.empty()) throw std::runtime_error("no write completed");
  return out;
}

/// The final generation must equal a cold solve of its instance bit for
/// bit (which certifies the whole warm-restart chain), be feasible, and be
/// within 2+10ε of OPT. Returns the ratio.
double check_final_generation(const serve::AllocationService& service,
                              const SolveOptions& options, Report& report) {
  const auto final_gen = service.snapshot();
  const AllocationInstance& instance = final_gen->instance();
  const SolveResult& got = final_gen->result();
  const SolveResult cold = Solver(options).solve(instance);
  got.allocation.check_valid(instance);
  if (!same_bits(got.final_levels, cold.final_levels) ||
      !same_bits(got.final_alloc, cold.final_alloc) ||
      !same_bits(got.allocation.x, cold.allocation.x) ||
      !same_bits(got.match_weight, cold.match_weight)) {
    report.fail_check("final generation differs from a cold solve of its instance");
  }
  const CertifiedOptimum opt = certified_optimal_value(instance);
  if (!opt.certificate_ok) report.fail_check("final OPT certificate failed");
  const double ratio = approximation_ratio(opt.value, got.allocation.weight());
  if (ratio > 2.0 + 10.0 * kEpsilon) report.fail_check("final ratio above 2+10eps");
  return ratio;
}

/// Replay guard for one write: the rebuilt generation must equal the one
/// the service published, bit for bit.
std::string check_generation(const serve::AllocationSnapshot& replay,
                             const serve::AllocationSnapshot& published) {
  const SolveResult& a = replay.result();
  const SolveResult& b = published.result();
  if (replay.generation() != published.generation()) return "replay generation differs";
  if (!same_bits(a.final_levels, b.final_levels) || !same_bits(a.final_alloc, b.final_alloc) ||
      !same_bits(a.allocation.x, b.allocation.x) || !same_bits(a.match_weight, b.match_weight) ||
      a.rounds_executed != b.rounds_executed) {
    return "replay solve differs from the published generation";
  }
  if (replay.tape().rounds != published.tape().rounds) return "replay tape differs";
  const auto ea = replay.instance().graph.edges();
  const auto eb = published.instance().graph.edges();
  if (!std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()) ||
      replay.instance().capacities != published.instance().capacities) {
    return "replay instance differs";
  }
  if (replay.warm().recompute_volume != published.warm().recompute_volume ||
      replay.warm().divergences != published.warm().divergences) {
    return "replay warm-restart stats differ";
  }
  return {};
}

}  // namespace

Report run_serve_workload(const RunConfig& config) {
  Report report;
  const SolveOptions options = serve_options();
  Calibration calibration(options.num_threads);
  ServeSetup setup =
      repeated_setup(report.metrics, calibration, [&] { return set_up(config, options); });
  serve::AllocationService& service = *setup.service;
  Xoshiro256pp batch_rng(config.seed + 2);
  // One arrival schedule for every seed: seeds vary the graph and the
  // batches, not how writes cluster (which would move the tail by itself).
  Xoshiro256pp schedule(kScheduleSeed);

  ReadSamples reads(config.seed + 4);
  std::jthread reader([&](const std::stop_token& stop) {
    read_loop(stop, service, setup.read_targets, reads);
  });
  const WriteTimes writes =
      open_loop_writes(config.trace ? config.seconds * kUntracedShare : config.seconds,
                       service, batch_rng, schedule, report.ledger, calibration);

  if (!config.trace) {
    reader.request_stop();
    reader.join();
    // Writes differ in the memory they need (the cone a batch dirties), so
    // more of them: a write is short.
    measure_peak_rss(report.metrics, calibration, /*ops=*/10, [&] {
      report.ledger.attempt([&] {
        return write_op(service, make_batch(service.snapshot()->instance(), batch_rng));
      });
    });
    report.metrics["op_ms.p50"] = quantile(writes.latency.ms, 0.5);
    report.metrics["op_ms.p90"] = quantile(writes.latency.ms, 0.9);
    report.metrics["ratio_vs_opt"] = check_final_generation(service, options, report);
    report.note = calibration.describe(writes.latency);
    return report;
  }

  // Traced phase: closed-loop writes, each rebuilt from apply_mutations,
  // warm_solve and the snapshot constructor, then applied to the service
  // as the reference. The reader keeps running.
  LayerTable table;
  const Clock::time_point deadline = deadline_after(config.seconds * (1 - kUntracedShare));
  do {
    report.ledger.attempt([&]() -> std::string {
      const auto prev = service.snapshot();
      const serve::MutationSet batch = make_batch(prev->instance(), batch_rng);
      SpanSheet spans;
      const Clock::time_point start = Clock::now();
      serve::MutationApplyResult applied = spans.timed(
          "serve.apply_mutations", [&] { return serve::apply_mutations(prev->instance(), batch); });
      TrajectoryTape tape;
      serve::WarmRestartStats warm;
      SolveResult result = spans.timed("serve.warm_solve", [&] {
        return serve::warm_solve(applied.instance, prev->result(), prev->tape(), applied,
                                 options.epsilon, options.num_threads, &tape, warm);
      });
      result.method = options.method;
      const auto replay = spans.timed("serve.publish", [&] {
        return std::make_shared<const serve::AllocationSnapshot>(
            prev->generation() + 1, std::move(applied.instance), std::move(result),
            std::move(tape), warm);
      });
      const double op_seconds = seconds_between(start, Clock::now());
      spans.count("serve.cone_fraction",
                  static_cast<double>(warm.recompute_volume) /
                      static_cast<double>(warm.dense_equiv_volume));
      spans.count("serve.divergences", static_cast<double>(warm.divergences));
      table.add_op(spans, op_seconds);

      const auto published = service.apply(batch);
      std::string why = check_generation(*replay, *published);
      if (!why.empty()) report.fail_check(why);
      return why;
    });
  } while (Clock::now() < deadline);
  reader.request_stop();
  reader.join();

  // The traced writes are closed-loop, so the overhead base is the
  // untraced writes' service time, without their queueing.
  report.metrics.merge(table.reduce(median(writes.service_ms) / 1e3));
  report.metrics["serve.cold_solves"] = static_cast<double>(service.counters().cold_solves);
  report.metrics["serve.read_us.p50"] = quantile(reads.read_us.values(), 0.5);
  report.metrics["serve.read_us.p99"] = quantile(reads.read_us.values(), 0.99);
  report.metrics["serve.snapshot_ns"] = median(reads.snapshot_ns.values());
  report.metrics["serve.read_ns"] = median(reads.point_ns.values());
  report.metrics["serve.late_ms.p90"] = quantile(writes.late_ms, 0.9);
  report.metrics["raw.op_ms.p50"] = median(writes.latency.raw_ms);
  report.metrics["raw.kernel_ms"] = calibration.median_ms();
  report.metrics["graph.pack_ms"] = setup.input.pack_ms;
  report.metrics["flow.opt_ms"] = setup.input.opt_ms;
  check_final_generation(service, options, report);
  return report;
}

}  // namespace perfbench
