// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|tiny] [--work-dir <dir>]
//
// Prints one "# ..." line describing the measured program (nproc, compiler,
// threads) and, as the last line of stdout, the result JSON. --trace 0
// reports the end-to-end metrics; --trace 1 replays each operation through
// the layers' public functions and reports the per-layer metrics. The
// metric names and units here must match BENCHMARK.json (run.py checks).
#include "harness.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace {

using perfbench::RunConfig;
using Units = std::vector<std::pair<std::string, std::string>>;

#if defined(__clang__)
constexpr const char* kCompiler = "clang ";
#else
constexpr const char* kCompiler = "gcc ";
#endif

const Units kEndToEnd = {
    {"setup_s", "s"},
    {"op_ms.p50", "ms"},
    {"op_ms.p90", "ms"},
    {"ratio_vs_opt", "OPT/weight"},
    {"peak_rss_mb", "MiB"},
};

// Layers that a workload does not reach report 0.
const Units kPerLayer = {
    {"graph.load_ms", "ms"},
    {"graph.validate_ms", "ms"},
    {"graph.validate_ns_per_edge", "ns/edge"},
    {"graph.pack_ms", "ms"},
    {"alloc.workspace_ms", "ms"},
    {"alloc.left_aggregate_ms", "ms"},
    {"alloc.alloc_ms", "ms"},
    {"alloc.level_update_ms", "ms"},
    {"alloc.frontier_ms", "ms"},
    {"alloc.engine_ms", "ms"},
    {"alloc.sparse_left_ms", "ms"},
    {"alloc.sparse_right_ms", "ms"},
    {"alloc.termination_ms", "ms"},
    {"alloc.materialize_ms", "ms"},
    {"alloc.sampled_ms", "ms"},
    {"alloc.rounds", "count"},
    {"alloc.dense_rounds", "count"},
    {"alloc.sparse_rounds", "count"},
    {"alloc.sparse_attempts", "count"},
    {"alloc.sparse_yield", "ratio"},
    {"alloc.edge_visits", "count"},
    {"alloc.ns_per_edge_round", "ns/edge"},
    {"alloc.bytes_per_edge", "B/edge-computed"},
    {"mpc.cluster_setup_ms", "ms"},
    {"mpc.scatter_ms", "ms"},
    {"mpc.reduce_by_key_ms", "ms"},
    {"mpc.gather_ms", "ms"},
    {"mpc.host_records_ms", "ms"},
    {"mpc.naive_ns_per_edge_round", "ns/edge"},
    {"mpc.collect_balls_ms", "ms"},
    {"mpc.naive_ms.p50", "ms"},
    {"mpc.phased_ms.p50", "ms"},
    {"mpc.naive.rounds", "count"},
    {"mpc.naive.words_moved", "words"},
    {"mpc.naive.peak_machine_words", "words"},
    {"mpc.naive.host_record_updates", "count"},
    {"mpc.phased.rounds", "count"},
    {"mpc.phased.max_ball_vertices", "count"},
    {"mpc.phased.total_ball_words", "words"},
    {"serve.apply_mutations_ms", "ms"},
    {"serve.warm_solve_ms", "ms"},
    {"serve.publish_ms", "ms"},
    {"serve.cone_fraction", "ratio"},
    {"serve.divergences", "count"},
    {"serve.cold_solves", "count"},
    {"serve.snapshot_ns", "ns"},
    {"serve.read_ns", "ns"},
    {"serve.read_us.p50", "us"},
    {"serve.read_us.p99", "us"},
    {"serve.late_ms.p90", "ms"},
    {"flow.opt_ms", "ms"},
    {"raw.op_ms.p50", "ms"},
    {"raw.kernel_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

[[noreturn]] void usage_error(const std::string& what) {
  throw std::invalid_argument(
      what +
      "\nusage: perfbench --workload solve-forest|solve-gadget|mpc-sim|serve-churn"
      " --seed <n> --seconds <s> --trace 0|1 [--scale full|tiny] [--work-dir <dir>]");
}

/// The run's input file: unique per process (runs may share a work
/// directory) and removed when the run ends, mapped or not.
struct InputFile {
  std::filesystem::path path;
  ~InputFile() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
};

RunConfig parse_args(int argc, char** argv, std::filesystem::path& work_dir) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
      if (!(config.seconds > 0.0)) usage_error("--seconds must be > 0");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "tiny") usage_error("--scale takes full or tiny");
      config.scale = value == "tiny" ? perfbench::Scale::kTiny : perfbench::Scale::kFull;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else {
      usage_error("unknown flag " + std::string(flag));
    }
  }
  if (!have_workload) usage_error("--workload is required");
  return config;
}

bool env_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' && std::string_view(value) != "0";
}

/// The benchmark measures one program: the default engine switch, the
/// in-process transport and an optimised build. Anything else is refused.
void refuse_unpinned_program() {
#ifndef NDEBUG
  throw std::runtime_error("perfbench: built without NDEBUG; build Release");
#endif
  for (const char* name : {"MPCALLOC_FORCE_DENSE", "MPCALLOC_FORCE_SPARSE"}) {
    if (env_set(name)) {
      throw std::runtime_error(std::string("perfbench: refusing to run with ") +
                               name + " set");
    }
  }
  if (const char* transport = std::getenv("MPCALLOC_TRANSPORT");
      transport != nullptr && std::string_view(transport) == "process") {
    throw std::runtime_error("perfbench: refusing to run with MPCALLOC_TRANSPORT=process");
  }
  // Every measured solve pins its threads; this pins the rest (the OPT
  // oracle in set-up), so no run uses more than 3 threads.
  setenv("MPCALLOC_THREADS", "2", /*overwrite=*/1);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    refuse_unpinned_program();
    std::filesystem::path work_dir = ".";
    RunConfig config = parse_args(argc, argv, work_dir);
    std::filesystem::create_directories(work_dir);
    const InputFile input{work_dir / (config.workload + "-" + std::to_string(config.seed) +
                                      "-" + std::to_string(getpid()) + ".mpcb")};
    config.input_path = input.path.string();

    perfbench::Report report;
    if (config.workload == "solve-forest") {
      report = perfbench::run_solve_workload(config, /*gadget=*/false);
    } else if (config.workload == "solve-gadget") {
      report = perfbench::run_solve_workload(config, /*gadget=*/true);
    } else if (config.workload == "mpc-sim") {
      report = perfbench::run_mpc_workload(config);
    } else if (config.workload == "serve-churn") {
      report = perfbench::run_serve_workload(config);
    } else {
      usage_error("unknown workload " + config.workload);
    }

    const Units& units = config.trace ? kPerLayer : kEndToEnd;
    if (config.trace) {
      for (const auto& [name, unit] : units) report.metrics.try_emplace(name, 0.0);
    }
    if (!report.checks_ok) std::cerr << "check failed: " << report.check_failure << "\n";
    if (report.ledger.failed() > 0) {
      std::cerr << report.ledger.failed() << " of " << report.ledger.attempted()
                << " ops failed; first: " << report.ledger.first_failure() << "\n";
    }
    const bool correct = report.checks_ok && report.ledger.failed() == 0 &&
                         report.ledger.attempted() > 0;
    std::cout << "# perfbench workload=" << config.workload << " seed=" << config.seed
              << " trace=" << config.trace
              << " nproc=" << std::thread::hardware_concurrency()
              << " compiler=\"" << kCompiler << __VERSION__ << "\" ndebug=1\n";
    if (!report.note.empty()) std::cout << "# " << report.note << "\n";
    std::cout << perfbench::result_json(correct, report.ledger.attempted(),
                                        report.ledger.failed(), units,
                                        report.metrics)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
}
