// Shared pieces of the benchmark: run configuration, op accounting, span
// timing for the traced replays, metric reduction and the result line.
//
// The benchmark drives the library from outside. A traced run rebuilds each
// operation from the layers' public functions and wraps every call in a
// span on a SpanSheet; nothing inside src/ is instrumented.
#pragma once

#include "graph/bipartite_graph.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Input size of a run: the full workloads, or a seconds-long miniature of
/// each for the self-tests.
enum class Scale { kFull, kTiny };

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured window
  bool trace = false;     ///< per-layer replay instead of end-to-end timing
  Scale scale = Scale::kFull;
  std::string input_path;  ///< where set-up writes the .mpcb input
};

/// Counts attempted and failed operations. An op fails when it throws or
/// when one of its output checks does not hold; the first failure's reason
/// is kept for the log.
class OpLedger {
 public:
  void record(bool ok, std::string_view reason = {});

  /// Run `op`, recording a failure with the exception's message if it
  /// throws. `op` returns an empty string on success, else the reason.
  template <typename Op>
  void attempt(Op&& op) {
    try {
      const std::string why = op();
      record(why.empty(), why);
    } catch (const std::exception& e) {
      record(false, std::string("threw: ") + e.what());
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::string& first_failure() const { return first_failure_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_failure_;
};

/// Linear-interpolation quantile of a sample, q in [0, 1] (the convention
/// of numpy's default and of mpcalloc::percentile). Throws on an empty
/// sample: a metric with no samples is a benchmark bug, not a zero.
[[nodiscard]] double quantile(const std::vector<double>& values, double q);

/// Median over a sample (quantile 0.5).
[[nodiscard]] inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// The time point `seconds` from now.
[[nodiscard]] inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// The timed calls of one traced operation. `timed` runs a callable and
/// adds its wall time to the named span. Spans keep self time: a span
/// opened inside another (a callback the library calls back into) is
/// subtracted from its parent, and only top-level spans count toward
/// coverage.
class SpanSheet {
 public:
  template <typename Fn>
  decltype(auto) timed(const char* name, Fn&& fn) {
    open_.push_back(name);
    struct Close {
      SpanSheet& sheet;
      Clock::time_point start;
      ~Close() { sheet.close(start); }
    } close{*this, Clock::now()};
    return fn();
  }

  /// Record a count (or any per-op value that is not a time).
  void count(const std::string& name, double value) { counts_[name] += value; }

  /// Self time per span name, in seconds.
  [[nodiscard]] const std::map<std::string, double>& seconds() const {
    return seconds_;
  }
  [[nodiscard]] double seconds(const std::string& name) const {
    const auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }
  [[nodiscard]] const std::map<std::string, double>& counts() const {
    return counts_;
  }
  /// Wall time inside top-level spans.
  [[nodiscard]] double covered_seconds() const { return covered_; }

 private:
  void close(Clock::time_point start);

  std::vector<const char*> open_;
  double covered_ = 0.0;
  std::map<std::string, double> seconds_;
  std::map<std::string, double> counts_;
};

/// Bitwise equality of two doubles or of two vectors of trivially copyable
/// values (so -0.0 and 0.0 differ, as the replay guard requires).
[[nodiscard]] bool same_bits(double a, double b);
template <typename T>
[[nodiscard]] bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

struct Latencies;

/// Host-speed calibration. On a shared host the same op's wall time drifts
/// by tens of percent within minutes as neighbours load the caches, memory
/// bus and CPUs. A fixed kernel (512 Ki random gathers over 32 MiB, beyond
/// the private caches, then one stream over it), run right before each op
/// on as many threads as the op uses, drifts with it.
/// End-to-end times are reported multiplied by scale() = kReferenceMs /
/// (the median of the latest kernel times): times on a host where the
/// kernel takes kReferenceMs. The kernel and the threads it runs on belong
/// to the benchmark, not the library, so a library change (to its kernels
/// or to its executor) moves the op and not the kernel.
class Calibration {
 public:
  /// Nominal kernel time (about what it takes on the host the benchmark
  /// was written on, a 4-core container with g++ 12.2 Release).
  static constexpr double kReferenceMs = 7.0;
  /// Latest samples whose median scale() takes, so one sample that ran
  /// unusually fast or slow does not move an op by itself.
  static constexpr std::size_t kScaleWindow = 3;

  /// Each of `threads` (at least 1) runs the whole kernel once: the caller
  /// and threads - 1 benchmark-owned std::threads, so the time stays
  /// comparable across thread counts.
  explicit Calibration(std::size_t threads);
  /// Run the kernel once and record its wall time.
  void sample();
  [[nodiscard]] double last_ms() const { return ms_.empty() ? 0.0 : ms_.back(); }
  /// kReferenceMs over the median of the latest kScaleWindow samples (all
  /// of them while there are fewer). Throws before the first sample.
  [[nodiscard]] double scale() const;
  /// Median kernel time over the whole run.
  [[nodiscard]] double median_ms() const { return median(ms_); }
  /// One line for the run log: sample count, median kernel time, and the
  /// ops' median as measured and as scaled.
  [[nodiscard]] std::string describe(const Latencies& ops) const;
  /// Resident size of the kernel's buffers, which peak_rss_mb leaves out.
  [[nodiscard]] double footprint_mib() const;

 private:
  [[nodiscard]] std::uint64_t run_kernel() const;

  std::vector<std::uint64_t> data_;
  std::vector<std::uint32_t> index_;
  std::vector<double> ms_;
  std::size_t threads_;
  volatile std::uint64_t sink_ = 0;
};

/// Op latencies of a run: as measured, and scaled by the calibration
/// samples taken next to each op (the end-to-end metrics use the latter;
/// the traced run reports the former as raw.op_ms.p50).
struct Latencies {
  std::vector<double> raw_ms;
  std::vector<double> ms;

  void add(double raw, const Calibration& calibration) {
    raw_ms.push_back(raw);
    ms.push_back(raw * calibration.scale());
  }
};

/// Named metric values of one run, before units are attached.
using MetricValues = std::map<std::string, double>;

/// Reduces the SpanSheets of many traced ops to per-layer metrics: each
/// span becomes "<name>_ms" (median over ops of the op's total in that
/// span), each count keeps its name (median over ops), and the op wall
/// times give trace.coverage (the smallest per-op share of wall time
/// inside timed calls) and trace.overhead (median traced op over the
/// untraced median).
class LayerTable {
 public:
  void add_op(const SpanSheet& sheet, double op_seconds);
  [[nodiscard]] MetricValues reduce(double untraced_median_seconds) const;

 private:
  std::map<std::string, std::vector<double>> span_ms_;
  std::map<std::string, std::vector<double>> counts_;
  std::vector<double> op_seconds_;
  std::vector<double> coverage_;
};

/// Make the current resident set the new peak. Freed heap memory goes back
/// to the system first (malloc_trim), so the new baseline does not depend
/// on how earlier frees left the heap; then "5" is written to
/// /proc/self/clear_refs. Throws when the kernel refuses.
void reset_peak_rss();

/// Peak resident set size since the last reset_peak_rss() (or since the
/// process started), in MiB: VmHWM from /proc/self/status.
[[nodiscard]] double peak_rss_mib();

/// The result line: one JSON object with the keys correct, attempted,
/// failed and metrics. `units` gives the unit of every metric to print,
/// in order; every one must be present in `values`.
[[nodiscard]] std::string result_json(
    bool correct, std::uint64_t attempted, std::uint64_t failed,
    const std::vector<std::pair<std::string, std::string>>& units,
    const MetricValues& values);

/// A workload's input as set-up leaves it: packed to .mpcb at `path`, with
/// its certified optimum.
struct PackedInput {
  std::string path;
  std::uint64_t opt = 0;
  double pack_ms = 0.0;  ///< save_instance_mpcb
  double opt_ms = 0.0;   ///< certified_optimal_value
};

/// Pack `instance` to `path` and certify its OPT, timing both. Throws when
/// the min-cut certificate does not match the flow.
[[nodiscard]] PackedInput pack_and_certify(const mpcalloc::AllocationInstance& instance,
                                           const std::string& path);

/// What a workload hands back to main.
struct Report {
  OpLedger ledger;
  bool checks_ok = true;  ///< run-level checks (reference, replay guard)
  std::string check_failure;
  MetricValues metrics;
  std::string note;  ///< printed as a "# " line before the result

  void fail_check(std::string reason) {
    if (checks_ok) check_failure = std::move(reason);
    checks_ok = false;
  }
};

/// Set-ups per run: their median is setup_s, steady against one slow rep.
inline constexpr int kSetupReps = 5;

/// Run the set-up kSetupReps times, each after a calibration sample, and
/// keep the last state. The median scaled set-up time goes to setup_s.
/// Each state is destroyed before the next set-up starts, so a set-up may
/// rewrite the input file the previous one mapped.
template <typename Setup>
auto repeated_setup(MetricValues& metrics, Calibration& calibration, Setup&& setup) {
  std::optional<decltype(setup())> state;
  std::vector<double> times;
  for (int i = 0; i < kSetupReps; ++i) {
    state.reset();
    calibration.sample();
    const Clock::time_point start = Clock::now();
    state.emplace(setup());
    times.push_back(seconds_between(start, Clock::now()) * calibration.scale());
  }
  metrics["setup_s"] = median(times);
  return std::move(*state);
}

/// peak_rss_mb, taken after the measured window with nothing else running:
/// `ops` times, reset the peak (which first returns freed heap to the
/// system), run `op` and read the peak; report the largest, less the
/// calibration buffers. So it covers what the workload holds after the
/// window (growth from churn included) plus what one op allocates, and not
/// freed heap that stays resident in a layout that depends on thread
/// timing, nor set-up's generator and OPT oracle.
template <typename Op>
void measure_peak_rss(MetricValues& metrics, const Calibration& calibration, int ops, Op&& op) {
  double peak = 0.0;
  for (int i = 0; i < ops; ++i) {
    reset_peak_rss();
    op();
    peak = std::max(peak, peak_rss_mib());
  }
  metrics["peak_rss_mb"] = peak - calibration.footprint_mib();
}

Report run_solve_workload(const RunConfig& config, bool gadget);
Report run_mpc_workload(const RunConfig& config);
Report run_serve_workload(const RunConfig& config);

}  // namespace perfbench
