#include "harness.hpp"

#include "flow/optimal_allocation.hpp"
#include "graph/mpcb.hpp"
#include "util/stats.hpp"

#include <malloc.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

void OpLedger::record(bool ok, std::string_view reason) {
  ++attempted_;
  if (ok) return;
  if (failed_ == 0) {
    first_failure_ = reason.empty() ? "unspecified failure" : std::string(reason);
  }
  ++failed_;
}

double quantile(const std::vector<double>& values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile: q outside [0, 1]");
  return mpcalloc::percentile(values, q);
}

void SpanSheet::close(Clock::time_point start) {
  const double elapsed = seconds_between(start, Clock::now());
  seconds_[open_.back()] += elapsed;
  open_.pop_back();
  if (open_.empty()) {
    covered_ += elapsed;
  } else {
    seconds_[open_.back()] -= elapsed;
  }
}

Calibration::Calibration(std::size_t threads)
    : data_(std::size_t{4} << 20),   // 32 MiB
      index_(std::size_t{1} << 19),  // 512 Ki gathers
      threads_(threads) {
  if (threads == 0) throw std::invalid_argument("Calibration: threads must be >= 1");
  // Fixed contents: the kernel is the same program on every run and seed.
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] = i * 0x9E3779B97F4A7C15ULL;
  std::uint64_t state = 1;
  for (std::uint32_t& i : index_) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    i = static_cast<std::uint32_t>((state >> 33) % data_.size());
  }
}

std::uint64_t Calibration::run_kernel() const {
  std::uint64_t sum = 0;
  for (const std::uint32_t i : index_) sum += data_[i];
  for (const std::uint64_t value : data_) sum ^= value;
  return sum;
}

void Calibration::sample() {
  std::vector<std::uint64_t> sums(threads_, 0);
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::jthread> helpers;
    helpers.reserve(threads_ - 1);
    for (std::size_t t = 1; t < threads_; ++t) {
      helpers.emplace_back([this, &sums, t] { sums[t] = run_kernel(); });
    }
    sums[0] = run_kernel();
  }  // joins the helpers
  ms_.push_back(seconds_between(start, Clock::now()) * 1e3);
  for (const std::uint64_t sum : sums) sink_ = sink_ + sum;
}

double Calibration::scale() const {
  if (ms_.empty()) throw std::logic_error("Calibration: no sample yet");
  const std::size_t window = std::min(ms_.size(), kScaleWindow);
  return kReferenceMs / median(std::vector<double>(ms_.end() - static_cast<std::ptrdiff_t>(window),
                                                   ms_.end()));
}

double Calibration::footprint_mib() const {
  return static_cast<double>(data_.size() * sizeof(std::uint64_t) +
                             index_.size() * sizeof(std::uint32_t)) /
         (1024.0 * 1024.0);
}

std::string Calibration::describe(const Latencies& ops) const {
  char text[160];
  std::snprintf(text, sizeof text,
                "calibration: %zu samples, median %.4f ms (reference %.1f ms); "
                "op p50 %.4f ms raw, %.4f ms scaled",
                ms_.size(), median(ms_), kReferenceMs, median(ops.raw_ms), median(ops.ms));
  return text;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void LayerTable::add_op(const SpanSheet& sheet, double op_seconds) {
  // A span or count missing from this op contributes 0 for it, so every
  // metric's sample has one entry per op.
  const std::size_t previous = op_seconds_.size();
  const auto append = [previous](std::map<std::string, std::vector<double>>& into,
                                 const std::map<std::string, double>& from,
                                 double scale) {
    for (const auto& [name, value] : from) {
      into[name].resize(previous, 0.0);
      into[name].push_back(value * scale);
    }
    for (auto& [name, sample] : into) sample.resize(previous + 1, 0.0);
  };
  append(span_ms_, sheet.seconds(), 1e3);
  append(counts_, sheet.counts(), 1.0);
  op_seconds_.push_back(op_seconds);
  coverage_.push_back(op_seconds > 0.0 ? sheet.covered_seconds() / op_seconds : 0.0);
}

MetricValues LayerTable::reduce(double untraced_median_seconds) const {
  MetricValues out;
  if (op_seconds_.empty()) throw std::logic_error("LayerTable: no traced ops");
  for (const auto& [name, sample] : span_ms_) out[name + "_ms"] = median(sample);
  for (const auto& [name, sample] : counts_) out[name] = median(sample);
  out["trace.coverage"] = *std::min_element(coverage_.begin(), coverage_.end());
  out["trace.overhead"] = median(op_seconds_) / untraced_median_seconds;
  return out;
}

PackedInput pack_and_certify(const mpcalloc::AllocationInstance& instance,
                             const std::string& path) {
  PackedInput input;
  input.path = path;
  Clock::time_point start = Clock::now();
  mpcalloc::save_instance_mpcb(path, instance);
  input.pack_ms = seconds_between(start, Clock::now()) * 1e3;
  start = Clock::now();
  const mpcalloc::CertifiedOptimum opt = mpcalloc::certified_optimal_value(instance);
  input.opt_ms = seconds_between(start, Clock::now()) * 1e3;
  if (!opt.certificate_ok) throw std::runtime_error("set-up: OPT certificate failed");
  input.opt = opt.value;
  return input;
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  if (!clear_refs) throw std::runtime_error("cannot reset the peak RSS (/proc/self/clear_refs)");
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the field is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<std::pair<std::string, std::string>>& units,
                        const MetricValues& values) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : units) {
    const auto it = values.find(name);
    if (it == values.end()) {
      throw std::logic_error("result_json: metric " + name + " was not measured");
    }
    if (!std::isfinite(it->second)) {
      throw std::logic_error("result_json: metric " + name + " is not finite");
    }
    char number[40];
    std::snprintf(number, sizeof number, "%.17g", it->second);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
