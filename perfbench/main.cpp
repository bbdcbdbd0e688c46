// Reader benchmark driver: builds one workload's inputs from --seed, runs
// it for --seconds in this thread, checks its outputs, and prints one JSON
// line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones (README.md).
//
//   perfbench --workload serve_ambient|batch_decode --seed N --seconds S
//             --trace 0|1
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace {

using wb::perfbench::Metric;
using wb::perfbench::RunResult;

constexpr double kBytesPerMb = 1024.0 * 1024.0;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kBytesPerMb;
}

void print_json(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.violations.empty() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload serve_ambient|batch_decode --seed N "
               "--seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = std::chrono::steady_clock::now();
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      seconds = std::strtod(val, nullptr);
    } else if (std::strcmp(key, "--trace") == 0) {
      trace = std::atoi(val);
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || seconds <= 0.0 || (trace != 0 && trace != 1) ||
      (workload != "serve_ambient" && workload != "batch_decode")) {
    return usage(argv[0]);
  }
  const bool traced = trace == 1;

  wb::perfbench::SimTiming sim;
  RunResult r;
  double setup_s = 0.0;
  double inputs_mb = 0.0;
  const auto setup_done = [&] {
    setup_s = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - process_start)
                  .count();
  };
  // A traced run also builds the other workload's inputs, after set-up:
  // each layer is measured on the inputs of the workload whose path it is.
  wb::perfbench::SimTiming other_sim;
  if (workload == "serve_ambient") {
    const auto in = wb::perfbench::make_serve_inputs(seed, sim);
    setup_done();
    inputs_mb = static_cast<double>(wb::perfbench::input_bytes(in)) /
                kBytesPerMb;
    r = traced ? wb::perfbench::trace_serve_ambient(
                     in, wb::perfbench::make_batch_inputs(seed, other_sim),
                     seconds)
               : wb::perfbench::run_serve_ambient(in, seconds);
  } else {
    const auto in = wb::perfbench::make_batch_inputs(seed, sim);
    setup_done();
    inputs_mb = static_cast<double>(wb::perfbench::input_bytes(in)) /
                kBytesPerMb;
    r = traced ? wb::perfbench::trace_batch_decode(
                     in, wb::perfbench::make_serve_inputs(seed, other_sim),
                     seconds)
               : wb::perfbench::run_batch_decode(in, seconds);
  }

  if (traced) {
    r.metrics.push_back({"sim.capture_us_per_record",
                         sim.run_ns / 1e3 / static_cast<double>(sim.records),
                         "us"});
    r.metrics.push_back({"mem.inputs_mb", inputs_mb, "MB"});
  } else {
    r.metrics.push_back({"setup_s", setup_s, "s"});
    r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  }
  for (const auto& v : r.violations) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", v.c_str());
  }
  std::fflush(stderr);
  print_json(r);
  return 0;
}
