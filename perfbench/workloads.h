// The two workloads of the reader benchmark. Each runs single-threaded in
// the calling thread for a wall-time budget, in whole rounds of the same
// operations, checks its outputs, and reports its metrics: end-to-end
// ones untraced (run_*), per-layer ones traced (trace_*).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"
#include "inputs.h"

namespace wb::perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  Violations violations;
};

/// serve_ambient: the sessions replayed through one CaptureService. An
/// operation is one transmitted frame.
RunResult run_serve_ambient(const ServeInputs& in, double seconds);

/// batch_decode: the corpus through each decoder's decode_batch_into. An
/// operation is one trace decode.
RunResult run_batch_decode(const BatchInputs& in, double seconds);

/// Traced runs. Each reports every per-layer metric, measuring each layer
/// on the inputs of the workload whose path it is: serve and streaming on
/// `ServeInputs`, the reader decoders on `BatchInputs`. Operations and
/// trace.overhead_pct are those of the named workload.
RunResult trace_serve_ambient(const ServeInputs& in,
                              const BatchInputs& reader_in, double seconds);
RunResult trace_batch_decode(const BatchInputs& in,
                             const ServeInputs& serve_in, double seconds);

}  // namespace wb::perfbench
