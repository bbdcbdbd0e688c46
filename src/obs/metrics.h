// Metrics registry: named counters, gauges, and log-bucketed histograms
// for the whole uplink/downlink pipeline.
//
// The paper's protocol (§5) is driven by runtime-measured quantities — the
// helper's packet rate N, the packets-per-bit budget M, per-sub-channel
// noise variance, downlink retry counts. This registry makes those
// quantities observable from outside the modules that compute them.
//
// Design rules:
//   * Names follow `module.thing.unit` (lowercase dotted, unit-suffixed
//     last segment, e.g. `reader.uplink.bits_decoded_total`,
//     `core.system.tag_energy_uj`). The wb_analyze legacy `metric-name`
//     rule enforces the format.
//   * The hot path is lock-free: Counter/Gauge/LogHistogram updates are
//     relaxed atomics, safe for per-packet use and for future threading.
//     Only name registration (`counter()`/`gauge()`/`histogram()`) takes a
//     mutex; per-packet loops should hoist the returned reference.
//   * Observability is off by default. Instrumentation sites guard on
//     `obs::metrics()` returning non-null, so the disabled path is one
//     global load and branch — tier-1 numbers are unaffected.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace wb::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written (or accumulated) scalar.
///
/// A gauge updated through max_of() becomes a *peak* gauge: registry
/// merges combine it with max() instead of last-merge-wins, so a merged
/// peak equals what one shared gauge would have recorded. Mixing set()
/// and max_of() on the same gauge has no serial-equivalent merge and is
/// unsupported — pick one update style per metric name.
class Gauge {
 public:
  void set(double x) noexcept { v_.store(x, std::memory_order_relaxed); }
  void add(double dx) noexcept { v_.fetch_add(dx, std::memory_order_relaxed); }
  /// Raise the gauge to `x` if larger (peak tracking, e.g. queue depth).
  /// Marks the gauge as a peak gauge for merging.
  void max_of(double x) noexcept;
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  /// True once max_of() has ever updated this gauge.
  bool is_peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
  std::atomic<bool> peak_{false};
};

/// Log-bucketed histogram over positive values (HdrHistogram-style).
///
/// Buckets grow geometrically by 2^(1/kBucketsPerOctave), so any recorded
/// value lands in a bucket whose bounds are within ~9% of it and reported
/// percentiles (geometric bucket midpoint) are within ~4.5% relative
/// error. Values <= kMinValue (including zero and negatives) collapse into
/// an underflow bucket; values beyond the top into an overflow bucket.
/// record() is a relaxed fetch_add plus min/max CAS loops — cheap enough
/// for per-packet decoder paths.
class LogHistogram {
 public:
  static constexpr double kMinValue = 1e-9;
  static constexpr int kBucketsPerOctave = 8;
  static constexpr int kOctaves = 70;  ///< covers kMinValue .. ~1.2e12
  static constexpr int kNumBuckets = kOctaves * kBucketsPerOctave + 2;

  LogHistogram();

  void record(double v) noexcept;

  /// Accumulates `other` into this histogram bucket-wise: counts, sums,
  /// and exact min/max combine as if every sample had been recorded here.
  /// Addition commutes, so merged percentiles are independent of merge
  /// order. Both sides must be quiescent for an exact result: a record()
  /// racing on `other` may be only partially included, and one racing on
  /// `this` may have its min/max clobbered by the empty-destination
  /// seeding path. (The sweep merge runs after wait_idle(), so per-task
  /// histograms are always quiescent there.)
  void merge_from(const LogHistogram& other) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  double mean() const noexcept;
  /// Smallest / largest recorded value (exact, not bucketed). 0 when empty.
  double min() const noexcept;
  double max() const noexcept;

  /// Value at percentile p by the nearest-rank method: the value of the
  /// sample at 1-based rank ceil(p/100 * count), read as its bucket's
  /// geometric midpoint clamped to the exact [min(), max()].
  ///
  /// Pinned edge behaviour (tests/test_obs_metrics.cpp asserts each):
  ///   * empty histogram       -> exactly 0.0 for every p;
  ///   * p <= 0                -> the lowest sample's bucket (rank is
  ///                              floored to 1, p is clamped to [0, 100]);
  ///   * p >= 100              -> the highest sample's bucket;
  ///   * all samples in one bucket -> every p in [0, 100] returns the
  ///                              same value (midpoint clamped to the
  ///                              exact min/max);
  ///   * samples <= kMinValue  -> the underflow bucket has no meaningful
  ///                              midpoint, so the exact min() is
  ///                              returned instead.
  double percentile(double p) const noexcept;

 private:
  static int bucket_index(double v) noexcept;
  static double bucket_midpoint(int i) noexcept;

  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Name -> instrument map. Instrument references remain valid for the
/// registry's lifetime (storage is node-based).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LogHistogram& histogram(std::string_view name);

  /// Folds every instrument of `other` into this registry, creating
  /// instruments as needed: counters and histograms accumulate; gauges
  /// take `other`'s value (last-merge-wins), except peak gauges (ever
  /// updated via Gauge::max_of), which combine with max(). Merging
  /// per-task registries in ascending task order therefore reproduces
  /// exactly what a serial run writing into one shared registry would
  /// have left behind — the invariant wb::runner's deterministic sweeps
  /// rely on. Thread-safe against concurrent lookups and instrument
  /// creation on both registries; instrument *updates* racing with the
  /// merge give approximate results (see LogHistogram::merge_from), so
  /// merge quiescent registries — as the sweep does after wait_idle() —
  /// when exactness matters.
  void merge_from(const MetricsRegistry& other);

  /// A consistent point-in-time copy of every instrument, sorted by name.
  struct HistogramStats {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, HistogramStats>> histograms;
  };
  Snapshot snapshot() const;

 private:
  /// The merge body; merge_from() calls it with both map locks held.
  void merge_locked(const MetricsRegistry& other)
      WB_REQUIRES(mu_, other.mu_);

  mutable util::Mutex mu_;  ///< guards the maps, not the instruments
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      WB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      WB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LogHistogram>, std::less<>>
      histograms_ WB_GUARDED_BY(mu_);
};

/// The registry installed on *this thread*; nullptr when observability is
/// off (the default). Instrumentation sites do
///   if (auto* m = obs::metrics()) m->counter("...").add(1);
/// The install point is thread-local so parallel sweep tasks each observe
/// their own registry (merged afterwards in task order by wb::runner) and
/// never race on a registry installed by another thread. Single-threaded
/// programs see exactly the old process-global behaviour.
MetricsRegistry* metrics() noexcept;

/// RAII install/restore of this thread's registry (mirrors
/// ScopedContractPolicy). Each thread nests its own stack of installs.
/// The pointer form mirrors ScopedFlightRecorder: passing nullptr
/// *suppresses* metrics for the scope — serve's session dispatch uses it
/// so decoder-internal metrics are identical whether a session runs
/// inline (caller's registry visible) or on a worker thread (none).
class ScopedMetrics {
 public:
  explicit ScopedMetrics(MetricsRegistry& r);
  explicit ScopedMetrics(MetricsRegistry* r);
  ~ScopedMetrics();
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  MetricsRegistry* prev_;
};

}  // namespace wb::obs
