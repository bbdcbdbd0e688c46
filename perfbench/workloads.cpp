#include "workloads.h"

#include <algorithm>
#include <chrono>

#include "obs/forensics.h"
#include "obs/metrics.h"
#include "reader/conditioning.h"
#include "reader/corr_decoder.h"
#include "reader/decode_workspace.h"
#include "reader/streaming_decoder.h"
#include "reader/uplink_decoder.h"
#include "serve/capture_service.h"

namespace wb::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ns_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Linear-interpolated quantile q in [0, 1] of `v` (empty -> 0).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Wall-time budget of one run, split into phases by fraction.
class Budget {
 public:
  explicit Budget(double seconds)
      : start_(Clock::now()), total_ns_(seconds * 1e9) {}
  /// True once `fraction` of the budget has elapsed.
  bool spent(double fraction) const {
    return ns_between(start_, Clock::now()) >= fraction * total_ns_;
  }

 private:
  Clock::time_point start_;
  double total_ns_;
};

/// Wall time of one call of `f`.
template <class F>
double timed_ns(F&& f) {
  const auto t0 = Clock::now();
  f();
  return ns_between(t0, Clock::now());
}

/// Runs `pass` at least once and until `fraction` of `budget` is spent;
/// returns each pass's wall time.
template <class Pass>
std::vector<double> passes_until(const Budget& budget, double fraction,
                                 Pass&& pass) {
  std::vector<double> ns;
  do {
    ns.push_back(timed_ns(pass));
  } while (!budget.spent(fraction));
  return ns;
}

/// Median over passes of records / pass time.
double median_rate(double records, const std::vector<double>& pass_ns) {
  std::vector<double> rates;
  for (const double ns : pass_ns) rates.push_back(records / (ns * 1e-9));
  return median(std::move(rates));
}

void add(RunResult& r, std::string name, double value, std::string unit) {
  r.metrics.push_back({std::move(name), value, std::move(unit)});
}

void append(Violations& to, const Violations& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ------------------------------------------------------------ serve layers

TimeUs frame_duration(const ServeInputs& in) {
  return in.decoder.decoder.frame_duration_us();
}

/// Frames of one replay pass, per session, in emission order, each with
/// the air time of the first poll that showed it.
struct PassFrames {
  std::vector<std::vector<EmittedFrame>> frames;
  std::vector<std::vector<TimeUs>> seen_at;

  void reset(std::size_t sessions) {
    frames.resize(sessions);
    seen_at.resize(sessions);
    for (auto& f : frames) f.clear();
    for (auto& s : seen_at) s.clear();
  }
};

/// Per-call samples of a traced service pass.
struct ServiceSamples {
  std::vector<double> submit_ns;
  std::vector<double> poll_ns;
};

/// The sessions replayed through one CaptureService (block-producer,
/// inline dispatch). A pass attaches every session, submits the merged
/// feed in timestamp order with a poll() at every poll-cadence step of
/// air time, drains, and detaches them again, so every pass starts from
/// the same service state and emits the same frames.
class ServiceReplay {
 public:
  explicit ServiceReplay(const ServeInputs& in)
      : in_(in), svc_(config(in)), seen_(in.sessions.size(), 0) {
    attach_all();
  }

  void run_pass(ServiceSamples* samples) {
    out_.reset(in_.sessions.size());
    TimeUs next_poll = in_.poll_phase;
    for (const FeedRef& ref : in_.feed) {
      const wifi::CaptureRecord& rec = in_.traces[ref.session][ref.index];
      while (rec.timestamp_us >= next_poll) {
        poll(next_poll, samples);
        next_poll += in_.poll_cadence;
      }
      serve::Error err;
      const auto submit = [&] { err = svc_.submit(ref.session, rec); };
      if (samples != nullptr) {
        samples->submit_ns.push_back(timed_ns(submit));
      } else {
        submit();
      }
      if (!err.ok()) ++control_errors_;
    }
    poll(next_poll, samples);
    svc_.drain_all();
    collect(next_poll);
    for (const auto& s : in_.sessions) {
      if (!svc_.detach(s.id).ok()) ++control_errors_;
    }
    attach_all();
  }

  const PassFrames& frames() const { return out_; }
  const serve::CaptureService& service() const { return svc_; }
  std::uint64_t control_errors() const { return control_errors_; }

  LedgerView ledger() const {
    obs::ForensicsSink merged;
    svc_.merge_forensics_into(merged);
    const auto stage = obs::DropStage::kIngest;
    const auto& c = svc_.counters();
    return {merged.attempts(stage),
            merged.decodes(stage),
            merged.total_drops(stage),
            merged.drops(stage, obs::DropReason::kBackpressure),
            c.routed,
            c.submitted};
  }

 private:
  static serve::ServeConfig config(const ServeInputs& in) {
    serve::ServeConfig cfg;
    cfg.policy = serve::BackpressurePolicy::kBlockProducer;
    cfg.dispatch_threads = 1;
    cfg.max_sessions = in.sessions.size();
    cfg.decoder = in.decoder;
    cfg.frame_capacity = 64;
    // Sessions re-attach every pass; a fresh forensics sink would
    // serialise its first drops' whole buffers as CSV exemplars on every
    // pass, a cost a long-lived session pays once.
    cfg.forensics_exemplar_cap = 0;
    return cfg;
  }

  void attach_all() {
    for (const auto& s : in_.sessions) {
      if (!svc_.attach(s.id).ok()) ++control_errors_;
    }
    std::fill(seen_.begin(), seen_.end(), 0);
  }

  void poll(TimeUs now, ServiceSamples* samples) {
    if (samples != nullptr) {
      samples->poll_ns.push_back(timed_ns([&] { svc_.poll(); }));
    } else {
      svc_.poll();
    }
    collect(now);
  }

  /// Copies the frames each session emitted since the last collect.
  void collect(TimeUs now) {
    for (const auto& info : in_.sessions) {
      const serve::Session* s = svc_.find(info.id);
      const std::uint64_t fresh = s->frames_total() - seen_[info.id];
      const std::size_t kept = s->frames_kept();
      for (std::uint64_t j = fresh; j > 0; --j) {
        const serve::DecodedFrame& f = s->frame(kept - j);
        out_.frames[info.id].push_back({f.start_us, f.payload});
        out_.seen_at[info.id].push_back(now);
      }
      seen_[info.id] = s->frames_total();
    }
  }

  const ServeInputs& in_;
  serve::CaptureService svc_;
  std::vector<std::uint64_t> seen_;
  PassFrames out_;
  std::uint64_t control_errors_ = 0;
};

class FrameCollector final : public reader::FrameSink {
 public:
  void on_frame(const reader::UplinkDecodeResult& f) override {
    frames.push_back({f.start_us, f.payload});
  }
  std::vector<EmittedFrame> frames;
};

/// Samples of traced standalone replays.
struct StreamingSamples {
  obs::MetricsRegistry registry;  ///< installed around each traced pass
  double push_ns = 0.0;
  std::uint64_t records = 0;
  std::uint64_t scans = 0;
  std::uint64_t packets_conditioned = 0;
  std::vector<double> scan_ns;
};

/// Every session's stream, one session after the other, through a
/// StreamingUplinkDecoder reset() between sessions: push(rec, sink) per
/// record then flush(sink), the path a service session wraps, with
/// nothing of the service around it.
class StandaloneReplay {
 public:
  explicit StandaloneReplay(const ServeInputs& in)
      : in_(in), dec_(in.decoder), sinks_(in.sessions.size()) {}

  /// One untraced pass.
  void run_pass() {
    for (std::size_t s = 0; s < sinks_.size(); ++s) {
      start_session(s);
      for (const auto& rec : in_.traces[s]) dec_.push(rec, sinks_[s]);
      dec_.flush(sinks_[s]);
    }
  }

  /// One traced pass: each push is timed, and a push that conditioned
  /// the buffer (the conditioning traces counter moved) counts as a scan.
  void run_pass(StreamingSamples& samples) {
    const obs::ScopedMetrics scope(samples.registry);
    const obs::Counter& scans =
        samples.registry.counter("reader.conditioning.traces_total");
    const obs::Counter& packets =
        samples.registry.counter("reader.conditioning.packets_total");
    const std::uint64_t packets0 = packets.value();
    for (std::size_t s = 0; s < sinks_.size(); ++s) {
      start_session(s);
      for (const auto& rec : in_.traces[s]) {
        const std::uint64_t before = scans.value();
        const double ns = timed_ns([&] { dec_.push(rec, sinks_[s]); });
        samples.push_ns += ns;
        if (scans.value() != before) {
          samples.scan_ns.push_back(ns);
          samples.scans += scans.value() - before;
        }
      }
      const std::uint64_t before = scans.value();
      samples.push_ns += timed_ns([&] { dec_.flush(sinks_[s]); });
      samples.scans += scans.value() - before;
      samples.records += in_.traces[s].size();
    }
    samples.packets_conditioned += packets.value() - packets0;
  }

  const std::vector<EmittedFrame>& frames(std::size_t session) const {
    return sinks_[session].frames;
  }

 private:
  void start_session(std::size_t s) {
    dec_.reset();
    sinks_[s].frames.clear();
  }

  const ServeInputs& in_;
  reader::StreamingUplinkDecoder dec_;
  std::vector<FrameCollector> sinks_;
};

/// The service's frame list per session must equal the standalone one.
Violations compare_with_standalone(const ServiceReplay& svc,
                                   const StandaloneReplay& alone,
                                   const ServeInputs& in) {
  Violations v;
  for (const auto& s : in.sessions) {
    append(v, check_same_frames(s.id, svc.frames().frames[s.id],
                                alone.frames(s.id)));
  }
  return v;
}

/// Frame accounting of one service pass against the truth.
struct PassMatch {
  FrameMatch total;
  Violations violations;
};

PassMatch match_pass(const ServeInputs& in, const PassFrames& pf) {
  PassMatch pm;
  for (const auto& s : in.sessions) {
    FrameMatch m;
    append(pm.violations,
           match_frames(s.frames, pf.frames[s.id], pf.seen_at[s.id],
                        in.decoder.decoder.bit_duration_us,
                        frame_duration(in), m));
    pm.total.transmitted += m.transmitted;
    pm.total.recovered += m.recovered;
    pm.total.partial_preamble_losses += m.partial_preamble_losses;
    pm.total.spurious += m.spurious;
    pm.total.delays.insert(pm.total.delays.end(), m.delays.begin(),
                           m.delays.end());
  }
  return pm;
}

/// Checks every service pass: the first against the truth, every later
/// one for emitting exactly the first one's frames.
class PassChecker {
 public:
  explicit PassChecker(const ServeInputs& in) : in_(in) {}

  void check(const PassFrames& pf, RunResult& r) {
    if (passes_ == 0) {
      first_ = pf;
      match_ = match_pass(in_, pf);
      append(r.violations, match_.violations);
    } else {
      for (const auto& s : in_.sessions) {
        if (pf.seen_at[s.id] != first_.seen_at[s.id] ||
            !check_same_frames(s.id, pf.frames[s.id], first_.frames[s.id])
                 .empty()) {
          r.violations.push_back("session " + std::to_string(s.id) +
                                 ": pass " + std::to_string(passes_) +
                                 " emitted other frames than pass 0");
        }
      }
    }
    ++passes_;
    r.attempted += match_.total.transmitted;
    r.failed += match_.total.transmitted - match_.total.recovered;
  }

  const FrameMatch& match() const { return match_.total; }

 private:
  const ServeInputs& in_;
  PassFrames first_;
  PassMatch match_;
  std::uint64_t passes_ = 0;
};

/// Pass times of measure_serve_layers.
struct ServeLayerTimes {
  std::vector<double> untraced_ns;    ///< service passes, untraced
  std::vector<double> standalone_ns;  ///< standalone passes, untraced
  std::vector<double> traced_ns;      ///< service passes, traced
};

/// Per-layer metrics of the serve and streaming layers on `in`, over
/// [from, until) of `budget`. Until half of it is spent, alternates an
/// untraced service pass with an untraced standalone pass (so host speed
/// drifts alike on both sides of the overhead difference); then runs
/// traced standalone passes until seven tenths, then traced service
/// passes. When `checker` is set, every service pass is an operation of
/// the run.
ServeLayerTimes measure_serve_layers(const ServeInputs& in,
                                     const Budget& budget, double from,
                                     double until, PassChecker* checker,
                                     RunResult& r) {
  const auto at = [&](double share) { return from + (until - from) * share; };
  ServiceReplay svc(in);
  const auto run_service = [&](ServiceSamples* samples) {
    svc.run_pass(samples);
    if (checker != nullptr) checker->check(svc.frames(), r);
  };
  run_service(nullptr);  // warm-up: first-touch capacity growth

  ServeLayerTimes t;
  StandaloneReplay alone(in);
  alone.run_pass();  // warm-up
  do {
    t.untraced_ns.push_back(timed_ns([&] { run_service(nullptr); }));
    t.standalone_ns.push_back(timed_ns([&] { alone.run_pass(); }));
  } while (!budget.spent(at(0.5)));

  StreamingSamples ss;
  passes_until(budget, at(0.7), [&] { alone.run_pass(ss); });

  ServiceSamples samples;
  samples.submit_ns.reserve(in.records() * 2);
  const std::uint64_t batches0 = svc.service().counters().dispatch_batches;
  t.traced_ns = passes_until(budget, until, [&] { run_service(&samples); });
  const std::uint64_t batches =
      svc.service().counters().dispatch_batches - batches0;

  append(r.violations, compare_with_standalone(svc, alone, in));
  append(r.violations, check_ledger(svc.ledger()));
  if (svc.control_errors() != 0) {
    r.violations.push_back("service refused a submit/attach/detach");
  }
  const double service_ns = median(t.untraced_ns);
  const double standalone_ns = median(t.standalone_ns);
  // The service wraps the standalone decoder path: it cannot be faster.
  if (service_ns < standalone_ns) {
    r.violations.push_back(
        "bound: service pass time below the standalone streaming replay");
  }

  const double records = static_cast<double>(in.records());
  const PassMatch pm = match_pass(in, svc.frames());
  add(r, "serve.submit_ns_p50", quantile(samples.submit_ns, 0.5), "ns");
  add(r, "serve.submit_ns_p99", quantile(samples.submit_ns, 0.99), "ns");
  add(r, "serve.poll_us_p50", quantile(samples.poll_ns, 0.5) / 1e3, "us");
  add(r, "serve.overhead_ns_per_record",
      (service_ns - standalone_ns) / records, "ns");
  add(r, "serve.dispatch_batches",
      static_cast<double>(batches) / static_cast<double>(t.traced_ns.size()),
      "count");
  add(r, "streaming.push_ns_per_record",
      ss.push_ns / static_cast<double>(ss.records), "ns");
  add(r, "streaming.scan_us_p50", median(ss.scan_ns) / 1e3, "us");
  add(r, "streaming.scans_per_1k_records",
      1e3 * static_cast<double>(ss.scans) / static_cast<double>(ss.records),
      "count");
  add(r, "streaming.rework_ratio",
      static_cast<double>(ss.packets_conditioned) /
          static_cast<double>(ss.records),
      "ratio");
  add(r, "streaming.frames_recovered",
      static_cast<double>(pm.total.recovered), "count");
  add(r, "streaming.spurious_frames", static_cast<double>(pm.total.spurious),
      "count");
  return t;
}

// ----------------------------------------------------------- reader layers

/// The batch decoders, each with its own workspace and reused results.
struct Decoders {
  explicit Decoders(const BatchInputs& in)
      : csi(in.csi_config), rssi(in.rssi_config), coded(in.coded_config) {}

  reader::UplinkDecoder csi;
  reader::UplinkDecoder rssi;
  reader::CodedUplinkDecoder coded;
  reader::DecodeWorkspace csi_ws, rssi_ws, coded_ws;
  std::vector<reader::UplinkDecodeResult> csi_out, rssi_out;
  std::vector<reader::CodedDecodeResult> coded_out;
};

/// Wall time of each decoder's decode_batch_into in one pass.
struct BatchPassNs {
  double csi = 0.0;
  double coded = 0.0;
  double total() const { return csi + coded; }
};

BatchPassNs decode_pass(const BatchInputs& in, Decoders& d) {
  BatchPassNs ns;
  ns.csi = timed_ns(
      [&] { d.csi.decode_batch_into(in.csi.traces, d.csi_ws, d.csi_out); });
  ns.coded = timed_ns([&] {
    d.coded.decode_batch_into(in.coded.traces, d.coded_ws, d.coded_out);
  });
  return ns;
}

template <class Result>
std::vector<const BitVec*> payloads_of(const std::vector<Result>& out) {
  std::vector<const BitVec*> p;
  for (const auto& r : out) p.push_back(r.found ? &r.payload : nullptr);
  return p;
}

/// Checks one pass's results; returns the failed decodes.
std::uint64_t check_pass(const BatchInputs& in, const Decoders& d,
                         Violations& v) {
  const std::size_t before = v.size();
  append(v, check_batch_payloads("csi", in.csi.payloads,
                                 payloads_of(d.csi_out)));
  append(v, check_batch_payloads("coded", in.coded.payloads,
                                 payloads_of(d.coded_out)));
  return v.size() - before;
}

/// One checked decode pass of the corpus; its trace decodes are
/// operations of `r` when `count` is set.
BatchPassNs checked_pass(const BatchInputs& in, Decoders& d, bool count,
                         RunResult& r) {
  const BatchPassNs ns = decode_pass(in, d);
  const std::uint64_t failed = check_pass(in, d, r.violations);
  if (count) {
    r.attempted += in.traces();
    r.failed += failed;
  }
  return ns;
}

/// Runs checked passes at least once and until `until` of `budget` is
/// spent; returns each pass's decode time.
std::vector<double> decode_passes_until(const BatchInputs& in, Decoders& d,
                                        bool count, const Budget& budget,
                                        double until, RunResult& r) {
  std::vector<double> ns;
  do {
    ns.push_back(checked_pass(in, d, count, r).total());
  } while (!budget.spent(until));
  return ns;
}

/// Per-layer metrics of the reader on the batch corpus: traced passes
/// until `until` of `budget`, each decoder's batch call timed on its own
/// and, outside the decode passes, the RSSI decoder and condition_into
/// over the CSI captures. Returns each traced pass's decode time.
std::vector<double> measure_reader_layers(const BatchInputs& in, Decoders& d,
                                          bool count, const Budget& budget,
                                          double until, RunResult& r) {
  std::vector<double> traced_ns;
  BatchPassNs sums;
  double rssi_ns = 0.0;
  double cond_ns = 0.0;
  reader::DecodeWorkspace cond_ws;
  reader::ConditionedTrace conditioned;
  do {
    const BatchPassNs ns = checked_pass(in, d, count, r);
    traced_ns.push_back(ns.total());
    sums.csi += ns.csi;
    sums.coded += ns.coded;
    rssi_ns += timed_ns([&] {
      d.rssi.decode_batch_into(in.csi.traces, d.rssi_ws, d.rssi_out);
    });
    cond_ns += timed_ns([&] {
      for (const auto& t : in.csi.traces) {
        reader::condition_into(t, reader::MeasurementSource::kCsi,
                               in.csi_config.movavg_window_us, cond_ws,
                               conditioned);
      }
    });
  } while (!budget.spent(until));
  // condition_into is one stage of the CSI decode: it cannot cost more.
  if (cond_ns > sums.csi) {
    r.violations.push_back(
        "bound: condition_into total above the CSI decode_batch_into total");
  }

  const double passes = static_cast<double>(traced_ns.size());
  const double csi_pkts = static_cast<double>(in.csi.records()) * passes;
  const double coded_pkts = static_cast<double>(in.coded.records()) * passes;
  add(r, "reader.conditioning_ns_per_packet", cond_ns / csi_pkts, "ns");
  add(r, "reader.uplink_csi_ns_per_packet", sums.csi / csi_pkts, "ns");
  add(r, "reader.uplink_rssi_ns_per_packet", rssi_ns / csi_pkts, "ns");
  add(r, "reader.coded_ns_per_packet", sums.coded / coded_pkts, "ns");
  add(r, "reader.post_conditioning_ns_per_packet",
      (sums.csi - cond_ns) / csi_pkts, "ns");
  return traced_ns;
}

double trace_overhead_pct(const std::vector<double>& untraced_ns,
                          const std::vector<double>& traced_ns) {
  return 100.0 * (median(traced_ns) / median(untraced_ns) - 1.0);
}

}  // namespace

RunResult run_serve_ambient(const ServeInputs& in, double seconds) {
  RunResult r;
  const Budget budget(seconds);
  PassChecker checker(in);
  ServiceReplay svc(in);
  const auto pass = [&] {
    svc.run_pass(nullptr);
    checker.check(svc.frames(), r);
  };
  pass();  // warm-up: first-touch capacity growth
  const std::vector<double> ns = passes_until(budget, 1.0, pass);

  // Untimed checks: the standalone replay and the ingest ledger.
  StandaloneReplay alone(in);
  alone.run_pass();
  append(r.violations, compare_with_standalone(svc, alone, in));
  append(r.violations, check_ledger(svc.ledger()));
  if (svc.control_errors() != 0) {
    r.violations.push_back("service refused a submit/attach/detach");
  }

  std::vector<double> delays_ms;
  for (const TimeUs d : checker.match().delays) {
    delays_ms.push_back(static_cast<double>(d.ticks()) / 1e3);
  }
  add(r, "records_per_s",
      median_rate(static_cast<double>(in.records()), ns), "records/s");
  add(r, "frame_delay_ms", median(delays_ms), "ms");
  return r;
}

RunResult run_batch_decode(const BatchInputs& in, double seconds) {
  RunResult r;
  const Budget budget(seconds);
  Decoders d(in);
  checked_pass(in, d, true, r);  // warm-up: buffers reach their capacity
  const std::vector<double> ns =
      decode_passes_until(in, d, true, budget, 1.0, r);

  // Query-synchronised decode runs once the query window has closed: the
  // delay is the air time from each frame's last bit to the end of its
  // capture. It is fixed by the inputs, not by the reader's speed.
  std::vector<double> delays_ms;
  const auto add_delays = [&](const BatchGroup& g, TimeUs frame_dur) {
    for (const auto& t : g.traces) {
      const TimeUs delay = t.back().timestamp_us - in.frame_start - frame_dur;
      delays_ms.push_back(static_cast<double>(delay.ticks()) / 1e3);
    }
  };
  add_delays(in.csi, in.csi_config.frame_duration_us());
  add_delays(in.coded, in.coded_config.frame_duration_us());
  add(r, "records_per_s",
      median_rate(static_cast<double>(in.records()), ns), "records/s");
  add(r, "frame_delay_ms", median(delays_ms), "ms");
  return r;
}

RunResult trace_serve_ambient(const ServeInputs& in,
                              const BatchInputs& reader_in, double seconds) {
  RunResult r;
  const Budget budget(seconds);
  PassChecker checker(in);
  const ServeLayerTimes t =
      measure_serve_layers(in, budget, 0.0, 0.8, &checker, r);
  add(r, "trace.overhead_pct", trace_overhead_pct(t.untraced_ns, t.traced_ns),
      "%");

  Decoders d(reader_in);
  checked_pass(reader_in, d, false, r);  // warm-up
  measure_reader_layers(reader_in, d, false, budget, 1.0, r);
  return r;
}

RunResult trace_batch_decode(const BatchInputs& in,
                             const ServeInputs& serve_in, double seconds) {
  RunResult r;
  const Budget budget(seconds);
  Decoders d(in);
  checked_pass(in, d, true, r);  // warm-up
  const std::vector<double> untraced_ns =
      decode_passes_until(in, d, true, budget, 0.3, r);
  const std::vector<double> traced_ns =
      measure_reader_layers(in, d, true, budget, 0.65, r);
  add(r, "trace.overhead_pct", trace_overhead_pct(untraced_ns, traced_ns),
      "%");

  measure_serve_layers(serve_in, budget, 0.65, 1.0, nullptr, r);
  return r;
}

}  // namespace wb::perfbench
