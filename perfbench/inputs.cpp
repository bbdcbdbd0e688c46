#include "inputs.h"

#include <algorithm>
#include <chrono>
#include <tuple>

#include "core/uplink_sim.h"
#include "sim/rng.h"
#include "tag/modulator.h"
#include "util/codes.h"
#include "wifi/traffic.h"

namespace wb::perfbench {
namespace {

// ---- serve_ambient scenario (fixed; see make_serve_inputs) ----
constexpr std::size_t kSessions = 8;
constexpr std::size_t kFramesPerSession = 4;
constexpr std::size_t kServePayloadBits = 24;      // wb_experiment_cli serve
constexpr TimeUs kServeBitUs{5'000};                // wb_experiment_cli serve
constexpr TimeUs kServeLead{1'000'000};             // >= one frame + movavg
constexpr TimeUs kSessionStagger{131'000};
constexpr TimeUs kFrameSpacing{2'000'000};
constexpr TimeUs kServeTail{1'000'000};
constexpr TimeUs kPollCadence{2'000};
constexpr std::uint64_t kServeScenarioSeed = 2014;

// ---- batch_decode corpus (the §7 experiment setup) ----
constexpr double kBatchPps = 3'000.0;
constexpr TimeUs kBatchBitUs{10'000};               // 30 packets per bit
constexpr std::size_t kBatchPayloadBits = 77;
constexpr TimeUs kQueryLead{600'000};
constexpr TimeUs kQueryTail{100'000};
constexpr std::size_t kCsiTraces = 12;
constexpr double kCsiNearM = 0.05;
constexpr double kCsiFarM = 0.20;
constexpr std::size_t kCodedTraces = 2;
constexpr double kCodedNearM = 1.0;
constexpr double kCodedFarM = 1.6;
constexpr std::size_t kCodeLength = 20;
constexpr std::size_t kCodedPayloadBits = 16;
constexpr TimeUs kChipUs{3'333};                    // 10 packets per chip
constexpr double kHelperBeyondTagM = 3.0;

/// UplinkSim::run with its wall time added to `timing`.
wifi::CaptureTrace timed_run(core::UplinkSim& sim,
                             const wifi::PacketTimeline& timeline,
                             const tag::Modulator& mod, SimTiming& timing) {
  const auto t0 = std::chrono::steady_clock::now();
  auto trace = sim.run(timeline, mod);
  const auto t1 = std::chrono::steady_clock::now();
  timing.run_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
  timing.records += trace.size();
  return trace;
}

core::UplinkSimConfig sim_config(double distance_m, std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.reader_pos = {0.0, 0.0};
  cfg.channel.tag_pos = {distance_m, 0.0};
  cfg.channel.helper_pos = {distance_m + kHelperBeyondTagM, 0.0};
  cfg.seed = seed;
  return cfg;
}

BitVec framed(const BitVec& payload) {
  BitVec frame = barker13();
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

double spread(double near, double far, std::size_t i, std::size_t n) {
  return n <= 1 ? near
                : near + (far - near) * static_cast<double>(i) /
                             static_cast<double>(n - 1);
}

/// Decorrelated per-capture seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt, std::uint64_t i) {
  return seed * 0x9e3779b97f4a7c15ull + salt * 0xc2b2ae3d27d4eb4full + i + 1;
}

TimeUs serve_frame_duration() {
  return kServeBitUs *
         static_cast<std::int64_t>(barker13().size() + kServePayloadBits);
}

/// Session `s.id`'s frames and capture: a tag at 5 + id cm over Poisson
/// helper traffic at 2500 + 100 id packets/s.
wifi::CaptureTrace make_session(SessionInfo& s, SimTiming& timing) {
  const double distance_m = 0.05 + 0.01 * s.id;
  const double helper_pps = 2'500.0 + 100.0 * s.id;
  const std::uint64_t seed = mix(kServeScenarioSeed, 1, s.id);
  const TimeUs frame_dur = serve_frame_duration();
  for (std::size_t k = 0; k < kFramesPerSession; ++k) {
    TrueFrame f;
    f.start_us = kServeLead +
                 kSessionStagger * static_cast<std::int64_t>(s.id) +
                 kFrameSpacing * static_cast<std::int64_t>(k);
    f.payload = random_bits(kServePayloadBits, mix(seed, 2, k));
    s.frames.push_back(std::move(f));
  }
  const TimeUs until = s.frames.back().start_us + frame_dur + kServeTail;

  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("traffic");
  const auto timeline = wifi::make_poisson_timeline(
      helper_pps, until, wifi::TrafficParams{}, traffic_rng);

  // One tag modulator per frame; the capture is simulated segment by
  // segment on one channel (segments split halfway between frames).
  core::UplinkSim sim(sim_config(distance_m, seed));
  wifi::CaptureTrace trace;
  trace.reserve(timeline.size());
  auto first = timeline.begin();
  for (std::size_t k = 0; k < s.frames.size(); ++k) {
    const TimeUs seg_end =
        k + 1 < s.frames.size()
            ? s.frames[k].start_us + frame_dur +
                  (s.frames[k + 1].start_us - s.frames[k].start_us -
                   frame_dur) / 2
            : until + TimeUs{1};
    const auto last = std::lower_bound(
        first, timeline.end(), seg_end,
        [](const wifi::WifiPacket& p, TimeUs t) { return p.start_us < t; });
    const wifi::PacketTimeline segment(first, last);
    const tag::Modulator mod(framed(s.frames[k].payload), kServeBitUs,
                             s.frames[k].start_us);
    auto part = timed_run(sim, segment, mod, timing);
    trace.insert(trace.end(), part.begin(), part.end());
    first = last;
  }
  return trace;
}

/// Merges every session's records into one feed in timestamp order.
std::vector<FeedRef> merge_feed(const std::vector<wifi::CaptureTrace>& traces) {
  std::vector<std::tuple<TimeUs, std::uint32_t, std::uint32_t>> order;
  for (std::uint32_t s = 0; s < traces.size(); ++s) {
    for (std::uint32_t i = 0; i < traces[s].size(); ++i) {
      order.emplace_back(traces[s][i].timestamp_us, s, i);
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<FeedRef> feed;
  feed.reserve(order.size());
  for (const auto& [t, session, index] : order) {
    feed.push_back({session, index});
  }
  return feed;
}

/// One query-synchronised capture: `payload` framed and sent at the query
/// lead time over CBR helper traffic.
wifi::CaptureTrace make_query_capture(double distance_m, std::uint64_t seed,
                                      const tag::Modulator& mod,
                                      SimTiming& timing) {
  const TimeUs until = mod.end_time() + kQueryTail;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("traffic");
  const auto timeline = wifi::make_cbr_timeline(
      kBatchPps, until, wifi::TrafficParams{}, traffic_rng);
  core::UplinkSim sim(sim_config(distance_m, seed));
  return timed_run(sim, timeline, mod, timing);
}

void add_plain(BatchGroup& g, double distance_m, std::uint64_t seed,
               SimTiming& timing) {
  BitVec payload = random_bits(kBatchPayloadBits, seed ^ 0x5151u);
  const tag::Modulator mod(framed(payload), kBatchBitUs, kQueryLead);
  g.traces.push_back(make_query_capture(distance_m, seed, mod, timing));
  g.payloads.push_back(std::move(payload));
}

void add_coded(BatchGroup& g, const OrthogonalCodePair& codes,
               double distance_m, std::uint64_t seed, SimTiming& timing) {
  BitVec payload = random_bits(kCodedPayloadBits, seed ^ 0xabcdu);
  const tag::Modulator mod(framed(payload), codes, kChipUs, kQueryLead);
  g.traces.push_back(make_query_capture(distance_m, seed, mod, timing));
  g.payloads.push_back(std::move(payload));
}

std::size_t trace_bytes(const wifi::CaptureTrace& t) {
  return t.size() * sizeof(wifi::CaptureRecord);
}

}  // namespace

std::size_t BatchGroup::records() const {
  std::size_t n = 0;
  for (const auto& t : traces) n += t.size();
  return n;
}

ServeInputs make_serve_inputs(std::uint64_t seed, SimTiming& timing) {
  ServeInputs in;
  in.decoder.decoder.payload_bits = kServePayloadBits;
  in.decoder.decoder.bit_duration_us = kServeBitUs;
  for (std::uint32_t id = 0; id < kSessions; ++id) {
    SessionInfo s;
    s.id = id;
    in.traces.push_back(make_session(s, timing));
    in.sessions.push_back(std::move(s));
  }
  in.feed = merge_feed(in.traces);
  in.poll_cadence = kPollCadence;
  sim::RngStream rng(seed);
  auto phase_rng = rng.fork("poll_phase");
  in.poll_phase = TimeUs{static_cast<std::int64_t>(phase_rng.uniform_int(
      static_cast<std::uint64_t>(kPollCadence.ticks())))};
  return in;
}

BatchInputs make_batch_inputs(std::uint64_t seed, SimTiming& timing) {
  BatchInputs in;
  in.frame_start = kQueryLead;
  auto& csi = in.csi_config;
  csi.payload_bits = kBatchPayloadBits;
  csi.bit_duration_us = kBatchBitUs;
  // The reader knows roughly when it queried the tag; search +-2 bits.
  csi.search_from = kQueryLead - kBatchBitUs * 2;
  csi.search_to = kQueryLead + kBatchBitUs * 2;
  in.rssi_config = reader::rssi_decoder_config(csi);

  auto& coded = in.coded_config;
  coded.codes = make_orthogonal_pair(kCodeLength);
  coded.payload_bits = kCodedPayloadBits;
  coded.chip_duration_us = kChipUs;
  coded.known_start = kQueryLead;  // query-synchronised, as in Fig. 20

  for (std::size_t i = 0; i < kCsiTraces; ++i) {
    add_plain(in.csi, spread(kCsiNearM, kCsiFarM, i, kCsiTraces),
              mix(seed, 11, i), timing);
  }
  for (std::size_t i = 0; i < kCodedTraces; ++i) {
    add_coded(in.coded, coded.codes,
              spread(kCodedNearM, kCodedFarM, i, kCodedTraces),
              mix(seed, 13, i), timing);
  }
  return in;
}

std::size_t input_bytes(const ServeInputs& in) {
  std::size_t n = in.feed.size() * sizeof(FeedRef);
  for (const auto& t : in.traces) n += trace_bytes(t);
  return n;
}

std::size_t input_bytes(const BatchInputs& in) {
  std::size_t n = 0;
  for (const auto* g : {&in.csi, &in.coded}) {
    for (const auto& t : g->traces) n += trace_bytes(t);
  }
  return n;
}

}  // namespace wb::perfbench
