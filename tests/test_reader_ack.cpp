#include "reader/ack_detector.h"

#include <gtest/gtest.h>

#include "core/uplink_sim.h"
#include "tag/modulator.h"
#include "wifi/traffic.h"

namespace wb::reader {
namespace {

/// Capture trace with (optionally) an ACK pattern at `ack_start`.
wifi::CaptureTrace make_trace(bool with_ack, TimeUs ack_start,
                              const AckConfig& cfg, double distance_m,
                              std::uint64_t seed) {
  core::UplinkSimConfig sim_cfg;
  sim_cfg.channel.tag_pos = {distance_m, 0.0};
  sim_cfg.channel.helper_pos = {distance_m + 3.0, 0.0};
  sim_cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  const TimeUs until = ack_start + cfg.duration_us() + TimeUs{100'000};
  const auto tl = wifi::make_cbr_timeline(3'000, until,
                                          wifi::TrafficParams{},
                                          traffic_rng);
  core::UplinkSim sim(sim_cfg);
  if (!with_ack) return sim.run_idle(tl);
  tag::Modulator mod(cfg.pattern, cfg.chip_duration_us, ack_start);
  return sim.run(tl, mod);
}

TEST(AckDetector, DetectsAckAtExpectedTime) {
  AckConfig cfg;
  const TimeUs ack_start{700'000};
  const auto trace = make_trace(true, ack_start, cfg, 0.15, 1);
  const auto det = detect_ack(trace, cfg, ack_start);
  EXPECT_TRUE(det.detected);
  EXPECT_NEAR(static_cast<double>(det.at_us.ticks()),
              static_cast<double>(ack_start.ticks()),
              static_cast<double>(cfg.jitter_us.ticks()));
}

TEST(AckDetector, ToleratesTagClockSkew) {
  AckConfig cfg;
  const TimeUs nominal{700'000};
  // Tag fires 1.5 ms late (inside the jitter window).
  const auto trace = make_trace(true, nominal + TimeUs{1'500}, cfg, 0.15, 2);
  EXPECT_TRUE(detect_ack(trace, cfg, nominal).detected);
}

TEST(AckDetector, SilentTagNotDetected) {
  AckConfig cfg;
  const auto trace = make_trace(false, TimeUs{700'000}, cfg, 0.15, 3);
  const auto det = detect_ack(trace, cfg, TimeUs{700'000});
  EXPECT_FALSE(det.detected);
  EXPECT_LT(det.score, cfg.threshold);
}

TEST(AckDetector, NoFalsePositivesOverSeeds) {
  AckConfig cfg;
  for (std::uint64_t seed = 10; seed < 18; ++seed) {
    const auto trace = make_trace(false, TimeUs{700'000}, cfg, 0.15, seed);
    EXPECT_FALSE(detect_ack(trace, cfg, TimeUs{700'000}).detected)
        << "seed " << seed;
  }
}

TEST(AckDetector, DetectsAcrossSeeds) {
  AckConfig cfg;
  std::size_t hits = 0;
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const auto trace = make_trace(true, TimeUs{700'000}, cfg, 0.15, seed);
    if (detect_ack(trace, cfg, TimeUs{700'000}).detected) ++hits;
  }
  EXPECT_GE(hits, 7u);
}

TEST(AckDetector, LongerPatternsRejectNoiseBetter) {
  // The per-chip-normalised score averages over the pattern, so its mean
  // on a real ACK is length-independent — but its *noise floor* shrinks
  // with length (the §3.4 correlation-gain argument). A 2-chip pattern's
  // best noise correlation over the search window far exceeds a
  // 16-chip pattern's.
  AckConfig short_cfg;
  short_cfg.pattern = bits_from_string("10");
  AckConfig long_cfg;
  long_cfg.pattern = bits_from_string("1010101010101010");
  double short_noise = 0.0, long_noise = 0.0;
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    short_noise +=
        detect_ack(
            make_trace(false, TimeUs{700'000}, short_cfg, 0.15, seed),
            short_cfg, TimeUs{700'000})
            .score;
    long_noise +=
        detect_ack(
            make_trace(false, TimeUs{700'000}, long_cfg, 0.15, seed),
            long_cfg, TimeUs{700'000})
            .score;
  }
  EXPECT_GT(short_noise, 1.5 * long_noise);
}

TEST(AckDetector, EmptyTraceNotDetected) {
  AckConfig cfg;
  EXPECT_FALSE(detect_ack(ConditionedTrace{}, cfg, TimeUs{}).detected);
}

TEST(AckDetector, HalfFilledOddPatternIsScored) {
  // The ACK fill gate is an integer rule: a window is scored when at
  // least nchips / 2 (rounded down) chips hold a packet. With 5 chips,
  // exactly 2 filled chips must be scored — a fractional 0.5 * nchips
  // gate (2.5) would reject this window.
  AckConfig cfg;
  cfg.pattern = bits_from_string("10110");
  cfg.chip_duration_us = TimeUs{10'000};
  cfg.jitter_us = TimeUs{0};
  cfg.threshold = 0.9;
  ConditionedTrace ct;
  // One packet in chip 0 (+1) and one in chip 1 (-1); chips 2-4 empty.
  ct.timestamps = {TimeUs{1'000}, TimeUs{11'000}};
  ct.streams = {{1.0, -1.0}};
  const auto det = detect_ack(ct, cfg, TimeUs{0});
  EXPECT_TRUE(det.detected);
  EXPECT_EQ(det.score, 1.0);
  EXPECT_EQ(det.at_us, TimeUs{0});

  // One filled chip (< 5 / 2) is below the gate: never scored.
  ct.timestamps = {TimeUs{1'000}};
  ct.streams = {{1.0}};
  const auto under = detect_ack(ct, cfg, TimeUs{0});
  EXPECT_FALSE(under.detected);
  EXPECT_EQ(under.score, 0.0);
  ASSERT_TRUE(under.drop_reason.has_value());
  EXPECT_EQ(*under.drop_reason, obs::DropReason::kNoPreamble);
}

}  // namespace
}  // namespace wb::reader
