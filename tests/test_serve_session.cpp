#include "serve/session.h"

#include <memory>

#include <gtest/gtest.h>

#include "core/uplink_sim.h"
#include "serve/capture_service.h"
#include "tag/modulator.h"
#include "util/codes.h"
#include "wifi/traffic.h"

namespace wb::serve {
namespace {

/// Same synthetic capture recipe as tests/test_reader_streaming.cpp: tag
/// frames at the given starts over helper CBR traffic.
wifi::CaptureTrace make_trace(const std::vector<TimeUs>& frame_starts,
                              const std::vector<BitVec>& payloads,
                              TimeUs bit_us, TimeUs until,
                              std::uint64_t seed) {
  core::UplinkSimConfig cfg;
  cfg.channel.tag_pos = {0.08, 0.0};
  cfg.channel.helper_pos = {3.08, 0.0};
  cfg.seed = seed;
  sim::RngStream rng(seed);
  auto traffic_rng = rng.fork("t");
  const auto tl = wifi::make_cbr_timeline(3'000, until,
                                          wifi::TrafficParams{},
                                          traffic_rng);
  std::vector<tag::Modulator> mods;
  for (std::size_t i = 0; i < frame_starts.size(); ++i) {
    BitVec frame = barker13();
    frame.insert(frame.end(), payloads[i].begin(), payloads[i].end());
    mods.emplace_back(frame, bit_us, frame_starts[i]);
  }
  core::UplinkSim sim(cfg);
  wifi::CaptureTrace trace;
  for (const auto& pkt : tl) {
    bool state = false;
    for (const auto& m : mods) state = state || m.state_at(pkt.start_us);
    const auto h = sim.channel().response(state, pkt.start_us);
    trace.push_back(
        sim.nic().measure(h, pkt.start_us, pkt.source, pkt.kind));
  }
  return trace;
}

ServeConfig serve_config() {
  ServeConfig cfg;
  cfg.decoder.decoder.payload_bits = 24;
  cfg.decoder.decoder.bit_duration_us = TimeUs{5'000};
  cfg.frame_capacity = 16;
  return cfg;
}

/// A ring holding every record of `trace` for session `id`, with a
/// record for another session between each pair — the session must
/// consume exactly its own.
std::unique_ptr<IngestRing> ring_of(std::uint32_t id,
                                    const wifi::CaptureTrace& trace) {
  auto ring = std::make_unique<IngestRing>(
      2 * trace.size(), BackpressurePolicy::kBlockProducer);
  IngestItem evicted;
  for (const auto& rec : trace) {
    ring->push({id, rec}, evicted);
    ring->push({id + 1, rec}, evicted);
  }
  return ring;
}

TEST(Session, LifecycleAttachDispatchDetach) {
  Session s(serve_config());
  EXPECT_EQ(s.state(), SessionState::kDetached);
  s.attach(42);
  EXPECT_EQ(s.state(), SessionState::kAttached);
  EXPECT_EQ(s.id(), 42u);

  const BitVec payload = random_bits(24, 1);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{1'500'000}, 2);
  // No record of its own: the session stays kAttached.
  EXPECT_EQ(s.consume(*ring_of(7, trace)), 0u);
  EXPECT_EQ(s.state(), SessionState::kAttached);
  EXPECT_EQ(s.consume(*ring_of(42, trace)), trace.size());
  EXPECT_EQ(s.state(), SessionState::kActive);
  EXPECT_EQ(s.records_dispatched(), trace.size());
  ASSERT_EQ(s.frames_total(), 1u);
  EXPECT_EQ(s.frame(0).payload, payload);
  EXPECT_EQ(s.frame(0).ordinal, 0u);

  s.detach();
  EXPECT_EQ(s.state(), SessionState::kDetached);
}

TEST(Session, FlushDrainsStrandedFrame) {
  // Traffic stops right after the frame ends: dispatch alone cannot emit
  // it (the decoder waits for a later record), flush must.
  Session s(serve_config());
  s.attach(1);
  const BitVec payload = random_bits(24, 10);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{890'000}, 11);
  s.consume(*ring_of(1, trace));
  EXPECT_EQ(s.frames_total(), 0u);
  EXPECT_EQ(s.flush(), 1u);
  ASSERT_EQ(s.frames_total(), 1u);
  EXPECT_EQ(s.frame(0).payload, payload);
}

TEST(Session, ReattachResetsDecodeState) {
  Session s(serve_config());
  s.attach(1);
  const BitVec payload = random_bits(24, 1);
  const auto trace = make_trace({TimeUs{700'000}}, {payload}, TimeUs{5'000},
                                TimeUs{1'500'000}, 2);
  s.consume(*ring_of(1, trace));
  ASSERT_EQ(s.frames_total(), 1u);
  const std::string first = s.frames_jsonl();
  s.detach();

  // Same slot, same records: the second life must behave identically
  // apart from the session id (decoder and counters fully reset).
  s.attach(1);
  EXPECT_EQ(s.frames_total(), 0u);
  EXPECT_EQ(s.records_dispatched(), 0u);
  s.consume(*ring_of(1, trace));
  EXPECT_EQ(s.frames_jsonl(), first);
}

TEST(Session, FrameRingOverwritesOldest) {
  ServeConfig cfg = serve_config();
  cfg.frame_capacity = 1;
  Session s(cfg);
  s.attach(5);
  const BitVec p1 = random_bits(24, 3);
  const BitVec p2 = random_bits(24, 4);
  const auto trace =
      make_trace({TimeUs{700'000}, TimeUs{1'400'000}}, {p1, p2},
                 TimeUs{5'000}, TimeUs{2'200'000}, 5);
  s.consume(*ring_of(5, trace));
  EXPECT_EQ(s.frames_total(), 2u);
  ASSERT_EQ(s.frames_kept(), 1u);
  EXPECT_EQ(s.frame(0).ordinal, 1u);  // only the newest survives
  EXPECT_EQ(s.frame(0).payload, p2);
}

TEST(Session, StateTokensAreStable) {
  EXPECT_STREQ(to_string(SessionState::kDetached), "detached");
  EXPECT_STREQ(to_string(SessionState::kAttached), "attached");
  EXPECT_STREQ(to_string(SessionState::kActive), "active");
  EXPECT_STREQ(to_string(SessionState::kDraining), "draining");
}

}  // namespace
}  // namespace wb::serve
