// Tests of the benchmark's correctness checks: each check passes on
// correct outputs and fires when its expectation is corrupted. Exits 0
// when every case holds; prints each failing case otherwise.
//
//   perfbench_checks_test
#include <cstdio>
#include <vector>

#include "checks.h"
#include "inputs.h"
#include "reader/decode_workspace.h"
#include "reader/uplink_decoder.h"

namespace {

using namespace wb;
using namespace wb::perfbench;

int g_failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    ++g_failures;
    std::printf("FAIL: %s\n", what);
  }
}

constexpr TimeUs kBit{5'000};
constexpr TimeUs kFrame{185'000};

BitVec bits(std::initializer_list<int> b) {
  BitVec v;
  for (const int x : b) v.push_back(static_cast<std::uint8_t>(x));
  return v;
}

/// batch_decode's payload check on a real decode of the CSI corpus.
void batch_payload_check() {
  SimTiming timing;
  const BatchInputs in = make_batch_inputs(7, timing);
  const reader::UplinkDecoder dec(in.csi_config);
  reader::DecodeWorkspace ws;
  std::vector<reader::UplinkDecodeResult> out;
  dec.decode_batch_into(in.csi.traces, ws, out);
  std::vector<const BitVec*> decoded;
  for (const auto& r : out) decoded.push_back(r.found ? &r.payload : nullptr);

  expect(check_batch_payloads("csi", in.csi.payloads, decoded).empty(),
         "batch: real decode matches the transmitted payloads");
  std::vector<BitVec> corrupted = in.csi.payloads;
  corrupted[3][5] ^= 1u;
  expect(check_batch_payloads("csi", corrupted, decoded).size() == 1,
         "batch: a flipped expected bit fires");
  std::vector<const BitVec*> lost = decoded;
  lost[0] = nullptr;
  expect(!check_batch_payloads("csi", in.csi.payloads, lost).empty(),
         "batch: a missing decode fires");
  corrupted.pop_back();
  expect(!check_batch_payloads("csi", corrupted, decoded).empty(),
         "batch: a result count mismatch fires");
}

void frame_match_check() {
  const std::vector<TrueFrame> truth = {
      {TimeUs{1'000'000}, bits({1, 0, 1, 1})},
      {TimeUs{3'000'000}, bits({0, 0, 1, 0})},
  };
  const std::vector<EmittedFrame> emitted = {
      {TimeUs{1'000'400}, bits({1, 0, 1, 1})},   // within one bit
      {TimeUs{1'185'000}, bits({1, 1, 1, 1})},   // spurious, after frame 0
      {TimeUs{3'000'000}, bits({0, 0, 1, 0})},
  };
  const std::vector<TimeUs> seen = {TimeUs{1'230'000}, TimeUs{1'400'000},
                                    TimeUs{3'200'000}};
  FrameMatch m;
  expect(match_frames(truth, emitted, seen, kBit, kFrame, m).empty(),
         "serve: exact frames match");
  expect(m.recovered == 2 && m.spurious == 1 &&
             m.partial_preamble_losses == 0,
         "serve: recovered and spurious counts");
  expect(m.delays.size() == 2 && m.delays[0] == TimeUs{45'000},
         "serve: delay runs from frame end to first sighting");

  std::vector<TrueFrame> corrupted = truth;
  corrupted[1].payload[2] ^= 1u;
  expect(!match_frames(corrupted, emitted, seen, kBit, kFrame, m).empty(),
         "serve: a synced frame with a corrupted expected payload fires");

  corrupted = truth;
  corrupted[1].start_us = TimeUs{2'500'000};  // nothing emitted near it
  expect(!match_frames(corrupted, emitted, seen, kBit, kFrame, m).empty(),
         "serve: an unexplained lost frame fires");

  // The partial-preamble fault: an emission starting inside the frame
  // before a true start, overlapping it, loses that frame.
  const std::vector<EmittedFrame> early = {
      {TimeUs{2'900'000}, bits({0, 1, 1, 0})},
  };
  const std::vector<TrueFrame> one = {truth[1]};
  expect(match_frames(one, early, {TimeUs{3'100'000}}, kBit, kFrame, m)
                 .empty() &&
             m.partial_preamble_losses == 1 && m.recovered == 0,
         "serve: a partial-preamble loss is counted, not a violation");
}

void same_frames_check() {
  const std::vector<EmittedFrame> a = {
      {TimeUs{1'000'000}, bits({1, 0})},
      {TimeUs{2'000'000}, bits({0, 1})},
  };
  expect(check_same_frames(0, a, a).empty(), "standalone: equal lists pass");
  auto b = a;
  b[1].start_us = TimeUs{2'000'001};
  expect(!check_same_frames(0, a, b).empty(), "standalone: a moved start fires");
  b = a;
  b[0].payload[0] ^= 1u;
  expect(!check_same_frames(0, a, b).empty(),
         "standalone: a different payload fires");
  b = a;
  b.pop_back();
  expect(!check_same_frames(0, a, b).empty(),
         "standalone: a missing frame fires");
}

void ledger_check() {
  const LedgerView ok{100, 100, 0, 0, 100, 100};
  expect(check_ledger(ok).empty(), "ledger: balanced ledger passes");
  LedgerView bad = ok;
  bad.attempts = 101;
  expect(!check_ledger(bad).empty(), "ledger: attempts != decodes + drops");
  bad = ok;
  bad.decodes = 99;
  bad.drops = 1;
  bad.backpressure_drops = 1;
  expect(!check_ledger(bad).empty(), "ledger: a backpressure drop fires");
  bad = ok;
  bad.routed = 99;
  expect(!check_ledger(bad).empty(), "ledger: routed != submitted fires");
}

}  // namespace

int main() {
  batch_payload_check();
  frame_match_check();
  same_frames_check();
  ledger_check();
  if (g_failures == 0) std::printf("perfbench checks: all cases hold\n");
  return g_failures == 0 ? 0 : 1;
}
