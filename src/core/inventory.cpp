#include "core/inventory.h"

#include <algorithm>

#include "core/frame.h"
#include "reader/uplink_decoder.h"
#include "tag/modulator.h"
#include "wifi/traffic.h"
#include "util/check.h"

namespace wb::core {
namespace {

constexpr TimeUs kLeadUs{600'000};  // fills the conditioning window

/// Bits in one inventory reply: 16-bit address through the uplink frame
/// layer (preamble + address + crc8 + postamble).
std::size_t reply_frame_bits() {
  return uplink_preamble().size() + uplink_payload_bits(16);
}

}  // namespace

InventoryResult run_inventory(std::span<const InventoryTag> tags,
                              const InventoryConfig& cfg) {
  InventoryResult result;
  WB_REQUIRE(!tags.empty(), "inventory needs at least one tag");

  sim::RngStream rng(cfg.seed);
  auto slot_rng = rng.fork("slot-choice");

  // Static placement: one channel realisation for the whole inventory.
  phy::UplinkChannelParams base;
  base.reader_pos = cfg.reader_pos;
  base.helper_pos = cfg.helper_pos;
  std::vector<phy::TagPlacement> placements;
  placements.reserve(tags.size());
  for (const auto& t : tags) placements.push_back(t.placement);
  phy::MultiTagUplinkChannel channel(base, placements,
                                     rng.fork("channel"));
  wifi::NicModel nic(cfg.nic, rng.fork("nic"));
  nic.calibrate(
      channel.response(std::vector<std::uint8_t>(tags.size(), 0), TimeUs{}));

  std::vector<bool> identified(tags.size(), false);
  std::size_t q = cfg.initial_q;
  const TimeUs bit_us = TimeUs::from_us(1e6 / cfg.bit_rate_bps);
  const TimeUs slot_us =
      bit_us * static_cast<std::int64_t>(reply_frame_bits());

  for (std::size_t round = 0; round < cfg.max_rounds; ++round) {
    const std::size_t remaining = static_cast<std::size_t>(
        std::count(identified.begin(), identified.end(), false));
    if (remaining == 0) break;

    const std::size_t slots = std::size_t{1} << q;
    InventoryRoundLog log;
    log.q = q;
    log.slots = slots;

    // Unidentified tags pick slots.
    std::vector<std::size_t> chosen(tags.size(), slots);  // slots == none
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (!identified[i]) chosen[i] = slot_rng.uniform_int(slots);
    }

    // Simulate the whole round as one continuous capture.
    const TimeUs round_dur = kLeadUs +
                             slot_us * static_cast<std::int64_t>(slots) +
                             TimeUs{100'000};
    auto traffic_rng = rng.fork("traffic", round);
    const auto timeline = wifi::make_cbr_timeline(
        cfg.helper_pps, round_dur, wifi::TrafficParams{}, traffic_rng);

    std::vector<tag::Modulator> mods;
    std::vector<std::size_t> mod_tag;
    for (std::size_t i = 0; i < tags.size(); ++i) {
      if (chosen[i] >= slots) continue;
      const BitVec frame =
          build_uplink_frame(unpack_uint(tags[i].address, 16));
      mods.emplace_back(
          frame, bit_us,
          kLeadUs + slot_us * static_cast<std::int64_t>(chosen[i]));
      mod_tag.push_back(i);
    }

    wifi::CaptureTrace trace;
    trace.reserve(timeline.size());
    std::vector<std::uint8_t> states(tags.size(), 0);
    for (const auto& pkt : timeline) {
      // CSI comes from the packet preamble: sample switch states at the
      // packet start, the same instant the decoder bins by.
      std::fill(states.begin(), states.end(), 0);
      for (std::size_t m = 0; m < mods.size(); ++m) {
        states[mod_tag[m]] = mods[m].state_at(pkt.start_us) ? 1 : 0;
      }
      trace.push_back(nic.measure(channel.response(states, pkt.start_us),
                                  pkt.start_us, pkt.source, pkt.kind));
    }
    const auto ct =
        reader::condition(trace, reader::MeasurementSource::kCsi);

    // Decode each slot.
    reader::DecodeWorkspace ws;
    reader::UplinkDecodeResult res;
    for (std::size_t slot = 0; slot < slots; ++slot) {
      std::vector<std::size_t> repliers;
      for (std::size_t i = 0; i < tags.size(); ++i) {
        if (chosen[i] == slot) repliers.push_back(i);
      }
      if (repliers.empty()) {
        ++log.empties;
        continue;
      }
      reader::UplinkDecoderConfig dec;
      dec.payload_bits = uplink_payload_bits(16);
      dec.bit_duration_us = bit_us;
      const TimeUs slot_start =
          kLeadUs + slot_us * static_cast<std::int64_t>(slot);
      dec.search_from = slot_start - bit_us;
      dec.search_to = slot_start + bit_us;
      const reader::UplinkDecoder decoder(dec);
      decoder.decode_conditioned_into(ct, ws, res);

      bool decoded_someone = false;
      if (res.found) {
        if (const auto data = parse_uplink_payload(res.payload, 16)) {
          const auto addr = static_cast<std::uint16_t>(pack_uint(*data));
          for (std::size_t i : repliers) {
            if (!identified[i] && tags[i].address == addr) {
              identified[i] = true;
              result.identified.push_back(addr);
              ++log.identified;
              decoded_someone = true;
              break;
            }
          }
        }
      }
      if (!decoded_someone && repliers.size() > 1) ++log.collisions;
    }

    result.elapsed_us += slot_us * static_cast<std::int64_t>(slots);
    result.rounds.push_back(log);

    // Gen-2-style Q adjustment: grow on collisions, shrink on emptiness.
    if (log.collisions > 0 && log.collisions >= log.identified &&
        q < cfg.max_q) {
      ++q;
    } else if (log.collisions == 0 && log.empties > slots / 2 && q > 1) {
      --q;
    }
  }

  result.complete = std::all_of(identified.begin(), identified.end(),
                                [](bool b) { return b; });
  return result;
}

}  // namespace wb::core
