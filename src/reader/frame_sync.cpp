#include "reader/frame_sync.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/check.h"

namespace wb::reader::frame_sync {

std::size_t min_filled_for(double fraction, std::size_t nslots) {
  WB_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
             "fill fraction must lie in [0, 1]");
  // For an integer count c, c >= x holds exactly when c >= ceil(x), so
  // the integer gate accepts the same windows as the fractional test.
  return std::max<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(fraction * static_cast<double>(nslots))),
      1);
}

void bin_window(const ConditionedTrace& ct, TimeUs start_us, TimeUs slot_us,
                std::size_t nslots, DecodeWorkspace& ws) {
  WB_REQUIRE(slot_us > TimeUs{}, "slot duration must be positive");
  const auto& ts = ct.timestamps;
  const TimeUs end = start_us + slot_us * static_cast<std::int64_t>(nslots);
  const auto first = std::lower_bound(ts.begin(), ts.end(), start_us);
  std::size_t k = static_cast<std::size_t>(first - ts.begin());
  const auto k_end = static_cast<std::size_t>(
      std::lower_bound(first, ts.end(), end) - ts.begin());
  ws.bin_first = k;
  ws.bin_nslots = nslots;
  ws.bin_count.assign(nslots, 0);
  ws.bin_slot_of.resize(k_end - k);
  for (std::size_t j = 0; k < k_end; ++k, ++j) {
    const auto slot =
        static_cast<std::uint32_t>((ts[k] - start_us) / slot_us);
    ws.bin_slot_of[j] = slot;
    ++ws.bin_count[slot];
  }
  ws.bin_filled = 0;
  for (const std::uint32_t c : ws.bin_count) {
    if (c > 0) ++ws.bin_filled;
  }
}

void bin_stream_sums(const ConditionedTrace& ct, std::size_t stream,
                     DecodeWorkspace& ws) {
  WB_REQUIRE(stream < ct.num_streams(), "stream index out of range");
  WB_REQUIRE(ct.streams[stream].size() == ct.timestamps.size(),
             "conditioned stream must cover every packet");
  const auto& xs = ct.streams[stream];
  ws.bin_sums.assign(ws.bin_nslots, 0.0);
  const std::size_t k0 = ws.bin_first;
  for (std::size_t j = 0; j < ws.bin_slot_of.size(); ++j) {
    ws.bin_sums[ws.bin_slot_of[j]] += xs[k0 + j];
  }
}

double score(const ConditionedTrace& ct, const Template& tmpl,
             TimeUs start_us, std::size_t g, DecodeWorkspace& ws) {
  WB_REQUIRE(g >= 1 && g <= ct.num_streams(),
             "top-G must select between one and every stream");
  WB_REQUIRE(tmpl.min_filled >= 1, "the fill gate needs a filled slot");
  const std::size_t nslots = tmpl.bipolar.size();
  const std::size_t nstreams = ct.num_streams();
  auto& corrs = ws.corrs;
  auto& order = ws.order;
  corrs.resize(nstreams);
  order.resize(nstreams);
  // One shared slot map per candidate start, then a contiguous
  // sum-accumulation pass per stream; each slot mean is one sum/count
  // division, accumulated in packet order.
  bin_window(ct, start_us, tmpl.slot_us, nslots, ws);
  const bool enough = ws.bin_filled >= tmpl.min_filled;
  for (std::size_t s = 0; s < nstreams; ++s) {
    if (!enough) {
      corrs[s] = 0.0;
      continue;
    }
    bin_stream_sums(ct, s, ws);
    double corr = 0.0;
    for (std::size_t i = 0; i < nslots; ++i) {
      if (ws.bin_count[i] == 0) continue;
      corr += (ws.bin_sums[i] / static_cast<double>(ws.bin_count[i])) *
              tmpl.bipolar[i];
    }
    corrs[s] = corr / static_cast<double>(ws.bin_filled);
  }
  for (std::size_t s = 0; s < nstreams; ++s) order[s] = s;
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(g),
                    order.end(), [&corrs](std::size_t a, std::size_t b) {
                      return std::abs(corrs[a]) > std::abs(corrs[b]);
                    });
  double total = 0.0;
  for (std::size_t i = 0; i < g; ++i) total += std::abs(corrs[order[i]]);
  return total / static_cast<double>(g);
}

Best search(const ConditionedTrace& ct, const Template& tmpl,
            const Grid& grid, std::size_t g, DecodeWorkspace& ws) {
  WB_REQUIRE(grid.to >= grid.from, "sync grid must satisfy to >= from");
  const TimeUs step = std::max(grid.step, TimeUs{1});
  Best best;
  bool has_best = false;
  for (TimeUs tau = grid.from; tau <= grid.to; tau += step) {
    const double s = score(ct, tmpl, tau, g, ws);
    if (ws.bin_filled >= tmpl.min_filled) best.any_filled = true;
    // First-max-wins: the strict `>` keeps the *earliest* tau among equal
    // peaks. Load-bearing and pinned by tests — a reassociated reduction
    // or a `>=` here would silently shift which frame start wins.
    if (!has_best || s > best.score) {
      has_best = true;
      best.start = tau;
      best.score = s;
      ws.best_streams.assign(ws.order.begin(),
                             ws.order.begin() + static_cast<long>(g));
      ws.best_corrs.resize(g);
      for (std::size_t i = 0; i < g; ++i) {
        ws.best_corrs[i] = ws.corrs[ws.order[i]];
      }
    }
  }
  return best;
}

}  // namespace wb::reader::frame_sync
