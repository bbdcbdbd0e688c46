#include "serve/ingest_ring.h"

#include <gtest/gtest.h>

#include "util/check.h"

namespace wb::serve {
namespace {

IngestItem item_at(std::uint32_t session, std::int64_t ts) {
  IngestItem it;
  it.session = session;
  it.record.timestamp_us = TimeUs{ts};
  return it;
}

TEST(IngestRing, AcceptsUpToCapacityAndPopsFifo) {
  IngestRing ring(4, BackpressurePolicy::kBlockProducer);
  IngestItem evicted;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.push(item_at(7, 100 + i), evicted),
              PushOutcome::kAccepted);
  }
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.at(i).session, 7u);
    EXPECT_EQ(ring.at(i).record.timestamp_us,
              TimeUs{100 + static_cast<std::int64_t>(i)});
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  EXPECT_THROW(ring.at(0), ContractViolation);
}

TEST(IngestRing, BlockProducerRejectsWhenFull) {
  IngestRing ring(2, BackpressurePolicy::kBlockProducer);
  IngestItem evicted;
  ring.push(item_at(0, 1), evicted);
  ring.push(item_at(0, 2), evicted);
  EXPECT_EQ(ring.push(item_at(0, 3), evicted), PushOutcome::kRejectedFull);
  // Nothing was lost or admitted: the ring still holds exactly 1, 2.
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at(0).record.timestamp_us, TimeUs{1});
  EXPECT_EQ(ring.at(1).record.timestamp_us, TimeUs{2});
}

TEST(IngestRing, DropOldestEvictsHeadAndAdmits) {
  IngestRing ring(2, BackpressurePolicy::kDropOldest);
  IngestItem evicted;
  ring.push(item_at(1, 10), evicted);
  ring.push(item_at(2, 20), evicted);
  EXPECT_EQ(ring.push(item_at(3, 30), evicted),
            PushOutcome::kAcceptedEvicted);
  // The oldest item is handed back for forensic accounting.
  EXPECT_EQ(evicted.session, 1u);
  EXPECT_EQ(evicted.record.timestamp_us, TimeUs{10});
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at(0).record.timestamp_us, TimeUs{20});
  EXPECT_EQ(ring.at(1).record.timestamp_us, TimeUs{30});
}

TEST(IngestRing, DropNewestRefusesIncoming) {
  IngestRing ring(2, BackpressurePolicy::kDropNewest);
  IngestItem evicted;
  ring.push(item_at(1, 10), evicted);
  ring.push(item_at(2, 20), evicted);
  EXPECT_EQ(ring.push(item_at(3, 30), evicted), PushOutcome::kDroppedNewest);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.at(0).record.timestamp_us, TimeUs{10});
}

TEST(IngestRing, WrapAroundKeepsFifoOrder) {
  IngestRing ring(3, BackpressurePolicy::kBlockProducer);
  IngestItem evicted;
  // Interleave pushes and clears of two items so head/tail wrap several
  // times.
  for (std::int64_t base = 0; base < 30; base += 2) {
    for (std::int64_t k = 0; k < 2; ++k) {
      ASSERT_EQ(ring.push(item_at(0, base + k), evicted),
                PushOutcome::kAccepted);
    }
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(ring.at(k).record.timestamp_us,
                TimeUs{base + static_cast<std::int64_t>(k)});
    }
    ring.clear();
  }
}

TEST(IngestRing, DepthPeakTracksHighWater) {
  IngestRing ring(8, BackpressurePolicy::kBlockProducer);
  IngestItem evicted;
  ring.push(item_at(0, 1), evicted);
  ring.push(item_at(0, 2), evicted);
  ring.push(item_at(0, 3), evicted);
  EXPECT_EQ(ring.depth_peak(), 3u);
  ring.clear();
  EXPECT_EQ(ring.depth_peak(), 3u);  // peak is monotone
  ring.push(item_at(0, 4), evicted);
  ring.push(item_at(0, 5), evicted);
  ring.push(item_at(0, 6), evicted);
  EXPECT_EQ(ring.depth_peak(), 3u);
  ring.push(item_at(0, 7), evicted);
  EXPECT_EQ(ring.depth_peak(), 4u);
}

TEST(IngestRing, ZeroCapacityIsAContractViolation) {
  ScopedContractPolicy guard(ContractPolicy::kThrow);
  EXPECT_THROW(IngestRing(0, BackpressurePolicy::kBlockProducer),
               ContractViolation);
}

TEST(IngestRing, PolicyTokensAreStable) {
  EXPECT_STREQ(to_string(BackpressurePolicy::kBlockProducer),
               "block_producer");
  EXPECT_STREQ(to_string(BackpressurePolicy::kDropOldest), "drop_oldest");
  EXPECT_STREQ(to_string(BackpressurePolicy::kDropNewest), "drop_newest");
}

}  // namespace
}  // namespace wb::serve
