// Preallocated ingest ring: the admission queue between capture
// producers (NIC replay threads, trace feeds) and the dispatch loop.
//
// The ring is a fixed-capacity circular buffer of (session, record)
// items — every slot is allocated at construction, push is index
// arithmetic plus one record copy, and sessions read their items in
// place (at) before the service clears the ring, so the steady-state
// ingest path never allocates (the BENCH_serve gate pins this at 0
// allocs/record).
//
// Backpressure is an explicit policy chosen at construction, not an
// accident of container growth:
//
//   kBlockProducer  a full ring *rejects* the push; the caller must drain
//                   (CaptureService::submit responds by running the
//                   dispatch loop inline, then retrying — the
//                   deterministic, virtual-time analogue of a producer
//                   blocking on a consumer). No record is ever lost.
//   kDropOldest     a full ring evicts its oldest item to admit the new
//                   one (freshness wins; the evicted item is handed back
//                   so the service can record the drop).
//   kDropNewest     a full ring refuses the incoming item (in-flight
//                   work wins).
//
// Every drop is recorded by the service through obs::ForensicsSink under
// DropStage::kIngest / DropReason::kBackpressure — the ring itself stays
// mechanical and observability-free so it can be unit-tested in
// isolation.
//
// Threading: push and clear come from the one externally synchronised
// driver thread (the CaptureService contract); between them, a dispatch
// only reads the ring, from one worker per session. No internal locking,
// no blocking waits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "wifi/capture.h"

namespace wb::serve {

enum class BackpressurePolicy : std::uint8_t {
  kBlockProducer,
  kDropOldest,
  kDropNewest,
};

/// Stable snake-case token (properties/export surface).
inline const char* to_string(BackpressurePolicy policy) noexcept {
  switch (policy) {
    case BackpressurePolicy::kBlockProducer: return "block_producer";
    case BackpressurePolicy::kDropOldest: return "drop_oldest";
    case BackpressurePolicy::kDropNewest: return "drop_newest";
  }
  return "unknown";
}

/// One queued capture record, tagged with its session.
struct IngestItem {
  std::uint32_t session = 0;
  wifi::CaptureRecord record{};
};

/// What push() did with the offered item.
enum class PushOutcome : std::uint8_t {
  kAccepted,         ///< stored; ring had room
  kAcceptedEvicted,  ///< stored; the oldest item was evicted into `evicted`
  kDroppedNewest,    ///< refused; ring full under kDropNewest
  kRejectedFull,     ///< refused; ring full under kBlockProducer — drain and retry
};

class IngestRing {
 public:
  IngestRing(std::size_t capacity, BackpressurePolicy policy)
      : slots_(capacity), policy_(policy) {
    WB_REQUIRE(capacity > 0, "ingest ring capacity must be positive");
  }

  IngestRing(const IngestRing&) = delete;
  IngestRing& operator=(const IngestRing&) = delete;

  /// Offers `item`. `evicted` is written only when the outcome is
  /// kAcceptedEvicted. Never allocates.
  PushOutcome push(const IngestItem& item, IngestItem& evicted) {
    if (count_ == slots_.size()) {
      switch (policy_) {
        case BackpressurePolicy::kBlockProducer:
          return PushOutcome::kRejectedFull;
        case BackpressurePolicy::kDropNewest:
          return PushOutcome::kDroppedNewest;
        case BackpressurePolicy::kDropOldest:
          evicted = slots_[head_];
          head_ = wrap(head_ + 1);
          --count_;
          store(item);
          return PushOutcome::kAcceptedEvicted;
      }
    }
    store(item);
    if (count_ > depth_peak_) depth_peak_ = count_;
    return PushOutcome::kAccepted;
  }

  /// The i-th oldest item, i < size(). Read-only: every session walks
  /// the same ring to pick out its own items.
  const IngestItem& at(std::size_t i) const {
    WB_REQUIRE(i < count_, "ring index out of range");
    return slots_[wrap(head_ + i)];
  }

  /// Empties the ring once its items are consumed; the head moves past
  /// them.
  void clear() noexcept {
    head_ = wrap(head_ + count_);
    count_ = 0;
  }

  std::size_t size() const noexcept { return count_; }
  std::size_t capacity() const noexcept { return slots_.size(); }
  bool empty() const noexcept { return count_ == 0; }
  bool full() const noexcept { return count_ == slots_.size(); }
  BackpressurePolicy policy() const noexcept { return policy_; }
  /// High-water mark of size() since construction.
  std::size_t depth_peak() const noexcept { return depth_peak_; }

 private:
  /// Slot of logical position i in [0, 2 * capacity).
  std::size_t wrap(std::size_t i) const noexcept {
    return i >= slots_.size() ? i - slots_.size() : i;
  }
  void store(const IngestItem& item) {
    slots_[wrap(head_ + count_)] = item;
    ++count_;
  }

  std::vector<IngestItem> slots_;  ///< preallocated; never resized
  std::size_t head_ = 0;           ///< index of the oldest item
  std::size_t count_ = 0;
  std::size_t depth_peak_ = 0;
  BackpressurePolicy policy_;
};

}  // namespace wb::serve
