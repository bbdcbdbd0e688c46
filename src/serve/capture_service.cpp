#include "serve/capture_service.h"

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "runner/indexed_for.h"
#include "util/check.h"
#include "wifi/trace_io.h"

namespace wb::serve {

CaptureService::CaptureService(const ServeConfig& cfg)
    : cfg_(cfg),
      ring_(cfg.ring_capacity, cfg.policy),
      slots_(cfg.max_sessions),
      ingest_sink_(cfg.forensics_exemplar_cap),
      dispatch_order_(cfg.max_sessions, nullptr),
      per_session_(cfg.max_sessions, 0) {
  WB_REQUIRE(cfg.max_sessions > 0, "service needs at least one session slot");
  for (auto& slot : slots_) slot = std::make_unique<Session>(cfg);
}

Error CaptureService::attach(std::uint32_t session) {
  if (state_ == ServiceState::kStopped) {
    return Error::make(ErrorCode::kWrongState, "service is stopped");
  }
  Session* free_slot = nullptr;
  for (const auto& slot : slots_) {
    if (slot->state() != SessionState::kDetached) {
      if (slot->id() == session) {
        return Error::make(ErrorCode::kAlreadyExists,
                           "session " + std::to_string(session) +
                               " is already attached");
      }
      continue;
    }
    if (free_slot == nullptr) free_slot = slot.get();
  }
  if (free_slot == nullptr) {
    return Error::make(ErrorCode::kCapacity,
                       "all " + std::to_string(slots_.size()) +
                           " session slots are busy");
  }
  free_slot->attach(session);
  ++counters_.attached_total;
  state_ = ServiceState::kServing;
  if (auto* rec = obs::recorder()) {
    rec->log(TimeUs{0}, obs::Severity::kInfo, "serve.service",
             "session_attached", {{"session", static_cast<double>(session)}});
  }
  return Error::success();
}

Error CaptureService::detach(std::uint32_t session) {
  if (state_ == ServiceState::kStopped) {
    return Error::make(ErrorCode::kWrongState, "service is stopped");
  }
  Session* s = slot_of(session);
  if (s == nullptr) {
    return Error::make(ErrorCode::kNotFound,
                       "session " + std::to_string(session) +
                           " is not attached");
  }
  // Drain everything still queued for any session (ring items cannot be
  // selectively extracted), then flush this session's decoder tail so no
  // decodable frame is lost.
  dispatch_ring();
  s->flush();
  retire_forensics(session, s->forensics_sink());
  s->detach();
  ++counters_.detached_total;
  if (active_sessions() == 0 && state_ == ServiceState::kServing) {
    state_ = ServiceState::kIdle;
  }
  if (auto* rec = obs::recorder()) {
    rec->log(TimeUs{0}, obs::Severity::kInfo, "serve.service",
             "session_detached", {{"session", static_cast<double>(session)}});
  }
  return Error::success();
}

Error CaptureService::submit(std::uint32_t session,
                             const wifi::CaptureRecord& rec) {
  if (state_ == ServiceState::kStopped || state_ == ServiceState::kDraining) {
    return Error::make(ErrorCode::kWrongState,  // wb-analyze: allow(realtime-alloc): reject-path error message; the accept path below is allocation-free (0 allocs/record per BENCH_serve)
                       std::string("submit while ") + to_string(state_));
  }
  if (slot_of(session) == nullptr) {
    return Error::make(ErrorCode::kNotFound,  // wb-analyze: allow(realtime-alloc): reject-path error message; the accept path below is allocation-free (0 allocs/record per BENCH_serve)
                       "session " + std::to_string(session) +
                           " is not attached");
  }
  ++counters_.submitted;
  IngestItem item;
  item.session = session;
  item.record = rec;
  IngestItem evicted;
  for (;;) {
    switch (ring_.push(item, evicted)) {
      case PushOutcome::kAccepted:
        ingest_sink_.record_attempt(obs::DropStage::kIngest);
        ++counters_.accepted;
        return Error::success();
      case PushOutcome::kAcceptedEvicted:
        ingest_sink_.record_attempt(obs::DropStage::kIngest);
        ++counters_.accepted;
        record_backpressure_drop(evicted);
        return Error::success();
      case PushOutcome::kDroppedNewest:
        // The submit succeeded; the *record* was shed by policy. The
        // drop is visible in forensics, not in the error code.
        ingest_sink_.record_attempt(obs::DropStage::kIngest);
        record_backpressure_drop(item);
        return Error::success();
      case PushOutcome::kRejectedFull:
        // Block-producer, virtual-time style: the producer "blocks" by
        // driving the consumer inline, then retries. Deterministic, and
        // guaranteed to make room — the ring is non-empty here.
        ++counters_.blocked;
        dispatch_ring();
        break;
    }
  }
}

std::size_t CaptureService::poll() { return dispatch_ring(); }

std::size_t CaptureService::drain_all() {
  if (state_ == ServiceState::kStopped) return 0;
  const ServiceState resume =
      active_sessions() > 0 ? ServiceState::kServing : ServiceState::kIdle;
  state_ = ServiceState::kDraining;
  dispatch_ring();
  const std::size_t n = snapshot_attached(dispatch_order_.data());
  runner::for_each_index(cfg_.dispatch_threads, n, [this](std::size_t i) {
    per_session_[i] = dispatch_order_[i]->flush();
  });
  std::size_t frames = 0;
  for (std::size_t i = 0; i < n; ++i) frames += per_session_[i];
  state_ = resume;
  return frames;
}

Error CaptureService::stop() {
  if (state_ == ServiceState::kStopped) return Error::success();
  drain_all();
  const std::size_t n = snapshot_attached(dispatch_order_.data());
  for (std::size_t i = 0; i < n; ++i) {
    Session* s = dispatch_order_[i];
    retire_forensics(s->id(), s->forensics_sink());
    s->detach();
    ++counters_.detached_total;
  }
  state_ = ServiceState::kStopped;
  return Error::success();
}

std::size_t CaptureService::dispatch_ring() {
  const std::size_t routed = ring_.size();
  if (routed == 0) return 0;
  // Each session walks the ring for its own items, in ring order. Per-
  // session outputs are identical inline and on workers by construction
  // (private sinks, suppressed thread-ambient observability).
  const std::size_t n = snapshot_attached(dispatch_order_.data());
  runner::for_each_index(  // wb-analyze: allow(realtime-blocking): opted-in worker fan-out (dispatch_threads > 1) synchronizes at batch boundaries by design; at the default dispatch_threads = 1 it runs inline and starts no thread
      cfg_.dispatch_threads, n, [this](std::size_t i) {
        per_session_[i] = dispatch_order_[i]->consume(ring_);
      });
  std::size_t consumed = 0;
  for (std::size_t i = 0; i < n; ++i) consumed += per_session_[i];
  // submit() validates attachment and detach() drains the ring first, so
  // a ring item always targets a live session — and session ids are
  // unique, so the walks consumed every item exactly once.
  WB_INVARIANT(consumed == routed, "ring item targets a detached session");
  for (std::size_t i = 0; i < routed; ++i) {
    ingest_sink_.record_decode(obs::DropStage::kIngest);
  }
  ring_.clear();
  counters_.routed += routed;
  ++counters_.dispatch_batches;
  return routed;
}

Session* CaptureService::slot_of(std::uint32_t session) const noexcept {
  for (const auto& slot : slots_) {
    if (slot->state() != SessionState::kDetached && slot->id() == session) {
      return slot.get();
    }
  }
  return nullptr;
}

std::size_t CaptureService::active_sessions() const noexcept {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot->state() != SessionState::kDetached) ++n;
  }
  return n;
}

std::size_t CaptureService::snapshot_attached(Session** out) const {
  std::size_t n = 0;
  for (const auto& slot : slots_) {
    if (slot->state() == SessionState::kDetached) continue;
    // Insertion sort by id: the pool is small and mostly ordered.
    std::size_t pos = n;
    while (pos > 0 && out[pos - 1]->id() > slot->id()) {
      out[pos] = out[pos - 1];
      --pos;
    }
    out[pos] = slot.get();
    ++n;
  }
  return n;
}

void CaptureService::record_backpressure_drop(const IngestItem& victim) {
  ++counters_.dropped_backpressure;
  ingest_sink_.record_drop(obs::DropStage::kIngest,
                           obs::DropReason::kBackpressure);
  if (ingest_sink_.wants_exemplar(obs::DropStage::kIngest,
                                  obs::DropReason::kBackpressure)) {
    wifi::CaptureTrace one(1);
    one[0] = victim.record;
    ingest_sink_.add_exemplar(obs::DropStage::kIngest, obs::DropReason::kBackpressure,  // wb-analyze: allow(realtime-alloc): exemplar serialization is wants_exemplar-gated to the first exemplar_cap backpressure drops — cold by construction
                              wifi::capture_csv_string(one));
  }
  if (auto* rec = obs::recorder()) {
    rec->log(victim.record.timestamp_us, obs::Severity::kWarn, "serve.ingest",
             "backpressure_drop",
             {{"session", static_cast<double>(victim.session)}});
  }
}

void CaptureService::retire_forensics(std::uint32_t id,
                                      const obs::ForensicsSink& sink) {
  auto it = retired_.find(id);
  if (it != retired_.end()) {
    it->second->merge_from(sink);
    return;
  }
  if (retired_.size() < cfg_.retired_forensics_cap) {
    auto fresh =
        std::make_unique<obs::ForensicsSink>(cfg_.forensics_exemplar_cap);
    fresh->merge_from(sink);
    retired_.emplace(id, std::move(fresh));
    return;
  }
  if (retired_overflow_ == nullptr) {
    retired_overflow_ =
        std::make_unique<obs::ForensicsSink>(cfg_.forensics_exemplar_cap);
  }
  retired_overflow_->merge_from(sink);
}

std::uint64_t CaptureService::frames_total() const noexcept {
  std::uint64_t frames = 0;
  for (const auto& slot : slots_) {
    if (slot->state() != SessionState::kDetached) {
      frames += slot->frames_total();
    }
  }
  return frames;
}

std::vector<std::pair<std::string, std::string>> CaptureService::properties()
    const {
  return {
      {"dispatch.batches_total", std::to_string(counters_.dispatch_batches)},
      {"dispatch.records_total", std::to_string(counters_.routed)},
      {"ingest.accepted_total", std::to_string(counters_.accepted)},
      {"ingest.blocked_total", std::to_string(counters_.blocked)},
      {"ingest.dropped_backpressure_total",
       std::to_string(counters_.dropped_backpressure)},
      {"ingest.submitted_total", std::to_string(counters_.submitted)},
      {"ring.capacity", std::to_string(ring_.capacity())},
      {"ring.depth", std::to_string(ring_.size())},
      {"ring.depth_peak", std::to_string(ring_.depth_peak())},
      {"ring.policy", to_string(cfg_.policy)},
      {"service.state", to_string(state_)},
      {"sessions.active", std::to_string(active_sessions())},
      {"sessions.attached_total", std::to_string(counters_.attached_total)},
      {"sessions.detached_total", std::to_string(counters_.detached_total)},
      {"sessions.frames_total", std::to_string(frames_total())},
      {"sessions.max", std::to_string(slots_.size())},
  };
}

void CaptureService::publish_metrics() const {
  auto* m = obs::metrics();
  if (m == nullptr) return;
  m->counter("serve.ingest.submitted_total").add(counters_.submitted);
  m->counter("serve.ingest.accepted_total").add(counters_.accepted);
  m->counter("serve.ingest.blocked_total").add(counters_.blocked);
  m->counter("serve.ingest.dropped_backpressure_total")
      .add(counters_.dropped_backpressure);
  m->counter("serve.dispatch.records_total").add(counters_.routed);
  m->counter("serve.dispatch.batches_total").add(counters_.dispatch_batches);
  m->counter("serve.session.frames_total").add(frames_total());
  m->gauge("serve.ring.depth_peak_count")
      .max_of(static_cast<double>(ring_.depth_peak()));
  m->gauge("serve.session.active_count")
      .set(static_cast<double>(active_sessions()));
}

void CaptureService::merge_forensics_into(obs::ForensicsSink& out) const {
  out.merge_from(ingest_sink_);
  std::vector<Session*> live(slots_.size(), nullptr);
  const std::size_t n = snapshot_attached(live.data());
  std::size_t i = 0;
  auto it = retired_.begin();
  while (it != retired_.end() || i < n) {
    const bool take_retired =
        it != retired_.end() && (i >= n || it->first <= live[i]->id());
    if (take_retired) {
      out.merge_from(*it->second);
      ++it;
    } else {
      out.merge_from(live[i]->forensics_sink());
      ++i;
    }
  }
  if (retired_overflow_ != nullptr) out.merge_from(*retired_overflow_);
}

std::string CaptureService::forensics_jsonl() const {
  obs::ForensicsSink merged(cfg_.forensics_exemplar_cap);
  merge_forensics_into(merged);
  return merged.to_jsonl();
}

}  // namespace wb::serve
