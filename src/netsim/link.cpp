#include "netsim/link.hpp"

#include <cassert>
#include <utility>

namespace qv::netsim {

Link::Link(Simulator& sim, BitsPerSec rate, TimeNs propagation_delay,
           std::unique_ptr<sched::Scheduler> queue, Deliver deliver)
    : sim_(sim), rate_(rate), prop_delay_(propagation_delay),
      queue_(std::move(queue)), deliver_(std::move(deliver)) {
  assert(rate_ > 0);
  assert(queue_ != nullptr);
  assert(deliver_);
}

Link::~Link() {
  if (drain_timer_ != 0) sim_.destroy_timer(drain_timer_);
}

void Link::account_queue(TimeNs now) {
  backlog_integral_ +=
      static_cast<double>(queue_->buffered_bytes()) *
      static_cast<double>(now - backlog_updated_at_);
  backlog_updated_at_ = now;
}

void Link::transmit(const Packet& p) {
  if (!up_) {
    ++faults_.offered_while_down;
    faults_.offered_while_down_bytes +=
        static_cast<std::uint64_t>(p.size_bytes);
    return;
  }
  account_queue(sim_.now());
  if (obs::Tracer* tr = sched_tracer()) {
    // Counter deltas distinguish the three outcomes (acceptance,
    // rejection, eviction of a buffered victim) without touching the
    // scheduler interface.
    const sched::SchedulerCounters& c = queue_->counters();
    const std::uint64_t drops_before = c.dropped;
    queue_->enqueue(p, sim_.now());
    if (c.dropped != drops_before) {
      tr->instant(obs::TraceCategory::kSched, "drop", sim_.now(), trace_tid_,
                  "rank", p.rank);
    } else {
      tr->instant(obs::TraceCategory::kSched, "enqueue", sim_.now(),
                  trace_tid_, "rank", p.rank);
    }
  } else {
    queue_->enqueue(p, sim_.now());
  }
  if (!busy_) start_next();
}

void Link::transmit_burst(std::span<Packet> burst) {
  if (!up_) {
    faults_.offered_while_down += burst.size();
    for (const Packet& p : burst) {
      faults_.offered_while_down_bytes +=
          static_cast<std::uint64_t>(p.size_bytes);
    }
    return;
  }
  account_queue(sim_.now());
  if (obs::Tracer* tr = sched_tracer()) {
    const sched::SchedulerCounters& c = queue_->counters();
    const std::uint64_t drops_before = c.dropped;
    const std::size_t accepted = queue_->enqueue_batch(burst, sim_.now());
    tr->instant(obs::TraceCategory::kSched, "enqueue_burst", sim_.now(),
                trace_tid_, "accepted", accepted);
    if (c.dropped != drops_before) {
      tr->instant(obs::TraceCategory::kSched, "drop", sim_.now(), trace_tid_,
                  "count", c.dropped - drops_before);
    }
  } else {
    queue_->enqueue_batch(burst, sim_.now());
  }
  if (!busy_) start_next();
}

void Link::start_next() {
  if (sim_.coalesced_drains()) {
    start_coalesced();
  } else {
    start_per_event();
  }
}

void Link::start_per_event() {
  if (!up_) {
    busy_ = false;
    return;
  }
  account_queue(sim_.now());
  auto next = queue_->dequeue(sim_.now());
  if (!next) {
    busy_ = false;
    return;
  }
  busy_ = true;
  busy_since_ = sim_.now();
  const TimeNs ser = serialization_delay(next->size_bytes, rate_);
  if (obs::Tracer* tr = sched_tracer()) {
    // The dequeued packet occupies the wire for `ser` — a span in
    // SIMULATED time on this port's lane.
    tr->complete(obs::TraceCategory::kSched, "tx", sim_.now(), ser,
                 trace_tid_, "rank", next->rank);
  }
  const Packet pkt = *next;
  // Last bit leaves at now+ser; it arrives prop_delay later. Both
  // continuations capture the down-epoch they started under: if the
  // link went down in between, the bits on the wire are gone.
  const std::uint64_t epoch = down_epoch_;
  sim_.after(ser, [this, pkt, ser, epoch] {
    if (epoch != down_epoch_) {
      // Cable pulled mid-serialization. set_up(false) already closed
      // the busy interval; the packet never made it onto the far wire.
      ++faults_.inflight_dropped;
      faults_.inflight_dropped_bytes +=
          static_cast<std::uint64_t>(pkt.size_bytes);
      return;
    }
    busy_accum_ += ser;
    bytes_transmitted_ += pkt.size_bytes;
    if (loss_prob_ > 0.0 || corrupt_prob_ > 0.0) {
      // Loss/corruption is decided once the packet has consumed its
      // wire time, from the per-link fault RNG (replay-deterministic).
      if (fault_rng_.next_bool(loss_prob_)) {
        ++faults_.lost;
        faults_.lost_bytes += static_cast<std::uint64_t>(pkt.size_bytes);
        start_per_event();
        return;
      }
      if (fault_rng_.next_bool(corrupt_prob_)) {
        // The receiver discards a corrupted frame; on the wire it is
        // indistinguishable from loss except for the counter.
        ++faults_.corrupted;
        faults_.corrupted_bytes +=
            static_cast<std::uint64_t>(pkt.size_bytes);
        start_per_event();
        return;
      }
    }
    sim_.after(prop_delay_, [this, pkt, epoch] {
      if (epoch != down_epoch_) {
        ++faults_.inflight_dropped;
        faults_.inflight_dropped_bytes +=
            static_cast<std::uint64_t>(pkt.size_bytes);
        return;
      }
      deliver_(std::span<const Packet>(&pkt, 1));
    });
    start_per_event();
  });
}

// --- coalesced drain --------------------------------------------------
//
// Correctness frame: every sub-step below has a reference twin — the
// event the per-event path would have scheduled, at the same timestamp
// and with the SAME schedule sequence number (reserved at the exact
// moment the reference would have called schedule). Only the (at, seq)
// front of steps_ is on the event queue, through the link's persistent
// drain timer; each fire runs exactly that one sub-step and re-arms the
// timer for the next. The queue's (at, seq) order therefore settles
// every tie exactly as the reference, and the handler bodies below run
// at the same logical time, in the same global order, reading the same
// link state (epochs, loss probabilities, RNG cursor) — so flows.csv
// and metrics.json come out byte-identical.

void Link::push_step(SubStep&& s) {
  // New sub-steps are almost always the latest; insertion-sort from
  // the back keeps the vector (at, seq)-ordered. The pending set is
  // tiny: one serialization finish per chain plus in-flight arrivals.
  auto it = steps_.end();
  while (it != steps_.begin()) {
    auto prev = it - 1;
    if (prev->at < s.at || (prev->at == s.at && prev->seq < s.seq)) break;
    --it;
  }
  steps_.insert(it, std::move(s));
}

void Link::start_coalesced() {
  if (!up_) {
    busy_ = false;
    return;
  }
  const TimeNs now = sim_.now();
  account_queue(now);
  auto next = queue_->dequeue(now);
  if (!next) {
    busy_ = false;
    return;
  }
  busy_ = true;
  busy_since_ = now;
  const TimeNs ser = serialization_delay(next->size_bytes, rate_);
  if (obs::Tracer* tr = sched_tracer()) {
    tr->complete(obs::TraceCategory::kSched, "tx", now, ser, trace_tid_,
                 "rank", next->rank);
  }
  SubStep s;
  s.pkt = std::move(*next);
  s.at = now + ser;
  s.seq = sim_.reserve_seq();  // the reference's sim_.after(ser, ...)
  s.epoch = down_epoch_;
  s.ser = ser;
  s.kind = SubStep::kSerDone;
  push_step(std::move(s));
  refresh_drain_event();
}

void Link::process_ser_done(SubStep& s) {
  if (s.epoch != down_epoch_) {
    // Cable pulled mid-serialization (the pull closed the busy
    // interval); the packet never made it onto the far wire.
    ++faults_.inflight_dropped;
    faults_.inflight_dropped_bytes +=
        static_cast<std::uint64_t>(s.pkt.size_bytes);
    return;
  }
  busy_accum_ += s.ser;
  bytes_transmitted_ += s.pkt.size_bytes;
  if (loss_prob_ > 0.0 || corrupt_prob_ > 0.0) {
    if (fault_rng_.next_bool(loss_prob_)) {
      ++faults_.lost;
      faults_.lost_bytes += static_cast<std::uint64_t>(s.pkt.size_bytes);
      start_coalesced();
      return;
    }
    if (fault_rng_.next_bool(corrupt_prob_)) {
      ++faults_.corrupted;
      faults_.corrupted_bytes +=
          static_cast<std::uint64_t>(s.pkt.size_bytes);
      start_coalesced();
      return;
    }
  }
  // Stage the arrival BEFORE dequeuing the next packet — the order the
  // reference schedules (and therefore draws sequence numbers) in.
  SubStep a;
  a.pkt = std::move(s.pkt);
  a.at = sim_.now() + prop_delay_;
  a.seq = sim_.reserve_seq();  // the reference's sim_.after(prop, ...)
  a.epoch = s.epoch;
  a.kind = SubStep::kArrive;
  push_step(std::move(a));
  start_coalesced();
}

void Link::process_arrival(SubStep& s) {
  if (s.epoch != down_epoch_) {
    ++faults_.inflight_dropped;
    faults_.inflight_dropped_bytes +=
        static_cast<std::uint64_t>(s.pkt.size_bytes);
    return;
  }
  deliver_(std::span<const Packet>(&s.pkt, 1));
}

void Link::on_drain() {
  drain_armed_ = false;
  assert(!steps_.empty() && steps_.front().at == sim_.now());
  SubStep s = std::move(steps_.front());
  steps_.erase(steps_.begin());
  if (s.kind == SubStep::kSerDone) {
    process_ser_done(s);
  } else {
    process_arrival(s);
  }
  refresh_drain_event();
}

void Link::refresh_drain_event() {
  if (steps_.empty()) {
    if (drain_armed_) {
      sim_.disarm_timer(drain_timer_);
      drain_armed_ = false;
    }
    return;
  }
  const SubStep& front = steps_.front();
  if (drain_armed_) {
    if (drain_at_ == front.at && drain_seq_ == front.seq) return;
    // A nearer sub-step displaced the materialized one (a new chain
    // started behind in-flight arrivals on a long-propagation wire);
    // re-point the timer, keeping the front's reserved sequence number
    // so global order is untouched.
    sim_.disarm_timer(drain_timer_);
  }
  if (drain_timer_ == 0) {
    drain_timer_ = sim_.make_timer(
        [](void* self) { static_cast<Link*>(self)->on_drain(); }, this);
  }
  drain_at_ = front.at;
  drain_seq_ = front.seq;
  sim_.arm_timer(drain_timer_, front.at, front.seq);
  drain_armed_ = true;
}

void Link::set_up(bool up) {
  if (up == up_) return;
  const TimeNs now = sim_.now();
  if (!up) {
    up_ = false;
    ++down_epoch_;
    down_since_ = now;
    if (busy_) {
      // The wire was occupied up to the pull; the serialization
      // continuation will see the stale epoch and count the drop.
      busy_accum_ += now - busy_since_;
      busy_ = false;
    }
    if (obs::Tracer* tr = runtime_tracer()) {
      tr->instant(obs::TraceCategory::kRuntime, "link:down", now, trace_tid_);
    }
    return;
  }
  up_ = true;
  if (obs::Tracer* tr = runtime_tracer()) {
    // One span covering the whole outage makes flaps legible in
    // Perfetto without stitching down/up instants together.
    tr->complete(obs::TraceCategory::kRuntime, "link:outage", down_since_,
                 now - down_since_, trace_tid_);
  }
  if (!busy_) start_next();
}

void Link::set_loss(double loss_prob, double corrupt_prob) {
  loss_prob_ = loss_prob < 0.0 ? 0.0 : (loss_prob > 1.0 ? 1.0 : loss_prob);
  corrupt_prob_ =
      corrupt_prob < 0.0 ? 0.0 : (corrupt_prob > 1.0 ? 1.0 : corrupt_prob);
}

double Link::utilization(TimeNs now) const {
  if (now <= 0) return 0.0;
  TimeNs busy_time = busy_accum_;
  if (busy_) busy_time += now - busy_since_;
  return static_cast<double>(busy_time) / static_cast<double>(now);
}

double Link::mean_queue_bytes(TimeNs now) const {
  if (now <= 0) return 0.0;
  double integral = backlog_integral_;
  integral += static_cast<double>(queue_->buffered_bytes()) *
              static_cast<double>(now - backlog_updated_at_);
  return integral / static_cast<double>(now);
}

void Link::replace_queue(std::unique_ptr<sched::Scheduler> queue) {
  assert(queue_->empty());
  assert(queue != nullptr);
  queue_ = std::move(queue);
}

}  // namespace qv::netsim
