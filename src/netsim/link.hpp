// Link: a unidirectional wire with an output queue (the scheduler under
// test), a serialization rate, and a propagation delay.
//
// Model: transmit() offers the packet to the scheduler. While packets
// are buffered, the link drains them one at a time — each occupies the
// wire for its serialization delay, then arrives at the destination
// after the propagation delay. This is the standard output-queued
// switch model (same as Netbench's).
//
// Drain engines (selected per Simulator; see Simulator::SimCore):
//
//   * per-event reference: every packet costs two queue events — a
//     serialization-finish continuation and a propagation (arrival)
//     continuation — exactly the pre-overhaul implementation;
//   * coalesced (default): the link keeps its pending sub-steps
//     (serialization finishes, arrivals) in a small (time, sequence)-
//     ordered vector and puts only the front one on the event queue,
//     through one persistent per-link timer. Each fire runs exactly
//     that sub-step and re-arms the timer for the next. Every sub-step
//     carries the schedule sequence number the reference would have
//     drawn for its twin event, so tie-break order against third-party
//     events — and therefore every artifact — is byte-identical. See
//     DESIGN.md (simulation core) for the contract.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "netsim/packet.hpp"
#include "netsim/simulator.hpp"
#include "obs/trace.hpp"
#include "sched/scheduler.hpp"
#include "util/random.hpp"
#include "util/units.hpp"

namespace qv::netsim {

/// Move-only small-buffer-optimized delivery delegate: EventFn's
/// idiom, but repeat-invocable and parameterized. Replaces
/// std::function on the per-packet delivery hot path — the typical
/// capture (one node pointer) lives inline, invocation is one indirect
/// call, and construction never allocates for captures that fit.
///
/// The callee receives a SPAN of packets whose last bits arrived at
/// the CURRENT simulated time, in order. Today's drain paths deliver
/// singleton spans (distinct arrival instants each get their own
/// call); the span shape is the contract for disciplines that emit
/// simultaneous arrivals.
class DeliverFn {
 public:
  static constexpr std::size_t kInlineSize = 32;

  DeliverFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, DeliverFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&,
                                      std::span<const Packet>>>>
  DeliverFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in
                      // for the old std::function at every call site
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (buf_) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      ::new (buf_) D*(new D(std::forward<F>(f)));
      ops_ = &heap_ops<D>;
    }
  }

  DeliverFn(DeliverFn&& other) noexcept { move_from(other); }
  DeliverFn& operator=(DeliverFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  DeliverFn(const DeliverFn&) = delete;
  DeliverFn& operator=(const DeliverFn&) = delete;
  ~DeliverFn() { reset(); }

  void operator()(std::span<const Packet> batch) {
    ops_->invoke(buf_, batch);
  }
  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*, std::span<const Packet>);
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* p, std::span<const Packet> b) { (*static_cast<D*>(p))(b); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* p, std::span<const Packet> b) { (**static_cast<D**>(p))(b); },
      [](void* dst, void* src) { ::new (dst) D*(*static_cast<D**>(src)); },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  void move_from(DeliverFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

/// Packets the wire itself lost, split by cause. These are DISTINCT
/// from the queue's drop counters: a fault drop happens after (or
/// instead of) queue admission, so network-level conservation is
///   offered == delivered + queue-dropped + fault-dropped + buffered.
struct LinkFaultCounters {
  std::uint64_t offered_while_down = 0;  ///< transmit() against a down link
  std::uint64_t offered_while_down_bytes = 0;
  std::uint64_t inflight_dropped = 0;  ///< on the wire when it went down
  std::uint64_t inflight_dropped_bytes = 0;
  std::uint64_t lost = 0;  ///< random per-packet loss
  std::uint64_t lost_bytes = 0;
  std::uint64_t corrupted = 0;  ///< random corruption (receiver discards)
  std::uint64_t corrupted_bytes = 0;

  std::uint64_t dropped() const {
    return offered_while_down + inflight_dropped + lost + corrupted;
  }
  std::uint64_t dropped_bytes() const {
    return offered_while_down_bytes + inflight_dropped_bytes + lost_bytes +
           corrupted_bytes;
  }
};

class Link {
 public:
  using Deliver = DeliverFn;

  /// `deliver` is invoked when a packet's last bit reaches the far end.
  Link(Simulator& sim, BitsPerSec rate, TimeNs propagation_delay,
       std::unique_ptr<sched::Scheduler> queue, Deliver deliver);
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Offer a packet for transmission (may be dropped by the queue).
  void transmit(const Packet& p);

  /// Offer a burst arriving together (the switch output-port path).
  /// One queue-accounting update plus one batch enqueue — QVISOR ports
  /// pre-process the whole span in a single pass. Packets may be
  /// rewritten and reordered in place.
  void transmit_burst(std::span<Packet> burst);

  /// True while a packet is being serialized onto the wire.
  bool busy() const { return busy_; }

  const sched::Scheduler& queue() const { return *queue_; }
  sched::Scheduler& queue() { return *queue_; }
  BitsPerSec rate() const { return rate_; }

  /// Bytes whose serialization onto the wire has completed.
  std::int64_t bytes_transmitted() const { return bytes_transmitted_; }

  /// Fraction of [0, now] the wire spent serializing (0..1). The
  /// in-progress packet counts up to `now`.
  double utilization(TimeNs now) const;

  /// Time-averaged queue depth in bytes over [0, now] (the backlog the
  /// scheduler held, integrated over time).
  double mean_queue_bytes(TimeNs now) const;

  /// Swap the queueing discipline. Only legal while the queue is empty
  /// (the runtime controller re-deploys between bursts; see paper §2
  /// Idea 2 on buffer-emptying challenges).
  void replace_queue(std::unique_ptr<sched::Scheduler> queue);

  // --- Fault injection ------------------------------------------------
  //
  // A link can be taken down (cable pull), given a per-packet loss /
  // corruption probability (dirty optics), or both. All randomness is
  // drawn from a per-link seeded RNG so replays are bit-identical.

  /// Bring the wire down or up. Going down drops whatever is currently
  /// being serialized or propagating (counted as inflight_dropped) and
  /// rejects new offers (offered_while_down); packets already buffered
  /// stay in the queue and resume draining when the link comes back up.
  void set_up(bool up);
  bool up() const { return up_; }

  /// Per-packet loss / corruption probability in [0,1], applied at the
  /// end of serialization (the packet consumed wire time either way).
  void set_loss(double loss_prob, double corrupt_prob = 0.0);

  /// Seed the fault RNG (deterministic loss/corruption decisions).
  void set_fault_seed(std::uint64_t seed) { fault_rng_ = Rng(seed); }

  const LinkFaultCounters& fault_counters() const { return faults_; }

  /// Human-readable port label ("src->dst"), set by Network::connect.
  void set_label(std::string label) { label_ = std::move(label); }
  const std::string& label() const { return label_; }

  /// Trace swimlane for this port's events (0 = untraced lane shared
  /// with the simulator; experiments assign 1 + link index).
  void set_trace_tid(std::uint32_t tid) { trace_tid_ = tid; }
  std::uint32_t trace_tid() const { return trace_tid_; }

 private:
  /// Tracer when port events should be emitted, else nullptr — one
  /// pointer load plus a mask test via the simulator.
  obs::Tracer* sched_tracer() const {
    obs::Tracer* t = sim_.tracer();
    return (t != nullptr && t->enabled(obs::TraceCategory::kSched)) ? t
                                                                    : nullptr;
  }
  /// Runtime-category tracer for fault transitions, else nullptr.
  obs::Tracer* runtime_tracer() const {
    obs::Tracer* t = sim_.tracer();
    return (t != nullptr && t->enabled(obs::TraceCategory::kRuntime))
               ? t
               : nullptr;
  }
  void start_next();
  void account_queue(TimeNs now);

  // --- per-event reference drain --------------------------------------
  void start_per_event();

  // --- coalesced drain ------------------------------------------------
  //
  // Pending sub-steps for this link, ordered by (time, sequence). Only
  // the front is on the event queue, via a persistent per-link timer
  // (drain_timer_); each fire runs that one sub-step and re-arms.
  struct SubStep {
    enum Kind : std::uint8_t { kSerDone, kArrive };
    Packet pkt;
    TimeNs at = 0;           ///< when this sub-step happens
    std::uint64_t seq = 0;   ///< reserved schedule sequence number
    std::uint64_t epoch = 0; ///< down-epoch the chain started under
    TimeNs ser = 0;          ///< wire time consumed (kSerDone only)
    Kind kind = kSerDone;
  };

  /// Dequeue the next buffered packet, if any, and stage its kSerDone
  /// sub-step.
  void start_coalesced();
  void process_ser_done(SubStep& s);
  void process_arrival(SubStep& s);
  /// (Re)arm the drain timer for the earliest pending sub-step; disarm
  /// it when none remain.
  void refresh_drain_event();
  void push_step(SubStep&& s);
  /// Drain-timer fire path (EventQueue persistent-timer callback): run
  /// the front sub-step, then re-arm.
  void on_drain();

  Simulator& sim_;
  BitsPerSec rate_;
  TimeNs prop_delay_;
  std::unique_ptr<sched::Scheduler> queue_;
  Deliver deliver_;
  bool busy_ = false;
  TimeNs busy_since_ = 0;          ///< start of the current serialization
  TimeNs busy_accum_ = 0;          ///< completed serialization time
  std::int64_t bytes_transmitted_ = 0;
  // Backlog integral: sum of bytes x time, updated on every change.
  TimeNs backlog_updated_at_ = 0;
  double backlog_integral_ = 0;  ///< byte-nanoseconds
  std::string label_;
  std::uint32_t trace_tid_ = 0;

  // Coalesced-drain state (empty in per-event mode).
  std::vector<SubStep> steps_;  ///< pending sub-steps, (at, seq)-sorted
  EventId drain_timer_ = 0;  ///< persistent timer slot (0 = not allocated)
  bool drain_armed_ = false; ///< timer armed at (drain_at_, drain_seq_)
  TimeNs drain_at_ = 0;
  std::uint64_t drain_seq_ = 0;

  // Fault state. `down_epoch_` is bumped every time the wire goes down;
  // the serialization/propagation continuations capture the epoch they
  // started under and abort if it changed — that is what "the cable
  // pull loses in-flight bits" means in an event-driven model.
  bool up_ = true;
  std::uint64_t down_epoch_ = 0;
  TimeNs down_since_ = 0;
  double loss_prob_ = 0.0;
  double corrupt_prob_ = 0.0;
  Rng fault_rng_{0x9e3779b97f4a7c15ull};
  LinkFaultCounters faults_;
};

}  // namespace qv::netsim
