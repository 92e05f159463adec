// Discrete-event core: a time-ordered queue of callbacks.
//
// Hot-path design (the simulator executes one of these per packet
// hop, so this is as hot as the schedulers themselves):
//
//   * callbacks are `EventFn`, a move-only small-buffer-optimized
//     callable — typical capture lists (a Packet plus a couple of
//     pointers) live inline in the event slot, so scheduling an event
//     performs no heap allocation;
//   * events live in a slab of pooled slots recycled through a free
//     list; a slot's id carries a generation stamp, so cancel() on an
//     id that already ran (or was already cancelled) is recognized in
//     O(1) and is a true no-op — it can never corrupt size();
//   * ordering is an Eiffel-style hierarchical timing wheel backed by
//     an overflow heap. Near-horizon events — the overwhelming
//     majority: serialization and propagation completions — land in
//     FFS-bitmap-indexed time buckets (O(1) schedule, O(1) cancel via
//     intrusive doubly-linked bucket lists, amortized O(1) dispatch).
//     Far-future events (flow arrivals, fault windows, RTO deadlines)
//     overflow to a flat 4-ary min-heap and migrate wheel-ward when
//     the wheel rotates into their window.
//
// Wheel geometry: level 0 has 8192 buckets of 128 ns (one bucket per
// 2^7 ns tick, window span 2^20 ns ≈ 1.05 ms); level 1 has 64 buckets of
// 2^20 ns (span ≈ 67 ms). Beyond that, the heap. The level-0 window is
// aligned to one level-1 tick, so a rotation re-buckets exactly one
// level-1 bucket at level-0 resolution.
//
// Ordering contract: dispatch order is EXACTLY (timestamp, schedule
// sequence number) — identical to a plain min-heap, so every artifact
// downstream of the simulator is byte-identical to the heap-only
// layout. Each level-0 bucket is a list kept sorted by (at, seq): an
// insert walks back from the bucket's tail to its place, and dispatch
// takes the head of the earliest occupied bucket with no scan. Dense
// runs put many events in one bucket (the paper fabric's 1 Gb/s
// serializations and 1 µs links land events on a 1 µs lattice), but
// arrivals mostly come in timestamp order, so the insert walks back
// ~1.8 slots there and ~0.24 on the scaled fig4 cells. The walk is
// linear in bucket occupancy, so thousands of random sub-µs arrivals
// in a few buckets stay slow. Level-1 buckets stay unordered; a
// rotation re-places their events through the sorted level-0 insert.
// Events scheduled "in the past" (from inside a running callback)
// clamp into the earliest bucket, where the same (at, seq) insert puts
// them at its head — matching heap semantics.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/time.hpp"

namespace qv::netsim {

/// Move-only `void()` callable with inline storage. Callables larger
/// than the inline buffer (or with throwing moves) fall back to the
/// heap; everything the simulator schedules fits inline.
class EventFn {
 public:
  /// Inline capture budget: a Packet (~80 bytes) plus a few pointers.
  static constexpr std::size_t kInlineSize = 104;

  EventFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at every schedule() call site
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

  EventFn(EventFn&& other) noexcept { move_from(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  void operator()() { ops_->invoke(buf_); }
  explicit operator bool() const { return ops_ != nullptr; }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  ///< move into raw dst, destroy src
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* p) { (*static_cast<D*>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) D(std::move(*static_cast<D*>(src)));
        static_cast<D*>(src)->~D();
      },
      [](void* p) { static_cast<D*>(p)->~D(); },
  };

  template <typename D>
  static constexpr Ops heap_ops = {
      [](void* p) { (**static_cast<D**>(p))(); },
      [](void* dst, void* src) {
        ::new (dst) D*(*static_cast<D**>(src));
      },
      [](void* p) { delete *static_cast<D**>(p); },
  };

  void move_from(EventFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineSize];
};

/// Opaque handle: (generation << 32) | slot. Never 0 (generations
/// start at 1), so 0 stays usable as a "no timer" sentinel.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Diagnostic counters for the wheel/overflow split, exported into
  /// benchmark artifacts so regressions are diagnosable offline.
  struct WheelStats {
    std::uint64_t scheduled_wheel = 0;   ///< placed straight into a bucket
    std::uint64_t scheduled_heap = 0;    ///< overflowed to the far-future heap
    std::uint64_t migrated_from_heap = 0;    ///< heap → wheel on rotation
    std::uint64_t migrated_wheel_levels = 0; ///< level-1 → level-0 re-buckets
    std::uint64_t rotations = 0;         ///< level-0 window advances
    std::uint64_t peak_live = 0;         ///< high-water mark of live events
  };

  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `at`. Returns an id for cancel().
  EventId schedule(TimeNs at, EventFn fn);

  /// Reserve the next schedule sequence number without scheduling
  /// anything. The coalesced link drain burns one sequence number per
  /// replayed sub-step at exactly the moment the per-event path would
  /// have scheduled it, so tie-break ORDER against every third-party
  /// event is preserved even when the sub-step itself never becomes a
  /// queue entry.
  std::uint64_t reserve_seq() { return next_seq_++; }

  /// Schedule with a previously reserved sequence number (see
  /// reserve_seq). `seq` must come from reserve_seq() and be used at
  /// most once; ordering is still strict (at, seq).
  EventId schedule_at_seq(TimeNs at, std::uint64_t seq, EventFn fn);

  /// Route every event through the overflow heap, bypassing the wheel:
  /// the pre-overhaul engine, kept runtime-selectable as the
  /// differential-testing reference and benchmark baseline. Only legal
  /// while the queue is empty. Ordering semantics are identical.
  void set_heap_only(bool on);
  bool heap_only() const { return heap_only_; }

  /// Cancel a scheduled event. The id's generation stamp identifies
  /// already-run, already-cancelled, and never-issued ids exactly, so
  /// any such call is a no-op (and size() stays correct).
  void cancel(EventId id);

  // --- persistent timers ----------------------------------------------
  //
  // A timer is a slot with a plain {function pointer, context} callback
  // that survives firing: re-arming skips the slot acquire / EventFn
  // relocate / generation churn a fresh schedule() pays. The coalesced
  // link drain re-points one event per processed sub-step, so this is
  // its hot path. POD callbacks are also what makes firing safe when
  // the handler grows the slab: the callback is copied out before the
  // call, never invoked from (possibly reallocated) slot storage.

  /// Allocate a timer slot. The slot is not armed and not counted in
  /// size(); destroy_timer() frees it.
  EventId make_timer(void (*cb)(void*), void* ctx);
  /// Arm at (at, seq); seq must come from reserve_seq(). The timer must
  /// not be armed. Fires like any event, then stays allocated, unarmed.
  void arm_timer(EventId id, TimeNs at, std::uint64_t seq);
  /// Unarm without firing; no-op when not armed.
  void disarm_timer(EventId id);
  /// Disarm and return the slot to the free list.
  void destroy_timer(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the next live event; kTimeMax if none.
  TimeNs next_time() const;

  /// Pop and run the next live event; returns its timestamp. Requires
  /// !empty().
  TimeNs run_next();

  const WheelStats& wheel_stats() const { return stats_; }
  /// Events currently parked in the far-future overflow heap.
  std::size_t overflow_heap_size() const { return heap_.size(); }

 private:
  // --- wheel geometry -------------------------------------------------
  static constexpr int kTick0Shift = 7;                    // 128 ns buckets
  static constexpr int kL0Bits = 13;                       // 8192 buckets
  static constexpr int kTick1Shift = kTick0Shift + kL0Bits;  // 2^20 ns
  static constexpr std::size_t kL0Buckets = std::size_t{1} << kL0Bits;
  static constexpr std::size_t kL0Words = kL0Buckets / 64;
  static constexpr std::size_t kSummary0Words = kL0Words / 64;
  static constexpr std::size_t kL1Buckets = 64;
  // Encoded bucket ids: [0, kL0Buckets) = level 0, then level 1.
  static constexpr std::int32_t kL1Base =
      static_cast<std::int32_t>(kL0Buckets);

  struct Slot {
    TimeNs at = 0;
    std::uint64_t seq = 0;  ///< schedule order: deterministic tie-break
    EventFn fn;
    void (*tcb)(void*) = nullptr;  ///< non-null iff a persistent timer
    void* tctx = nullptr;
    std::uint32_t gen = 1;
    std::int32_t heap_pos = -1;  ///< >=0 iff parked in the overflow heap
    std::int32_t bucket = -1;    ///< encoded bucket id iff on the wheel
    std::int32_t next = -1;      ///< intrusive bucket list / free list
    std::int32_t prev = -1;
  };

  /// True iff slot `a` must run before slot `b`.
  bool before(std::int32_t a, std::int32_t b) const {
    const Slot& sa = slots_[static_cast<std::size_t>(a)];
    const Slot& sb = slots_[static_cast<std::size_t>(b)];
    if (sa.at != sb.at) return sa.at < sb.at;
    return sa.seq < sb.seq;
  }

  // Overflow heap (flat 4-ary min-heap of slot indices).
  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void place(std::size_t pos, std::uint32_t slot) {
    heap_[pos] = slot;
    slots_[slot].heap_pos = static_cast<std::int32_t>(pos);
  }
  /// Detach the heap entry at `pos` (swap-with-last + sift).
  void remove_at(std::size_t pos);

  // Wheel plumbing.
  /// Route a filled slot to a bucket or the heap; true iff heap.
  bool place_slot(std::uint32_t slot);
  void bucket_push(std::int32_t enc, std::uint32_t slot);
  void bucket_unlink(std::uint32_t slot);
  std::int32_t& bucket_head(std::int32_t enc) {
    return enc < kL1Base ? head0_[static_cast<std::size_t>(enc)]
                         : head1_[static_cast<std::size_t>(enc - kL1Base)];
  }
  /// Establish cached_min_ as the global minimum, rotating the wheel
  /// (and migrating heap overflow wheel-ward) as needed. Leaves
  /// cached_min_ == -1 only when the queue is empty.
  void ensure_candidate();
  /// Pull every heap event inside the (freshly advanced) horizon onto
  /// the wheel.
  void migrate_heap_into_window();
  TimeNs horizon_end() const;
  void release(std::uint32_t slot);
  /// Pop a free-list slot (or grow the slab); shared by schedule_at_seq
  /// and make_timer.
  std::uint32_t acquire_slot();
  /// Unlink an armed slot from its container (bucket or heap) and drop
  /// it from the live count, fixing cached_min_.
  void detach_armed(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_;  ///< slot indices, 4-ary min-heap
  std::array<std::int32_t, kL0Buckets> head0_;
  std::array<std::int32_t, kL0Buckets> tail0_;  ///< last slot per bucket
  std::array<std::int32_t, kL1Buckets> head1_;
  std::array<std::uint64_t, kL0Words> bits0_{};  ///< level-0 occupancy
  /// Summary: bit w of word s set iff bits0_[64s + w] != 0.
  std::array<std::uint64_t, kSummary0Words> summary0_{};
  std::uint64_t bits1_ = 0;     ///< level-1 occupancy (circular index)
  std::int64_t epoch_ = 0;  ///< level-1 tick covered by the level-0 window
  std::int32_t cached_min_ = -1;  ///< memoized global-min slot, -1 = stale
  std::int32_t free_head_ = -1;
  bool heap_only_ = false;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  WheelStats stats_;
};

}  // namespace qv::netsim
