#include "netsim/event.hpp"

#include <algorithm>
#include <cassert>

namespace qv::netsim {

namespace {

constexpr std::size_t kArity = 4;

inline std::size_t ctz64(std::uint64_t bits) {
  return static_cast<std::size_t>(__builtin_ctzll(bits));
}

/// First set bit of `bits` at or circularly after `start`. Requires
/// bits != 0.
inline std::size_t circular_ffs64(std::uint64_t bits, std::size_t start) {
  const std::uint64_t rot =
      start == 0 ? bits : (bits >> start) | (bits << (64 - start));
  return (start + ctz64(rot)) & 63;
}

}  // namespace

EventQueue::EventQueue() {
  head0_.fill(-1);
  tail0_.fill(-1);
  head1_.fill(-1);
}

EventId EventQueue::schedule(TimeNs at, EventFn fn) {
  return schedule_at_seq(at, next_seq_++, std::move(fn));
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ >= 0) {
    const std::uint32_t slot = static_cast<std::uint32_t>(free_head_);
    free_head_ = slots_[slot].next;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

EventId EventQueue::schedule_at_seq(TimeNs at, std::uint64_t seq,
                                    EventFn fn) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.at = at;
  s.seq = seq;
  s.fn = std::move(fn);
  if (place_slot(slot)) {
    ++stats_.scheduled_heap;
  } else {
    ++stats_.scheduled_wheel;
  }
  ++live_;
  stats_.peak_live = std::max<std::uint64_t>(stats_.peak_live, live_);
  // The memoized minimum stays valid: a non-earlier arrival cannot
  // displace it, an earlier one becomes it.
  if (cached_min_ >= 0 && before(static_cast<std::int32_t>(slot), cached_min_)) {
    cached_min_ = static_cast<std::int32_t>(slot);
  }
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

EventId EventQueue::make_timer(void (*cb)(void*), void* ctx) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.tcb = cb;
  s.tctx = ctx;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

void EventQueue::arm_timer(EventId id, TimeNs at, std::uint64_t seq) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  Slot& s = slots_[slot];
  assert(s.gen == static_cast<std::uint32_t>(id >> 32));
  assert(s.tcb != nullptr);
  assert(s.bucket < 0 && s.heap_pos < 0);
  s.at = at;
  s.seq = seq;
  if (place_slot(slot)) {
    ++stats_.scheduled_heap;
  } else {
    ++stats_.scheduled_wheel;
  }
  ++live_;
  stats_.peak_live = std::max<std::uint64_t>(stats_.peak_live, live_);
  if (cached_min_ >= 0 &&
      before(static_cast<std::int32_t>(slot), cached_min_)) {
    cached_min_ = static_cast<std::int32_t>(slot);
  }
}

void EventQueue::detach_armed(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (static_cast<std::int32_t>(slot) == cached_min_) cached_min_ = -1;
  if (s.heap_pos >= 0) {
    remove_at(static_cast<std::size_t>(s.heap_pos));
    s.heap_pos = -1;
  } else {
    bucket_unlink(slot);
  }
  --live_;
}

void EventQueue::disarm_timer(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  Slot& s = slots_[slot];
  assert(s.gen == static_cast<std::uint32_t>(id >> 32));
  assert(s.tcb != nullptr);
  if (s.bucket < 0 && s.heap_pos < 0) return;
  detach_armed(slot);
}

void EventQueue::destroy_timer(EventId id) {
  disarm_timer(id);
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  slots_[slot].tcb = nullptr;
  slots_[slot].tctx = nullptr;
  release(slot);
}

void EventQueue::set_heap_only(bool on) {
  assert(live_ == 0);
  heap_only_ = on;
}

bool EventQueue::place_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  if (heap_only_) {
    heap_.push_back(slot);
    s.heap_pos = static_cast<std::int32_t>(heap_.size() - 1);
    sift_up(heap_.size() - 1);
    return true;
  }
  // Negative / "past" timestamps (legal from inside callbacks) clamp
  // into the earliest bucket; the sorted insert puts them at its head,
  // ahead of every in-window event, matching heap semantics.
  const TimeNs t = s.at < 0 ? 0 : s.at;
  const std::int64_t tick0 = t >> kTick0Shift;
  const std::int64_t base0 = epoch_ << kL0Bits;
  if (tick0 < base0 + static_cast<std::int64_t>(kL0Buckets)) {
    const std::size_t idx =
        tick0 < base0 ? 0u
                      : static_cast<std::size_t>(tick0) & (kL0Buckets - 1);
    bucket_push(static_cast<std::int32_t>(idx), slot);
    return false;
  }
  const std::int64_t tick1 = t >> kTick1Shift;
  if (tick1 < epoch_ + 1 + static_cast<std::int64_t>(kL1Buckets)) {
    const std::size_t idx = static_cast<std::size_t>(tick1) & (kL1Buckets - 1);
    bucket_push(kL1Base + static_cast<std::int32_t>(idx), slot);
    return false;
  }
  heap_.push_back(slot);
  s.heap_pos = static_cast<std::int32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  return true;
}

void EventQueue::bucket_push(std::int32_t enc, std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::int32_t self = static_cast<std::int32_t>(slot);
  s.bucket = enc;
  if (enc >= kL1Base) {
    // Level-1 buckets stay unordered: rotation re-places every event
    // through place_slot, which sorts it into level 0.
    std::int32_t& head = head1_[static_cast<std::size_t>(enc - kL1Base)];
    s.prev = -1;
    s.next = head;
    if (head >= 0) slots_[static_cast<std::size_t>(head)].prev = self;
    head = self;
    bits1_ |= std::uint64_t{1} << (static_cast<std::size_t>(enc - kL1Base));
    return;
  }
  // Level 0 keeps (at, seq) order: walk back from the tail past every
  // event that must run after this one. Arrivals are mostly among the
  // latest in their bucket, so the walk is short (see the header).
  const std::size_t idx = static_cast<std::size_t>(enc);
  std::int32_t after = tail0_[idx];
  while (after >= 0 && before(self, after)) {
    after = slots_[static_cast<std::size_t>(after)].prev;
  }
  s.prev = after;
  if (after >= 0) {
    Slot& a = slots_[static_cast<std::size_t>(after)];
    s.next = a.next;
    a.next = self;
  } else {
    s.next = head0_[idx];
    head0_[idx] = self;
  }
  if (s.next >= 0) {
    slots_[static_cast<std::size_t>(s.next)].prev = self;
  } else {
    tail0_[idx] = self;
  }
  const std::size_t word = idx >> 6;
  bits0_[word] |= std::uint64_t{1} << (idx & 63);
  summary0_[word >> 6] |= std::uint64_t{1} << (word & 63);
}

void EventQueue::bucket_unlink(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::int32_t enc = s.bucket;
  assert(enc >= 0);
  if (s.prev >= 0) {
    slots_[static_cast<std::size_t>(s.prev)].next = s.next;
  } else {
    bucket_head(enc) = s.next;
  }
  if (s.next >= 0) {
    slots_[static_cast<std::size_t>(s.next)].prev = s.prev;
  } else if (enc < kL1Base) {
    tail0_[static_cast<std::size_t>(enc)] = s.prev;
  }
  s.bucket = -1;
  if (bucket_head(enc) < 0) {
    if (enc < kL1Base) {
      const std::size_t word = static_cast<std::size_t>(enc) >> 6;
      bits0_[word] &=
          ~(std::uint64_t{1} << (static_cast<std::size_t>(enc) & 63));
      if (bits0_[word] == 0) {
        summary0_[word >> 6] &= ~(std::uint64_t{1} << (word & 63));
      }
    } else {
      bits1_ &= ~(std::uint64_t{1} << static_cast<std::size_t>(enc - kL1Base));
    }
  }
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = static_cast<std::uint32_t>(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  // A freed slot (already ran / already cancelled) has a bumped
  // generation; a recycled slot has a newer generation. Either way the
  // stale id matches nothing.
  if ((s.heap_pos < 0 && s.bucket < 0) || s.gen != gen) return;
  assert(s.tcb == nullptr);  // timers use disarm_timer / destroy_timer
  if (static_cast<std::int32_t>(slot) == cached_min_) cached_min_ = -1;
  if (s.heap_pos >= 0) {
    remove_at(static_cast<std::size_t>(s.heap_pos));
    s.heap_pos = -1;
  } else {
    bucket_unlink(slot);
  }
  s.fn.reset();
  release(slot);
  --live_;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;  // invalidate every outstanding id for this slot
  s.heap_pos = -1;
  s.bucket = -1;
  s.next = free_head_;
  free_head_ = static_cast<std::int32_t>(slot);
}

TimeNs EventQueue::horizon_end() const {
  const std::int64_t end_tick =
      epoch_ + 1 + static_cast<std::int64_t>(kL1Buckets);
  if (end_tick >= (kTimeMax >> kTick1Shift)) return kTimeMax;
  return end_tick << kTick1Shift;
}

void EventQueue::migrate_heap_into_window() {
  const TimeNs end = horizon_end();
  while (!heap_.empty() && slots_[heap_[0]].at < end) {
    const std::uint32_t slot = heap_[0];
    remove_at(0);
    slots_[slot].heap_pos = -1;
    place_slot(slot);
    ++stats_.migrated_from_heap;
  }
}

void EventQueue::ensure_candidate() {
  if (cached_min_ >= 0) return;
  if (heap_only_) {
    if (!heap_.empty()) cached_min_ = static_cast<std::int32_t>(heap_[0]);
    return;
  }
  for (;;) {
    std::size_t sw = 0;
    while (sw < kSummary0Words && summary0_[sw] == 0) ++sw;
    if (sw < kSummary0Words) {
      const std::size_t word = sw * 64 + ctz64(summary0_[sw]);
      const std::size_t bit = ctz64(bits0_[word]);
      // Level-0 buckets are (at, seq)-sorted: the head is the minimum.
      cached_min_ = head0_[word * 64 + bit];
      return;
    }
    if (bits1_ != 0) {
      // Rotate: advance the level-0 window to the earliest occupied
      // level-1 bucket and re-bucket its events at level-0 resolution.
      const std::size_t start = static_cast<std::size_t>(epoch_ + 1) & 63;
      const std::size_t idx = circular_ffs64(bits1_, start);
      epoch_ += 1 + static_cast<std::int64_t>((idx - start) & 63);
      std::int32_t i = head1_[idx];
      head1_[idx] = -1;
      bits1_ &= ~(std::uint64_t{1} << idx);
      ++stats_.rotations;
      while (i >= 0) {
        const std::size_t cur = static_cast<std::size_t>(i);
        const std::int32_t next = slots_[cur].next;
        slots_[cur].bucket = -1;
        place_slot(static_cast<std::uint32_t>(cur));
        ++stats_.migrated_wheel_levels;
        i = next;
      }
      migrate_heap_into_window();
      continue;
    }
    if (!heap_.empty()) {
      // Everything pending is beyond the wheel horizon: jump the
      // window straight to the earliest heap event and pull the new
      // window's worth of overflow onto the wheel.
      epoch_ = slots_[heap_[0]].at >> kTick1Shift;
      ++stats_.rotations;
      migrate_heap_into_window();
      continue;
    }
    return;  // queue is empty
  }
}

void EventQueue::sift_up(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(static_cast<std::int32_t>(slot),
                static_cast<std::int32_t>(heap_[parent]))) {
      break;
    }
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, slot);
}

void EventQueue::sift_down(std::size_t pos) {
  const std::uint32_t slot = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = pos * kArity + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(static_cast<std::int32_t>(heap_[c]),
                 static_cast<std::int32_t>(heap_[best]))) {
        best = c;
      }
    }
    if (!before(static_cast<std::int32_t>(heap_[best]),
                static_cast<std::int32_t>(slot))) {
      break;
    }
    place(pos, heap_[best]);
    pos = best;
  }
  place(pos, slot);
}

void EventQueue::remove_at(std::size_t pos) {
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;
  place(pos, last);
  sift_up(pos);
  sift_down(static_cast<std::size_t>(slots_[last].heap_pos));
}

TimeNs EventQueue::next_time() const {
  if (live_ == 0) return kTimeMax;
  // Rotation only moves events between internal containers; the
  // logical event set (and therefore observable behavior) is
  // unchanged, so peeking through it is const in spirit.
  EventQueue* self = const_cast<EventQueue*>(this);
  self->ensure_candidate();
  return slots_[static_cast<std::size_t>(cached_min_)].at;
}

TimeNs EventQueue::run_next() {
  assert(live_ > 0);
  ensure_candidate();
  const std::uint32_t slot = static_cast<std::uint32_t>(cached_min_);
  cached_min_ = -1;
  Slot& s = slots_[slot];
  const TimeNs at = s.at;
  if (s.tcb != nullptr) {
    // Persistent timer: copy the POD callback out (the handler may grow
    // the slab), unlink, and fire. The slot stays allocated for re-arm.
    void (*cb)(void*) = s.tcb;
    void* ctx = s.tctx;
    if (s.heap_pos >= 0) {
      remove_at(static_cast<std::size_t>(s.heap_pos));
      s.heap_pos = -1;
    } else {
      bucket_unlink(slot);
    }
    --live_;
    cb(ctx);
    return at;
  }
  EventFn fn = std::move(s.fn);
  if (s.heap_pos >= 0) {
    // Heap-only reference mode; with the wheel active ensure_candidate
    // always leaves the minimum on the wheel.
    remove_at(static_cast<std::size_t>(s.heap_pos));
    s.heap_pos = -1;
  } else {
    bucket_unlink(slot);
  }
  // Free the slot BEFORE running: the callback may schedule new events
  // (reusing this slot under a fresh generation) or cancel others.
  release(slot);
  --live_;
  fn();
  return at;
}

}  // namespace qv::netsim
