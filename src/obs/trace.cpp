#include "obs/trace.hpp"

#include <ostream>
#include <sstream>

#include "obs/json_writer.hpp"

namespace qv::obs {

const char* trace_category_name(TraceCategory c) {
  switch (c) {
    case TraceCategory::kSim:
      return "sim";
    case TraceCategory::kSched:
      return "sched";
    case TraceCategory::kQvisor:
      return "qvisor";
    case TraceCategory::kRuntime:
      return "runtime";
    case TraceCategory::kMgmt:
      return "mgmt";
    case TraceCategory::kDataplane:
      return "dataplane";
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

const char* Tracer::intern(const std::string& s) {
  for (const std::string& existing : interned_) {
    if (existing == s) return existing.c_str();
  }
  interned_.push_back(s);
  return interned_.back().c_str();
}

void Tracer::set_thread_name(std::uint32_t tid, const std::string& name) {
  thread_names_[tid] = name;
}

void Tracer::clear() {
  next_ = 0;
  count_ = 0;
  dropped_ = 0;
  arg_lists_.clear();
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(count_);
  const std::size_t start =
      count_ < ring_.size() ? 0 : next_;  // oldest surviving event
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

namespace {

/// Chrome trace timestamps are microseconds; keep ns precision with a
/// fixed three-decimal fraction (avoids double rounding for large ts).
void write_us(std::ostream& out, TimeNs ns) {
  out << ns / 1000 << '.';
  const auto frac = static_cast<int>(ns % 1000);
  out << static_cast<char>('0' + frac / 100)
      << static_cast<char>('0' + (frac / 10) % 10)
      << static_cast<char>('0' + frac % 10);
}

}  // namespace

void Tracer::write_json(std::ostream& out) const {
  JsonWriter w(out);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();

  // Process / thread metadata first, so viewers label the lanes.
  w.begin_object();
  w.key("ph").value("M");
  w.key("pid").value(1);
  w.key("tid").value(0);
  w.key("name").value("process_name");
  w.key("args").begin_object().key("name").value("qvisor").end_object();
  w.end_object();
  for (const auto& [tid, name] : thread_names_) {
    w.begin_object();
    w.key("ph").value("M");
    w.key("pid").value(1);
    w.key("tid").value(tid);
    w.key("name").value("thread_name");
    w.key("args").begin_object().key("name").value(name).end_object();
    w.end_object();
  }

  for (const TraceEvent& e : events()) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value(trace_category_name(e.cat));
    w.key("ph").value(std::string_view(&e.ph, 1));
    w.key("pid").value(1);
    w.key("tid").value(e.tid);
    w.key("ts");
    {
      std::ostringstream ts;
      write_us(ts, e.ts);
      w.raw(ts.str());
    }
    if (e.ph == 'X') {
      w.key("dur");
      std::ostringstream dur;
      write_us(dur, e.dur);
      w.raw(dur.str());
    }
    if (e.ph == 'i') w.key("s").value("t");  // thread-scoped instant
    if (e.arg_name == kArgList) {
      w.key("args").begin_object();
      for (const TraceArg& a : arg_lists_[e.arg]) {
        w.key(a.name);
        if (a.boolean) {
          w.value(a.value != 0);
        } else {
          w.value(a.value);
        }
      }
      w.end_object();
    } else if (e.arg_name != nullptr) {
      w.key("args").begin_object().key(e.arg_name).value(e.arg).end_object();
    }
    w.end_object();
  }

  w.end_array();
  w.key("otherData").begin_object();
  w.key("dropped_events").value(dropped_);
  w.end_object();
  w.end_object();
  out << "\n";
}

std::string Tracer::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

}  // namespace qv::obs
