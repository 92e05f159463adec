// Shared pieces of the repository benchmark: the clock, the span stack
// that turns nested timed calls into per-layer self time, sample
// statistics, and the per-run record every workload part fills in.
//
// Spans are recorded only by the benchmark's own files, around calls
// into each layer's public functions; nothing in src/ is instrumented.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <time.h>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// CPU time of the calling thread. Unlike now_ns() it leaves out time
/// the thread spends blocked (an fsync) or preempted by other processes.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// The layers of the layer table, named after src/ modules.
enum class Layer {
  kNetsim,
  kSched,
  kQvisor,
  kTelemetry,
  kTrafficgen,
  kWorkload,
  kDataplane,
  kControl,
  kMgmt,
  kCount
};
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

/// Nested spans on one thread. A layer's self time is each of its
/// spans' duration minus the time covered by the spans opened inside
/// it, so the self times of all layers sum to the outermost spans'
/// duration exactly. The clock reads themselves are not subtracted:
/// their cost lands in whichever span is open around them and shows up
/// as trace_overhead.
class Spans {
 public:
  void begin(Layer layer) {
    stack_.push_back(Frame{layer, now_ns(), 0});
  }
  void end() {
    const std::int64_t t = now_ns();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t d = t - f.start;
    self_ns_[static_cast<std::size_t>(f.layer)] += d - f.children;
    if (!stack_.empty()) stack_.back().children += d;
  }

  double self_s(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  bool idle() const { return stack_.empty(); }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start;
    std::int64_t children;
  };
  std::vector<Frame> stack_;
  std::array<std::int64_t, kLayers> self_ns_{};
};

/// RAII span; a null Spans* records nothing.
class Span {
 public:
  Span(Spans* spans, Layer layer) : spans_(spans) {
    if (spans_ != nullptr) spans_->begin(layer);
  }
  ~Span() {
    if (spans_ != nullptr) spans_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      q * static_cast<double>(v.size()) + 0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Samples needed so at least `beyond` samples lie above percentile q.
inline std::size_t samples_for(double q, std::size_t beyond) {
  return static_cast<std::size_t>(static_cast<double>(beyond) / (1.0 - q) +
                                  0.5);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run of the benchmark reports. Every operation (a fig4
/// cell, a dataplane run, a deploy, a rollout) counts as attempted; an
/// operation whose output fails its check counts as failed, and the
/// first few failures are explained on stderr.
class Record {
 public:
  void metric(const std::string& name, double value, const char* unit) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }

  void attempt() { ++attempted_; }
  /// Count one failed operation (if !ok) and say why.
  bool check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) std::fprintf(stderr, "perfbench: FAILED %s\n",
                                      what.c_str());
    }
    return ok;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// A traced run's layer table, summed over its parts: self seconds per
/// layer, and the traced and untraced wall time of the same operations.
struct LayerTable {
  std::array<double, kLayers> self_s{};
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;

  void add_spans(const Spans& spans) {
    for (std::size_t i = 0; i < kLayers; ++i) {
      self_s[i] += spans.self_s(static_cast<Layer>(i));
    }
  }
  double attributed_s() const {
    double sum = 0.0;
    for (const double v : self_s) sum += v;
    return sum;
  }
  double unattributed_s() const { return traced_wall_s - attributed_s(); }
};

}  // namespace perfbench
