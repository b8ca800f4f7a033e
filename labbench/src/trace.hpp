#pragma once
/// \file trace.hpp
/// In-memory span recorder for the traced run. Spans are opened and
/// closed by the benchmark's own code around calls into the simulator's
/// public functions (nothing inside the library is instrumented), kept in
/// memory, and written out once when the benchmark ends.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace labbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its id. Thread-safe.
  int begin(const char* name, int parent = kNoParent);
  /// Closes span `id`. Thread-safe.
  void end(int id);

  /// {"spans": [{"id", "parent", "name", "start_ns", "end_ns"}, ...]}
  /// fragment members (without the enclosing braces).
  void write_spans(std::ostream& out) const;

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<Span> spans_;
};

/// Closes its span when it leaves scope. A null tracer records nothing,
/// so one code path serves the traced and the untraced pass.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, int parent = Tracer::kNoParent)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(name, parent) : 0) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return tracer_ != nullptr ? id_ : Tracer::kNoParent; }

 private:
  Tracer* tracer_;
  int id_;
};

/// One pass's layer figures, by metric name.
using LayerSample = std::map<std::string, double>;

}  // namespace labbench
