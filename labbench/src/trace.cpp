#include "trace.hpp"

namespace labbench {

int Tracer::begin(const char* name, int parent) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

void Tracer::write_spans(std::ostream& out) const {
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  const std::lock_guard<std::mutex> lock(mutex_);
  out << "\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i > 0 ? ",\n  " : "\n  ") << "{\"id\": " << i
        << ", \"parent\": " << span.parent << ", \"name\": \"" << span.name
        << "\", \"start_ns\": " << ns(span.start)
        << ", \"end_ns\": " << ns(span.end) << "}";
  }
  out << "\n]";
}

}  // namespace labbench
