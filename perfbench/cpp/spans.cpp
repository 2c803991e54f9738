#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace perfbench {

int openSpan(SpanRecorder* spans, std::string name) {
  return spans ? spans->open(std::move(name)) : -1;
}

void closeSpan(SpanRecorder* spans, int id) {
  if (spans) spans->close(id);
}

int SpanRecorder::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), Clock::now(), {}, current()});
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  stack_.pop_back();
}

int SpanRecorder::add(std::string name, Clock::time_point start,
                      Clock::time_point end, int parent) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({std::move(name), start, end, parent});
  return id;
}

void SpanRecorder::append(const SpanRecorder& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(std::move(span));
  }
}

double SpanRecorder::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      sum += std::chrono::duration<double>(span.end - span.start).count();
    }
  }
  return sum;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto rel = [origin](Clock::time_point t) {
    return std::chrono::duration<double>(t - origin).count();
  };
  out.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << span.name
        << "\", \"start_s\": " << rel(span.start)
        << ", \"end_s\": " << rel(span.end) << ", \"parent\": " << span.parent
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
