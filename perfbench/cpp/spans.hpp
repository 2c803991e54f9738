// In-memory span recorder for the traced run.  Spans are opened and closed
// around the benchmark's own calls into the library's public functions and
// written out as JSON lines when the run ends.
#pragma once

#include <chrono>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder;

/// Opens a span on `spans` when tracing (non-null); returns -1 otherwise.
int openSpan(SpanRecorder* spans, std::string name);
/// Closes a span opened by openSpan(); a no-op when not tracing.
void closeSpan(SpanRecorder* spans, int id);

class SpanRecorder {
 public:
  /// Opens a span under the innermost open one and returns its id.
  int open(std::string name);
  void close(int id);
  /// Records an already finished span under `parent` (-1 = root).  Used for
  /// the aggregated event-loop split, whose pieces are sums of many short
  /// intervals laid end to end inside their parent.
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Appends every span of a finished recorder (parents remapped).
  void append(const SpanRecorder& other);

  /// Summed duration of the spans called `name`, in seconds.
  [[nodiscard]] double total(std::string_view name) const;

  /// Writes one JSON object per span: name, start_s, end_s (relative to the
  /// first span), parent id.  Returns false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  /// Innermost open span, -1 when none is open.
  [[nodiscard]] int current() const {
    return stack_.empty() ? -1 : stack_.back();
  }

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
