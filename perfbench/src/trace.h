#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around its calls into the library (name, start, end, parent)
/// and written out once, as Chrome trace-event JSON, when the run ends.
/// When disabled, Begin/End do nothing (End returns 0), so the same code
/// runs the untraced path for the overhead figure.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span under the innermost open one; returns its id.
  int Begin(const char* name);
  /// Closes span `id` (the innermost open one); returns its seconds.
  double End(int id);

  /// Writes every recorded span; false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

  size_t num_spans() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
  };

  double Now() const;  // seconds since the tracer was created

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: Begin in the constructor, End in the destructor (or earlier
/// via Close, which returns the span's seconds).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  double Close() {
    const double seconds = tracer_->End(id_);
    id_ = -1;
    return seconds;
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
