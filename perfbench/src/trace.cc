#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

double Tracer::Now() const {
  return std::chrono::duration<double>(Clock::now() - origin_).count();
}

int Tracer::Begin(const char* name) {
  if (!enabled_) return 0;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, Now(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

double Tracer::End(int id) {
  if (!enabled_) return 0;
  Span& span = spans_[id];
  span.end = Now();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return span.end - span.start;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, s.start * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
