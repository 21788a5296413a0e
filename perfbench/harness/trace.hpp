// In-memory span recorder for the traced run.
//
// A span covers one call from the harness into a layer: a name whose
// prefix before the first '.' is the layer ("lqn.solve", "net.write"),
// start and end on the steady clock, the span that caused it and the id
// of the request it served. Spans go to a per-thread buffer, stay in
// memory while the workload runs and are written out once at exit.
// Recording is off unless enable(true) was called, and then costs one
// clock read at each end of a span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench::trace {

struct Span {
  const char* name = "";  // string literal: static storage
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 for a root span
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

void enable(bool on);

/// Records a span whose interval was measured elsewhere (for example a
/// duration the server reported). Returns its id, or -1 when disabled.
std::int64_t record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::int64_t parent,
                    std::uint64_t request = 0);

/// RAII span around a call; its parent is the span open on this thread.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  const char* name_;
  std::int64_t id_ = -1;
  std::int64_t outer_ = -1;
  Clock::time_point start_;
};

/// Every span recorded so far, from every thread. Call only when no
/// thread is still recording.
std::vector<Span> collect();

/// Self time per layer in milliseconds: each span's duration minus the
/// part of it its child spans cover, summed by layer prefix.
std::map<std::string, double> self_ms_by_layer(const std::vector<Span>& spans);

/// Writes one JSON object per span. Returns false when the file cannot
/// be written.
bool write_jsonl(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench::trace
