#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::int64_t> g_next_id{0};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;

thread_local std::vector<Span>* t_buffer = nullptr;
thread_local std::int64_t t_open = -1;

std::vector<Span>& buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<std::vector<Span>>());
    t_buffer = g_buffers.back().get();
  }
  return *t_buffer;
}

std::int64_t ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_epoch)
      .count();
}

std::string layer_of(const char* name) {
  const std::string full(name);
  return full.substr(0, full.find('.'));
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::int64_t record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::int64_t parent,
                    std::uint64_t request) {
  if (!enabled()) return -1;
  const std::int64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  buffer().push_back(Span{name, id, parent, request, ns(start), ns(end)});
  return id;
}

Scope::Scope(const char* name) : name_(name) {
  if (!enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  outer_ = t_open;
  t_open = id_;
  start_ = Clock::now();
}

Scope::~Scope() {
  if (id_ < 0) return;
  const Clock::time_point end = Clock::now();
  buffer().push_back(Span{name_, id_, outer_, 0, ns(start_), ns(end)});
  t_open = outer_;
}

std::vector<Span> collect() {
  const std::lock_guard lock(g_buffers_mutex);
  std::vector<Span> all;
  for (const auto& b : g_buffers) all.insert(all.end(), b->begin(), b->end());
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::map<std::string, double> self_ms_by_layer(const std::vector<Span>& spans) {
  std::unordered_map<std::int64_t, std::vector<const Span*>> children;
  for (const Span& span : spans)
    if (span.parent >= 0) children[span.parent].push_back(&span);

  std::map<std::string, double> self_ms;
  for (const Span& span : spans) {
    // Children may run on several threads at once, so subtract the union
    // of their intervals (clipped to the parent), not their sum.
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;
    if (const auto it = children.find(span.id); it != children.end())
      for (const Span* child : it->second) {
        const std::int64_t lo = std::max(child->start_ns, span.start_ns);
        const std::int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    std::sort(covered.begin(), covered.end());
    std::int64_t covered_ns = 0, reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    self_ms[layer_of(span.name)] +=
        static_cast<double>(span.end_ns - span.start_ns - covered_ns) / 1e6;
  }
  return self_ms;
}

bool write_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& span : spans)
    out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
        << "}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench::trace
