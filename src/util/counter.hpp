// Stats structs with one field list. Each struct declares its fields once
// and lists each once, with the name it renders under, in a
// `static constexpr std::tuple kFields` of util::field("name", &S::member)
// entries; snapshot, reset, merge and rendering derive from that. A
// struct of Counters is its own live counter set: the hot path calls
// add() (one relaxed atomic add), copying the struct snapshots it and
// assigning {} resets it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string_view>
#include <tuple>

namespace epp::util {

/// A relaxed atomic event counter. Copying one reads it, so a copied
/// struct of Counters is a snapshot (field by field, not one instant).
class Counter {
 public:
  Counter() noexcept = default;
  explicit Counter(std::uint64_t value) noexcept : value_(value) {}
  Counter(const Counter& other) noexcept : value_(other.load()) {}
  Counter& operator=(const Counter& other) noexcept {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Raise to `value` when it is higher (a high-water mark).
  void raise_to(std::uint64_t value) noexcept {
    std::uint64_t seen = load();
    while (seen < value && !value_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Reads like a std::uint64_t (arithmetic, comparison, streaming).
  operator std::uint64_t() const noexcept { return load(); }  // NOLINT

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One table entry: the name a field renders under, and the field.
template <typename S, typename T>
struct Field {
  std::string_view name;
  T S::*member;
};

template <typename S, typename T>
constexpr Field<S, T> field(std::string_view name, T S::*member) noexcept {
  return {name, member};
}

/// Calls visit(name, value) for each entry of S::kFields, in table order.
template <typename S, typename Visit>
void for_each_field(const S& stats, Visit&& visit) {
  std::apply(
      [&](const auto&... entry) {
        (visit(entry.name, stats.*entry.member), ...);
      },
      S::kFields);
}

/// Adds every field of `from` into `into` (structs of Counters).
template <typename S>
void merge(S& into, const S& from) noexcept {
  std::apply(
      [&](const auto&... entry) {
        ((into.*entry.member).add(from.*entry.member), ...);
      },
      S::kFields);
}

/// Writes `<prefix><name>=<value>` for each table entry, in table order,
/// separated by single spaces (no leading or trailing space).
template <typename S>
void render_kv(std::ostream& out, const S& stats,
               std::string_view prefix = {}) {
  const char* separator = "";
  for_each_field(stats, [&](std::string_view name, const auto& value) {
    out << separator << prefix << name << '=' << value;
    separator = " ";
  });
}

/// True when S is exactly the Counters its table lists, each listed
/// once: a Counter declared without an entry grows sizeof(S) past the
/// table, and a member listed twice is caught by the pairwise check.
template <typename S>
constexpr bool lists_every_counter() noexcept {
  return std::apply(
      [](const auto&... entry) {
        const Counter S::*members[] = {entry.member...};
        for (std::size_t i = 0; i < sizeof...(entry); ++i)
          for (std::size_t j = 0; j < i; ++j)
            if (members[i] == members[j]) return false;
        return sizeof(S) == sizeof...(entry) * sizeof(Counter);
      },
      S::kFields);
}

}  // namespace epp::util
