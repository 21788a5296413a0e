#include "util/counter.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

namespace epp::util {
namespace {

struct Sample {
  Counter alpha;
  Counter beta;
  Counter gamma;

  static constexpr std::tuple kFields{field("alpha", &Sample::alpha),
                                      field("beta", &Sample::beta),
                                      field("gamma", &Sample::gamma)};
};
static_assert(lists_every_counter<Sample>());

// A Counter without a table entry, and a member listed twice, both fail
// the check each stats struct static_asserts.
struct Unlisted {
  Counter listed;
  Counter forgotten;

  static constexpr std::tuple kFields{field("listed", &Unlisted::listed)};
};
static_assert(!lists_every_counter<Unlisted>());

struct ListedTwice {
  Counter first;
  Counter second;

  static constexpr std::tuple kFields{field("first", &ListedTwice::first),
                                      field("again", &ListedTwice::first)};
};
static_assert(!lists_every_counter<ListedTwice>());

// Tables may mix field types; render_kv prints whatever the field holds.
struct Mixed {
  Counter count;
  double ratio = 0.0;

  static constexpr std::tuple kFields{field("count", &Mixed::count),
                                      field("ratio", &Mixed::ratio)};
};

/// alpha = base, beta = base + 1, gamma = base + 2.
Sample sample(std::uint64_t base) {
  Sample s;
  s.alpha.add(base);
  s.beta.add(base + 1);
  s.gamma.add(base + 2);
  return s;
}

std::vector<std::uint64_t> values(const Sample& s) {
  std::vector<std::uint64_t> out;
  for_each_field(s, [&](std::string_view, const Counter& value) {
    out.push_back(value);
  });
  return out;
}

TEST(UtilCounter, AddRaiseToAndCopySnapshot) {
  Counter counter;
  counter.add();
  counter.add(4);
  EXPECT_EQ(counter.load(), 5u);
  counter.raise_to(3);  // lower: no change
  EXPECT_EQ(counter.load(), 5u);
  counter.raise_to(9);
  EXPECT_EQ(counter.load(), 9u);
  const Counter snapshot = counter;
  counter.add();
  EXPECT_EQ(snapshot.load(), 9u);
  EXPECT_EQ(counter.load(), 10u);
}

TEST(UtilCounter, MergeSumsEveryField) {
  Sample into = sample(1);
  util::merge(into, sample(10));
  EXPECT_EQ(values(into), (std::vector<std::uint64_t>{11, 13, 15}));
}

TEST(UtilCounter, AssigningEmptyZeroesEveryField) {
  // How stats owners reset: stats_ = {}.
  Sample s = sample(7);
  s = {};
  EXPECT_EQ(values(s), (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(UtilCounter, RenderKvEmitsEachNameOnceInTableOrder) {
  std::ostringstream plain;
  render_kv(plain, sample(1));
  EXPECT_EQ(plain.str(), "alpha=1 beta=2 gamma=3");

  std::ostringstream prefixed;
  render_kv(prefixed, sample(0), "x_");
  EXPECT_EQ(prefixed.str(), "x_alpha=0 x_beta=1 x_gamma=2");

  Mixed mixed;
  mixed.count.add(2);
  mixed.ratio = 0.5;
  std::ostringstream text;
  render_kv(text, mixed);
  EXPECT_EQ(text.str(), "count=2 ratio=0.5");
}

TEST(UtilCounter, ConcurrentAddsAndRaisesAreExact) {
  Counter total;
  Counter peak;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 10'000; ++i) {
        total.add();
        peak.raise_to(t * 10'000 + i);
      }
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(total.load(), 40'000u);
  EXPECT_EQ(peak.load(), 39'999u);
}

}  // namespace
}  // namespace epp::util
