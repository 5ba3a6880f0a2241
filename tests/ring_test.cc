// Unit and property tests for common::Ring (src/common/ring.h), the lazy
// FIFO behind every per-tenant queue: FIFO order against a std::deque
// reference through wrap-around, growth while wrapped, clear() and move;
// no buffer before the first push; capacity kept across clear(); popped
// elements released at once.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"

namespace gimbal::common {
namespace {

template <typename T>
std::vector<T> Contents(const Ring<T>& r) {
  return std::vector<T>(r.begin(), r.end());
}

template <typename T>
void ExpectSame(const Ring<T>& r, const std::deque<T>& ref) {
  ASSERT_EQ(r.size(), ref.size());
  ASSERT_EQ(r.empty(), ref.empty());
  if (!ref.empty()) {
    ASSERT_EQ(r.front(), ref.front());
  }
  ASSERT_EQ(Contents(r), std::vector<T>(ref.begin(), ref.end()));
  // Capacity is 0 or a power of two that holds every element.
  const size_t cap = r.capacity();
  ASSERT_EQ(cap & (cap - 1), 0u);
  ASSERT_GE(cap, r.size());
}

TEST(Ring, EmptyRingOwnsNoBuffer) {
  Ring<int> r;
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.capacity(), 0u);
  EXPECT_TRUE(r.begin() == r.end());
  r.clear();
  EXPECT_EQ(r.capacity(), 0u);
}

TEST(Ring, GrowsByDoublingAndKeepsCapacityOnClear) {
  Ring<int> r;
  std::vector<size_t> caps;
  for (int i = 0; i < 9; ++i) {
    r.push_back(i);
    caps.push_back(r.capacity());
  }
  EXPECT_EQ(caps, (std::vector<size_t>{1, 2, 4, 4, 8, 8, 8, 8, 16}));
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 16u);
  r.push_back(42);
  EXPECT_EQ(r.front(), 42);
  EXPECT_EQ(r.capacity(), 16u);
}

TEST(Ring, GrowthWhileWrappedKeepsOrder) {
  Ring<int> r;
  for (int i = 0; i < 4; ++i) r.push_back(i);  // capacity 4, head 0
  r.pop_front();
  r.pop_front();
  r.push_back(4);
  r.push_back(5);  // full and wrapped: slots hold 4 5 2 3
  ASSERT_EQ(r.capacity(), 4u);
  EXPECT_EQ(Contents(r), (std::vector<int>{2, 3, 4, 5}));
  r.push_back(6);  // grows from the wrapped state
  EXPECT_EQ(r.capacity(), 8u);
  EXPECT_EQ(Contents(r), (std::vector<int>{2, 3, 4, 5, 6}));
  for (int want = 2; want <= 6; ++want) {
    EXPECT_EQ(r.front(), want);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, MoveLeavesSourceEmptyAndBufferless) {
  Ring<std::string> a;
  for (int i = 0; i < 5; ++i) a.push_back(std::to_string(i));
  a.pop_front();
  Ring<std::string> b = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): contract
  EXPECT_EQ(a.capacity(), 0u);
  EXPECT_EQ(Contents(b), (std::vector<std::string>{"1", "2", "3", "4"}));

  // Move-assign over a non-empty ring; the source is reusable afterwards.
  Ring<std::string> c;
  c.push_back("x");
  c = std::move(b);
  EXPECT_EQ(b.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.size(), 4u);
  b.push_back("y");
  EXPECT_EQ(Contents(b), (std::vector<std::string>{"y"}));

  // The idiom Initiator::Shutdown uses to take a queue over.
  Ring<std::string> taken = std::exchange(c, {});
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.capacity(), 0u);
  EXPECT_EQ(taken.front(), "1");
}

TEST(Ring, PopAndClearReleaseElementsAtOnce) {
  auto held = std::make_shared<int>(7);
  Ring<std::shared_ptr<int>> r;
  r.push_back(held);
  r.push_back(held);
  r.push_back(held);
  EXPECT_EQ(held.use_count(), 4);
  r.pop_front();
  EXPECT_EQ(held.use_count(), 3);
  r.clear();
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(r.capacity(), 4u);
}

TEST(Ring, IterationMutatesInPlace) {
  Ring<int> r;
  for (int i = 0; i < 3; ++i) r.push_back(i);
  r.pop_front();
  r.push_back(3);
  r.push_back(4);  // wrapped
  for (int& v : r) v *= 10;
  EXPECT_EQ(Contents(r), (std::vector<int>{10, 20, 30, 40}));
}

// Random push/pop/clear/move sequences against std::deque. Pushes are
// biased so queues both build up (forcing growth, often while wrapped) and
// drain (walking the head around the buffer many times).
template <typename T, typename Make>
void RunAgainstDeque(uint64_t seed, Make make) {
  Rng rng(seed);
  Ring<T> ring;
  std::deque<T> ref;
  uint64_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t op = rng.NextBounded(1000);
    // Alternate phases of growth and drain every 500 steps.
    const uint64_t push_bias = (step / 500) % 2 == 0 ? 620 : 380;
    if (op < push_bias) {
      ring.push_back(make(next));
      ref.push_back(make(next));
      ++next;
    } else if (op < 995) {
      if (!ref.empty()) {
        ASSERT_EQ(ring.front(), ref.front());
        ring.pop_front();
        ref.pop_front();
      }
    } else if (op < 997) {
      const size_t cap = ring.capacity();
      ring.clear();
      ref.clear();
      ASSERT_EQ(ring.capacity(), cap) << "clear() must keep the buffer";
    } else {
      Ring<T> moved = std::move(ring);
      ASSERT_EQ(ring.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
      ASSERT_TRUE(ring.empty());
      ring = std::move(moved);
    }
    ExpectSame(ring, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(Ring, MatchesDequeReferenceTrivialElements) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    SCOPED_TRACE(seed);
    RunAgainstDeque<uint64_t>(seed, [](uint64_t v) { return v; });
  }
}

TEST(Ring, MatchesDequeReferenceOwningElements) {
  for (uint64_t seed : {3u, 11u}) {
    SCOPED_TRACE(seed);
    RunAgainstDeque<std::string>(
        seed, [](uint64_t v) { return "io-" + std::to_string(v); });
  }
}

}  // namespace
}  // namespace gimbal::common
