// Ring<T>: a FIFO that owns no heap memory until its first push.
//
// The per-tenant queues (a TenantState's priority queues, an initiator's
// pending queue, the baselines' per-flow queues) are empty nearly all the
// time at fleet scale, where a session issues a handful of IOs per second.
// libstdc++'s std::deque allocates a 512-byte node plus its map on
// construction, so 20k idle sessions pinned tens of MiB of empty buffers.
// Ring starts with no buffer, grows by doubling a power-of-two circular
// buffer when full, and keeps its capacity across clear() — an arena slot
// recycled through TenantState::Reset() reuses its buffer the same way the
// deque's was reused. Elements stay in FIFO order through wrap-around and
// growth; a moved-from ring is empty and owns nothing.
//
// Slots outside [head, head + size) hold default-constructed T, so T must be
// default-constructible and move-assignable. For a T that owns resources (a
// captured callback, say) pop_front() and clear() assign T{} back, so they
// are released at once, as the deque released them.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <type_traits>
#include <utility>

namespace gimbal::common {

template <typename T>
class Ring {
 public:
  Ring() = default;
  Ring(Ring&& other) noexcept { Steal(other); }
  Ring& operator=(Ring&& other) noexcept {
    if (this != &other) Steal(other);
    return *this;
  }
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  void push_back(T value) {
    if (size_ == cap_) Grow();
    assert(cap_ > 0);
    buf_[(head_ + size_) & (cap_ - 1)] = std::move(value);
    ++size_;
  }

  T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }

  void pop_front() {
    assert(size_ > 0);
    if constexpr (!std::is_trivially_destructible_v<T>) buf_[head_] = T{};
    head_ = (head_ + 1) & (cap_ - 1);
    --size_;
  }

  // Drops every element but keeps the buffer.
  void clear() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      while (size_ > 0) pop_front();
    }
    head_ = 0;
    size_ = 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slots in the buffer; 0 until the first push_back.
  size_t capacity() const { return cap_; }

  // In-order (front to back) iteration.
  template <bool kConst>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::conditional_t<kConst, const T*, T*>;
    using reference = std::conditional_t<kConst, const T&, T&>;

    Iter(pointer buf, size_t mask, size_t pos)
        : buf_(buf), mask_(mask), pos_(pos) {}
    reference operator*() const { return buf_[pos_ & mask_]; }
    Iter& operator++() {
      ++pos_;
      return *this;
    }
    bool operator==(const Iter& o) const { return pos_ == o.pos_; }
    bool operator!=(const Iter& o) const { return pos_ != o.pos_; }

   private:
    pointer buf_;
    size_t mask_;
    size_t pos_;  // unmasked: head + offset, so end() is head + size
  };
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  iterator begin() { return {buf_.get(), mask(), head_}; }
  iterator end() { return {buf_.get(), mask(), size_t{head_} + size_}; }
  const_iterator begin() const { return {buf_.get(), mask(), head_}; }
  const_iterator end() const {
    return {buf_.get(), mask(), size_t{head_} + size_};
  }

 private:
  size_t mask() const { return cap_ - 1; }  // unused while cap_ == 0

  void Grow() {
    const uint32_t cap = cap_ == 0 ? 1 : 2 * cap_;
    assert(cap > cap_ && "Ring capacity overflow");
    std::unique_ptr<T[]> buf(new T[cap]());
    for (uint32_t i = 0; i < size_; ++i) {
      buf[i] = std::move(buf_[(head_ + i) & (cap_ - 1)]);
    }
    buf_ = std::move(buf);
    cap_ = cap;
    head_ = 0;
  }

  void Steal(Ring& other) {
    buf_ = std::move(other.buf_);
    cap_ = std::exchange(other.cap_, 0);
    head_ = std::exchange(other.head_, 0);
    size_ = std::exchange(other.size_, 0);
  }

  std::unique_ptr<T[]> buf_;
  uint32_t cap_ = 0;   // 0 or a power of two
  uint32_t head_ = 0;  // index of front() in buf_
  uint32_t size_ = 0;
};

}  // namespace gimbal::common
