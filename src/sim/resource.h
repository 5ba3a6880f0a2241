// A serially-shared resource (a CPU core, a NAND channel).
//
// Work items occupy the resource for a duration; queued items run FIFO.
// This is the building block for the target's reactor cores (Fig 3 / 16 /
// Table 1) and for the SSD's channels.
//
// The occupant's callback is parked in the resource (running_) rather than
// captured inside the completion closure, so the event scheduled on the
// simulator captures only `this` and stays within EventFn's inline buffer
// — nested wrapping of an EventFn in another closure would spill every
// resource completion to the heap.
#pragma once

#include <deque>
#include <utility>

#include "common/time.h"
#include "sim/simulator.h"

namespace gimbal::sim {

class FifoResource {
 public:
  explicit FifoResource(Simulator& sim) : sim_(sim) {}

  // Occupy the resource for `duration`, then invoke `done` (may be null).
  // If busy, the request queues behind earlier ones.
  void Acquire(Tick duration, EventFn done) {
    queue_.push_back(Item{duration, std::move(done)});
    busy_accum_ += duration;
    if (!busy_) StartNext();
  }

  bool busy() const { return busy_; }
  size_t queue_depth() const { return queue_.size(); }

  // Total busy time ever scheduled; used for utilization accounting.
  Tick busy_time_total() const { return busy_accum_; }

 private:
  struct Item {
    Tick duration;
    EventFn done;
  };

  void StartNext() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    running_ = std::move(queue_.front());
    queue_.pop_front();
    sim_.After(running_.duration, [this]() {
      Item item = std::move(running_);
      // Keep the historical event order: the occupant's continuation runs
      // before the next occupant starts.
      if (item.done) item.done();
      StartNext();
    });
  }

  Simulator& sim_;
  std::deque<Item> queue_;
  Item running_{};
  bool busy_ = false;
  Tick busy_accum_ = 0;
};

// A two-priority serially-shared resource: high-priority work (host reads
// on a NAND die) is served before queued low-priority work (programs, GC,
// erase slices), but never preempts the occupant mid-operation. This
// models the read-priority / suspension behaviour of real SSD controllers.
class PrioResource {
 public:
  explicit PrioResource(Simulator& sim) : sim_(sim) {}

  void AcquireHigh(Tick duration, EventFn done) {
    high_.push_back(Item{duration, std::move(done)});
    busy_accum_ += duration;
    if (!busy_) StartNext();
  }
  void AcquireLow(Tick duration, EventFn done) {
    low_.push_back(Item{duration, std::move(done)});
    busy_accum_ += duration;
    if (!busy_) StartNext();
  }

  bool busy() const { return busy_; }
  size_t queue_depth() const { return high_.size() + low_.size(); }
  Tick busy_time_total() const { return busy_accum_; }

 private:
  struct Item {
    Tick duration;
    EventFn done;
  };

  void StartNext() {
    std::deque<Item>& q = !high_.empty() ? high_ : low_;
    if (q.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    running_ = std::move(q.front());
    q.pop_front();
    sim_.After(running_.duration, [this]() {
      Item item = std::move(running_);
      if (item.done) item.done();
      StartNext();
    });
  }

  Simulator& sim_;
  std::deque<Item> high_;
  std::deque<Item> low_;
  Item running_{};
  bool busy_ = false;
  Tick busy_accum_ = 0;
};

}  // namespace gimbal::sim
