// LSM-tree key-value store over the blobstore — the RocksDB stand-in of
// the paper's case study (§4.3, Appendix E).
//
// Write path: WAL append (group-committed, replicated) + memtable insert;
// full memtables rotate to an immutable list and flush to L0 SSTables.
// Background leveled compaction merges L0 into L1 and size-triggered
// levels below. Read path: memtable -> immutables -> L0 (newest first) ->
// L1..Ln, bloom-filtered, one data-block read per probed table, with
// replica load balancing by virtual-view credits.
//
// IO priorities exercise Gimbal's per-tenant priority queues (§3.5):
// point reads are latency-sensitive (high), WAL writes normal, and
// flush/compaction traffic low.
//
// Fault tolerance (docs/FAULTS.md): every callback carries the operation's
// terminal IoStatus. A Put is acked only once its WAL batch has at least
// one durable replica — when both replicas fail the batch is re-queued and
// re-submitted on fresh placement (excluding the failed backend) under
// capped backoff, waiters held the whole time. Flush/compaction jobs retry
// the same way. SimulateCrash() models a tenant process crash (volatile
// state lost, un-acked waiters fail with kAborted); Recover() replays the
// replicated WAL — paying the read IO — and rebuilds the memtable.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "kv/blobstore.h"
#include "kv/hba.h"
#include "kv/memtable.h"
#include "kv/sstable.h"
#include "obs/obs.h"
#include "sim/simulator.h"

namespace gimbal::kv {

struct KvDbConfig {
  uint64_t memtable_bytes = 4ull << 20;
  uint64_t sstable_target_bytes = 4ull << 20;
  int l0_compaction_trigger = 4;
  uint64_t level1_bytes = 32ull << 20;
  double level_multiplier = 10.0;
  int levels = 4;               // L0..L3
  int max_immutables = 2;       // write-stall threshold
  int compaction_io_depth = 4;  // parallel 256K IOs per compaction
  bool wal = true;
  bool replicate = true;
  IoPriority read_priority = IoPriority::kHigh;
  IoPriority wal_priority = IoPriority::kNormal;
  IoPriority background_priority = IoPriority::kLow;
};

class KvDb {
 public:
  // Status propagation contract (docs/FAULTS.md): kOk means the op is
  // durable (Put: WAL committed with >= 1 replica) or resolved (Get/Scan);
  // kAborted means the op died with the process (crash/teardown) and was
  // never acked; any other status is a fault the caller may retry.
  using PutDone = std::function<void(IoStatus)>;
  using GetDone = std::function<void(IoStatus, bool found, Value value)>;
  using ScanDone = std::function<void(
      IoStatus, std::vector<std::pair<Key, Value>> results)>;

  KvDb(sim::Simulator& sim, Blobstore& blobs, LocalBlobAllocator& alloc,
       KvDbConfig config = {});

  // Asynchronous point operations. Callbacks fire in simulated time once
  // the op is durable (Put/Delete: WAL committed) or resolved (Get).
  void Put(Key key, uint32_t value_bytes, uint64_t stamp, PutDone done);
  void Delete(Key key, PutDone done);
  void Get(Key key, GetDone done);

  // Range scan: up to `count` live records with key >= start, in key
  // order (YCSB-E style). Pays one data-block read per 256 KiB of data
  // touched in every overlapping SSTable.
  void Scan(Key start, uint32_t count, ScanDone done);

  // Synchronously install `keys` records (0..keys-1) into the bottom
  // level with blob placement but no simulated IO — the YCSB load phase,
  // analogous to device preconditioning.
  void BulkLoad(uint64_t keys, uint32_t value_bytes);

  // --- Crash / recovery (docs/FAULTS.md) -----------------------------------
  // Abrupt process death: memtable and immutables (volatile memory) are
  // dropped, un-acked Put waiters and in-flight Get/Scan callbacks fail
  // with kAborted, and every in-flight background job is abandoned (its
  // completions no-op via an epoch guard). The durable state — SSTable
  // manifest and the replicated WAL blobs with their committed records —
  // survives for Recover(). The blobstore (connections, dirty ledger) is
  // not part of the process image and keeps draining.
  void SimulateCrash();
  // Replay the committed WAL into a fresh memtable. Replayed state is
  // visible to the very next operation; `done(kOk)` fires once the replay
  // reads (one per WAL blob, read priority) have been paid for.
  void Recover(PutDone done);
  // Sorted live view of the memtable — convergence checks in tests.
  std::vector<std::pair<Key, Value>> MemtableSnapshot() const {
    return memtable_.Sorted();
  }

  // kv.wal_retries / kv.recoveries counters and their trace events;
  // `instance` labels the series (docs/OBSERVABILITY.md).
  void AttachObservability(obs::Observability* obs, int32_t instance);

  struct Stats {
    uint64_t puts = 0;
    uint64_t deletes = 0;
    uint64_t gets = 0;
    uint64_t gets_found = 0;
    uint64_t scans = 0;
    uint64_t scan_block_reads = 0;
    uint64_t data_block_reads = 0;  // SSTable probes that cost IO
    uint64_t memory_hits = 0;       // served from memtable/immutables
    uint64_t wal_writes = 0;
    uint64_t flushes = 0;
    uint64_t compactions = 0;
    uint64_t compaction_read_bytes = 0;
    uint64_t compaction_write_bytes = 0;
    uint64_t write_stalls = 0;
    uint64_t wal_retries = 0;        // batches re-submitted, ack held
    uint64_t write_job_retries = 0;  // flush/compaction blob rewrites
    uint64_t compaction_read_retries = 0;
    uint64_t crashes = 0;
    uint64_t recoveries = 0;
    uint64_t replayed_records = 0;
    uint64_t aborted_ops = 0;  // callbacks failed kAborted by a crash
  };
  const Stats& stats() const { return stats_; }

  // Introspection for tests.
  size_t FilesAt(int level) const { return levels_[level].size(); }
  uint64_t BytesAt(int level) const;
  uint64_t memtable_bytes() const { return memtable_.bytes(); }
  size_t immutable_count() const { return immutables_.size(); }
  bool flush_active() const { return flush_active_; }
  bool compaction_active() const { return compaction_active_; }
  bool wal_inflight() const { return wal_inflight_; }
  size_t wal_waiters() const { return wal_batch_waiters_.size(); }
  const KvDbConfig& config() const { return config_; }

 private:
  struct Immutable {
    std::shared_ptr<Memtable> table;
    std::vector<BlobAddr> wal_blobs;  // primary WAL blobs to free on flush
    std::vector<BlobAddr> wal_shadow_blobs;
    // WAL-committed records backing this table (replayed on recovery).
    std::vector<std::pair<Key, Value>> wal_records;
  };
  struct StalledPut {
    Key key;
    Value value;
    PutDone done;
  };

  void PutInternal(Key key, const Value& value, PutDone done);
  void AppendWal(Key key, const Value& value, uint32_t bytes, PutDone done);
  void MaybeFlushWal();
  bool EnsureWalSpace(uint32_t bytes);
  void RotateMemtable();
  void MaybeStartFlush();
  void MaybeCompact();
  void CompactIntoNext(int level);
  // Merge `upper` (one level, oldest first) over `lower` (the next level)
  // keeping the newest version per key; drop tombstones when `to_bottom`
  // (nothing below can hold older versions).
  std::vector<std::pair<Key, Value>> MergeInputs(
      const std::vector<SsTableRef>& upper,
      const std::vector<SsTableRef>& lower, bool to_bottom) const;
  // Build output tables from merged entries, allocate + write their blobs
  // (priority low), then `install`.
  void WriteTables(std::vector<std::pair<Key, Value>> entries,
                   std::function<void(std::vector<SsTableRef>)> install);
  void AllocatePlacement(SsTable& table);
  void FreePlacement(const SsTable& table);
  uint64_t LevelLimit(int level) const;
  void DrainStalled();

  sim::Simulator& sim_;
  Blobstore& blobs_;
  LocalBlobAllocator& alloc_;
  KvDbConfig config_;

  Memtable memtable_;
  std::deque<Immutable> immutables_;
  std::vector<std::vector<SsTableRef>> levels_;
  std::deque<StalledPut> stalled_;

  // Crash epoch: bumped by SimulateCrash(). Every async continuation that
  // touches DB state captures the epoch it was created under and no-ops on
  // mismatch — the crashed process's in-flight work cannot haunt the
  // recovered one.
  uint64_t epoch_ = 0;

  // WAL group commit state.
  uint64_t wal_batch_bytes_ = 0;
  std::vector<PutDone> wal_batch_waiters_;
  std::vector<std::pair<Key, Value>> wal_batch_records_;
  bool wal_inflight_ = false;
  BlobAddr wal_blob_;
  BlobAddr wal_shadow_;
  uint64_t wal_used_ = 0;  // bytes consumed in the current WAL blob
  std::vector<BlobAddr> wal_blobs_;  // blobs of the active memtable's WAL
  std::vector<BlobAddr> wal_shadow_blobs_;
  // Records committed to the active memtable's WAL (recovery replay).
  std::vector<std::pair<Key, Value>> wal_records_;
  // Waiters of the batch currently on the wire, so a crash can abort them.
  std::shared_ptr<std::vector<PutDone>> wal_inflight_waiters_;
  int wal_retry_attempts_ = 0;   // consecutive both-replica failures
  int wal_avoid_backend_ = -1;   // last backend a WAL write failed on

  bool flush_active_ = false;
  bool compaction_active_ = false;
  int compaction_retry_attempts_ = 0;
  uint64_t next_table_id_ = 1;
  int compact_cursor_ = 0;
  Stats stats_;

  int32_t instance_ = -1;
  obs::Observability* obs_ = nullptr;
  obs::Counter* m_wal_retries_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
};

}  // namespace gimbal::kv
