// kv_ycsb_rack: replicated KV instances on a three-node rack (2 clean SSDs
// per node behind a shared ToR uplink). The benchmark drives KvDb::Get/Put
// itself: a closed loop per instance, 50/50 Get/Put drawn from the run's
// seed, and checks every answer against its own ledger of acked version
// stamps. Gets read a scrambled Zipf(0.99) key stream over every key
// written so far; Puts insert fresh keys. Puts never overwrite a key:
// overwrites lose updates in the parent program (a compaction can rank an
// older version above a newer one, see CHANGES.md), which no seed avoids.
#include <unordered_map>

#include "common/rng.h"
#include "kv/cluster.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace gimbal;

constexpr const char* kName = "kv_ycsb_rack";
constexpr int kNodes = 3;
constexpr int kSsdsPerNode = 2;
constexpr int kInstances = 3;
constexpr int kConcurrency = 8;  // outstanding ops per instance
constexpr uint64_t kKeys = 100'000;
constexpr uint32_t kValueBytes = 1024;
constexpr uint64_t kMemtableBytes = 256ull << 10;
// Room for the inserts of a long run next to the bulk-loaded keys.
constexpr uint64_t kBackendBytes = 2ull << 30;
constexpr Tick kWarmup = Milliseconds(50);
constexpr Tick kRound = Milliseconds(10);
constexpr int kWindowRounds = 600;

class KvYcsbRack : public Workload {
 public:
  void Setup(uint64_t seed, obs::Observability* obs,
             SpanLog* spans) override {
    obs_ = obs;
    spans_ = spans;
    kv::KvClusterConfig cfg;
    cfg.testbed.scheme = workload::Scheme::kGimbal;
    cfg.testbed.num_ssds = kNodes * kSsdsPerNode;
    cfg.testbed.nodes = kNodes;
    cfg.testbed.target.cores = kSsdsPerNode;
    cfg.testbed.condition = workload::SsdCondition::kClean;
    cfg.testbed.ssd.logical_bytes = kBackendBytes;
    cfg.testbed.obs = obs;
    cfg.hba.backend_bytes = kBackendBytes;
    cfg.db.memtable_bytes = kMemtableBytes;
    {
      Span s(spans, "testbed.construct");
      const int64_t t0 = HostNs();
      cluster_ = std::make_unique<kv::KvCluster>(cfg);
      precondition_s_ = static_cast<double>(HostNs() - t0) / 1e9;
    }
    zipf_ = std::make_unique<ZipfianGenerator>(kKeys, 0.99);
    bulk_load_s_ = 0;
    for (int i = 0; i < kInstances; ++i) {
      kv::KvCluster::Instance& inst = cluster_->AddInstance();
      {
        Span s(spans, "kv.bulk_load");
        const int64_t t0 = HostNs();
        inst.db->BulkLoad(kKeys, kValueBytes);
        bulk_load_s_ += static_cast<double>(HostNs() - t0) / 1e9;
      }
      Client c;
      c.db = inst.db.get();
      c.rng = Rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(i) + 1);
      clients_.push_back(std::move(c));
    }
    running_ = true;
    for (size_t i = 0; i < clients_.size(); ++i) {
      for (int q = 0; q < kConcurrency; ++q) Issue(i);
    }
    Span s(spans, "sim.run_until");
    cluster_->sim().RunUntil(cluster_->sim().now() + kWarmup);
  }

  void Teardown() override {
    cluster_.reset();
    clients_.clear();
    ops_ = OpLedger(kName);
  }

  int window_rounds() const override { return kWindowRounds; }

  uint64_t RunRound(bool record) override {
    ops_.StartRound(record);
    Span s(spans_, "sim.run_until");
    cluster_->sim().RunUntil(cluster_->sim().now() + kRound);
    return ops_.round_ops();
  }

  void DrainAndCheck() override {
    running_ = false;
    ops_.StartRound(false);
    cluster_->sim().Run();
    ops_.CheckAllCompleted();
    // After the drain a Get of every written key returns its last acked
    // stamp (all Puts were acked, so it is also the last one issued).
    uint64_t verified = 0;
    for (Client& c : clients_) {
      for (const auto& [key, stamp] : c.last_issued) {
        Expect(c.acked.count(key) && c.acked[key] == stamp, kName,
               "acked stamps",
               "key " + std::to_string(key) + ": last issued stamp " +
                   std::to_string(stamp) + " never acked");
        c.db->Get(key, [&, key = key, want = stamp](IoStatus st, bool found,
                                                     kv::Value v) {
          Expect(st == IoStatus::kOk && found && v.stamp == want, kName,
                 "final read-back",
                 "key " + std::to_string(key) + " read stamp " +
                     std::to_string(v.stamp) + ", want " +
                     std::to_string(want));
          ++verified;
        });
      }
      cluster_->sim().Run();
    }
    uint64_t written = 0;
    for (const Client& c : clients_) written += c.last_issued.size();
    Expect(verified == written, kName, "final read-back",
           std::to_string(verified) + " of " + std::to_string(written) +
               " keys answered");
    Expect(cluster_->bed().checker().ok(), kName, "invariant checker",
           "violations");
  }

  SimFigures Figures() override {
    return ops_.Figures(kRound * kWindowRounds);
  }

  void BeginWindow() override {
    if (obs_) ResetWindowMetrics(cluster_->bed(), *obs_);
    snap_ = BedSnapshot::Take(cluster_->bed(), obs_);
    db_snap_ = DbTotals();
  }

  void Layers(LayerSheet& sheet, int64_t window_host_ns) override {
    const BedSnapshot end = BedSnapshot::Take(cluster_->bed(), obs_);
    // A KV operation is several fabric IOs (or none, on a memory hit), so
    // fabric.transit_us stays undefined here.
    SharedLayers(sheet, cluster_->bed(), *obs_, snap_, end, ops_.window_ops(),
                 /*client_mean_us=*/-1, window_host_ns);
    sheet.Set("ssd.precondition_s", precondition_s_);
    sheet.Set("kv.bulk_load_s", bulk_load_s_);
    const kv::KvDb::Stats d = Minus(DbTotals(), db_snap_);
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    sheet.Set("kv.block_reads_per_get",
              ratio(static_cast<double>(d.data_block_reads),
                    static_cast<double>(d.gets)));
    sheet.Set("kv.memory_hit_frac", ratio(static_cast<double>(d.memory_hits),
                                          static_cast<double>(d.gets)));
    sheet.Set("kv.compaction_bytes_per_put_byte",
              ratio(static_cast<double>(d.compaction_write_bytes),
                    static_cast<double>(d.puts) * kValueBytes));
    sheet.Set("kv.puts_per_wal_write", ratio(static_cast<double>(d.puts),
                                             static_cast<double>(d.wal_writes)));
    sheet.Set("kv.write_stalls_per_kop",
              ratio(1e3 * static_cast<double>(d.write_stalls),
                    static_cast<double>(ops_.window_ops())));
    const double calls = static_cast<double>(spans_->Count("kv.get") +
                                             spans_->Count("kv.put"));
    sheet.Set("kv.host_us_per_call",
              ratio(static_cast<double>(spans_->TotalNs("kv.get") +
                                        spans_->TotalNs("kv.put")) / 1e3,
                    calls));
  }

 private:
  struct Client {
    kv::KvDb* db = nullptr;
    Rng rng;
    uint64_t next_stamp = 1;
    kv::Key next_key = kKeys;  // keys [0, next_key) exist
    // Ledger: the key each stamp was written for, the newest stamp acked
    // per key and the last stamp issued per key.
    std::unordered_map<uint64_t, kv::Key> stamp_key;
    std::unordered_map<kv::Key, uint64_t> acked;
    std::unordered_map<kv::Key, uint64_t> last_issued;
  };

  kv::KvDb::Stats DbTotals() const {
    kv::KvDb::Stats t;
    for (const Client& c : clients_) {
      const kv::KvDb::Stats& s = c.db->stats();
      t.gets += s.gets;
      t.puts += s.puts;
      t.data_block_reads += s.data_block_reads;
      t.memory_hits += s.memory_hits;
      t.wal_writes += s.wal_writes;
      t.compaction_write_bytes += s.compaction_write_bytes;
      t.write_stalls += s.write_stalls;
    }
    return t;
  }

  static kv::KvDb::Stats Minus(kv::KvDb::Stats a, const kv::KvDb::Stats& b) {
    a.gets -= b.gets;
    a.puts -= b.puts;
    a.data_block_reads -= b.data_block_reads;
    a.memory_hits -= b.memory_hits;
    a.wal_writes -= b.wal_writes;
    a.compaction_write_bytes -= b.compaction_write_bytes;
    a.write_stalls -= b.write_stalls;
    return a;
  }

  void Issue(size_t ci) {
    Client& c = clients_[ci];
    const bool put = c.rng.NextBool(0.5);
    // Zipf rank, scattered over every key that exists so far.
    const kv::Key key = put ? c.next_key++ : Scramble(zipf_->Next(c.rng)) %
                                                 c.next_key;
    const uint64_t id = ops_.Issue();
    const Tick start = cluster_->sim().now();
    if (put) {
      const uint64_t stamp = c.next_stamp++;
      c.stamp_key[stamp] = key;
      c.last_issued[key] = stamp;
      Span s(spans_, "kv.put");
      c.db->Put(key, kValueBytes, stamp,
                [this, ci, id, start, key, stamp](IoStatus st) {
                  uint64_t& acked = clients_[ci].acked[key];
                  acked = std::max(acked, stamp);
                  Complete(ci, id, start, st, "kv.put", false);
                });
    } else {
      // The answer may be no older than the newest stamp acked before the
      // Get was issued.
      const uint64_t floor = c.acked.count(key) ? c.acked[key] : 0;
      Span s(spans_, "kv.get");
      c.db->Get(key, [this, ci, id, start, key, floor](IoStatus st, bool found,
                                                       kv::Value v) {
        Client& cl = clients_[ci];
        if (st == IoStatus::kOk) {
          auto it = cl.stamp_key.find(v.stamp);
          const bool written =
              v.stamp == 0 || (it != cl.stamp_key.end() && it->second == key);
          Expect(found && written && v.stamp >= floor, kName,
                 "Get returns a written, fresh stamp",
                 "key " + std::to_string(key) + " stamp " +
                     std::to_string(v.stamp) + " floor " +
                     std::to_string(floor));
        }
        Complete(ci, id, start, st, "kv.get", true);
      });
    }
  }

  static uint64_t Scramble(uint64_t x) {  // splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  void Complete(size_t ci, uint64_t id, Tick start, IoStatus st,
                const char* span, bool read) {
    const Tick lat = cluster_->sim().now() - start;
    if (spans_) spans_->Async(span, lat);
    ops_.Complete(id, st, read, kValueBytes, lat);
    if (running_) Issue(ci);
  }

  obs::Observability* obs_ = nullptr;
  SpanLog* spans_ = nullptr;
  std::unique_ptr<kv::KvCluster> cluster_;
  std::unique_ptr<ZipfianGenerator> zipf_;
  std::vector<Client> clients_;
  OpLedger ops_{kName};
  bool running_ = false;
  double precondition_s_ = 0, bulk_load_s_ = 0;
  BedSnapshot snap_;
  kv::KvDb::Stats db_snap_;
};

}  // namespace

std::unique_ptr<Workload> MakeKvYcsbRack() {
  return std::make_unique<KvYcsbRack>();
}

}  // namespace perfbench
