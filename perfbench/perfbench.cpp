// Repository benchmark program: opens the engine the way it ships (4 hash
// partitions on one pooled TaskPool, one MemoryArbiter over every memtable
// and the buffer cache, WAL synced per commit group, POSIX files with an
// unthrottled byte-counting device model) and runs one of three workloads:
//
//   ingest  two closed-loop feeds parse ADM text and submit 256-record
//           tickets; timed from the first submit until background work has
//           drained. Exercises parser, encode, WAL, memtables, flush builds
//           and merges; queries and the buffer cache stay idle.
//   scan    tweets larger than the buffer cache (plus a small users dataset)
//           are loaded during set-up; one client runs Twitter Q1-Q4 and the
//           users-tweets join round-robin. Exercises page fetch, decompress,
//           pushed-down predicates, assembly, operators and the hash join.
//   mixed   a cache-resident dataset with primary-key and timestamp indexes;
//           an open-loop upsert feed runs beside a closed-loop point-lookup
//           reader. Exercises filters, the pk index, flush/merge contention
//           with lookups, and the arbiter's split; the parser is bypassed.
//
// Usage: perfbench --workload W --seed N --seconds S --trace 0|1
//            --dir DATA_DIR --record RECORD.json [--trace-out PREFIX]
//            [--scale full|tiny]
// Inputs are generated from --seed during set-up; the timed phase only hands
// the engine those inputs. Every output check that fails makes the program
// exit non-zero. The last stdout line is the result JSON: end-to-end metrics
// when untraced, per-layer metrics when traced.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "adm/parser.h"
#include "adm/printer.h"
#include "cluster/cluster.h"
#include "common/memory_arbiter.h"
#include "common/rng.h"
#include "core/dataset.h"
#include "core/ingest.h"
#include "query/paper_queries.h"
#include "query/planner.h"
#include "query/vec/hash_join.h"
#include "storage/buffer_cache.h"
#include "storage/device_model.h"
#include "timed_fs.h"
#include "trace.h"
#include "workload/workload.h"

extern char** environ;

namespace perfbench {
namespace {

using tc::AdmValue;
using tc::Dataset;
using tc::IngestFrontEnd;
using tc::IngestTicket;
using tc::Status;

// ---------------------------------------------------------------------------
// Fixed configuration: every option is set here, none is read from TC_*.
// ---------------------------------------------------------------------------

constexpr size_t kNodes = 2;
constexpr size_t kPartitionsPerNode = 2;
constexpr size_t kPageSize = 32 * 1024;
constexpr size_t kIngestFeeds = 2;
constexpr size_t kTicketRecords = 256;
constexpr size_t kMaxOutstanding = 4;
constexpr size_t kMixedTicketRecords = 32;
constexpr double kMixedUpdateShare = 0.9;
constexpr double kMixedAbsentShare = 0.1;
// One window count per this many point lookups in `mixed`.
constexpr uint64_t kMixedLookupsPerWindow = 16000;
// Tail percentile of ingest and mixed op latency (thousands of samples per
// run); scan's tail is the slowest query of a round.
constexpr double kTailPercentile = 99;
// Windows for the medians of ingest and mixed (see Windowed).
constexpr int64_t kIngestWindowNs = 2'000'000'000;
constexpr int64_t kMixedWindowNs = 1'000'000'000;
// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;

/// Data sizes per scale. `full` is what BENCHMARK.json runs; `tiny` is the
/// smoke test's.
struct Sizes {
  uint64_t ingest_raw_bytes;  // ADM text the ingest feeds replay
  uint64_t scan_raw_bytes;    // tweets loaded for scan
  uint64_t mixed_raw_bytes;   // records pre-loaded for mixed
  double mixed_upserts_per_s;
  size_t mixed_template_pool;
};

Sizes SizesFor(const std::string& scale) {
  if (scale == "tiny") return {2ull << 20, 3ull << 20, 1ull << 20, 500, 64};
  return {64ull << 20, 160ull << 20, 24ull << 20, 8000, 1024};
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: error: %s\n", what.c_str());
  std::fflush(stderr);
  std::fflush(stdout);
  std::_Exit(1);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

template <typename T>
T TakeOrDie(tc::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return std::move(r).value();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// Hands freed heap back to the kernel (earlier set-up repetitions leave
/// some) and resets the peak-RSS watermark (VmHWM), so the peak measures the
/// timed phase.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double PeakRssMib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
    }
  }
  return 0;
}

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// One completed operation: when it finished, how long it took, and how many
/// records it carried.
struct Sample {
  int64_t at_ns;
  double ms;
  uint32_t weight;
};

std::vector<double> LatenciesMs(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& x : samples) out.push_back(x.ms);
  return out;
}

/// Medians over fixed time windows of [from, to) (partial windows dropped):
/// rate = weight completed per second, p50 and tail = per-window latency
/// percentiles. The host's speed drifts over seconds; a median over windows
/// keeps a run's figure from depending on how much of it a slow phase
/// covered.
struct WindowSummary {
  double rate = 0;
  double p50 = 0;
  double tail = 0;
  size_t windows = 0;
};

WindowSummary Windowed(const std::vector<Sample>& samples, int64_t from, int64_t to,
                       int64_t window_ns, double tail_pct) {
  size_t n = static_cast<size_t>(std::max<int64_t>(1, (to - from) / window_ns));
  std::vector<std::vector<double>> ms(n);
  std::vector<double> weight(n, 0);
  for (const Sample& x : samples) {
    if (x.at_ns < from) continue;
    size_t w = static_cast<size_t>((x.at_ns - from) / window_ns);
    if (w >= n) continue;
    ms[w].push_back(x.ms);
    weight[w] += x.weight;
  }
  std::vector<double> rates, p50s, tails;
  for (size_t w = 0; w < n; ++w) {
    rates.push_back(weight[w] / (static_cast<double>(window_ns) / 1e9));
    if (ms[w].empty()) continue;
    p50s.push_back(Percentile(ms[w], 50));
    tails.push_back(Percentile(ms[w], tail_pct));
  }
  return {Median(rates), Median(p50s), Median(tails), n};
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void SetId(AdmValue* rec, int64_t id) {
  for (size_t f = 0; f < rec->field_count(); ++f) {
    if (rec->field_name(f) == "id") {
      rec->field_value(f) = AdmValue::BigInt(id);
      return;
    }
  }
  rec->AddField("id", AdmValue::BigInt(id));
}

int64_t TimestampOf(const AdmValue& rec) {
  const AdmValue* ts = rec.FindField("timestamp_ms");
  return ts == nullptr ? 0 : ts->int_value();
}

// ---------------------------------------------------------------------------
// Engine: the shipped shape, opened in a fresh directory.
// ---------------------------------------------------------------------------

struct EngineShape {
  bool primary_key_index = false;
  std::string secondary_index_field;
  bool with_users = false;  // a second dataset sharing pool, arbiter, cache
};

tc::DatasetOptions BaseOptions(const std::string& name, const std::string& dir) {
  tc::DatasetOptions o;
  o.name = name;
  o.dir = dir;
  o.mode = tc::SchemaMode::kInferred;
  o.type = tc::DatasetType::OpenWithPk("id");
  o.compression = true;
  o.page_size = kPageSize;
  o.memtable_budget_bytes = 4 * 1024 * 1024;
  o.pk_index_budget_divisor = 16;
  o.secondary_budget_divisor = 8;
  o.min_tree_budget_bytes = 64 * 1024;
  o.merge = tc::MergePolicyConfig();
  o.filter = tc::BloomFilterConfig();
  o.merge_transform = true;
  o.merge_recompress = tc::CompressionKind::kNone;
  o.value_ordered_merges = true;
  o.use_wal = true;
  o.wal_sync_every = 1;
  return o;
}

tc::QueryOptions Queries() {
  tc::QueryOptions q;
  q.consolidate_field_access = true;
  q.pushdown_scan_predicates = true;
  q.has_nonlocal_exchange = false;
  q.max_threads = 0;
  q.vectorized = true;
  q.vec_batch_rows = 1024;
  return q;
}

tc::GroupCommitConfig GroupCommit() { return tc::GroupCommitConfig(); }

/// The effective configuration of a run, read back from the option objects
/// the engine is opened with.
std::string DescribeConfig(const EngineShape& shape) {
  const tc::DatasetOptions o = BaseOptions("", "");
  const tc::MemoryArbiter::Options ao;
  const tc::QueryOptions q = Queries();
  const tc::GroupCommitConfig gc = GroupCommit();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"mode\":\"%s\",\"compression\":%d,\"page_size\":%zu,\"nodes\":%zu,"
      "\"partitions\":%zu,\"executor_threads\":%zu,\"arbiter_budget_bytes\":%zu,"
      "\"arbiter_write_pct\":%d,\"arbiter_adaptive\":%d,\"merge_policy\":\"%s\","
      "\"max_concurrent_merges\":%zu,\"bloom_bits_per_key\":%zu,"
      "\"merge_transform\":%d,\"vectorized\":%d,\"wal_sync_every\":%zu,"
      "\"group_commit_records\":%zu,\"device\":\"%s\",\"primary_key_index\":%d,"
      "\"secondary_index\":\"%s\",\"users_dataset\":%d}",
      tc::SchemaModeName(o.mode), o.compression, o.page_size, kNodes,
      kNodes * kPartitionsPerNode, tc::TaskPool::DefaultThreadCount(),
      ao.total_budget_bytes, ao.write_pct, ao.adaptive,
      tc::MergePolicyKindName(o.merge.kind), o.merge.max_concurrent_merges,
      o.filter.bits_per_key, o.merge_transform, q.vectorized, o.wal_sync_every,
      gc.max_records, tc::DeviceProfile::Unthrottled().name.c_str(),
      shape.primary_key_index, shape.secondary_index_field.c_str(), shape.with_users);
  return buf;
}

class Engine {
 public:
  Engine(const std::string& dir, const EngineShape& shape) : dir_(dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::create_directories(dir_ + "/tweets", ec);
    std::filesystem::create_directories(dir_ + "/users", ec);
    if (ec) Die("cannot create " + dir_ + ": " + ec.message());
    device_ = std::make_shared<tc::DeviceModel>(tc::DeviceProfile::Unthrottled());
    auto posix = tc::MakePosixFileSystem();
    posix->set_device(device_);
    fs_ = std::make_shared<TimedFileSystem>(posix);
    cache_ = std::make_unique<tc::BufferCache>(kPageSize, 1024);
    tc::MemoryArbiter::Options ao;
    ao.cache = cache_.get();
    arbiter_ = std::make_unique<tc::MemoryArbiter>(ao);

    tc::DatasetOptions o = BaseOptions("tweets", dir_ + "/tweets");
    o.primary_key_index = shape.primary_key_index;
    o.secondary_index_field = shape.secondary_index_field;
    o.fs = fs_;
    o.cache = cache_.get();
    o.arbiter = arbiter_.get();
    tc::ClusterTopology topo;
    topo.nodes = kNodes;
    topo.partitions_per_node = kPartitionsPerNode;
    topo.executor_threads = 0;
    harness_ = TakeOrDie(tc::ClusterHarness::Create(topo, std::move(o)),
                         "open tweets dataset");
    if (shape.with_users) {
      tc::DatasetOptions u = BaseOptions("users", dir_ + "/users");
      u.fs = fs_;
      u.cache = cache_.get();
      u.arbiter = arbiter_.get();
      u.merge_pool = harness_->executor();
      users_ = TakeOrDie(Dataset::Open(std::move(u), kNodes * kPartitionsPerNode),
                         "open users dataset");
    }
  }

  ~Engine() {
    users_.reset();
    harness_.reset();
    arbiter_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Dataset* ds() { return harness_->dataset(); }
  Dataset* users() { return users_.get(); }
  tc::BufferCache* cache() { return cache_.get(); }
  tc::MemoryArbiter* arbiter() { return arbiter_.get(); }
  tc::DeviceModel* device() { return device_.get(); }
  IoStats& io() { return fs_->stats(); }

  uint64_t PhysicalBytes() const {
    uint64_t b = harness_->dataset()->TotalPhysicalBytes();
    if (users_ != nullptr) b += users_->TotalPhysicalBytes();
    return b;
  }

  /// FlushAll + WaitForBackgroundWork on every dataset, under one
  /// "lsm.drain" span.
  void FlushAndDrain() {
    Span drain("lsm.drain");
    for (Dataset* d : {ds(), users()}) {
      if (d == nullptr) continue;
      {
        Span s("lsm.flush_all");
        CheckOk(d->FlushAll(), "FlushAll");
      }
      Span s("lsm.wait_background");
      CheckOk(d->WaitForBackgroundWork(), "WaitForBackgroundWork");
    }
  }

 private:
  std::string dir_;
  std::shared_ptr<tc::DeviceModel> device_;
  std::shared_ptr<TimedFileSystem> fs_;
  std::unique_ptr<tc::BufferCache> cache_;
  std::unique_ptr<tc::MemoryArbiter> arbiter_;
  std::unique_ptr<tc::ClusterHarness> harness_;
  std::unique_ptr<Dataset> users_;
};

// ---------------------------------------------------------------------------
// Ack waiter: times each ticket from its due time (closed loop: the submit
// time) to its ack on a thread of its own, so the feed never delays the
// measurement. With a slot limit it also bounds the feed's outstanding
// tickets.
// ---------------------------------------------------------------------------

class AckWaiter {
 public:
  explicit AckWaiter(size_t max_outstanding) : max_outstanding_(max_outstanding) {
    thread_ = std::thread([this] { Loop(); });
  }
  ~AckWaiter() { Finish(); }
  AckWaiter(const AckWaiter&) = delete;
  AckWaiter& operator=(const AckWaiter&) = delete;

  /// Blocks while the feed already has the maximum tickets outstanding.
  void WaitForSlot() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return max_outstanding_ == 0 || outstanding_ < max_outstanding_; });
  }

  void Add(IngestTicket ticket, int64_t due_ns, size_t records) {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(Pending{std::move(ticket), due_ns, records});
    ++outstanding_;
    cv_.notify_all();
  }

  /// Waits for every added ticket, then stops the thread.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
      cv_.notify_all();
    }
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Finish(). Latency is measured from the due time.
  std::vector<Sample> acks;
  uint64_t tickets = 0;
  uint64_t records_ok = 0;
  uint64_t records_failed = 0;
  std::string first_error;

 private:
  struct Pending {
    IngestTicket ticket;
    int64_t due_ns;
    size_t records;
  };

  void Loop() {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return done_ || !queue_.empty(); });
        if (queue_.empty()) return;
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      Status st;
      {
        Span s("core.ticket_wait");
        st = p.ticket.Wait();
      }
      int64_t now = NowNs();
      acks.push_back({now, static_cast<double>(now - p.due_ns) / 1e6,
                      static_cast<uint32_t>(p.records)});
      ++tickets;
      size_t failed = st.ok() ? 0 : std::max<size_t>(1, p.ticket.errors().size());
      failed = std::min(failed, p.records);
      records_failed += failed;
      records_ok += p.records - failed;
      if (!st.ok() && first_error.empty()) first_error = st.ToString();
      std::lock_guard<std::mutex> lock(mu_);
      --outstanding_;
      cv_.notify_all();
    }
  }

  const size_t max_outstanding_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  size_t outstanding_ = 0;
  bool done_ = false;
  std::thread thread_;  // last: starts after the state it uses
};

/// Runs a workload's whole set-up kSetupRepeats times, each from scratch,
/// and returns the median duration; the last repetition's state is the one
/// the timed phase uses.
double MedianSetupSeconds(const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    setup();
    seconds.push_back(SecondsSince(start));
  }
  return Median(seconds);
}

/// Set-up load: submits the records `next` yields (it returns false when
/// done) in ticket-sized batches, at most kMaxOutstanding in flight. Returns
/// the first ticket error, empty when every record landed.
std::string Load(IngestFrontEnd* fe, const std::function<bool(AdmValue*)>& next) {
  AckWaiter waiter(kMaxOutstanding);
  std::vector<AdmValue> batch;
  for (bool more = true; more;) {
    AdmValue rec;
    more = next(&rec);
    if (more) batch.push_back(std::move(rec));
    if (!batch.empty() && (batch.size() == kTicketRecords || !more)) {
      size_t n = batch.size();
      waiter.WaitForSlot();
      waiter.Add(fe->Submit(std::move(batch)), NowNs(), n);
      batch.clear();
    }
  }
  waiter.Finish();
  return waiter.records_failed == 0 ? "" : waiter.first_error;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> end_to_end;  // the BENCHMARK.json end-to-end set
  std::vector<Metric> report;      // workload-specific names, printed only
  std::vector<Metric> per_layer;
  std::string sizes_json;
  std::string options_json;
  int64_t timed_from_ns = 0;
  int64_t timed_to_ns = 0;

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
};

// Counter snapshot taken at the start and end of the timed phase; per-layer
// metrics are the differences.
struct Counters {
  tc::LsmStats lsm;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  tc::MemoryArbiter::Stats arbiter;
  uint64_t device_read = 0;
  uint64_t device_written = 0;
  IoTotals io[kRoleCount][kOpCount];
  double cpu_s = 0;
  int64_t at_ns = 0;
};

tc::LsmStats SumStats(Engine* e) {
  tc::LsmStats s = e->ds()->AggregateStats();
  if (e->users() != nullptr) {
    tc::LsmStats u = e->users()->AggregateStats();
    s.flush_count += u.flush_count;
    s.merge_count += u.merge_count;
    s.bytes_flushed += u.bytes_flushed;
    s.bytes_merged += u.bytes_merged;
  }
  return s;
}

Counters Snapshot(Engine* e) {
  Counters c;
  c.lsm = SumStats(e);
  c.cache_hits = e->cache()->hits();
  c.cache_misses = e->cache()->misses();
  c.arbiter = e->arbiter()->stats();
  c.device_read = e->device()->bytes_read();
  c.device_written = e->device()->bytes_written();
  for (size_t r = 0; r < kRoleCount; ++r) {
    for (size_t o = 0; o < kOpCount; ++o) {
      c.io[r][o] = e->io().Snapshot(static_cast<FileRole>(r), static_cast<IoOp>(o));
    }
  }
  c.cpu_s = ProcessCpuSeconds();
  c.at_ns = NowNs();
  return c;
}

/// Counter differences over the timed phase.
struct LayerDeltas {
  double flushes = 0, bytes_flushed = 0, merges = 0, bytes_merged = 0;
  double merge_read_us = 0, merge_transform_us = 0, merge_compress_us = 0,
         merge_write_us = 0;
  double flush_queue_hw = 0, concurrent_merges_hw = 0, components_hw = 0;
  double point_lookups = 0, filter_checks = 0, filter_negatives = 0,
         filter_false_positives = 0, lookup_pages_read = 0;
  double cache_hits = 0, cache_misses = 0;
  double device_read = 0, device_written = 0;
  double io_calls[kRoleCount][kOpCount] = {};
  double io_bytes[kRoleCount][kOpCount] = {};
  double io_ms[kRoleCount][kOpCount] = {};
  double write_pct_final = 0, adapt_shifts = 0, global_flushes = 0,
         self_flushes = 0;
  double cpu_s = 0, wall_s = 0;
};

LayerDeltas Diff(const Counters& a, const Counters& b) {
  LayerDeltas d;
  d.flushes = static_cast<double>(b.lsm.flush_count - a.lsm.flush_count);
  d.bytes_flushed = static_cast<double>(b.lsm.bytes_flushed - a.lsm.bytes_flushed);
  d.merges = static_cast<double>(b.lsm.merge_count - a.lsm.merge_count);
  d.bytes_merged = static_cast<double>(b.lsm.bytes_merged - a.lsm.bytes_merged);
  d.merge_read_us = static_cast<double>(b.lsm.merge_read_usecs - a.lsm.merge_read_usecs);
  d.merge_transform_us =
      static_cast<double>(b.lsm.merge_transform_usecs - a.lsm.merge_transform_usecs);
  d.merge_compress_us =
      static_cast<double>(b.lsm.merge_compress_usecs - a.lsm.merge_compress_usecs);
  d.merge_write_us =
      static_cast<double>(b.lsm.merge_write_usecs - a.lsm.merge_write_usecs);
  // High-water marks are the engine's own maxima since open.
  d.flush_queue_hw = static_cast<double>(b.lsm.flush_queue_high_water);
  d.concurrent_merges_hw = static_cast<double>(b.lsm.concurrent_merges_high_water);
  d.components_hw = static_cast<double>(b.lsm.component_count_high_water);
  d.point_lookups = static_cast<double>(b.lsm.point_lookups - a.lsm.point_lookups);
  d.filter_checks = static_cast<double>(b.lsm.filter_checks - a.lsm.filter_checks);
  d.filter_negatives =
      static_cast<double>(b.lsm.filter_negatives - a.lsm.filter_negatives);
  d.filter_false_positives = static_cast<double>(b.lsm.filter_false_positives -
                                                a.lsm.filter_false_positives);
  d.lookup_pages_read =
      static_cast<double>(b.lsm.lookup_pages_read - a.lsm.lookup_pages_read);
  d.cache_hits = static_cast<double>(b.cache_hits - a.cache_hits);
  d.cache_misses = static_cast<double>(b.cache_misses - a.cache_misses);
  d.device_read = static_cast<double>(b.device_read - a.device_read);
  d.device_written = static_cast<double>(b.device_written - a.device_written);
  for (size_t r = 0; r < kRoleCount; ++r) {
    for (size_t o = 0; o < kOpCount; ++o) {
      d.io_calls[r][o] = static_cast<double>(b.io[r][o].calls - a.io[r][o].calls);
      d.io_bytes[r][o] = static_cast<double>(b.io[r][o].bytes - a.io[r][o].bytes);
      d.io_ms[r][o] = static_cast<double>(b.io[r][o].ns - a.io[r][o].ns) / 1e6;
    }
  }
  d.write_pct_final = b.arbiter.write_pct;
  d.adapt_shifts = static_cast<double>(b.arbiter.adapt_shifts - a.arbiter.adapt_shifts);
  d.global_flushes = static_cast<double>(b.arbiter.global_flushes_triggered -
                                        a.arbiter.global_flushes_triggered);
  d.self_flushes = static_cast<double>(b.arbiter.self_flushes_triggered -
                                      a.arbiter.self_flushes_triggered);
  d.cpu_s = b.cpu_s - a.cpu_s;
  d.wall_s = static_cast<double>(b.at_ns - a.at_ns) / 1e9;
  return d;
}

/// Per-query-kind accumulation over the timed phase.
struct QueryAccumulator {
  uint64_t runs = 0;
  double rows_scanned = 0, bytes_scanned = 0, rows_filtered = 0, broadcast_bytes = 0;
  double cpu_ms = 0;
  std::map<std::string, double> op_rows;
  std::vector<double> wall_ms;

  void Add(const tc::QueryStats& s, double wall, double cpu) {
    ++runs;
    rows_scanned += static_cast<double>(s.rows_scanned);
    bytes_scanned += static_cast<double>(s.bytes_scanned);
    rows_filtered += static_cast<double>(s.rows_filtered_pre_assembly);
    broadcast_bytes += static_cast<double>(s.schema_broadcast_bytes);
    for (const auto& op : s.operators) op_rows[op.name] += static_cast<double>(op.rows);
    wall_ms.push_back(wall);
    cpu_ms += cpu;
  }
  double Mean(double total) const {
    return runs == 0 ? 0 : total / static_cast<double>(runs);
  }
};

// Operator names the per-layer set reports per query kind (the vectorized
// scan + its row bridge; the join's filter and probe operators).
const char* const kScanOps[] = {"scan", "bridge"};
const char* const kJoinOps[] = {"join_filter", "join_probe"};

struct QueryRun {
  tc::PaperQueryResult result;
  double wall_ms = 0;
  double cpu_ms = 0;
};

/// Runs one query under a span named "query.<key>" and times it.
QueryRun RunQuery(const char* key, const char* span_name,
                  const std::function<tc::Result<tc::PaperQueryResult>()>& fn,
                  RunResult* out) {
  QueryRun q;
  double cpu0 = ProcessCpuSeconds();
  int64_t t0 = NowNs();
  tc::Result<tc::PaperQueryResult> r = [&] {
    Span s(span_name);
    return fn();
  }();
  q.wall_ms = static_cast<double>(NowNs() - t0) / 1e6;
  q.cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
  ++out->attempted;
  if (!r.ok()) {
    ++out->failed;
    out->Check(false, std::string(key) + " failed: " + r.status().ToString());
    return q;
  }
  q.result = std::move(r).value();
  return q;
}

uint64_t CountFromSummary(const std::string& summary) {
  size_t p = summary.find("count=");
  return p == std::string::npos ? UINT64_MAX
                                : std::strtoull(summary.c_str() + p + 6, nullptr, 10);
}

void AddQueryLayers(const std::map<std::string, QueryAccumulator>& queries,
                    RunResult* out) {
  auto get = [&](const std::string& k) -> const QueryAccumulator& {
    static const QueryAccumulator kEmpty;
    auto it = queries.find(k);
    return it == queries.end() ? kEmpty : it->second;
  };
  for (const char* q : {"q1", "q2", "q3", "q4"}) {
    const QueryAccumulator& a = get(q);
    std::string p = std::string("query.") + q + ".";
    out->per_layer.push_back({p + "rows_scanned", a.Mean(a.rows_scanned), "rows"});
    out->per_layer.push_back({p + "bytes_scanned", a.Mean(a.bytes_scanned), "bytes"});
    out->per_layer.push_back(
        {p + "rows_filtered_pre_assembly", a.Mean(a.rows_filtered), "rows"});
    out->per_layer.push_back({p + "cpu_ms", a.Mean(a.cpu_ms), "ms"});
    out->per_layer.push_back(
        {p + "schema_broadcast_bytes", a.Mean(a.broadcast_bytes), "bytes"});
    for (const char* op : kScanOps) {
      auto it = a.op_rows.find(op);
      out->per_layer.push_back({p + "op." + op + ".rows",
                                a.Mean(it == a.op_rows.end() ? 0 : it->second), "rows"});
    }
  }
  const QueryAccumulator& j = get("join");
  out->per_layer.push_back({"query.join.rows_scanned", j.Mean(j.rows_scanned), "rows"});
  for (const char* op : kJoinOps) {
    auto it = j.op_rows.find(op);
    out->per_layer.push_back({std::string("query.join.op.") + op + ".rows",
                              j.Mean(it == j.op_rows.end() ? 0 : it->second), "rows"});
  }
}

/// Per-layer metrics from counters (every run) and spans (traced run),
/// over the timed phase.
void AddLayerMetrics(const LayerDeltas& a, double raw_bytes_ingested,
                     int64_t from_ns, int64_t to_ns, RunResult* out) {
  auto totals = Tracer::Get().TotalsByName(from_ns, to_ns);
  auto span_ms = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns) / 1e6;
  };
  auto span_count = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.amount);
  };
  const size_t wal = static_cast<size_t>(FileRole::kWal);
  const size_t comp = static_cast<size_t>(FileRole::kComponent);
  const size_t rd = static_cast<size_t>(IoOp::kRead);
  const size_t wr = static_cast<size_t>(IoOp::kWrite);
  const size_t ap = static_cast<size_t>(IoOp::kAppend);
  const size_t sy = static_cast<size_t>(IoOp::kSync);
  // Parse and submit spans carry their record counts as their amount.
  double parsed = span_count("adm.parse");
  double submitted = span_count("core.submit");
  auto& L = out->per_layer;
  L.push_back({"adm.parse_us_per_record", Ratio(span_ms("adm.parse") * 1e3, parsed), "us"});
  L.push_back({"core.ingest.submit_us_per_record",
               Ratio(span_ms("core.submit") * 1e3, submitted), "us"});
  L.push_back({"lsm.wal.syncs", a.io_calls[wal][sy], "count"});
  L.push_back({"lsm.wal.sync_ms", a.io_ms[wal][sy], "ms"});
  L.push_back({"lsm.wal.bytes_written", a.io_bytes[wal][wr] + a.io_bytes[wal][ap], "bytes"});
  L.push_back({"lsm.flush_count", a.flushes, "count"});
  L.push_back({"lsm.bytes_flushed", a.bytes_flushed, "bytes"});
  L.push_back({"lsm.flush_queue_high_water", a.flush_queue_hw, "count"});
  L.push_back({"storage.component.write_ms", a.io_ms[comp][wr] + a.io_ms[comp][ap], "ms"});
  L.push_back({"storage.component.sync_ms", a.io_ms[comp][sy], "ms"});
  L.push_back({"lsm.drain_ms", span_ms("lsm.drain"), "ms"});
  L.push_back({"lsm.merge_count", a.merges, "count"});
  L.push_back({"lsm.bytes_merged", a.bytes_merged, "bytes"});
  L.push_back({"lsm.write_amp",
               a.bytes_flushed == 0 ? 0 : (a.bytes_flushed + a.bytes_merged) / a.bytes_flushed,
               "ratio"});
  L.push_back({"lsm.merge_read_ms", a.merge_read_us / 1e3, "ms"});
  L.push_back({"lsm.merge_transform_ms", a.merge_transform_us / 1e3, "ms"});
  L.push_back({"lsm.merge_compress_ms", a.merge_compress_us / 1e3, "ms"});
  L.push_back({"lsm.merge_write_ms", a.merge_write_us / 1e3, "ms"});
  L.push_back({"lsm.concurrent_merges_high_water", a.concurrent_merges_hw, "count"});
  L.push_back({"lsm.filter_negative_share", Ratio(a.filter_negatives, a.filter_checks),
               "fraction"});
  L.push_back({"lsm.filter_fpr", Ratio(a.filter_false_positives, a.filter_checks),
               "fraction"});
  L.push_back({"lsm.lookup_pages_read_per_lookup",
               Ratio(a.lookup_pages_read, a.point_lookups), "pages"});
  L.push_back({"lsm.components_live_max", a.components_hw, "count"});
  L.push_back({"storage.buffer_cache.hit_ratio",
               Ratio(a.cache_hits, a.cache_hits + a.cache_misses), "fraction"});
  L.push_back({"storage.buffer_cache.misses", a.cache_misses, "count"});
  L.push_back({"storage.component.reads", a.io_calls[comp][rd], "count"});
  L.push_back({"storage.component.bytes_read", a.io_bytes[comp][rd], "bytes"});
  L.push_back({"storage.component.read_ms", a.io_ms[comp][rd], "ms"});
  L.push_back({"storage.device.bytes_read", a.device_read, "bytes"});
  L.push_back({"storage.device.bytes_written", a.device_written, "bytes"});
  L.push_back({"storage.write_bytes_per_raw_byte", Ratio(a.device_written, raw_bytes_ingested),
               "ratio"});
  L.push_back({"common.memory_arbiter.write_pct_final", a.write_pct_final, "%"});
  L.push_back({"common.memory_arbiter.adapt_shifts", a.adapt_shifts, "count"});
  L.push_back({"common.memory_arbiter.global_flushes", a.global_flushes, "count"});
  L.push_back({"common.memory_arbiter.self_flushes", a.self_flushes, "count"});
  L.push_back({"process.cpu_s", a.cpu_s, "s"});
  L.push_back({"process.cpu_util", Ratio(a.cpu_s, a.wall_s), "cores"});
}

/// What a workload measured beside the counters: query accumulations, window
/// counts and ticket acks of its timed phase.
struct LayerExtras {
  std::map<std::string, QueryAccumulator> queries;
  std::vector<double> window_ms;
  double window_index_probes = 0;
  std::vector<double> ack_ms;
  /// Physical bytes after the run's final drain per ADM byte of live
  /// records, merge garbage included.
  double space_after_drain = 0;
};

/// The per-layer set, identical in name and order for every workload; layers
/// a workload leaves idle report 0.
void BuildPerLayer(const LayerDeltas& a, double raw_bytes_ingested,
                   const LayerExtras& x, RunResult* out) {
  AddLayerMetrics(a, raw_bytes_ingested, out->timed_from_ns, out->timed_to_ns, out);
  AddQueryLayers(x.queries, out);
  out->per_layer.push_back({"query.window.ms_p50", Median(x.window_ms), "ms"});
  out->per_layer.push_back(
      {"query.window.index_probe_share",
       Ratio(x.window_index_probes, static_cast<double>(x.window_ms.size())), "fraction"});
  out->per_layer.push_back({"core.ingest.ack_p50_ms", Percentile(x.ack_ms, 50), "ms"});
  out->per_layer.push_back({"core.ingest.ack_p99_ms", Percentile(x.ack_ms, 99), "ms"});
  out->per_layer.push_back({"lsm.space_per_live_raw_byte", x.space_after_drain, "ratio"});
}

// ---------------------------------------------------------------------------
// Input generation
// ---------------------------------------------------------------------------

/// ADM text for one ingest feed: records with ids id*feeds + feed, so feeds
/// never collide.
struct TextFeed {
  std::vector<std::string> records;
  uint64_t raw_bytes = 0;
};

std::vector<TextFeed> GenerateTextFeeds(uint64_t seed, uint64_t total_raw_bytes) {
  std::vector<TextFeed> feeds(kIngestFeeds);
  std::vector<std::thread> threads;
  for (size_t f = 0; f < kIngestFeeds; ++f) {
    threads.emplace_back([&, f] {
      auto gen = tc::MakeTwitterGenerator(seed * 7919 + f);
      TextFeed& feed = feeds[f];
      uint64_t target = total_raw_bytes / kIngestFeeds;
      for (int64_t i = 0; feed.raw_bytes < target; ++i) {
        AdmValue rec = gen->NextRecord();
        SetId(&rec, i * static_cast<int64_t>(kIngestFeeds) + static_cast<int64_t>(f));
        feed.records.push_back(tc::PrintAdm(rec));
        feed.raw_bytes += feed.records.back().size();
      }
    });
  }
  for (auto& t : threads) t.join();
  return feeds;
}

/// Mutations applied to an update: the record's shape changes, as in the
/// paper's update experiments.
void MutateShape(AdmValue* rec, tc::Rng* rng) {
  switch (rng->Uniform(3)) {
    case 0:
      rec->AddField("update_note", AdmValue::String(rng->AlphaString(12)));
      break;
    case 1:
      rec->RemoveField("lang");
      break;
    default:
      rec->AddField("revision", rng->Bernoulli(0.5) ? AdmValue::BigInt(1)
                                                    : AdmValue::String("one"));
      break;
  }
}

// ---------------------------------------------------------------------------
// Workload: ingest
// ---------------------------------------------------------------------------

void RunIngest(uint64_t seed, double seconds, const Sizes& sizes,
               const std::string& dir, RunResult* out) {
  out->options_json = DescribeConfig(EngineShape{});
  std::unique_ptr<Engine> engine_ptr;
  std::vector<TextFeed> feeds;
  const double setup_s = MedianSetupSeconds([&] {
    engine_ptr.reset();
    feeds.clear();
    feeds = GenerateTextFeeds(seed, sizes.ingest_raw_bytes);
    engine_ptr = std::make_unique<Engine>(dir, EngineShape{});
  });
  Engine& engine = *engine_ptr;

  // Each feed replays its text in passes until the deadline; pass p shifts
  // every parsed id by p * stride so no pass overwrites another.
  size_t longest = 0;
  for (const TextFeed& f : feeds) longest = std::max(longest, f.records.size());
  const int64_t stride = static_cast<int64_t>((longest + 1) * kIngestFeeds);
  std::vector<uint64_t> fed_records(kIngestFeeds, 0), fed_raw(kIngestFeeds, 0);
  std::vector<std::unique_ptr<AckWaiter>> waiters;
  for (size_t f = 0; f < kIngestFeeds; ++f) {
    waiters.push_back(std::make_unique<AckWaiter>(kMaxOutstanding));
  }
  ResetPeakRss();
  Counters before = Snapshot(&engine);
  const int64_t deadline = before.at_ns + static_cast<int64_t>(seconds * 1e9);
  {
    IngestFrontEnd front_end(engine.ds(), GroupCommit());
    std::vector<std::thread> threads;
    for (size_t f = 0; f < kIngestFeeds; ++f) {
      threads.emplace_back([&, f] {
        const std::vector<std::string>& text = feeds[f].records;
        AckWaiter* waiter = waiters[f].get();
        for (int64_t pass = 0; NowNs() < deadline; ++pass) {
          for (size_t i = 0; i < text.size() && NowNs() < deadline; i += kTicketRecords) {
            size_t n = std::min(kTicketRecords, text.size() - i);
            std::vector<AdmValue> batch;
            batch.reserve(n);
            {
              Span s("adm.parse");
              s.set_amount(n);
              for (size_t k = 0; k < n; ++k) {
                auto parsed = tc::ParseAdm(text[i + k]);
                if (!parsed.ok()) Die("ParseAdm: " + parsed.status().ToString());
                batch.push_back(std::move(parsed).value());
                fed_raw[f] += text[i + k].size();
              }
            }
            if (pass > 0) {
              for (AdmValue& rec : batch) {
                SetId(&rec, rec.FindField("id")->int_value() + pass * stride);
              }
            }
            fed_records[f] += n;
            waiter->WaitForSlot();
            int64_t submit_ns = NowNs();
            IngestTicket ticket;
            {
              Span s("core.submit");
              s.set_amount(n);
              ticket = front_end.Submit(std::move(batch));
            }
            waiter->Add(std::move(ticket), submit_ns, n);
          }
        }
        waiter->Finish();
      });
    }
    for (auto& t : threads) t.join();
    CheckOk(front_end.Drain(), "IngestFrontEnd::Drain");
  }
  engine.FlushAndDrain();
  Counters after = Snapshot(&engine);
  double peak = PeakRssMib();
  double wall = static_cast<double>(after.at_ns - before.at_ns) / 1e9;

  uint64_t acked = 0, records = 0, raw_bytes = 0;
  std::vector<Sample> acks;
  for (size_t f = 0; f < kIngestFeeds; ++f) {
    AckWaiter* w = waiters[f].get();
    out->attempted += w->records_ok + w->records_failed;
    out->failed += w->records_failed;
    acked += w->records_ok;
    acks.insert(acks.end(), w->acks.begin(), w->acks.end());
    out->Check(w->records_failed == 0, "ingest ticket error: " + w->first_error);
    records += fed_records[f];
    raw_bytes += fed_raw[f];
  }
  double storage = Ratio(static_cast<double>(engine.PhysicalBytes()),
                         static_cast<double>(raw_bytes));
  // Output check: every fed record is visible to a COUNT(*).
  QueryRun q1 = RunQuery("q1", "query.check",
                         [&] { return tc::TwitterQ1(engine.ds(), Queries()); }, out);
  out->Check(CountFromSummary(q1.result.summary) == records,
             "ingest: Q1 " + q1.result.summary + " != records fed " +
                 std::to_string(records));

  // End-to-end figures are medians over the feed's windows; the report also
  // gives the whole-run figures (drain included).
  const std::vector<double> ack_ms = LatenciesMs(acks);
  WindowSummary win =
      Windowed(acks, before.at_ns, deadline, kIngestWindowNs, kTailPercentile);
  double rate = static_cast<double>(acked) / wall;
  out->end_to_end = {{"setup_s", setup_s, "s"},
                     {"peak_rss_mib", peak, "MiB"},
                     {"storage_bytes_per_raw_byte", storage, "ratio"},
                     {"ops_per_s", win.rate, "1/s"},
                     {"op_p50_ms", win.p50, "ms"},
                     {"op_tail_ms", Percentile(ack_ms, kTailPercentile), "ms"}};
  out->report = {{"ingest_records_per_s", rate, "rec/s"},
                 {"ack_p50_ms", Percentile(ack_ms, 50), "ms"},
                 {"ack_p99_ms", Percentile(ack_ms, kTailPercentile), "ms"},
                 {"ack_samples", static_cast<double>(acks.size()), "count"},
                 {"window_records_per_s_median", win.rate, "rec/s"},
                 {"window_ack_p50_ms_median", win.p50, "ms"},
                 {"windows", static_cast<double>(win.windows), "count"},
                 {"storage_bytes_per_raw_byte", storage, "ratio"},
                 {"timed_s", wall, "s"}};
  out->timed_from_ns = before.at_ns;
  out->timed_to_ns = after.at_ns;
  const LayerDeltas layers = Diff(before, after);
  LayerExtras extras;
  extras.ack_ms = ack_ms;
  extras.space_after_drain = storage;
  BuildPerLayer(layers, static_cast<double>(raw_bytes), extras, out);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"text_bytes\":%llu,\"records_fed\":%llu,\"raw_bytes_fed\":%llu,"
                "\"feeds\":%zu,\"ticket_records\":%zu}",
                static_cast<unsigned long long>(sizes.ingest_raw_bytes),
                static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(raw_bytes), kIngestFeeds, kTicketRecords);
  out->sizes_json = buf;
}

// ---------------------------------------------------------------------------
// Workload: scan
// ---------------------------------------------------------------------------

struct ScanQuery {
  const char* key;
  const char* span;
  std::function<tc::Result<tc::PaperQueryResult>()> run;
};

void RunScan(uint64_t seed, double seconds, const Sizes& sizes, const std::string& dir,
             RunResult* out) {
  EngineShape shape;
  shape.with_users = true;
  out->options_json = DescribeConfig(shape);
  // Users scale with the tweets (one per 4 KiB of tweet text), and every
  // tweet's author id is remapped into them, so the join drops no tweet.
  const uint64_t n_users = std::max<uint64_t>(64, sizes.scan_raw_bytes >> 12);
  std::unique_ptr<Engine> engine_ptr;
  const tc::QueryOptions qo = Queries();
  std::vector<ScanQuery> kinds = {
      {"q1", "query.q1", [&] { return tc::TwitterQ1(engine_ptr->ds(), qo); }},
      {"q2", "query.q2", [&] { return tc::TwitterQ2(engine_ptr->ds(), qo); }},
      {"q3", "query.q3", [&] { return tc::TwitterQ3(engine_ptr->ds(), qo); }},
      {"q4", "query.q4", [&] { return tc::TwitterQ4(engine_ptr->ds(), qo); }},
      {"join", "query.join",
       [&] { return tc::TwitterJoinTopCountries(engine_ptr->users(), engine_ptr->ds(), qo); }},
  };
  std::vector<uint64_t> raw, loaded;
  uint64_t n_tweets = 0, raw_bytes = 0, tweets_physical = 0;
  std::map<std::string, uint64_t> reference;
  const double setup_s = MedianSetupSeconds([&] {
    engine_ptr.reset();
    engine_ptr = std::make_unique<Engine>(dir, shape);
    Engine& engine = *engine_ptr;
    {
      IngestFrontEnd users_fe(engine.users(), GroupCommit());
      auto gen = tc::MakeTwitterUsersGenerator(seed * 13 + 1);
      uint64_t i = 0;
      std::string err = Load(&users_fe, [&](AdmValue* rec) {
        if (i++ == n_users) return false;
        *rec = gen->NextRecord();
        return true;
      });
      out->Check(err.empty(), "scan: users load failed: " + err);
      CheckOk(users_fe.Drain(), "users Drain");
    }
    raw.assign(kIngestFeeds, 0);
    loaded.assign(kIngestFeeds, 0);
    {
      IngestFrontEnd fe(engine.ds(), GroupCommit());
      std::vector<std::thread> loaders;
      std::vector<std::string> errors(kIngestFeeds);
      for (size_t t = 0; t < kIngestFeeds; ++t) {
        loaders.emplace_back([&, t] {
          auto gen = tc::MakeTwitterGenerator(seed * 13 + 2 + t);
          tc::Rng rng(seed * 13 + 100 + t);
          const uint64_t target = sizes.scan_raw_bytes / kIngestFeeds;
          errors[t] = Load(&fe, [&](AdmValue* rec) {
            if (raw[t] >= target) return false;
            *rec = gen->NextRecord();
            SetId(rec, static_cast<int64_t>(loaded[t]++ * kIngestFeeds + t));
            tc::RemapTweetUserId(rec, static_cast<int64_t>(rng.Uniform(n_users)));
            raw[t] += tc::PrintAdm(*rec).size();
            return true;
          });
        });
      }
      for (auto& l : loaders) l.join();
      for (const std::string& e : errors) out->Check(e.empty(), "scan: tweets load failed: " + e);
      CheckOk(fe.Drain(), "tweets Drain");
    }
    engine.FlushAndDrain();
    n_tweets = 0;
    raw_bytes = 0;
    for (size_t t = 0; t < kIngestFeeds; ++t) {
      n_tweets += loaded[t];
      raw_bytes += raw[t];
    }
    tweets_physical = engine.ds()->TotalPhysicalBytes();
    // Warm-up round: fills caches and records each query's reference hash.
    reference.clear();
    for (const ScanQuery& k : kinds) {
      QueryRun q = RunQuery(k.key, "query.warmup", k.run, out);
      reference[k.key] = q.result.result_hash;
    }
  });
  Engine& engine = *engine_ptr;

  ResetPeakRss();
  LayerExtras extras;
  // Each round of the five queries is one window: per-round time, median
  // query and slowest query.
  std::vector<double> all_ms, round_s, round_p50, round_max;
  uint64_t queries = 0;
  Counters before = Snapshot(&engine);
  while (queries == 0 || SecondsSince(before.at_ns) < seconds) {
    const int64_t round_start = NowNs();
    std::vector<double> this_round;
    for (const ScanQuery& k : kinds) {
      QueryRun q = RunQuery(k.key, k.span, k.run, out);
      ++queries;
      all_ms.push_back(q.wall_ms);
      this_round.push_back(q.wall_ms);
      extras.queries[k.key].Add(q.result.stats, q.wall_ms, q.cpu_ms);
      out->Check(q.result.result_hash == reference[k.key],
                 std::string("scan: ") + k.key + " result_hash differs between repeats");
      if (std::strcmp(k.key, "q1") == 0) {
        out->Check(CountFromSummary(q.result.summary) == n_tweets,
                   "scan: Q1 " + q.result.summary + " != tweets loaded " +
                       std::to_string(n_tweets));
      }
    }
    round_s.push_back(SecondsSince(round_start));
    round_p50.push_back(Median(this_round));
    round_max.push_back(Percentile(this_round, 100));
  }
  Counters after = Snapshot(&engine);
  double peak = PeakRssMib();
  double wall = static_cast<double>(after.at_ns - before.at_ns) / 1e9;

  // Output check: every tweet joins to its author.
  {
    tc::JoinSpec spec;
    spec.build_key = "id";
    spec.probe_key = "user.id";
    spec.build_paths = {"country"};
    spec.vectorized = true;
    std::vector<uint64_t> rows(engine.ds()->partition_count(), 0);
    auto js = tc::HashJoinDatasets(engine.users(), engine.ds(), spec,
                                   [&](int pid) -> tc::JoinBatchSink {
                                     uint64_t* r = &rows[static_cast<size_t>(pid)];
                                     return [r](const tc::ColumnBatch& b) {
                                       b.ForEachActive([&](size_t) { ++*r; });
                                       return Status::OK();
                                     };
                                   });
    ++out->attempted;
    if (!js.ok()) {
      ++out->failed;
      out->Check(false, "scan: join check failed: " + js.status().ToString());
    } else {
      uint64_t joined = 0;
      for (uint64_t r : rows) joined += r;
      out->Check(joined == n_tweets, "scan: " + std::to_string(joined) + " of " +
                                         std::to_string(n_tweets) + " tweets joined");
    }
  }

  double storage = Ratio(static_cast<double>(engine.PhysicalBytes()),
                         static_cast<double>(raw_bytes));
  out->end_to_end = {{"setup_s", setup_s, "s"},
                     {"peak_rss_mib", peak, "MiB"},
                     {"storage_bytes_per_raw_byte", storage, "ratio"},
                     {"ops_per_s", static_cast<double>(kinds.size()) / Median(round_s), "1/s"},
                     {"op_p50_ms", Median(round_p50), "ms"},
                     {"op_tail_ms", Median(round_max), "ms"}};
  for (const ScanQuery& k : kinds) {
    out->report.push_back({std::string("query_") + k.key + "_ms",
                           Median(extras.queries[k.key].wall_ms), "ms"});
  }
  out->report.push_back({"query_samples", static_cast<double>(all_ms.size()), "count"});
  out->report.push_back({"queries_per_s", static_cast<double>(queries) / wall, "1/s"});
  out->report.push_back({"tweets_physical_mib",
                         static_cast<double>(tweets_physical) / (1 << 20), "MiB"});
  out->report.push_back(
      {"buffer_cache_max_mib",
       static_cast<double>(tc::MemoryArbiter::Options().total_budget_bytes) *
           (100 - tc::MemoryArbiter::Options().min_write_pct) / 100 / (1 << 20),
       "MiB"});

  out->timed_from_ns = before.at_ns;
  out->timed_to_ns = after.at_ns;
  const LayerDeltas layers = Diff(before, after);
  extras.space_after_drain = storage;
  BuildPerLayer(layers, 0, extras, out);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"tweets\":%llu,\"tweets_raw_bytes\":%llu,\"users\":%llu,"
                "\"tweets_physical_bytes\":%llu}",
                static_cast<unsigned long long>(n_tweets),
                static_cast<unsigned long long>(raw_bytes),
                static_cast<unsigned long long>(n_users),
                static_cast<unsigned long long>(tweets_physical));
  out->sizes_json = buf;
}

// ---------------------------------------------------------------------------
// Workload: mixed
// ---------------------------------------------------------------------------

/// Expected final state of one key: a digest of its ADM text, its timestamp
/// and its raw size.
struct KeyState {
  uint64_t digest = 0;
  int64_t ts = 0;
  uint64_t raw = 0;
};

KeyState StateOf(const AdmValue& rec) {
  std::string text = tc::PrintAdm(rec);
  return {Fnv1a(text), TimestampOf(rec), text.size()};
}

void RunMixed(uint64_t seed, double seconds, const Sizes& sizes, const std::string& dir,
              RunResult* out) {
  EngineShape shape;
  shape.primary_key_index = true;
  shape.secondary_index_field = "timestamp_ms";
  out->options_json = DescribeConfig(shape);
  const double ticket_interval_s =
      static_cast<double>(kMixedTicketRecords) / sizes.mixed_upserts_per_s;
  const size_t n_tickets =
      std::max<size_t>(1, static_cast<size_t>(seconds / ticket_interval_s));
  std::unique_ptr<Engine> engine_ptr;
  std::vector<KeyState> state;
  int64_t ts_min = 0, ts_max = 0;
  uint64_t n_loaded = 0;
  double storage = 0;
  tc::Rng rng(0);
  std::vector<AdmValue> templates;
  std::vector<uint64_t> template_raw;  // ADM text size, id digits aside
  std::vector<std::pair<uint64_t, uint32_t>> schedule;  // (key index, template)
  std::vector<int64_t> probes;
  std::vector<std::pair<int64_t, int64_t>> windows;
  const double setup_s = MedianSetupSeconds([&] {
    engine_ptr.reset();
    engine_ptr = std::make_unique<Engine>(dir, shape);
    Engine& engine = *engine_ptr;
    Dataset* ds = engine.ds();

    // Pre-load: keys are even (2 * index) so odd keys inside the range are
    // absent, which makes lookups probe filters rather than fences.
    state.clear();
    ts_min = INT64_MAX;
    ts_max = INT64_MIN;
    {
      IngestFrontEnd fe(ds, GroupCommit());
      auto gen = tc::MakeTwitterGenerator(seed * 31 + 5);
      uint64_t raw = 0;
      std::string err = Load(&fe, [&](AdmValue* rec) {
        if (raw >= sizes.mixed_raw_bytes) return false;
        *rec = gen->NextRecord();
        SetId(rec, 2 * static_cast<int64_t>(state.size()));
        state.push_back(StateOf(*rec));
        raw += state.back().raw;
        ts_min = std::min(ts_min, state.back().ts);
        ts_max = std::max(ts_max, state.back().ts);
        return true;
      });
      out->Check(err.empty(), "mixed: pre-load failed: " + err);
      CheckOk(fe.Drain(), "mixed pre-load Drain");
    }
    engine.FlushAndDrain();
    n_loaded = state.size();
    // The end-to-end storage figure is the loaded, flushed dataset with both
    // indexes: after the timed phase it depends on whether the last merge round
    // finished (0.51-0.71 on one seed), which the per-layer
    // lsm.space_per_live_raw_byte reports instead.
    uint64_t loaded_raw = 0;
    for (const KeyState& k : state) loaded_raw += k.raw;
    storage = Ratio(static_cast<double>(engine.PhysicalBytes()),
                    static_cast<double>(loaded_raw));

    // Upsert inputs: a pool of shape-mutated templates and a schedule of
    // (key index, template) pairs, ~90% on loaded keys and ~10% on new keys.
    rng = tc::Rng(seed * 31 + 7);
    templates.clear();
    template_raw.clear();
    {
      auto gen = tc::MakeTwitterGenerator(seed * 31 + 6);
      for (size_t i = 0; i < sizes.mixed_template_pool; ++i) {
        AdmValue rec = gen->NextRecord();
        MutateShape(&rec, &rng);
        template_raw.push_back(tc::PrintAdm(rec).size());
        templates.push_back(std::move(rec));
      }
    }
    schedule.clear();
    schedule.reserve(n_tickets * kMixedTicketRecords);
    uint64_t next_new = n_loaded;
    std::vector<int32_t> final_template(n_loaded, -1);
    for (size_t i = 0; i < n_tickets * kMixedTicketRecords; ++i) {
      uint64_t idx = rng.Bernoulli(kMixedUpdateShare) ? rng.Uniform(n_loaded) : next_new++;
      uint32_t t = static_cast<uint32_t>(rng.Uniform(templates.size()));
      schedule.emplace_back(idx, t);
      if (idx >= final_template.size()) final_template.resize(idx + 1, -1);
      final_template[idx] = static_cast<int32_t>(t);
    }
    state.resize(next_new);
    for (uint64_t idx = 0; idx < next_new; ++idx) {
      if (final_template[idx] < 0) continue;
      AdmValue rec = templates[static_cast<size_t>(final_template[idx])];
      SetId(&rec, 2 * static_cast<int64_t>(idx));
      state[idx] = StateOf(rec);
    }
    // Reader inputs: probe keys (~10% absent, odd) and narrow windows (~0.2%
    // of the loaded timestamp range).
    probes.assign(1 << 20, 0);
    for (int64_t& k : probes) {
      k = 2 * static_cast<int64_t>(rng.Uniform(n_loaded)) +
          (rng.Bernoulli(kMixedAbsentShare) ? 1 : 0);
    }
    const int64_t span = std::max<int64_t>(2, (ts_max - ts_min) / 500);
    windows.assign(256, {0, 0});
    for (auto& w : windows) {
      w.first = ts_min + static_cast<int64_t>(rng.Uniform(
                             static_cast<uint64_t>(std::max<int64_t>(1, ts_max - ts_min))));
      w.second = w.first + span;
    }
  });
  Engine& engine = *engine_ptr;
  Dataset* ds = engine.ds();

  ResetPeakRss();
  LayerExtras extras;
  std::vector<Sample> lookup_samples;
  std::vector<double> lateness_ms;
  uint64_t upserted_raw = 0;
  std::atomic<bool> stop{false};
  uint64_t lookups = 0, lookup_failures = 0, window_runs = 0;
  std::string lookup_error;
  const tc::QueryOptions qo = Queries();
  Counters before = Snapshot(&engine);
  int64_t reader_end = 0;
  {
    IngestFrontEnd fe(ds, GroupCommit());
    AckWaiter waiter(0);
    std::thread reader([&] {
      size_t w = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        int64_t key = probes[lookups % probes.size()];
        int64_t t0 = NowNs();
        tc::Result<std::optional<AdmValue>> r = [&] {
          Span s("lsm.get");
          return ds->Get(key);
        }();
        int64_t t1 = NowNs();
        lookup_samples.push_back({t1, static_cast<double>(t1 - t0) / 1e6, 1});
        ++lookups;
        bool present = (key & 1) == 0;
        bool ok = r.ok() && r.value().has_value() == present;
        if (ok && present) {
          const AdmValue* id = r.value()->FindField("id");
          ok = id != nullptr && id->int_value() == key;
        }
        if (!ok) {
          ++lookup_failures;
          if (lookup_error.empty()) {
            lookup_error = "Get(" + std::to_string(key) + ") " +
                           (r.ok() ? (r.value() ? "found an absent key" : "missed a present key")
                                   : r.status().ToString());
          }
        }
        if (lookups % kMixedLookupsPerWindow == 0) {
          auto [lo, hi] = windows[w++ % windows.size()];
          QueryRun q = RunQuery("window", "query.window",
                                [&] { return tc::TwitterWindowCount(ds, lo, hi, qo); }, out);
          ++window_runs;
          extras.window_ms.push_back(q.wall_ms);
          if (q.result.stats.plan == tc::AccessPathName(tc::AccessPath::kIndexProbe)) {
            extras.window_index_probes += 1;
          }
        }
      }
      reader_end = NowNs();
    });
    const int64_t start_ns = NowNs();
    const int64_t interval_ns = static_cast<int64_t>(ticket_interval_s * 1e9);
    for (size_t i = 0; i < n_tickets; ++i) {
      std::vector<AdmValue> batch;
      batch.reserve(kMixedTicketRecords);
      for (size_t k = 0; k < kMixedTicketRecords; ++k) {
        auto [idx, t] = schedule[i * kMixedTicketRecords + k];
        batch.push_back(templates[t]);
        SetId(&batch.back(), 2 * static_cast<int64_t>(idx));
        upserted_raw += template_raw[t];
      }
      const int64_t due = start_ns + static_cast<int64_t>(i) * interval_ns;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      lateness_ms.push_back(static_cast<double>(std::max<int64_t>(0, NowNs() - due)) / 1e6);
      IngestTicket ticket;
      {
        Span s("core.submit");
        s.set_amount(kMixedTicketRecords);
        ticket = fe.Submit(std::move(batch), tc::IngestOp::kUpsert);
      }
      waiter.Add(std::move(ticket), due, kMixedTicketRecords);
    }
    waiter.Finish();
    stop.store(true);
    reader.join();
    out->attempted += waiter.records_ok + waiter.records_failed;
    out->failed += waiter.records_failed;
    out->Check(waiter.records_failed == 0, "mixed: upsert error: " + waiter.first_error);
    extras.ack_ms = LatenciesMs(waiter.acks);
    CheckOk(fe.Drain(), "mixed Drain");
  }
  Counters after = Snapshot(&engine);
  double peak = PeakRssMib();
  out->attempted += lookups;
  out->failed += lookup_failures;
  out->Check(lookup_failures == 0, "mixed: " + lookup_error);
  double reader_s = static_cast<double>(reader_end - before.at_ns) / 1e9;

  // Output checks on the drained dataset: every key returns its last acked
  // upsert (or its pre-loaded record), absent keys return nothing, and window
  // counts match the expected final state.
  engine.FlushAndDrain();
  uint64_t live_raw = 0, mismatches = 0;
  for (uint64_t idx = 0; idx < state.size(); ++idx) {
    live_raw += state[idx].raw;
    auto r = ds->Get(2 * static_cast<int64_t>(idx));
    if (!r.ok() || !r.value().has_value() ||
        Fnv1a(tc::PrintAdm(*r.value())) != state[idx].digest) {
      ++mismatches;
    }
  }
  out->Check(mismatches == 0, "mixed: " + std::to_string(mismatches) + " of " +
                                  std::to_string(state.size()) +
                                  " keys do not return their last acked value");
  for (size_t i = 0; i < 1000; ++i) {
    auto r = ds->Get(2 * static_cast<int64_t>(rng.Uniform(state.size())) + 1);
    out->Check(r.ok() && !r.value().has_value(), "mixed: an absent key returned a record");
  }
  for (size_t i = 0; i < 8; ++i) {
    auto [lo, hi] = windows[i];
    uint64_t expect = 0;
    for (const KeyState& k : state) expect += (k.ts > lo && k.ts < hi) ? 1 : 0;
    QueryRun q = RunQuery("window", "query.check",
                          [&] { return tc::TwitterWindowCount(ds, lo, hi, qo); }, out);
    out->Check(CountFromSummary(q.result.summary) == expect,
               "mixed: window count " + q.result.summary + " != expected " +
                   std::to_string(expect));
  }
  const double space_after_drain = Ratio(static_cast<double>(engine.PhysicalBytes()),
                                         static_cast<double>(live_raw));

  const std::vector<double> lookup_ms = LatenciesMs(lookup_samples);
  WindowSummary win = Windowed(lookup_samples, before.at_ns, reader_end, kMixedWindowNs,
                               kTailPercentile);
  out->end_to_end = {{"setup_s", setup_s, "s"},
                     {"peak_rss_mib", peak, "MiB"},
                     {"storage_bytes_per_raw_byte", storage, "ratio"},
                     {"ops_per_s", win.rate, "1/s"},
                     {"op_p50_ms", win.p50, "ms"},
                     {"op_tail_ms", win.tail, "ms"}};
  out->report = {{"lookups_per_s", static_cast<double>(lookups) / reader_s, "ops/s"},
                 {"lookup_p50_us", Percentile(lookup_ms, 50) * 1e3, "us"},
                 {"lookup_p99_us", Percentile(lookup_ms, kTailPercentile) * 1e3, "us"},
                 {"lookup_samples", static_cast<double>(lookups), "count"},
                 {"window_lookups_per_s_median", win.rate, "ops/s"},
                 {"window_lookup_p50_us_median", win.p50 * 1e3, "us"},
                 {"window_lookup_p99_us_median", win.tail * 1e3, "us"},
                 {"windows", static_cast<double>(win.windows), "count"},
                 {"ack_p50_ms", Percentile(extras.ack_ms, 50), "ms"},
                 {"ack_p99_ms", Percentile(extras.ack_ms, 99), "ms"},
                 {"ack_samples", static_cast<double>(extras.ack_ms.size()), "count"},
                 {"storage_bytes_per_raw_byte", storage, "ratio"},
                 {"storage_after_run_per_live_raw_byte", space_after_drain, "ratio"},
                 {"feeder_lateness_p50_ms", Percentile(lateness_ms, 50), "ms"},
                 {"feeder_lateness_p99_ms", Percentile(lateness_ms, 99), "ms"},
                 {"feeder_lateness_max_ms", Percentile(lateness_ms, 100), "ms"},
                 {"window_counts", static_cast<double>(window_runs), "count"}};

  out->timed_from_ns = before.at_ns;
  out->timed_to_ns = after.at_ns;
  const LayerDeltas layers = Diff(before, after);
  extras.space_after_drain = space_after_drain;
  BuildPerLayer(layers, static_cast<double>(upserted_raw), extras, out);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"loaded_records\":%llu,\"upsert_tickets\":%zu,\"ticket_records\":%zu,"
                "\"upserts_per_s\":%.1f,\"keys_final\":%zu}",
                static_cast<unsigned long long>(n_loaded), n_tickets, kMixedTicketRecords,
                sizes.mixed_upserts_per_s, state.size());
  out->sizes_json = buf;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  char buf[160];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string record;
  std::string trace_out;
  std::string scale = "full";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (flag == "--dir") {
      a.dir = v;
    } else if (flag == "--record") {
      a.record = v;
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else if (flag == "--scale") {
      a.scale = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload != "ingest" && a.workload != "scan" && a.workload != "mixed") {
    Die("--workload must be ingest, scan or mixed");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Die("--seed, --seconds (> 0) and --trace (0|1) are required");
  }
  if (a.dir.empty() || a.record.empty()) Die("--dir and --record are required");
  if (a.scale != "full" && a.scale != "tiny") Die("--scale must be full or tiny");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // DatasetOptions and several engine defaults read TC_* variables; a run
  // must be configured by this file alone.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "TC_", 3) == 0) {
      std::string name(*e);
      Die("refusing to run with " + name.substr(0, name.find('=')) +
          " set: the benchmark pins every option itself");
    }
  }
  Args args = ParseArgs(argc, argv);
  if (args.trace) Tracer::Get().Enable();
  const Sizes sizes = SizesFor(args.scale);

  RunResult result;
  if (args.workload == "ingest") {
    RunIngest(args.seed, args.seconds, sizes, args.dir, &result);
  } else if (args.workload == "scan") {
    RunScan(args.seed, args.seconds, sizes, args.dir, &result);
  } else {
    RunMixed(args.seed, args.seconds, sizes, args.dir, &result);
  }

  if (args.trace && !args.trace_out.empty()) {
    if (!Tracer::Get().WriteChromeTrace(args.trace_out + ".trace.json", 20000) ||
        !Tracer::Get().WriteSummary(args.trace_out + ".summary.json",
                                    result.timed_from_ns, result.timed_to_ns)) {
      Die("cannot write trace files under " + args.trace_out);
    }
  }

  const bool correct = result.check_failures.empty();
  for (const std::string& f : result.check_failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  {
    std::ofstream rec(args.record);
    rec << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
        << ",\"seconds\":" << args.seconds << ",\"trace\":" << (args.trace ? 1 : 0)
        << ",\"scale\":\"" << args.scale << "\",\"nproc\":"
        << std::thread::hardware_concurrency()
        << ",\"options\":" << result.options_json << ",\"sizes\":" << result.sizes_json
        << ",\"correct\":" << (correct ? "true" : "false")
        << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
        << ",\"check_failures\":[";
    for (size_t i = 0; i < result.check_failures.size(); ++i) {
      rec << (i == 0 ? "" : ",") << "\"" << JsonEscape(result.check_failures[i]) << "\"";
    }
    rec << "],\"end_to_end\":" << JsonMetrics(result.end_to_end)
        << ",\"report\":" << JsonMetrics(result.report)
        << ",\"per_layer\":" << JsonMetrics(result.per_layer) << "}\n";
    if (!rec) Die("cannot write " + args.record);
  }

  std::printf("workload %s, seed %llu, %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");
  for (const Metric& m : result.report) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              JsonMetrics(args.trace ? result.per_layer : result.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
