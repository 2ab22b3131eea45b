// IoT sensor monitoring: a numeric, fixed-structure workload where the
// "semantic" compaction shines (paper §4.2, Sensors dataset). Demonstrates a
// secondary index on report_time for time-window monitoring queries and the
// storage breakdown across schema configurations.
//
//   $ ./build/examples/sensor_monitoring [n_reports]
#include <cstdio>
#include <cstdlib>

#include "common/task_pool.h"
#include "query/paper_queries.h"
#include "workload/workload.h"

using namespace tc;

namespace {

std::unique_ptr<Dataset> IngestInto(SchemaMode mode, int n, BufferCache* cache,
                                    TaskPool* pool,
                                    std::shared_ptr<FileSystem> fs) {
  DatasetOptions options;
  options.name = "Sensors";
  options.dir = std::string("sensors_") + SchemaModeName(mode);
  options.mode = mode;
  if (mode == SchemaMode::kInferred) options.secondary_index_field = "report_time";
  options.fs = std::move(fs);
  options.cache = cache;
  options.merge_pool = pool;
  if (mode == SchemaMode::kClosed) {
    options.type = MakeSensorsGenerator(1)->ClosedType();
  }
  auto dataset = Dataset::Open(std::move(options), 2).ValueOrDie();
  auto gen = MakeSensorsGenerator(1);
  for (int i = 0; i < n; ++i) {
    Status st = dataset->Insert(gen->NextRecord());
    TC_CHECK(st.ok());
  }
  Status st = dataset->FlushAll();
  TC_CHECK(st.ok());
  return dataset;
}

}  // namespace

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 500;
  auto fs = MakeMemFileSystem();
  BufferCache cache(32 * 1024, 4096);
  TaskPool pool;  // background flush builds and merges

  std::printf("storage for %d sensor reports (117 readings each):\n", n);
  for (SchemaMode mode : {SchemaMode::kOpen, SchemaMode::kClosed,
                          SchemaMode::kSchemalessVB}) {
    auto ds = IngestInto(mode, n, &cache, &pool, fs);
    std::printf("  %-9s %8.2f MiB\n", SchemaModeName(mode),
                ds->TotalPhysicalBytes() / 1048576.0);
  }
  auto dataset = IngestInto(SchemaMode::kInferred, n, &cache, &pool, fs);
  std::printf("  %-9s %8.2f MiB  <- tuple compactor\n", "inferred",
              dataset->TotalPhysicalBytes() / 1048576.0);

  // Fleet-health analytics (the paper's Q2/Q3).
  auto q2 = SensorsQ2(dataset.get(), QueryOptions{}).ValueOrDie();
  std::printf("\nall-time reading extremes: %s\n", q2.summary.c_str());
  auto q3 = SensorsQ3(dataset.get(), QueryOptions{}).ValueOrDie();
  std::printf("hottest sensors by average: %.100s...\n", q3.summary.c_str());

  // Time-window monitoring through the secondary index: "which reports
  // arrived in the first simulated minute?"
  auto pks = dataset->SecondaryRangeScan(1556496000000, 1556496060000).ValueOrDie();
  std::printf("\nreports in the first minute: %zu\n", pks.size());
  if (!pks.empty()) {
    auto rec = dataset->Get(pks[0]).ValueOrDie();
    std::printf("first report from sensor %lld with %zu readings\n",
                static_cast<long long>(rec->FindField("sensor_id")->int_value()),
                rec->FindField("readings")->size());
  }
  return 0;
}
