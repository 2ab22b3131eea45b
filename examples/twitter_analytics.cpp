// Twitter analytics: ingest a stream of tweets (the paper's headline
// workload) into an inferred + page-compressed dataset and run the paper's
// analytical queries through the parallel query engine, including the
// schema-broadcast path (Q4 repartitions full records).
//
//   $ ./build/examples/twitter_analytics [n_tweets]
#include <cstdio>
#include <cstdlib>

#include "adm/printer.h"
#include "common/task_pool.h"
#include "query/paper_queries.h"
#include "workload/workload.h"

using namespace tc;

int main(int argc, char** argv) {
  int n = argc > 1 ? std::atoi(argv[1]) : 2000;

  auto fs = MakeMemFileSystem();
  BufferCache cache(32 * 1024, 2048);
  TaskPool pool;  // background flush builds and merges
  DatasetOptions options;
  options.name = "Tweets";
  options.dir = "tweets";
  options.mode = SchemaMode::kInferred;
  options.compression = true;  // page-level compression (§2.4) on top
  options.fs = fs;
  options.cache = &cache;
  options.merge_pool = &pool;
  auto dataset = Dataset::Open(std::move(options), /*partitions=*/4).ValueOrDie();

  auto gen = MakeTwitterGenerator(2024);
  uint64_t raw = 0;
  for (int i = 0; i < n; ++i) {
    AdmValue tweet = gen->NextRecord();
    raw += PrintAdm(tweet).size();
    Status st = dataset->Insert(tweet);
    TC_CHECK(st.ok());
  }
  Status st = dataset->FlushAll();
  TC_CHECK(st.ok());
  std::printf("ingested %d tweets: %.2f MiB raw -> %.2f MiB on disk\n", n,
              raw / 1048576.0, dataset->TotalPhysicalBytes() / 1048576.0);

  QueryOptions qo;  // consolidation + pushdown on (the default)
  struct Q {
    const char* label;
    Result<PaperQueryResult> (*fn)(Dataset*, const QueryOptions&);
  };
  const Q queries[] = {
      {"Q1 COUNT(*)", TwitterQ1},
      {"Q2 top users by avg tweet length", TwitterQ2},
      {"Q3 top users tweeting #jobs", TwitterQ3},
      {"Q4 order all tweets by timestamp", TwitterQ4},
  };
  for (const Q& q : queries) {
    auto res = q.fn(dataset.get(), qo);
    TC_CHECK(res.ok());
    std::printf("\n%s  (%.1f ms, %llu rows scanned)\n  %.120s\n", q.label,
                res.value().stats.wall_seconds * 1000,
                static_cast<unsigned long long>(res.value().stats.rows_scanned),
                res.value().summary.c_str());
  }
  return 0;
}
