// Quickstart: create a dataset with the tuple compactor enabled, ingest a few
// self-describing records (no schema declared beyond the primary key), flush,
// and look at what the compactor inferred — the paper's Figure 8/9 flow.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "adm/printer.h"
#include "common/task_pool.h"
#include "core/dataset.h"
#include "storage/file.h"

using namespace tc;

int main() {
  // An in-memory filesystem keeps the example self-contained; use
  // MakePosixFileSystem() and a real directory in production.
  auto fs = MakeMemFileSystem();
  BufferCache cache(/*page_size=*/32 * 1024, /*capacity_pages=*/1024);
  // Flush builds and merges run on this pool (one worker per core).
  TaskPool pool;

  DatasetOptions options;
  options.name = "Employee";
  options.dir = "quickstart";
  options.mode = SchemaMode::kInferred;  // {"tuple-compactor-enabled": true}
  options.type = DatasetType::OpenWithPk("id");
  options.fs = fs;
  options.cache = &cache;
  options.merge_pool = &pool;

  auto dataset = Dataset::Open(std::move(options), /*partitions=*/1).ValueOrDie();

  // Ingest schema-less records; ADM text supports JSON plus date(...),
  // point(...), and {{ multiset }} literals.
  const char* records[] = {
      R"({"id": 0, "name": "Kim", "age": 26})",
      R"({"id": 1, "name": "John", "age": 22})",
      R"({"id": 2, "name": "Ann"})",
      R"({"id": 3, "name": "Bob", "age": "old"})",
      R"({"id": 4, "name": "Ann",
          "dependents": {{ {"name": "Bob", "age": 6},
                           {"name": "Carol", "age": 10} }},
          "employment_date": date("2018-09-20"),
          "branch_location": point(24.0, -56.12)})",
  };
  for (const char* r : records) {
    Status st = dataset->InsertJson(r);
    if (!st.ok()) {
      std::fprintf(stderr, "insert failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // Point lookups work against the in-memory component right away.
  auto rec = dataset->Get(3).ValueOrDie();
  std::printf("get(3) -> %s\n", PrintAdm(*rec).c_str());

  // Flush: the tuple compactor infers the schema and compacts the records
  // while they are written to the on-disk component.
  Status st = dataset->FlushAll();
  TC_CHECK(st.ok());

  std::printf("\ninferred schema after flush (counters = occurrences):\n  %s\n",
              dataset->partition(0)->SchemaSnapshot().ToString().c_str());
  std::printf("\non-disk footprint: %llu bytes for 5 records\n",
              static_cast<unsigned long long>(dataset->TotalPhysicalBytes()));

  // Deletes maintain the schema: remove the only record whose age is a
  // string and the union(int,string) collapses back to int (paper Figure 11).
  st = dataset->Delete(3);
  TC_CHECK(st.ok());
  st = dataset->FlushAll();
  TC_CHECK(st.ok());
  std::printf("\nschema after deleting record 3 (string-typed age is gone):\n  %s\n",
              dataset->partition(0)->SchemaSnapshot().ToString().c_str());
  return 0;
}
