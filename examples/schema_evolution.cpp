// Schema evolution, end to end: shows how the inferred schema tracks a data
// source whose structure drifts over time — new fields appear, a field
// changes type (union widening), records are deleted (anti-schema pruning),
// and the system restarts (schema recovery from the newest component) — all
// without ever declaring anything but the primary key.
//
//   $ ./build/examples/schema_evolution
#include <cstdio>

#include "adm/printer.h"
#include "common/task_pool.h"
#include "core/dataset.h"
#include "storage/file.h"

using namespace tc;

namespace {

void Show(Dataset* ds, const char* moment) {
  std::printf("%-44s %s\n", moment,
              ds->partition(0)->SchemaSnapshot().ToString().c_str());
}

}  // namespace

int main() {
  auto fs = MakeMemFileSystem();
  BufferCache cache(32 * 1024, 1024);
  TaskPool pool;  // background flush builds and merges
  DatasetOptions options;
  options.name = "Events";
  options.dir = "events";
  options.mode = SchemaMode::kInferred;
  options.wal_sync_every = 1;
  options.fs = fs;
  options.cache = &cache;
  options.merge_pool = &pool;
  DatasetOptions reopen_options = options;
  auto ds = Dataset::Open(std::move(options), 1).ValueOrDie();

  // Era 1: simple click events.
  for (int i = 0; i < 3; ++i) {
    Status st = ds->InsertJson(R"({"id": )" + std::to_string(i) +
                               R"(, "kind": "click", "x": 10, "y": 20})");
    TC_CHECK(st.ok());
  }
  TC_CHECK(ds->FlushAll().ok());
  Show(ds.get(), "after era 1 (clicks):");

  // Era 2: the producer adds a metadata object and sends "x" as a double.
  for (int i = 3; i < 6; ++i) {
    Status st = ds->InsertJson(
        R"({"id": )" + std::to_string(i) +
        R"(, "kind": "click", "x": 10.5, "y": 20,
           "meta": {"agent": "mobile", "version": 7}})");
    TC_CHECK(st.ok());
  }
  TC_CHECK(ds->FlushAll().ok());
  Show(ds.get(), "after era 2 (x widens to union, meta):");

  // Era 3: delete all era-1 records; the int-typed "x" variant dies with
  // them and the union collapses (anti-schema maintenance, §3.2.2).
  for (int i = 0; i < 3; ++i) TC_CHECK(ds->Delete(i).ok());
  TC_CHECK(ds->FlushAll().ok());
  Show(ds.get(), "after deleting era 1 (union collapsed):");

  // Era 4: restart. The schema is reloaded from the newest component's
  // metadata page (§3.1.2) — no re-inference over the data.
  ds.reset();
  ds = Dataset::Open(std::move(reopen_options), 1).ValueOrDie();
  Show(ds.get(), "after restart (schema recovered):");

  // And ingestion continues seamlessly with yet another shape.
  TC_CHECK(ds->InsertJson(R"({"id": 100, "kind": "scroll", "delta": -3})").ok());
  TC_CHECK(ds->FlushAll().ok());
  Show(ds.get(), "after era 4 (scroll events):");

  // Records from every era remain readable.
  for (int64_t pk : {4, 100}) {
    auto rec = ds->Get(pk).ValueOrDie();
    std::printf("get(%lld) -> %s\n", static_cast<long long>(pk),
                PrintAdm(*rec).c_str());
  }
  return 0;
}
