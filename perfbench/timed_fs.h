// Timing FileSystem decorator: forwards every call to the wrapped (POSIX)
// filesystem and attributes each Read / Write / Append / Sync to the role of
// the file it touches, decided once from the path at Open/Create time. Calls
// and bytes are counted in every run; time is measured (and a trace span
// recorded on the calling thread) only when tracing is on, so untraced runs
// pay two relaxed atomic adds per I/O.
#ifndef PERFBENCH_TIMED_FS_H_
#define PERFBENCH_TIMED_FS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/file.h"
#include "trace.h"

namespace perfbench {

enum class FileRole { kWal = 0, kComponent = 1, kSchema = 2, kOther = 3 };
constexpr size_t kRoleCount = 4;
enum class IoOp { kRead = 0, kWrite = 1, kAppend = 2, kSync = 3 };
constexpr size_t kOpCount = 4;

inline const char* RoleName(FileRole r) {
  static const char* const kNames[] = {"wal", "component", "schema", "other"};
  return kNames[static_cast<size_t>(r)];
}

/// Role by file name: LSM trees name WAL segments "<tree>.wal[.<seq>]" and
/// components "<tree>.c<min>-<max>.btree"; anything naming a schema is
/// schema metadata.
inline FileRole RoleOf(const std::string& path) {
  std::string name = path.substr(path.find_last_of('/') + 1);
  if (name.find(".btree") != std::string::npos) return FileRole::kComponent;
  if (name.find(".wal") != std::string::npos) return FileRole::kWal;
  if (name.find("schema") != std::string::npos) return FileRole::kSchema;
  return FileRole::kOther;
}

struct IoCounter {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<int64_t> ns{0};  // traced runs only
};

/// Snapshot of one (role, op) cell.
struct IoTotals {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  int64_t ns = 0;
};

class IoStats {
 public:
  IoCounter& At(FileRole r, IoOp op) {
    return cells_[static_cast<size_t>(r) * kOpCount + static_cast<size_t>(op)];
  }
  IoTotals Snapshot(FileRole r, IoOp op) {
    IoCounter& c = At(r, op);
    return {c.calls.load(std::memory_order_relaxed),
            c.bytes.load(std::memory_order_relaxed),
            c.ns.load(std::memory_order_relaxed)};
  }

 private:
  std::array<IoCounter, kRoleCount * kOpCount> cells_;
};

class TimedFile final : public tc::File {
 public:
  TimedFile(std::unique_ptr<tc::File> inner, FileRole role, IoStats* stats)
      : inner_(std::move(inner)), role_(role), stats_(stats) {}

  tc::Status Read(uint64_t offset, size_t n, uint8_t* buf) override {
    Op op(this, IoOp::kRead, "fs.read", n);
    return inner_->Read(offset, n, buf);
  }
  tc::Status Write(uint64_t offset, const uint8_t* buf, size_t n) override {
    Op op(this, IoOp::kWrite, "fs.write", n);
    return inner_->Write(offset, buf, n);
  }
  tc::Status Append(const uint8_t* buf, size_t n, uint64_t* offset) override {
    Op op(this, IoOp::kAppend, "fs.append", n);
    return inner_->Append(buf, n, offset);
  }
  uint64_t Size() const override { return inner_->Size(); }
  tc::Status Sync() override {
    Op op(this, IoOp::kSync, "fs.sync", 0);
    return inner_->Sync();
  }

 private:
  // Counts one call on construction; on destruction adds the span's time to
  // the cell (the span itself is a no-op unless tracing is on).
  class Op {
   public:
    Op(TimedFile* f, IoOp op, const char* name, size_t bytes)
        : cell_(&f->stats_->At(f->role_, op)), span_(name, RoleName(f->role_)) {
      cell_->calls.fetch_add(1, std::memory_order_relaxed);
      cell_->bytes.fetch_add(bytes, std::memory_order_relaxed);
      span_.set_amount(bytes);
    }
    ~Op() { cell_->ns.fetch_add(span_.elapsed_ns(), std::memory_order_relaxed); }
    Op(const Op&) = delete;
    Op& operator=(const Op&) = delete;

   private:
    IoCounter* cell_;
    Span span_;
  };

  std::unique_ptr<tc::File> inner_;
  FileRole role_;
  IoStats* stats_;
};

class TimedFileSystem final : public tc::FileSystem {
 public:
  explicit TimedFileSystem(std::shared_ptr<tc::FileSystem> inner)
      : inner_(std::move(inner)) {}

  tc::Result<std::unique_ptr<tc::File>> Open(const std::string& path) override {
    return Wrap(inner_->Open(path), path);
  }
  tc::Result<std::unique_ptr<tc::File>> Create(const std::string& path) override {
    return Wrap(inner_->Create(path), path);
  }
  tc::Status Delete(const std::string& path) override { return inner_->Delete(path); }
  bool Exists(const std::string& path) const override { return inner_->Exists(path); }
  tc::Result<std::vector<std::string>> List(const std::string& dir,
                                            const std::string& prefix) const override {
    return inner_->List(dir, prefix);
  }
  tc::Status CreateDir(const std::string& path) override {
    return inner_->CreateDir(path);
  }
  tc::Result<uint64_t> FileSize(const std::string& path) const override {
    return inner_->FileSize(path);
  }

  IoStats& stats() { return stats_; }

 private:
  tc::Result<std::unique_ptr<tc::File>> Wrap(tc::Result<std::unique_ptr<tc::File>> r,
                                             const std::string& path) {
    if (!r.ok()) return r;
    return {std::unique_ptr<tc::File>(
        new TimedFile(std::move(r).value(), RoleOf(path), &stats_))};
  }

  std::shared_ptr<tc::FileSystem> inner_;
  IoStats stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_FS_H_
