#include "storage/durable.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/metrics.h"
#include "storage/serialize.h"

namespace x100 {

namespace {

struct DurableMetrics {
  Counter* checkpoints;
  Counter* merges;
  Counter* recovered_tables;
  static DurableMetrics& Get() {
    static DurableMetrics m = {
        MetricsRegistry::Get().GetCounter("server.wal.checkpoints"),
        MetricsRegistry::Get().GetCounter("server.wal.merges"),
        MetricsRegistry::Get().GetCounter("server.wal.recovered_tables"),
    };
    return m;
  }
};

// -- WAL record bodies --
//
// Append body: u16 num_values, then per value u8 TypeId + payload
// (i64/f64 little-endian, or u32 length + bytes for strings).
// Delete body: u64 rowid.

void PutRaw(std::string* out, const void* p, size_t n) {
  out->append(reinterpret_cast<const char*>(p), n);
}

std::string EncodeRow(const std::vector<Value>& row) {
  std::string body;
  uint16_t n = static_cast<uint16_t>(row.size());
  PutRaw(&body, &n, 2);
  for (const Value& v : row) {
    uint8_t t = static_cast<uint8_t>(v.type());
    PutRaw(&body, &t, 1);
    switch (v.type()) {
      case TypeId::kStr: {
        const std::string& s = v.AsStr();
        uint32_t len = static_cast<uint32_t>(s.size());
        PutRaw(&body, &len, 4);
        body.append(s);
        break;
      }
      case TypeId::kF64:
      case TypeId::kF32: {
        double d = v.AsF64();
        PutRaw(&body, &d, 8);
        break;
      }
      default: {
        int64_t i = v.AsI64();
        PutRaw(&body, &i, 8);
      }
    }
  }
  return body;
}

Status DecodeRow(const std::string& body, std::vector<Value>* row) {
  size_t off = 0;
  auto need = [&](size_t n) { return body.size() - off >= n; };
  if (!need(2)) return Status::Error("wal: truncated append body");
  uint16_t n;
  std::memcpy(&n, body.data(), 2);
  off = 2;
  row->clear();
  row->reserve(n);
  for (int i = 0; i < n; i++) {
    if (!need(1)) return Status::Error("wal: truncated append body");
    uint8_t t = static_cast<uint8_t>(body[off++]);
    if (t >= static_cast<uint8_t>(TypeId::kCount)) {
      return Status::Error("wal: bad value type in append body");
    }
    TypeId type = static_cast<TypeId>(t);
    switch (type) {
      case TypeId::kStr: {
        if (!need(4)) return Status::Error("wal: truncated append body");
        uint32_t len;
        std::memcpy(&len, body.data() + off, 4);
        off += 4;
        if (!need(len)) return Status::Error("wal: truncated append body");
        row->push_back(Value::Str(body.substr(off, len)));
        off += len;
        break;
      }
      case TypeId::kF64:
      case TypeId::kF32: {
        if (!need(8)) return Status::Error("wal: truncated append body");
        double d;
        std::memcpy(&d, body.data() + off, 8);
        off += 8;
        row->push_back(Value::F64(d));
        break;
      }
      default: {
        if (!need(8)) return Status::Error("wal: truncated append body");
        int64_t v;
        std::memcpy(&v, body.data() + off, 8);
        off += 8;
        switch (type) {
          case TypeId::kI8:  row->push_back(Value::I8(static_cast<int8_t>(v))); break;
          case TypeId::kU8:  row->push_back(Value::U8(static_cast<uint8_t>(v))); break;
          case TypeId::kI16: row->push_back(Value::I16(static_cast<int16_t>(v))); break;
          case TypeId::kU16: row->push_back(Value::U16(static_cast<uint16_t>(v))); break;
          case TypeId::kI32: row->push_back(Value::I32(static_cast<int32_t>(v))); break;
          case TypeId::kDate: row->push_back(Value::Date(static_cast<int32_t>(v))); break;
          default: row->push_back(Value::I64(v));
        }
      }
    }
  }
  if (off != body.size()) return Status::Error("wal: trailing append bytes");
  return Status::OK();
}

constexpr char kImagePrefix[] = "checkpoint-";
constexpr char kImageSuffix[] = ".cat";

std::string ImagePath(const std::string& dir, uint64_t lsn) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020llu%s", kImagePrefix,
                static_cast<unsigned long long>(lsn), kImageSuffix);
  return (std::filesystem::path(dir) / buf).string();
}

/// Highest checkpoint image lsn in `dir`, or 0 when none.
uint64_t FindImageLsn(const std::string& dir) {
  uint64_t best = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    std::string name = e.path().filename().string();
    size_t plen = sizeof(kImagePrefix) - 1;
    if (name.rfind(kImagePrefix, 0) != 0 || name.size() <= plen + 4) continue;
    if (name.substr(name.size() - 4) != kImageSuffix) continue;
    uint64_t lsn =
        std::strtoull(name.substr(plen, name.size() - plen - 4).c_str(),
                      nullptr, 10);
    best = std::max(best, lsn);
  }
  return best;
}

}  // namespace

DurableStore::DurableStore(const Options& opts,
                           std::unique_ptr<Catalog> catalog, uint64_t image_lsn)
    : opts_(opts), catalog_(std::move(catalog)), image_lsn_(image_lsn) {}

std::unique_ptr<DurableStore> DurableStore::Open(const Options& opts,
                                                 std::unique_ptr<Catalog> base,
                                                 std::string* error) {
  X100_CHECK(!opts.wal_dir.empty());
  std::error_code ec;
  std::filesystem::create_directories(opts.wal_dir, ec);
  if (ec) {
    *error = "durable: cannot create " + opts.wal_dir + ": " + ec.message();
    return nullptr;
  }

  std::unique_ptr<Catalog> catalog = std::move(base);
  uint64_t image_lsn = FindImageLsn(opts.wal_dir);
  if (image_lsn != 0) {
    std::unique_ptr<Catalog> loaded =
        LoadCatalog(ImagePath(opts.wal_dir, image_lsn), error);
    if (loaded == nullptr) return nullptr;
    catalog = std::move(loaded);
  }

  std::unique_ptr<DurableStore> store(
      new DurableStore(opts, std::move(catalog), image_lsn));
  Wal::Options wopts;
  wopts.dir = opts.wal_dir;
  wopts.group_commit_us = opts.group_commit_us;
  store->wal_ = Wal::Open(wopts, error);
  if (store->wal_ == nullptr) return nullptr;
  return store;
}

DurableStore::~DurableStore() {
  {
    std::lock_guard<std::mutex> lk(merge_mu_);
    stop_merge_ = true;
  }
  merge_cv_.notify_all();
  if (merger_.joinable()) merger_.join();
}

Status DurableStore::RegisterJoinIndex(const std::string& table,
                                       const std::vector<std::string>& fk_cols,
                                       const std::string& target,
                                       const std::vector<std::string>& key_cols) {
  X100_CHECK(mvcc_.empty());  // before Recover()
  Table* t = catalog_->Find(table);
  const Table* tgt = catalog_->Find(target);
  if (t == nullptr || tgt == nullptr) {
    return Status::Error("register join index: unknown table");
  }
  if (t->schema().Find(Table::JoinIndexName(target)) < 0) {
    Status s = t->BuildJoinIndex(fk_cols, *tgt, key_cols);
    if (!s.ok()) return s;
  }
  ji_specs_.push_back({table, fk_cols, target, key_cols});
  is_ji_target_[target] = true;
  return Status::OK();
}

Status DurableStore::Apply(const WalRecord& rec) {
  auto it = mvcc_.find(rec.table);
  switch (rec.type) {
    case WalRecordType::kAppend: {
      if (it == mvcc_.end()) return Status::Error("wal: unknown table " + rec.table);
      std::vector<Value> row;
      Status s = DecodeRow(rec.body, &row);
      if (!s.ok()) return s;
      return it->second->Append(row);
    }
    case WalRecordType::kDelete: {
      if (it == mvcc_.end()) return Status::Error("wal: unknown table " + rec.table);
      if (rec.body.size() != 8) return Status::Error("wal: bad delete body");
      uint64_t rowid;
      std::memcpy(&rowid, rec.body.data(), 8);
      return it->second->Delete(static_cast<int64_t>(rowid));
    }
    case WalRecordType::kMerge: {
      if (it == mvcc_.end()) return Status::Error("wal: unknown table " + rec.table);
      return it->second->Merge();
    }
    case WalRecordType::kCheckpoint:
      return Status::OK();  // marker only; the image carries the state
  }
  return Status::Error("wal: unknown record type");
}

Status DurableStore::Recover() {
  X100_CHECK(mvcc_.empty());
  // Reserve enough delta headroom that steady-state appends between merges
  // never hit the capacity fence. The cap keeps a huge threshold from being
  // allocated up front; appends past it double the capacity behind
  // MvccTable's fence. Taking the min before the *2 rules out overflow.
  int64_t reserve = std::min(opts_.merge_threshold_rows, kDefaultMergeRows) * 2;
  for (const std::string& name : catalog_->TableNames()) {
    Table* t = catalog_->Find(name);
    if (!t->frozen()) t->Freeze();
    mvcc_.emplace(name, std::make_unique<MvccTable>(t, reserve));
    DurableMetrics::Get().recovered_tables->Inc();
  }
  for (const JiRegistration& reg : ji_specs_) {
    mvcc_.at(reg.table)->RegisterJoinIndex(reg.fk_cols,
                                           catalog_->Find(reg.target),
                                           reg.key_cols, reg.target);
  }
  Status s = wal_->Replay(
      image_lsn_, [this](const WalRecord& rec) { return Apply(rec); });
  if (!s.ok()) return s;

  if (opts_.background_merge) {
    merger_ = std::thread([this] { MergeLoop(); });
  }
  return Status::OK();
}

Status DurableStore::Append(const std::string& table,
                            const std::vector<Value>& row, bool durable,
                            uint64_t* lsn) {
  auto it = mvcc_.find(table);
  if (it == mvcc_.end()) return Status::Error("append: unknown table " + table);
  uint64_t rec_lsn;
  {
    std::lock_guard<std::mutex> lk(write_mu_);
    Status s = it->second->Append(row);
    if (!s.ok()) return s;
    rec_lsn = wal_->Append(WalRecordType::kAppend, table, EncodeRow(row));
  }
  if (lsn != nullptr) *lsn = rec_lsn;
  if (durable) return wal_->Commit(rec_lsn);
  return Status::OK();
}

Status DurableStore::Delete(const std::string& table, int64_t rowid,
                            bool durable, uint64_t* lsn) {
  auto it = mvcc_.find(table);
  if (it == mvcc_.end()) return Status::Error("delete: unknown table " + table);
  uint64_t rec_lsn;
  {
    std::lock_guard<std::mutex> lk(write_mu_);
    Status s = it->second->Delete(rowid);
    if (!s.ok()) return s;
    std::string body(8, '\0');
    uint64_t r = static_cast<uint64_t>(rowid);
    std::memcpy(body.data(), &r, 8);
    rec_lsn = wal_->Append(WalRecordType::kDelete, table, std::move(body));
  }
  if (lsn != nullptr) *lsn = rec_lsn;
  if (durable) return wal_->Commit(rec_lsn);
  return Status::OK();
}

std::shared_ptr<SnapshotSet> DurableStore::PinAll() {
  auto set = std::make_shared<SnapshotSet>();
  for (auto& [name, mvcc] : mvcc_) {
    set->tables.emplace(name, mvcc->Pin());
  }
  return set;
}

Status DurableStore::Checkpoint() {
  std::lock_guard<std::mutex> lk(write_mu_);  // quiesce writers
  uint64_t lsn = wal_->last_lsn();
  std::string path = ImagePath(opts_.wal_dir, lsn);
  std::string tmp = path + ".tmp";
  Status s = SaveCatalog(*catalog_, tmp);
  if (!s.ok()) return s;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Error("checkpoint: rename failed for " + path);
  }
  s = wal_->Checkpoint(lsn);
  if (!s.ok()) return s;
  // Older images are superseded; recovery picks the highest lsn anyway.
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(opts_.wal_dir, ec)) {
    std::string name = e.path().filename().string();
    if (name.rfind(kImagePrefix, 0) == 0 && e.path().string() != path &&
        name.size() > 4 && name.substr(name.size() - 4) == kImageSuffix) {
      std::filesystem::remove(e.path(), ec);
    }
  }
  image_lsn_ = lsn;
  DurableMetrics::Get().checkpoints->Inc();
  return Status::OK();
}

int DurableStore::MergeIfNeeded() {
  int merged = 0;
  for (auto& [name, mvcc] : mvcc_) {
    if (is_ji_target_.count(name) != 0) continue;
    if (mvcc->delta_rows() < opts_.merge_threshold_rows) continue;
    std::lock_guard<std::mutex> lk(write_mu_);
    if (mvcc->delta_rows() < opts_.merge_threshold_rows) continue;
    // Log first so replay merges at the same point in the total order
    // (rowid reassignment must be reproduced exactly).
    uint64_t lsn = wal_->Append(WalRecordType::kMerge, name, "");
    Status s = mvcc->Merge();
    X100_CHECK_OK(s);
    Status c = wal_->Commit(lsn);
    X100_CHECK_OK(c);
    DurableMetrics::Get().merges->Inc();
    merged++;
  }
  return merged;
}

void DurableStore::MergeLoop() {
  std::unique_lock<std::mutex> lk(merge_mu_);
  while (!stop_merge_) {
    merge_cv_.wait_for(lk, std::chrono::milliseconds(50),
                       [&] { return stop_merge_; });
    if (stop_merge_) return;
    lk.unlock();
    MergeIfNeeded();
    lk.lock();
  }
}

MvccTable* DurableStore::mvcc(const std::string& table) {
  auto it = mvcc_.find(table);
  return it == mvcc_.end() ? nullptr : it->second.get();
}

}  // namespace x100
