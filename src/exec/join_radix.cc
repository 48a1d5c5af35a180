#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/metrics.h"
#include "exec/hash_table.h"
#include "exec/join.h"
#include "exec/join_internal.h"

namespace x100 {

using join_internal::DrainedStore;
using join_internal::GatherByRow;

// Radix-partitioned hash join (§2; Manegold et al. [11,18]): both inputs are
// materialized, their rows radix-clustered on the key hash, and each
// partition pair joined with a partition-local hash table that fits the CPU
// cache. The random access of build/probe then never leaves the cache — the
// same principle X100 applies to vectors, applied to join state.

struct RadixJoinOp::Impl {
  DrainedStore probe_store;  // keys first, then outputs
  DrainedStore build_store;
  size_t num_keys = 0;
  std::vector<size_t> probe_out_store, build_out_store;

  // Partition-local shared vectorized table, reused (Reset) per partition:
  // distinct key -> head local build index, duplicates chained via next_dup.
  HashTable table;
  HashTable::Probe probe;

  int bits = 0;
  // Per side: row ids ordered by partition + partition boundaries.
  std::vector<uint32_t> probe_order, build_order;
  std::vector<int64_t> probe_bounds, build_bounds;  // 2^bits + 1 entries
  std::vector<uint64_t> probe_hash, build_hash;

  // Join output pairs.
  std::vector<int64_t> out_probe, out_build;
  size_t emitted = 0;
  bool built = false;
  VectorBatch out;

  uint64_t HashRow(const DrainedStore& store, size_t row) const {
    uint64_t h = 0;
    for (size_t c = 0; c < num_keys; c++) {
      const char* p = store.ColData(c) + row * store.widths[c];
      uint64_t hv;
      if (store.schema.field(static_cast<int>(c)).type == TypeId::kStr) {
        hv = HashStr(*reinterpret_cast<const char* const*>(p));
      } else {
        uint64_t raw = 0;
        std::memcpy(&raw, p, store.widths[c]);
        hv = HashU64(raw);
      }
      h = c == 0 ? hv : HashCombine(h, hv);
    }
    return h;
  }

  bool KeysEqual(size_t prow, size_t brow) const {
    for (size_t c = 0; c < num_keys; c++) {
      const char* a = probe_store.ColData(c) + prow * probe_store.widths[c];
      const char* b = build_store.ColData(c) + brow * build_store.widths[c];
      if (probe_store.schema.field(static_cast<int>(c)).type == TypeId::kStr) {
        if (std::strcmp(*reinterpret_cast<const char* const*>(a),
                        *reinterpret_cast<const char* const*>(b)) != 0) {
          return false;
        }
      } else if (std::memcmp(a, b, probe_store.widths[c]) != 0) {
        return false;
      }
    }
    return true;
  }

  bool BuildRowsEqual(size_t a, size_t b) const {
    for (size_t c = 0; c < num_keys; c++) {
      const char* pa = build_store.ColData(c) + a * build_store.widths[c];
      const char* pb = build_store.ColData(c) + b * build_store.widths[c];
      if (build_store.schema.field(static_cast<int>(c)).type == TypeId::kStr) {
        if (std::strcmp(*reinterpret_cast<const char* const*>(pa),
                        *reinterpret_cast<const char* const*>(pb)) != 0) {
          return false;
        }
      } else if (std::memcmp(pa, pb, build_store.widths[c]) != 0) {
        return false;
      }
    }
    return true;
  }

  /// Radix-cluster: order rows by the low `bits` of their hash
  /// (histogram + prefix sum + scatter, the out-of-place radix cluster).
  static void Cluster(const std::vector<uint64_t>& hashes, int bits,
                      std::vector<uint32_t>* order,
                      std::vector<int64_t>* bounds) {
    size_t parts = size_t{1} << bits;
    uint64_t mask = parts - 1;
    std::vector<int64_t> hist(parts + 1, 0);
    for (uint64_t h : hashes) hist[(h & mask) + 1]++;
    for (size_t p = 1; p <= parts; p++) hist[p] += hist[p - 1];
    *bounds = hist;
    order->resize(hashes.size());
    std::vector<int64_t> cursor(hist.begin(), hist.end() - 1);
    for (size_t r = 0; r < hashes.size(); r++) {
      (*order)[cursor[hashes[r] & mask]++] = static_cast<uint32_t>(r);
    }
  }
};

RadixJoinOp::RadixJoinOp(ExecContext* ctx, std::unique_ptr<Operator> probe,
                         std::unique_ptr<Operator> build,
                         std::vector<std::string> probe_keys,
                         std::vector<std::string> build_keys,
                         std::vector<std::string> probe_out,
                         std::vector<std::string> build_out, int radix_bits)
    : ctx_(ctx),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(probe_keys)),
      build_keys_(std::move(build_keys)),
      probe_out_(std::move(probe_out)),
      build_out_(std::move(build_out)),
      radix_bits_(radix_bits) {
  X100_CHECK(probe_keys_.size() == build_keys_.size() && !probe_keys_.empty());
  for (const std::string& name : probe_out_) {
    int ci = probe_->schema().Find(name);
    X100_CHECK(ci >= 0);
    schema_.Add(probe_->schema().field(ci));
  }
  for (const std::string& name : build_out_) {
    int ci = build_->schema().Find(name);
    X100_CHECK(ci >= 0);
    schema_.Add(build_->schema().field(ci));
  }
}

RadixJoinOp::~RadixJoinOp() = default;

void RadixJoinOp::Open() {
  probe_->Open();
  build_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;
  {
    int fi = 0;
    for (const std::string& name : probe_out_) {
      *const_cast<Field*>(&schema_.field(fi++)) =
          probe_->schema().field(probe_->schema().Find(name));
    }
    for (const std::string& name : build_out_) {
      *const_cast<Field*>(&schema_.field(fi++)) =
          build_->schema().field(build_->schema().Find(name));
    }
  }

  std::vector<std::string> pcols = probe_keys_;
  pcols.insert(pcols.end(), probe_out_.begin(), probe_out_.end());
  im.probe_store.Init(probe_->schema(), pcols);
  std::vector<std::string> bcols = build_keys_;
  bcols.insert(bcols.end(), build_out_.begin(), build_out_.end());
  im.build_store.Init(build_->schema(), bcols);
  im.num_keys = probe_keys_.size();
  for (size_t i = 0; i < probe_out_.size(); i++) {
    im.probe_out_store.push_back(im.num_keys + i);
  }
  for (size_t i = 0; i < build_out_.size(); i++) {
    im.build_out_store.push_back(im.num_keys + i);
  }
  im.out = VectorBatch(schema_, ctx_->vector_size);
}

void RadixJoinOp::BuildAll() {
  Impl& im = *impl_;
  while (VectorBatch* b = build_->Next()) im.build_store.Append(b);
  while (VectorBatch* b = probe_->Next()) im.probe_store.Append(b);

  // Pick radix bits so each build partition's table stays ~cache-sized
  // (~2^13 rows => tens of KB of hash state).
  int bits = radix_bits_;
  if (bits == 0) {
    size_t rows = im.build_store.rows;
    while ((rows >> bits) > (1u << 13) && bits < 14) bits++;
  }
  im.bits = bits;

  im.build_hash.resize(im.build_store.rows);
  for (size_t r = 0; r < im.build_store.rows; r++) {
    im.build_hash[r] = im.HashRow(im.build_store, r);
  }
  im.probe_hash.resize(im.probe_store.rows);
  for (size_t r = 0; r < im.probe_store.rows; r++) {
    im.probe_hash[r] = im.HashRow(im.probe_store, r);
  }
  Impl::Cluster(im.build_hash, bits, &im.build_order, &im.build_bounds);
  Impl::Cluster(im.probe_hash, bits, &im.probe_order, &im.probe_bounds);

  // Join partition pairs with the shared vectorized table, Reset per
  // partition so its slot array stays cache-resident. All rows of a
  // partition share the low `bits` hash bits, so the table is fed
  // hash >> bits (shifted equality == full equality within a partition;
  // feeding the raw hash would alias every row onto a few slots).
  std::vector<uint32_t> next_dup;   // local build index -> older same-key row
  std::vector<uint64_t> lane_hash;  // contiguous shifted hashes per chunk
  size_t chunk = static_cast<size_t>(ctx_->vector_size);
  size_t parts = size_t{1} << bits;
  for (size_t p = 0; p < parts; p++) {
    int64_t b0 = im.build_bounds[p], b1 = im.build_bounds[p + 1];
    int64_t p0 = im.probe_bounds[p], p1 = im.probe_bounds[p + 1];
    if (b0 == b1 || p0 == p1) continue;
    size_t n = static_cast<size_t>(b1 - b0);
    im.table.Reset(n);
    next_dup.assign(n, HashTable::kNone);
    for (size_t base = 0; base < n; base += chunk) {
      int cn = static_cast<int>(std::min(chunk, n - base));
      lane_hash.resize(static_cast<size_t>(cn));
      for (int j = 0; j < cn; j++) {
        uint32_t row = im.build_order[static_cast<size_t>(b0) + base +
                                      static_cast<size_t>(j)];
        lane_hash[static_cast<size_t>(j)] = im.build_hash[row] >> im.bits;
      }
      im.table.Reserve(static_cast<size_t>(cn));
      im.table.ProbeBegin(&im.probe, lane_hash.data(), nullptr, cn);
      while (int nc = im.table.ProbeRound(&im.probe)) {
        for (int k = 0; k < nc; k++) {
          size_t li = base + static_cast<size_t>(im.probe.cand_lane(k));
          uint32_t le = im.table.EntryValue(im.probe.cand_entry(k));
          if (im.BuildRowsEqual(
                  im.build_order[static_cast<size_t>(b0) + li],
                  im.build_order[static_cast<size_t>(b0) + le])) {
            im.table.Accept(&im.probe, k);
          } else {
            im.table.Reject(&im.probe, k);
          }
        }
      }
      for (int j = 0; j < cn; j++) {
        uint32_t li = static_cast<uint32_t>(base) + static_cast<uint32_t>(j);
        uint32_t brow = im.build_order[static_cast<size_t>(b0) + li];
        uint32_t e = im.probe.result_entry(j);
        if (e == HashTable::kNone) {
          uint32_t cand = HashTable::kNone;
          for (;;) {
            if (im.table.InsertMiss(&im.probe, j, li, &cand)) break;
            uint32_t le = im.table.EntryValue(cand);
            if (im.BuildRowsEqual(
                    brow, im.build_order[static_cast<size_t>(b0) + le])) {
              e = cand;
              break;
            }
          }
        }
        if (e != HashTable::kNone) {
          next_dup[li] = im.table.EntryValue(e);
          im.table.SetEntryValue(e, li);
        }
      }
    }
    size_t pn = static_cast<size_t>(p1 - p0);
    for (size_t base = 0; base < pn; base += chunk) {
      int cn = static_cast<int>(std::min(chunk, pn - base));
      lane_hash.resize(static_cast<size_t>(cn));
      for (int j = 0; j < cn; j++) {
        uint32_t prow = im.probe_order[static_cast<size_t>(p0) + base +
                                       static_cast<size_t>(j)];
        lane_hash[static_cast<size_t>(j)] = im.probe_hash[prow] >> im.bits;
      }
      im.table.ProbeBegin(&im.probe, lane_hash.data(), nullptr, cn);
      while (int nc = im.table.ProbeRound(&im.probe)) {
        for (int k = 0; k < nc; k++) {
          uint32_t prow =
              im.probe_order[static_cast<size_t>(p0) + base +
                             static_cast<size_t>(im.probe.cand_lane(k))];
          uint32_t le = im.table.EntryValue(im.probe.cand_entry(k));
          if (im.KeysEqual(prow,
                           im.build_order[static_cast<size_t>(b0) + le])) {
            im.table.Accept(&im.probe, k);
          } else {
            im.table.Reject(&im.probe, k);
          }
        }
      }
      for (int j = 0; j < cn; j++) {
        uint32_t head = im.probe.result(j);
        if (head == HashTable::kNone) continue;
        uint32_t prow = im.probe_order[static_cast<size_t>(p0) + base +
                                       static_cast<size_t>(j)];
        for (uint32_t li = head; li != HashTable::kNone; li = next_dup[li]) {
          im.out_probe.push_back(prow);
          im.out_build.push_back(
              im.build_order[static_cast<size_t>(b0) + li]);
        }
      }
    }
  }
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.GetHistogram("join.radix.build_rows")->Record(im.build_store.rows);
  reg.GetHistogram("join.radix.fanout")->Record(parts);
  reg.GetCounter("join.radix.probe_tuples")->Add(im.probe_store.rows);
  reg.GetCounter("join.radix.result_pairs")->Add(im.out_probe.size());
  im.built = true;
}

VectorBatch* RadixJoinOp::Next() {
  Impl& im = *impl_;
  if (!im.built) BuildAll();
  size_t avail = im.out_probe.size() - im.emitted;
  if (avail == 0) return nullptr;
  int n = static_cast<int>(
      std::min<size_t>(avail, static_cast<size_t>(ctx_->vector_size)));
  const int64_t* prows = im.out_probe.data() + im.emitted;
  const int64_t* brows = im.out_build.data() + im.emitted;
  for (size_t c = 0; c < im.probe_out_store.size(); c++) {
    size_t sc = im.probe_out_store[c];
    const Field& f = im.probe_store.schema.field(static_cast<int>(sc));
    GatherByRow(im.out.column(static_cast<int>(c)).data(),
                im.probe_store.ColData(sc), im.probe_store.widths[sc], prows,
                n, f.type == TypeId::kStr, "");
  }
  for (size_t c = 0; c < im.build_out_store.size(); c++) {
    size_t sc = im.build_out_store[c];
    const Field& f = im.build_store.schema.field(static_cast<int>(sc));
    GatherByRow(
        im.out.column(static_cast<int>(im.probe_out_store.size() + c)).data(),
        im.build_store.ColData(sc), im.build_store.widths[sc], brows, n,
        f.type == TypeId::kStr, "");
  }
  im.emitted += static_cast<size_t>(n);
  im.out.set_count(n);
  im.out.ClearSel();
  return &im.out;
}

void RadixJoinOp::Close() {
  if (impl_) impl_->table.PublishStats(trace_node_);
  probe_->Close();
  build_->Close();
}

}  // namespace x100
