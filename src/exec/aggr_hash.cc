#include <cstring>

#include "common/metrics.h"
#include "exec/aggr_internal.h"
#include "exec/hash_table.h"

namespace x100 {

using aggr_internal::AggrState;

// Hash aggregation (§4.1.2): per input vector, hash vectors are computed with
// the map_hash / map_rehash primitives, then a vectorized probe over the
// shared hash-table layer assigns each tuple its group slot, and the shared
// aggregate step updates the accumulators (the hash-table-maintenance half of
// Figure 6). New groups are created in first-encounter (lane) order, so
// group ids — and therefore output row order — follow the input, not the
// slot layout.
struct HashAggrOp::Impl {
  std::unique_ptr<AggrState> aggrs;

  std::vector<int> key_cols;       // child schema indices
  std::vector<size_t> key_widths;  // physical widths
  std::vector<bool> key_is_str;
  std::vector<Buffer> key_store;   // per key column: one value per group

  HashTable table;  // distinct key -> group id
  HashTable::Probe probe;
  size_t num_groups = 0;

  // Hash pipeline: one map_hash step then rehash steps, ping-ponging between
  // the two hash vectors (rehash reads one and writes the other).
  struct HashStep {
    const MapPrimitive* prim;
    int col;  // child column index
    PrimitiveStats* stats;
    size_t bytes_per_tuple;
  };
  std::vector<HashStep> hash_steps;
  Vector hash_a, hash_b;

  std::unique_ptr<uint32_t[]> groups;
  PrimitiveStats* op_stats = nullptr;
  Counter* m_rehashes = nullptr;
  uint64_t input_tuples = 0;

  // Drain state.
  bool built = false;
  size_t emit_pos = 0;
  VectorBatch out;

  bool KeysEqual(const VectorBatch* batch, int pos, size_t g) const {
    for (size_t c = 0; c < key_cols.size(); c++) {
      const char* data =
          static_cast<const char*>(batch->column(key_cols[c]).data());
      const char* a = data + static_cast<size_t>(pos) * key_widths[c];
      const char* b = static_cast<const char*>(key_store[c].data()) +
                      g * key_widths[c];
      if (key_is_str[c]) {
        const char* sa = *reinterpret_cast<const char* const*>(a);
        const char* sb = *reinterpret_cast<const char* const*>(b);
        if (std::strcmp(sa, sb) != 0) return false;
      } else if (std::memcmp(a, b, key_widths[c]) != 0) {
        return false;
      }
    }
    return true;
  }

  // Creates the next group from position `pos` of `batch`: copies the key
  // values and extends the accumulator arrays.
  uint32_t NewGroup(const VectorBatch* batch, int pos) {
    uint32_t g = static_cast<uint32_t>(num_groups++);
    for (size_t c = 0; c < key_cols.size(); c++) {
      const char* data =
          static_cast<const char*>(batch->column(key_cols[c]).data());
      key_store[c].Append(data + static_cast<size_t>(pos) * key_widths[c],
                          key_widths[c]);
    }
    aggrs->Grow(num_groups);
    return g;
  }
};

HashAggrOp::HashAggrOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                       std::vector<std::string> group_by,
                       std::vector<AggrSpec> aggrs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      specs_(std::move(aggrs)) {
  AggrState probe(ctx_, child_->schema(), specs_, !group_by_.empty(),
                  "HashAggr");
  aggr_internal::BuildAggrSchema(child_->schema(), group_by_, probe, &schema_);
}

HashAggrOp::~HashAggrOp() = default;

void HashAggrOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;

  im.aggrs = std::make_unique<AggrState>(ctx_, child_->schema(), specs_,
                                         !group_by_.empty(), "HashAggr",
                                         trace_node_);
  schema_ = Schema();
  im.key_cols = aggr_internal::BuildAggrSchema(child_->schema(), group_by_,
                                               *im.aggrs, &schema_);
  const Schema& cs = child_->schema();
  for (int ci : im.key_cols) {
    im.key_widths.push_back(TypeWidth(cs.field(ci).type));
    im.key_is_str.push_back(cs.field(ci).type == TypeId::kStr &&
                            !cs.field(ci).dict.valid());
  }
  im.key_store.resize(im.key_cols.size());

  im.table.Reset(0);
  im.groups = std::make_unique<uint32_t[]>(ctx_->vector_size);
  im.hash_a.Allocate(TypeId::kI64, ctx_->vector_size);
  im.hash_b.Allocate(TypeId::kI64, ctx_->vector_size);
  im.op_stats = ctx_->profiler ? ctx_->profiler->GetStats("HashAggr") : nullptr;
  im.m_rehashes = MetricsRegistry::Get().GetCounter("aggr.hash.rehashes");

  // Bind the hash pipeline.
  for (size_t c = 0; c < im.key_cols.size(); c++) {
    const Field& f = cs.field(im.key_cols[c]);
    const char* tn = f.type == TypeId::kDate ? "i32" : TypeName(f.type);
    std::string name = std::string(c == 0 ? "map_hash_" : "map_rehash_") + tn +
                       "_col";
    const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
    X100_CHECK(prim != nullptr);
    im.hash_steps.push_back(
        {prim, im.key_cols[c],
         ctx_->profiler ? ctx_->profiler->GetStats(name) : nullptr,
         TypeWidth(f.type) + 8});
  }

  if (group_by_.empty()) {
    // Scalar aggregation: a single group exists even on empty input.
    im.num_groups = 1;
    im.aggrs->Grow(1);
  }
}

void HashAggrOp::Build() {
  Impl& im = *impl_;
  while (VectorBatch* batch = child_->Next()) {
    int n = batch->sel_count();
    im.input_tuples += static_cast<uint64_t>(n);
    const int* sel = batch->sel();

    const uint32_t* groups_ptr = nullptr;
    if (!im.key_cols.empty()) {
      // Hash pipeline.
      uint64_t* cur = im.hash_a.Data<uint64_t>();
      uint64_t* other = im.hash_b.Data<uint64_t>();
      for (size_t s = 0; s < im.hash_steps.size(); s++) {
        Impl::HashStep& hs = im.hash_steps[s];
        const void* args[2] = {batch->column(hs.col).data(), cur};
        void* res = s == 0 ? cur : other;
        if (hs.stats) {
          ScopedCycles cyc(hs.stats);
          hs.prim->fn(n, res, args, sel);
          hs.stats->calls++;
          hs.stats->tuples += static_cast<uint64_t>(n);
          hs.stats->bytes += static_cast<uint64_t>(n) * hs.bytes_per_tuple;
        } else {
          hs.prim->fn(n, res, args, sel);
        }
        if (s != 0) std::swap(cur, other);
      }

      // Probe / insert (operator loop; accounted to the HashAggr row).
      // Reserve up front: every tuple of the batch could be a new group, and
      // growth must stay off the probe path.
      uint64_t t0 = im.op_stats ? ReadCycleCounter() : 0;
      im.table.Reserve(static_cast<size_t>(n));
      im.table.ProbeBegin(&im.probe, cur, sel, n);
      while (int nc = im.table.ProbeRound(&im.probe)) {
        for (int k = 0; k < nc; k++) {
          int pos = sel ? sel[im.probe.cand_lane(k)] : im.probe.cand_lane(k);
          if (im.KeysEqual(batch, pos,
                           im.table.EntryValue(im.probe.cand_entry(k)))) {
            im.table.Accept(&im.probe, k);
          } else {
            im.table.Reject(&im.probe, k);
          }
        }
      }
      for (int j = 0; j < n; j++) {
        int i = sel ? sel[j] : j;
        uint32_t g = im.probe.result(j);
        if (g == HashTable::kNone) {
          uint32_t cand = HashTable::kNone;
          for (;;) {
            if (im.table.InsertMiss(&im.probe, j,
                                    static_cast<uint32_t>(im.num_groups),
                                    &cand)) {
              g = im.NewGroup(batch, i);
              break;
            }
            uint32_t g2 = im.table.EntryValue(cand);
            if (im.KeysEqual(batch, i, g2)) {
              g = g2;
              break;
            }
          }
        }
        im.groups[i] = g;
      }
      if (im.op_stats) {
        im.op_stats->calls++;
        im.op_stats->tuples += static_cast<uint64_t>(n);
        im.op_stats->cycles += ReadCycleCounter() - t0;
      }
      groups_ptr = im.groups.get();
    }

    im.aggrs->Update(batch, groups_ptr);
  }
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.GetHistogram("aggr.hash.groups")->Record(im.num_groups);
  reg.GetCounter("aggr.hash.input_tuples")->Add(im.input_tuples);
  im.m_rehashes->Add(im.table.stats().grows);
  im.built = true;
  im.emit_pos = 0;
  im.out = VectorBatch(schema_, ctx_->vector_size);
}

VectorBatch* HashAggrOp::Next() {
  Impl& im = *impl_;
  if (!im.built) Build();
  if (im.emit_pos >= im.num_groups) return nullptr;

  int n = static_cast<int>(
      std::min<size_t>(ctx_->vector_size, im.num_groups - im.emit_pos));
  for (size_t c = 0; c < im.key_cols.size(); c++) {
    const char* src = static_cast<const char*>(im.key_store[c].data()) +
                      im.emit_pos * im.key_widths[c];
    std::memcpy(im.out.column(static_cast<int>(c)).data(), src,
                static_cast<size_t>(n) * im.key_widths[c]);
  }
  im.aggrs->EmitRange(im.emit_pos, n, &im.out,
                      static_cast<int>(im.key_cols.size()));
  im.out.set_count(n);
  im.out.ClearSel();
  im.emit_pos += static_cast<size_t>(n);
  return &im.out;
}

void HashAggrOp::Close() {
  if (impl_) impl_->table.PublishStats(trace_node_);
  child_->Close();
}

}  // namespace x100
