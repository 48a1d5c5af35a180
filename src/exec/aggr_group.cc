#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "exec/aggr_internal.h"
#include "exec/hash_table.h"
#include "exec/trace.h"

namespace x100 {

using aggr_internal::AggrState;

namespace {

// The direct path's id table may hold max(2^16, 8 x groups) slots: at most
// 32 bytes per group, the size of a hash table's slots and entries at its
// load ceiling. Past that the keys are sparse and hashing wins.
constexpr uint64_t kMinDirectSlots = uint64_t{1} << 16;
constexpr uint64_t kSlotsPerGroup = 8;
constexpr uint64_t kMaxDirectSlots = uint64_t{1} << 31;  // ids stay in u32

bool IsIntegerKey(TypeId t) {
  switch (t) {
    case TypeId::kI8:
    case TypeId::kU8:
    case TypeId::kI16:
    case TypeId::kU16:
    case TypeId::kI32:
    case TypeId::kI64:
    case TypeId::kDate:
      return true;
    default:
      return false;
  }
}

// Value of the integer key at `pos` of a column of physical type `t`.
int64_t KeyAt(const void* data, TypeId t, size_t pos) {
  switch (t) {
    case TypeId::kI8:  return static_cast<const int8_t*>(data)[pos];
    case TypeId::kU8:  return static_cast<const uint8_t*>(data)[pos];
    case TypeId::kI16: return static_cast<const int16_t*>(data)[pos];
    case TypeId::kU16: return static_cast<const uint16_t*>(data)[pos];
    case TypeId::kI32:
    case TypeId::kDate: return static_cast<const int32_t*>(data)[pos];
    default: return static_cast<const int64_t*>(data)[pos];
  }
}

// [min, max] of the values of physical type `t`.
std::pair<int64_t, int64_t> KeyTypeRange(TypeId t) {
  switch (t) {
    case TypeId::kI8:  return {INT8_MIN, INT8_MAX};
    case TypeId::kU8:  return {0, UINT8_MAX};
    case TypeId::kI16: return {INT16_MIN, INT16_MAX};
    case TypeId::kU16: return {0, UINT16_MAX};
    case TypeId::kI32:
    case TypeId::kDate: return {INT32_MIN, INT32_MAX};
    default:
      return {std::numeric_limits<int64_t>::min(),
              std::numeric_limits<int64_t>::max()};
  }
}

// Primitive-name type of a key column (dates hash and index as i32).
const char* KeyTypeName(TypeId t) {
  return t == TypeId::kDate ? "i32" : TypeName(t);
}

template <typename T>
void GatherKeys(void* dst, const void* src, const int* pos, int n) {
  T* __restrict__ d = static_cast<T*>(dst);
  const T* __restrict__ s = static_cast<const T*>(src);
  for (int j = 0; j < n; j++) d[j] = s[pos[j]];
}

}  // namespace

// Grouped aggregation (§4.1.2). Per input vector, a chain of map primitives
// gives each live tuple an id, the operator loop turns ids into group rows,
// and the shared aggregate step updates the accumulators. Two id sources:
//
//   direct: map_directgrp (one key, or two of one type) and map_redirectgrp
//   (each further key) compute sum (k_c - base_c) x stride_c over the key
//   columns, and row_of[id] holds the id's row + 1 (0 while unseen). Spans
//   come from the data: the first vector sizes them, and a key outside them
//   (the chain yields id == slots, which row_of maps to 0 like an unseen id)
//   re-bases the table from the stored group keys and redoes the vector. A
//   span that grows takes the old span again as headroom, so sorted keys
//   re-base O(log) times;
//
//   hash: map_hash / map_rehash, then a vectorized probe over the shared
//   hash-table layer with the key compare in the operator loop (the
//   hash-table-maintenance half of Figure 6). Taken from the start for
//   string and float keys, and once, for good, when direct spans would pass
//   the slot bound; the table is then seeded with the groups found so far.
//
// Both create groups in first-encounter (lane) order and keep one stored
// key per group and column, so output row order follows the input, not the
// id or slot layout, and does not depend on the path taken.
struct GroupAggrOp::Impl {
  // A bound primitive of an id pipeline (direct ids or hashes).
  struct Step {
    const MapPrimitive* prim;
    TraceNode* leaf;
  };

  std::unique_ptr<AggrState> aggrs;
  ExecContext* ctx = nullptr;
  TraceNode* trace_node = nullptr;

  std::vector<int> key_cols;  // child schema indices
  std::vector<TypeId> key_types;
  std::vector<size_t> key_widths;
  std::vector<bool> key_is_str;
  std::vector<Buffer> key_store;  // per key column: one value per group
  size_t num_groups = 0;
  std::unique_ptr<uint32_t[]> groups;  // per position: its group row
  std::vector<const void*> batch_keys;

  // Direct path (`direct` false once hashing).
  bool direct = false;
  std::vector<Step> grp_steps;
  bool pair_start = false;  // the first two keys share one type and step
  std::vector<DirectGrpDigit> digits;  // span 0 until the first vector
  uint32_t slots = 0;
  std::vector<uint32_t> row_of{0};  // slots + 1 entries
  std::unique_ptr<uint32_t[]> ids_a, ids_b;
  std::unique_ptr<int[]> fresh_pos;  // positions of a vector's new groups
  uint64_t rebases = 0;
  bool switched = false;
  size_t switch_groups = 0;
  uint32_t switch_slots = 0;

  // Hash path.
  HashTable table;
  HashTable::Probe probe;
  std::vector<Step> hash_steps;
  Vector hash_a, hash_b;

  uint64_t input_tuples = 0;

  // Drain state.
  bool built = false;
  size_t emit_pos = 0;
  VectorBatch out;

  Step Bind(const std::string& name, size_t bytes_per_tuple) const {
    const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
    X100_CHECK(prim != nullptr);
    return {prim, PrimitiveLeaf(ctx, trace_node, name, bytes_per_tuple)};
  }

  static void Run(const Step& s, int n, void* res, const void* const* args,
                  const int* sel) {
    TimedCall(s.leaf, n, [&] { s.prim->fn(n, res, args, sel); });
  }

  // The key columns of `batch`.
  const std::vector<const void*>& BatchKeys(const VectorBatch* batch) {
    batch_keys.clear();
    for (int ci : key_cols) batch_keys.push_back(batch->column(ci).data());
    return batch_keys;
  }

  // Stored keys of groups [first, ...).
  std::vector<const void*> StoredKeys(size_t first) const {
    std::vector<const void*> cols;
    for (size_t c = 0; c < key_cols.size(); c++) {
      cols.push_back(static_cast<const char*>(key_store[c].data()) +
                     first * key_widths[c]);
    }
    return cols;
  }

  // Creates the next group from position `pos` of the key columns `cols`:
  // copies its key values. Accumulator rows are added per vector.
  uint32_t NewGroup(const std::vector<const void*>& cols, int pos) {
    StoreKeys(cols, &pos, 1);
    return static_cast<uint32_t>(num_groups++);
  }

  // Appends the keys at positions pos[0..n) of `cols` as the next groups'
  // stored keys: one gather per key column.
  void StoreKeys(const std::vector<const void*>& cols, const int* pos, int n) {
    for (size_t c = 0; c < cols.size(); c++) {
      size_t w = key_widths[c];
      size_t old = key_store[c].size_bytes();
      key_store[c].Resize(old + static_cast<size_t>(n) * w);
      void* dst = static_cast<char*>(key_store[c].data()) + old;
      switch (w) {
        case 1: GatherKeys<uint8_t>(dst, cols[c], pos, n); break;
        case 2: GatherKeys<uint16_t>(dst, cols[c], pos, n); break;
        case 4: GatherKeys<uint32_t>(dst, cols[c], pos, n); break;
        default: GatherKeys<uint64_t>(dst, cols[c], pos, n);
      }
    }
  }

  // ---- direct path ----

  // Ids of the live positions: grp_steps[0] starts them from the first one
  // or two keys (pair_start), each further step adds one key's digit.
  const uint32_t* DirectIds(const std::vector<const void*>& cols, int n,
                            const int* sel) {
    uint32_t* cur = ids_a.get();
    uint32_t* other = ids_b.get();
    const void* first[3] = {cols[0], &digits[0], nullptr};
    if (pair_start) first[1] = cols[1], first[2] = digits.data();
    Run(grp_steps[0], n, cur, first, sel);
    for (size_t c = pair_start ? 2 : 1; c < cols.size(); c++) {
      const void* args[3] = {cols[c], cur, &digits[c]};
      Run(grp_steps[c - (pair_start ? 1 : 0)], n, other, args, sel);
      std::swap(cur, other);
    }
    return cur;
  }

  // Turns the ids of the live positions into group rows, creating groups
  // for unseen ids in lane order; their keys are stored afterwards, in one
  // gather per key column. Returns false at the first id out of span; the
  // groups created before it are kept.
  bool ToRows(const std::vector<const void*>& cols, const uint32_t* ids,
              int n, const int* sel) {
    uint32_t* __restrict__ rows = row_of.data();
    uint32_t* __restrict__ g = groups.get();
    int* __restrict__ fresh = fresh_pos.get();
    int num_fresh = 0;
    uint32_t next = static_cast<uint32_t>(num_groups) + 1;  // row + 1
    auto to_row = [&](int i) __attribute__((always_inline)) {
      uint32_t id = ids[i];
      uint32_t r = rows[id];
      if (__builtin_expect(r == 0, 0)) {
        if (id == slots) return false;
        r = rows[id] = next++;
        fresh[num_fresh++] = i;
      }
      g[i] = r - 1;
      return true;
    };
    bool done = true;
    if (sel) {
      for (int j = 0; j < n && done; j++) done = to_row(sel[j]);
    } else {
      for (int i = 0; i < n && done; i++) done = to_row(i);
    }
    StoreKeys(cols, fresh, num_fresh);
    num_groups += static_cast<size_t>(num_fresh);
    return done;
  }

  // Widens the spans to cover the live keys of `cols` and rebuilds row_of
  // from the stored group keys. Returns false, changing nothing, when the
  // spans would pass the slot bound.
  bool Rebase(const std::vector<const void*>& cols, int n, const int* sel) {
    const uint64_t limit = std::min(
        kMaxDirectSlots,
        std::max(kMinDirectSlots, kSlotsPerGroup * num_groups));
    size_t k = cols.size();
    std::vector<int64_t> lo(k), hi(k), roomy_lo(k), roomy_hi(k);
    for (size_t c = 0; c < k; c++) {
      int64_t mn = std::numeric_limits<int64_t>::max();
      int64_t mx = std::numeric_limits<int64_t>::min();
      for (int j = 0; j < n; j++) {
        int64_t v = KeyAt(cols[c], key_types[c],
                          static_cast<size_t>(sel ? sel[j] : j));
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      const DirectGrpDigit& d = digits[c];
      lo[c] = mn;
      hi[c] = mx;
      roomy_lo[c] = mn;
      roomy_hi[c] = mx;
      if (d.span > 0) {
        // Keep the current span, and give a side that grows the old span
        // again as headroom, within the key type's range.
        __int128 old_lo = d.base, old_hi = old_lo + (d.span - 1);
        auto [tmin, tmax] = KeyTypeRange(key_types[c]);
        lo[c] = static_cast<int64_t>(std::min<__int128>(old_lo, mn));
        hi[c] = static_cast<int64_t>(std::max<__int128>(old_hi, mx));
        roomy_lo[c] = lo[c] < old_lo
                          ? static_cast<int64_t>(std::max<__int128>(
                                tmin, static_cast<__int128>(lo[c]) - d.span))
                          : lo[c];
        roomy_hi[c] = hi[c] > old_hi
                          ? static_cast<int64_t>(std::min<__int128>(
                                tmax, static_cast<__int128>(hi[c]) + d.span))
                          : hi[c];
      }
    }
    // Slot count of the spans [l, h], or 0 when past `limit`.
    auto product = [&](const std::vector<int64_t>& l,
                       const std::vector<int64_t>& h) -> uint64_t {
      uint64_t p = 1;
      for (size_t c = 0; c < k; c++) {
        uint64_t span = static_cast<uint64_t>(h[c]) - static_cast<uint64_t>(l[c]);
        if (span >= limit) return 0;
        p *= span + 1;
        if (p > limit) return 0;
      }
      return p;
    };
    if (product(roomy_lo, roomy_hi) != 0) {
      lo = std::move(roomy_lo);
      hi = std::move(roomy_hi);
    } else if (product(lo, hi) == 0) {
      return false;
    }

    if (slots > 0) rebases++;
    uint64_t stride = 1;
    for (size_t c = 0; c < k; c++) {
      DirectGrpDigit& d = digits[c];
      d.base = lo[c];
      d.span = static_cast<uint64_t>(hi[c]) - static_cast<uint64_t>(lo[c]) + 1;
      d.stride = static_cast<uint32_t>(stride);
      stride *= d.span;
    }
    slots = static_cast<uint32_t>(stride);
    for (DirectGrpDigit& d : digits) d.slots = slots;
    row_of.assign(static_cast<size_t>(slots) + 1, 0);
    const size_t vs = static_cast<size_t>(ctx->vector_size);
    for (size_t first = 0; first < num_groups; first += vs) {
      int m = static_cast<int>(std::min(vs, num_groups - first));
      const uint32_t* ids = DirectIds(StoredKeys(first), m, nullptr);
      for (int r = 0; r < m; r++) {
        row_of[ids[r]] = static_cast<uint32_t>(first) + r + 1;
      }
    }
    return true;
  }

  // Gives every live position of `batch` its group row on the direct path.
  // Returns false when the keys leave the slot bound (no row is assigned
  // then; groups found in this vector so far are kept).
  bool AssignDirect(const VectorBatch* batch, int n, const int* sel) {
    const std::vector<const void*>& cols = BatchKeys(batch);
    for (;;) {
      const uint32_t* ids = DirectIds(cols, n, sel);
      if (ToRows(cols, ids, n, sel)) return true;
      if (!Rebase(cols, n, sel)) return false;
    }
  }

  // ---- hash path ----

  void BindHash() {
    for (size_t c = 0; c < key_cols.size(); c++) {
      std::string name = std::string(c == 0 ? "map_hash_" : "map_rehash_") +
                         KeyTypeName(key_types[c]) + "_col";
      hash_steps.push_back(Bind(name, key_widths[c] + 8));
    }
    hash_a.Allocate(TypeId::kI64, ctx->vector_size);
    hash_b.Allocate(TypeId::kI64, ctx->vector_size);
  }

  const uint64_t* Hashes(const std::vector<const void*>& cols, int n,
                         const int* sel) {
    uint64_t* cur = hash_a.Data<uint64_t>();
    uint64_t* other = hash_b.Data<uint64_t>();
    for (size_t c = 0; c < cols.size(); c++) {
      const void* args[2] = {cols[c], cur};
      Run(hash_steps[c], n, c == 0 ? cur : other, args, sel);
      if (c != 0) std::swap(cur, other);
    }
    return cur;
  }

  bool KeysEqual(const std::vector<const void*>& cols, int pos,
                 size_t g) const {
    for (size_t c = 0; c < cols.size(); c++) {
      const char* a = static_cast<const char*>(cols[c]) +
                      static_cast<size_t>(pos) * key_widths[c];
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

  // Leaves the direct path for good: the hash table starts out holding the
  // groups found so far, so their rows (and emission order) carry over.
  void SwitchToHash() {
    direct = false;
    switched = true;
    switch_groups = num_groups;
    switch_slots = slots;
    std::vector<uint32_t>().swap(row_of);
    BindHash();
    table.Reset(num_groups);
    const size_t vs = static_cast<size_t>(ctx->vector_size);
    for (size_t first = 0; first < num_groups; first += vs) {
      int m = static_cast<int>(std::min(vs, num_groups - first));
      table.Reserve(static_cast<size_t>(m));
      table.ProbeBegin(&probe, Hashes(StoredKeys(first), m, nullptr), nullptr,
                       m);
      // Stored keys are distinct: every full-hash candidate is another key.
      while (int nc = table.ProbeRound(&probe)) {
        for (int c = 0; c < nc; c++) table.Reject(&probe, c);
      }
      for (int j = 0; j < m; j++) {
        uint32_t cand;
        while (!table.InsertMiss(&probe, j, static_cast<uint32_t>(first) + j,
                                 &cand)) {
        }
      }
    }
  }

  // Gives every live position of `batch` its group row through the table.
  void AssignHashed(const VectorBatch* batch, int n, const int* sel) {
    const std::vector<const void*>& cols = BatchKeys(batch);
    const uint64_t* hashes = Hashes(cols, n, sel);
    // Reserve up front: every tuple of the batch could be a new group, and
    // growth must stay off the probe path.
    table.Reserve(static_cast<size_t>(n));
    table.ProbeBegin(&probe, hashes, sel, n);
    while (int nc = table.ProbeRound(&probe)) {
      for (int k = 0; k < nc; k++) {
        int pos = sel ? sel[probe.cand_lane(k)] : probe.cand_lane(k);
        if (KeysEqual(cols, pos, table.EntryValue(probe.cand_entry(k)))) {
          table.Accept(&probe, k);
        } else {
          table.Reject(&probe, k);
        }
      }
    }
    for (int j = 0; j < n; j++) {
      int i = sel ? sel[j] : j;
      uint32_t g = probe.result(j);
      if (g == HashTable::kNone) {
        uint32_t cand = HashTable::kNone;
        for (;;) {
          if (table.InsertMiss(&probe, j, static_cast<uint32_t>(num_groups),
                               &cand)) {
            g = NewGroup(cols, i);
            break;
          }
          uint32_t g2 = table.EntryValue(cand);
          if (KeysEqual(cols, i, g2)) {
            g = g2;
            break;
          }
        }
      }
      groups[i] = g;
    }
  }
};

GroupAggrOp::GroupAggrOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                         std::vector<std::string> group_by,
                         std::vector<AggrSpec> aggrs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      specs_(std::move(aggrs)) {
  AggrState probe(ctx_, child_->schema(), specs_, !group_by_.empty(), "Aggr");
  aggr_internal::BuildAggrSchema(child_->schema(), group_by_, probe, &schema_);
}

GroupAggrOp::~GroupAggrOp() = default;

void GroupAggrOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;
  im.ctx = ctx_;
  im.trace_node = trace_node_;

  im.aggrs = std::make_unique<AggrState>(ctx_, child_->schema(), specs_,
                                         !group_by_.empty(), "Aggr",
                                         trace_node_);
  schema_ = Schema();
  im.key_cols = aggr_internal::BuildAggrSchema(child_->schema(), group_by_,
                                               *im.aggrs, &schema_);
  const Schema& cs = child_->schema();
  im.direct = !im.key_cols.empty();
  for (int ci : im.key_cols) {
    const Field& f = cs.field(ci);
    im.key_types.push_back(f.type);
    im.key_widths.push_back(TypeWidth(f.type));
    im.key_is_str.push_back(f.type == TypeId::kStr && !f.dict.valid());
    im.direct = im.direct && IsIntegerKey(f.type);
  }
  im.key_store.resize(im.key_cols.size());
  im.groups = std::make_unique<uint32_t[]>(ctx_->vector_size);

  if (im.direct) {
    // The first step starts ids from one key, or from two of one type.
    const size_t k = im.key_cols.size();
    const std::string t0 = KeyTypeName(im.key_types[0]);
    im.pair_start = k >= 2 && t0 == KeyTypeName(im.key_types[1]);
    if (im.pair_start) {
      im.grp_steps.push_back(im.Bind(
          "map_directgrp_" + t0 + "_col_" + t0 + "_col",
          2 * im.key_widths[0] + 4));
    } else {
      im.grp_steps.push_back(
          im.Bind("map_directgrp_" + t0 + "_col", im.key_widths[0] + 4));
    }
    for (size_t c = im.pair_start ? 2 : 1; c < k; c++) {
      im.grp_steps.push_back(im.Bind(
          "map_redirectgrp_" + std::string(KeyTypeName(im.key_types[c])) +
              "_col",
          im.key_widths[c] + 8));
    }
    im.digits.resize(im.key_cols.size());
    im.ids_a = std::make_unique<uint32_t[]>(ctx_->vector_size);
    im.ids_b = std::make_unique<uint32_t[]>(ctx_->vector_size);
    im.fresh_pos = std::make_unique<int[]>(ctx_->vector_size);
  } else if (!im.key_cols.empty()) {
    im.BindHash();
    im.table.Reset(0);
  } else {
    // Scalar aggregation: a single group exists even on empty input.
    im.num_groups = 1;
    im.aggrs->Grow(1);
  }
  im.aggrs->TraceUpdates(ctx_, trace_node_);
}

void GroupAggrOp::Build() {
  Impl& im = *impl_;
  while (VectorBatch* batch = child_->Next()) {
    int n = batch->sel_count();
    im.input_tuples += static_cast<uint64_t>(n);
    const int* sel = batch->sel();

    const uint32_t* groups = nullptr;
    if (!im.key_cols.empty()) {
      if (im.direct && !im.AssignDirect(batch, n, sel)) im.SwitchToHash();
      if (!im.direct) im.AssignHashed(batch, n, sel);
      im.aggrs->Grow(im.num_groups);
      groups = im.groups.get();
    }
    im.aggrs->Update(batch, groups);
  }
  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.GetHistogram("aggr.groups")->Record(im.num_groups);
  reg.GetCounter("aggr.input_tuples")->Add(im.input_tuples);
  reg.GetCounter("aggr.rebases")->Add(im.rebases);
  reg.GetCounter("aggr.switches")->Add(im.switched ? 1 : 0);
  reg.GetCounter("aggr.hash.rehashes")->Add(im.table.stats().grows);
  im.built = true;
  im.emit_pos = 0;
  im.out = VectorBatch(schema_, ctx_->vector_size);
}

VectorBatch* GroupAggrOp::Next() {
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

void GroupAggrOp::Close() {
  if (impl_ && !impl_->key_cols.empty()) {
    Impl& im = *impl_;
    if (trace_node_ != nullptr) {
      // The path taken: direct, or hash (from the start, or after a switch
      // at switch_groups groups and switch_slots id slots).
      TraceNode* node = trace_node_;
      node->detail = im.direct ? "direct" : "hash";
      node->AddCounter(im.direct ? "aggr.path.direct" : "aggr.path.hash", 1);
      node->AddCounter("aggr.id_slots", im.switched ? im.switch_slots : im.slots);
      node->AddCounter("aggr.rebases", im.rebases);
      if (im.switched) node->AddCounter("aggr.switch_groups", im.switch_groups);
    }
    if (!im.direct) im.table.PublishStats(trace_node_);
  }
  child_->Close();
}

}  // namespace x100
