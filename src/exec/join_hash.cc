#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/metrics.h"
#include "exec/hash_table.h"
#include "exec/join.h"
#include "exec/join_internal.h"
#include "exec/trace.h"

namespace x100 {

using join_internal::DrainedStore;
using join_internal::GatherByPos;
using join_internal::GatherByRow;

// ---- HashJoinOp -------------------------------------------------------------

namespace {

// Dense-key filter limits (DESIGN.md "Hash join"). The bitmap engages when
// the build key's [min, max] span is at most kDenseBitsPerRow bits per build
// row — 8 B/row, against >= 32 B/row for a hash table at <= 1/2 load — or
// fits the L1-resident floor, whichever is larger.
constexpr uint64_t kDenseBitsPerRow = 64;
constexpr uint64_t kDenseMinBits = 65536;

// Reads key `r` of a single integer key column of `width` bytes as i64.
int64_t KeyAt(const char* col, size_t width, size_t r) {
  if (width == 4) {
    int32_t v;
    std::memcpy(&v, col + r * 4, 4);
    return v;
  }
  int64_t v;
  std::memcpy(&v, col + r * 8, 8);
  return v;
}

}  // namespace

struct HashJoinOp::Impl {
  DrainedStore store;  // build keys first, then build outputs
  size_t num_keys = 0;
  // Shared vectorized table: distinct key -> head build row. Duplicate rows
  // chain through next_dup (head = latest row, so a chain walk visits rows
  // in reverse insertion order).
  HashTable table;
  HashTable::Probe probe;
  std::vector<uint32_t> next_dup;  // per build row; kNone ends the chain
  std::vector<uint64_t> row_hash;
  bool use_table = true;  // false: semi/anti answered by the filter alone

  // Dense-key filter: one bit per value of the build key's domain. Set up in
  // Open when the join has one integer key; engaged after the build drains
  // if the span qualifies.
  const SelectPrimitive* filter_prim = nullptr;
  TraceNode* filter_leaf = nullptr;
  bool filter_on = false;
  std::vector<uint64_t> filter_bits;
  DenseDomain domain;
  std::vector<int> filter_sel;  // per probe batch: positions that passed
  uint64_t filter_probes = 0;
  uint64_t filter_passed = 0;

  // Probe-side hash pipeline.
  struct HashStep {
    const MapPrimitive* prim;
    int col;
    TraceNode* leaf;
  };
  std::vector<HashStep> hash_steps;
  std::vector<int> probe_key_cols;
  std::vector<size_t> probe_key_widths;
  std::vector<bool> key_is_str;
  Vector hash_a, hash_b;

  // Output machinery.
  std::vector<int> probe_out_cols;
  std::vector<size_t> probe_out_widths;
  int num_probe_out = 0;
  std::vector<size_t> build_out_store;  // store column index per build output

  std::vector<int> pend_pos;
  std::vector<int64_t> pend_row;
  size_t pend_consumed = 0;

  VectorBatch* cur_probe = nullptr;
  bool probe_done = false;
  bool built = false;
  VectorBatch out;

  // Registry metrics (hit rate = probe_hits / probe_tuples).
  Histogram* m_build_rows = nullptr;
  Counter* m_probe_tuples = nullptr;
  Counter* m_probe_hits = nullptr;

  bool KeysEqual(const VectorBatch* batch, int pos, size_t row) const {
    for (size_t c = 0; c < num_keys; c++) {
      const char* a =
          static_cast<const char*>(batch->column(probe_key_cols[c]).data()) +
          static_cast<size_t>(pos) * probe_key_widths[c];
      const char* b = store.ColData(c) + row * store.widths[c];
      if (key_is_str[c]) {
        if (std::strcmp(*reinterpret_cast<const char* const*>(a),
                        *reinterpret_cast<const char* const*>(b)) != 0) {
          return false;
        }
      } else if (std::memcmp(a, b, store.widths[c]) != 0) {
        return false;
      }
    }
    return true;
  }

  bool BuildKeysEqual(size_t a, size_t b) const {
    for (size_t c = 0; c < num_keys; c++) {
      const char* pa = store.ColData(c) + a * store.widths[c];
      const char* pb = store.ColData(c) + b * store.widths[c];
      if (key_is_str[c]) {
        if (std::strcmp(*reinterpret_cast<const char* const*>(pa),
                        *reinterpret_cast<const char* const*>(pb)) != 0) {
          return false;
        }
      } else if (std::memcmp(pa, pb, store.widths[c]) != 0) {
        return false;
      }
    }
    return true;
  }

  // Engages the filter when the drained build key's span qualifies. An empty
  // build engages with an empty domain: every probe misses.
  bool TryBuildFilter() {
    if (filter_prim == nullptr) return false;
    const char* col = store.ColData(0);
    size_t w = store.widths[0];
    int64_t lo = 0, hi = -1;
    for (size_t r = 0; r < store.rows; r++) {
      int64_t v = KeyAt(col, w, r);
      if (r == 0 || v < lo) lo = v;
      if (r == 0 || v > hi) hi = v;
    }
    uint64_t span = 0;
    if (store.rows > 0) {
      // hi - lo always fits in u64; the +1 overflows only for a build that
      // holds both INT64_MIN and INT64_MAX.
      uint64_t diff = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      if (__builtin_add_overflow(diff, uint64_t{1}, &span)) return false;
    }
    uint64_t limit = std::max<uint64_t>(kDenseBitsPerRow * store.rows,
                                        kDenseMinBits);
    if (span > limit) return false;
    // span + 1 bits: bit `span` is the zero pad out-of-domain keys land on.
    filter_bits.assign(span / 64 + 1, 0);
    for (size_t r = 0; r < store.rows; r++) {
      uint64_t off = static_cast<uint64_t>(KeyAt(col, w, r)) -
                     static_cast<uint64_t>(lo);
      filter_bits[off >> 6] |= uint64_t{1} << (off & 63);
    }
    domain = DenseDomain{filter_bits.data(), lo, span};
    filter_on = true;
    return true;
  }

  // Runs select_inbitmap over the batch's live lanes; filter_sel receives
  // the positions whose key is in the build domain, in lane order.
  int RunFilter(const VectorBatch* batch, int n, const int* sel) {
    if (filter_sel.size() < static_cast<size_t>(n)) filter_sel.resize(n);
    const void* args[2] = {batch->column(probe_key_cols[0]).data(), &domain};
    int m = TimedCall(filter_leaf, n, [&] {
      return filter_prim->fn(n, filter_sel.data(), args, sel);
    });
    filter_probes += static_cast<uint64_t>(n);
    filter_passed += static_cast<uint64_t>(m);
    return m;
  }
};

HashJoinOp::HashJoinOp(ExecContext* ctx, std::unique_ptr<Operator> probe,
                       std::unique_ptr<Operator> build, JoinSpec spec)
    : ctx_(ctx),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_keys_(std::move(spec.probe_keys)),
      build_keys_(std::move(spec.build_keys)),
      probe_out_(std::move(spec.probe_out)),
      build_out_(std::move(spec.build_out)),
      type_(spec.type) {
  // Keys are checked here, once, rather than per hash candidate: a key pair
  // of different types would otherwise pass whenever no probe happened to
  // produce a candidate, and the dense-key filter compares values, not
  // bytes.
  if (probe_keys_.empty() || probe_keys_.size() != build_keys_.size()) {
    throw std::invalid_argument(
        "HashJoin: needs the same nonzero number of probe and build keys");
  }
  for (size_t c = 0; c < probe_keys_.size(); c++) {
    int pi = probe_->schema().Find(probe_keys_[c]);
    int bi = build_->schema().Find(build_keys_[c]);
    if (pi < 0 || bi < 0) {
      throw std::invalid_argument(
          "HashJoin: unknown " +
          (pi < 0 ? "probe key '" + probe_keys_[c]
                  : "build key '" + build_keys_[c]) +
          "'");
    }
    TypeId pt = probe_->schema().field(pi).type;
    TypeId bt = build_->schema().field(bi).type;
    if (pt != bt) {
      throw std::invalid_argument(
          "HashJoin: probe key '" + probe_keys_[c] + "' is " + TypeName(pt) +
          " but build key '" + build_keys_[c] + "' is " + TypeName(bt));
    }
  }
  if (type_ == JoinType::kSemi || type_ == JoinType::kAnti) {
    X100_CHECK(build_out_.empty());
  }
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

HashJoinOp::~HashJoinOp() = default;

void HashJoinOp::Open() {
  probe_->Open();
  build_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;

  // Refresh output fields (children resolve dictionary bases in Open).
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

  // Store layout: keys then outputs (outputs may repeat keys; simplicity
  // beats the few duplicated bytes).
  std::vector<std::string> store_cols = build_keys_;
  store_cols.insert(store_cols.end(), build_out_.begin(), build_out_.end());
  im.store.Init(build_->schema(), store_cols);
  im.num_keys = build_keys_.size();
  for (size_t i = 0; i < build_out_.size(); i++) {
    im.build_out_store.push_back(im.num_keys + i);
  }

  const Schema& ps = probe_->schema();
  for (size_t c = 0; c < probe_keys_.size(); c++) {
    int ci = ps.Find(probe_keys_[c]);
    X100_CHECK(ci >= 0);
    im.probe_key_cols.push_back(ci);
    im.probe_key_widths.push_back(TypeWidth(ps.field(ci).type));
    // Keys are compared raw; undecoded enum codes only work if both sides
    // share the dictionary object — plans join on plain key columns, so
    // require value (non-code) types or matching str.
    bool is_str = ps.field(ci).type == TypeId::kStr;
    im.key_is_str.push_back(is_str);
    const Field& bf = im.store.schema.field(c);
    X100_CHECK(!ps.field(ci).dict.valid() && !bf.dict.valid());

    const char* tn = ps.field(ci).type == TypeId::kDate
                         ? "i32"
                         : TypeName(ps.field(ci).type);
    std::string name =
        std::string(c == 0 ? "map_hash_" : "map_rehash_") + tn + "_col";
    const MapPrimitive* prim = PrimitiveRegistry::Get().FindMap(name);
    X100_CHECK(prim != nullptr);
    im.hash_steps.push_back(
        {prim, ci,
         PrimitiveLeaf(ctx_, trace_node_, name,
                       TypeWidth(ps.field(ci).type) + 8)});
  }

  // Dense-key filter candidates: one integer key column (i32, date, i64).
  TypeId kt = ps.field(im.probe_key_cols[0]).type;
  if (im.num_keys == 1 &&
      (kt == TypeId::kI32 || kt == TypeId::kDate || kt == TypeId::kI64)) {
    std::string name = kt == TypeId::kI64 ? "select_inbitmap_i64_col"
                                          : "select_inbitmap_i32_col";
    im.filter_prim = PrimitiveRegistry::Get().FindSelect(name);
    X100_CHECK(im.filter_prim != nullptr);
    im.filter_leaf =
        PrimitiveLeaf(ctx_, trace_node_, name, TypeWidth(kt) + sizeof(int));
  }

  for (const std::string& name : probe_out_) {
    int ci = ps.Find(name);
    im.probe_out_cols.push_back(ci);
    im.probe_out_widths.push_back(TypeWidth(ps.field(ci).type));
  }
  im.num_probe_out = static_cast<int>(probe_out_.size());

  im.hash_a.Allocate(TypeId::kI64, ctx_->vector_size);
  im.hash_b.Allocate(TypeId::kI64, ctx_->vector_size);
  im.out = VectorBatch(schema_, ctx_->vector_size);
  MetricsRegistry& reg = MetricsRegistry::Get();
  im.m_build_rows = reg.GetHistogram("join.hash.build_rows");
  im.m_probe_tuples = reg.GetCounter("join.hash.probe_tuples");
  im.m_probe_hits = reg.GetCounter("join.hash.probe_hits");
}

void HashJoinOp::BuildSide() {
  Impl& im = *impl_;
  while (VectorBatch* batch = build_->Next()) {
    im.store.Append(batch);
  }
  im.m_build_rows->Record(im.store.rows);
  im.built = true;
  // A semi/anti join on a dense key is answered by the bitmap alone.
  if (im.TryBuildFilter() &&
      (type_ == JoinType::kSemi || type_ == JoinType::kAnti)) {
    im.use_table = false;
    return;
  }
  // Hash all build rows, then find-or-chain them batch-at-a-time. The build
  // keys go through the probe side's map_hash/map_rehash primitives, so both
  // sides hash every key type alike (narrow signed keys sign-extend). The
  // apply pass runs in row order after each probe pass drains, so duplicate
  // chains form in insertion order regardless of which lanes resolved
  // vectorized and which went through the scalar InsertMiss path.
  size_t chunk = static_cast<size_t>(ctx_->vector_size);
  im.row_hash.resize(im.store.rows);
  std::vector<uint64_t> rehashed(im.num_keys > 1 ? chunk : 0);
  for (size_t base = 0; base < im.store.rows; base += chunk) {
    int n = static_cast<int>(std::min(chunk, im.store.rows - base));
    uint64_t* h = im.row_hash.data() + base;
    for (size_t c = 0; c < im.num_keys; c++) {
      const void* args[2] = {im.store.ColData(c) + base * im.store.widths[c],
                             h};
      if (c == 0) {
        im.hash_steps[c].prim->fn(n, h, args, nullptr);
      } else {
        im.hash_steps[c].prim->fn(n, rehashed.data(), args, nullptr);
        std::copy(rehashed.begin(), rehashed.begin() + n, h);
      }
    }
  }
  im.next_dup.assign(im.store.rows, HashTable::kNone);
  im.table.ResetForBuild(im.store.rows);
  for (size_t base = 0; base < im.store.rows; base += chunk) {
    int n = static_cast<int>(std::min(chunk, im.store.rows - base));
    im.table.Reserve(static_cast<size_t>(n));
    im.table.ProbeBegin(&im.probe, im.row_hash.data() + base, nullptr, n);
    while (int nc = im.table.ProbeRound(&im.probe)) {
      for (int k = 0; k < nc; k++) {
        size_t row = base + static_cast<size_t>(im.probe.cand_lane(k));
        if (im.BuildKeysEqual(row,
                              im.table.EntryValue(im.probe.cand_entry(k)))) {
          im.table.Accept(&im.probe, k);
        } else {
          im.table.Reject(&im.probe, k);
        }
      }
    }
    for (int j = 0; j < n; j++) {
      uint32_t r = static_cast<uint32_t>(base) + static_cast<uint32_t>(j);
      uint32_t e = im.probe.result_entry(j);
      if (e == HashTable::kNone) {
        uint32_t cand = HashTable::kNone;
        for (;;) {
          if (im.table.InsertMiss(&im.probe, j, r, &cand)) break;
          if (im.BuildKeysEqual(r, im.table.EntryValue(cand))) {
            e = cand;
            break;
          }
        }
      }
      if (e != HashTable::kNone) {
        // Same key as the entry's current head: push-front onto the chain.
        // EntryValue is re-read here (not the probe-time result) because an
        // earlier row of this batch may already have moved the head.
        im.next_dup[r] = im.table.EntryValue(e);
        im.table.SetEntryValue(e, r);
      }
    }
  }
}

void HashJoinOp::ProcessProbeBatch(VectorBatch* batch) {
  Impl& im = *impl_;
  int n = batch->sel_count();
  const int* sel = batch->sel();

  // Lanes that go on to the hash table: all live ones, or only the filter's
  // survivors (positions in lane order, so emission can merge against them).
  int pn = n;
  const int* psel = sel;
  if (im.filter_on) {
    pn = im.RunFilter(batch, n, sel);
    psel = im.filter_sel.data();
  }

  uint64_t* cur = im.hash_a.Data<uint64_t>();
  uint64_t* other = im.hash_b.Data<uint64_t>();
  for (size_t s = 0; im.use_table && s < im.hash_steps.size(); s++) {
    Impl::HashStep& hs = im.hash_steps[s];
    const void* args[2] = {batch->column(hs.col).data(), cur};
    void* res = s == 0 ? cur : other;
    TimedCall(hs.leaf, pn, [&] { hs.prim->fn(pn, res, args, psel); });
    if (s != 0) std::swap(cur, other);
  }

  uint64_t hits = 0;
  // Vectorized probe-all: every lane advances per round, candidates come
  // back as a selection vector for key verification; match emission then
  // runs lane-order so output order matches the scalar chain walk.
  if (im.use_table) {
    im.table.ProbeBegin(&im.probe, cur, psel, pn);
    while (int nc = im.table.ProbeRound(&im.probe)) {
      for (int k = 0; k < nc; k++) {
        int pos = psel ? psel[im.probe.cand_lane(k)] : im.probe.cand_lane(k);
        if (im.KeysEqual(batch, pos,
                         im.table.EntryValue(im.probe.cand_entry(k)))) {
          im.table.Accept(&im.probe, k);
        } else {
          im.table.Reject(&im.probe, k);
        }
      }
    }
  }
  // Head build row of probe lane k. Without a table the filter is exact
  // (semi/anti only), so every survivor is a match whose rows go unread.
  auto head_of = [&](int k) {
    return im.use_table ? im.probe.result(k) : uint32_t{0};
  };
  // Emission in lane order. Probe lane k is the k-th survivor; lanes the
  // filter dropped are misses, which only anti and left-outer joins emit, so
  // inner and semi joins walk the survivors alone.
  bool emit_misses =
      type_ == JoinType::kAnti || type_ == JoinType::kLeftOuterDefault;
  int lanes = emit_misses ? n : pn;
  int k = 0;
  for (int j = 0; j < lanes; j++) {
    int i;
    uint32_t head = HashTable::kNone;
    if (emit_misses) {
      i = sel ? sel[j] : j;
      if (k < pn && (psel ? psel[k] : k) == i) head = head_of(k++);
    } else {
      i = psel ? psel[j] : j;
      head = head_of(j);
    }
    if (head != HashTable::kNone) {
      hits++;
      if (type_ == JoinType::kInner || type_ == JoinType::kLeftOuterDefault) {
        for (uint32_t r = head; r != HashTable::kNone; r = im.next_dup[r]) {
          im.pend_pos.push_back(i);
          im.pend_row.push_back(static_cast<int64_t>(r));
        }
      } else if (type_ == JoinType::kSemi) {
        im.pend_pos.push_back(i);
        im.pend_row.push_back(-1);
      }
    } else if (emit_misses) {
      im.pend_pos.push_back(i);
      im.pend_row.push_back(-1);
    }
  }
  im.m_probe_tuples->Add(static_cast<uint64_t>(n));
  im.m_probe_hits->Add(hits);
}

VectorBatch* HashJoinOp::Next() {
  Impl& im = *impl_;
  if (!im.built) BuildSide();
  while (true) {
    size_t avail = im.pend_pos.size() - im.pend_consumed;
    if (avail == 0) {
      im.pend_pos.clear();
      im.pend_row.clear();
      im.pend_consumed = 0;
      if (im.probe_done) return nullptr;
      im.cur_probe = probe_->Next();
      if (im.cur_probe == nullptr) {
        im.probe_done = true;
        return nullptr;
      }
      ProcessProbeBatch(im.cur_probe);
      continue;
    }
    int n = static_cast<int>(
        std::min<size_t>(avail, static_cast<size_t>(ctx_->vector_size)));
    const int* pos = im.pend_pos.data() + im.pend_consumed;
    const int64_t* rows = im.pend_row.data() + im.pend_consumed;
    for (int c = 0; c < im.num_probe_out; c++) {
      GatherByPos(im.out.column(c).data(),
                  im.cur_probe->column(im.probe_out_cols[c]).data(),
                  im.probe_out_widths[c], pos, n);
    }
    for (size_t c = 0; c < im.build_out_store.size(); c++) {
      size_t sc = im.build_out_store[c];
      const Field& f = im.store.schema.field(static_cast<int>(sc));
      GatherByRow(im.out.column(im.num_probe_out + static_cast<int>(c)).data(),
                  im.store.ColData(sc), im.store.widths[sc], rows, n,
                  f.type == TypeId::kStr, "");
    }
    im.pend_consumed += static_cast<size_t>(n);
    im.out.set_count(n);
    im.out.ClearSel();
    return &im.out;
  }
}

void HashJoinOp::Close() {
  if (impl_) {
    Impl& im = *impl_;
    if (im.filter_on && trace_node_ != nullptr) {
      trace_node_->AddCounter("filter.span_bits", im.domain.span);
      trace_node_->AddCounter("filter.probes", im.filter_probes);
      trace_node_->AddCounter("filter.passed", im.filter_passed);
    }
    if (im.use_table) im.table.PublishStats(trace_node_);
  }
  probe_->Close();
  build_->Close();
}

// ---- CartProdOp -------------------------------------------------------------

struct CartProdOp::Impl {
  DrainedStore store;
  std::vector<int> probe_out_cols;
  std::vector<size_t> probe_out_widths;

  VectorBatch* cur_probe = nullptr;
  int probe_j = 0;       // index into the probe batch's live positions
  int64_t build_r = 0;   // next build row to pair with the current tuple
  bool done = false;
  VectorBatch out;
};

CartProdOp::CartProdOp(ExecContext* ctx, std::unique_ptr<Operator> probe,
                       std::unique_ptr<Operator> build,
                       std::vector<std::string> probe_out,
                       std::vector<std::string> build_out)
    : ctx_(ctx),
      probe_(std::move(probe)),
      build_(std::move(build)),
      probe_out_(std::move(probe_out)),
      build_out_(std::move(build_out)) {
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

CartProdOp::~CartProdOp() = default;

void CartProdOp::Open() {
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
  im.store.Init(build_->schema(), build_out_);
  while (VectorBatch* batch = build_->Next()) im.store.Append(batch);
  const Schema& ps = probe_->schema();
  for (const std::string& name : probe_out_) {
    int ci = ps.Find(name);
    im.probe_out_cols.push_back(ci);
    im.probe_out_widths.push_back(TypeWidth(ps.field(ci).type));
  }
  im.out = VectorBatch(schema_, ctx_->vector_size);
}

VectorBatch* CartProdOp::Next() {
  Impl& im = *impl_;
  if (im.done) return nullptr;
  int emitted = 0;
  int cap = ctx_->vector_size;
  while (emitted < cap) {
    if (im.cur_probe == nullptr) {
      im.cur_probe = probe_->Next();
      im.probe_j = 0;
      im.build_r = 0;
      if (im.cur_probe == nullptr) {
        im.done = true;
        break;
      }
    }
    int pn = im.cur_probe->sel_count();
    const int* psel = im.cur_probe->sel();
    if (im.probe_j >= pn || im.store.rows == 0) {
      im.cur_probe = nullptr;
      if (im.store.rows == 0) {
        im.done = true;
        break;
      }
      continue;
    }
    int pos = psel ? psel[im.probe_j] : im.probe_j;
    while (im.build_r < static_cast<int64_t>(im.store.rows) && emitted < cap) {
      for (size_t c = 0; c < im.probe_out_cols.size(); c++) {
        std::memcpy(static_cast<char*>(im.out.column(static_cast<int>(c)).data()) +
                        static_cast<size_t>(emitted) * im.probe_out_widths[c],
                    static_cast<const char*>(
                        im.cur_probe->column(im.probe_out_cols[c]).data()) +
                        static_cast<size_t>(pos) * im.probe_out_widths[c],
                    im.probe_out_widths[c]);
      }
      for (size_t c = 0; c < im.store.src_cols.size(); c++) {
        int oc = static_cast<int>(im.probe_out_cols.size() + c);
        std::memcpy(static_cast<char*>(im.out.column(oc).data()) +
                        static_cast<size_t>(emitted) * im.store.widths[c],
                    im.store.ColData(c) +
                        static_cast<size_t>(im.build_r) * im.store.widths[c],
                    im.store.widths[c]);
      }
      im.build_r++;
      emitted++;
    }
    if (im.build_r >= static_cast<int64_t>(im.store.rows)) {
      im.probe_j++;
      im.build_r = 0;
    }
  }
  if (emitted == 0) return nullptr;
  im.out.set_count(emitted);
  im.out.ClearSel();
  return &im.out;
}

void CartProdOp::Close() {
  probe_->Close();
  build_->Close();
}

}  // namespace x100
