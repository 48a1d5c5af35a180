#include <algorithm>

#include "exec/aggr_internal.h"

namespace x100 {

using aggr_internal::AggrState;

// Direct aggregation (§4.1.2): group columns with small bit-domains index the
// groups directly — no hash table at all. For Q1 this is map_directgrp over
// (l_returnflag, l_linestatus) into a 2^16 domain, exactly the Table 5 trace.
// The operator loop (the DirectAggr row of Table 5) maps each id to a dense
// accumulator row, numbered in first-seen order, so the accumulators take one
// row per present group rather than one per domain value. Groups are drained
// in id order, with values reconstructed from the id (the id *is* the
// concatenated bit representation).
struct DirectAggrOp::Impl {
  std::unique_ptr<AggrState> aggrs;

  std::vector<int> key_cols;
  std::vector<size_t> key_widths;
  const MapPrimitive* grp_prim = nullptr;
  PrimitiveStats* grp_stats = nullptr;
  size_t grp_bytes_per_tuple = 0;

  std::vector<uint32_t> row_of;  // per id: its row + 1, 0 while unseen
  std::vector<uint32_t> ids;     // per row: its id
  std::unique_ptr<uint32_t[]> groups;

  bool built = false;
  std::vector<uint32_t> order;  // rows in ascending id order
  size_t emit_pos = 0;
  VectorBatch out;
};

namespace {

// Replaces the id at each live position of `groups` with its row, giving new
// ids the next row (`row_of[id]` holds row + 1, 0 while unseen).
void ToRows(int n, const int* sel, uint32_t* __restrict__ groups,
            uint32_t* __restrict__ row_of, std::vector<uint32_t>* ids) {
  auto to_row = [&](int i) __attribute__((always_inline)) {
    uint32_t id = groups[i];
    uint32_t r = row_of[id];
    if (__builtin_expect(r == 0, 0)) {
      ids->push_back(id);
      r = row_of[id] = static_cast<uint32_t>(ids->size());
    }
    groups[i] = r - 1;
  };
  if (sel) {
    for (int j = 0; j < n; j++) to_row(sel[j]);
  } else {
    for (int i = 0; i < n; i++) to_row(i);
  }
}

}  // namespace

DirectAggrOp::DirectAggrOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                           std::vector<std::string> group_by,
                           std::vector<AggrSpec> aggrs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      specs_(std::move(aggrs)) {
  X100_CHECK(group_by_.size() >= 1 && group_by_.size() <= 2);
  AggrState probe(ctx_, child_->schema(), specs_, true, "DirectAggr");
  aggr_internal::BuildAggrSchema(child_->schema(), group_by_, probe, &schema_);
}

DirectAggrOp::~DirectAggrOp() = default;

void DirectAggrOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;

  im.aggrs = std::make_unique<AggrState>(ctx_, child_->schema(), specs_, true,
                                         "DirectAggr", trace_node_);
  schema_ = Schema();
  im.key_cols = aggr_internal::BuildAggrSchema(child_->schema(), group_by_,
                                               *im.aggrs, &schema_);
  const Schema& cs = child_->schema();
  std::string name = "map_directgrp";
  im.grp_bytes_per_tuple = sizeof(uint32_t);
  for (int ci : im.key_cols) {
    TypeId t = cs.field(ci).type;
    X100_CHECK(TypeWidth(t) <= 2);
    X100_CHECK(im.key_cols.size() == 1 || TypeWidth(t) == 1);
    im.key_widths.push_back(TypeWidth(t));
    name += std::string("_") + TypeName(t) + "_col";
    im.grp_bytes_per_tuple += TypeWidth(t);
  }
  im.grp_prim = PrimitiveRegistry::Get().FindMap(name);
  if (im.grp_prim == nullptr) {
    std::fprintf(stderr, "bind error: no primitive '%s'\n", name.c_str());
    X100_CHECK(false);
  }
  im.grp_stats = ctx_->profiler ? ctx_->profiler->GetStats(name) : nullptr;

  size_t domain = im.key_cols.size() == 2
                      ? 1u << 16
                      : (im.key_widths[0] == 1 ? 1u << 8 : 1u << 16);
  im.row_of.assign(domain, 0);
  im.groups = std::make_unique<uint32_t[]>(ctx_->vector_size);
}

void DirectAggrOp::Build() {
  Impl& im = *impl_;
  PrimitiveStats* op_stats =
      ctx_->profiler ? ctx_->profiler->GetStats("DirectAggr") : nullptr;
  uint32_t* groups = im.groups.get();
  while (VectorBatch* batch = child_->Next()) {
    int n = batch->sel_count();
    const int* sel = batch->sel();

    const void* args[2];
    for (size_t c = 0; c < im.key_cols.size(); c++) {
      args[c] = batch->column(im.key_cols[c]).data();
    }
    if (im.grp_stats) {
      ScopedCycles cyc(im.grp_stats);
      im.grp_prim->fn(n, groups, args, sel);
      im.grp_stats->calls++;
      im.grp_stats->tuples += static_cast<uint64_t>(n);
      im.grp_stats->bytes += static_cast<uint64_t>(n) * im.grp_bytes_per_tuple;
    } else {
      im.grp_prim->fn(n, groups, args, sel);
    }

    uint64_t t0 = op_stats ? ReadCycleCounter() : 0;
    ToRows(n, sel, groups, im.row_of.data(), &im.ids);
    im.aggrs->Grow(im.ids.size());
    if (op_stats) {
      op_stats->calls++;
      op_stats->tuples += static_cast<uint64_t>(n);
      op_stats->cycles += ReadCycleCounter() - t0;
    }

    im.aggrs->Update(batch, groups);
  }
  im.order.resize(im.ids.size());
  for (uint32_t r = 0; r < im.order.size(); r++) im.order[r] = r;
  std::sort(im.order.begin(), im.order.end(),
            [&](uint32_t x, uint32_t y) { return im.ids[x] < im.ids[y]; });
  im.built = true;
  im.out = VectorBatch(schema_, ctx_->vector_size);
}

VectorBatch* DirectAggrOp::Next() {
  Impl& im = *impl_;
  if (!im.built) Build();
  if (im.emit_pos >= im.order.size()) return nullptr;

  int n = static_cast<int>(std::min<size_t>(
      ctx_->vector_size, im.order.size() - im.emit_pos));
  const uint32_t* rows = im.order.data() + im.emit_pos;
  for (int r = 0; r < n; r++) {
    uint32_t gid = im.ids[rows[r]];
    // Reconstruct group-key values from the id's bit layout.
    if (im.key_cols.size() == 2) {
      static_cast<uint8_t*>(im.out.column(0).data())[r] =
          static_cast<uint8_t>(gid >> 8);
      static_cast<uint8_t*>(im.out.column(1).data())[r] =
          static_cast<uint8_t>(gid & 0xFF);
    } else if (im.key_widths[0] == 1) {
      static_cast<uint8_t*>(im.out.column(0).data())[r] =
          static_cast<uint8_t>(gid);
    } else {
      static_cast<uint16_t*>(im.out.column(0).data())[r] =
          static_cast<uint16_t>(gid);
    }
  }
  im.aggrs->EmitIds(rows, n, &im.out, static_cast<int>(im.key_cols.size()));
  im.out.set_count(n);
  im.out.ClearSel();
  im.emit_pos += static_cast<size_t>(n);
  return &im.out;
}

}  // namespace x100
