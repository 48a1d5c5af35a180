#include <cstring>

#include "exec/aggr_internal.h"
#include "exec/trace.h"

namespace x100 {

using aggr_internal::AggrState;

namespace {

// Boundary primitives: flags[j] |= (key at live position j differs from the
// key at live position j-1). The predecessor of the first live position is
// `prev`, the open group's key carried over from the previous vector.
template <typename T>
void MarkBoundaries(int n, const void* col, const int* sel, const void* prev,
                    uint8_t* __restrict__ flags) {
  const T* __restrict__ v = static_cast<const T*>(col);
  T last = *static_cast<const T*>(prev);
  if (sel) {
    for (int j = 0; j < n; j++) {
      T cur = v[sel[j]];
      flags[j] |= static_cast<uint8_t>(cur != last);
      last = cur;
    }
  } else {
    flags[0] |= static_cast<uint8_t>(v[0] != last);
    for (int i = 1; i < n; i++) {
      flags[i] |= static_cast<uint8_t>(v[i] != v[i - 1]);
    }
  }
}

void MarkBoundariesStr(int n, const void* col, const int* sel,
                       const void* prev, uint8_t* __restrict__ flags) {
  const char* const* v = static_cast<const char* const*>(col);
  const char* last = *static_cast<const char* const*>(prev);
  for (int j = 0; j < n; j++) {
    const char* cur = v[sel ? sel[j] : j];
    flags[j] |= static_cast<uint8_t>(cur != last && std::strcmp(cur, last) != 0);
    last = cur;
  }
}

// Key gather: appends col[starts[k]] for k < n to `dst`.
template <typename T>
void GatherKeys(int n, const void* col, const int* starts, void* dst) {
  const T* __restrict__ v = static_cast<const T*>(col);
  T* __restrict__ out = static_cast<T*>(dst);
  for (int k = 0; k < n; k++) out[k] = v[starts[k]];
}

using BoundaryFn = void (*)(int, const void*, const int*, const void*,
                            uint8_t*);
using GatherFn = void (*)(int, const void*, const int*, void*);

}  // namespace

// Ordered aggregation (§4.1.2): all members of a group arrive adjacently, so
// a group is complete as soon as the key changes. Per input vector:
//   1. boundary flags: one typed compare primitive per key column, against
//      the predecessor live position (the open group's key for the first);
//   2. a prefix sum over the flags gives every live position its group slot;
//   3. the new groups' keys are gathered in one pass per key column;
//   4. the aggregates are updated over the whole vector by the step shared
//      with Aggr.
// Slot layout: [finished groups not yet emitted..., open group]. Emission
// drops finished groups, so the operator retains at most 2 x vector_size
// groups however many it produces.
struct OrdAggrOp::Impl {
  std::unique_ptr<AggrState> aggrs;

  std::vector<int> key_cols;
  std::vector<size_t> key_widths;
  std::vector<BoundaryFn> mark_fns;
  std::vector<GatherFn> gather_fns;
  std::vector<Buffer> key_store;  // per key column: one value per slot

  size_t slots = 0;        // used slots: pending finished + the open group
  bool have_group = false;  // the last slot is a group still receiving input
  bool input_done = false;
  size_t produced = 0;      // groups emitted so far
  size_t max_retained = 0;  // high-water mark of `slots`

  std::unique_ptr<uint8_t[]> flags;
  std::unique_ptr<int[]> starts;
  std::unique_ptr<uint32_t[]> groups;
  VectorBatch out;

  size_t finished() const { return have_group ? slots - 1 : slots; }

  void Consume(VectorBatch* batch) {
    int n = batch->sel_count();
    if (n == 0) return;
    const int* sel = batch->sel();

    std::memset(flags.get(), 0, static_cast<size_t>(n));
    for (size_t c = 0; c < key_cols.size(); c++) {
      // Without an open group the first flag is forced below, so any
      // readable predecessor will do; the live key itself is one.
      const char* data =
          static_cast<const char*>(batch->column(key_cols[c]).data());
      const void* prev =
          have_group ? static_cast<const char*>(key_store[c].data()) +
                           (slots - 1) * key_widths[c]
                     : data + static_cast<size_t>(sel ? sel[0] : 0) *
                                  key_widths[c];
      mark_fns[c](n, data, sel, prev, flags.get());
    }
    if (!have_group) flags[0] = 1;

    // Prefix sum: slot of each live position; starts = first position of
    // every new group. `g` starts one below the first new slot (wrapping
    // from 0 is fine: flags[0] is set then).
    uint32_t g = static_cast<uint32_t>(slots) - 1;
    int k = 0;
    for (int j = 0; j < n; j++) {
      int i = sel ? sel[j] : j;
      g += flags[j];
      groups[i] = g;
      starts[k] = i;
      k += flags[j];
    }

    for (size_t c = 0; c < key_cols.size(); c++) {
      size_t w = key_widths[c];
      key_store[c].Resize((slots + k) * w);
      gather_fns[c](k, batch->column(key_cols[c]).data(), starts.get(),
                    static_cast<char*>(key_store[c].data()) + slots * w);
    }
    slots += static_cast<size_t>(k);
    have_group = true;
    max_retained = std::max(max_retained, slots);
    aggrs->Grow(slots);
    aggrs->Update(batch, groups.get());
  }

  // Copies the first `n` slots into `out`, then shifts the rest down.
  void Emit(int n) {
    size_t rem = slots - static_cast<size_t>(n);
    for (size_t c = 0; c < key_cols.size(); c++) {
      size_t w = key_widths[c];
      char* src = static_cast<char*>(key_store[c].data());
      std::memcpy(out.column(static_cast<int>(c)).data(), src,
                  static_cast<size_t>(n) * w);
      std::memmove(src, src + static_cast<size_t>(n) * w, rem * w);
      key_store[c].Resize(rem * w);
    }
    aggrs->EmitRange(0, n, &out, static_cast<int>(key_cols.size()));
    aggrs->DropFront(static_cast<size_t>(n));
    slots = rem;
    produced += static_cast<size_t>(n);
    out.set_count(n);
    out.ClearSel();
  }
};

OrdAggrOp::OrdAggrOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                     std::vector<std::string> group_by,
                     std::vector<AggrSpec> aggrs)
    : ctx_(ctx),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      specs_(std::move(aggrs)) {
  X100_CHECK(!group_by_.empty());
  AggrState probe(ctx_, child_->schema(), specs_, true, "OrdAggr");
  aggr_internal::BuildAggrSchema(child_->schema(), group_by_, probe, &schema_);
}

OrdAggrOp::~OrdAggrOp() = default;

void OrdAggrOp::Open() {
  child_->Open();
  impl_ = std::make_unique<Impl>();
  Impl& im = *impl_;

  im.aggrs = std::make_unique<AggrState>(ctx_, child_->schema(), specs_, true,
                                         "OrdAggr", trace_node_);
  im.aggrs->TraceUpdates(ctx_, trace_node_);
  schema_ = Schema();
  im.key_cols = aggr_internal::BuildAggrSchema(child_->schema(), group_by_,
                                               *im.aggrs, &schema_);
  const Schema& cs = child_->schema();
  for (int ci : im.key_cols) {
    const Field& f = cs.field(ci);
    size_t w = TypeWidth(f.type);
    im.key_widths.push_back(w);
    // Keys compare by bit pattern (as Aggr's memcmp does), except plain
    // strings, which compare by content.
    if (f.type == TypeId::kStr && !f.dict.valid()) {
      im.mark_fns.push_back(&MarkBoundariesStr);
    } else if (w == 1) {
      im.mark_fns.push_back(&MarkBoundaries<uint8_t>);
    } else if (w == 2) {
      im.mark_fns.push_back(&MarkBoundaries<uint16_t>);
    } else if (w == 4) {
      im.mark_fns.push_back(&MarkBoundaries<uint32_t>);
    } else {
      X100_CHECK(w == 8);
      im.mark_fns.push_back(&MarkBoundaries<uint64_t>);
    }
    im.gather_fns.push_back(w == 1   ? &GatherKeys<uint8_t>
                            : w == 2 ? &GatherKeys<uint16_t>
                            : w == 4 ? &GatherKeys<uint32_t>
                                     : &GatherKeys<uint64_t>);
  }
  im.key_store.resize(im.key_cols.size());
  size_t vs = static_cast<size_t>(ctx_->vector_size);
  im.flags = std::make_unique<uint8_t[]>(vs);
  im.starts = std::make_unique<int[]>(vs);
  im.groups = std::make_unique<uint32_t[]>(vs);
  im.out = VectorBatch(schema_, ctx_->vector_size);
}

VectorBatch* OrdAggrOp::Next() {
  Impl& im = *impl_;
  size_t vs = static_cast<size_t>(ctx_->vector_size);
  // Consume input until a full output vector of groups is finished (or EOF).
  // Before each input vector at most vector_size slots are in use (fewer
  // than vector_size finished plus the open group), and a vector adds at
  // most vector_size, so the slots never exceed 2 x vector_size.
  while (!im.input_done && im.finished() < vs) {
    VectorBatch* batch = child_->Next();
    if (batch == nullptr) {
      im.input_done = true;
      im.have_group = false;  // EOF closes the open group
      break;
    }
    im.Consume(batch);
  }
  size_t n = std::min(vs, im.finished());
  if (n == 0) return nullptr;
  im.Emit(static_cast<int>(n));
  return &im.out;
}

void OrdAggrOp::Close() {
  if (impl_ && trace_node_ != nullptr) {
    trace_node_->AddCounter("ord.groups", impl_->produced);
    trace_node_->AddCounter("ord.max_retained", impl_->max_retained);
  }
  child_->Close();
}

}  // namespace x100
