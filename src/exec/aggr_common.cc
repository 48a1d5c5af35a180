#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "exec/aggr_internal.h"
#include "exec/trace.h"

namespace x100 {

namespace aggr_internal {

namespace {

const char* OpName(AggrOp op) {
  switch (op) {
    case AggrOp::kSum:   return "sum";
    case AggrOp::kMin:   return "min";
    case AggrOp::kMax:   return "max";
    case AggrOp::kCount: return "count";
  }
  return "?";
}

size_t AlignUp(size_t v, size_t a) { return (v + a - 1) / a * a; }

AggrSlotKind SlotKind(AggrOp op, TypeId input) {
  using K = AggrSlotKind;
  static constexpr K kKinds[3][3] = {{K::kSumI32, K::kSumI64, K::kSumF64},
                                     {K::kMinI32, K::kMinI64, K::kMinF64},
                                     {K::kMaxI32, K::kMaxI64, K::kMaxF64}};
  if (op == AggrOp::kCount) return K::kCount;
  int o = op == AggrOp::kSum ? 0 : op == AggrOp::kMin ? 1 : 2;
  int t = input == TypeId::kI32 ? 0 : input == TypeId::kI64 ? 1 : 2;
  X100_CHECK(t < 2 || input == TypeId::kF64);
  return kKinds[o][t];
}

// Writes op's initial accumulator value of type T at `dst`: 0 for sum and
// count, the top of T's range for min, the bottom for max.
template <typename T>
void WriteInit(AggrOp op, void* dst) {
  using L = std::numeric_limits<T>;
  T top = L::has_infinity ? L::infinity() : L::max();
  T bottom = L::has_infinity ? -L::infinity() : L::min();
  T v = op == AggrOp::kMin ? top : op == AggrOp::kMax ? bottom : T{0};
  std::memcpy(dst, &v, sizeof(v));
}

// Copies slot values of width sizeof(T) from rows [0, n) of `base` into the
// dense column `dst`.
template <typename T>
void GatherSlot(char* dst, const char* base, size_t stride, size_t offset,
                int n) {
  T* __restrict__ out = reinterpret_cast<T*>(dst);
  for (int r = 0; r < n; r++) {
    std::memcpy(&out[r], base + static_cast<size_t>(r) * stride + offset,
                sizeof(T));
  }
}

// Copies the W-byte row `init` into rows [0, n) of `dst`.
template <size_t W>
void FillRows(char* dst, size_t n, const void* init) {
  for (size_t r = 0; r < n; r++) std::memcpy(dst + r * W, init, W);
}

}  // namespace

struct AggrState::Aggr {
  AggrOp op;
  std::string output;
  int input_idx = -1;  // index into inputs_, -1 for count
  TypeId state_type = TypeId::kI64;
  size_t in_width = 0;
  size_t block = 0;
  size_t offset = 0;  // byte offset of the slot in its block's rows
};

struct AggrState::Block {
  std::vector<size_t> members;  // aggregate indices, in slot order
  size_t stride = 0;            // bytes per group row
  Buffer state;                 // rows_ rows
  Buffer init;                  // one initialized row
  const AggrPrimitive* prim = nullptr;
  std::string name;                // prim's registered name
  size_t bytes_per_tuple = 0;      // input widths plus the group id
  TraceNode* leaf = nullptr;
  std::vector<AggrRowSlot> slots;  // row pass only (more than one member)
  std::vector<const void*> cols;   // row pass: the slots' input columns
  AggrRowLayout layout;
};

AggrState::AggrState(ExecContext* ctx, const Schema& child,
                     const std::vector<AggrSpec>& specs, bool grouped,
                     const std::string& label, TraceNode* trace_parent) {
  // Binding copies everything it needs (constants, arg refs); the widened
  // expression trees can be dropped once the evaluator is constructed.
  std::vector<ExprPtr> widened;
  std::vector<const Expr*> ptrs;
  for (const AggrSpec& s : specs) {
    Aggr a;
    a.op = s.op;
    a.output = s.output;
    if (s.input != nullptr) {
      widened.push_back(exprs::Call1("widen", s.input->Clone()));
      a.input_idx = static_cast<int>(ptrs.size());
      ptrs.push_back(widened.back().get());
    }
    aggrs_.push_back(std::move(a));
  }
  if (!ptrs.empty()) {
    inputs_ = std::make_unique<MultiExprEvaluator>(ctx, child, ptrs, label,
                                                   trace_parent);
  }

  // Typed primitives: they validate every (op, input type) and give the
  // accumulator types, also for aggregates that end up in a row block.
  std::vector<const AggrPrimitive*> prims;
  std::vector<std::string> names;
  std::vector<AggrSlotKind> kinds;
  for (Aggr& a : aggrs_) {
    TypeId in = TypeId::kI64;
    std::string name = "aggr_count";
    if (a.input_idx >= 0) {
      in = inputs_->type(a.input_idx);
      a.in_width = TypeWidth(in);
      name = std::string("aggr_") + OpName(a.op) + "_" + TypeName(in) + "_col";
    }
    const AggrPrimitive* prim = PrimitiveRegistry::Get().FindAggr(name);
    if (prim == nullptr) {
      throw std::invalid_argument("aggregate '" + a.output +
                                  "': no primitive '" + name + "'");
    }
    a.state_type = prim->state_type;
    kinds.push_back(SlotKind(a.op, in));
    prims.push_back(prim);
    names.push_back(name);
  }

  // The row pass pays when one of its passes updates several slots of a
  // tuple: two aggregates of one kind, or a count riding along with another
  // aggregate. Aggregates of k distinct kinds without a count (Q21's min and
  // max) would take k single-slot passes, each slower than the typed column
  // loop, so they keep a column each.
  std::set<AggrSlotKind> distinct(kinds.begin(), kinds.end());
  bool overlaps = distinct.size() < kinds.size() ||
                  (distinct.count(AggrSlotKind::kCount) > 0 && kinds.size() > 1);
  bool rows = grouped && ctx->fuse_compound_primitives && overlaps;
  for (size_t i = 0; i < aggrs_.size(); i++) {
    if (i == 0 || !rows) blocks_.emplace_back();
    blocks_.back().members.push_back(i);
  }
  if (rows) {
    // Slots of one kind side by side (8-byte slots first, so none needs
    // padding): aggr_rows updates each such run in one unrolled pass.
    auto key = [&](size_t m) {
      return std::make_pair(-static_cast<int>(TypeWidth(aggrs_[m].state_type)),
                            static_cast<int>(kinds[m]));
    };
    std::stable_sort(blocks_[0].members.begin(), blocks_[0].members.end(),
                     [&](size_t x, size_t y) { return key(x) < key(y); });
  }
  for (size_t bi = 0; bi < blocks_.size(); bi++) {
    Block& b = blocks_[bi];
    for (size_t m : b.members) {
      Aggr& a = aggrs_[m];
      size_t w = TypeWidth(a.state_type);
      a.block = bi;
      a.offset = AlignUp(b.stride, w);
      b.stride = a.offset + w;
      b.bytes_per_tuple += a.in_width;
    }
    // A lone slot is a dense column; rows of several keep 8-byte alignment.
    if (b.members.size() > 1) b.stride = AlignUp(b.stride, 8);
    b.init.Resize(b.stride);
    std::memset(b.init.data(), 0, b.stride);
    for (size_t m : b.members) {
      const Aggr& a = aggrs_[m];
      char* dst = static_cast<char*>(b.init.data()) + a.offset;
      switch (a.state_type) {
        case TypeId::kF64: WriteInit<double>(a.op, dst); break;
        case TypeId::kI64: WriteInit<int64_t>(a.op, dst); break;
        case TypeId::kI32: WriteInit<int32_t>(a.op, dst); break;
        default: X100_CHECK(false);
      }
    }
    if (b.members.size() == 1) {
      b.prim = prims[b.members[0]];
      b.name = names[b.members[0]];
    } else {
      b.name = "aggr_rows";
      b.prim = PrimitiveRegistry::Get().FindAggr(b.name);
      for (size_t m : b.members) {
        b.slots.push_back({kinds[m], static_cast<uint32_t>(aggrs_[m].offset)});
      }
      b.cols.resize(b.slots.size());
      b.layout.slots = b.slots.data();
      b.layout.cols = b.cols.data();
      b.layout.k = static_cast<int>(b.slots.size());
      b.layout.stride = b.stride;
    }
    b.bytes_per_tuple += grouped ? sizeof(uint32_t) : 0;
  }
}

void AggrState::TraceUpdates(ExecContext* ctx, TraceNode* trace_parent) {
  for (Block& b : blocks_) {
    b.leaf = PrimitiveLeaf(ctx, trace_parent, b.name, b.bytes_per_tuple);
  }
}

AggrState::~AggrState() = default;

void AggrState::AddFields(Schema* schema) const {
  for (const Aggr& a : aggrs_) schema->Add(a.output, a.state_type);
}

void AggrState::Grow(size_t n) {
  if (n <= rows_) return;
  for (Block& b : blocks_) {
    b.state.Resize(n * b.stride);
    char* s = static_cast<char*>(b.state.data()) + rows_ * b.stride;
    // Groups arrive one to a few at a time (Aggr, OrdAggr), so the
    // common strides copy with fixed-size stores, not a memcpy call per row.
    switch (b.stride) {
      case 4: FillRows<4>(s, n - rows_, b.init.data()); break;
      case 8: FillRows<8>(s, n - rows_, b.init.data()); break;
      default:
        for (size_t r = 0; r < n - rows_; r++) {
          std::memcpy(s + r * b.stride, b.init.data(), b.stride);
        }
    }
  }
  rows_ = n;
}

void AggrState::Update(VectorBatch* batch, const uint32_t* groups) {
  if (inputs_) inputs_->Eval(batch);
  auto input = [&](const Aggr& a) -> const void* {
    if (a.input_idx < 0) return nullptr;
    MultiExprEvaluator::Out r = inputs_->Result(a.input_idx, batch);
    X100_CHECK(r.is_col);
    return r.data;
  };
  int n = batch->sel_count();
  const int* sel = batch->sel();
  for (Block& b : blocks_) {
    const void* col;
    if (b.slots.empty()) {
      col = input(aggrs_[b.members[0]]);
    } else {
      for (size_t s = 0; s < b.slots.size(); s++) {
        b.cols[s] = input(aggrs_[b.members[s]]);
      }
      col = &b.layout;
    }
    TimedCall(b.leaf, n,
              [&] { b.prim->fn(n, b.state.data(), groups, col, sel); });
  }
}

void AggrState::EmitRange(size_t first, int n, VectorBatch* out,
                          int first_col) const {
  for (size_t i = 0; i < aggrs_.size(); i++) {
    const Aggr& a = aggrs_[i];
    const Block& b = blocks_[a.block];
    size_t w = TypeWidth(a.state_type);
    char* dst = static_cast<char*>(
        out->column(first_col + static_cast<int>(i)).data());
    const char* src = static_cast<const char*>(b.state.data()) + first * b.stride;
    if (b.stride == w) {
      std::memcpy(dst, src, static_cast<size_t>(n) * w);
    } else if (w == 8) {
      GatherSlot<uint64_t>(dst, src, b.stride, a.offset, n);
    } else {
      GatherSlot<uint32_t>(dst, src, b.stride, a.offset, n);
    }
  }
}

void AggrState::DropFront(size_t n) {
  size_t rem = rows_ - n;
  for (Block& b : blocks_) {
    char* s = static_cast<char*>(b.state.data());
    std::memmove(s, s + n * b.stride, rem * b.stride);
    b.state.Resize(rem * b.stride);
  }
  rows_ = rem;
}

std::vector<int> BuildAggrSchema(const Schema& child,
                                 const std::vector<std::string>& group_by,
                                 const AggrState& aggrs, Schema* schema) {
  std::vector<int> key_cols;
  for (const std::string& g : group_by) {
    int ci = child.Find(g);
    if (ci < 0) {
      throw std::invalid_argument("no group-by column '" + g + "' in " +
                                  child.ToString());
    }
    key_cols.push_back(ci);
    schema->Add(child.field(ci));
  }
  aggrs.AddFields(schema);
  return key_cols;
}

}  // namespace aggr_internal

std::vector<AggrSpec> CloneAggrSpecs(const std::vector<AggrSpec>& specs) {
  std::vector<AggrSpec> out;
  out.reserve(specs.size());
  for (const AggrSpec& s : specs) {
    out.push_back({s.op, s.input ? s.input->Clone() : nullptr, s.output});
  }
  return out;
}

std::vector<AggrSpec> MergeAggrSpecs(const std::vector<AggrSpec>& specs) {
  std::vector<AggrSpec> out;
  out.reserve(specs.size());
  for (const AggrSpec& s : specs) {
    AggrOp op = (s.op == AggrOp::kMin || s.op == AggrOp::kMax) ? s.op
                                                               : AggrOp::kSum;
    out.push_back({op, Col(s.output), s.output});
  }
  return out;
}

}  // namespace x100
