#include "exec/materialize.h"

#include "exec/row_util.h"
#include "exec/trace.h"

namespace x100 {

std::unique_ptr<Table> MaterializeToTable(Operator* root, std::string name) {
  const Schema& s = root->schema();
  std::vector<Table::ColumnSpec> specs;
  for (const Field& f : s.fields()) {
    specs.push_back({f.name, f.logical_type(), false});
  }
  auto table = std::make_unique<Table>(std::move(name), std::move(specs));
  int64_t rows = 0;
  while (VectorBatch* batch = root->Next()) {
    int n = batch->sel_count();
    const int* sel = batch->sel();
    rows += n;
    // Columns append independently (each adds exactly n values per batch):
    // plain fixed-width columns take a vectorized raw path, dictionary /
    // string columns decode per position.
    for (int c = 0; c < s.num_fields(); c++) {
      const Field& f = batch->schema().field(c);
      Column* col = table->load_column(c);
      if (!f.dict.valid() && f.type != TypeId::kStr) {
        const void* data = batch->column(c).data();
        if (sel == nullptr) {
          col->AppendRaw(data, n);
        } else {
          col->AppendGather(data, sel, n);
        }
      } else if (f.type == TypeId::kStr && !f.dict.valid()) {
        const char* const* ptrs =
            static_cast<const char* const*>(batch->column(c).data());
        for (int j = 0; j < n; j++) {
          col->AppendStr(ptrs[sel ? sel[j] : j]);
        }
      } else if (f.dict.valid() && f.dict.value_type == TypeId::kStr) {
        const char* const* base = static_cast<const char* const*>(f.dict.base);
        const void* codes = batch->column(c).data();
        for (int j = 0; j < n; j++) {
          int pos = sel ? sel[j] : j;
          int code = f.type == TypeId::kU8
                         ? static_cast<const uint8_t*>(codes)[pos]
                         : static_cast<const uint16_t*>(codes)[pos];
          col->AppendStr(base[code]);
        }
      } else {
        for (int j = 0; j < n; j++) {
          col->AppendValue(BatchValueAt(*batch, c, sel ? sel[j] : j));
        }
      }
    }
  }
  (void)rows;
  table->Freeze();
  return table;
}

std::unique_ptr<Table> RunPlan(std::unique_ptr<Operator> root, std::string name) {
  // Tag the trace root with the plan name so multi-plan queries (materialized
  // subqueries) render as a sequence of named trees.
  if (auto* io = dynamic_cast<InstrumentedOperator*>(root.get())) {
    io->node()->plan_name = name;
  }
  root->Open();
  auto t = MaterializeToTable(root.get(), std::move(name));
  root->Close();
  return t;
}

ArrayOp::ArrayOp(ExecContext* ctx, std::vector<int64_t> dims)
    : ctx_(ctx), dims_(std::move(dims)) {
  X100_CHECK(!dims_.empty());
  for (size_t d = 0; d < dims_.size(); d++) {
    schema_.Add("i" + std::to_string(d), TypeId::kI64);
  }
}

void ArrayOp::Open() {
  total_ = 1;
  for (int64_t d : dims_) total_ *= d;
  pos_ = 0;
  out_ = VectorBatch(schema_, ctx_->vector_size);
}

VectorBatch* ArrayOp::Next() {
  if (pos_ >= total_) return nullptr;
  int n = static_cast<int>(std::min<int64_t>(ctx_->vector_size, total_ - pos_));
  for (int r = 0; r < n; r++) {
    // Column-major: the first dimension varies fastest.
    int64_t rem = pos_ + r;
    for (size_t d = 0; d < dims_.size(); d++) {
      static_cast<int64_t*>(out_.column(static_cast<int>(d)).data())[r] =
          rem % dims_[d];
      rem /= dims_[d];
    }
  }
  pos_ += n;
  out_.set_count(n);
  out_.ClearSel();
  return &out_;
}

}  // namespace x100
