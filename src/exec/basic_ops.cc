#include "exec/basic_ops.h"

#include <cstring>

namespace x100 {

// ---- SelectOp ---------------------------------------------------------------

SelectOp::SelectOp(ExecContext* ctx, std::unique_ptr<Operator> child, ExprPtr pred)
    : ctx_(ctx), child_(std::move(child)), pred_(std::move(pred)) {
  // Bind once now so a malformed predicate fails at construction (dictionary
  // bases may still be unresolved; the Open()-time bind is authoritative).
  PredicateEvaluator probe(ctx_, child_->schema(), *pred_, "Select");
}

void SelectOp::Open() {
  child_->Open();
  eval_ = std::make_unique<PredicateEvaluator>(ctx_, child_->schema(), *pred_,
                                               "Select", trace_node_);
}

VectorBatch* SelectOp::Next() {
  while (VectorBatch* batch = child_->Next()) {
    int k = eval_->Eval(batch, batch->mutable_sel()->data());
    batch->ActivateSel(k);
    if (k == 0) continue;  // nothing qualified; pull the next vector
    return batch;
  }
  return nullptr;
}

// ---- ProjectOp --------------------------------------------------------------

ProjectOp::ProjectOp(ExecContext* ctx, std::unique_ptr<Operator> child,
                     std::vector<NamedExpr> exprs)
    : ctx_(ctx), child_(std::move(child)), exprs_(std::move(exprs)) {
  // Bind once against the child schema to learn output types (dictionary
  // bases may still be unresolved; the Open()-time bind is authoritative).
  std::vector<const Expr*> ptrs;
  for (const NamedExpr& ne : exprs_) ptrs.push_back(ne.expr.get());
  MultiExprEvaluator probe(ctx_, child_->schema(), ptrs, "Project");
  for (size_t i = 0; i < exprs_.size(); i++) {
    Field f;
    f.name = exprs_[i].name;
    f.type = probe.type(static_cast<int>(i));
    f.dict = probe.dict(static_cast<int>(i));
    schema_.Add(f);
  }
}

void ProjectOp::Open() {
  child_->Open();
  std::vector<const Expr*> ptrs;
  for (const NamedExpr& ne : exprs_) ptrs.push_back(ne.expr.get());
  eval_ = std::make_unique<MultiExprEvaluator>(ctx_, child_->schema(), ptrs,
                                               "Project", trace_node_);
  // Refresh dictionary refs now that the child has resolved them.
  for (int i = 0; i < schema_.num_fields(); i++) {
    const_cast<Field*>(&schema_.field(i))->dict = eval_->dict(i);
  }
  out_ = VectorBatch(schema_, ctx_->vector_size);
  const_bufs_.clear();
  const_bufs_.resize(exprs_.size());
}

VectorBatch* ProjectOp::Next() {
  VectorBatch* batch = child_->Next();
  if (batch == nullptr) return nullptr;
  eval_->Eval(batch);
  for (int i = 0; i < schema_.num_fields(); i++) {
    MultiExprEvaluator::Out r = eval_->Result(i, batch);
    if (r.is_col) {
      out_.column(i).SetView(schema_.field(i).type, r.data, batch->count());
    } else {
      // Broadcast a constant across the (selected) positions.
      Vector& buf = const_bufs_[i];
      if (buf.capacity() == 0) buf.Allocate(schema_.field(i).type, ctx_->vector_size);
      size_t w = TypeWidth(schema_.field(i).type);
      char* dst = static_cast<char*>(buf.data());
      const int* sel = batch->sel();
      int n = batch->sel_count();
      if (sel) {
        for (int j = 0; j < n; j++) {
          std::memcpy(dst + static_cast<size_t>(sel[j]) * w, r.data, w);
        }
      } else {
        for (int j = 0; j < n; j++) {
          std::memcpy(dst + static_cast<size_t>(j) * w, r.data, w);
        }
      }
      out_.column(i).SetView(schema_.field(i).type, buf.data(), batch->count());
    }
  }
  out_.set_count(batch->count());
  if (batch->sel_active()) {
    std::memcpy(out_.mutable_sel()->data(), batch->sel(),
                sizeof(int) * static_cast<size_t>(batch->sel_count()));
    out_.ActivateSel(batch->sel_count());
  } else {
    out_.ClearSel();
  }
  return &out_;
}

}  // namespace x100
