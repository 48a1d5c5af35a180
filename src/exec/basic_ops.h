#ifndef X100_EXEC_BASIC_OPS_H_
#define X100_EXEC_BASIC_OPS_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/bound_expr.h"
#include "exec/operator.h"

namespace x100 {

/// Select(Dataflow, Exp<bool>): computes a selection vector over each input
/// batch and attaches it; data vectors are passed through untouched (§4.1.1).
class SelectOp : public Operator {
 public:
  SelectOp(ExecContext* ctx, std::unique_ptr<Operator> child, ExprPtr pred);

  const Schema& schema() const override { return child_->schema(); }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override { child_->Close(); }

  /// Trace hook (set by the plan factory): the predicate's primitive steps
  /// hang their leaves under this node.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

 private:
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  ExprPtr pred_;
  std::unique_ptr<PredicateEvaluator> eval_;
  TraceNode* trace_node_ = nullptr;
};

/// Project(Dataflow, List<Exp>): pure expression calculation (§4.1.2) — the
/// output Dataflow consists exactly of the named expressions; the selection
/// vector of the input propagates. Bare column references pass through as
/// zero-copy views (including undecoded enum-code columns with their
/// dictionaries).
class ProjectOp : public Operator {
 public:
  ProjectOp(ExecContext* ctx, std::unique_ptr<Operator> child,
            std::vector<NamedExpr> exprs);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override { child_->Close(); }

  /// Trace hook (set by the plan factory): the projection's primitive steps
  /// hang their leaves under this node.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

 private:
  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::vector<NamedExpr> exprs_;
  Schema schema_;
  std::unique_ptr<MultiExprEvaluator> eval_;
  VectorBatch out_;
  std::vector<Vector> const_bufs_;  // broadcast constants
  TraceNode* trace_node_ = nullptr;
};

}  // namespace x100

#endif  // X100_EXEC_BASIC_OPS_H_
