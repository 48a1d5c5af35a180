#ifndef X100_EXEC_TRACE_H_
#define X100_EXEC_TRACE_H_

// Operator tracing. When the context has a trace tree (ExecContext::TraceTree:
// an EXPLAIN ANALYZE QueryTrace, or a Profiler's own tree), the plan-builder
// factories (exec/plan.h) wrap every operator they create in an
// InstrumentedOperator that accounts per-plan-node Next() calls, batches,
// tuples and cycles into a TraceNode, and the operator hangs one leaf per
// bound primitive step under that node (PrimitiveLeaf). The tree model
// itself lives in common/profiling.h.

#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace x100 {

/// Decorator recording a wrapped operator's activity into a TraceNode.
/// Transparent to the pipeline: forwards schema/Open/Next/Close.
class InstrumentedOperator : public Operator {
 public:
  InstrumentedOperator(std::unique_ptr<Operator> inner, TraceNode* node)
      : inner_(std::move(inner)), node_(node) {}

  const Schema& schema() const override { return inner_->schema(); }

  void Open() override {
    node_->open_calls++;
    ScopedCounters sc(node_);
    inner_->Open();
  }

  VectorBatch* Next() override {
    node_->next_calls++;
    VectorBatch* batch;
    {
      ScopedCounters sc(node_);
      batch = inner_->Next();
    }
    if (batch != nullptr) {
      node_->batches++;
      node_->tuples += static_cast<uint64_t>(batch->sel_count());
    }
    return batch;
  }

  void Close() override {
    ScopedCounters sc(node_);
    inner_->Close();
  }

  TraceNode* node() const { return node_; }
  Operator* inner() const { return inner_.get(); }

 private:
  std::unique_ptr<Operator> inner_;
  TraceNode* node_;
};

/// The leaf of primitive `name`, bound by the operator traced at `parent`.
/// Null when the plan is not traced or `parent` is null (the operator is
/// not traced, or the bind is a constructor's probe).
TraceNode* PrimitiveLeaf(ExecContext* ctx, TraceNode* parent, std::string name,
                         uint64_t bytes_per_tuple, std::string detail = "");

/// Plan-factory hook: wraps `op` when tracing is on, else returns it as-is.
/// `children` are the child operators *before* they were moved into `op`
/// (their pointers stay valid — `op` owns them); instrumented ones become the
/// new node's children in the trace tree.
std::unique_ptr<Operator> MaybeTrace(ExecContext* ctx,
                                     std::unique_ptr<Operator> op,
                                     std::string label, std::string detail,
                                     std::vector<const Operator*> children);

}  // namespace x100

#endif  // X100_EXEC_TRACE_H_
