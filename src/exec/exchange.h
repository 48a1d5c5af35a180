#ifndef X100_EXEC_EXCHANGE_H_
#define X100_EXEC_EXCHANGE_H_

// Volcano Xchg: the intra-query parallelism operator the paper's conclusion
// names as the route to parallel X100 (§6). N cloned child pipelines run on
// shared-pool worker threads, each draining its own (typically
// morsel-restricted) subtree; their batches flow through a bounded queue
// into the single-threaded consumer above. Operators below and above the
// exchange stay oblivious to threading — primitives are untouched.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "exec/trace.h"

namespace x100 {

/// Builds worker `worker`'s pipeline (of `num_workers`). Called once per
/// worker at ExchangeOp construction, on the constructing thread, with a
/// per-worker ExecContext (serial; when the plan is traced, wired to a
/// private QueryTrace). Factories typically pass {worker, num_workers} as
/// the ScanSpec morsel so the pipelines read disjoint table shares.
using WorkerPlanFn = std::function<std::unique_ptr<Operator>(
    ExecContext* worker_ctx, int worker, int num_workers)>;

/// Exchange operator: merges N parallel producer pipelines into one
/// single-threaded consumer stream, in arbitrary batch order.
///
/// Threading contract: Open() opens all worker pipelines serially on the
/// calling thread (dictionary-ref refreshes and trace-node creation are not
/// thread-safe) and only then starts the drain tasks; workers run nothing
/// but Next() on their own pipeline. Batches are deep-compacted copies, so
/// a worker can overwrite its pipeline's batch while the consumer still
/// holds the previous one. Close() cancels, joins all workers, closes the
/// pipelines serially, and — when tracing — merges the per-worker trace
/// subtrees node-wise into one subtree under the exchange's node.
class ExchangeOp : public Operator {
 public:
  /// `queue_capacity` bounds the merge queue (backpressure); 0 picks
  /// 2*num_workers (min 4).
  ExchangeOp(ExecContext* ctx, int num_workers, WorkerPlanFn factory,
             int queue_capacity = 0);
  ~ExchangeOp() override;

  const Schema& schema() const override { return pipelines_[0]->schema(); }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override;

  /// Wired by plan::Exchange when tracing: the node the merged per-worker
  /// subtree is grafted under at Close().
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

  int num_workers() const { return static_cast<int>(pipelines_.size()); }

 private:
  struct Shared;  // queue + worker rendezvous state, see exchange.cc

  /// Cancels and joins the workers; idempotent. After it returns no worker
  /// thread touches this operator's pipelines again.
  void Shutdown();
  void MergeWorkerTraces();

  ExecContext* ctx_;
  int queue_capacity_;
  std::vector<std::unique_ptr<ExecContext>> worker_ctxs_;
  std::vector<std::unique_ptr<QueryTrace>> worker_traces_;
  std::vector<std::unique_ptr<Operator>> pipelines_;
  std::shared_ptr<Shared> shared_;  // kept alive by in-flight workers
  VectorBatch current_;             // batch handed to the consumer
  TraceNode* trace_node_ = nullptr;
  bool open_ = false;
  bool traces_merged_ = false;
};

}  // namespace x100

#endif  // X100_EXEC_EXCHANGE_H_
