#ifndef X100_EXEC_OPERATOR_H_
#define X100_EXEC_OPERATOR_H_

#include "common/cancel.h"
#include "common/config.h"
#include "common/profiling.h"
#include "vector/batch.h"

namespace x100 {

struct BmSource;
struct SnapshotSet;

/// Per-query execution settings shared by all operators of a plan.
struct ExecContext {
  /// Tuples per vector (§5.1.1; Figure 10 sweeps this).
  int vector_size = kDefaultVectorSize;
  /// Let the binder fuse arithmetic map-primitive chains into single
  /// compound kernels (§4.2: "dynamic compilation of compound primitives
  /// ... mandated by an optimizer"). Fused plans are bit-identical to the
  /// interpreted chain, so this defaults on via the strict-parsed X100_FUSE
  /// env knob; paper-trace benchmarks that want Table 5's single-primitive
  /// pipeline pin it off, and QueryRequest.fuse overrides it per query.
  bool fuse_compound_primitives = EnvFuse() != 0;
  /// When set (and `trace` is not), the plan traces into the Profiler's own
  /// tree, whose flattened view is the Table 5 trace.
  Profiler* profiler = nullptr;
  /// When set, the plan factories (exec/plan.h) wrap every operator in an
  /// InstrumentedOperator recording per-plan-node calls/batches/tuples/cycles,
  /// with a leaf per bound primitive step — the EXPLAIN ANALYZE tree.
  QueryTrace* trace = nullptr;
  /// Intra-query parallelism budget (the paper's Xchg route, §6). Plans
  /// built through plan::PartialAggr (tpch Q1/Q3/Q6/Q14) run their
  /// aggregating pipeline through an ExchangeOp with this many workers when
  /// > 1; 1 keeps every plan single-threaded. Wired to env X100_THREADS by
  /// the runner and benches (EnvParallelism()).
  int num_threads = 1;
  /// Base-table storage (exec/bm_scan.h). When set, plan::Scan reads the
  /// tables of its catalog from ColumnBM blocks instead of RAM fragments;
  /// null reads RAM. Exchange workers inherit it with the rest of the
  /// context.
  const BmSource* bm_source = nullptr;
  /// Per-query cancellation/deadline token (common/cancel.h), owned by the
  /// submitter (QueryService session, runner, test). Source operators and
  /// Exchange poll it once per vector via CheckCancel(); null disables
  /// cancellation entirely (standalone plans pay one pointer test).
  CancelToken* cancel = nullptr;
  /// Pinned MVCC snapshots (storage/snapshot.h), keyed by table name, when
  /// the query runs against a store with concurrent writers. Scans that find
  /// their table here take every bound — fragment rows, delta high-water
  /// mark, deletion list — from the snapshot instead of the live table, so
  /// in-flight appends/deletes/merges are invisible. Null (or a missing
  /// table entry) reads the live table directly, the single-writer default.
  const SnapshotSet* snapshots = nullptr;

  /// The tree this plan traces into: `trace`, else the profiler's; null
  /// when the plan is not traced.
  QueryTrace* TraceTree() const {
    if (trace != nullptr) return trace;
    return profiler != nullptr ? profiler->tree() : nullptr;
  }

  /// Per-vector cancellation poll: throws QueryCancelled when the token is
  /// tripped or its deadline passed. No-op without a token.
  void CheckCancel() const {
    if (cancel != nullptr) cancel->Check();
  }
};

/// X100 algebra operator: classical Volcano Open/Next/Close, but Next()
/// returns a vector batch instead of a tuple (§4.1). The returned batch is
/// owned by the operator and valid until the next call to Next() or Close().
class Operator {
 public:
  virtual ~Operator() = default;

  /// Output Dataflow shape; valid after construction.
  virtual const Schema& schema() const = 0;

  virtual void Open() = 0;
  virtual VectorBatch* Next() = 0;
  virtual void Close() {}
};

}  // namespace x100

#endif  // X100_EXEC_OPERATOR_H_
