#ifndef X100_EXEC_PLAN_H_
#define X100_EXEC_PLAN_H_

// Plan-builder DSL: thin factories so hand-translated query plans read like
// the X100 algebra of Figure 9. Everything returns std::unique_ptr<Operator>.
//
// When the context has a trace tree (ExecContext::TraceTree), each factory
// wraps its operator in an InstrumentedOperator (exec/trace.h), so plans
// built through this DSL come out pre-wired for EXPLAIN ANALYZE and the
// Profiler. Operator options travel in spec structs
// (ScanSpec, JoinSpec) so factories stay single-signature and call sites use
// designated initializers instead of positional argument lists.
//
// Where a plan reads from and how many threads run it are properties of
// this layer, not of each plan: plan::Scan serves base tables from ColumnBM
// when ExecContext::bm_source is set, and plan::PartialAggr builds the
// serial or the Exchange form of an aggregating pipeline from one factory.

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggr.h"
#include "exec/basic_ops.h"
#include "exec/bm_scan.h"
#include "exec/exchange.h"
#include "exec/join.h"
#include "exec/materialize.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/trace.h"
#include "storage/catalog.h"

namespace x100::plan {

using OpPtr = std::unique_ptr<Operator>;

/// Wraps `op` in an InstrumentedOperator when tracing (MaybeTrace). An
/// operator that binds primitives or publishes its own counters at Close()
/// (it has set_trace_node) is also handed the new trace node.
template <typename Op>
OpPtr Traced(ExecContext* ctx, std::unique_ptr<Op> op, std::string label,
             std::string detail = "",
             std::vector<const Operator*> children = {}) {
  Op* raw = op.get();
  OpPtr wrapped = MaybeTrace(ctx, std::move(op), std::move(label),
                             std::move(detail), std::move(children));
  if constexpr (requires(Op* o) { o->set_trace_node(nullptr); }) {
    if (ctx->TraceTree() != nullptr) {
      raw->set_trace_node(
          static_cast<InstrumentedOperator*>(wrapped.get())->node());
    }
  }
  return wrapped;
}

/// Scan trace detail for a morsel share: " morsel w/n", or "" for a whole
/// table.
inline std::string MorselDetail(ScanSpec::Morsel m) {
  if (m.num_workers <= 1) return "";
  return " morsel " + std::to_string(m.worker) + "/" +
         std::to_string(m.num_workers);
}

/// ColumnBM block scan configured by a BmScanSpec (columns + compression,
/// morsel share, readahead — see exec/bm_scan.h). When tracing, the scan's
/// prefetch.* / pool.* counters land on this node at Close().
inline OpPtr BmScan(ExecContext* ctx, ColumnBm* bm, const Table& t,
                    BmScanSpec spec) {
  std::string detail = t.name();
  if (spec.compress) {
    detail += spec.codec ? " " + std::string(Codec::Name(*spec.codec)) : " cmp";
  }
  if (bm->disk_backed()) detail += " disk";
  detail += MorselDetail(spec.morsel);
  auto op = std::make_unique<BmScanOp>(ctx, bm, t, std::move(spec));
  return Traced(ctx, std::move(op), "BmScan", std::move(detail));
}

/// Table scan configured by a ScanSpec (columns + optional summary-index
/// range, #rowId emission, and morsel share — see exec/scan.h). When
/// ctx->bm_source is set and `t` is one of its catalog's tables, the scan
/// reads ColumnBM blocks (BmScan) instead of RAM fragments. BmScan has no
/// summary index, so it drops `spec.range`; that is exact because a plan's
/// Select always applies the exact predicate.
inline OpPtr Scan(ExecContext* ctx, const Table& t, ScanSpec spec) {
  const BmSource* src = ctx->bm_source;
  if (src != nullptr && src->catalog->Find(t.name()) == &t) {
    if (!spec.rowid.empty()) {
      throw std::invalid_argument("Scan: ColumnBM scans of '" + t.name() +
                                  "' cannot emit #rowId");
    }
    return BmScan(ctx, src->bm, t,
                  {.cols = std::move(spec.cols),
                   .compress = src->compress,
                   .codec = src->codec,
                   .morsel = spec.morsel});
  }
  std::string detail = t.name();
  if (spec.range) detail += " range:" + spec.range->col;
  if (!spec.rowid.empty()) detail += " +rowid";
  detail += MorselDetail(spec.morsel);
  auto op = std::make_unique<ScanOp>(ctx, t, std::move(spec));
  return Traced(ctx, std::move(op), "Scan", std::move(detail));
}

/// Convenience: full-table scan of `cols`.
inline OpPtr Scan(ExecContext* ctx, const Table& t,
                  std::vector<std::string> cols) {
  return Scan(ctx, t, ScanSpec{.cols = std::move(cols)});
}

inline OpPtr Select(ExecContext* ctx, OpPtr child, ExprPtr pred) {
  const Operator* c = child.get();
  auto op = std::make_unique<SelectOp>(ctx, std::move(child), std::move(pred));
  return Traced(ctx, std::move(op), "Select", "", {c});
}

inline OpPtr Project(ExecContext* ctx, OpPtr child, std::vector<NamedExpr> e) {
  const Operator* c = child.get();
  auto op = std::make_unique<ProjectOp>(ctx, std::move(child), std::move(e));
  return Traced(ctx, std::move(op), "Project", "", {c});
}

/// Grouped (or, with no group columns, scalar) aggregation: direct ids
/// while the keys' spans are small, hashing past them (exec/aggr.h). The
/// trace node's detail names the path taken.
inline OpPtr Aggr(ExecContext* ctx, OpPtr child,
                  std::vector<std::string> group_by,
                  std::vector<AggrSpec> aggrs) {
  const Operator* c = child.get();
  auto op = std::make_unique<GroupAggrOp>(ctx, std::move(child),
                                          std::move(group_by),
                                          std::move(aggrs));
  return Traced(ctx, std::move(op), "Aggr", "", {c});
}

inline OpPtr OrdAggr(ExecContext* ctx, OpPtr child,
                     std::vector<std::string> group_by,
                     std::vector<AggrSpec> aggrs) {
  const Operator* c = child.get();
  auto op = std::make_unique<OrdAggrOp>(ctx, std::move(child),
                                        std::move(group_by), std::move(aggrs));
  return Traced(ctx, std::move(op), "OrdAggr", "", {c});
}

/// Grouped aggregation over rows that come from `source` in scan order
/// (`child` is a Scan of `source` under Select/Project only, and the single
/// group column is `source`'s column of that name). Picks OrdAggr when
/// ScanIsNonDecreasing proves the rows arrive clustered on the group column,
/// and Aggr over the same specs otherwise. Both emit groups in first
/// encounter order and accumulate each group in input order, so the result
/// is bit-identical either way; only the cost differs. When tracing, the
/// chosen node carries the check's cost as cluster_check.cycles.
inline OpPtr ClusteredAggr(ExecContext* ctx, OpPtr child, const Table& source,
                           std::vector<std::string> group_by,
                           std::vector<AggrSpec> aggrs) {
  uint64_t t0 = ReadCycleCounter();
  bool clustered = group_by.size() == 1 &&
                   ScanIsNonDecreasing(ctx, source, group_by[0]);
  uint64_t check_cycles = ReadCycleCounter() - t0;
  OpPtr op = clustered ? OrdAggr(ctx, std::move(child), std::move(group_by),
                                 std::move(aggrs))
                       : Aggr(ctx, std::move(child), std::move(group_by),
                              std::move(aggrs));
  if (ctx->TraceTree() != nullptr) {
    static_cast<InstrumentedOperator*>(op.get())->node()->AddCounter(
        "cluster_check.cycles", check_cycles);
  }
  return op;
}

/// Equi-hash-join configured by a JoinSpec (keys, outputs, type — see
/// exec/join.h).
inline OpPtr Join(ExecContext* ctx, OpPtr probe, OpPtr build, JoinSpec spec) {
  const Operator* p = probe.get();
  const Operator* b = build.get();
  const char* label = spec.type == JoinType::kSemi   ? "SemiJoin"
                      : spec.type == JoinType::kAnti ? "AntiJoin"
                                                     : "HashJoin";
  auto op = std::make_unique<HashJoinOp>(ctx, std::move(probe),
                                         std::move(build), std::move(spec));
  return Traced(ctx, std::move(op), label, "", {p, b});
}

inline OpPtr SemiJoin(ExecContext* ctx, OpPtr probe, OpPtr build,
                      JoinSpec spec) {
  spec.type = JoinType::kSemi;
  return Join(ctx, std::move(probe), std::move(build), std::move(spec));
}

inline OpPtr AntiJoin(ExecContext* ctx, OpPtr probe, OpPtr build,
                      JoinSpec spec) {
  spec.type = JoinType::kAnti;
  return Join(ctx, std::move(probe), std::move(build), std::move(spec));
}

inline OpPtr Fetch1Join(ExecContext* ctx, OpPtr child, const Table& target,
                        std::string rowid_col,
                        std::vector<std::pair<std::string, std::string>> fetch) {
  const Operator* c = child.get();
  auto op = std::make_unique<Fetch1JoinOp>(ctx, std::move(child), target,
                                           std::move(rowid_col),
                                           std::move(fetch));
  return Traced(ctx, std::move(op), "Fetch1Join", target.name(), {c});
}

inline OpPtr CartProd(ExecContext* ctx, OpPtr probe, OpPtr build,
                      std::vector<std::string> probe_out,
                      std::vector<std::string> build_out) {
  const Operator* p = probe.get();
  const Operator* b = build.get();
  auto op = std::make_unique<CartProdOp>(ctx, std::move(probe),
                                         std::move(build), std::move(probe_out),
                                         std::move(build_out));
  return Traced(ctx, std::move(op), "CartProd", "", {p, b});
}

inline OpPtr TopN(ExecContext* ctx, OpPtr child, std::vector<OrdKey> keys,
                  int64_t n) {
  const Operator* c = child.get();
  auto op = std::make_unique<TopNOp>(ctx, std::move(child), std::move(keys), n);
  return Traced(ctx, std::move(op), "TopN", std::to_string(n), {c});
}

inline OpPtr Order(ExecContext* ctx, OpPtr child, std::vector<OrdKey> keys) {
  const Operator* c = child.get();
  auto op = std::make_unique<OrderOp>(ctx, std::move(child), std::move(keys));
  return Traced(ctx, std::move(op), "Order", "", {c});
}

/// Xchg (§6): runs `num_workers` pipelines built by `factory` on pool
/// threads and merges their batches. When tracing, the per-worker subtrees
/// are aggregated into one subtree under this node at Close().
inline OpPtr Exchange(ExecContext* ctx, int num_workers, WorkerPlanFn factory,
                      int queue_capacity = 0) {
  auto op = std::make_unique<ExchangeOp>(ctx, num_workers, std::move(factory),
                                         queue_capacity);
  return Traced(ctx, std::move(op), "Exchange",
                "workers=" + std::to_string(num_workers));
}

/// Builds the pipeline that scans one morsel (a ScanSpec share) under `ctx`.
using MorselPlanFn = std::function<OpPtr(ExecContext*, ScanSpec::Morsel)>;

/// One plan at any thread count (Xchg, §6). `pipeline` scans a morsel and
/// ends in a partial aggregation by `groups` with `aggrs`. At
/// ctx->num_threads <= 1 the result is that pipeline over the whole table.
/// Otherwise ctx->num_threads copies run under an Exchange, one morsel
/// each, and an Aggr over MergeAggrSpecs(aggrs) merges their partials.
inline OpPtr PartialAggr(ExecContext* ctx, std::vector<std::string> groups,
                         const std::vector<AggrSpec>& aggrs,
                         const MorselPlanFn& pipeline) {
  if (ctx->num_threads <= 1) return pipeline(ctx, {});
  OpPtr op = Exchange(ctx, ctx->num_threads,
                      [&pipeline](ExecContext* wctx, int w, int n) {
                        return pipeline(wctx, {w, n});
                      });
  return Aggr(ctx, std::move(op), std::move(groups), MergeAggrSpecs(aggrs));
}

}  // namespace x100::plan

#endif  // X100_EXEC_PLAN_H_
