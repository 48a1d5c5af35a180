#ifndef X100_EXEC_AGGR_H_
#define X100_EXEC_AGGR_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/bound_expr.h"
#include "exec/operator.h"

namespace x100 {

/// Aggregate function of an AggrExp. AVG is not a physical aggregate: plans
/// compute sum and count and divide in a Project, exactly as Figure 9 does.
enum class AggrOp { kSum, kMin, kMax, kCount };

/// One aggregate output column: op applied to an input expression.
struct AggrSpec {
  AggrOp op;
  ExprPtr input;  // null for kCount
  std::string output;
};

inline AggrSpec Sum(std::string out, ExprPtr e) {
  return {AggrOp::kSum, std::move(e), std::move(out)};
}
inline AggrSpec Min(std::string out, ExprPtr e) {
  return {AggrOp::kMin, std::move(e), std::move(out)};
}
inline AggrSpec Max(std::string out, ExprPtr e) {
  return {AggrOp::kMax, std::move(e), std::move(out)};
}
inline AggrSpec CountAll(std::string out) {
  return {AggrOp::kCount, nullptr, std::move(out)};
}

/// Deep copy (Expr trees cloned) — lets every exchange worker bind its own
/// instance of one spec list.
std::vector<AggrSpec> CloneAggrSpecs(const std::vector<AggrSpec>& specs);

/// Specs that combine the per-worker partials `specs` produce, for the merge
/// aggregation above an exchange: Sum and Count partials are summed (a count
/// of counts is a sum; the partial count column is already i64), Min/Max
/// keep their op. Every merge input is the partial's output column.
std::vector<AggrSpec> MergeAggrSpecs(const std::vector<AggrSpec>& specs);

/// Aggr: grouped aggregation, and scalar aggregation as its one-group case
/// (§4.1.2). Group keys are input columns (possibly undecoded enum codes —
/// grouping on codes is both correct and cache-friendly; the dictionary
/// travels on the output schema). The operator differs from its siblings
/// only in how it gives each live tuple a group id, and it picks that from
/// the keys it sees:
///   - direct: while every key is an integer, date or enum code and the
///     product of the keys' observed spans stays within max(2^16, 8 x
///     groups) slots, map_directgrp / map_redirectgrp compute a mixed-radix
///     id and a per-id table turns it into a dense group row. A key outside
///     the current spans re-bases the table from the stored group keys;
///   - hash: past that bound (or for string and float keys) it switches
///     once to a linear-probing hash table over map_hash / map_rehash,
///     seeded with the groups found so far.
/// Groups are numbered and emitted in first-seen order on both paths. All
/// three grouped operators update their aggregates through one shared step
/// (aggr_internal::AggrState, DESIGN.md "Aggregation").
class GroupAggrOp : public Operator {
 public:
  GroupAggrOp(ExecContext* ctx, std::unique_ptr<Operator> child,
              std::vector<std::string> group_by, std::vector<AggrSpec> aggrs);
  ~GroupAggrOp() override;

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override;

  /// Trace node (wired by the plan::Aggr factory): the input, group-id and
  /// update primitives hang their leaves here, and Close() adds the aggr.*
  /// path counters and the table's ht.* counters.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

 private:
  struct Impl;
  void Build();

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::vector<std::string> group_by_;
  std::vector<AggrSpec> specs_;
  Schema schema_;
  TraceNode* trace_node_ = nullptr;
  std::unique_ptr<Impl> impl_;
};

/// OrdAggr: correct only when all members of a group arrive adjacently in
/// the source Dataflow (§4.1.2); plans choose it through plan::ClusteredAggr,
/// which proves that first. Streams groups out as they complete and retains
/// at most 2 x vector_size of them. Output order (first encounter) and
/// per-group accumulation order match GroupAggrOp's, so on clustered input
/// the two produce bit-identical results.
class OrdAggrOp : public Operator {
 public:
  OrdAggrOp(ExecContext* ctx, std::unique_ptr<Operator> child,
            std::vector<std::string> group_by, std::vector<AggrSpec> aggrs);
  ~OrdAggrOp() override;

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override;

  /// Trace hook (set by the plan factory): the input and update primitives
  /// hang their leaves here, and Close() adds the ord.groups /
  /// ord.max_retained counters.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

 private:
  struct Impl;

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  std::vector<std::string> group_by_;
  std::vector<AggrSpec> specs_;
  Schema schema_;
  TraceNode* trace_node_ = nullptr;
  std::unique_ptr<Impl> impl_;
};

}  // namespace x100

#endif  // X100_EXEC_AGGR_H_
