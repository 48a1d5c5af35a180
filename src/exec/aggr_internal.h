#ifndef X100_EXEC_AGGR_INTERNAL_H_
#define X100_EXEC_AGGR_INTERNAL_H_

// Shared internals of the two aggregation operators. Include only from
// exec/aggr_*.cc.

#include <memory>
#include <string>
#include <vector>

#include "exec/aggr.h"
#include "storage/buffer.h"

namespace x100::aggr_internal {

/// The accumulators of one aggregation operator (§4.1.2), and the one update
/// step that Aggr and OrdAggr share.
///
/// Aggregates live in blocks. A block holds one row per group, the slots of
/// its aggregates side by side (NSM). Which aggregates share a block is fixed
/// at bind time by ExecContext::fuse_compound_primitives: with fusion on, all
/// aggregates of a grouped operator share one block, updated by aggr_rows in
/// one pass per tuple, when some pass updates two slots (two aggregates of
/// one kind, or a count riding along). Otherwise, and always for scalar
/// aggregation and for a single aggregate, each aggregate has a block of its
/// own (a column) updated by its typed aggr_* primitive. Per group and
/// aggregate, updates happen in input order in both layouts, so results are
/// bit-identical.
class AggrState {
 public:
  /// Binds the widened aggregate inputs against `child` and lays out the
  /// blocks. `grouped` is false for scalar aggregation (one group, no group
  /// ids). `trace_parent` (optional): the traced operator's node, which gets
  /// a leaf per input step.
  AggrState(ExecContext* ctx, const Schema& child,
            const std::vector<AggrSpec>& specs, bool grouped,
            const std::string& label, TraceNode* trace_parent = nullptr);
  ~AggrState();

  /// Hangs a leaf per block's update primitive under `trace_parent` (none
  /// when it is null). Separate from binding so that an operator's group-id
  /// steps can come in between: its leaves then follow the pipeline, inputs
  /// first, updates last, as in Table 5.
  void TraceUpdates(ExecContext* ctx, TraceNode* trace_parent);

  /// Appends one output field per aggregate, typed by its accumulator.
  void AddFields(Schema* schema) const;

  /// Appends initialized rows up to `n` groups.
  void Grow(size_t n);

  /// Evaluates the inputs over `batch` and updates every aggregate for its
  /// live positions. `groups` holds a group id per position (null for
  /// scalar aggregation).
  void Update(VectorBatch* batch, const uint32_t* groups);

  /// Writes the aggregates of groups [first, first + n) to output columns
  /// first_col, first_col + 1, ... of `out`.
  void EmitRange(size_t first, int n, VectorBatch* out, int first_col) const;

  /// Drops the rows of the first `n` groups; group ids shift down by n.
  void DropFront(size_t n);

 private:
  struct Aggr;
  struct Block;

  std::unique_ptr<MultiExprEvaluator> inputs_;
  std::vector<Aggr> aggrs_;
  std::vector<Block> blocks_;
  size_t rows_ = 0;  // groups with allocated rows
};

/// Builds an aggregation's output schema: the group fields (copied from the
/// child schema, with dictionaries) followed by the aggregates' fields.
/// Returns child schema indices of the group columns.
std::vector<int> BuildAggrSchema(const Schema& child,
                                 const std::vector<std::string>& group_by,
                                 const AggrState& aggrs, Schema* schema);

}  // namespace x100::aggr_internal

#endif  // X100_EXEC_AGGR_INTERNAL_H_
