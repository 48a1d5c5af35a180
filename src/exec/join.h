#ifndef X100_EXEC_JOIN_H_
#define X100_EXEC_JOIN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/bound_expr.h"
#include "exec/operator.h"
#include "storage/buffer.h"
#include "storage/table.h"

namespace x100 {

/// Join flavours. X100 algebra only has left-deep joins (§4.1.2); we add the
/// semi/anti forms SQL EXISTS/NOT EXISTS translate to, and a left-outer form
/// that substitutes type-default values (0 / "") for non-matching probes —
/// the engine has no NULLs (TPC-H needs this only for Q13-style counts,
/// where the default 0 is exactly right).
enum class JoinType { kInner, kSemi, kAnti, kLeftOuterDefault };

/// Keys, outputs and flavour of one equi-join — the options struct taken by
/// HashJoinOp and plan::Join in place of the former seven positional
/// vectors. Output columns are `probe_out` from the probe child then
/// `build_out` from the build child (kSemi/kAnti must leave build_out
/// empty). Designated initializers keep call sites readable:
///
///   Join(ctx, p, b, {.probe_keys = {"fk"}, .build_keys = {"id"},
///                    .probe_out = {"fk", "m"}, .build_out = {"label"}})
struct JoinSpec {
  std::vector<std::string> probe_keys, build_keys;
  std::vector<std::string> probe_out, build_out;
  JoinType type = JoinType::kInner;
};

/// Equi-hash-join. The build child is drained into a columnar store hashed on
/// the build keys; probe batches compute key hashes with map_hash/map_rehash
/// primitives and matching (probe,build) pairs are gathered into compact
/// output vectors.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(ExecContext* ctx, std::unique_ptr<Operator> probe,
             std::unique_ptr<Operator> build, JoinSpec spec);
  ~HashJoinOp() override;

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override;

  /// Trace node (wired by the plan::Join factory): the filter and hash
  /// primitives hang their leaves here, and Close() adds the table's ht.*
  /// counters.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

 private:
  struct Impl;
  void BuildSide();
  void ProcessProbeBatch(VectorBatch* batch);

  ExecContext* ctx_;
  std::unique_ptr<Operator> probe_, build_;
  std::vector<std::string> probe_keys_, build_keys_, probe_out_, build_out_;
  JoinType type_;
  Schema schema_;
  TraceNode* trace_node_ = nullptr;
  std::unique_ptr<Impl> impl_;
};

/// Radix-partitioned equi-join (the cache-conscious join of §2, after
/// Manegold/Boncz/Kersten): both sides are hash-partitioned until each
/// partition's hash table fits the CPU cache, then joined partition-wise with
/// purely cache-resident random access. Materializing (both inputs are
/// drained), inner joins only — an alternative physical operator to
/// HashJoinOp for large build sides.
class RadixJoinOp : public Operator {
 public:
  /// `radix_bits` partitions each side into 2^bits buckets; pass 0 to size
  /// automatically from the build cardinality.
  RadixJoinOp(ExecContext* ctx, std::unique_ptr<Operator> probe,
              std::unique_ptr<Operator> build,
              std::vector<std::string> probe_keys,
              std::vector<std::string> build_keys,
              std::vector<std::string> probe_out,
              std::vector<std::string> build_out, int radix_bits = 0);
  ~RadixJoinOp() override;

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override;

  /// EXPLAIN ANALYZE node that receives the table's ht.* counters at Close.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

 private:
  struct Impl;
  void BuildAll();

  ExecContext* ctx_;
  std::unique_ptr<Operator> probe_, build_;
  std::vector<std::string> probe_keys_, build_keys_, probe_out_, build_out_;
  int radix_bits_;
  Schema schema_;
  TraceNode* trace_node_ = nullptr;
  std::unique_ptr<Impl> impl_;
};

/// Fetch1Join (§4.1.2/§4.3): positionally fetches columns of `target` by a
/// #rowId column of the Dataflow (1:1; the rowid must be a valid fragment
/// row). This is how foreign-key joins run when a join index exists, and how
/// enumeration decode works.
class Fetch1JoinOp : public Operator {
 public:
  /// `fetch` maps target column name -> output field name.
  Fetch1JoinOp(ExecContext* ctx, std::unique_ptr<Operator> child,
               const Table& target, std::string rowid_col,
               std::vector<std::pair<std::string, std::string>> fetch);
  ~Fetch1JoinOp() override;

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override { child_->Close(); }

  /// Trace node (wired by the plan::Fetch1Join factory): the fetch
  /// primitives hang their leaves here.
  void set_trace_node(TraceNode* node) { trace_node_ = node; }

 private:
  struct Impl;

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  const Table& target_;
  std::string rowid_col_;
  std::vector<std::pair<std::string, std::string>> fetch_;
  Schema schema_;
  TraceNode* trace_node_ = nullptr;
  std::unique_ptr<Impl> impl_;
};

/// FetchNJoin (§4.1.2): 1:N positional fetch — each input tuple carries a
/// starting #rowId and a count; the tuple is replicated for each target row
/// in [start, start+count) with the fetched columns attached.
class FetchNJoinOp : public Operator {
 public:
  FetchNJoinOp(ExecContext* ctx, std::unique_ptr<Operator> child,
               const Table& target, std::string start_col, std::string count_col,
               std::vector<std::pair<std::string, std::string>> fetch);
  ~FetchNJoinOp() override;

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override { child_->Close(); }

 private:
  struct Impl;

  ExecContext* ctx_;
  std::unique_ptr<Operator> child_;
  const Table& target_;
  std::string start_col_, count_col_;
  std::vector<std::pair<std::string, std::string>> fetch_;
  Schema schema_;
  std::unique_ptr<Impl> impl_;
};

/// CartProd (§4.1.2): the default join implementation is a cartesian product
/// with a Select on top (nested-loop join). The build child is materialized;
/// every probe tuple is paired with every build row.
class CartProdOp : public Operator {
 public:
  CartProdOp(ExecContext* ctx, std::unique_ptr<Operator> probe,
             std::unique_ptr<Operator> build,
             std::vector<std::string> probe_out,
             std::vector<std::string> build_out);
  ~CartProdOp() override;

  const Schema& schema() const override { return schema_; }
  void Open() override;
  VectorBatch* Next() override;
  void Close() override;

 private:
  struct Impl;

  ExecContext* ctx_;
  std::unique_ptr<Operator> probe_, build_;
  std::vector<std::string> probe_out_, build_out_;
  Schema schema_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace x100

#endif  // X100_EXEC_JOIN_H_
