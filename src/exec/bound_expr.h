#ifndef X100_EXEC_BOUND_EXPR_H_
#define X100_EXEC_BOUND_EXPR_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "exec/expr.h"
#include "exec/operator.h"
#include "primitives/primitive.h"
#include "vector/batch.h"

namespace x100 {

struct TraceNode;

// The binder: resolves Expr trees against a Dataflow schema into a program of
// vectorized primitive calls — the analogue of X100's "dynamic signatures"
// resolution against generated primitive code (Figure 5). Enum-code columns
// get an automatic fetch/decode step (the paper's automatic Fetch1Join,
// §4.3); mixed-type arithmetic gets cast steps; equality against a constant
// that lives in a dictionary is rewritten to a raw code comparison.

namespace bind_internal {

/// Where a primitive argument comes from at Eval time.
struct ArgRef {
  enum class Src { kBatchCol, kReg, kConst, kDictBase };
  Src src = Src::kConst;
  int index = 0;               // batch column or register
  const void* cptr = nullptr;  // constant slot / dictionary base
  bool is_col = true;          // column-shaped (per-tuple) vs single value
  size_t width = 0;            // per-tuple bytes when is_col
};

/// One map-primitive invocation: res_reg[i] = prim(args...[i]).
struct MapStep {
  const MapPrimitive* prim = nullptr;
  std::vector<ArgRef> args;
  int res_reg = 0;
  /// The step's primitive leaf when its operator is traced (a fused step's
  /// detail is its fused[sub>mul]-style display name).
  TraceNode* leaf = nullptr;
  /// Intermediate-vector traffic the fusion avoided (fused steps only):
  /// one store + one load per collapsed chain edge, per tuple.
  size_t saved_bytes_per_tuple = 0;
};

/// Typed 8-byte constant slot with stable address.
struct ConstSlot {
  alignas(8) char bytes[8] = {};
  std::string owned_str;       // backing for string constants
  const char* sptr = nullptr;  // string args point at this pointer
};

/// A bound value node: where a (sub)expression's per-tuple data lives.
struct ValueNode {
  ArgRef ref;
  TypeId type = TypeId::kI64;  // physical type of the data
  DictRef dict;                // set for undecoded enum-code batch columns
};

/// Shared state of a bound program: constants, registers, map steps, CSE memo.
class Program {
 public:
  /// `trace_parent`, when non-null, is the traced operator's node every bound
  /// primitive step hangs its leaf under.
  Program(ExecContext* ctx, std::string label,
          TraceNode* trace_parent = nullptr)
      : ctx_(ctx), label_(std::move(label)), trace_parent_(trace_parent) {}

  ExecContext* ctx() { return ctx_; }
  const std::string& label() const { return label_; }

  int AllocReg(TypeId t);
  const void* StoreConst(const Value& v, TypeId physical);
  const char** StoreStrConst(const std::string& s);
  /// The leaf of a primitive this program binds (null when untraced).
  TraceNode* Leaf(std::string name, uint64_t bytes_per_tuple,
                  std::string detail = "");

  /// Pre-counts call-subtree occurrences across a program's expressions so
  /// the chain fuser refuses to absorb a shared subtree into a fused kernel
  /// (which would defeat CSE by recomputing it). Call once per expression,
  /// before any BindValue. Returns the expression's Signature().
  std::string NoteSubtreeUses(const Expr& expr);

  /// Binds an expression into this program (recursive, CSE-memoized).
  ValueNode BindValue(const Schema& input, const Expr& expr);

  /// The bound step list (exposed for the fusion regression tests: a fusion
  /// miss must leave no orphaned steps behind).
  const std::vector<MapStep>& steps() const { return steps_; }

  /// Inserts a decode (fetch) step if `node` carries enum codes.
  ValueNode Decode(ValueNode node);

  /// Inserts a cast step (or converts at bind time for constants).
  ValueNode Cast(ValueNode node, TypeId to);

  /// Runs all map steps for the live positions of `batch`, back to back as
  /// one run of `lap`.
  void RunSteps(VectorBatch* batch, CallLap* lap);

  /// Raw data pointer for an ArgRef given the current batch.
  const void* ArgPtr(const ArgRef& a, VectorBatch* batch);

 private:
  /// Appends a map step running `prim` (registered as `name`) over `args`
  /// into a fresh `type` register, with its primitive leaf under a traced
  /// operator; returns where the result lives.
  ValueNode Emit(const std::string& name, const MapPrimitive* prim,
                 std::vector<ArgRef> args, TypeId type,
                 size_t bytes_per_tuple, std::string detail = "");

  ValueNode BindCall(const Schema& input, const Expr& expr);

  /// Pattern-matches a fusable map-primitive chain rooted at `expr` and, on
  /// a registry hit, binds it as one fused step into `*out`. Pure on a miss:
  /// the probe emits nothing until the kernel is resolved.
  bool TryFuseChain(const Schema& input, const Expr& expr, ValueNode* out);

  /// Predicts the physical type `expr` would bind to, mirroring the binder's
  /// typing rules without emitting steps; nullopt when the expression would
  /// not bind cleanly (the generic path then reports the error).
  std::optional<TypeId> InferType(const Schema& input, const Expr& expr) const;

  ExecContext* ctx_;
  std::string label_;
  TraceNode* trace_parent_ = nullptr;
  std::vector<MapStep> steps_;
  std::vector<Vector> registers_;
  std::deque<ConstSlot> consts_;
  std::map<std::string, ValueNode> memo_;
  std::map<std::string, int> use_counts_;
};

}  // namespace bind_internal

/// A list of map expressions bound against one input schema, sharing decode /
/// cast steps (what Project and Aggr use).
class MultiExprEvaluator {
 public:
  struct Out {
    const void* data;
    TypeId type;
    DictRef dict;
    bool is_col;  // false: `data` points at one constant to broadcast
  };

  /// `trace_parent` (optional): the traced operator's node, which gets one
  /// primitive leaf per bound step.
  MultiExprEvaluator(ExecContext* ctx, const Schema& input,
                     const std::vector<const Expr*>& exprs,
                     const std::string& label,
                     TraceNode* trace_parent = nullptr);

  /// Physical result type / dictionary of expression `i`.
  TypeId type(int i) const { return results_[i].type; }
  const DictRef& dict(int i) const { return results_[i].dict; }

  /// Runs the program for the live positions of `batch`; call once per batch.
  void Eval(VectorBatch* batch);

  /// Result data of expression `i` for the batch passed to Eval().
  Out Result(int i, VectorBatch* batch);

 private:
  bind_internal::Program program_;
  std::vector<bind_internal::ValueNode> results_;
};

/// Single-expression convenience wrapper.
class ExprEvaluator {
 public:
  ExprEvaluator(ExecContext* ctx, const Schema& input, const Expr& expr,
                const std::string& label, TraceNode* trace_parent = nullptr)
      : multi_(ctx, input, {&expr}, label, trace_parent) {}

  TypeId result_type() const { return multi_.type(0); }
  const DictRef& result_dict() const { return multi_.dict(0); }

  const void* Eval(VectorBatch* batch) {
    multi_.Eval(batch);
    return multi_.Result(0, batch).data;
  }

 private:
  MultiExprEvaluator multi_;
};

/// Bound selection predicate over and/or trees of comparisons; leaves bind to
/// the predicated select_* primitives and fill a selection vector (§4.1.1).
class PredicateEvaluator {
 public:
  PredicateEvaluator(ExecContext* ctx, const Schema& input, const Expr& pred,
                     const std::string& label,
                     TraceNode* trace_parent = nullptr);
  ~PredicateEvaluator();

  /// Writes qualifying positions (a subset of batch's live positions,
  /// ascending) into `out_sel`; returns the count.
  int Eval(VectorBatch* batch, int* out_sel);

 private:
  struct PredNode;
  std::unique_ptr<PredNode> BindPred(const Schema& input, const Expr& e);
  int EvalNode(PredNode* node, VectorBatch* batch, const int* sel, int n,
               int* out_sel, CallLap* lap);

  bind_internal::Program program_;
  std::unique_ptr<PredNode> root_;
};

}  // namespace x100

#endif  // X100_EXEC_BOUND_EXPR_H_
