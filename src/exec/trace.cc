#include "exec/trace.h"

namespace x100 {

TraceNode* PrimitiveLeaf(ExecContext* ctx, TraceNode* parent, std::string name,
                         uint64_t bytes_per_tuple, std::string detail) {
  QueryTrace* tree = ctx->TraceTree();
  if (parent == nullptr || tree == nullptr) return nullptr;
  return tree->NewLeaf(parent, std::move(name), bytes_per_tuple,
                       std::move(detail));
}

std::unique_ptr<Operator> MaybeTrace(ExecContext* ctx,
                                     std::unique_ptr<Operator> op,
                                     std::string label, std::string detail,
                                     std::vector<const Operator*> children) {
  QueryTrace* tree = ctx->TraceTree();
  if (tree == nullptr) return op;
  std::vector<TraceNode*> child_nodes;
  for (const Operator* c : children) {
    if (const auto* io = dynamic_cast<const InstrumentedOperator*>(c)) {
      child_nodes.push_back(io->node());
    }
  }
  TraceNode* node = tree->NewNode(std::move(label), std::move(detail),
                                  std::move(child_nodes));
  return std::make_unique<InstrumentedOperator>(std::move(op), node);
}

}  // namespace x100
