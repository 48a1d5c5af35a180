#include "exec/exchange.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>

#include "common/metrics.h"
#include "common/perf_counters.h"
#include "common/thread_pool.h"

namespace x100 {

namespace {

/// Deep-compacted copy of `src`: selection applied, every column gathered
/// into owned storage. Schema (including dictionary refs, which point into
/// table storage that outlives the query) is copied as-is. This is what
/// crosses the thread boundary — the producer's own batch stays private to
/// its pipeline.
VectorBatch CompactCopy(const VectorBatch& src) {
  int n = src.sel_count();
  VectorBatch dst(src.schema(), std::max(n, 1));
  const int* sel = src.sel();
  for (int c = 0; c < src.num_columns(); c++) {
    size_t w = TypeWidth(src.schema().field(c).type);
    const char* base = static_cast<const char*>(src.column(c).data());
    char* out = static_cast<char*>(dst.column(c).data());
    if (sel != nullptr) {
      for (int k = 0; k < n; k++) {
        std::memcpy(out + static_cast<size_t>(k) * w,
                    base + static_cast<size_t>(sel[k]) * w, w);
      }
    } else {
      std::memcpy(out, base, static_cast<size_t>(n) * w);
    }
  }
  dst.set_count(n);
  return dst;
}

/// Clones `src` (a worker-trace subtree) into `dst`, counters included.
TraceNode* CloneTree(QueryTrace* dst, const TraceNode* src) {
  std::vector<TraceNode*> kids;
  kids.reserve(src->children.size());
  for (const TraceNode* c : src->children) kids.push_back(CloneTree(dst, c));
  TraceNode* n = dst->NewNode(src->label, src->detail, std::move(kids));
  n->primitive = src->primitive;
  n->bytes_per_tuple = src->bytes_per_tuple;
  n->open_calls = src->open_calls;
  n->next_calls = src->next_calls;
  n->batches = src->batches;
  n->tuples = src->tuples;
  n->cycles = src->cycles;
  n->perf = src->perf;
  n->counters = src->counters;
  return n;
}

/// Adds `src`'s counters into the matching `dst` subtree. Worker pipelines
/// come from one deterministic factory, so the shapes match, except that a
/// node may carry extra trailing leaves: an Aggr that left the direct path
/// binds its hash steps then. Those are cloned into `dst`.
void AccumulateTree(QueryTrace* trace, TraceNode* dst, const TraceNode* src) {
  dst->open_calls += src->open_calls;
  dst->next_calls += src->next_calls;
  dst->batches += src->batches;
  dst->tuples += src->tuples;
  dst->cycles += src->cycles;
  dst->perf.Add(src->perf);
  for (const auto& kv : src->counters) dst->AddCounter(kv.first, kv.second);
  for (size_t i = 0; i < src->children.size(); i++) {
    const TraceNode* c = src->children[i];
    if (i < dst->children.size()) {
      X100_CHECK(dst->children[i]->label == c->label);
      AccumulateTree(trace, dst->children[i], c);
    } else {
      X100_CHECK(c->primitive);
      trace->AttachChild(dst, CloneTree(trace, c));
    }
  }
}

}  // namespace

struct ExchangeOp::Shared {
  std::mutex mu;
  std::condition_variable not_full;   // producers wait here
  std::condition_variable not_empty;  // the consumer waits here
  std::deque<VectorBatch> queue;
  size_t capacity = 0;
  bool cancel = false;
  int done = 0;
  int total = 0;
  /// Every worker exception, latched in arrival order. Workers can fail
  /// concurrently (including while blocked on a full queue during a
  /// Close()-initiated cancel); keeping only the first would silently drop
  /// the rest. `reported` marks how many the consumer side has rethrown.
  std::vector<std::exception_ptr> errors;
  size_t reported = 0;
  /// The plan's cancellation token (may be null). Polled per batch so a
  /// worker whose pipeline has no scan still honours cancellation.
  CancelToken* token = nullptr;
  Counter* producer_waits = nullptr;

  /// One producer pipeline's drain loop, run on a pool thread. Touches only
  /// `pipe` (exclusively this worker's) and the Shared state; the last
  /// action is the done++ handshake Close() waits on.
  void Produce(Operator* pipe) {
    try {
      while (true) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (cancel) break;
        }
        if (token != nullptr) token->Check();
        VectorBatch* b = pipe->Next();
        if (b == nullptr) break;
        if (b->sel_count() == 0) continue;
        VectorBatch copy = CompactCopy(*b);
        std::unique_lock<std::mutex> lock(mu);
        while (queue.size() >= capacity && !cancel) {
          producer_waits->Inc();
          not_full.wait(lock);
        }
        if (cancel) break;
        queue.push_back(std::move(copy));
        not_empty.notify_one();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back(std::current_exception());
      cancel = true;
      not_full.notify_all();
      not_empty.notify_all();
    }
    std::lock_guard<std::mutex> lock(mu);
    done++;
    not_empty.notify_all();
  }

  /// First unreported non-QueryCancelled error, marking everything up to it
  /// reported. QueryCancelled latches are expected teardown noise once the
  /// query is being cancelled anyway — skipped, not surfaced. Caller holds
  /// no lock.
  std::exception_ptr TakeUnreportedError() {
    std::lock_guard<std::mutex> lock(mu);
    while (reported < errors.size()) {
      std::exception_ptr e = errors[reported++];
      try {
        std::rethrow_exception(e);
      } catch (const QueryCancelled&) {
        continue;
      } catch (...) {
        return e;
      }
    }
    return nullptr;
  }
};

ExchangeOp::ExchangeOp(ExecContext* ctx, int num_workers, WorkerPlanFn factory,
                       int queue_capacity)
    : ctx_(ctx) {
  X100_CHECK(num_workers >= 1);
  queue_capacity_ = queue_capacity > 0 ? queue_capacity
                                       : std::max(2 * num_workers, 4);
  for (int w = 0; w < num_workers; w++) {
    auto wctx = std::make_unique<ExecContext>(*ctx);
    // Workers are serial pipelines, each tracing into a tree of its own
    // (trees are not thread-safe); Close() merges them into the plan's.
    wctx->num_threads = 1;
    wctx->trace = nullptr;
    if (ctx->TraceTree() != nullptr) {
      worker_traces_.push_back(std::make_unique<QueryTrace>());
      wctx->trace = worker_traces_.back().get();
    }
    worker_ctxs_.push_back(std::move(wctx));
    pipelines_.push_back(factory(worker_ctxs_.back().get(), w, num_workers));
  }
}

ExchangeOp::~ExchangeOp() {
  Shutdown();
  // Errors latched but never surfaced (the consumer stopped draining before
  // rethrowing them, and Close() never got to). Swallowing is forced here —
  // destructors must not throw — but never silent: each one is counted.
  while (shared_ != nullptr) {
    std::exception_ptr e = shared_->TakeUnreportedError();
    if (e == nullptr) break;
    MetricsRegistry::Get().GetCounter("exchange.dropped_errors")->Inc();
  }
}

void ExchangeOp::Open() {
  // Serial opens: ScanOp::Open refreshes dictionary refs in shared table
  // state and trace nodes are single-threaded, so no pipeline may open
  // concurrently with anything else.
  for (auto& p : pipelines_) p->Open();

  shared_ = std::make_shared<Shared>();
  shared_->capacity = static_cast<size_t>(queue_capacity_);
  shared_->total = num_workers();
  shared_->token = ctx_->cancel;
  shared_->producer_waits =
      MetricsRegistry::Get().GetCounter("exchange.producer_waits");
  open_ = true;
  traces_merged_ = false;

  // Traced workers measure hardware counters on their own pool thread; the
  // per-worker deltas land in the worker trace and are summed at merge.
  bool want_perf = ctx_->TraceTree() != nullptr;
  for (auto& p : pipelines_) {
    ThreadPool::Shared().Submit([s = shared_, pipe = p.get(), want_perf] {
      ScopedPerfThread perf(want_perf);
      s->Produce(pipe);
    });
  }
}

VectorBatch* ExchangeOp::Next() {
  ctx_->CheckCancel();
  Shared& s = *shared_;
  std::unique_lock<std::mutex> lock(s.mu);
  while (true) {
    if (s.reported < s.errors.size()) {
      std::exception_ptr e = s.errors[s.reported++];
      s.cancel = true;
      s.not_full.notify_all();
      lock.unlock();
      std::rethrow_exception(e);
    }
    if (!s.queue.empty()) {
      current_ = std::move(s.queue.front());
      s.queue.pop_front();
      s.not_full.notify_one();
      lock.unlock();
      MetricsRegistry::Get().GetCounter("exchange.batches")->Inc();
      MetricsRegistry::Get()
          .GetCounter("exchange.rows")
          ->Add(static_cast<uint64_t>(current_.count()));
      return &current_;
    }
    if (s.done == s.total) return nullptr;
    s.not_empty.wait(lock);
  }
}

void ExchangeOp::Shutdown() {
  if (!open_) return;
  Shared& s = *shared_;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.cancel = true;
    s.queue.clear();
    s.not_full.notify_all();
  }
  {
    std::unique_lock<std::mutex> lock(s.mu);
    s.not_empty.wait(lock, [&] { return s.done == s.total; });
  }
  open_ = false;
}

void ExchangeOp::Close() {
  Shutdown();
  for (auto& p : pipelines_) p->Close();
  MergeWorkerTraces();
  // A worker that threw after the consumer stopped draining — typically
  // while it sat blocked on a full queue when a Close()-initiated cancel
  // woke it into a failing pipeline — latched its error with no Next() left
  // to surface it. Rethrow here so callers see it; if Close() itself runs
  // during unwinding (an exception is already in flight), count it instead
  // of std::terminate-ing.
  std::exception_ptr pending =
      shared_ != nullptr ? shared_->TakeUnreportedError() : nullptr;
  if (pending != nullptr) {
    if (std::uncaught_exceptions() == 0) std::rethrow_exception(pending);
    MetricsRegistry::Get().GetCounter("exchange.dropped_errors")->Inc();
  }
}

void ExchangeOp::MergeWorkerTraces() {
  QueryTrace* tree = ctx_->TraceTree();
  if (traces_merged_ || worker_traces_.empty() || tree == nullptr ||
      trace_node_ == nullptr) {
    return;
  }
  traces_merged_ = true;
  // The factory is deterministic, so every worker trace has the same root
  // list in the same creation order. Merge them node-wise into the parent
  // trace and graft under the exchange's node: EXPLAIN ANALYZE shows one
  // subtree whose counters sum over all workers (cycles can exceed the
  // exchange's own wall cycles — that overlap is the parallelism).
  const QueryTrace& proto = *worker_traces_[0];
  for (size_t r = 0; r < proto.roots().size(); r++) {
    TraceNode* merged = CloneTree(tree, proto.roots()[r]);
    for (size_t w = 1; w < worker_traces_.size(); w++) {
      X100_CHECK(worker_traces_[w]->roots().size() == proto.roots().size());
      AccumulateTree(tree, merged, worker_traces_[w]->roots()[r]);
    }
    tree->AttachChild(trace_node_, merged);
  }
}

}  // namespace x100
