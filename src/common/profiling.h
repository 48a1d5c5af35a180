#ifndef X100_COMMON_PROFILING_H_
#define X100_COMMON_PROFILING_H_

// The one trace model. A traced query records into a tree of TraceNodes: one
// node per plan operator (exec/trace.h wraps each in an InstrumentedOperator)
// and, under each operator, one leaf per primitive step it bound (map,
// select, aggr, group-id, join-filter, hash, fetch). EXPLAIN ANALYZE renders
// the tree (QueryTrace); the paper's Table 5 trace is its flattened view
// (Profiler).

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/perf_counters.h"

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace x100 {

/// Monotonic wall-clock in nanoseconds.
uint64_t NowNanos();

/// Cycle counter: rdtsc on x86-64, steady_clock-derived elsewhere. Not
/// serializing (no rdtscp, no fence): a traced query reads it twice per
/// primitive call, and the wait for prior instructions to finish cost more
/// than the few tens of cycles it can shift a window's edges by.
inline uint64_t ReadCycleCounter() {
#if defined(__x86_64__)
  return __rdtsc();
#else
  return NowNanos();
#endif
}

/// Estimated cycles per nanosecond for converting counters to wall time;
/// measured once at first use.
double CyclesPerNanosecond();

/// One node of a trace: a plan operator or a primitive leaf. Cycles are
/// inclusive: an operator's Next() nests its children's Next() calls
/// (including blocking drains like a join build) and its primitives' calls,
/// so self time is inclusive minus the children's inclusive.
struct TraceNode {
  std::string label;      // operator name ("Select") or primitive name
  std::string detail;     // operator-specific, e.g. scanned table + range
  std::string plan_name;  // set on the root when RunPlan names the plan

  /// True for a primitive leaf. Its next_calls/batches count primitive
  /// calls, `tuples` their input tuples, and `bytes_per_tuple` the bytes
  /// each input tuple moves (inputs plus output, as in Table 3/5).
  bool primitive = false;
  uint64_t bytes_per_tuple = 0;

  uint64_t open_calls = 0;
  uint64_t next_calls = 0;
  uint64_t batches = 0;  // Next() calls that returned a batch
  uint64_t tuples = 0;   // sum of returned batches' live (selected) tuples
  uint64_t cycles = 0;   // inclusive, over Open() + Next() + Close()
  /// Inclusive hardware-counter deltas over the same windows as `cycles`,
  /// accumulated whenever the executing thread has a perf group installed
  /// (common/perf_counters.h). Absent (empty mask) in degraded mode; the
  /// renderers omit the fields instead of showing zeros. Exchange merges
  /// sum these across workers exactly like cycles.
  PerfCounterValues perf;

  /// Operator-specific counters (e.g. BmScan's prefetch.hits / bm.pool
  /// activity), in first-add order. Exchange sums them name-wise when
  /// merging worker subtrees.
  std::vector<std::pair<std::string, uint64_t>> counters;

  void AddCounter(std::string_view name, uint64_t delta) {
    for (auto& kv : counters) {
      if (kv.first == name) {
        kv.second += delta;
        return;
      }
    }
    counters.emplace_back(std::string(name), delta);
  }

  std::vector<TraceNode*> children;

  uint64_t ChildCycles() const {
    uint64_t c = 0;
    for (const TraceNode* ch : children) c += ch->cycles;
    return c;
  }
  /// Cycles spent in this node excluding its children (clamped at 0: the
  /// serializing cycle reads make nested measurements slightly lossy).
  uint64_t SelfCycles() const {
    uint64_t c = ChildCycles();
    return cycles > c ? cycles - c : 0;
  }
  double SelfCyclesPerTuple() const {
    return tuples ? static_cast<double>(SelfCycles()) /
                        static_cast<double>(tuples)
                  : 0.0;
  }
  /// Hardware counters spent in this node excluding its children — the
  /// perf analogue of SelfCycles, per-event saturating at 0.
  PerfCounterValues SelfPerf() const;
};

/// Owns the TraceNodes of one traced run. A query that materializes
/// sub-plans (the hand-translated TPC-H plans express SQL subqueries that
/// way) produces one root per sub-plan, in execution order.
class QueryTrace {
 public:
  /// Creates a node whose children (if any) stop being roots.
  TraceNode* NewNode(std::string label, std::string detail,
                     std::vector<TraceNode*> children);

  /// Creates the primitive leaf `name` as the last child of `parent`.
  TraceNode* NewLeaf(TraceNode* parent, std::string name,
                     uint64_t bytes_per_tuple, std::string detail = "");

  /// Re-parents existing root `child` under `parent` — both must live in
  /// this trace. ExchangeOp grafts its merged per-worker subtree under the
  /// exchange node this way, after the workers have finished.
  void AttachChild(TraceNode* parent, TraceNode* child);

  const std::vector<TraceNode*>& roots() const { return roots_; }

  /// Renders every root as an indented tree with per-node calls, batches,
  /// tuples, self cycles/tuple and percent of total self time.
  std::string ToString() const;

  /// [{"plan","label","detail","next_calls","batches","tuples","cycles",
  ///   "self_cycles","self_cycles_per_tuple","children":[...]}, ...]
  /// Nodes measured with hardware counters additionally carry an "hw"
  /// object: inclusive {"cycles","instructions","cache_references",
  /// "cache_misses","branch_instructions","branch_misses"} plus derived
  /// {"self_ipc","self_cache_misses_per_tuple"}. The "hw" key is OMITTED
  /// entirely (never zero-filled) when counters were unavailable.
  std::string ToJson() const;

 private:
  std::deque<TraceNode> nodes_;  // stable addresses
  std::vector<TraceNode*> roots_;
};

/// The clock reading at the end of the last window of a run of primitive
/// calls made back to back (a program's map steps, a predicate's
/// conjuncts). The run's next window starts there instead of reading the
/// clock again, which halves the reads of a long run; the few instructions
/// between two calls (argument setup) are charged to the later one. Whoever
/// does other work between calls of the run resets the lap.
struct CallLap {
  uint64_t end = 0;
  bool valid = false;
};

/// RAII bracket accounting one measured window into a TraceNode: rdtsc
/// cycles always, plus hardware-counter deltas when the calling thread has a
/// perf group installed. The perf reads happen outside the rdtsc window so
/// their syscall cost stays out of the cycles column. Looked up per window,
/// not per node — exchange pipelines Open() on the consumer thread but
/// Next() on pool threads, and each window must read the counters of the
/// thread it ran on. A window given a `lap` starts at its end when valid
/// and leaves its own end there; with a perf group installed every window
/// reads its own start, as the perf reads cost far more than the clock's.
class ScopedCounters {
 public:
  explicit ScopedCounters(TraceNode* node, CallLap* lap = nullptr)
      : node_(node), perf_group_(CurrentThreadPerfGroup()) {
    if (perf_group_ != nullptr && !perf_group_->Read(&perf_start_)) {
      perf_group_ = nullptr;
    }
    lap_ = perf_group_ == nullptr ? lap : nullptr;
    start_ = lap_ != nullptr && lap_->valid ? lap_->end : ReadCycleCounter();
  }
  ~ScopedCounters() {
    uint64_t end = ReadCycleCounter();
    node_->cycles += end - start_;
    if (lap_ != nullptr) *lap_ = {end, true};
    if (perf_group_ != nullptr) {
      PerfCounterValues perf_end;
      if (perf_group_->Read(&perf_end)) {
        node_->perf.Add(perf_end.Since(perf_start_));
      }
    }
  }

  ScopedCounters(const ScopedCounters&) = delete;
  ScopedCounters& operator=(const ScopedCounters&) = delete;

 private:
  TraceNode* node_;
  PerfCounterGroup* perf_group_;
  CallLap* lap_ = nullptr;
  PerfCounterValues perf_start_;
  uint64_t start_;
};

/// Runs `call`, one call of a bound primitive over `n` tuples, and accounts
/// it into the primitive's `leaf`, as part of the run `lap` when given.
/// Untraced steps have no leaf and pay one null test.
template <typename Call>
inline decltype(auto) TimedCall(TraceNode* leaf, int n, Call&& call,
                                CallLap* lap = nullptr) {
  if (leaf == nullptr) return call();
  leaf->next_calls++;
  leaf->batches++;
  leaf->tuples += static_cast<uint64_t>(n);
  ScopedCounters timer(leaf, lap);
  return call();
}

/// One row of the flattened trace: a primitive's calls, tuples, bytes moved
/// and cycles burned (the columns of the paper's Table 5), or an operator's
/// self share of the same.
struct PrimitiveStats {
  uint64_t calls = 0;
  uint64_t tuples = 0;
  uint64_t bytes = 0;   // input + output bytes, as in Table 3/5 bandwidth
  uint64_t cycles = 0;
  /// Hardware-counter deltas over the same windows as `cycles`. Absent
  /// (empty mask) in degraded mode — the renderers omit the columns rather
  /// than printing zeros.
  PerfCounterValues perf;

  double CyclesPerTuple() const {
    return tuples ? static_cast<double>(cycles) / static_cast<double>(tuples) : 0.0;
  }
  double Megabytes() const { return static_cast<double>(bytes) / 1e6; }
  /// MB/s given the measured cycle frequency.
  double Bandwidth() const;
  double Micros() const;

  bool HasIpc() const { return perf.HasIpc(); }
  double Ipc() const { return perf.Ipc(); }
  bool HasCacheMisses() const { return perf.Has(PerfEvent::kCacheMisses); }
  double CacheMissesPerTuple() const {
    return tuples ? static_cast<double>(perf.Get(PerfEvent::kCacheMisses)) /
                        static_cast<double>(tuples)
                  : 0.0;
  }
};

/// The Table 5 view of a trace. A plan run with ExecContext::profiler set
/// (and no ExecContext::trace) records into the tree this Profiler owns;
/// Rows() flattens it.
class Profiler {
 public:
  QueryTrace* tree() { return &tree_; }
  const QueryTrace* tree() const { return &tree_; }

  /// Primitive leaves summed by name, in the post-order of the tree
  /// (pipeline order: a plan's operators bottom-up, within an operator its
  /// steps in bind order), then operator rows summed by label. An operator
  /// row holds its nodes' self cycles net of their primitive leaves, so the
  /// rows partition the traced cycles; its tuples are the operator's output
  /// tuples. The pointers stay valid until the next call.
  std::vector<std::pair<std::string, const PrimitiveStats*>> Rows() const;

  /// Renders a Table 5-style trace.
  std::string ToString() const;

  /// Machine-readable trace: [{"name","calls","tuples","bytes","cycles",
  /// "cycles_per_tuple","megabytes","micros","mb_per_sec"}, ...] in row
  /// order. Rows measured with hardware counters additionally carry
  /// "hw_cycles","instructions","ipc","cache_references","cache_misses",
  /// "cache_misses_per_tuple","branch_instructions","branch_misses" — these
  /// keys are OMITTED (not zero) when counters were unavailable.
  std::string ToJson() const;

 private:
  QueryTrace tree_;
  mutable std::vector<std::pair<std::string, PrimitiveStats>> rows_;
};

}  // namespace x100

#endif  // X100_COMMON_PROFILING_H_
