#ifndef X100_COMMON_PERF_COUNTERS_H_
#define X100_COMMON_PERF_COUNTERS_H_

// Hardware performance counters via perf_event_open — the measurement layer
// behind the paper's Table 5 argument. rdtsc gives cycles (the "time"
// column); reproducing the *why* (IPC, cache behaviour, branch mispredicts
// per primitive) needs the PMU. One PerfCounterGroup holds six hardware
// events (cycles, instructions, cache-references, cache-misses,
// branch-instructions, branch-misses) opened as a perf group — fds sharing a
// leader so the kernel schedules them onto the PMU as a unit and one read()
// with PERF_FORMAT_GROUP snapshots all of them coherently.
//
// Degraded mode is a first-class state, not an error: perf_event_open is
// routinely unavailable (perf_event_paranoid, seccomp in CI containers, VMs
// without PMU virtualization). Counters then report as ABSENT — a
// PerfCounterValues with an empty mask — never as zeros that could be
// mistaken for real measurements. A one-line warning is emitted once per
// process; everything else (cycles, wall time) is unaffected.
//
// Threading model: a group counts the thread that created it (pid=0,
// cpu=-1). ScopedPerfThread installs a lazily-created, cached group as the
// calling thread's current group; measurement sites (ScopedCounters,
// MeasureReps, QueryService drivers) read deltas from
// CurrentThreadPerfGroup() and accumulate them into their own stats.
// Exchange workers each install their own group; their per-node values are
// summed at trace-merge, exactly like cycles.

#include <cstdint>

namespace x100 {

/// The six grouped hardware events, in fd-open (and storage) order.
enum class PerfEvent {
  kCycles = 0,
  kInstructions,
  kCacheReferences,
  kCacheMisses,
  kBranchInstructions,
  kBranchMisses,
};
inline constexpr int kNumPerfEvents = 6;

/// Stable JSON/metric key for an event ("cycles", "instructions",
/// "cache_references", "cache_misses", "branch_instructions",
/// "branch_misses").
const char* PerfEventName(PerfEvent e);

/// One snapshot (or accumulated sum/delta) of the group. `mask` says which
/// events carry real data; an event outside the mask is absent, and its
/// slot's value is meaningless — renderers must skip it, not print 0.
struct PerfCounterValues {
  uint64_t v[kNumPerfEvents] = {};
  uint32_t mask = 0;

  bool any() const { return mask != 0; }
  bool Has(PerfEvent e) const {
    return (mask & (1u << static_cast<int>(e))) != 0;
  }
  uint64_t Get(PerfEvent e) const { return v[static_cast<int>(e)]; }
  void Set(PerfEvent e, uint64_t x) {
    v[static_cast<int>(e)] = x;
    mask |= 1u << static_cast<int>(e);
  }

  /// Accumulates `o` into this: union of masks, per-event sums. Summing an
  /// absent event with a present one keeps the present value (merge
  /// semantics across exchange workers whose availability never differs
  /// within one process, but stays safe if it somehow did).
  void Add(const PerfCounterValues& o) {
    for (int i = 0; i < kNumPerfEvents; i++) {
      if (o.mask & (1u << i)) v[i] += o.v[i];
    }
    mask |= o.mask;
  }

  /// end - start over the mask intersection, saturating at 0 per event
  /// (multiplexing scaling can make nested windows slightly lossy, like the
  /// serializing rdtsc reads).
  static PerfCounterValues Delta(const PerfCounterValues& start,
                                 const PerfCounterValues& end) {
    PerfCounterValues d;
    d.mask = start.mask & end.mask;
    for (int i = 0; i < kNumPerfEvents; i++) {
      if ((d.mask & (1u << i)) && end.v[i] > start.v[i]) {
        d.v[i] = end.v[i] - start.v[i];
      }
    }
    return d;
  }

  /// start-of-window snapshot minus this, element-wise; see Delta.
  PerfCounterValues Since(const PerfCounterValues& start) const {
    return Delta(start, *this);
  }

  bool HasIpc() const {
    return Has(PerfEvent::kCycles) && Has(PerfEvent::kInstructions) &&
           Get(PerfEvent::kCycles) > 0;
  }
  double Ipc() const {
    return static_cast<double>(Get(PerfEvent::kInstructions)) /
           static_cast<double>(Get(PerfEvent::kCycles));
  }
};

/// A per-thread group of hardware counters. Constructing opens the fds for
/// the calling thread; a construction that cannot open the leader leaves the
/// group unavailable (degraded mode). Individual member events that fail to
/// open (exotic PMUs) are skipped — the mask of every Read() reflects what
/// actually opened.
class PerfCounterGroup {
 public:
  PerfCounterGroup();
  ~PerfCounterGroup();

  PerfCounterGroup(const PerfCounterGroup&) = delete;
  PerfCounterGroup& operator=(const PerfCounterGroup&) = delete;

  bool available() const { return leader_fd_ >= 0; }

  /// PERF_EVENT_IOC_RESET + ENABLE on the whole group.
  void Enable();
  /// PERF_EVENT_IOC_DISABLE on the whole group.
  void Disable();

  /// Snapshots every opened counter in one read() (PERF_FORMAT_GROUP),
  /// scaled by time_enabled/time_running when the kernel multiplexed the
  /// group. Returns false — and leaves *out absent — in degraded mode, when
  /// the group never got PMU time, or on a short read.
  bool Read(PerfCounterValues* out) const;

 private:
  int leader_fd_ = -1;
  int fds_[kNumPerfEvents];
  // Events that actually opened, in fd order — the layout of the group read.
  PerfEvent open_order_[kNumPerfEvents];
  int num_open_ = 0;
};

namespace perf_internal {
/// The calling thread's installed group (set by ScopedPerfThread).
extern constinit thread_local PerfCounterGroup* current_group;
}  // namespace perf_internal

/// The calling thread's installed group, or null when none is installed
/// (plain runs pay one thread-local load and nothing else).
inline PerfCounterGroup* CurrentThreadPerfGroup() {
  return perf_internal::current_group;
}

/// Reads CurrentThreadPerfGroup() into a snapshot; absent (empty mask) when
/// no group is installed or the read degraded.
PerfCounterValues ReadThreadPerfCounters();

/// RAII installer for the calling thread's group. The group itself is
/// created once per thread and cached (perf_event_open is expensive);
/// installs nest — only the outermost enables/disables, so nested scopes
/// share one monotonic counter stream and deltas stay consistent.
/// Constructing with want=false (or under X100_PERF=0 / forced degraded
/// mode) installs nothing.
class ScopedPerfThread {
 public:
  explicit ScopedPerfThread(bool want = true);
  ~ScopedPerfThread();

  ScopedPerfThread(const ScopedPerfThread&) = delete;
  ScopedPerfThread& operator=(const ScopedPerfThread&) = delete;

  /// The installed group (null when degraded or want=false).
  PerfCounterGroup* group() const { return group_; }

 private:
  PerfCounterGroup* group_ = nullptr;
  bool installed_ = false;
};

/// True when hardware counters can be used: perf_event_open works, the
/// X100_PERF knob is not 0, and no test forced degraded mode. First call
/// probes the kernel; an unavailable PMU logs the one-line warning.
bool PerfCountersSupported();

/// Test hook: force degraded mode on/off at runtime regardless of kernel
/// support (the env knob X100_PERF=0 does the same declaratively).
void SetPerfForceDisabledForTest(bool disabled);

}  // namespace x100

#endif  // X100_COMMON_PERF_COUNTERS_H_
