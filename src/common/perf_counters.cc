#include "common/perf_counters.h"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/config.h"
#include "common/metrics.h"
#include "common/profiling.h"

#if defined(__linux__)
#include <asm/unistd.h>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <unistd.h>
#endif

namespace x100 {

const char* PerfEventName(PerfEvent e) {
  switch (e) {
    case PerfEvent::kCycles: return "cycles";
    case PerfEvent::kInstructions: return "instructions";
    case PerfEvent::kCacheReferences: return "cache_references";
    case PerfEvent::kCacheMisses: return "cache_misses";
    case PerfEvent::kBranchInstructions: return "branch_instructions";
    case PerfEvent::kBranchMisses: return "branch_misses";
  }
  return "unknown";
}

namespace {

std::atomic<bool> g_force_disabled{false};

/// X100_PERF=0 turns the layer off declaratively (strict-knob contract);
/// default 1. Read once.
bool EnvPerfEnabled() {
  static const bool kEnabled = EnvIntInRange("X100_PERF", 1, 0, 1) != 0;
  return kEnabled;
}

void WarnUnavailableOnce(int err) {
  static std::once_flag flag;
  std::call_once(flag, [err] {
    std::fprintf(stderr,
                 "[perf] hardware counters unavailable (%s); EXPLAIN ANALYZE "
                 "and bench output will omit instructions/cache fields "
                 "(check /proc/sys/kernel/perf_event_paranoid)\n",
                 std::strerror(err));
    MetricsRegistry::Get().GetCounter("perf.unavailable")->Inc();
  });
}

#if defined(__linux__)
long PerfEventOpen(perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
                   unsigned long flags) {
  return syscall(__NR_perf_event_open, attr, pid, cpu, group_fd, flags);
}

uint64_t PerfEventConfig(PerfEvent e) {
  switch (e) {
    case PerfEvent::kCycles: return PERF_COUNT_HW_CPU_CYCLES;
    case PerfEvent::kInstructions: return PERF_COUNT_HW_INSTRUCTIONS;
    case PerfEvent::kCacheReferences: return PERF_COUNT_HW_CACHE_REFERENCES;
    case PerfEvent::kCacheMisses: return PERF_COUNT_HW_CACHE_MISSES;
    case PerfEvent::kBranchInstructions:
      return PERF_COUNT_HW_BRANCH_INSTRUCTIONS;
    case PerfEvent::kBranchMisses: return PERF_COUNT_HW_BRANCH_MISSES;
  }
  return 0;
}
#endif

/// Emits the PMU-vs-rdtsc calibration cross-check once per process: rdtsc
/// is typically the base clock while PERF_COUNT_HW_CPU_CYCLES is the core
/// clock (turbo/throttling), and a silent >10% skew would distort every
/// cycles->micros conversion the Profiler prints. Runs a ~2ms spin against
/// an already-enabled group.
void MaybeCheckCalibration(PerfCounterGroup* group) {
  static std::once_flag flag;
  std::call_once(flag, [group] {
    PerfCounterValues p0, p1;
    if (!group->Read(&p0)) return;
    uint64_t n0 = NowNanos();
    uint64_t c0 = ReadCycleCounter();
    while (NowNanos() - n0 < 2'000'000) {
    }
    uint64_t c1 = ReadCycleCounter();
    uint64_t n1 = NowNanos();
    if (!group->Read(&p1)) return;
    PerfCounterValues d = p1.Since(p0);
    if (!d.Has(PerfEvent::kCycles) || n1 == n0) return;
    double perf_rate = static_cast<double>(d.Get(PerfEvent::kCycles)) /
                       static_cast<double>(n1 - n0);
    double rdtsc_rate = static_cast<double>(c1 - c0) /
                        static_cast<double>(n1 - n0);
    MetricsRegistry::Get().GetGauge("perf.cycles_per_ns")->Set(perf_rate);
    MetricsRegistry::Get()
        .GetGauge("perf.rdtsc_cycles_per_ns")
        ->Set(rdtsc_rate);
    // Compare against the conversion rate the Profiler actually uses.
    double used_rate = CyclesPerNanosecond();
    if (rdtsc_rate <= 0 || used_rate <= 0) return;
    double ratio = perf_rate / used_rate;
    if (std::fabs(ratio - 1.0) > 0.10) {
      MetricsRegistry::Get().GetCounter("perf.calibration_mismatch")->Inc();
      std::fprintf(stderr,
                   "[perf] cycle-rate calibration skew: PMU measures %.3f "
                   "cycles/ns but rdtsc-derived rate is %.3f — micros/MB-s "
                   "columns derived from rdtsc may be off by %.0f%%\n",
                   perf_rate, used_rate, 100.0 * std::fabs(ratio - 1.0));
    }
  });
}

}  // namespace

PerfCounterGroup::PerfCounterGroup() {
  for (int i = 0; i < kNumPerfEvents; i++) fds_[i] = -1;
#if defined(__linux__)
  perf_event_attr pe;
  for (int i = 0; i < kNumPerfEvents; i++) {
    PerfEvent e = static_cast<PerfEvent>(i);
    std::memset(&pe, 0, sizeof(pe));
    pe.type = PERF_TYPE_HARDWARE;
    pe.size = sizeof(pe);
    pe.config = PerfEventConfig(e);
    pe.disabled = leader_fd_ < 0 ? 1 : 0;  // group starts disabled
    pe.exclude_kernel = 1;
    pe.exclude_hv = 1;
    pe.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
    int fd = static_cast<int>(
        PerfEventOpen(&pe, /*pid=*/0, /*cpu=*/-1, leader_fd_, 0));
    if (fd < 0) {
      if (leader_fd_ < 0) {
        // No leader means no group at all: degraded mode for this thread
        // (and in practice the whole process — availability is a kernel /
        // container property, not a per-thread one).
        WarnUnavailableOnce(errno);
        return;
      }
      continue;  // skip just this member (PMU without that event)
    }
    if (leader_fd_ < 0) leader_fd_ = fd;
    fds_[i] = fd;
    open_order_[num_open_++] = e;
  }
#else
  WarnUnavailableOnce(ENOSYS);
#endif
}

PerfCounterGroup::~PerfCounterGroup() {
#if defined(__linux__)
  for (int i = kNumPerfEvents - 1; i >= 0; i--) {
    if (fds_[i] >= 0) close(fds_[i]);
  }
#endif
}

void PerfCounterGroup::Enable() {
#if defined(__linux__)
  if (leader_fd_ < 0) return;
  ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
#endif
}

void PerfCounterGroup::Disable() {
#if defined(__linux__)
  if (leader_fd_ < 0) return;
  ioctl(leader_fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
#endif
}

bool PerfCounterGroup::Read(PerfCounterValues* out) const {
  *out = PerfCounterValues{};
#if defined(__linux__)
  if (leader_fd_ < 0) return false;
  // PERF_FORMAT_GROUP layout: nr, time_enabled, time_running, values[nr].
  uint64_t buf[3 + kNumPerfEvents];
  ssize_t want = static_cast<ssize_t>((3 + num_open_) * sizeof(uint64_t));
  ssize_t got = read(leader_fd_, buf, sizeof(buf));
  if (got < want || static_cast<int>(buf[0]) != num_open_) return false;
  uint64_t enabled = buf[1], running = buf[2];
  if (running == 0) return false;  // group never got PMU time: absent
  // Multiplexing scaling: when other groups contended for the PMU the
  // kernel time-sliced this one; extrapolate to the full enabled window.
  double scale = running < enabled
                     ? static_cast<double>(enabled) /
                           static_cast<double>(running)
                     : 1.0;
  for (int i = 0; i < num_open_; i++) {
    uint64_t raw = buf[3 + i];
    uint64_t val = scale == 1.0
                       ? raw
                       : static_cast<uint64_t>(
                             std::llround(static_cast<double>(raw) * scale));
    out->Set(open_order_[i], val);
  }
  return true;
#else
  return false;
#endif
}

namespace {

struct ThreadPerfState {
  std::unique_ptr<PerfCounterGroup> group;  // created once, cached
  int depth = 0;
};

ThreadPerfState& State() {
  static thread_local ThreadPerfState state;
  return state;
}

}  // namespace

namespace perf_internal {
constinit thread_local PerfCounterGroup* current_group = nullptr;
}  // namespace perf_internal

PerfCounterValues ReadThreadPerfCounters() {
  PerfCounterValues v;
  PerfCounterGroup* g = CurrentThreadPerfGroup();
  if (g != nullptr) g->Read(&v);
  return v;
}

bool PerfCountersSupported() {
  if (g_force_disabled.load(std::memory_order_relaxed)) return false;
  if (!EnvPerfEnabled()) return false;
  // One probe group per process answers "does the kernel let us?"; its fds
  // close immediately.
  static const bool kKernelOk = [] {
    PerfCounterGroup probe;
    return probe.available();
  }();
  return kKernelOk;
}

void SetPerfForceDisabledForTest(bool disabled) {
  g_force_disabled.store(disabled, std::memory_order_relaxed);
}

ScopedPerfThread::ScopedPerfThread(bool want) {
  if (!want || !PerfCountersSupported()) return;
  ThreadPerfState& st = State();
  if (st.group == nullptr) st.group = std::make_unique<PerfCounterGroup>();
  if (!st.group->available()) return;
  installed_ = true;
  group_ = st.group.get();
  if (st.depth++ == 0) {
    perf_internal::current_group = group_;
    group_->Enable();
    MaybeCheckCalibration(group_);
  }
}

ScopedPerfThread::~ScopedPerfThread() {
  if (!installed_) return;
  ThreadPerfState& st = State();
  if (--st.depth == 0) {
    perf_internal::current_group = nullptr;
    st.group->Disable();
  }
}

}  // namespace x100
