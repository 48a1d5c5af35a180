#include "common/profiling.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/json.h"

namespace x100 {

uint64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CyclesPerNanosecond() {
  static const double kRate = [] {
    uint64_t c0 = ReadCycleCounter();
    uint64_t n0 = NowNanos();
    // Busy-wait ~2ms; enough to get a stable ratio.
    while (NowNanos() - n0 < 2000000) {
    }
    uint64_t c1 = ReadCycleCounter();
    uint64_t n1 = NowNanos();
    return static_cast<double>(c1 - c0) / static_cast<double>(n1 - n0);
  }();
  return kRate;
}

double PrimitiveStats::Bandwidth() const {
  double secs = static_cast<double>(cycles) / CyclesPerNanosecond() / 1e9;
  return secs > 0 ? Megabytes() / secs : 0.0;
}

double PrimitiveStats::Micros() const {
  return static_cast<double>(cycles) / CyclesPerNanosecond() / 1e3;
}

PerfCounterValues TraceNode::SelfPerf() const {
  PerfCounterValues child_sum;
  for (const TraceNode* ch : children) child_sum.Add(ch->perf);
  PerfCounterValues self = perf;
  for (int i = 0; i < kNumPerfEvents; i++) {
    PerfEvent e = static_cast<PerfEvent>(i);
    if (!self.Has(e) || !child_sum.Has(e)) continue;
    uint64_t c = child_sum.Get(e);
    self.Set(e, self.Get(e) > c ? self.Get(e) - c : 0);
  }
  return self;
}

TraceNode* QueryTrace::NewNode(std::string label, std::string detail,
                               std::vector<TraceNode*> children) {
  nodes_.emplace_back();
  TraceNode* n = &nodes_.back();
  n->label = std::move(label);
  n->detail = std::move(detail);
  n->children = std::move(children);
  for (TraceNode* child : n->children) {
    for (size_t i = 0; i < roots_.size(); i++) {
      if (roots_[i] == child) {
        roots_.erase(roots_.begin() + static_cast<ptrdiff_t>(i));
        break;
      }
    }
  }
  roots_.push_back(n);
  return n;
}

TraceNode* QueryTrace::NewLeaf(TraceNode* parent, std::string name,
                               uint64_t bytes_per_tuple, std::string detail) {
  nodes_.emplace_back();
  TraceNode* n = &nodes_.back();
  n->label = std::move(name);
  n->detail = std::move(detail);
  n->primitive = true;
  n->bytes_per_tuple = bytes_per_tuple;
  parent->children.push_back(n);
  return n;
}

void QueryTrace::AttachChild(TraceNode* parent, TraceNode* child) {
  parent->children.push_back(child);
  for (size_t i = 0; i < roots_.size(); i++) {
    if (roots_[i] == child) {
      roots_.erase(roots_.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
}

namespace {

uint64_t TotalSelfCycles(const TraceNode* n) {
  uint64_t total = n->SelfCycles();
  for (const TraceNode* c : n->children) total += TotalSelfCycles(c);
  return total;
}

void RenderNode(const TraceNode* n, const std::string& prefix, bool last,
                bool is_root, uint64_t total_self, std::string* out) {
  char line[512];
  std::string branch =
      is_root ? "" : prefix + (last ? "└─ " : "├─ ");
  std::string head = branch + n->label;
  if (!n->detail.empty()) head += "(" + n->detail + ")";
  double pct = total_self
                   ? 100.0 * static_cast<double>(n->SelfCycles()) /
                         static_cast<double>(total_self)
                   : 0.0;
  std::snprintf(line, sizeof(line),
                "%-44s calls=%-6llu batches=%-6llu tuples=%-10llu "
                "cyc/tup=%-8.1f self=%4.1f%%\n",
                head.c_str(), static_cast<unsigned long long>(n->next_calls),
                static_cast<unsigned long long>(n->batches),
                static_cast<unsigned long long>(n->tuples),
                n->SelfCyclesPerTuple(), pct);
  *out += line;
  PerfCounterValues self_perf = n->SelfPerf();
  if (!n->counters.empty() || self_perf.any()) {
    std::string extras = is_root ? "" : prefix + (last ? "   " : "│  ");
    extras += "  ·";
    if (self_perf.HasIpc()) {
      std::snprintf(line, sizeof(line), " ipc=%.2f", self_perf.Ipc());
      extras += line;
    }
    if (self_perf.Has(PerfEvent::kCacheMisses) && n->tuples > 0) {
      std::snprintf(line, sizeof(line), " llcmiss/tup=%.3f",
                    static_cast<double>(
                        self_perf.Get(PerfEvent::kCacheMisses)) /
                        static_cast<double>(n->tuples));
      extras += line;
    }
    if (self_perf.Has(PerfEvent::kBranchMisses) &&
        self_perf.Has(PerfEvent::kBranchInstructions) &&
        self_perf.Get(PerfEvent::kBranchInstructions) > 0) {
      std::snprintf(line, sizeof(line), " brmiss=%.2f%%",
                    100.0 *
                        static_cast<double>(
                            self_perf.Get(PerfEvent::kBranchMisses)) /
                        static_cast<double>(
                            self_perf.Get(PerfEvent::kBranchInstructions)));
      extras += line;
    }
    for (const auto& kv : n->counters) {
      std::snprintf(line, sizeof(line), " %s=%llu", kv.first.c_str(),
                    static_cast<unsigned long long>(kv.second));
      extras += line;
    }
    *out += extras + "\n";
  }
  std::string child_prefix =
      is_root ? "" : prefix + (last ? "   " : "│  ");
  for (size_t i = 0; i < n->children.size(); i++) {
    RenderNode(n->children[i], child_prefix, i + 1 == n->children.size(),
               false, total_self, out);
  }
}

void NodeToJson(const TraceNode* n, JsonWriter* w) {
  w->BeginObject();
  if (!n->plan_name.empty()) {
    w->Key("plan");
    w->Value(n->plan_name);
  }
  w->Key("label"); w->Value(n->label);
  if (!n->detail.empty()) {
    w->Key("detail");
    w->Value(n->detail);
  }
  w->Key("next_calls"); w->Value(n->next_calls);
  w->Key("batches"); w->Value(n->batches);
  w->Key("tuples"); w->Value(n->tuples);
  w->Key("cycles"); w->Value(n->cycles);
  w->Key("self_cycles"); w->Value(n->SelfCycles());
  w->Key("self_cycles_per_tuple"); w->Value(n->SelfCyclesPerTuple());
  if (n->perf.any()) {
    w->Key("hw");
    w->BeginObject();
    for (int i = 0; i < kNumPerfEvents; i++) {
      PerfEvent e = static_cast<PerfEvent>(i);
      if (!n->perf.Has(e)) continue;
      w->Key(PerfEventName(e));
      w->Value(n->perf.Get(e));
    }
    PerfCounterValues self = n->SelfPerf();
    if (self.HasIpc()) {
      w->Key("self_ipc");
      w->Value(self.Ipc());
    }
    if (self.Has(PerfEvent::kCacheMisses) && n->tuples > 0) {
      w->Key("self_cache_misses_per_tuple");
      w->Value(static_cast<double>(self.Get(PerfEvent::kCacheMisses)) /
               static_cast<double>(n->tuples));
    }
    w->EndObject();
  }
  if (!n->counters.empty()) {
    w->Key("counters");
    w->BeginObject();
    for (const auto& kv : n->counters) {
      w->Key(kv.first);
      w->Value(kv.second);
    }
    w->EndObject();
  }
  w->Key("children");
  w->BeginArray();
  for (const TraceNode* c : n->children) NodeToJson(c, w);
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string QueryTrace::ToString() const {
  uint64_t total_self = 0;
  for (const TraceNode* r : roots_) total_self += TotalSelfCycles(r);
  std::string out;
  for (const TraceNode* r : roots_) {
    if (!r->plan_name.empty()) out += "[" + r->plan_name + "]\n";
    RenderNode(r, "", true, true, total_self, &out);
  }
  return out;
}

std::string QueryTrace::ToJson() const {
  JsonWriter w;
  w.BeginArray();
  for (const TraceNode* r : roots_) NodeToJson(r, &w);
  w.EndArray();
  return std::move(w).Take();
}

namespace {

using NamedRows = std::vector<std::pair<std::string, PrimitiveStats>>;

// Adds `n`'s subtree in post-order to the primitive or the operator rows:
// a node's own share (its self cycles; a leaf has no children) under its
// label.
void Flatten(const TraceNode* n, NamedRows* prims, NamedRows* ops) {
  for (const TraceNode* c : n->children) Flatten(c, prims, ops);
  NamedRows* rows = n->primitive ? prims : ops;
  auto it = std::find_if(rows->begin(), rows->end(),
                         [&](const auto& r) { return r.first == n->label; });
  if (it == rows->end()) {
    rows->emplace_back(n->label, PrimitiveStats());
    it = rows->end() - 1;
  }
  PrimitiveStats& row = it->second;
  row.calls += n->next_calls;
  row.tuples += n->tuples;
  row.bytes += n->tuples * n->bytes_per_tuple;
  row.cycles += n->SelfCycles();
  row.perf.Add(n->SelfPerf());
}

}  // namespace

std::vector<std::pair<std::string, const PrimitiveStats*>> Profiler::Rows() const {
  NamedRows ops;
  rows_.clear();
  for (const TraceNode* r : tree_.roots()) Flatten(r, &rows_, &ops);
  rows_.insert(rows_.end(), ops.begin(), ops.end());
  std::vector<std::pair<std::string, const PrimitiveStats*>> rows;
  rows.reserve(rows_.size());
  for (const auto& [name, s] : rows_) rows.emplace_back(name, &s);
  return rows;
}

std::string Profiler::ToString() const {
  std::vector<std::pair<std::string, const PrimitiveStats*>> rows = Rows();
  bool have_hw = false;
  for (const auto& [name, s] : rows) have_hw |= s->perf.any();
  std::string out;
  char line[320];
  std::snprintf(line, sizeof(line), "%-12s %8s %10s %9s %7s", "input count",
                "MB", "time(us)", "MB/s", "cyc/tup");
  out += line;
  if (have_hw) {
    std::snprintf(line, sizeof(line), " %6s %9s", "ipc", "miss/tup");
    out += line;
  }
  out += "  primitive\n";
  for (const auto& [name, s] : rows) {
    std::snprintf(line, sizeof(line), "%-12llu %8.1f %10.0f %9.0f %7.1f",
                  static_cast<unsigned long long>(s->tuples), s->Megabytes(),
                  s->Micros(), s->Bandwidth(), s->CyclesPerTuple());
    out += line;
    if (have_hw) {
      // A row without counters renders "-", never a fake 0.
      if (s->HasIpc()) {
        std::snprintf(line, sizeof(line), " %6.2f", s->Ipc());
      } else {
        std::snprintf(line, sizeof(line), " %6s", "-");
      }
      out += line;
      if (s->HasCacheMisses()) {
        std::snprintf(line, sizeof(line), " %9.3f", s->CacheMissesPerTuple());
      } else {
        std::snprintf(line, sizeof(line), " %9s", "-");
      }
      out += line;
    }
    out += "  " + name + "\n";
  }
  return out;
}

std::string Profiler::ToJson() const {
  JsonWriter w;
  w.BeginArray();
  for (const auto& [name, s] : Rows()) {
    w.BeginObject();
    w.Key("name"); w.Value(name);
    w.Key("calls"); w.Value(s->calls);
    w.Key("tuples"); w.Value(s->tuples);
    w.Key("bytes"); w.Value(s->bytes);
    w.Key("cycles"); w.Value(s->cycles);
    w.Key("cycles_per_tuple"); w.Value(s->CyclesPerTuple());
    w.Key("megabytes"); w.Value(s->Megabytes());
    w.Key("micros"); w.Value(s->Micros());
    w.Key("mb_per_sec"); w.Value(s->Bandwidth());
    if (s->perf.Has(PerfEvent::kCycles)) {
      w.Key("hw_cycles");
      w.Value(s->perf.Get(PerfEvent::kCycles));
    }
    if (s->perf.Has(PerfEvent::kInstructions)) {
      w.Key("instructions");
      w.Value(s->perf.Get(PerfEvent::kInstructions));
    }
    if (s->HasIpc()) {
      w.Key("ipc");
      w.Value(s->Ipc());
    }
    if (s->perf.Has(PerfEvent::kCacheReferences)) {
      w.Key("cache_references");
      w.Value(s->perf.Get(PerfEvent::kCacheReferences));
    }
    if (s->HasCacheMisses()) {
      w.Key("cache_misses");
      w.Value(s->perf.Get(PerfEvent::kCacheMisses));
      w.Key("cache_misses_per_tuple");
      w.Value(s->CacheMissesPerTuple());
    }
    if (s->perf.Has(PerfEvent::kBranchInstructions)) {
      w.Key("branch_instructions");
      w.Value(s->perf.Get(PerfEvent::kBranchInstructions));
    }
    if (s->perf.Has(PerfEvent::kBranchMisses)) {
      w.Key("branch_misses");
      w.Value(s->perf.Get(PerfEvent::kBranchMisses));
    }
    w.EndObject();
  }
  w.EndArray();
  return std::move(w).Take();
}

}  // namespace x100
