#include "exec/hash_table.h"

#include <string>

#include "common/metrics.h"
#include "exec/trace.h"

namespace x100 {

namespace {

constexpr size_t kMinCapacity = 64;

}  // namespace

HashTable::HashTable() { Reset(0); }

void HashTable::Reset(size_t expected) { Clear(false, expected); }

void HashTable::ResetForBuild(size_t rows) { Clear(true, rows); }

void HashTable::Clear(bool half_load, size_t expected) {
  entries_.clear();
  entries_count_ = 0;
  capacity_ = 0;  // forces a fresh Rebuild, not counted as a grow
  half_load_ = half_load;
  EnsureCapacity(expected);
}

void HashTable::Reserve(size_t extra) {
  EnsureCapacity(entries_count_ + extra);
}

void HashTable::EnsureCapacity(size_t total_entries) {
  size_t cap = capacity_ < kMinCapacity ? kMinCapacity : capacity_;
  auto too_full = [&](size_t c) {
    if (half_load_) return total_entries * 2 > c;
    return total_entries * 8 >= c * 7;  // 7/8 load ceiling
  };
  while (too_full(cap)) cap <<= 1;
  if (cap == capacity_) return;
  if (entries_count_ > 0) stats_.grows++;
  Rebuild(cap);
}

void HashTable::Rebuild(size_t new_capacity) {
  capacity_ = new_capacity;
  mask_ = capacity_ - 1;
  slots_.assign(capacity_, Slot{0, 0});
  for (uint32_t e = 0; e < entries_count_; e++) {
    size_t i = HomeSlot(entries_[e].hash);
    while (slots_[i].entry1 != 0) i = (i + 1) & mask_;
    slots_[i] = Slot{Tag(entries_[e].hash), e + 1};
  }
}

uint32_t HashTable::NewEntry(uint64_t h, uint32_t value) {
  entries_.push_back(Entry{h, value});
  stats_.inserts++;
  return static_cast<uint32_t>(entries_count_++);
}

void HashTable::ProbeBegin(Probe* p, const uint64_t* hashes, const int* sel,
                           int n) {
  if (static_cast<int>(p->hash_.size()) < n) {
    p->hash_.resize(n);
    p->result_.resize(n);
    p->result_entry_.resize(n);
    p->cursor_.resize(n);
  }
  p->active_.clear();
  p->cand_lane_.clear();
  p->cand_entry_.clear();
  for (int j = 0; j < n; j++) {
    uint64_t h = hashes[sel != nullptr ? sel[j] : j];
    p->hash_[j] = h;
    p->result_[j] = kNone;
    p->result_entry_[j] = kNone;
    p->cursor_[j] = static_cast<uint32_t>(HomeSlot(h));
    p->active_.push_back(j);
  }
  stats_.probes += static_cast<uint64_t>(n);
}

int HashTable::ProbeRound(Probe* p) {
  p->cand_lane_.clear();
  p->cand_entry_.clear();
  if (p->active_.empty()) return 0;
  stats_.probe_rounds++;
  const int na = static_cast<int>(p->active_.size());
  for (int k = 0; k < na; k++) {
    if (k + kPrefetchDist < na) {
      __builtin_prefetch(&slots_[p->cursor_[p->active_[k + kPrefetchDist]]]);
    }
    int lane = p->active_[k];
    uint64_t h = p->hash_[lane];
    uint32_t tag = Tag(h);
    size_t i = p->cursor_[lane];
    for (;;) {
      const Slot& s = slots_[i];
      stats_.slot_scans++;
      if (s.entry1 == 0) {
        p->cursor_[lane] = static_cast<uint32_t>(i);  // InsertMiss claims here
        break;
      }
      if (s.tag == tag && entries_[s.entry1 - 1].hash == h) {
        p->cursor_[lane] = static_cast<uint32_t>((i + 1) & mask_);
        p->cand_lane_.push_back(lane);
        p->cand_entry_.push_back(s.entry1 - 1);
        stats_.candidates++;
        break;
      }
      i = (i + 1) & mask_;
    }
  }
  p->active_.clear();
  return p->cand_count();
}

bool HashTable::InsertMiss(Probe* p, int lane, uint32_t value,
                           uint32_t* cand_entry) {
  // The lane's cursor sits on the empty slot its scan drained at. Earlier
  // miss lanes of this batch may have claimed it (or slots beyond it), so
  // keep scanning: a full-hash match is a candidate the caller key-checks.
  uint64_t h = p->hash_[lane];
  uint32_t tag = Tag(h);
  size_t i = p->cursor_[lane];
  for (;;) {
    Slot& s = slots_[i];
    if (s.entry1 == 0) {
      uint32_t e = NewEntry(h, value);
      s = Slot{tag, e + 1};
      return true;
    }
    stats_.slot_scans++;
    if (s.tag == tag && entries_[s.entry1 - 1].hash == h) {
      *cand_entry = s.entry1 - 1;
      p->cursor_[lane] = static_cast<uint32_t>((i + 1) & mask_);
      stats_.candidates++;
      return false;
    }
    i = (i + 1) & mask_;
  }
}

void HashTable::PublishStats(TraceNode* node) {
  HashTableStats d;
  d.probes = stats_.probes - published_.probes;
  d.probe_rounds = stats_.probe_rounds - published_.probe_rounds;
  d.slot_scans = stats_.slot_scans - published_.slot_scans;
  d.candidates = stats_.candidates - published_.candidates;
  d.key_rejects = stats_.key_rejects - published_.key_rejects;
  d.inserts = stats_.inserts - published_.inserts;
  d.grows = stats_.grows - published_.grows;
  published_ = stats_;

  MetricsRegistry& reg = MetricsRegistry::Get();
  reg.GetCounter("ht.probes")->Add(d.probes);
  reg.GetCounter("ht.slot_scans")->Add(d.slot_scans);
  reg.GetCounter("ht.key_rejects")->Add(d.key_rejects);
  reg.GetCounter("ht.inserts")->Add(d.inserts);
  reg.GetCounter("ht.grows")->Add(d.grows);

  if (node == nullptr) return;
  node->AddCounter("ht.probes", d.probes);
  node->AddCounter("ht.probe_rounds", d.probe_rounds);
  node->AddCounter("ht.slot_scans", d.slot_scans);
  node->AddCounter("ht.candidates", d.candidates);
  node->AddCounter("ht.key_rejects", d.key_rejects);
  node->AddCounter("ht.inserts", d.inserts);
  node->AddCounter("ht.grows", d.grows);
}

}  // namespace x100
