#ifndef X100_STORAGE_SNAPSHOT_H_
#define X100_STORAGE_SNAPSHOT_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace x100 {

/// An epoch-consistent view of one table, pinned for the duration of a
/// query. Scans must take ALL bounds from here — fragment_rows, the delta
/// high-water mark (total_rows), and the deletion list — and never from the
/// live Table, which concurrent writers keep moving.
///
/// Validity contract: rows below `total_rows` were fully written (and their
/// publication ordered) before this snapshot was handed out; the deletion
/// list is an immutable copy-on-write vector. Delta column storage never
/// reallocates while any snapshot is pinned (writers re-reserve capacity and
/// swap fragments only behind the fence, which drains pins first), so raw
/// pointers taken from the table's columns stay valid for the pin's
/// lifetime.
struct TableSnapshot {
  uint64_t epoch = 0;
  int64_t fragment_rows = 0;
  int64_t fragment_version = 0;
  int64_t total_rows = 0;  // fragment_rows + published delta rows
  std::shared_ptr<const std::vector<int64_t>> deleted;  // sorted rowids
};

/// The set of table snapshots one query executes against, keyed by table
/// name. Owning the shared_ptrs holds the pins; destroying the set releases
/// them (unblocking any writer waiting to fence).
struct SnapshotSet {
  std::map<std::string, std::shared_ptr<const TableSnapshot>> tables;

  const TableSnapshot* Find(const std::string& name) const {
    auto it = tables.find(name);
    return it == tables.end() ? nullptr : it->second.get();
  }
};

/// MVCC write path over a frozen Table, in place (plans resolve `const
/// Table&` at build time, so the Table object itself must never move).
///
/// Concurrency model:
///  - Any number of readers Pin() snapshots concurrently with writers.
///  - Writers (Append/Delete/Merge) are serialized by an internal mutex;
///    when tables reference each other through join indices, ALL writers of
///    the group must additionally be serialized externally (DurableStore
///    holds one store-wide write mutex) because Append reads target tables
///    to maintain `#ji_*` columns.
///  - Fast-path appends touch only pre-reserved delta storage beyond the
///    published high-water mark, then publish a new snapshot; no reader can
///    observe a torn row. Structural changes (delta capacity growth, novel
///    enum dictionary values, code widening, merge installation) fence:
///    block new pins, drain existing ones, mutate, publish, unfence.
///  - Merge stages the O(rows) fold off-fence (BuildMerged + join-index
///    copy), then swaps it in under the fence.
class MvccTable {
 public:
  /// `table` must be frozen and outlive this object. `reserve_delta_rows`
  /// is the delta capacity pre-reserved between fences (appends beyond it
  /// re-reserve behind a fence).
  MvccTable(Table* table, int64_t reserve_delta_rows);

  MvccTable(const MvccTable&) = delete;
  MvccTable& operator=(const MvccTable&) = delete;

  /// Declares how Append computes the `#ji_<target_name>` column: hash-join
  /// `fk_cols` of this table against `key_cols` of `target` (must match the
  /// Table::BuildJoinIndex that built the column). Every `#ji_*` column in
  /// the schema needs a registration before Append will succeed.
  void RegisterJoinIndex(std::vector<std::string> fk_cols, const Table* target,
                         std::vector<std::string> key_cols,
                         std::string target_name);

  /// Pins the current snapshot. Blocks while a writer holds the fence.
  std::shared_ptr<const TableSnapshot> Pin();

  /// Appends one row (values for the declared columns only; join-index
  /// columns are computed here). Returns an error for arity/type problems,
  /// dangling foreign keys, or an enum dictionary past 65536 entries.
  Status Append(const std::vector<Value>& row);

  /// Marks `rowid` deleted (copy-on-write list; O(d) per call).
  Status Delete(int64_t rowid);

  /// Folds deltas + deletions into fresh fragments (order-preserving, so
  /// aggregates are bit-identical), reassigning #rowIds. Join-index columns
  /// of THIS table are carried over; tables whose join indices point AT
  /// this table are stale afterwards — DurableStore only merges tables
  /// without dependents in the background.
  Status Merge();

  Table* table() { return table_; }
  const Table& table() const { return *table_; }
  /// Published delta row count (safe to poll concurrently with writers).
  int64_t delta_rows() const;
  /// Delta rows reserved ahead of the next capacity fence.
  int64_t delta_capacity() const;
  uint64_t epoch() const;

 private:
  struct JiSpec {
    std::vector<int> fk_idx;   // spec-column indices in this table
    const Table* target;
    std::vector<int> key_idx;  // column indices in target
    std::string target_name;
    int self_col = -1;  // schema index of the #ji_ column
    // Incremental key -> target-rowid cache, rebuilt when the target's
    // fragments are swapped (merge reassigns its rowids).
    std::unordered_map<int64_t, int64_t> key_to_row;
    int64_t scanned_rows = 0;
    int64_t cached_version = -1;
  };

  void PublishLocked();  // state_mu_ held
  template <typename Fn>
  void FenceAndRun(Fn fn);
  void ReserveDeltas();
  Status JiLookup(JiSpec* spec, const std::vector<Value>& row, int64_t* out);

  Table* table_;
  int num_specs_;  // declared (non-ji) columns

  mutable std::mutex write_mu_;  // serializes Append/Delete/Merge
  int64_t delta_capacity_;
  std::vector<JiSpec> ji_;

  mutable std::mutex state_mu_;  // snapshot/pin/fence state
  std::condition_variable cv_fence_;  // pinners wait for !fence_
  std::condition_variable cv_pins_;   // fencer waits for pins_ == 0
  std::shared_ptr<const TableSnapshot> current_;
  uint64_t epoch_ = 0;
  int pins_ = 0;
  bool fence_ = false;
};

}  // namespace x100

#endif  // X100_STORAGE_SNAPSHOT_H_
