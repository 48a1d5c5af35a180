#ifndef X100_STORAGE_DISK_STORE_H_
#define X100_STORAGE_DISK_STORE_H_

// On-disk ColumnBM storage (§4.3): per-column chunk files plus a per-table
// manifest, under one root directory. This is the layer the paper's ColumnBM
// was meant to provide — "large (>1MB) chunks" of vertically fragmented data
// on real files — so the engine's "Disk" hierarchy level is exercised by
// actual I/O rather than a std::map simulation.
//
// Chunk-file layout (one file per column, per-block codec-encoded payloads):
//
//   FileHeader   { magic "X100COL2", version, flags, value_width, crc32 }
//   payload      block 0 bytes ... block N-1 bytes (back to back)
//   footer       N * BlockEntry { offset, bytes, value_count, crc32, codec }
//   FooterTail   { num_blocks, footer_bytes, crc32(entries), magic }
//
// The footer is found from the fixed-size tail at the end of the file, so
// files are written strictly append-only (no seek-back patching). Every
// region is checksummed (CRC-32): the header at open, the footer at open,
// each block's payload on every read from disk.
//
// Format: v2 ("X100COL2"), whose footer entries carry a CodecId per block so
// the freeze path can pick the cheapest codec block by block. v1 files
// ("X100COL1", no codec ids) are no longer read: OpenMeta rejects them with
// an error Status, like unknown codec ids and any other corruption.
//
// The per-table manifest ("<table>.manifest") lists the table's column files
// with their payload sizes and whole-file checksums, so a table image can be
// validated or shipped as a unit.

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/compression.h"

namespace x100 {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) — the checksum used by the
/// chunk-file format. `seed` chains incremental computations.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

class DiskStore {
 public:
  struct BlockMeta {
    uint64_t offset = 0;       // payload offset in file
    uint64_t bytes = 0;        // payload size
    int64_t value_count = 0;   // decoded values in the block
    uint32_t crc = 0;          // CRC-32 of the payload
    CodecId codec = CodecId::kRaw;  // how the payload is encoded
  };

  struct FileMeta {
    bool compressed = false;
    size_t value_width = 0;    // bytes per decoded value (0 if raw/unknown)
    std::vector<BlockMeta> blocks;
    uint64_t payload_bytes = 0;  // sum of block payload sizes
  };

  struct ManifestEntry {
    std::string file;          // chunk-file name relative to the root
    uint64_t payload_bytes = 0;
    uint64_t num_blocks = 0;
    uint32_t crc = 0;          // CRC-32 chained over all block payload CRCs
    bool compressed = false;
  };

  /// Creates `root` (one level) if it does not exist.
  explicit DiskStore(std::string root);
  ~DiskStore();

  DiskStore(const DiskStore&) = delete;
  DiskStore& operator=(const DiskStore&) = delete;

  const std::string& root() const { return root_; }
  std::string PathFor(const std::string& name) const;

  /// Append-only writer for one chunk file; obtained from NewFile(). The
  /// file is not readable until Finish() has written the footer.
  class Writer {
   public:
    ~Writer();
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

    /// Appends one block's payload (raw column bytes or one codec-encoded
    /// block) and records its footer entry, including the codec id.
    Status AppendBlock(const void* data, size_t bytes, int64_t value_count,
                       CodecId codec = CodecId::kRaw);

    /// Writes the footer + tail and closes the file. Must be called last.
    Status Finish();

   private:
    friend class DiskStore;
    Writer(std::FILE* f, std::string path, bool compressed,
           size_t value_width);

    std::FILE* f_;
    std::string path_;
    std::vector<BlockMeta> blocks_;
    uint64_t offset_;
    bool finished_ = false;
  };

  /// Starts writing chunk file `name` (truncates any previous version).
  /// Returns nullptr (and sets *status) if the file cannot be created.
  std::unique_ptr<Writer> NewFile(const std::string& name, bool compressed,
                                  size_t value_width, Status* status);

  bool Exists(const std::string& name) const;

  /// Reads and verifies the header + footer of `name` into *meta.
  Status OpenMeta(const std::string& name, FileMeta* meta);

  /// Reads block `b`'s payload into `buf` (>= meta.blocks[b].bytes) with
  /// pread and verifies its checksum. Thread-safe; file descriptors are
  /// cached per file.
  Status ReadBlock(const std::string& name, const FileMeta& meta, size_t b,
                   void* buf);

  /// Drops the cached descriptor for `name` (a rewritten file gets a fresh
  /// fd on next read).
  void Forget(const std::string& name);

  // -- per-table manifest --

  Status WriteManifest(const std::string& table,
                       const std::vector<ManifestEntry>& entries);
  Status ReadManifest(const std::string& table,
                      std::vector<ManifestEntry>* out);

  static constexpr char kMagic[8] = {'X', '1', '0', '0', 'C', 'O', 'L', '2'};
  static constexpr uint32_t kVersion = 2;
  static constexpr uint32_t kFlagCompressed = 1;

 private:
  int FdFor(const std::string& name, Status* status);

  std::string root_;
  mutable std::mutex mu_;          // guards fds_
  std::map<std::string, int> fds_;
};

}  // namespace x100

#endif  // X100_STORAGE_DISK_STORE_H_
