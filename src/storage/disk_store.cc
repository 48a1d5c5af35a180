#include "storage/disk_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace x100 {

namespace {

// Serialized little-endian structs; fixed sizes are part of the format.
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t flags;
  uint32_t value_width;
  uint32_t crc;  // CRC-32 of the preceding 20 bytes
};
static_assert(sizeof(FileHeader) == 24);

struct BlockEntry {
  uint64_t offset;
  uint64_t bytes;
  int64_t value_count;
  uint32_t crc;
  uint32_t codec;  // CodecId
};
static_assert(sizeof(BlockEntry) == 32);

struct FooterTail {
  uint64_t num_blocks;
  uint64_t footer_bytes;  // byte size of the BlockEntry array
  uint32_t crc;           // CRC-32 of the BlockEntry array
  char magic[4];          // "XFTR"
};
static_assert(sizeof(FooterTail) == 24);

constexpr char kFooterMagic[4] = {'X', 'F', 'T', 'R'};

Status IoError(const std::string& what, const std::string& path) {
  return Status::Error(what + " " + path + ": " + std::strerror(errno));
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = ~seed;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; i++) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return ~c;
}

DiskStore::DiskStore(std::string root) : root_(std::move(root)) {
  // Best-effort create; a pre-existing directory is fine, real failures
  // surface as I/O errors on first file operation.
  ::mkdir(root_.c_str(), 0755);
}

DiskStore::~DiskStore() {
  for (auto& [name, fd] : fds_) {
    if (fd >= 0) ::close(fd);
  }
}

std::string DiskStore::PathFor(const std::string& name) const {
  return root_ + "/" + name;
}

bool DiskStore::Exists(const std::string& name) const {
  struct stat st;
  return ::stat(PathFor(name).c_str(), &st) == 0;
}

// ---- Writer -----------------------------------------------------------------

DiskStore::Writer::Writer(std::FILE* f, std::string path, bool compressed,
                          size_t value_width)
    : f_(f), path_(std::move(path)), offset_(sizeof(FileHeader)) {
  FileHeader h{};
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.flags = compressed ? kFlagCompressed : 0;
  h.value_width = static_cast<uint32_t>(value_width);
  h.crc = Crc32(&h, sizeof(FileHeader) - sizeof(uint32_t));
  std::fwrite(&h, sizeof(h), 1, f_);
}

DiskStore::Writer::~Writer() {
  if (f_ != nullptr) std::fclose(f_);
}

Status DiskStore::Writer::AppendBlock(const void* data, size_t bytes,
                                      int64_t value_count, CodecId codec) {
  X100_CHECK(!finished_);
  if (bytes > 0 && std::fwrite(data, 1, bytes, f_) != bytes) {
    return IoError("write", path_);
  }
  BlockMeta m;
  m.offset = offset_;
  m.bytes = bytes;
  m.value_count = value_count;
  m.crc = Crc32(data, bytes);
  m.codec = codec;
  blocks_.push_back(m);
  offset_ += bytes;
  return Status::OK();
}

Status DiskStore::Writer::Finish() {
  X100_CHECK(!finished_);
  finished_ = true;
  std::vector<BlockEntry> entries(blocks_.size());
  for (size_t i = 0; i < blocks_.size(); i++) {
    entries[i] = {blocks_[i].offset, blocks_[i].bytes, blocks_[i].value_count,
                  blocks_[i].crc,
                  static_cast<uint32_t>(blocks_[i].codec)};
  }
  size_t footer_bytes = entries.size() * sizeof(BlockEntry);
  if (!entries.empty() &&
      std::fwrite(entries.data(), 1, footer_bytes, f_) != footer_bytes) {
    return IoError("write footer", path_);
  }
  FooterTail tail{};
  tail.num_blocks = entries.size();
  tail.footer_bytes = footer_bytes;
  tail.crc = Crc32(entries.data(), footer_bytes);
  std::memcpy(tail.magic, kFooterMagic, sizeof(kFooterMagic));
  if (std::fwrite(&tail, sizeof(tail), 1, f_) != 1) {
    return IoError("write footer tail", path_);
  }
  int rc = std::fclose(f_);
  f_ = nullptr;
  if (rc != 0) return IoError("close", path_);
  return Status::OK();
}

std::unique_ptr<DiskStore::Writer> DiskStore::NewFile(const std::string& name,
                                                      bool compressed,
                                                      size_t value_width,
                                                      Status* status) {
  Forget(name);  // a cached fd would read the old file's blocks
  std::string path = PathFor(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    *status = IoError("create", path);
    return nullptr;
  }
  *status = Status::OK();
  return std::unique_ptr<Writer>(
      new Writer(f, std::move(path), compressed, value_width));
}

// ---- Reading ----------------------------------------------------------------

int DiskStore::FdFor(const std::string& name, Status* status) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fds_.find(name);
  if (it != fds_.end()) {
    *status = Status::OK();
    return it->second;
  }
  int fd = ::open(PathFor(name).c_str(), O_RDONLY);
  if (fd < 0) {
    *status = IoError("open", PathFor(name));
    return -1;
  }
  fds_[name] = fd;
  *status = Status::OK();
  return fd;
}

void DiskStore::Forget(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fds_.find(name);
  if (it != fds_.end()) {
    ::close(it->second);
    fds_.erase(it);
  }
}

namespace {
Status PreadAll(int fd, void* buf, size_t n, uint64_t offset,
                const std::string& path) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    ssize_t got = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return IoError("pread", path);
    }
    if (got == 0) return Status::Error("short read in " + path);
    p += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}
}  // namespace

Status DiskStore::OpenMeta(const std::string& name, FileMeta* meta) {
  Status s;
  int fd = FdFor(name, &s);
  if (!s.ok()) return s;
  std::string path = PathFor(name);

  struct stat st;
  if (::fstat(fd, &st) != 0) return IoError("stat", path);
  uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes < sizeof(FileHeader) + sizeof(FooterTail)) {
    return Status::Error("file too small for chunk format: " + path);
  }

  FileHeader h;
  s = PreadAll(fd, &h, sizeof(h), 0, path);
  if (!s.ok()) return s;
  if (std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Error("bad magic in " + path);
  }
  if (h.version != kVersion) {
    return Status::Error("unsupported chunk-file version in " + path);
  }
  if (h.crc != Crc32(&h, sizeof(FileHeader) - sizeof(uint32_t))) {
    return Status::Error("header checksum mismatch in " + path);
  }

  FooterTail tail;
  s = PreadAll(fd, &tail, sizeof(tail), file_bytes - sizeof(tail), path);
  if (!s.ok()) return s;
  if (std::memcmp(tail.magic, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return Status::Error("bad footer magic in " + path);
  }
  if (tail.num_blocks * sizeof(BlockEntry) != tail.footer_bytes ||
      tail.footer_bytes + sizeof(FooterTail) + sizeof(FileHeader) >
          file_bytes) {
    return Status::Error("corrupt footer geometry in " + path);
  }
  std::vector<BlockEntry> entries(tail.num_blocks);
  if (tail.num_blocks > 0) {
    s = PreadAll(fd, entries.data(), tail.footer_bytes,
                 file_bytes - sizeof(tail) - tail.footer_bytes, path);
    if (!s.ok()) return s;
  }
  if (tail.crc != Crc32(entries.data(), tail.footer_bytes)) {
    return Status::Error("footer checksum mismatch in " + path);
  }

  meta->compressed = (h.flags & kFlagCompressed) != 0;
  meta->value_width = h.value_width;
  meta->blocks.clear();
  meta->blocks.reserve(entries.size());
  meta->payload_bytes = 0;
  for (size_t i = 0; i < entries.size(); i++) {
    const BlockEntry& e = entries[i];
    CodecId codec = static_cast<CodecId>(e.codec);
    if (e.codec > 0xFF || Codec::ForId(codec) == nullptr) {
      return Status::Error("unknown codec id " + std::to_string(e.codec) +
                           " for block " + std::to_string(i) + " in " + path);
    }
    meta->blocks.push_back({e.offset, e.bytes, e.value_count, e.crc, codec});
    meta->payload_bytes += e.bytes;
  }
  return Status::OK();
}

Status DiskStore::ReadBlock(const std::string& name, const FileMeta& meta,
                            size_t b, void* buf) {
  X100_CHECK(b < meta.blocks.size());
  Status s;
  int fd = FdFor(name, &s);
  if (!s.ok()) return s;
  const BlockMeta& m = meta.blocks[b];
  s = PreadAll(fd, buf, m.bytes, m.offset, PathFor(name));
  if (!s.ok()) return s;
  if (Crc32(buf, m.bytes) != m.crc) {
    return Status::Error("block " + std::to_string(b) +
                         " checksum mismatch in " + PathFor(name));
  }
  return Status::OK();
}

// ---- Manifest ---------------------------------------------------------------
//
// Text format, one column file per line after the header:
//   x100-manifest v1 <num_entries>
//   <file> <payload_bytes> <num_blocks> <crc-hex> <raw|cmp>
// ("cmp" marks codec-encoded files; older manifests say "for" — any kind
// other than "raw" reads back as compressed.) The final line checksums
// everything above it so truncated or edited manifests are detected:
//   #crc <crc-hex>

Status DiskStore::WriteManifest(const std::string& table,
                                const std::vector<ManifestEntry>& entries) {
  std::string body = "x100-manifest v1 " + std::to_string(entries.size()) + "\n";
  char line[512];
  for (const ManifestEntry& e : entries) {
    std::snprintf(line, sizeof(line), "%s %llu %llu %08x %s\n",
                  e.file.c_str(),
                  static_cast<unsigned long long>(e.payload_bytes),
                  static_cast<unsigned long long>(e.num_blocks), e.crc,
                  e.compressed ? "cmp" : "raw");
    body += line;
  }
  std::snprintf(line, sizeof(line), "#crc %08x\n",
                Crc32(body.data(), body.size()));
  body += line;

  // Temp-file + rename: the manifest is rewritten while readers of the old
  // fragment may still be draining (MVCC merge swap), and a crash mid-write
  // must leave either the old or the new manifest, never a torn one.
  std::string path = PathFor(table + ".manifest");
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return IoError("create", tmp);
  size_t n = std::fwrite(body.data(), 1, body.size(), f);
  int flush_rc = n == body.size() ? std::fflush(f) : 0;
  int sync_rc = flush_rc == 0 ? ::fsync(fileno(f)) : 0;
  int rc = std::fclose(f);
  if (n != body.size() || flush_rc != 0 || sync_rc != 0 || rc != 0) {
    std::remove(tmp.c_str());
    return IoError("write", tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return IoError("rename", path);
  }
  return Status::OK();
}

Status DiskStore::ReadManifest(const std::string& table,
                               std::vector<ManifestEntry>* out) {
  std::string path = PathFor(table + ".manifest");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return IoError("open", path);
  std::string body;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, got);
  std::fclose(f);

  size_t crc_line = body.rfind("#crc ");
  if (crc_line == std::string::npos) {
    return Status::Error("manifest missing checksum line: " + path);
  }
  uint32_t want = 0;
  if (std::sscanf(body.c_str() + crc_line, "#crc %x", &want) != 1 ||
      Crc32(body.data(), crc_line) != want) {
    return Status::Error("manifest checksum mismatch: " + path);
  }

  size_t count = 0;
  int consumed = 0;
  if (std::sscanf(body.c_str(), "x100-manifest v1 %zu\n%n", &count,
                  &consumed) != 1) {
    return Status::Error("bad manifest header: " + path);
  }
  out->clear();
  const char* p = body.c_str() + consumed;
  for (size_t i = 0; i < count; i++) {
    char file[256], kind[8];
    unsigned long long bytes = 0, blocks = 0;
    uint32_t crc = 0;
    int used = 0;
    if (std::sscanf(p, "%255s %llu %llu %x %7s\n%n", file, &bytes, &blocks,
                    &crc, kind, &used) != 5) {
      return Status::Error("bad manifest entry in " + path);
    }
    ManifestEntry e;
    e.file = file;
    e.payload_bytes = bytes;
    e.num_blocks = blocks;
    e.crc = crc;
    e.compressed = std::strcmp(kind, "raw") != 0;
    out->push_back(std::move(e));
    p += used;
  }
  return Status::OK();
}

}  // namespace x100
