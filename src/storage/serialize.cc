#include "storage/serialize.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "storage/buffer.h"
#include "storage/compression.h"

namespace x100 {

namespace {

// Catalog image format v2 ("X100CAT2"): fixed-width column payloads are
// codec-compressed (storage/compression.h) in chunks of
// kSerializeChunkValues values, each chunk tagged with its codec id. v1
// images ("X100CAT1", raw payloads) are no longer read: LoadCatalog reports
// a bad magic.
constexpr char kMagic[8] = {'X', '1', '0', '0', 'C', 'A', 'T', '2'};
constexpr int64_t kSerializeChunkValues = 1 << 16;

class Writer {
 public:
  explicit Writer(FILE* f) : f_(f) {}

  bool ok() const { return ok_; }

  void Bytes(const void* p, size_t n) {
    if (ok_ && std::fwrite(p, 1, n, f_) != n) ok_ = false;
  }
  void U8(uint8_t v) { Bytes(&v, 1); }
  void U32(uint32_t v) { Bytes(&v, 4); }
  void I64(int64_t v) { Bytes(&v, 8); }
  void F64(double v) { Bytes(&v, 8); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s.data(), s.size());
  }

 private:
  FILE* f_;
  bool ok_ = true;
};

class Reader {
 public:
  explicit Reader(FILE* f) : f_(f) {}

  bool ok() const { return ok_; }

  void Bytes(void* p, size_t n) {
    if (ok_ && std::fread(p, 1, n, f_) != n) ok_ = false;
  }
  uint8_t U8() {
    uint8_t v = 0;
    Bytes(&v, 1);
    return v;
  }
  uint32_t U32() {
    uint32_t v = 0;
    Bytes(&v, 4);
    return v;
  }
  int64_t I64() {
    int64_t v = 0;
    Bytes(&v, 8);
    return v;
  }
  double F64() {
    double v = 0;
    Bytes(&v, 8);
    return v;
  }
  std::string Str() {
    uint32_t n = U32();
    if (!ok_ || n > (1u << 30)) {
      ok_ = false;
      return "";
    }
    std::string s(n, '\0');
    Bytes(s.data(), n);
    return s;
  }

 private:
  FILE* f_;
  bool ok_ = true;
};

void WriteDict(Writer* w, const Dictionary& dict) {
  w->U8(static_cast<uint8_t>(dict.value_type()));
  w->U32(static_cast<uint32_t>(dict.size()));
  for (int c = 0; c < dict.size(); c++) {
    Value v = dict.ValueAt(c);
    switch (dict.value_type()) {
      case TypeId::kStr:
        w->Str(v.AsStr());
        break;
      case TypeId::kF64:
        w->F64(v.AsF64());
        break;
      default:
        w->I64(v.AsI64());
    }
  }
}

void ReadDict(Reader* r, Dictionary* dict) {
  TypeId vt = static_cast<TypeId>(r->U8());
  X100_CHECK(vt == dict->value_type());
  uint32_t n = r->U32();
  for (uint32_t c = 0; c < n && r->ok(); c++) {
    Value v;
    switch (vt) {
      case TypeId::kStr:
        v = Value::Str(r->Str());
        break;
      case TypeId::kF64:
        v = Value::F64(r->F64());
        break;
      case TypeId::kDate:
        v = Value::Date(static_cast<int32_t>(r->I64()));
        break;
      case TypeId::kI32:
        v = Value::I32(static_cast<int32_t>(r->I64()));
        break;
      default:
        v = Value::I64(r->I64());
    }
    int code = dict->CodeOf(v);
    X100_CHECK(code == static_cast<int>(c));  // code order preserved
  }
}

/// Writes a column's physical contents (dictionary handled by the caller for
/// delta columns, which share the fragment dictionary).
void WriteColumnData(Writer* w, const Column& col) {
  w->U8(static_cast<uint8_t>(col.storage_type()));
  if (col.type() == TypeId::kStr && !col.is_enum()) {
    w->I64(col.size());
    for (int64_t i = 0; i < col.size(); i++) {
      const char* s = col.GetStr(i);
      uint32_t len = static_cast<uint32_t>(std::strlen(s));
      w->U32(len);
      w->Bytes(s, len);
    }
  } else {
    w->I64(col.size());
    // Codec-compress the payload chunk-at-a-time; each chunk picks its
    // cheapest codec (raw when nothing beats verbatim bytes).
    const size_t width = TypeWidth(col.storage_type());
    const char* src = static_cast<const char*>(col.raw());
    Buffer enc;
    for (int64_t off = 0; off < col.size(); off += kSerializeChunkValues) {
      int64_t n = std::min(kSerializeChunkValues, col.size() - off);
      CodecId chosen;
      size_t bytes =
          EncodeBestCodec(src + off * width, n, width, &enc, &chosen);
      w->U8(static_cast<uint8_t>(chosen));
      w->U32(static_cast<uint32_t>(bytes));
      w->Bytes(enc.data(), bytes);
    }
  }
}

bool ReadColumnData(Reader* r, Column* col) {
  TypeId storage = static_cast<TypeId>(r->U8());
  int64_t rows = r->I64();
  if (!r->ok() || rows < 0) return false;
  if (col->type() == TypeId::kStr && !col->is_enum()) {
    for (int64_t i = 0; i < rows && r->ok(); i++) {
      col->AppendStr(r->Str());
    }
  } else {
    const size_t width = TypeWidth(storage);
    std::vector<char> buf(static_cast<size_t>(rows) * width);
    std::vector<char> enc;
    for (int64_t off = 0; off < rows && r->ok(); off += kSerializeChunkValues) {
      int64_t n = std::min(kSerializeChunkValues, rows - off);
      const Codec* codec = Codec::ForId(r->U8());
      uint32_t bytes = r->U32();
      if (!r->ok() || codec == nullptr) return false;
      enc.resize(bytes);
      r->Bytes(enc.data(), bytes);
      if (!r->ok()) return false;
      if (codec->Decode(enc.data(), bytes, buf.data() + off * width, width) !=
          n) {
        return false;
      }
    }
    if (!r->ok()) return false;
    if (rows > 0) col->RestoreRaw(storage, buf.data(), rows);
  }
  return r->ok();
}

}  // namespace

Status SaveCatalog(const Catalog& catalog, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Error("SaveCatalog: cannot open " + path);
  Writer w(f);
  w.Bytes(kMagic, sizeof(kMagic));
  std::vector<std::string> names = catalog.TableNames();
  w.U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const Table& t = catalog.Get(name);
    w.Str(name);
    // Specs: only declared columns; join-index columns are derived.
    int ncols = 0;
    while (ncols < t.num_columns() &&
           t.schema().field(ncols).name.rfind("#ji_", 0) != 0) {
      ncols++;
    }
    w.U32(static_cast<uint32_t>(ncols));
    for (int c = 0; c < ncols; c++) {
      w.Str(t.schema().field(c).name);
      w.U8(static_cast<uint8_t>(t.schema().field(c).type));
      w.U8(t.column(c).is_enum() ? 1 : 0);
    }
    for (int c = 0; c < ncols; c++) {
      const Column& col = t.column(c);
      if (col.is_enum()) WriteDict(&w, *col.dict());
      WriteColumnData(&w, col);
    }
    // Deltas.
    w.I64(t.delta_rows());
    if (t.delta_rows() > 0) {
      for (int c = 0; c < ncols; c++) {
        WriteColumnData(&w, t.delta_column(c));
      }
    }
    // Deletion list.
    w.I64(static_cast<int64_t>(t.deletion_list().size()));
    for (int64_t d : t.deletion_list()) w.I64(d);
  }
  bool ok = w.ok();
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::OK() : Status::Error("SaveCatalog: write failed");
}

std::unique_ptr<Catalog> LoadCatalog(const std::string& path,
                                     std::string* error) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error) *error = "LoadCatalog: cannot open " + path;
    return nullptr;
  }
  auto fail = [&](const std::string& msg) -> std::unique_ptr<Catalog> {
    std::fclose(f);
    if (error) *error = msg;
    return nullptr;
  };
  Reader r(f);
  char magic[8];
  r.Bytes(magic, sizeof(magic));
  if (!r.ok() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return fail("LoadCatalog: bad magic in " + path);
  }
  auto catalog = std::make_unique<Catalog>();
  uint32_t ntables = r.U32();
  if (ntables > 10000) return fail("LoadCatalog: implausible table count");
  for (uint32_t t = 0; t < ntables; t++) {
    std::string name = r.Str();
    uint32_t ncols = r.U32();
    if (!r.ok() || ncols > 10000) return fail("LoadCatalog: truncated header");
    std::vector<Table::ColumnSpec> specs;
    for (uint32_t c = 0; c < ncols; c++) {
      Table::ColumnSpec spec;
      spec.name = r.Str();
      spec.type = static_cast<TypeId>(r.U8());
      spec.enum_encoded = r.U8() != 0;
      specs.push_back(std::move(spec));
    }
    if (!r.ok()) return fail("LoadCatalog: truncated specs");
    Table* table = catalog->AddTable(name, specs);
    for (uint32_t c = 0; c < ncols; c++) {
      Column* col = table->load_column(static_cast<int>(c));
      if (col->is_enum()) ReadDict(&r, col->mutable_dict());
      if (!ReadColumnData(&r, col)) {
        return fail("LoadCatalog: truncated column");
      }
    }
    table->Freeze();
    int64_t delta_rows = r.I64();
    if (delta_rows < 0 || !r.ok()) return fail("LoadCatalog: bad delta count");
    if (delta_rows > 0) {
      table->EnsureDeltaStorage();
      for (uint32_t c = 0; c < ncols; c++) {
        Column* dc = table->mutable_delta_column(static_cast<int>(c));
        if (!ReadColumnData(&r, dc)) {
          return fail("LoadCatalog: truncated delta column");
        }
      }
    }
    int64_t ndel = r.I64();
    if (ndel < 0 || !r.ok()) return fail("LoadCatalog: bad deletion count");
    std::vector<int64_t> dels;
    dels.reserve(static_cast<size_t>(ndel));
    for (int64_t i = 0; i < ndel; i++) dels.push_back(r.I64());
    if (!r.ok()) return fail("LoadCatalog: truncated deletion list");
    table->RestoreDeletionList(std::move(dels));
  }
  std::fclose(f);
  return catalog;
}

}  // namespace x100
