#include "common/snapshot/snapshot.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/flat/wyhash.h"

namespace tic {
namespace snapshot {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

// Bits the v1 writer may set. v1 defines none; the field exists so a future
// version can flag optional payload variations without a full version bump.
constexpr uint32_t kKnownFlags = 0;

constexpr uint32_t kMaxSectionId = kSecPast;

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

const char* SectionName(uint32_t id) {
  switch (id) {
    case kSecMeta: return "meta";
    case kSecVocabulary: return "vocabulary";
    case kSecConstraint: return "constraint";
    case kSecHistory: return "history";
    case kSecLetters: return "letters";
    case kSecFormulas: return "formulas";
    case kSecInstances: return "instances";
    case kSecWord: return "word";
    case kSecRelevant: return "relevant";
    case kSecCompact: return "compact";
    case kSecVerdict: return "verdict";
    case kSecCache: return "cache";
    case kSecPast: return "past";
    default: return "?";
  }
}

std::string SnapshotWriter::Finish() const {
  ByteWriter out;
  out.PutBytes(kMagic, kMagicLen);
  out.PutU32(kContainerVersion);
  out.PutU32(flags_);
  out.PutU32(static_cast<uint32_t>(sections_.size()));
  for (const Section& s : sections_) {
    const std::string& payload = s.payload.bytes();
    out.PutU32(s.id);
    out.PutU64(payload.size());
    out.PutBytes(payload.data(), payload.size());
    out.PutU32(Crc32(payload.data(), payload.size()));
  }
  return out.Take();
}

bool LooksLikeSnapshot(std::string_view blob) {
  return blob.size() >= kMagicLen &&
         std::memcmp(blob.data(), kMagic, kMagicLen) == 0;
}

Result<SnapshotReader> SnapshotReader::Parse(std::string_view blob) {
  if (!LooksLikeSnapshot(blob)) {
    return Status::ParseError("snapshot: bad magic");
  }
  ByteReader r(blob.substr(kMagicLen));
  TIC_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kContainerVersion) {
    return Status::ParseError("snapshot: unsupported container version");
  }
  TIC_ASSIGN_OR_RETURN(uint32_t flags, r.ReadU32());
  if ((flags & ~kKnownFlags) != 0) {
    return Status::ParseError("snapshot: unknown feature flags");
  }
  TIC_ASSIGN_OR_RETURN(uint32_t nsections, r.ReadU32());
  if (nsections > kMaxSectionId) {
    // Ids are unique and drawn from [1, kMaxSectionId]; more sections than
    // ids cannot be valid, and rejecting early bounds the reserve below.
    return Status::ParseError("snapshot: too many sections");
  }

  SnapshotReader reader;
  reader.version_ = version;
  reader.flags_ = flags;
  reader.sections_.reserve(nsections);
  uint32_t seen_mask = 0;
  // Section payloads are borrowed as views into `blob`; recompute offsets
  // relative to the original buffer as we go.
  size_t off = kMagicLen + 12;
  for (uint32_t i = 0; i < nsections; ++i) {
    ByteReader hr(blob.substr(off));
    TIC_ASSIGN_OR_RETURN(uint32_t id, hr.ReadU32());
    TIC_ASSIGN_OR_RETURN(uint64_t len, hr.ReadU64());
    if (id < 1 || id > kMaxSectionId) {
      return Status::ParseError("snapshot: unknown section id");
    }
    if (seen_mask & (1u << id)) {
      return Status::ParseError("snapshot: duplicate section id");
    }
    seen_mask |= 1u << id;
    off += 12;
    if (len > blob.size() - off) {
      return Status::ParseError("snapshot: section length exceeds blob");
    }
    std::string_view payload = blob.substr(off, len);
    off += len;
    ByteReader cr(blob.substr(off));
    TIC_ASSIGN_OR_RETURN(uint32_t crc, cr.ReadU32());
    off += 4;
    if (crc != Crc32(payload.data(), payload.size())) {
      return Status::ParseError("snapshot: section CRC mismatch");
    }
    reader.sections_.push_back(Section{id, payload, crc});
  }
  if (off != blob.size()) {
    return Status::ParseError("snapshot: trailing bytes after sections");
  }
  return reader;
}

Result<std::string_view> SnapshotReader::Require(uint32_t id) const {
  const Section* s = Find(id);
  if (s == nullptr) {
    std::string msg = "snapshot: missing required section '";
    msg += SectionName(id);
    msg += "'";
    return Status::ParseError(msg);
  }
  return s->payload;
}

void WriteMetaPrefix(ByteWriter* w, const MetaPrefix& m) {
  w->PutU32(m.state_version);
  w->PutU8(m.backend);
  w->PutU8(m.mode);
  w->PutU32(m.option_flags);
  w->PutU64(m.time_base);
  w->PutU64(m.num_states);
  w->PutU64(m.num_instances);
  w->PutU64(m.num_letters);
}

Result<MetaPrefix> ReadMetaPrefix(ByteReader* r) {
  MetaPrefix m;
  TIC_ASSIGN_OR_RETURN(m.state_version, r->ReadU32());
  TIC_ASSIGN_OR_RETURN(m.backend, r->ReadU8());
  TIC_ASSIGN_OR_RETURN(m.mode, r->ReadU8());
  TIC_ASSIGN_OR_RETURN(m.option_flags, r->ReadU32());
  TIC_ASSIGN_OR_RETURN(m.time_base, r->ReadU64());
  TIC_ASSIGN_OR_RETURN(m.num_states, r->ReadU64());
  TIC_ASSIGN_OR_RETURN(m.num_instances, r->ReadU64());
  TIC_ASSIGN_OR_RETURN(m.num_letters, r->ReadU64());
  return m;
}

Result<std::string> Describe(std::string_view blob) {
  TIC_ASSIGN_OR_RETURN(SnapshotReader reader, SnapshotReader::Parse(blob));
  const flat::Fp128 fp = flat::Fp128::OfBytes(blob.data(), blob.size());

  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "TICSNAP01 snapshot  version=%u flags=0x%08x  %zu bytes\n"
                "fingerprint %016" PRIx64 "%016" PRIx64 "\n",
                reader.version(), reader.flags(), blob.size(), fp.hi, fp.lo);
  out += line;

  if (const SnapshotReader::Section* meta = reader.Find(kSecMeta)) {
    ByteReader mr(meta->payload);
    Result<MetaPrefix> m = ReadMetaPrefix(&mr);
    if (m.ok()) {
      std::snprintf(line, sizeof(line),
                    "meta: state_version=%u backend=%u mode=%u "
                    "option_flags=0x%08x\n"
                    "      time_base=%" PRIu64 " num_states=%" PRIu64
                    " instances=%" PRIu64 " letters=%" PRIu64 "\n",
                    m->state_version, m->backend, m->mode, m->option_flags,
                    m->time_base, m->num_states, m->num_instances,
                    m->num_letters);
      out += line;
    }
  }

  out += "sections:\n";
  for (const SnapshotReader::Section& s : reader.sections()) {
    std::snprintf(line, sizeof(line), "  %-12s id=%-2u %10zu bytes  crc=%08x\n",
                  SectionName(s.id), s.id, s.payload.size(), s.crc);
    out += line;
  }
  return out;
}

}  // namespace snapshot
}  // namespace tic
