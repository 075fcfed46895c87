#ifndef TIC_COMMON_SNAPSHOT_SNAPSHOT_H_
#define TIC_COMMON_SNAPSHOT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace tic {
namespace snapshot {

/// \brief The TICSNAP01 container: a versioned, sectioned, CRC-checked binary
/// envelope for monitor checkpoints.
///
/// Layout (all integers little-endian, fixed width):
///
///   magic     9 bytes   "TICSNAP01"
///   version   u32       container version (kContainerVersion)
///   flags     u32       feature flags; readers REJECT unknown bits
///   nsections u32
///   section*  { id u32 | len u64 | payload len bytes | crc32 u32 }
///
/// Every section payload is covered by its own CRC32 (IEEE, reflected), so a
/// truncated or bit-flipped dump fails parsing instead of deserializing into
/// partial state. Section ids are unique within a snapshot; readers reject
/// duplicates and unknown ids (strict v1 compatibility rule — adding a
/// section is a version bump, see DESIGN.md).
inline constexpr char kMagic[] = "TICSNAP01";  // 9 content bytes
inline constexpr size_t kMagicLen = 9;
inline constexpr uint32_t kContainerVersion = 1;

/// Section ids of the monitor checkpoint payload (checker/checkpoint.cc owns
/// the payload encodings; the container layer names them so `tic_inspect` can
/// label a dump without linking the checker).
enum SectionId : uint32_t {
  kSecMeta = 1,         ///< versions, mode/backend, option + state flags
  kSecVocabulary = 2,   ///< predicates, builtins, constants + interpretation
  kSecConstraint = 3,   ///< the FOTL sentence, printed (re-parsed on restore)
  kSecHistory = 4,      ///< the current database state
  kSecLetters = 5,      ///< minted propositional letters, in mint order
  kSecFormulas = 6,     ///< hash-consed PTL node pool, post-order
  kSecInstances = 7,    ///< grounding assignments + residual formula indices
  kSecWord = 8,         ///< RLE propositional word
  kSecRelevant = 9,     ///< known relevant set R_D
  kSecCompact = 10,     ///< compaction checkpoint: basis set + z-patterns
  kSecVerdict = 11,     ///< semantic fields of the last verdict
  kSecCache = 12,       ///< renaming-invariant verdict-cache fingerprints
  kSecPast = 13,        ///< past-evaluator cells (kPastStateless route)
};

/// Human-readable section name ("meta", "history", ...); "?" for unknown ids.
const char* SectionName(uint32_t id);

/// CRC32 (IEEE 802.3, reflected, init/final xor 0xFFFFFFFF) of `len` bytes.
uint32_t Crc32(const void* data, size_t len);

/// \brief Little-endian primitive encoder appending to an owned buffer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutLE(v, 4); }
  void PutU64(uint64_t v) { PutLE(v, 8); }
  void PutI64(int64_t v) { PutLE(static_cast<uint64_t>(v), 8); }
  void PutBytes(const void* data, size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutBytes(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutLE(uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  std::string buf_;
};

/// \brief Bounds-checked little-endian decoder over a borrowed buffer. Every
/// read fails closed: a short buffer yields ParseError, never partial reads
/// or UB. The borrowed bytes must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8() {
    TIC_ASSIGN_OR_RETURN(uint64_t v, ReadLE(1));
    return static_cast<uint8_t>(v);
  }
  Result<uint32_t> ReadU32() {
    TIC_ASSIGN_OR_RETURN(uint64_t v, ReadLE(4));
    return static_cast<uint32_t>(v);
  }
  Result<uint64_t> ReadU64() { return ReadLE(8); }
  Result<int64_t> ReadI64() {
    TIC_ASSIGN_OR_RETURN(uint64_t v, ReadLE(8));
    return static_cast<int64_t>(v);
  }
  /// Reads a u32-length-prefixed string; the length is validated against the
  /// remaining bytes BEFORE any allocation, so a corrupt length cannot drive
  /// a huge reserve.
  Result<std::string_view> ReadString() {
    TIC_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
    if (len > remaining()) {
      return Status::ParseError("snapshot: string length exceeds section");
    }
    std::string_view out = data_.substr(pos_, len);
    pos_ += len;
    return out;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  /// ParseError unless the payload was consumed exactly — trailing garbage in
  /// a section is corruption, not padding.
  Status ExpectEnd() const {
    if (!AtEnd()) return Status::ParseError("snapshot: trailing bytes in section");
    return Status::OK();
  }

 private:
  Result<uint64_t> ReadLE(int n) {
    if (remaining() < static_cast<size_t>(n)) {
      return Status::ParseError("snapshot: truncated payload");
    }
    uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += n;
    return v;
  }
  std::string_view data_;
  size_t pos_ = 0;
};

/// \brief Assembles a TICSNAP01 blob: add sections in any order, then Finish.
class SnapshotWriter {
 public:
  explicit SnapshotWriter(uint32_t flags = 0) : flags_(flags) {}

  /// Payload writer for a new section. Pointers stay valid until Finish
  /// (sections are individually owned).
  ByteWriter* AddSection(uint32_t id) {
    sections_.push_back(Section{id, ByteWriter{}});
    return &sections_.back().payload;
  }

  std::string Finish() const;

 private:
  struct Section {
    uint32_t id;
    ByteWriter payload;
  };
  uint32_t flags_;
  std::vector<Section> sections_;
};

/// \brief Parsed view of a TICSNAP01 blob: header validated, every section
/// bounds- and CRC-checked up front. Payload views borrow the caller's blob.
class SnapshotReader {
 public:
  struct Section {
    uint32_t id = 0;
    std::string_view payload;
    uint32_t crc = 0;
  };

  /// Fail-closed parse: bad magic, unknown version or feature flags, a
  /// duplicate/unknown section id, any out-of-bounds length, or any CRC
  /// mismatch yields ParseError (and no reader).
  static Result<SnapshotReader> Parse(std::string_view blob);

  uint32_t version() const { return version_; }
  uint32_t flags() const { return flags_; }
  const std::vector<Section>& sections() const { return sections_; }

  /// First section with `id`, or null when absent.
  const Section* Find(uint32_t id) const {
    for (const Section& s : sections_) {
      if (s.id == id) return &s;
    }
    return nullptr;
  }
  /// Like Find, but absence is a ParseError naming the section.
  Result<std::string_view> Require(uint32_t id) const;

 private:
  uint32_t version_ = 0;
  uint32_t flags_ = 0;
  std::vector<Section> sections_;
};

/// \brief Fixed prefix of the kSecMeta payload, decodable without the checker
/// (checkpoint.cc appends checker-specific fields after it). Gives
/// `tic_inspect` the headline numbers of a dump.
struct MetaPrefix {
  uint32_t state_version = 0;
  uint8_t backend = 0;
  uint8_t mode = 0;
  uint32_t option_flags = 0;
  uint64_t time_base = 0;
  uint64_t num_states = 0;  ///< states applied since creation (t + 1)
  uint64_t num_instances = 0;
  uint64_t num_letters = 0;
};

void WriteMetaPrefix(ByteWriter* w, const MetaPrefix& m);
Result<MetaPrefix> ReadMetaPrefix(ByteReader* r);

/// \brief Pretty-prints a TICSNAP01 dump: header, per-section table (name,
/// bytes, CRC), meta prefix, and a 128-bit whole-blob fingerprint. Used by
/// `tic_inspect`; returns ParseError on a corrupt blob.
Result<std::string> Describe(std::string_view blob);

/// True when `blob` starts with the TICSNAP01 magic (cheap sniff).
bool LooksLikeSnapshot(std::string_view blob);

}  // namespace snapshot
}  // namespace tic

#endif  // TIC_COMMON_SNAPSHOT_SNAPSHOT_H_
