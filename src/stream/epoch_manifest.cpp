#include "stream/epoch_manifest.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "shard/checksum.hpp"

namespace tiv::stream {
namespace {

constexpr char kMagic[8] = {'T', 'I', 'V', 'E', 'P', 'O', 'C', '2'};
constexpr std::size_t kFixed =
    sizeof(kMagic) + sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t);

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("EpochManifest: " + what + ": " + path);
}

/// Copies `bytes` from `data` to `out` and returns the end of the copy.
unsigned char* put(unsigned char* out, const void* data, std::size_t bytes) {
  std::memcpy(out, data, bytes);
  return out + bytes;
}

unsigned char* put_pairs(
    unsigned char* out,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& tiles) {
  for (const auto& [r, c] : tiles) {
    out = put(out, &r, sizeof(r));
    out = put(out, &c, sizeof(c));
  }
  return out;
}

/// pwrite of all `bytes` at `offset`.
bool write_at(int fd, const void* data, std::size_t bytes, off_t offset) {
  return ::pwrite(fd, data, bytes, offset) == static_cast<ssize_t>(bytes);
}

}  // namespace

std::optional<EpochManifest> EpochManifest::load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    fail("cannot open", path);
  }
  std::vector<unsigned char> buf;
  unsigned char chunk[4096];
  ssize_t got;
  while ((got = ::read(fd, chunk, sizeof(chunk))) > 0) {
    buf.insert(buf.end(), chunk, chunk + got);
  }
  ::close(fd);
  if (got < 0) fail("read failed", path);

  // Anything malformed — short file, bad or cleared magic, counts that
  // overrun, or a checksum mismatch — is a record whose own write tore (or
  // a committed epoch), i.e. no store mutation is pending: report "clean".
  if (buf.size() < kFixed + sizeof(std::uint64_t)) return std::nullopt;
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  EpochManifest m;
  std::size_t off = sizeof(kMagic);
  std::memcpy(&m.generation, buf.data() + off, sizeof(m.generation));
  off += sizeof(m.generation);
  std::uint32_t ic = 0;
  std::uint32_t sc = 0;
  std::memcpy(&ic, buf.data() + off, sizeof(ic));
  off += sizeof(ic);
  std::memcpy(&sc, buf.data() + off, sizeof(sc));
  off += sizeof(sc);
  // The record ends at its checksum trailer; what follows is the stale
  // tail of a longer earlier record.
  std::uint64_t sum = 0;
  const std::size_t body = kFixed + (static_cast<std::size_t>(ic) + sc) * 8;
  if (buf.size() < body + sizeof(sum)) return std::nullopt;
  std::memcpy(&sum, buf.data() + body, sizeof(sum));
  if (shard::checksum64(buf.data(), body) != sum) return std::nullopt;

  auto read_pairs =
      [&](std::uint32_t count,
          std::vector<std::pair<std::uint32_t, std::uint32_t>>& tiles) {
        tiles.reserve(count);
        for (std::uint32_t t = 0; t < count; ++t) {
          std::uint32_t r = 0;
          std::uint32_t c = 0;
          std::memcpy(&r, buf.data() + off, sizeof(r));
          off += sizeof(r);
          std::memcpy(&c, buf.data() + off, sizeof(c));
          off += sizeof(c);
          tiles.emplace_back(r, c);
        }
      };
  read_pairs(ic, m.input_tiles);
  read_pairs(sc, m.sink_tiles);
  return m;
}

EpochJournal::EpochJournal(const std::string& path, bool truncate)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | (truncate ? O_TRUNC : 0),
               0644);
  if (fd_ < 0) fail("cannot open for writing", path);
  // Once per engine: the file (and its emptiness) and its directory entry
  // are durable, so each epoch syncs only its record's data.
  const std::filesystem::path dir = std::filesystem::path(path).parent_path();
  const int dfd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  const bool ok = ::fsync(fd_) == 0 && dfd >= 0 && ::fsync(dfd) == 0;
  if (dfd >= 0) ::close(dfd);
  if (!ok) {
    ::close(fd_);  // the destructor does not run for a throwing constructor
    fail("cannot sync", path);
  }
}

EpochJournal::~EpochJournal() { ::close(fd_); }

void EpochJournal::write(const EpochManifest& m) {
  const auto ic = static_cast<std::uint32_t>(m.input_tiles.size());
  const auto sc = static_cast<std::uint32_t>(m.sink_tiles.size());
  const std::size_t body = kFixed + (std::size_t{ic} + sc) * 8;
  buf_.resize(body + sizeof(std::uint64_t));
  unsigned char* out = put(buf_.data(), kMagic, sizeof(kMagic));
  out = put(out, &m.generation, sizeof(m.generation));
  out = put(out, &ic, sizeof(ic));
  out = put(out, &sc, sizeof(sc));
  out = put_pairs(out, m.input_tiles);
  out = put_pairs(out, m.sink_tiles);
  const std::uint64_t sum = shard::checksum64(buf_.data(), body);
  put(out, &sum, sizeof(sum));
  // Must be durable BEFORE the first in-place write.
  if (!write_at(fd_, buf_.data(), buf_.size(), 0) || ::fdatasync(fd_) != 0) {
    fail("write failed", path_);
  }
}

void EpochJournal::clear() {
  const unsigned char cleared[sizeof(kMagic)] = {};
  if (!write_at(fd_, cleared, sizeof(cleared), 0)) fail("clear failed", path_);
}

}  // namespace tiv::stream
