#include "stream/epoch_manifest.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "shard/checksum.hpp"

namespace tiv::stream {
namespace {

constexpr char kMagic[8] = {'T', 'I', 'V', 'E', 'P', 'O', 'C', '2'};

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error("EpochManifest: " + what + ": " + path);
}

void append(std::vector<unsigned char>& buf, const void* data,
            std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf.insert(buf.end(), p, p + bytes);
}

void append_pairs(
    std::vector<unsigned char>& buf,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& tiles) {
  for (const auto& [r, c] : tiles) {
    append(buf, &r, sizeof(r));
    append(buf, &c, sizeof(c));
  }
}

}  // namespace

void EpochManifest::write(const std::string& path) const {
  std::vector<unsigned char> buf;
  buf.reserve(sizeof(kMagic) + sizeof(generation) + 2 * sizeof(std::uint32_t) +
              (input_tiles.size() + sink_tiles.size()) * 8 +
              sizeof(std::uint64_t));
  append(buf, kMagic, sizeof(kMagic));
  append(buf, &generation, sizeof(generation));
  const auto ic = static_cast<std::uint32_t>(input_tiles.size());
  const auto sc = static_cast<std::uint32_t>(sink_tiles.size());
  append(buf, &ic, sizeof(ic));
  append(buf, &sc, sizeof(sc));
  append_pairs(buf, input_tiles);
  append_pairs(buf, sink_tiles);
  const std::uint64_t sum = shard::checksum64(buf.data(), buf.size());
  append(buf, &sum, sizeof(sum));

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("cannot open for writing", path);
  const bool ok =
      ::write(fd, buf.data(), buf.size()) ==
          static_cast<ssize_t>(buf.size()) &&
      ::fsync(fd) == 0;  // must be durable BEFORE the first in-place write
  if (::close(fd) != 0 || !ok) fail("write failed", path);
}

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

  // Anything malformed — short file, bad magic, counts that overrun, or a
  // checksum mismatch — is a manifest whose own write tore, i.e. the crash
  // happened before any store mutation: report "clean".
  const std::size_t fixed = sizeof(kMagic) + sizeof(std::uint64_t) +
                            2 * sizeof(std::uint32_t);
  if (buf.size() < fixed + sizeof(std::uint64_t)) return std::nullopt;
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::uint64_t sum = 0;
  std::memcpy(&sum, buf.data() + buf.size() - sizeof(sum), sizeof(sum));
  if (shard::checksum64(buf.data(), buf.size() - sizeof(sum)) != sum) {
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
  if (buf.size() !=
      fixed + (static_cast<std::size_t>(ic) + sc) * 8 + sizeof(sum)) {
    return std::nullopt;
  }
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

void EpochManifest::clear(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    fail("cannot remove", path);
  }
}

}  // namespace tiv::stream
