#include "shard/tile_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "shard/fault_injector.hpp"

namespace tiv::shard {
namespace {

using delayspace::DelayMatrixView;

constexpr std::size_t kAlign = 64;

// Fixed-width, padding-free on-disk header (40 bytes), shared verbatim by
// both formats (they differ only in magic/version).
struct RawHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t n;
  std::uint32_t tile_dim;
  std::uint32_t tiles;
  std::uint64_t tile_bytes;
  std::uint64_t data_offset;
};
static_assert(sizeof(RawHeader) == 40);

template <typename Error = std::runtime_error>
[[noreturn]] void fail_for(const char* store_name, const std::string& what,
                           const std::string& path) {
  throw Error(std::string(store_name) + ": " + what + ": " + path);
}

void fwrite_all(const void* data, std::size_t bytes, std::FILE* f,
                const char* store_name, const std::string& path) {
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    fail_for(store_name, "write failed", path);
  }
}

std::size_t tile_count_for(TileIndexShape shape, std::uint32_t tiles) {
  const auto t = static_cast<std::size_t>(tiles);
  return shape == TileIndexShape::kSquare ? t * t : t * (t + 1) / 2;
}

std::size_t checksum_table_offset(std::size_t tile_count) {
  return sizeof(RawHeader) + tile_count * sizeof(std::uint64_t);
}

std::uint64_t data_offset_for(std::size_t tile_count) {
  const std::size_t tables_end =
      checksum_table_offset(tile_count) + tile_count * sizeof(std::uint64_t);
  return (tables_end + kAlign - 1) / kAlign * kAlign;
}

}  // namespace

Tile::Tile(std::uint32_t tile_dim)
    : dim_(tile_dim),
      data_(static_cast<float*>(
          ::operator new[](tile_size_bytes(tile_dim), kAlignVal))) {}

// --- Writer -----------------------------------------------------------------

TileFile::Writer::Writer(const TileFileParams& params,
                         const std::string& path, HostId n,
                         std::uint32_t tile_dim)
    : params_(params), path_(path) {
  if (tile_dim == 0 || tile_dim % DelayMatrixView::kLaneFloats != 0) {
    throw std::invalid_argument(
        std::string(params.store_name) +
        ": tile_dim must be a nonzero multiple of " +
        std::to_string(DelayMatrixView::kLaneFloats));
  }
  tiles_ = (n + tile_dim - 1) / tile_dim;
  tile_bytes_ = tile_size_bytes(tile_dim);
  const std::size_t count = tile_count_for(params.shape, tiles_);
  checksums_.assign(count, 0);
  data_offset_ = data_offset_for(count);

  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    fail_for(params.store_name, "cannot open for writing", path);
  }

  RawHeader h{};
  std::memcpy(h.magic, params.magic, sizeof(h.magic));
  h.version = params.version;
  h.n = n;
  h.tile_dim = tile_dim;
  h.tiles = tiles_;
  h.tile_bytes = tile_bytes_;
  h.data_offset = data_offset_;
  fwrite_all(&h, sizeof(h), f_, params.store_name, path_);

  std::vector<std::uint64_t> offsets(count);
  for (std::size_t t = 0; t < count; ++t) {
    offsets[t] = data_offset_ + t * tile_bytes_;
  }
  const std::size_t index_bytes = count * sizeof(std::uint64_t);
  if (count != 0) {
    fwrite_all(offsets.data(), index_bytes, f_, params.store_name, path_);
    // Checksum-table placeholder: per-tile hashes accumulate as tiles are
    // appended and are committed with one seek-back by finish().
    fwrite_all(checksums_.data(), index_bytes, f_, params.store_name, path_);
  }
  const std::vector<char> pad(
      data_offset_ - sizeof(RawHeader) - 2 * index_bytes, 0);
  if (!pad.empty()) {
    fwrite_all(pad.data(), pad.size(), f_, params.store_name, path_);
  }
}

TileFile::Writer::~Writer() {
  if (f_ != nullptr) std::fclose(f_);  // unfinished: abandon, no commit
}

void TileFile::Writer::append_tile(const float* tile) {
  assert(appended_ < checksums_.size());
  fwrite_all(tile, tile_bytes_, f_, params_.store_name, path_);
  checksums_[appended_++] = checksum64(tile, tile_bytes_);
}

void TileFile::Writer::commit_checksums_and_close() {
  if (!checksums_.empty()) {
    if (std::fseek(f_,
                   static_cast<long>(checksum_table_offset(checksums_.size())),
                   SEEK_SET) != 0) {
      fail_for(params_.store_name, "seek to checksum table failed", path_);
    }
    fwrite_all(checksums_.data(),
               checksums_.size() * sizeof(std::uint64_t), f_,
               params_.store_name, path_);
  }
  std::FILE* f = std::exchange(f_, nullptr);
  if (std::fclose(f) != 0) {
    fail_for(params_.store_name, "close failed", path_);
  }
}

void TileFile::Writer::finish() {
  assert(appended_ == checksums_.size());
  commit_checksums_and_close();
}

void TileFile::Writer::finish_sparse(std::uint64_t uniform_checksum) {
  assert(appended_ == 0);
  checksums_.assign(checksums_.size(), uniform_checksum);
  // The tile region becomes a hole, not tile_count physical zero writes
  // (~20 GB at the N >= 1e5 target): holes pread back as zeros, which is
  // exactly what `uniform_checksum` describes, so read behavior is
  // byte-identical while blocks materialize only as tiles are committed.
  if (std::fflush(f_) != 0) {
    fail_for(params_.store_name, "flush failed", path_);
  }
  if (::ftruncate(::fileno(f_),
                  static_cast<off_t>(data_offset_ +
                                     checksums_.size() * tile_bytes_)) != 0) {
    fail_for(params_.store_name, "truncate failed", path_);
  }
  commit_checksums_and_close();
}

// --- TileFile ---------------------------------------------------------------

void TileFile::fail(const std::string& what) const {
  fail_for(format_->store_name, what, path_);
}

void TileFile::bad_format(const std::string& what) const {
  fail_for<TileFormatError>(format_->store_name, what, path_);
}

void TileFile::wrong_shape(TileIndexShape shape, const char* caller) const {
  throw std::invalid_argument(
      std::string(caller) + ": expects " +
      (shape == TileIndexShape::kSquare ? "an input" : "a severity sink") +
      " tile file, got the " + format_->store_name + " file " + path_);
}

TileFile TileFile::open(const TileFileParams& params, const std::string& path,
                        bool writable, HostId expected_n,
                        std::uint32_t expected_tile_dim) {
  const int fd = ::open(path.c_str(), writable ? O_RDWR : O_RDONLY);
  if (fd < 0) fail_for(params.store_name, "cannot open", path);
  TileFile f;
  f.format_ = &params;
  f.path_ = path;
  f.fd_ = fd;
  f.writable_ = writable;
  {
    auto& reg = obs::MetricsRegistry::instance();
    const std::string prefix = params.metric_prefix;
    f.metrics_.reads = &reg.counter(prefix + ".reads");
    f.metrics_.read_bytes = &reg.counter(prefix + ".read_bytes");
    f.metrics_.read_retries = &reg.counter(prefix + ".read_retries");
    f.metrics_.corrupt_tiles = &reg.counter(prefix + ".corrupt_tiles");
    f.metrics_.writes = &reg.counter(prefix + ".writes");
    f.metrics_.write_bytes = &reg.counter(prefix + ".write_bytes");
  }

  RawHeader h{};
  if (::pread(fd, &h, sizeof(h), 0) != static_cast<ssize_t>(sizeof(h))) {
    f.bad_format("short header");
  }
  // The magic's last byte is the format generation digit: a store written
  // by an older generation (e.g. with the previous checksum) reads as an
  // unsupported version, not as a foreign file.
  constexpr std::size_t kFamily = sizeof(h.magic) - 1;
  if (std::memcmp(h.magic, params.magic, kFamily) != 0) {
    f.bad_format("bad magic");
  }
  if (h.magic[kFamily] != params.magic[kFamily] ||
      h.version != params.version) {
    f.bad_format("unsupported version");
  }
  // 64-bit: h.n + h.tile_dim - 1 wraps in uint32_t for n near 2^32.
  if (h.tile_dim == 0 || h.tile_dim % DelayMatrixView::kLaneFloats != 0 ||
      h.tiles != (std::uint64_t{h.n} + h.tile_dim - 1) / h.tile_dim) {
    f.bad_format("inconsistent header");
  }
  if (expected_n != 0 &&
      (h.n != expected_n || h.tile_dim != expected_tile_dim)) {
    f.bad_format("header geometry (n=" + std::to_string(h.n) +
                 ", tile_dim=" + std::to_string(h.tile_dim) +
                 ") does not match the requested store (n=" +
                 std::to_string(expected_n) + ", tile_dim=" +
                 std::to_string(expected_tile_dim) + ")");
  }
  // Before anything is sized from the header, both tables and one tile
  // must fit the file. The tile region may end early: a torn tail reads
  // back as a CorruptTileError, which self-healing rewrites in place.
  struct stat st {};
  if (::fstat(fd, &st) != 0) f.fail("cannot stat");
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  const std::uint64_t count = tile_count_for(params.shape, h.tiles);
  if (count > file_bytes / (2 * sizeof(std::uint64_t)) ||
      data_offset_for(count) > file_bytes ||
      (count != 0 && std::uint64_t{h.tile_dim} * h.tile_dim >
                         file_bytes / sizeof(float))) {
    f.bad_format("header (n=" + std::to_string(h.n) + ", tiles=" +
                 std::to_string(h.tiles) + ") does not fit the file's " +
                 std::to_string(file_bytes) + " bytes");
  }
  f.n_ = h.n;
  f.tile_dim_ = h.tile_dim;
  f.tiles_ = h.tiles;
  if (h.tile_bytes != f.tile_bytes()) f.bad_format("tile size mismatch");

  f.tile_offsets_.resize(count);
  f.tile_checksums_.resize(count);
  const std::size_t index_bytes = count * sizeof(std::uint64_t);
  if (count != 0) {
    if (::pread(fd, f.tile_offsets_.data(), index_bytes, sizeof(RawHeader)) !=
        static_cast<ssize_t>(index_bytes)) {
      f.bad_format("short index");
    }
    if (::pread(fd, f.tile_checksums_.data(), index_bytes,
                static_cast<off_t>(checksum_table_offset(count))) !=
        static_cast<ssize_t>(index_bytes)) {
      f.bad_format("short checksum table");
    }
  }
  return f;
}

TileFile::TileFile(TileFile&& o) noexcept
    : format_(o.format_),
      path_(std::move(o.path_)),
      fd_(std::exchange(o.fd_, -1)),
      writable_(o.writable_),
      n_(o.n_),
      tile_dim_(o.tile_dim_),
      tiles_(o.tiles_),
      tile_offsets_(std::move(o.tile_offsets_)),
      tile_checksums_(std::move(o.tile_checksums_)),
      read_retries_(o.read_retries_.load(std::memory_order_relaxed)),
      injector_(std::exchange(o.injector_, nullptr)),
      metrics_(o.metrics_) {}

TileFile& TileFile::operator=(TileFile&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    format_ = o.format_;
    path_ = std::move(o.path_);
    fd_ = std::exchange(o.fd_, -1);
    writable_ = o.writable_;
    n_ = o.n_;
    tile_dim_ = o.tile_dim_;
    tiles_ = o.tiles_;
    tile_offsets_ = std::move(o.tile_offsets_);
    tile_checksums_ = std::move(o.tile_checksums_);
    read_retries_.store(o.read_retries_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    injector_ = std::exchange(o.injector_, nullptr);
    metrics_ = o.metrics_;
  }
  return *this;
}

TileFile::~TileFile() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint32_t TileFile::band_rows(std::uint32_t r) const {
  if (r >= tiles_) {
    throw std::out_of_range("TileFile: band " + std::to_string(r) +
                            " outside " + std::to_string(tiles_) + " bands");
  }
  const std::size_t base = static_cast<std::size_t>(r) * tile_dim_;
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(tile_dim_, n_ - base));
}

std::size_t TileFile::tile_index(std::uint32_t r, std::uint32_t c) const {
  if (r >= tiles_ || c >= tiles_ ||
      (format_->shape != TileIndexShape::kSquare && r > c)) {
    throw std::out_of_range("TileFile: tile (" + std::to_string(r) + ", " +
                            std::to_string(c) + ") outside the " +
                            std::to_string(tiles_) + "-band index");
  }
  if (format_->shape == TileIndexShape::kSquare) {
    return static_cast<std::size_t>(r) * tiles_ + c;
  }
  // Row r of the upper triangle starts after r full rows minus the
  // triangle above: r*tiles - r*(r-1)/2, then offset (c - r) within it.
  return static_cast<std::size_t>(r) * tiles_ -
         static_cast<std::size_t>(r) * (r - 1) / 2 + (c - r);
}

void TileFile::read_tile(std::uint32_t r, std::uint32_t c, float* tile) const {
  const std::size_t idx = tile_index(r, c);
  metrics_.reads->increment();
  metrics_.read_bytes->add(tile_bytes());
  for (int attempt = 0;; ++attempt) {
    if (injector_ != nullptr) injector_->before_read();
    const ssize_t got = ::pread(fd_, tile, tile_bytes(),
                                static_cast<off_t>(tile_offsets_[idx]));
    if (got < 0) fail("tile read failed");
    if (got != static_cast<ssize_t>(tile_bytes())) {
      // A valid offset returning fewer bytes than the fixed record length
      // means the file lost its tail — data damage a re-read cannot undo,
      // so it escalates straight to the recoverable path.
      metrics_.corrupt_tiles->increment();
      throw CorruptTileError(format_->store_name, path_, r, c,
                             "truncated tile");
    }
    if (injector_ != nullptr) {
      std::size_t byte = 0;
      unsigned bit = 0;
      if (injector_->corrupt_read(tile_bytes(), &byte, &bit)) {
        reinterpret_cast<unsigned char*>(tile)[byte] ^=
            static_cast<unsigned char>(1u << bit);
      }
    }
    if (checksum64(tile, tile_bytes()) == tile_checksums_[idx]) return;
    // Mismatch: a bit flipped between platter and checksum is transient —
    // a fresh pread serves clean bytes — while rot or a torn commit
    // mismatches every time. Retry a bounded number of times so only the
    // persistent kind escalates (and higher layers never pay a rebuild
    // for in-flight noise).
    if (attempt >= kReadRetries) {
      metrics_.corrupt_tiles->increment();
      throw CorruptTileError(format_->store_name, path_, r, c,
                             "checksum mismatch");
    }
    read_retries_.fetch_add(1, std::memory_order_relaxed);
    metrics_.read_retries->increment();
    // The re-read bytes count too — they hit the device again.
    metrics_.read_bytes->add(tile_bytes());
  }
}

void TileFile::write_tile(std::uint32_t r, std::uint32_t c,
                          const float* tile) {
  if (!writable_) fail("tile write on a read-only store");
  const std::size_t idx = tile_index(r, c);
  metrics_.writes->increment();
  metrics_.write_bytes->add(tile_bytes());
  const WriteFault fault =
      injector_ != nullptr ? injector_->on_write() : WriteFault::kNone;
  const auto off = static_cast<off_t>(tile_offsets_[idx]);
  if (fault == WriteFault::kTornWrite) {
    // Persist only the first half of the tile bytes, leave the checksum
    // table untouched, and die: the on-disk tile is now genuinely torn.
    const std::size_t half = tile_bytes() / 2;
    if (::pwrite(fd_, tile, half, off) != static_cast<ssize_t>(half)) {
      fail("tile write failed");
    }
    throw InjectedCrash(std::string(format_->store_name) +
                        ": injected torn write on tile (" +
                        std::to_string(r) + ", " + std::to_string(c) + ")");
  }

  if (::pwrite(fd_, tile, tile_bytes(), off) !=
      static_cast<ssize_t>(tile_bytes())) {
    fail("tile write failed");
  }
  const std::uint64_t h = checksum64(tile, tile_bytes());
  if (fault == WriteFault::kFailBeforeChecksum) {
    // The tile bytes landed but the checksum slot never will: the table
    // still describes the old bytes, so the next read reports corruption.
    throw InjectedCrash(std::string(format_->store_name) +
                        ": injected crash before checksum commit on tile (" +
                        std::to_string(r) + ", " + std::to_string(c) + ")");
  }
  if (::pwrite(fd_, &h, sizeof(h),
               static_cast<off_t>(
                   checksum_table_offset(tile_checksums_.size()) +
                   idx * sizeof(std::uint64_t))) !=
      static_cast<ssize_t>(sizeof(h))) {
    fail("checksum write failed");
  }
  tile_checksums_[idx] = h;
}

}  // namespace tiv::shard
