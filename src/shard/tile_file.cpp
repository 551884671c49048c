#include "shard/tile_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

std::uint64_t data_offset_for(std::size_t tile_count, std::uint32_t tile_dim) {
  const std::size_t tables_end =
      checksum_table_offset(tile_count) +
      tile_count * tile_dim * sizeof(std::uint64_t);
  return (tables_end + kAlign - 1) / kAlign * kAlign;
}

/// The checksum64 of each of `tile`'s tile_dim rows, into `sums`.
void hash_rows(const float* tile, std::uint32_t tile_dim,
               std::uint64_t* sums) {
  const std::size_t row_bytes = tile_dim * sizeof(float);
  for (std::uint32_t lr = 0; lr < tile_dim; ++lr) {
    sums[lr] = checksum64(tile + std::size_t{lr} * tile_dim, row_bytes);
  }
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
  tile_dim_ = tile_dim;
  tiles_ = (n + tile_dim - 1) / tile_dim;
  tile_bytes_ = tile_size_bytes(tile_dim);
  const std::size_t count = tile_count_for(params.shape, tiles_);
  row_checksums_.assign(count * tile_dim, 0);
  data_offset_ = data_offset_for(count, tile_dim);

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
  const std::size_t table_bytes = row_checksums_.size() * sizeof(std::uint64_t);
  if (count != 0) {
    fwrite_all(offsets.data(), index_bytes, f_, params.store_name, path_);
    // Checksum-table placeholder: row hashes accumulate as tiles are
    // appended and are committed with one seek-back by finish().
    fwrite_all(row_checksums_.data(), table_bytes, f_, params.store_name,
               path_);
  }
  const std::vector<char> pad(
      data_offset_ - sizeof(RawHeader) - index_bytes - table_bytes, 0);
  if (!pad.empty()) {
    fwrite_all(pad.data(), pad.size(), f_, params.store_name, path_);
  }
}

TileFile::Writer::~Writer() {
  if (f_ != nullptr) std::fclose(f_);  // unfinished: abandon, no commit
}

void TileFile::Writer::append_tile(const float* tile) {
  assert((appended_ + 1) * tile_dim_ <= row_checksums_.size());
  fwrite_all(tile, tile_bytes_, f_, params_.store_name, path_);
  hash_rows(tile, tile_dim_, row_checksums_.data() + appended_++ * tile_dim_);
}

void TileFile::Writer::commit_checksums_and_close() {
  if (!row_checksums_.empty()) {
    const std::size_t count = row_checksums_.size() / tile_dim_;
    if (std::fseek(f_, static_cast<long>(checksum_table_offset(count)),
                   SEEK_SET) != 0) {
      fail_for(params_.store_name, "seek to checksum table failed", path_);
    }
    fwrite_all(row_checksums_.data(),
               row_checksums_.size() * sizeof(std::uint64_t), f_,
               params_.store_name, path_);
  }
  std::FILE* f = std::exchange(f_, nullptr);
  if (std::fclose(f) != 0) {
    fail_for(params_.store_name, "close failed", path_);
  }
}

void TileFile::Writer::finish() {
  assert(appended_ * tile_dim_ == row_checksums_.size());
  commit_checksums_and_close();
}

void TileFile::Writer::finish_sparse(std::uint64_t uniform_row_checksum) {
  assert(appended_ == 0);
  row_checksums_.assign(row_checksums_.size(), uniform_row_checksum);
  // The tile region becomes a hole, not tile_count physical zero writes
  // (~20 GB at the N >= 1e5 target): holes pread back as zeros, which is
  // exactly what `uniform_row_checksum` describes, so read behavior is
  // byte-identical while blocks materialize only as tiles are committed.
  if (std::fflush(f_) != 0) {
    fail_for(params_.store_name, "flush failed", path_);
  }
  const std::size_t count = row_checksums_.size() / tile_dim_;
  if (::ftruncate(::fileno(f_), static_cast<off_t>(data_offset_ +
                                                   count * tile_bytes_)) != 0) {
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
  // Before anything is sized from the header, both tables (the index and
  // tile_dim row checksums per tile) and one tile must fit the file. The
  // tile region may end early: a torn tail reads back as a
  // CorruptTileError, which self-healing rewrites in place.
  struct stat st {};
  if (::fstat(fd, &st) != 0) f.fail("cannot stat");
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  const std::uint64_t count = tile_count_for(params.shape, h.tiles);
  if (count > file_bytes / ((1 + std::uint64_t{h.tile_dim}) *
                            sizeof(std::uint64_t)) ||
      data_offset_for(count, h.tile_dim) > file_bytes ||
      (count != 0 && std::uint64_t{h.tile_dim} * h.tile_dim >
                         file_bytes / sizeof(float))) {
    f.bad_format("header (n=" + std::to_string(h.n) + ", tiles=" +
                 std::to_string(h.tiles) + ") does not fit the file's " +
                 std::to_string(file_bytes) + " bytes");
  }
  f.n_ = h.n;
  f.tile_dim_ = h.tile_dim;
  f.tiles_ = h.tiles;
  f.file_bytes_.store(file_bytes, std::memory_order_relaxed);
  if (h.tile_bytes != f.tile_bytes()) f.bad_format("tile size mismatch");

  f.tile_offsets_.resize(count);
  f.row_checksums_.resize(count * h.tile_dim);
  const std::size_t index_bytes = count * sizeof(std::uint64_t);
  const std::size_t table_bytes = index_bytes * h.tile_dim;
  if (count != 0) {
    if (::pread(fd, f.tile_offsets_.data(), index_bytes, sizeof(RawHeader)) !=
        static_cast<ssize_t>(index_bytes)) {
      f.bad_format("short index");
    }
    if (::pread(fd, f.row_checksums_.data(), table_bytes,
                static_cast<off_t>(checksum_table_offset(count))) !=
        static_cast<ssize_t>(table_bytes)) {
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
      row_checksums_(std::move(o.row_checksums_)),
      file_bytes_(o.file_bytes_.load(std::memory_order_relaxed)),
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
    row_checksums_ = std::move(o.row_checksums_);
    file_bytes_.store(o.file_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
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
  read_rows(r, c, 0, tile_dim_, tile);
}

void TileFile::read_row_segment(std::uint32_t r, std::uint32_t c,
                                std::uint32_t lr, float* out) const {
  if (lr >= tile_dim_) {
    throw std::out_of_range("TileFile: row " + std::to_string(lr) +
                            " outside a " + std::to_string(tile_dim_) +
                            "-row tile");
  }
  read_rows(r, c, lr, 1, out);
}

bool TileFile::record_present(std::size_t idx) const {
  const std::uint64_t end = tile_offsets_[idx] + tile_bytes();
  if (end <= file_bytes_.load(std::memory_order_relaxed)) return true;
  struct stat st {};
  if (::fstat(fd_, &st) != 0) fail("cannot stat");
  const auto now = static_cast<std::uint64_t>(st.st_size);
  file_bytes_.store(now, std::memory_order_relaxed);
  return end <= now;
}

void TileFile::read_rows(std::uint32_t r, std::uint32_t c, std::uint32_t first,
                         std::uint32_t rows, float* out) const {
  const std::size_t idx = tile_index(r, c);
  const std::size_t bytes = rows * row_bytes();
  const auto off =
      static_cast<off_t>(tile_offsets_[idx] + first * row_bytes());
  const std::uint64_t* sums =
      row_checksums_.data() + idx * tile_dim_ + first;
  metrics_.reads->increment();
  metrics_.read_bytes->add(bytes);
  for (int attempt = 0;; ++attempt) {
    if (injector_ != nullptr) injector_->before_read();
    const ssize_t got = ::pread(fd_, out, bytes, off);
    if (got < 0) fail("tile read failed");
    if (got != static_cast<ssize_t>(bytes) || !record_present(idx)) {
      // A tile record the file's end cuts short means the file lost its
      // tail — data damage a re-read cannot undo, so it escalates
      // straight to the recoverable path, whichever rows were asked for.
      metrics_.corrupt_tiles->increment();
      throw CorruptTileError(format_->store_name, path_, r, c,
                             "truncated tile");
    }
    if (injector_ != nullptr) {
      std::size_t byte = 0;
      unsigned bit = 0;
      if (injector_->corrupt_read(bytes, &byte, &bit)) {
        reinterpret_cast<unsigned char*>(out)[byte] ^=
            static_cast<unsigned char>(1u << bit);
      }
    }
    bool clean = true;
    for (std::uint32_t i = 0; i < rows; ++i) {
      clean &= checksum64(out + std::size_t{i} * tile_dim_, row_bytes()) ==
               sums[i];
    }
    if (clean) return;
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
    metrics_.read_bytes->add(bytes);
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
  // The tile's rows are adjacent in the table: one write commits them.
  thread_local std::vector<std::uint64_t> sums;
  sums.resize(tile_dim_);
  hash_rows(tile, tile_dim_, sums.data());
  if (fault == WriteFault::kFailBeforeChecksum) {
    // The tile bytes landed but the checksums never will: the table still
    // describes the old bytes, so the next read reports corruption.
    throw InjectedCrash(std::string(format_->store_name) +
                        ": injected crash before checksum commit on tile (" +
                        std::to_string(r) + ", " + std::to_string(c) + ")");
  }
  const std::size_t sums_bytes = tile_dim_ * sizeof(std::uint64_t);
  if (::pwrite(fd_, sums.data(), sums_bytes,
               static_cast<off_t>(checksum_table_offset(tile_count()) +
                                  idx * sums_bytes)) !=
      static_cast<ssize_t>(sums_bytes)) {
    fail("checksum write failed");
  }
  std::copy(sums.begin(), sums.end(),
            row_checksums_.begin() +
                static_cast<std::ptrdiff_t>(idx * tile_dim_));
}

}  // namespace tiv::shard
