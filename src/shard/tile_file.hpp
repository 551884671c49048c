// The one on-disk tile store: a fixed-record tile file, opened in one of
// two formats — kInputFormat (the packed delay-matrix view, square tile
// grid) and kSinkFormat (the severity output, upper-band-triangle grid).
// One definition of the header/index/checksum-table layout, fd lifecycle,
// and read/write+validate paths, so a hardening fix cannot land in one
// format and miss the other. The byte layout:
//
//   [RawHeader 40B][index: tile_count u64 offsets]
//   [checksums: tile_count u64 checksum64][pad to 64B][tile 0][tile 1]..
//
// Every tile of either format is the same record: tile_dim x tile_dim
// floats, row-major (tile_size_bytes). Formats differ only in their
// magic/version and their index shape (square vs triangular) — a
// TileFileParams constant, not a copy of the machinery. What the floats
// mean (the view encoding, the severity layout) lives with the code that
// writes them: shard/tile_store (write_matrix, repack_tile, create_sink)
// and core/shard_severity. Tile is that record resident in memory, the
// slot type of the tile cache (shard/tile_cache.hpp).
//
// Reliability lives at this layer, once for both formats:
//  - every read validates the tile's checksum64 (shard/checksum.hpp);
//    a mismatch OR a truncated tile body throws CorruptTileError carrying
//    the tile coordinates and file path (recoverable), while a hard pread
//    failure stays a std::runtime_error (not a data-integrity signal);
//  - an optional FaultInjector perturbs reads/commits deterministically
//    (bit-flip, EIO, torn write, fail-before-checksum) — compiled in
//    always, a single null check when disabled;
//  - open() rejects a malformed, foreign or unsupported-version header
//    with TileFormatError, and can assert the header geometry (n,
//    tile_dim) against the geometry the caller expects, so reopening a
//    foreign or stale file fails loudly instead of serving garbage tiles.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "delayspace/delay_matrix.hpp"
#include "obs/metrics.hpp"
#include "shard/checksum.hpp"

namespace tiv::shard {

class FaultInjector;

using delayspace::HostId;

/// Which (r, c) pairs a file holds: every tile of the square grid, or
/// only the upper band triangle r <= c.
enum class TileIndexShape : std::uint8_t { kSquare, kTriangular };

/// Default tile edge: 64 rows x 64 cols x 4 B = 16 KiB per tile —
/// large enough that pread cost amortizes, small enough that a few-MB cache
/// budget holds dozens of tiles.
inline constexpr std::uint32_t kDefaultTileDim = 64;

/// A tile file whose header cannot be served: malformed or short, a
/// foreign magic, an unsupported format generation, or a geometry that
/// does not match the one the caller expects. Thrown by TileFile::open.
class TileFormatError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serialized bytes of one tile: tile_dim^2 floats, a multiple of 64 bytes
/// for every valid tile_dim. Also each resident tile's cache footprint.
inline constexpr std::size_t tile_size_bytes(std::uint32_t tile_dim) {
  return static_cast<std::size_t>(tile_dim) * tile_dim * sizeof(float);
}

/// A tile resident in memory: tile_dim rows of tile_dim floats, 64-byte
/// aligned (tile_dim is a multiple of 16 floats), so every row drops
/// straight into the branch-free witness kernels.
class Tile {
 public:
  explicit Tile(std::uint32_t tile_dim);

  /// Row lr (tile-local), tile_dim floats.
  const float* row(std::size_t lr) const { return data_.get() + lr * dim_; }
  float* data() { return data_.get(); }

 private:
  static constexpr std::align_val_t kAlignVal{64};
  struct AlignedFree {
    void operator()(float* p) const { ::operator delete[](p, kAlignVal); }
  };

  std::uint32_t dim_;
  std::unique_ptr<float[], AlignedFree> data_;
};

/// The constants of a tile-file format: kInputFormat or kSinkFormat.
struct TileFileParams {
  const char* magic;   ///< exactly 8 bytes
  std::uint32_t version;
  const char* store_name;  ///< error-message prefix
  TileIndexShape shape;
  /// Registry namespace for the file's I/O counters
  /// ("<prefix>.reads", ".read_bytes", ".read_retries", ".corrupt_tiles",
  /// ".writes", ".write_bytes" — see docs/OBSERVABILITY.md).
  const char* metric_prefix;
};

/// The input format: the packed delay-matrix view on the square grid
/// (shard/tile_store.hpp). Version 4: tiles are payload only (v3 also
/// stored per-row missing-entry bitmasks; v3 and older files are rejected
/// at open as "unsupported version").
inline constexpr TileFileParams kInputFormat{
    "TIVSHRD4", 4, "input tiles", TileIndexShape::kSquare, "shard.input"};

/// The sink format: severities on the upper band triangle
/// (core/shard_severity.hpp). Version 2: tile checksums are checksum64 (v1
/// files carry FNV-1a sums and are rejected at open as "unsupported
/// version").
inline constexpr TileFileParams kSinkFormat{
    "TIVSSEV2", 2, "severity sink", TileIndexShape::kTriangular,
    "shard.sink"};

class TileFile {
 public:
  /// Streams a new tile file: writes the header, the flat offset index,
  /// a checksum-table placeholder, and the alignment pad, then appends
  /// tiles in index order. finish() seeks back and commits the
  /// accumulated per-tile checksums; finish_sparse() instead records one
  /// uniform checksum for every tile and truncates the tile region into a
  /// hole (the zero-filled-create path). Destroying an unfinished Writer
  /// closes the stream without committing (error-path cleanup is the
  /// caller's concern, as before).
  class Writer {
   public:
    /// Throws std::invalid_argument unless tile_dim is a nonzero multiple
    /// of DelayMatrixView::kLaneFloats; std::runtime_error on I/O failure.
    Writer(const TileFileParams& params, const std::string& path, HostId n,
           std::uint32_t tile_dim);
    ~Writer();
    Writer(const Writer&) = delete;
    Writer& operator=(const Writer&) = delete;

    std::uint32_t tiles_per_side() const { return tiles_; }

    /// Appends the next tile (tile_size_bytes(tile_dim)) and records its
    /// checksum64.
    void append_tile(const float* tile);

    /// Commits the checksums accumulated by append_tile and closes.
    void finish();

    /// Commits `uniform_checksum` for every tile, truncates the file to
    /// its full size (the unwritten tile region preads back as zeros),
    /// and closes.
    void finish_sparse(std::uint64_t uniform_checksum);

   private:
    void commit_checksums_and_close();

    const TileFileParams& params_;
    std::string path_;
    std::FILE* f_ = nullptr;
    std::uint32_t tiles_ = 0;
    std::size_t tile_bytes_ = 0;
    std::uint64_t data_offset_ = 0;
    std::vector<std::uint64_t> checksums_;
    std::size_t appended_ = 0;
  };

  /// Opens an existing tile file of format `params` (kept by reference:
  /// kInputFormat or kSinkFormat) and validates its header, offset
  /// index, and checksum table; `writable` opens it O_RDWR
  /// and enables write_tile. Throws TileFormatError on a malformed, foreign
  /// or unsupported-version header, or — when expected_n is nonzero — a
  /// header geometry (n, tile_dim) that does not match what the caller
  /// requested; std::runtime_error on a missing file or an I/O failure.
  static TileFile open(const TileFileParams& params, const std::string& path,
                       bool writable = false, HostId expected_n = 0,
                       std::uint32_t expected_tile_dim = 0);

  TileFile() = default;
  TileFile(TileFile&& o) noexcept;
  TileFile& operator=(TileFile&& o) noexcept;
  TileFile(const TileFile&) = delete;
  TileFile& operator=(const TileFile&) = delete;
  ~TileFile();

  HostId size() const { return n_; }
  std::uint32_t tile_dim() const { return tile_dim_; }
  std::uint32_t tiles_per_side() const { return tiles_; }
  std::size_t tile_count() const { return tile_offsets_.size(); }
  /// Floats in one tile (tile_dim^2).
  std::size_t payload_floats() const {
    return static_cast<std::size_t>(tile_dim_) * tile_dim_;
  }
  std::size_t tile_bytes() const { return tile_size_bytes(tile_dim_); }
  bool writable() const { return writable_; }
  const std::string& path() const { return path_; }

  /// Throws std::invalid_argument, naming `caller`, unless the file has
  /// index shape `shape` — how the input-side and sink-side functions
  /// refuse the other format's file.
  void require_shape(TileIndexShape shape, const char* caller) const {
    if (shape != format_->shape) wrong_shape(shape, caller);
  }

  /// Rows of tile-row band r that carry real matrix rows (tile_dim except
  /// for the last band). Throws std::out_of_range unless r < tiles.
  std::uint32_t band_rows(std::uint32_t r) const;

  /// Flat index of tile (r, c) under the file's index shape. Throws
  /// std::out_of_range unless r, c < tiles and, for triangular files,
  /// r <= c.
  std::size_t tile_index(std::uint32_t r, std::uint32_t c) const;

  /// Byte offset of tile (r, c) within the file — stable for the file's
  /// lifetime (fixed-size tiles). Exposed for the fault-injection
  /// harnesses that corrupt tiles on disk directly.
  std::uint64_t tile_offset(std::uint32_t r, std::uint32_t c) const {
    return tile_offsets_[tile_index(r, c)];
  }

  /// Attaches (or detaches, nullptr) a fault injector. The injector must
  /// outlive the file or be detached first; calls are thread-safe.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  /// Reads tile (r, c) into `tile` (tile_bytes() bytes) with a positional
  /// read — thread-safe — and validates its checksum64. A
  /// mismatch is first retried with a fresh pread (up to kReadRetries
  /// times): a bit flipped in flight — bus/DMA/RAM, or the injector's
  /// read-flip — is gone on the re-read, so only *persistent* damage (rot
  /// on the platter, a torn commit) escalates. Throws CorruptTileError on
  /// a persistent mismatch or a truncated tile body, std::runtime_error on
  /// a hard I/O failure.
  void read_tile(std::uint32_t r, std::uint32_t c, float* tile) const;

  /// Extra read attempts after a checksum mismatch before giving up.
  static constexpr int kReadRetries = 2;

  /// Checksum-mismatch re-reads that came back clean — transient (in-
  /// flight) corruption absorbed without escalating.
  std::uint64_t read_retries() const {
    return read_retries_.load(std::memory_order_relaxed);
  }

  /// Commits tile (r, c) in place: a positional write of `tile`, then the
  /// refreshed checksum into the table slot (disk and memory). Safe
  /// from concurrent threads for distinct tiles. Throws std::runtime_error
  /// on I/O failure or a read-only open.
  void write_tile(std::uint32_t r, std::uint32_t c, const float* tile);

 private:
  [[noreturn]] void fail(const std::string& what) const;
  [[noreturn]] void bad_format(const std::string& what) const;
  [[noreturn]] void wrong_shape(TileIndexShape shape,
                                const char* caller) const;

  const TileFileParams* format_ = &kInputFormat;
  std::string path_;
  int fd_ = -1;
  bool writable_ = false;
  HostId n_ = 0;
  std::uint32_t tile_dim_ = 0;
  std::uint32_t tiles_ = 0;
  std::vector<std::uint64_t> tile_offsets_;    ///< flat index
  std::vector<std::uint64_t> tile_checksums_;  ///< checksum64, same indexing
  mutable std::atomic<std::uint64_t> read_retries_{0};
  FaultInjector* injector_ = nullptr;

  /// Registry-owned I/O telemetry, resolved once at open() from
  /// TileFileParams::metric_prefix. Pointers because registry metrics have
  /// stable addresses while a TileFile is movable; null only on a
  /// default-constructed file, which has no tile to read or write.
  struct IoMetrics {
    obs::Counter* reads = nullptr;
    obs::Counter* read_bytes = nullptr;
    obs::Counter* read_retries = nullptr;
    obs::Counter* corrupt_tiles = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* write_bytes = nullptr;
  };
  IoMetrics metrics_;
};

}  // namespace tiv::shard
