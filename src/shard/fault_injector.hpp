// Deterministic, seedable storage-fault injection for the tile stores.
//
// A FaultInjector attaches to one tile file (input or sink, via
// TileFile::set_fault_injector) and perturbs its I/O at the TileFile
// layer, so both formats exercise exactly the code paths real hardware
// faults would take:
//
//   bit-flip on read    one bit of the just-read tile bytes is flipped
//                       BEFORE checksum validation — the read surfaces as
//                       CorruptTileError, exactly like on-disk bit rot
//                       (the disk itself is untouched; a retry may succeed)
//   EIO on read         the pread is never issued; the read throws
//                       InjectedIoError (a std::runtime_error), the same
//                       path a failing device takes
//   torn write          a commit persists only a prefix of the tile bytes,
//                       leaves the old checksum, and throws InjectedCrash —
//                       the on-disk tile is now genuinely corrupt, as after
//                       a power cut mid-pwrite
//   fail on commit      the tile bytes land but the checksum slot is never
//                       written, and InjectedCrash is thrown — the other
//                       half of the torn-commit window
//
// The injector is compiled in always and zero-cost when absent: the hook
// sites are a single `injector_ == nullptr` test. Decisions are
// deterministic functions of (seed, per-injector operation counter), so a
// single-threaded replay reproduces the exact fault sequence; under the
// pool the counters are atomic and rates hold even though interleaving
// varies. Counters of injected faults are exposed via stats(), and the
// recovery layers report what they healed — the two sides of every
// fault-injection assertion in tests/test_fault_recovery.cpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

namespace tiv::shard {

/// A simulated device error (EIO): distinct from CorruptTileError — the
/// bytes were never read, nothing to validate — but still a runtime_error
/// for coarse handlers.
struct InjectedIoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A simulated process kill mid-commit. Thrown after the injector has
/// already left the on-disk state torn; test/bench harnesses catch it,
/// abandon the engine, and exercise the reopen-and-recover path.
struct InjectedCrash : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What a write hook tells TileFile to do with the pending commit.
enum class WriteFault : std::uint8_t {
  kNone,
  kTornWrite,          ///< persist a prefix of the tile bytes, then crash
  kFailBeforeChecksum  ///< persist the tile bytes, skip the checksum, crash
};

class FaultInjector {
 public:
  struct Config {
    std::uint64_t seed = 1;
    /// Every k-th read (a tile or a row segment) has one bit flipped
    /// (0 = off). Deterministic — the soak tests' "bit-flip every k-th
    /// read" mode.
    std::uint32_t bitflip_every_kth_read = 0;
    /// Independent per-read bit-flip probability (0 = off).
    double bitflip_read_rate = 0.0;
    /// Independent per-read probability of a simulated EIO (0 = off).
    double eio_read_rate = 0.0;
    /// 1-based ordinal of the tile commit that is torn (0 = off).
    std::uint32_t torn_write_at_commit = 0;
    /// 1-based ordinal of the tile commit that dies before its checksum
    /// lands (0 = off).
    std::uint32_t fail_at_commit = 0;
  };

  struct Stats {
    std::size_t reads = 0;         ///< tile and row-segment reads seen
    std::size_t writes = 0;        ///< write_tile calls seen
    std::size_t bitflips = 0;      ///< reads corrupted in flight
    std::size_t eio_errors = 0;    ///< reads failed as InjectedIoError
    std::size_t torn_writes = 0;   ///< commits torn mid-tile
    std::size_t commit_fails = 0;  ///< commits killed before the checksum
  };

  explicit FaultInjector(const Config& config);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // --- hooks (called by TileFile; thread-safe) -----------------------------

  /// Before the pread: may throw InjectedIoError.
  void before_read();

  /// After the pread, before checksum validation: decides whether this
  /// read's bytes get one bit flipped. When it returns true, *byte_index
  /// (in [0, bytes), over the bytes read, in file order) and *bit name the
  /// flip; TileFile applies it to the read buffer.
  bool corrupt_read(std::size_t bytes, std::size_t* byte_index,
                    unsigned* bit);

  /// Before a tile commit: what TileFile should do with it.
  WriteFault on_write();

  Stats stats() const;

 private:
  /// splitmix64 of (seed, n) — one uniform u64 per decision, so fault
  /// placement is a pure function of the operation ordinal.
  std::uint64_t mix(std::uint64_t n) const;

  Config config_;
  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::uint64_t> bitflips_{0};
  std::atomic<std::uint64_t> eio_errors_{0};
  std::atomic<std::uint64_t> torn_writes_{0};
  std::atomic<std::uint64_t> commit_fails_{0};
};

}  // namespace tiv::shard
