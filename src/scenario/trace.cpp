#include "scenario/trace.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "shard/checksum.hpp"

namespace tiv::scenario {
namespace {

constexpr char kMagic[8] = {'T', 'I', 'V', 'T', 'R', 'C', 'E', '2'};

[[noreturn]] void fail_io(const std::string& what, const std::string& path) {
  throw std::runtime_error("DelayTrace: " + what + ": " + path);
}

[[noreturn]] void fail_format(const std::string& what,
                              const std::string& path) {
  throw TraceFormatError("DelayTrace: " + what + ": " + path);
}

void append(std::vector<unsigned char>& buf, const void* data,
            std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf.insert(buf.end(), p, p + bytes);
}

// Events are serialized field-by-field (20 bytes) rather than as the raw
// struct so alignment padding never leaks uninitialized bytes into the
// checksum.
constexpr std::size_t kEventBytes =
    2 * sizeof(std::uint32_t) + sizeof(float) + sizeof(double);

void append_events(std::vector<unsigned char>& buf,
                   const std::vector<stream::DelaySample>& events) {
  for (const auto& e : events) {
    const std::uint32_t a = e.a;
    const std::uint32_t b = e.b;
    append(buf, &a, sizeof(a));
    append(buf, &b, sizeof(b));
    append(buf, &e.delay_ms, sizeof(e.delay_ms));
    append(buf, &e.timestamp, sizeof(e.timestamp));
  }
}

/// Bounds-checked sequential reader over the loaded file image.
struct Cursor {
  const unsigned char* data;
  std::size_t size;
  std::size_t off = 0;
  const std::string& path;

  void read(void* out, std::size_t bytes) {
    if (bytes > size - off) fail_format("truncated body", path);
    std::memcpy(out, data + off, bytes);
    off += bytes;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    read(&v, sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    read(&v, sizeof(v));
    return v;
  }
};

void read_events(Cursor& cur, std::uint32_t count,
                 std::vector<stream::DelaySample>& out) {
  // Validate the count against remaining bytes BEFORE reserving so a
  // corrupt count can't balloon the allocation.
  if (static_cast<std::uint64_t>(count) * kEventBytes > cur.size - cur.off) {
    fail_format("event count overruns file", cur.path);
  }
  out.resize(count);
  for (auto& e : out) {
    e.a = cur.u32();
    e.b = cur.u32();
    cur.read(&e.delay_ms, sizeof(e.delay_ms));
    cur.read(&e.timestamp, sizeof(e.timestamp));
  }
}

}  // namespace

std::size_t DelayTrace::total_truth_events() const {
  std::size_t total = 0;
  for (const auto& e : epochs) total += e.truth.size();
  return total;
}

std::size_t DelayTrace::total_samples() const {
  std::size_t total = 0;
  for (const auto& e : epochs) total += e.samples.size();
  return total;
}

void DelayTrace::save(const std::string& path) const {
  std::vector<unsigned char> buf;
  buf.reserve(sizeof(kMagic) + 32 + family.size() +
              (total_truth_events() + total_samples()) * kEventBytes +
              epochs.size() * 8 + sizeof(std::uint64_t));
  append(buf, kMagic, sizeof(kMagic));
  append(buf, &hosts, sizeof(hosts));
  append(buf, &seed, sizeof(seed));
  const auto family_len = static_cast<std::uint32_t>(family.size());
  append(buf, &family_len, sizeof(family_len));
  append(buf, family.data(), family.size());
  const auto epoch_count = static_cast<std::uint32_t>(epochs.size());
  append(buf, &epoch_count, sizeof(epoch_count));
  for (const auto& epoch : epochs) {
    const auto tc = static_cast<std::uint32_t>(epoch.truth.size());
    const auto sc = static_cast<std::uint32_t>(epoch.samples.size());
    append(buf, &tc, sizeof(tc));
    append(buf, &sc, sizeof(sc));
    append_events(buf, epoch.truth);
    append_events(buf, epoch.samples);
  }
  const std::uint64_t sum = shard::checksum64(buf.data(), buf.size());
  append(buf, &sum, sizeof(sum));

  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail_io("cannot open for writing", path);
  const bool ok = ::write(fd, buf.data(), buf.size()) ==
                  static_cast<ssize_t>(buf.size());
  if (::close(fd) != 0 || !ok) fail_io("write failed", path);
}

DelayTrace DelayTrace::load(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail_io("cannot open", path);
  std::vector<unsigned char> buf;
  unsigned char chunk[1 << 16];
  ssize_t got;
  while ((got = ::read(fd, chunk, sizeof(chunk))) > 0) {
    buf.insert(buf.end(), chunk, chunk + got);
  }
  ::close(fd);
  if (got < 0) fail_io("read failed", path);

  if (buf.size() < sizeof(kMagic) + sizeof(std::uint64_t)) {
    fail_format("file too short", path);
  }
  if (std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    fail_format("bad magic", path);
  }
  std::uint64_t sum = 0;
  std::memcpy(&sum, buf.data() + buf.size() - sizeof(sum), sizeof(sum));
  if (shard::checksum64(buf.data(), buf.size() - sizeof(sum)) != sum) {
    fail_format("checksum mismatch (torn or corrupted trace)", path);
  }

  Cursor cur{buf.data(), buf.size() - sizeof(sum), sizeof(kMagic), path};
  DelayTrace trace;
  cur.read(&trace.hosts, sizeof(trace.hosts));
  trace.seed = cur.u64();
  const std::uint32_t family_len = cur.u32();
  if (family_len > cur.size - cur.off) {
    fail_format("family length overruns file", path);
  }
  trace.family.assign(reinterpret_cast<const char*>(cur.data + cur.off),
                      family_len);
  cur.off += family_len;
  const std::uint32_t epoch_count = cur.u32();
  // Every epoch holds at least its two u32 event counts: bound the count by
  // the bytes left before sizing anything by it.
  if (epoch_count > (cur.size - cur.off) / 8) {
    fail_format("epoch count overruns file", path);
  }
  trace.epochs.resize(epoch_count);
  for (auto& epoch : trace.epochs) {
    const std::uint32_t tc = cur.u32();
    const std::uint32_t sc = cur.u32();
    read_events(cur, tc, epoch.truth);
    read_events(cur, sc, epoch.samples);
  }
  if (cur.off != cur.size) fail_format("trailing bytes after epochs", path);
  return trace;
}

void apply_truth(const TraceEpoch& epoch, DelayMatrix& truth) {
  const HostId n = truth.size();
  for (const auto& e : epoch.truth) {
    if (e.a == e.b || e.a >= n || e.b >= n) {
      throw std::invalid_argument(
          "apply_truth: event references invalid edge");
    }
    if (e.delay_ms < 0.0f) {
      truth.set_missing(e.a, e.b);
    } else {
      truth.set(e.a, e.b, e.delay_ms);
    }
  }
}

}  // namespace tiv::scenario
