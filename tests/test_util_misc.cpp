// parallel_for, Flags, and Table.
#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

namespace tiv {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(kN, [&](std::size_t i) { ++visits[i]; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, HandlesZeroAndOne) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ChunksCoverRangeWithoutOverlap) {
  // The static partition's last chunk is short whenever the thread count
  // does not divide n; every count must still visit each index once.
  for (std::size_t threads : {2u, 3u, 4u, 7u}) {
    set_parallel_thread_count(threads);
    for (std::size_t n : {5u, 999u, 5000u}) {
      std::vector<std::atomic<int>> visits(n);
      parallel_for(n, [&](std::size_t i) { ++visits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(visits[i].load(), 1) << threads << " threads, n=" << n;
      }
    }
  }
  set_parallel_thread_count(0);
}

TEST(ParallelFor, ThreadCountOverride) {
  set_parallel_thread_count(1);
  EXPECT_EQ(parallel_thread_count(), 1u);
  // Single-threaded execution must still visit everything.
  std::size_t sum = 0;  // no atomics needed with 1 thread
  parallel_for(100, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 4950u);
  set_parallel_thread_count(0);
  EXPECT_GE(parallel_thread_count(), 1u);
}

Flags make_flags(std::vector<const char*> argv) {
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesEqualsForm) {
  const auto f = make_flags({"prog", "--hosts=500", "--name=ds2"});
  EXPECT_EQ(f.get_int("hosts", 0), 500);
  EXPECT_EQ(f.get_string("name", ""), "ds2");
}

TEST(Flags, ParsesSpaceForm) {
  const auto f = make_flags({"prog", "--hosts", "500"});
  EXPECT_EQ(f.get_int("hosts", 0), 500);
}

TEST(Flags, BareBooleanAndExplicit) {
  const auto f = make_flags({"prog", "--full", "--fast=false"});
  EXPECT_TRUE(f.get_bool("full", false));
  EXPECT_FALSE(f.get_bool("fast", true));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = make_flags({"prog"});
  EXPECT_EQ(f.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("y", 2.5), 2.5);
  EXPECT_FALSE(f.has("x"));
}

TEST(Flags, RejectsNonFlagToken) {
  EXPECT_THROW(make_flags({"prog", "positional"}), std::invalid_argument);
}

TEST(Flags, RejectsBadInteger) {
  const auto f = make_flags({"prog", "--n=abc"});
  EXPECT_THROW(f.get_int("n", 0), std::invalid_argument);
}

TEST(Flags, RejectsBadBoolean) {
  const auto f = make_flags({"prog", "--b=maybe"});
  EXPECT_THROW(f.get_bool("b", false), std::invalid_argument);
}

TEST(Flags, UnconsumedDetectsTypos) {
  const auto f = make_flags({"prog", "--hosts=5", "--typo=1"});
  EXPECT_EQ(f.get_int("hosts", 0), 5);
  const auto unknown = f.unconsumed();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
  EXPECT_THROW(reject_unknown_flags(f), std::invalid_argument);
}

TEST(Flags, RejectUnknownPassesWhenAllConsumed) {
  const auto f = make_flags({"prog", "--hosts=5"});
  EXPECT_EQ(f.get_int("hosts", 0), 5);
  EXPECT_NO_THROW(reject_unknown_flags(f));
}

TEST(Table, AlignsColumnsAndUnderlines) {
  Table t({"a", "long_header"});
  t.add_row({"x", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_NE(out.find("x"), std::string::npos);
}

TEST(Table, CsvFormat) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row_numeric({3.14159, 2.0}, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n3.14,2.00\n");
}

TEST(Table, FormatDoubleHandlesNan) {
  EXPECT_EQ(format_double(std::nan(""), 2), "-");
  EXPECT_EQ(format_double(1.5, 2), "1.50");
}

}  // namespace
}  // namespace tiv
