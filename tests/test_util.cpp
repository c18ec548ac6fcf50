#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dcs {
namespace {

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(DCS_REQUIRE(1 == 2, "message"), std::invalid_argument);
  EXPECT_NO_THROW(DCS_REQUIRE(1 == 1, "message"));
}

TEST(Check, CheckThrowsLogicError) {
  EXPECT_THROW(DCS_CHECK(false, "bug"), std::logic_error);
  EXPECT_NO_THROW(DCS_CHECK(true, "fine"));
}

TEST(Check, StreamVariantsFormatRuntimeValues) {
  const int load = 7;
  const int cap = 3;
  try {
    DCS_REQUIRE_MSG(load <= cap, "load " << load << " exceeds cap " << cap);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("load 7 exceeds cap 3"), std::string::npos);
    EXPECT_NE(what.find("load <= cap"), std::string::npos);
  }
  EXPECT_THROW(DCS_CHECK_MSG(false, "value " << 42), std::logic_error);
  EXPECT_NO_THROW(DCS_REQUIRE_MSG(true, "never built"));
  EXPECT_NO_THROW(DCS_CHECK_MSG(true, "never built"));
}

TEST(Check, StreamMessageNotEvaluatedOnSuccess) {
  int evaluations = 0;
  const auto count = [&]() {
    ++evaluations;
    return "msg";
  };
  DCS_REQUIRE_MSG(true, count());
  DCS_CHECK_MSG(true, count());
  EXPECT_EQ(evaluations, 0);
}

TEST(Check, AbortVariantDiesWithDiagnostic) {
  EXPECT_DEATH(DCS_CHECK_ABORT(1 == 2, "teardown " << 99),
               "invariant violated.*1 == 2.*teardown 99");
  EXPECT_NO_FATAL_FAILURE(DCS_CHECK_ABORT(true, "fine"));
}

TEST(Check, MessageIncludesExpressionAndContext) {
  try {
    DCS_REQUIRE(2 + 2 == 5, "arithmetic is broken");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos);
    EXPECT_NE(what.find("arithmetic is broken"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, trials / 10, trials / 100);  // within 10% relative
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    const double d = rng.uniform_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(21);
  Rng child = parent.split();
  Rng parent2(21);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent2()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, Mix64IsDeterministicAndSpread) {
  EXPECT_EQ(mix64(1, 2), mix64(1, 2));
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  std::set<std::uint64_t> values;
  for (std::uint64_t i = 0; i < 1000; ++i) values.insert(mix64(42, i));
  EXPECT_EQ(values.size(), 1000u);
}

TEST(Rng, UniformZeroBoundThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(0), std::invalid_argument);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  const std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, SmallRangeRunsSerially) {
  std::vector<int> hits(10, 0);
  parallel_for(0, 10, [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunksAreDisjointAndComplete) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_chunks(0, n, [&](std::size_t lo, std::size_t hi, std::size_t w) {
    EXPECT_LT(w, ThreadPool::shared().size());
    for (std::size_t i = lo; i < hi; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, NestedParallelForRunsSeriallyInsteadOfDeadlocking) {
  const std::size_t outer = 4096, inner = 4096;
  std::vector<std::atomic<int>> hits(outer);
  parallel_for(0, outer, [&](std::size_t i) {
    std::atomic<int> local{0};
    // Without the reentrancy guard this would deadlock on the pool latch.
    parallel_for(0, inner, [&](std::size_t) {
      local.fetch_add(1, std::memory_order_relaxed);
    });
    hits[i].store(local.load(), std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < outer; ++i) {
    ASSERT_EQ(hits[i].load(), static_cast<int>(inner));
  }
}

TEST(ThreadPool, ParallelRangesInsideParallelForDegradesToSerial) {
  // Regression: parallel_ranges never checked in_parallel_region(), so a
  // direct call from inside a worker (as the query engine's batch
  // callbacks make) posted nested jobs to the busy pool and deadlocked on
  // its completion latch.
  const std::size_t outer = 4096, inner = 1000;
  std::vector<std::atomic<std::size_t>> hits(outer);
  parallel_for(0, outer, [&](std::size_t i) {
    std::size_t covered = 0;
    ThreadPool::shared().parallel_ranges(
        0, inner, [&](std::size_t lo, std::size_t hi, std::size_t w) {
          // Serial fallback: one chunk, worker index 0.
          EXPECT_EQ(w, 0u);
          covered += hi - lo;
        });
    hits[i].store(covered, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < outer; ++i) {
    ASSERT_EQ(hits[i].load(), inner);
  }
}

TEST(ThreadPool, BusyPoolRunsASecondCallerSeriallyInsteadOfBlocking) {
  // Regression: a second top-level caller used to block on the batch in
  // flight. Thread B's batch waits for a lock that thread A holds while A
  // calls into the pool, so blocking deadlocked (the query engine holds
  // its context lock across its parallel sweep; a parallel_for body that
  // serves a query needs that lock). A must run its range serially.
  std::mutex held;
  std::atomic<bool> b_in_batch{false}, a_holds{false};
  std::size_t a_covered = 0;
  std::thread b([&] {
    ThreadPool::shared().parallel_ranges(
        0, 64, [&](std::size_t, std::size_t, std::size_t w) {
          if (w != 0) return;
          b_in_batch.store(true);
          while (!a_holds.load()) std::this_thread::yield();
          std::lock_guard wait_for_a(held);
        });
  });
  while (!b_in_batch.load()) std::this_thread::yield();
  {
    std::lock_guard lock(held);
    a_holds.store(true);
    ThreadPool::shared().parallel_ranges(
        0, 100, [&](std::size_t lo, std::size_t hi, std::size_t) {
          a_covered += hi - lo;
        });
  }
  b.join();
  EXPECT_EQ(a_covered, 100u);
}

TEST(ThreadPool, ParallelForInsideParallelRangesDegradesToSerial) {
  const std::size_t outer = 1000, inner = 4096;
  std::vector<std::atomic<std::size_t>> covered(outer);
  ThreadPool::shared().parallel_ranges(
      0, outer, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
          std::size_t local = 0;
          parallel_for(0, inner, [&](std::size_t) { ++local; });
          covered[i].store(local, std::memory_order_relaxed);
        }
      });
  for (std::size_t i = 0; i < outer; ++i) {
    ASSERT_EQ(covered[i].load(), inner);
  }
}

TEST(ThreadPool, ParallelRangesInsideParallelRangesDegradesToSerial) {
  std::atomic<std::size_t> total{0};
  ThreadPool::shared().parallel_ranges(
      0, 64, [&](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t i = lo; i < hi; ++i) {
          ThreadPool::shared().parallel_ranges(
              0, 100, [&](std::size_t ilo, std::size_t ihi, std::size_t) {
                total.fetch_add(ihi - ilo, std::memory_order_relaxed);
              });
        }
      });
  EXPECT_EQ(total.load(), 64u * 100u);
}

TEST(ThreadPool, ConcurrentTopLevelCallersSerializeSafely) {
  // Two non-worker threads driving the shared pool at once must not
  // corrupt the single-batch job slots.
  constexpr std::size_t kRange = 100000;
  std::atomic<std::size_t> a{0}, b{0};
  std::thread t1([&] {
    for (int r = 0; r < 5; ++r) {
      ThreadPool::shared().parallel_ranges(
          0, kRange, [&](std::size_t lo, std::size_t hi, std::size_t) {
            a.fetch_add(hi - lo, std::memory_order_relaxed);
          });
    }
  });
  std::thread t2([&] {
    for (int r = 0; r < 5; ++r) {
      ThreadPool::shared().parallel_ranges(
          0, kRange, [&](std::size_t lo, std::size_t hi, std::size_t) {
            b.fetch_add(hi - lo, std::memory_order_relaxed);
          });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 5u * kRange);
  EXPECT_EQ(b.load(), 5u * kRange);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  EXPECT_THROW(
      parallel_for(0, 100000,
                   [&](std::size_t i) {
                     if (i == 54321) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // Pool must remain usable after an exception.
  std::atomic<std::size_t> count{0};
  parallel_for(0, 10000, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 10000u);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 10.0);
}

TEST(Stats, ExactPercentileHandlesDegenerateInputs) {
  // An empty sample has no percentiles: NaN, never a fake 0.0 (which once
  // exported misleading zero p99s from empty metric histograms).
  EXPECT_TRUE(std::isnan(exact_percentile({}, 0.5)));
  EXPECT_TRUE(std::isnan(exact_percentile({}, 0.0)));
  const auto empty_batch =
      exact_percentiles({}, std::vector<double>{0.5, 0.99});
  ASSERT_EQ(empty_batch.size(), 2u);
  EXPECT_TRUE(std::isnan(empty_batch[0]));
  EXPECT_TRUE(std::isnan(empty_batch[1]));
  const std::vector<double> one{7.0};
  EXPECT_DOUBLE_EQ(exact_percentile(one, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(exact_percentile(one, 0.5), 7.0);
  EXPECT_DOUBLE_EQ(exact_percentile(one, 1.0), 7.0);
}

TEST(Stats, ExactPercentileInterpolatesAndClamps) {
  const std::vector<double> v{10, 0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(exact_percentile(v, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(exact_percentile(v, -1.0), 0.0);  // q clamped to [0, 1]
  EXPECT_DOUBLE_EQ(exact_percentile(v, 2.0), 10.0);
}

TEST(Stats, ExactPercentilesBatchMatchesSingleCalls) {
  std::vector<double> v;
  Rng rng(11);
  for (int i = 0; i < 100; ++i) v.push_back(rng.uniform_double() * 50.0);
  const std::vector<double> qs{0.0, 0.25, 0.5, 0.95, 0.99, 1.0};
  const auto batch = exact_percentiles(v, qs);
  ASSERT_EQ(batch.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], exact_percentile(v, qs[i]));
    if (i > 0) {
      EXPECT_GE(batch[i], batch[i - 1]);
    }
  }
}

TEST(Parse, DoubleStrictAcceptsOnlyCompleteFiniteNumbers) {
  EXPECT_EQ(parse_double_strict("1.5"), 1.5);
  EXPECT_EQ(parse_double_strict("-2"), -2.0);
  EXPECT_EQ(parse_double_strict("1e3"), 1000.0);
  EXPECT_EQ(parse_double_strict("0"), 0.0);
  // std::stod would accept the first three of these (trailing garbage) and
  // throw on the overflow — both wrong for flag parsing.
  EXPECT_FALSE(parse_double_strict("1.5abc").has_value());
  EXPECT_FALSE(parse_double_strict(" 1.5").has_value());
  EXPECT_FALSE(parse_double_strict("1.5 ").has_value());
  EXPECT_FALSE(parse_double_strict("abc").has_value());
  EXPECT_FALSE(parse_double_strict("").has_value());
  EXPECT_FALSE(parse_double_strict("1e999").has_value());   // overflow
  EXPECT_FALSE(parse_double_strict("inf").has_value());
  EXPECT_FALSE(parse_double_strict("nan").has_value());
}

TEST(Parse, U64StrictRejectsSignsGarbageAndOverflow) {
  EXPECT_EQ(parse_u64_strict("0"), 0u);
  EXPECT_EQ(parse_u64_strict("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64_strict("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64_strict("-1").has_value());
  EXPECT_FALSE(parse_u64_strict("+1").has_value());
  EXPECT_FALSE(parse_u64_strict("12x").has_value());
  EXPECT_FALSE(parse_u64_strict("").has_value());
}

TEST(Stats, LinearSlopeExact) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // slope 2
  EXPECT_NEAR(linear_slope(x, y), 2.0, 1e-12);
}

TEST(Stats, LogLogSlopeRecoversExponent) {
  std::vector<double> x, y;
  for (double n = 100; n <= 100000; n *= 10) {
    x.push_back(n);
    y.push_back(3.7 * std::pow(n, 5.0 / 3.0));
  }
  EXPECT_NEAR(loglog_slope(x, y), 5.0 / 3.0, 1e-9);
}

TEST(Stats, CorrelationSigns) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> up{2, 4, 6, 8, 10};
  std::vector<double> down(up.rbegin(), up.rend());
  EXPECT_NEAR(correlation(x, up), 1.0, 1e-12);
  EXPECT_NEAR(correlation(x, down), -1.0, 1e-12);
}

TEST(Stats, EmptySampleThrows) {
  const std::vector<double> empty;
  EXPECT_THROW(summarize(empty), std::invalid_argument);
  EXPECT_THROW(percentile(empty, 0.5), std::invalid_argument);
}

TEST(Stats, HistogramBinsCoverSample) {
  const std::vector<double> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const Histogram h = histogram(v, 5);
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 10.0);
  std::size_t total = 0;
  for (std::size_t b : h.bins) total += b;
  EXPECT_EQ(total, v.size());
  // max value lands in the last bin
  EXPECT_GE(h.bins.back(), 1u);
  EXPECT_FALSE(h.render().empty());
}

TEST(Stats, HistogramConstantSample) {
  const std::vector<double> v{3.0, 3.0, 3.0};
  const Histogram h = histogram(v, 4);
  EXPECT_EQ(h.bins[0], 3u);
}

TEST(Stats, BootstrapCiBracketsMean) {
  Rng rng(5);
  std::vector<double> v(200);
  for (auto& x : v) x = 10.0 + rng.uniform_double();  // mean ≈ 10.5
  const auto ci = bootstrap_mean_ci(v, 0.95, 1000, 7);
  EXPECT_NEAR(ci.mean, 10.5, 0.1);
  EXPECT_LT(ci.lower, ci.mean);
  EXPECT_GT(ci.upper, ci.mean);
  EXPECT_LT(ci.upper - ci.lower, 0.2);  // tight at n = 200
}

TEST(Stats, BootstrapValidation) {
  const std::vector<double> v{1.0};
  EXPECT_THROW(bootstrap_mean_ci({}, 0.95, 100, 1),
               std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(v, 1.5, 100, 1), std::invalid_argument);
  EXPECT_THROW(bootstrap_mean_ci(v, 0.95, 2, 1), std::invalid_argument);
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add("alpha", 3);
  t.add("beta", 2.5);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.500"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatCellIntegers) {
  EXPECT_EQ(format_cell(3.0), "3");
  EXPECT_EQ(format_cell(3.25), "3.250");
  EXPECT_EQ(format_cell(std::size_t{42}), "42");
}

TEST(Stats, FormatWithExponent) {
  const std::string s = format_with_exponent(1000.0, 100.0, 1.5);
  EXPECT_NE(s.find("1000"), std::string::npos);
  EXPECT_NE(s.find("n^1.5"), std::string::npos);
  EXPECT_NE(s.find("n=100"), std::string::npos);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace dcs
