// Unit tests for src/util: Status/Result, FunctionRef, JSON, varint/delta
// codecs, RNG/samplers, string helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/cancel.h"
#include "src/util/function_ref.h"
#include "src/util/json.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"
#include "src/util/varint.h"

namespace gdbmicro {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 11; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(5);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 5);

  Result<int> bad = ParsePositive(-1);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.value_or(42), 42);
}

Status UseAssignOrReturn(int x, int* out) {
  GDB_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UseAssignOrReturn(-7, &out).ok());
}

TEST(ResultTest, InPlaceConstructsTheValue) {
  Result<std::string> r(std::in_place, 3, 'x');
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, "xxx");
}

int ApplyTwice(FunctionRef<int(int)> f, int x) { return f(f(x)); }

TEST(FunctionRefTest, ForwardsArgumentsAndReturnValues) {
  EXPECT_EQ(ApplyTwice([](int x) { return x * 3; }, 2), 18);

  auto concat = [](const std::string& a, std::string_view b) {
    return a + std::string(b);
  };
  FunctionRef<std::string(const std::string&, std::string_view)> ref(concat);
  EXPECT_EQ(ref("ab", "cd"), "abcd");

  auto check = [](int x) {
    return x > 0 ? Status::OK() : Status::InvalidArgument("not positive");
  };
  FunctionRef<Status(int)> status_ref(check);
  EXPECT_TRUE(status_ref(1).ok());
  EXPECT_EQ(status_ref(0).code(), StatusCode::kInvalidArgument);

  // A void ref discards whatever the callable returns.
  int seen = 0;
  auto record = [&seen](int x) {
    seen = x;
    return x;
  };
  FunctionRef<void(int)> void_ref(record);
  void_ref(5);
  EXPECT_EQ(seen, 5);
}

TEST(FunctionRefTest, MutatesCapturedState) {
  uint64_t visits = 0, sum = 0;
  auto visit = [&](uint64_t v) {
    ++visits;
    sum += v;
    return v < 3;
  };
  FunctionRef<bool(uint64_t)> ref(visit);
  for (uint64_t v = 1; v <= 5 && ref(v); ++v) {
  }
  EXPECT_EQ(visits, 3u);
  EXPECT_EQ(sum, 6u);
}

TEST(FunctionRefTest, CopyCallsTheOriginalCallable) {
  int first_calls = 0, second_calls = 0;
  auto first = [&first_calls] { return ++first_calls; };
  auto second = [&second_calls] { return ++second_calls; };
  FunctionRef<int()> a(first);
  FunctionRef<int()> copy = a;
  // Repointing the source ref must not affect the copy: it holds the
  // callable itself, not a reference to `a`.
  a = FunctionRef<int()>(second);
  EXPECT_EQ(copy(), 1);
  EXPECT_EQ(a(), 1);
  EXPECT_EQ(first_calls, 1);
  EXPECT_EQ(second_calls, 1);
}

TEST(FunctionRefTest, WorksWithConstCallable) {
  struct Doubler {
    int operator()(int x) const { return 2 * x; }
  };
  const Doubler doubler;
  FunctionRef<int(int)> ref(doubler);
  EXPECT_EQ(ref(21), 42);

  const auto add_one = [](int x) { return x + 1; };
  EXPECT_EQ(ApplyTwice(add_one, 1), 3);
}

TEST(FunctionRefTest, AcceptsMoveOnlyCallable) {
  // std::function requires a copyable target; FunctionRef only borrows.
  auto owner = [p = std::make_unique<int>(40)](int d) { return *p + d; };
  static_assert(!std::is_copy_constructible_v<decltype(owner)>);
  FunctionRef<int(int)> ref(owner);
  EXPECT_EQ(ref(2), 42);
  EXPECT_EQ(ApplyTwice(owner, 1), 81);
}

TEST(VarintTest, RoundTripBoundaries) {
  for (uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     (1ULL << 32) - 1, 1ULL << 32, ~0ULL}) {
    std::string buf;
    PutVarint64(&buf, v);
    size_t pos = 0;
    auto decoded = GetVarint64(buf, &pos);
    ASSERT_TRUE(decoded.ok()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, TruncatedInputFails) {
  std::string buf;
  PutVarint64(&buf, 1ULL << 40);
  buf.resize(buf.size() - 1);
  size_t pos = 0;
  EXPECT_FALSE(GetVarint64(buf, &pos).ok());
}

TEST(VarintTest, ZigZagRoundTrip) {
  for (int64_t v : std::vector<int64_t>{0, 1, -1, 100, -100, INT64_MAX,
                                        INT64_MIN}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

TEST(VarintTest, DeltaListRoundTrip) {
  std::vector<uint64_t> ids = {3, 7, 7, 100, 5000, 5001, 1ULL << 40};
  std::string buf;
  EncodeDeltaList(ids, &buf);
  auto decoded = DecodeDeltaList(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, ids);
}

TEST(VarintTest, DeltaListEmpty) {
  std::string buf;
  EncodeDeltaList({}, &buf);
  auto decoded = DecodeDeltaList(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ForkIndependentStreams) {
  Rng base(7);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  // Streams should differ.
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(ZipfTest, SkewedTowardsSmallRanks) {
  Rng rng(3);
  ZipfSampler zipf(1000, 1.2);
  std::map<uint64_t, int> counts;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) counts[zipf.Sample(rng)]++;
  // Rank 0 should dominate rank 100 by a wide margin.
  EXPECT_GT(counts[0], counts[100] * 5);
  // All samples in range.
  for (const auto& [k, v] : counts) EXPECT_LT(k, 1000u);
}

TEST(AliasSamplerTest, MatchesWeights) {
  Rng rng(4);
  AliasSampler sampler({1.0, 0.0, 3.0});
  int counts[3] = {0, 0, 0};
  const int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) counts[sampler.Sample(rng)]++;
  EXPECT_EQ(counts[1], 0);
  double ratio = static_cast<double>(counts[2]) / counts[0];
  EXPECT_NEAR(ratio, 3.0, 0.5);
}

TEST(JsonTest, ParsePrimitives) {
  auto v = Json::Parse("  true ");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_bool());

  v = Json::Parse("-42");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->int_value(), -42);

  v = Json::Parse("3.5");
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->double_value(), 3.5);

  v = Json::Parse("\"hi\\nthere\"");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "hi\nthere");

  v = Json::Parse("null");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_null());
}

TEST(JsonTest, ParseNested) {
  auto v = Json::Parse(R"({"a":[1,2,{"b":null}],"c":{"d":false}})");
  ASSERT_TRUE(v.ok());
  const Json* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->array().size(), 3u);
  const Json* c = v->Find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->Find("d")->bool_value());
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("12 34").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
}

TEST(JsonTest, DumpParseRoundTrip) {
  Json obj = Json::MakeObject();
  obj.Set("name", Json("graph \"db\""));
  obj.Set("count", Json(int64_t{12}));
  obj.Set("pi", Json(3.25));
  Json arr = Json::MakeArray();
  arr.Append(Json(true));
  arr.Append(Json(nullptr));
  obj.Set("flags", std::move(arr));

  auto round = Json::Parse(obj.Dump());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(*round, obj);

  auto pretty_round = Json::Parse(obj.Pretty());
  ASSERT_TRUE(pretty_round.ok());
  EXPECT_EQ(*pretty_round, obj);
}

TEST(JsonTest, UnicodeEscapes) {
  auto v = Json::Parse(R"("Aé")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(), "A\xc3\xa9");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
}

TEST(CancelTest, NeverExpiresByDefault) {
  CancelToken t;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(t.Expired());
}

TEST(CancelTest, ManualCancel) {
  CancelToken t;
  CancelToken copy = t;
  t.Cancel();
  EXPECT_TRUE(copy.Expired());
}

TEST(CancelTest, DeadlineExpires) {
  CancelToken t = CancelToken::WithTimeout(std::chrono::milliseconds(1));
  Timer timer;
  bool expired = false;
  while (timer.ElapsedMillis() < 200.0) {
    if (t.Expired()) {
      expired = true;
      break;
    }
  }
  EXPECT_TRUE(expired);
}

TEST(CancelTest, ExpiredDeadlineSeenOnFirstProbe) {
  // An already-expired deadline must not hide behind the clock stride: a
  // short scan loop (< kClockStride probes) still has to time out.
  CancelToken t = CancelToken::WithTimeout(std::chrono::nanoseconds(-1));
  EXPECT_TRUE(t.Expired());
}

TEST(CancelTest, StrideSkipsClockBetweenChecks) {
  // With a far-future deadline, probes between stride boundaries must
  // return false without flipping the token.
  CancelToken t = CancelToken::WithTimeout(std::chrono::hours(2));
  for (uint32_t i = 0; i < 4 * CancelToken::kClockStride; ++i) {
    EXPECT_FALSE(t.Expired());
  }
}

TEST(CancelTest, SharedTokenProbesFromManyThreads) {
  // The probe counter is shared state: hammer it from several threads
  // (TSan-checked in CI) and confirm a cross-thread Cancel is observed.
  CancelToken t = CancelToken::WithTimeout(std::chrono::hours(2));
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&t, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (t.Expired()) break;
      }
    });
  }
  t.Cancel();
  for (auto& th : threads) th.join();
  stop.store(true);
  EXPECT_TRUE(t.Expired());
}

}  // namespace
}  // namespace gdbmicro
