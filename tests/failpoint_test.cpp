// Fault-injection registry: trigger modes, deterministic streams, spec
// parsing, counters, and the failpoints wired into the library's I/O and
// codec paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "compress/codec.hpp"
#include "core/plt.hpp"
#include "tdb/io.hpp"
#include "util/failpoint.hpp"

namespace plt {
namespace {

// Every test starts and ends with a clean registry: the singleton is shared
// across the whole binary, so a leaked armed point would poison neighbours.
class Failpoint : public ::testing::Test {
 protected:
  void SetUp() override { FailpointRegistry::instance().disarm_all(); }
  void TearDown() override { FailpointRegistry::instance().disarm_all(); }

  static FailpointRegistry& reg() { return FailpointRegistry::instance(); }
};

TEST_F(Failpoint, AlwaysFiresEveryEvaluation) {
  reg().arm("t.always", {});
  for (int i = 0; i < 3; ++i)
    EXPECT_THROW(reg().evaluate("t.always"), InjectedFault);
  EXPECT_EQ(reg().evaluations("t.always"), 3u);
  EXPECT_EQ(reg().hits("t.always"), 3u);
}

TEST_F(Failpoint, UnarmedPointIsSilent) {
  EXPECT_NO_THROW(reg().evaluate("t.never"));
  EXPECT_FALSE(reg().armed("t.never"));
  EXPECT_EQ(reg().evaluations("t.never"), 0u);
}

TEST_F(Failpoint, FaultCarriesPointName) {
  reg().arm("t.named", {});
  try {
    reg().evaluate("t.named");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& fault) {
    EXPECT_EQ(fault.failpoint, "t.named");
    EXPECT_NE(std::string(fault.what()).find("t.named"), std::string::npos);
  }
}

TEST_F(Failpoint, EveryNthFiresOnMultiples) {
  FailpointRegistry::Spec spec;
  spec.mode = FailpointRegistry::Mode::kEveryNth;
  spec.n = 3;
  reg().arm("t.every", spec);
  std::vector<int> fired;
  for (int i = 1; i <= 9; ++i) {
    try {
      reg().evaluate("t.every");
    } catch (const InjectedFault&) {
      fired.push_back(i);
    }
  }
  EXPECT_EQ(fired, (std::vector<int>{3, 6, 9}));
}

TEST_F(Failpoint, OneShotFiresExactlyOnce) {
  FailpointRegistry::Spec spec;
  spec.mode = FailpointRegistry::Mode::kOneShot;
  spec.n = 2;
  reg().arm("t.oneshot", spec);
  std::vector<int> fired;
  for (int i = 1; i <= 10; ++i) {
    try {
      reg().evaluate("t.oneshot");
    } catch (const InjectedFault&) {
      fired.push_back(i);
    }
  }
  EXPECT_EQ(fired, (std::vector<int>{2}));
  EXPECT_EQ(reg().hits("t.oneshot"), 1u);
  EXPECT_EQ(reg().evaluations("t.oneshot"), 10u);
}

TEST_F(Failpoint, ProbabilityStreamIsDeterministic) {
  FailpointRegistry::Spec spec;
  spec.mode = FailpointRegistry::Mode::kProbability;
  spec.probability = 0.5;
  spec.seed = 42;
  const auto pattern = [&] {
    reg().arm("t.prob", spec);
    std::vector<bool> fires;
    for (int i = 0; i < 200; ++i) {
      try {
        reg().evaluate("t.prob");
        fires.push_back(false);
      } catch (const InjectedFault&) {
        fires.push_back(true);
      }
    }
    return fires;
  };
  const auto first = pattern();
  const auto second = pattern();  // re-arming resets the stream
  EXPECT_EQ(first, second);
  const auto hits =
      static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(hits, 50u);  // ~100 expected; a degenerate stream would show here
  EXPECT_LT(hits, 150u);
}

TEST_F(Failpoint, DisarmStopsFiring) {
  reg().arm("t.disarm", {});
  EXPECT_THROW(reg().evaluate("t.disarm"), InjectedFault);
  reg().disarm("t.disarm");
  EXPECT_FALSE(reg().armed("t.disarm"));
  EXPECT_NO_THROW(reg().evaluate("t.disarm"));
}

TEST_F(Failpoint, TotalHitsIsMonotonic) {
  const auto before = reg().total_hits();
  reg().arm("t.total", {});
  EXPECT_THROW(reg().evaluate("t.total"), InjectedFault);
  EXPECT_THROW(reg().evaluate("t.total"), InjectedFault);
  EXPECT_EQ(reg().total_hits(), before + 2);
}

TEST_F(Failpoint, SpecListParsing) {
  reg().arm_from_spec(
      "a=always;b=every:3;c=oneshot:2;d=prob:0.25:seed9");
  EXPECT_TRUE(reg().armed("a"));
  EXPECT_TRUE(reg().armed("b"));
  EXPECT_TRUE(reg().armed("c"));
  EXPECT_TRUE(reg().armed("d"));
  EXPECT_THROW(reg().evaluate("a"), InjectedFault);
  EXPECT_NO_THROW(reg().evaluate("b"));  // 1st of every:3
}

TEST_F(Failpoint, MalformedSpecsThrow) {
  EXPECT_THROW(reg().arm_from_spec("no-equals"), std::invalid_argument);
  EXPECT_THROW(reg().arm_from_spec("=always"), std::invalid_argument);
  EXPECT_THROW(reg().arm_from_spec("a=wat"), std::invalid_argument);
  EXPECT_THROW(reg().arm_from_spec("a=every:x"), std::invalid_argument);
  EXPECT_THROW(reg().arm_from_spec("a=prob:zz"), std::invalid_argument);
}

TEST_F(Failpoint, FimiReaderSiteFires) {
  reg().arm("tdb.read_fimi", {});
  std::istringstream in("1 2 3\n");
  EXPECT_THROW((void)tdb::read_fimi(in), InjectedFault);
}

TEST_F(Failpoint, CodecSitesFire) {
  core::Plt plt(3);
  plt.add(core::PosVec{1, 2}, 4);
  reg().arm("codec.encode", {});
  EXPECT_THROW((void)compress::encode_plt(plt), InjectedFault);
  reg().disarm("codec.encode");

  const auto blob = compress::encode_plt(plt);
  reg().arm("codec.decode", {});
  EXPECT_THROW((void)compress::decode_plt(blob), InjectedFault);
}

}  // namespace
}  // namespace plt
