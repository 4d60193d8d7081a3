// dvx::check framework tests (DESIGN.md §7).
//
// This TU forces DVX_CHECK_LEVEL=2 so the SOON macros are live regardless
// of the build's global level; test_check_level0.cpp in the same binary
// forces level 0 to prove the macros compile out. The libraries themselves
// are compiled at the build's global level, so tests that rely on checks
// inside libdvx_sim/libdvx_dvnet skip themselves when that level is 0.

#undef DVX_CHECK_LEVEL
#define DVX_CHECK_LEVEL 2
#include "check/check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "dvnet/cycle_switch.hpp"
#include "dvnet/geometry.hpp"
#include "runtime/report.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace dvx_test_check {
int level0_macro_level();
int level0_run_all_macros();
}  // namespace dvx_test_check

namespace {

namespace check = dvx::check;
namespace sim = dvx::sim;
namespace dvnet = dvx::dvnet;
using sim::Coro;
using sim::Engine;

// ---------------------------------------------------------------------------
// Level gating
// ---------------------------------------------------------------------------

TEST(CheckLevels, ThisTuIsLevel2AndSoonMacrosAreLive) {
  EXPECT_EQ(DVX_CHECK_LEVEL, 2);
  EXPECT_THROW(DVX_CHECK_SOON(false), check::CheckError);
  EXPECT_THROW(DVX_CHECK_SOON_EQ(1, 2), check::CheckError);
}

TEST(CheckLevels, LevelZeroTuCompilesEverythingOut) {
  EXPECT_EQ(dvx_test_check::level0_macro_level(), 0);
  // Failing conditions with side effects: nothing throws, nothing runs.
  EXPECT_EQ(dvx_test_check::level0_run_all_macros(), 0);
}

TEST(CheckLevels, LiveConditionIsEvaluatedExactlyOnce) {
  int evaluations = 0;
  auto once = [&] {
    ++evaluations;
    return true;
  };
  DVX_CHECK(once());
  EXPECT_EQ(evaluations, 1);
}

// ---------------------------------------------------------------------------
// Failure contents
// ---------------------------------------------------------------------------

TEST(CheckFailure, CarriesExpressionFileLineAndStreamedMessage) {
  try {
    DVX_CHECK(2 + 2 == 5) << "streamed " << 42 << " ok";
    FAIL() << "DVX_CHECK(false) must throw";
  } catch (const check::CheckError& err) {
    const check::Failure& f = err.failure();
    EXPECT_EQ(f.expression, "2 + 2 == 5");
    EXPECT_NE(f.file.find("test_check.cpp"), std::string::npos);
    EXPECT_GT(f.line, 0);
    EXPECT_EQ(f.message, "streamed 42 ok");
    EXPECT_NE(std::string(err.what()).find("2 + 2 == 5"), std::string::npos);
  }
}

TEST(CheckFailure, EqReportsBothOperands) {
  try {
    const int lhs = 3, rhs = 7;
    DVX_CHECK_EQ(lhs, rhs) << "context. ";
    FAIL() << "DVX_CHECK_EQ must throw";
  } catch (const check::CheckError& err) {
    const std::string msg = err.failure().message;
    EXPECT_NE(msg.find("lhs = 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rhs = 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("context. "), std::string::npos) << msg;
  }
}

check::Failure g_captured;  // written by the capturing handler below

void capture_handler(const check::Failure& failure) { g_captured = failure; }

TEST(CheckFailure, HandlerSeesSimTimeNodeAndBackendContext) {
  if (check::compiled_level() < 1) {
    GTEST_SKIP() << "libdvx_sim built at level 0: no sim-time stamping";
  }
  const check::ScopedHandler swap(&capture_handler);
  g_captured = check::Failure{};
  Engine e;
  e.spawn([](Engine& eng) -> Coro<void> {
    co_await eng.delay(sim::us(3));
    const check::ScopedNode node(7);
    const check::ScopedBackend backend("dv");
    DVX_CHECK(false) << "deliberate";
  }(e));
  EXPECT_THROW(e.run(), check::CheckError);
  EXPECT_EQ(g_captured.sim_time_ps, sim::us(3));
  EXPECT_EQ(g_captured.node, 7);
  EXPECT_EQ(g_captured.backend, "dv");
  EXPECT_EQ(g_captured.message, "deliberate");
}

TEST(CheckFailure, ContextIsScopedAndRestored) {
  EXPECT_EQ(check::context().node, -1);
  {
    const check::ScopedNode outer(3);
    EXPECT_EQ(check::context().node, 3);
    {
      const check::ScopedNode inner(5);
      EXPECT_EQ(check::context().node, 5);
    }
    EXPECT_EQ(check::context().node, 3);
  }
  EXPECT_EQ(check::context().node, -1);
}

TEST(CheckFailure, JsonReportCarriesTheContextFields) {
  check::Failure f;
  f.expression = "a == b";
  f.file = "x.cpp";
  f.line = 12;
  f.message = "why";
  f.sim_time_ps = 1234;
  f.node = 3;
  f.backend = "dv";
  const std::string doc = dvx::runtime::check_failure_json(f).dump();
  EXPECT_NE(doc.find("\"schema\": \"dvx-check/v1\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"expression\": \"a == b\""), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"sim_time_ps\": 1234"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"node\": 3"), std::string::npos) << doc;
  EXPECT_NE(doc.find("\"backend\": \"dv\""), std::string::npos) << doc;
}

// ---------------------------------------------------------------------------
// Engine: out-of-order events and the audit cadence
// ---------------------------------------------------------------------------

TEST(EngineChecks, SchedulingIntoThePastIsCaught) {
  if (check::compiled_level() < 1) {
    GTEST_SKIP() << "libdvx_sim built at level 0";
  }
  Engine e;
  e.schedule(sim::us(1), [&e] {
    e.schedule(0, [] {});  // now() is 1us: this event is out of order
  });
  EXPECT_THROW(e.run(), check::CheckError);
}

class CountingAuditor : public check::InvariantAuditor {
 public:
  void audit(std::int64_t now_ps) override {
    ++calls;
    last_time = now_ps;
  }
  int calls = 0;
  std::int64_t last_time = -1;
};

TEST(EngineChecks, AuditorRunsAtTheConfiguredCadenceAndAtDrain) {
  Engine e;
  // Events 1 us apart under a 1 us window: one event per window.
  e.configure_sharding({.lookahead = sim::us(1)});
  CountingAuditor auditor;
  e.add_auditor(&auditor);
  e.set_audit_interval(2);
  for (int i = 1; i <= 6; ++i) {
    e.schedule(sim::us(i), [] {});
  }
  e.run();
  // Sweeps at the closes of windows 2, 4, 6 plus the drain-time sweep.
  EXPECT_EQ(e.windows(), 6u);
  EXPECT_EQ(auditor.calls, 4);
  EXPECT_EQ(e.audits_run(), 4u);
  EXPECT_EQ(auditor.last_time, sim::us(6));
  e.remove_auditor(&auditor);
  e.schedule(sim::us(7), [] {});
  e.run();
  EXPECT_EQ(auditor.calls, 4);  // removed: no further sweeps observed

  // A default engine (zero lookahead) runs the busy period as one window:
  // one cadence sweep at its close, one at the drain.
  Engine whole;
  CountingAuditor once;
  whole.add_auditor(&once);
  whole.set_audit_interval(2);
  for (int i = 1; i <= 6; ++i) {
    whole.schedule(sim::us(i), [] {});
  }
  whole.run();
  EXPECT_EQ(whole.windows(), 1u);
  EXPECT_EQ(once.calls, 2);
  EXPECT_EQ(once.last_time, sim::us(6));
}

TEST(EngineChecks, DefaultCadenceFollowsTheLibraryCheckLevel) {
  Engine e;
  EXPECT_EQ(e.audit_interval(), check::default_audit_interval());
  if (check::compiled_level() >= 2) {
    EXPECT_GT(e.audit_interval(), 0u);
  } else {
    EXPECT_EQ(e.audit_interval(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Seeded fault: a silently dropped packet must not survive an audit
// ---------------------------------------------------------------------------

TEST(CycleSwitchChecks, SeededPacketDropIsCaughtByConservationAudit) {
  if (check::compiled_level() < 1) {
    GTEST_SKIP() << "libdvx_dvnet built at level 0";
  }
  dvnet::Geometry g{8, 4};
  dvnet::CycleSwitch sw(g);
  for (int p = 0; p < g.ports(); ++p) sw.inject(p, (p + 3) % g.ports());
  sw.step();
  sw.step();
  ASSERT_GT(sw.in_flight(), 0u);
  sw.audit_invariants();  // healthy fabric: no throw
  ASSERT_TRUE(sw.corrupt_drop_one_for_test());
  EXPECT_THROW(sw.audit_invariants(), check::CheckError);
}

TEST(CycleSwitchChecks, SeededDropIsCaughtThroughTheEngineAuditorHook) {
  if (check::compiled_level() < 1) {
    GTEST_SKIP() << "libdvx_dvnet built at level 0";
  }
  dvnet::Geometry g{8, 4};
  dvnet::CycleSwitch sw(g);
  Engine e;
  // A 1 us window holds one event, so the audit after every event runs at
  // the close of the corrupting event's window, before the later event.
  e.configure_sharding({.lookahead = sim::us(1)});
  e.add_auditor(&sw);
  e.set_audit_interval(1);
  e.schedule(sim::us(1), [&sw] {
    for (int p = 0; p < sw.geometry().ports(); ++p) sw.inject(p, (p + 1) % 8);
    sw.step();
    sw.step();
    ASSERT_TRUE(sw.corrupt_drop_one_for_test());
  });
  bool later_ran = false;
  e.schedule(sim::us(5), [&later_ran] { later_ran = true; });
  EXPECT_THROW(e.run(), check::CheckError);
  EXPECT_FALSE(later_ran);
}

TEST(CycleSwitchChecks, HealthyTrafficPassesTheFullAudit) {
  dvnet::Geometry g{16, 4};
  dvnet::CycleSwitch sw(g);
  for (int burst = 0; burst < 4; ++burst) {
    for (int p = 0; p < g.ports(); ++p) {
      sw.inject(p, (p + 11 * burst + 1) % g.ports());
    }
  }
  ASSERT_TRUE(sw.drain());  // drain() audits at level >= 1 internally
  sw.audit_invariants();
  EXPECT_EQ(sw.injected_total(), sw.delivered_total());
  EXPECT_EQ(sw.injected_total(), static_cast<std::uint64_t>(4 * g.ports()));
}

}  // namespace
