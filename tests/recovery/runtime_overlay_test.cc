/**
 * @file
 * The runtime overlay: what committed slow-path verdicts teach the
 * checker (runtime credit, runtime TNT sequences and runtime n-grams),
 * committed by delta, journaled by delta and forgotten by a crash.
 *
 *  - Commit oracle: the full commit the monitor used to make (every
 *    staged transition earns credit and its TNT, every n-gram of the
 *    staged targets is observed) is kept here as the reference. It
 *    runs beside the delta commit on the benign fleet, whose two
 *    servers share one graph and one path index, and on the
 *    module-churn fleet, whose plugin servers own their graphs. After
 *    every commit and every code event both leave the same credit
 *    bitmap, the same TNT lists in order, the same varied marks and
 *    the same n-gram set.
 *  - Warm restart: the path index holds exactly the n-grams the live
 *    commits learned. Replay learns the journaled hashes, not the
 *    n-grams of the journaled transitions strung together, which would
 *    span commits and pruned unloads that no check observed.
 *  - Cold restart: a crash drops the whole overlay, so a window that
 *    passed only on what commits learned escalates again.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/path_index.hh"
#include "cpu/basic_kernel.hh"
#include "recovery_fleet.hh"

namespace {

using namespace flowguard;
using namespace flowguard::recovery;
using namespace flowguard::runtime;
using analysis::ItcCfg;
using analysis::PathIndex;
using analysis::TntSequence;
using flowguard::test::benignFleetGuard;
using flowguard::test::benignFleetSpec;
using flowguard::test::churnFleetGuard;
using flowguard::test::churnFleetSpec;
using flowguard::test::RecoveryFleet;

constexpr uint64_t server_cr3 = 0xD000;
constexpr uint64_t plugin_cr3 = 0x8000;

ServiceConfig
calmService()
{
    ServiceConfig config;
    config.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    config.breakerThreshold = 1'000'000;
    return config;
}

RecoveryConfig
recoveryWith(RecoveryPolicy policy)
{
    RecoveryConfig config;
    config.policy = policy;
    config.heartbeatIntervalCycles = 300;
    config.missedHeartbeatsToDeclareDead = 2;
    config.restartLatencyCycles = 600;
    config.compactEveryRecords = 8;
    return config;
}

/** Calls `fn(edge, from, to)` for every edge of the graph. */
template <typename Fn>
void
forEachEdge(const ItcCfg &itc, Fn &&fn)
{
    for (size_t node = 0; node < itc.numNodes(); ++node)
        for (const uint64_t *to = itc.targetsBegin(node);
             to != itc.targetsEnd(node); ++to)
            fn(static_cast<int64_t>(to - itc.targetsBegin(0)),
               itc.nodeAddr(node), *to);
}

/** One edge's learned state; the sequences only count unvaried. */
struct EdgeState
{
    bool credit = false;
    bool varied = false;
    std::vector<TntSequence> seqs;

    bool operator==(const EdgeState &) const = default;
};

EdgeState
liveState(const ItcCfg &itc, int64_t edge)
{
    EdgeState state;
    state.credit = itc.runtimeCredit(edge);
    state.varied = itc.tntVaried(edge);
    if (!state.varied)
        state.seqs = itc.tntSequences(edge);
    return state;
}

/**
 * The full commit, as a graph keyed by address so that rebases move
 * it the way they move the live graph.
 */
struct ReferenceGraph
{
    std::map<std::pair<uint64_t, uint64_t>, EdgeState> edges;

    explicit ReferenceGraph(const ItcCfg &itc)
    {
        forEachEdge(itc, [&](int64_t edge, uint64_t from, uint64_t to) {
            edges[{from, to}] = liveState(itc, edge);
        });
    }

    void
    commit(const ItcCfg &itc,
           std::span<const decode::TransitionView> staged)
    {
        for (const auto &transition : staged) {
            if (transition.from == 0 ||
                itc.findEdge(transition.from, transition.to) < 0)
                continue;
            EdgeState &state = edges.at({transition.from, transition.to});
            state.credit = true;
            if (state.varied)
                continue;
            const TntSequence seq(transition.tnt.begin(),
                                  transition.tnt.end());
            if (std::find(state.seqs.begin(), state.seqs.end(), seq) !=
                state.seqs.end())
                continue;
            if (state.seqs.size() >= ItcCfg::max_tnt_variants) {
                state.varied = true;
                state.seqs.clear();
            } else {
                state.seqs.push_back(seq);
            }
        }
    }

    void
    onCodeEvent(const cpu::CodeEvent &event)
    {
        const bool revoke =
            event.kind == cpu::CodeEventKind::ModuleUnload ||
            event.kind == cpu::CodeEventKind::JitRegionUnmap ||
            event.kind == cpu::CodeEventKind::Rebase;
        if (!revoke)
            return;
        const auto in = [&](uint64_t ip) {
            return ip >= event.base && ip < event.end;
        };
        for (auto &[key, state] : edges)
            if (in(key.first) || in(key.second))
                state.credit = false;
        if (event.kind != cpu::CodeEventKind::Rebase)
            return;
        const auto shift = [&](uint64_t ip) {
            return in(ip) ? ip - event.base + event.newBase : ip;
        };
        std::map<std::pair<uint64_t, uint64_t>, EdgeState> moved;
        for (auto &[key, state] : edges)
            moved[{shift(key.first), shift(key.second)}] =
                std::move(state);
        edges = std::move(moved);
    }

    /** Number of edges whose state differs from the live graph's. */
    size_t
    mismatches(const ItcCfg &itc) const
    {
        size_t differ = 0;
        forEachEdge(itc, [&](int64_t edge, uint64_t from, uint64_t to) {
            differ += edges.at({from, to}) == liveState(itc, edge) ? 0 : 1;
        });
        return differ;
    }
};

/**
 * Runs the reference beside the monitors' delta commits: a telemetry
 * sink hears each commit's CreditCommit instant while the commit's
 * staged transitions are still in place, and a code-event sink hears
 * each event after the process's dynamic guard applied it.
 */
class CommitOracle : public telemetry::TelemetrySink,
                     public cpu::CodeEventSink
{
  public:
    struct Process
    {
        const Monitor *monitor = nullptr;
        const ItcCfg *itc = nullptr;
    };

    void
    addProcess(uint64_t cr3, const Monitor &monitor, const ItcCfg &itc)
    {
        _procs[cr3] = {&monitor, &itc};
        _graphs.try_emplace(&itc, itc);
        if (const PathIndex *paths = monitor.paths())
            _paths.try_emplace(paths, *paths);
    }

    void
    onEvent(const telemetry::FlightEvent &event) override
    {
        if (event.kind != telemetry::EventKind::CreditCommit)
            return;
        const Process &proc = _procs.at(event.cr3);
        const auto staged = proc.monitor->staged();
        _graphs.at(proc.itc).commit(*proc.itc, staged);
        if (const PathIndex *paths = proc.monitor->paths()) {
            std::vector<uint64_t> targets;
            for (const auto &transition : staged)
                targets.push_back(transition.to);
            _paths.at(paths).observe(targets);
        }
        ++commits;
        stagedPairs += staged.size();
        deltaPairs += event.a;
        deltaPaths += event.b;
        compare("commit");
    }

    void
    onCodeEvent(const cpu::CodeEvent &event) override
    {
        const auto it = _procs.find(event.cr3);
        if (it == _procs.end())
            return;
        _graphs.at(it->second.itc).onCodeEvent(event);
        ++codeEvents;
        compare("code event");
    }

    uint64_t commits = 0;
    uint64_t stagedPairs = 0;
    uint64_t deltaPairs = 0;
    uint64_t deltaPaths = 0;
    uint64_t codeEvents = 0;
    uint64_t creditedEdges = 0;

  private:
    void
    compare(const char *what)
    {
        creditedEdges = 0;
        for (const auto &[itc, reference] : _graphs) {
            ASSERT_EQ(reference.mismatches(*itc), 0u)
                << what << " #" << commits + codeEvents;
            forEachEdge(*itc, [&](int64_t edge, uint64_t, uint64_t) {
                creditedEdges += itc->runtimeCredit(edge) ? 1 : 0;
            });
        }
        for (const auto &[live, reference] : _paths)
            ASSERT_TRUE(live->hashes() == reference.hashes())
                << what << " #" << commits + codeEvents << ": "
                << live->size() << " n-grams, the reference has "
                << reference.size();
    }

    std::map<uint64_t, Process> _procs;
    std::map<const ItcCfg *, ReferenceGraph> _graphs;
    std::map<const PathIndex *, PathIndex> _paths;
};

/**
 * Records the guard's n-gram set before each gate while the checker
 * is up (the set the live commits left), and again right after a
 * gate that restarted it (before the endpoint's own check commits).
 */
class NgramWatch : public RecoverySupervisor
{
  public:
    using RecoverySupervisor::RecoverySupervisor;

    const PathIndex *paths = nullptr;
    std::unordered_set<uint64_t> live;
    std::vector<std::pair<std::unordered_set<uint64_t>,
                          std::unordered_set<uint64_t>>> restarts;

    Gate
    gateEndpoint(uint64_t cr3, uint64_t seq, uint64_t now) override
    {
        if (checkerAlive())
            live = paths->hashes();
        const uint64_t before = stats().restarts;
        const Gate gate = RecoverySupervisor::gateEndpoint(cr3, seq, now);
        if (stats().restarts != before)
            restarts.emplace_back(live, paths->hashes());
        return gate;
    }
};

class RuntimeOverlay : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        server_app = new workloads::SyntheticApp(
            workloads::buildServerApp(benignFleetSpec(server_cr3)));
        plugin_app = new workloads::SyntheticApp(
            workloads::buildPluginServerApp(churnFleetSpec(plugin_cr3)));
    }

    static void
    TearDownTestSuite()
    {
        delete plugin_app;
        delete server_app;
    }

    static workloads::SyntheticApp
    appFor(bool churn, size_t i)
    {
        return churn ? workloads::buildPluginServerApp(
                           churnFleetSpec(plugin_cr3 + 0x100 * i))
                     : workloads::buildServerApp(
                           benignFleetSpec(server_cr3 + i));
    }

    static std::vector<std::vector<uint8_t>>
    inputsFor(bool churn, size_t processes)
    {
        std::vector<std::vector<uint8_t>> inputs;
        for (uint64_t seed = 21; seed < 21 + processes; ++seed)
            inputs.push_back(churn
                ? workloads::makePluginStream(
                      40, seed, churnFleetSpec(plugin_cr3))
                : workloads::makeBenignStream(160, seed, 4, 2));
        return inputs;
    }

    static std::unique_ptr<FlowGuard>
    guardFor(bool churn, uint64_t streams)
    {
        return churn ? churnFleetGuard(*plugin_app, plugin_cr3, streams,
                                       /*path_sensitive=*/true)
                     : benignFleetGuard(*server_app, streams,
                                        /*path_sensitive=*/true);
    }

    static workloads::SyntheticApp *server_app;
    static workloads::SyntheticApp *plugin_app;
};

workloads::SyntheticApp *RuntimeOverlay::server_app = nullptr;
workloads::SyntheticApp *RuntimeOverlay::plugin_app = nullptr;

TEST_F(RuntimeOverlay, DeltaCommitLeavesWhatTheFullCommitLeft)
{
    for (const bool churn : {false, true}) {
        for (const uint64_t streams : {uint64_t{0}, uint64_t{1}}) {
            SCOPED_TRACE(std::string(churn ? "churn" : "benign") +
                         " fleet, " + std::to_string(streams) +
                         " training streams");
            auto guard = guardFor(churn, streams);
            const size_t processes = churn ? 4 : 2;
            RecoveryFleet fleet(
                *guard, calmService(),
                recoveryWith(RecoveryPolicy::ResyncAndAudit), {}, 1,
                [churn](size_t i) { return appFor(churn, i); },
                inputsFor(churn, processes));
            telemetry::Telemetry hub;
            CommitOracle oracle;
            hub.setSink(&oracle);
            for (size_t i = 0; i < processes; ++i) {
                auto &proc = *fleet.procs[i];
                const ItcCfg &itc = proc.itc ? *proc.itc : guard->itc();
                oracle.addProcess(fleet.cr3(i), *proc.monitor, itc);
                proc.monitor->setTelemetry(&hub, fleet.cr3(i));
                fleet.kernels[i]->addCodeEventSink(&oracle);
            }
            fleet.run(20'000'000);
            // Not vacuous: commits learned credit and n-grams, most
            // staged pairs were held already, and the churn fleet's
            // unloads revoked credit under the oracle's eyes.
            EXPECT_GT(oracle.commits, 5u);
            EXPECT_GT(oracle.deltaPairs, 0u);
            EXPECT_LT(2 * oracle.deltaPairs, oracle.stagedPairs);
            EXPECT_GT(oracle.deltaPaths, 0u);
            EXPECT_GT(oracle.creditedEdges, 0u);
            if (churn) {
                EXPECT_GT(oracle.codeEvents, 0u);
            }
            EXPECT_EQ(fleet.totalKills(), 0u);
        }
    }
}

TEST_F(RuntimeOverlay, WarmRestartRestoresExactlyTheLiveNgrams)
{
    size_t restarts = 0;
    for (const bool churn : {false, true}) {
        for (int point = 0; point < 6; ++point) {
            const uint64_t crash_at = 1'500 + 700ULL * point;
            SCOPED_TRACE(std::string(churn ? "churn" : "benign") +
                         " fleet, crash at " + std::to_string(crash_at));
            auto guard = guardFor(churn, 0);
            trace::ControlFaultPlan plan;
            plan.monitorCrashAtCycle = crash_at;
            test::BasicRecoveryFleet<NgramWatch> fleet(
                *guard, calmService(),
                recoveryWith(RecoveryPolicy::ResyncAndAudit), plan,
                5'000 + point,
                [churn](size_t i) { return appFor(churn, i); },
                inputsFor(churn, 2));
            fleet.supervisor.paths = guard->paths();
            fleet.run(20'000'000);

            for (const auto &[live, restored] : fleet.supervisor.restarts) {
                ASSERT_FALSE(live.empty());
                EXPECT_TRUE(restored == live)
                    << "restored " << restored.size() << " n-grams, "
                    << "the live commits had learned " << live.size();
            }
            restarts += fleet.supervisor.restarts.size();
        }
    }
    EXPECT_GE(restarts, 8u);
}

/** Copies the ToPA ring at every endpoint syscall: the windows an
 *  endpoint check reads. */
class WindowCapture : public cpu::BasicKernel
{
  public:
    explicit WindowCapture(const trace::Topa &topa)
        : _topa(topa), _endpoints(FlowGuardKernel::defaultEndpoints())
    {}

    cpu::SyscallResult
    onSyscall(cpu::Cpu &cpu, int64_t number) override
    {
        if (_endpoints.count(number)) {
            const auto view = _topa.view();
            windows.emplace_back(view.begin(), view.end());
        }
        return BasicKernel::onSyscall(cpu, number);
    }

    std::vector<std::vector<uint8_t>> windows;

  private:
    const trace::Topa &_topa;
    std::set<int64_t> _endpoints;
};

TEST_F(RuntimeOverlay, ColdRestartForgetsWhatCommitsLearned)
{
    auto guard = guardFor(false, 1);
    const ItcCfg trained_itc = guard->itc();
    const PathIndex trained_paths = *guard->paths();

    const auto app = appFor(false, 0);
    auto harness = guard->makeProcessHarness(app.program);
    WindowCapture capture(*harness->topa);
    capture.setInput(workloads::makeBenignStream(24, 50, 4, 2));
    harness->cpu->setSyscallHandler(&capture);
    harness->cpu->run(20'000'000);
    const auto &windows = capture.windows;
    ASSERT_GT(windows.size(), 20u);

    // Windows the fast path leaves to the slow path on trained state
    // although every edge in them carries trained credit: only TNT or
    // n-grams learned at runtime can pass them.
    FastPathChecker probe(trained_itc, app.program,
                          guard->config().fastPath, nullptr,
                          &trained_paths);
    size_t credited_but_suspicious = 0;
    for (const auto &window : windows) {
        const FastPathResult result = probe.check(window);
        // An edge counts as credible only with compatible TNT.
        credited_but_suspicious +=
            result.verdict == CheckVerdict::Suspicious &&
                    result.highCreditEdges + result.tntMismatches ==
                        result.edgesChecked
                ? 1
                : 0;
    }
    ASSERT_GT(credited_but_suspicious, 0u);

    Monitor &monitor = *harness->monitor;
    const auto pass = [&] {
        std::vector<bool> escalated;
        for (const auto &window : windows) {
            const auto fast = monitor.fastPhase(window, monitor.pktCount());
            if (fast.needSlow) {
                EXPECT_EQ(monitor.slowPhase(window, fast.loss),
                          CheckVerdict::Pass);
                monitor.commitCache();
            }
            escalated.push_back(fast.needSlow);
        }
        return escalated;
    };

    RecoverySupervisor supervisor(
        recoveryWith(RecoveryPolicy::ColdRestart));
    trace::FaultInjector faults(7);
    trace::ControlFaultPlan plan;
    plan.monitorCrashAtCycle = 100;
    faults.setControlPlan(plan);
    supervisor.setFaultInjector(faults);
    ItcCfg &itc = guard->itc();
    supervisor.addProcess(app.program.cr3(), monitor, itc,
                          *harness->cpu);

    const std::vector<bool> first = pass();
    const std::vector<bool> second = pass();
    const auto count = [](const std::vector<bool> &v) {
        return static_cast<size_t>(std::count(v.begin(), v.end(), true));
    };
    ASSERT_GT(count(first), 0u);
    ASSERT_LT(count(second), count(first))
        << "the commits taught the checker nothing";

    // The crash forgets the whole overlay: the graph and the path
    // index are back at their trained state.
    EXPECT_EQ(supervisor.gateEndpoint(app.program.cr3(), 1, 100),
              RecoverySupervisor::Gate::SkipUnchecked);
    ASSERT_FALSE(supervisor.checkerAlive());
    ReferenceGraph trained(trained_itc);
    EXPECT_EQ(trained.mismatches(itc), 0u);
    EXPECT_TRUE(guard->paths()->hashes() == trained_paths.hashes())
        << guard->paths()->size() << " n-grams after the crash, "
        << trained_paths.size() << " trained";

    // A cold restart replays nothing. Its first check is forced slow;
    // after that, every window escalates exactly as it did on
    // trained state, however often it passed before the crash.
    EXPECT_EQ(supervisor.gateEndpoint(app.program.cr3(), 2, 100'000),
              RecoverySupervisor::Gate::Proceed);
    ASSERT_TRUE(supervisor.checkerAlive());
    const std::vector<bool> third = pass();
    EXPECT_TRUE(third[0]);
    EXPECT_EQ(std::vector<bool>(third.begin() + 1, third.end()),
              std::vector<bool>(first.begin() + 1, first.end()));
}

} // namespace
