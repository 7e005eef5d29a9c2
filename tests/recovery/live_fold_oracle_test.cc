/**
 * @file
 * The live fold's oracle. RecoverySupervisor keeps fold(snapshot +
 * journal) live as records are appended, and a compaction only
 * serializes it. This suite holds every compaction, and every warm
 * restart's snapshot, byte for byte to the fold compaction performed
 * before: load the last snapshot, read the journal, apply every intact
 * record, serialize. The reference keeps that fold's own state layout
 * (decoded transitions and the n-gram hashes of each commit delta),
 * its own apply, its own byte reader and its own byte writer, so a
 * fault in the live fold or in the shared codec shows as a byte
 * difference.
 *
 * Settings, with path-sensitive guards so commit deltas carry n-gram
 * hashes as well as pairs:
 *  - the benign and module-churn fleets at compactEveryRecords 1, 8
 *    and 256;
 *  - both fleets across injected crashes that tear the journal tail,
 *    and through the warm restarts and compactions that follow;
 *  - journal edits behind the live fold's back (truncation, a flipped
 *    byte), after which the next compaction must re-fold.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "recovery/snapshot.hh"
#include "recovery_fleet.hh"
#include "support/crc32.hh"

namespace {

using namespace flowguard;
using namespace flowguard::recovery;
using namespace flowguard::runtime;
using flowguard::test::BasicRecoveryFleet;

constexpr uint64_t server_cr3 = 0xC000;
constexpr uint64_t plugin_cr3 = 0x7000;

void
put64(std::vector<uint8_t> &out, uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<uint8_t>(value >> (8 * i)));
}

uint64_t
get64(const std::vector<uint8_t> &in, size_t &at)
{
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<uint64_t>(in[at + i]) << (8 * i);
    at += 8;
    return value;
}

/** A fold's credit run, decoded without the shared codec. */
std::vector<decode::TipTransition>
decodeCredits(const ProcessSnapshot &proc)
{
    std::vector<decode::TipTransition> out;
    size_t at = 0;
    for (uint64_t i = 0; i < proc.creditCount; ++i) {
        decode::TipTransition t;
        t.from = get64(proc.credits, at);
        t.to = get64(proc.credits, at);
        const uint64_t len = get64(proc.credits, at);
        t.tnt.assign(proc.credits.begin() + at,
                     proc.credits.begin() + at + len);
        at += len;
        out.push_back(std::move(t));
    }
    EXPECT_EQ(at, proc.credits.size());
    return out;
}

/** The fold compaction used to run, in its own layout. */
struct ReferenceFold
{
    struct Process
    {
        std::vector<decode::TipTransition> credits;
        std::vector<uint64_t> paths;
        uint64_t seqHighWater = 0;
    };

    std::map<uint64_t, Process> processes;
    std::vector<JournalRecord> undelivered;
    std::set<std::pair<uint64_t, uint64_t>> delivered;
    /** Credits unload/rebase events removed. */
    uint64_t pruned = 0;
    /** N-gram hashes the journaled commit deltas carried. */
    uint64_t deltaPaths = 0;

    /** Starts from what loadSnapshot reads back. */
    explicit ReferenceFold(const std::vector<uint8_t> &snapshot)
    {
        const RecoveredState loaded = loadSnapshot(snapshot).state;
        for (const auto &[cr3, proc] : loaded.processes)
            processes[cr3] = {decodeCredits(proc), proc.paths,
                              proc.seqHighWater};
        undelivered = loaded.undeliveredVerdicts;
        delivered = loaded.delivered;
    }

    void
    apply(const JournalRecord &record)
    {
        switch (record.type) {
          case RecordType::CreditCommit: {
            EXPECT_FALSE(record.transitions.empty() &&
                         record.paths.empty())
                << "an empty commit delta was journaled";
            Process &proc = processes[record.cr3];
            proc.credits.insert(proc.credits.end(),
                                record.transitions.begin(),
                                record.transitions.end());
            proc.paths.insert(proc.paths.end(), record.paths.begin(),
                              record.paths.end());
            deltaPaths += record.paths.size();
            break;
          }
          case RecordType::VerdictCommitted:
            if (!delivered.count({record.cr3, record.seq}))
                undelivered.push_back(record);
            break;
          case RecordType::VerdictDelivered:
            delivered.insert({record.cr3, record.seq});
            std::erase_if(undelivered, [&](const JournalRecord &v) {
                return v.cr3 == record.cr3 && v.seq == record.seq;
            });
            break;
          case RecordType::EndpointSeq: {
            uint64_t &high = processes[record.cr3].seqHighWater;
            high = std::max(high, record.seq);
            break;
          }
          case RecordType::ModuleEvent: {
            auto it = processes.find(record.cr3);
            if (record.moduleKind == ModuleEventKind::Load ||
                it == processes.end())
                break;
            const auto in = [&](uint64_t ip) {
                return ip >= record.begin && ip < record.end;
            };
            pruned += std::erase_if(
                it->second.credits,
                [&](const decode::TipTransition &t) {
                    return in(t.from) || in(t.to);
                });
            break;
          }
        }
    }

    std::vector<uint8_t>
    serialize() const
    {
        std::vector<uint8_t> body;
        put64(body, processes.size());
        for (const auto &[cr3, proc] : processes) {
            put64(body, cr3);
            put64(body, proc.seqHighWater);
            put64(body, proc.credits.size());
            for (const auto &t : proc.credits) {
                put64(body, t.from);
                put64(body, t.to);
                put64(body, t.tnt.size());
                body.insert(body.end(), t.tnt.begin(), t.tnt.end());
            }
            put64(body, proc.paths.size());
            for (const uint64_t hash : proc.paths)
                put64(body, hash);
        }
        put64(body, undelivered.size());
        for (const auto &v : undelivered) {
            put64(body, v.cr3);
            put64(body, v.seq);
            body.push_back(v.verdictKind);
            put64(body, static_cast<uint64_t>(v.syscall));
            put64(body, v.from);
            put64(body, v.to);
            put64(body, v.reason.size());
            body.insert(body.end(), v.reason.begin(), v.reason.end());
        }
        put64(body, delivered.size());
        for (const auto &[cr3, seq] : delivered) {
            put64(body, cr3);
            put64(body, seq);
        }
        const std::string magic = "FGRSNP02";
        std::vector<uint8_t> out(magic.begin(), magic.end());
        const uint64_t header =
            body.size() | static_cast<uint64_t>(crc32(body.data(), body.size())) << 32;
        put64(out, header);
        out.insert(out.end(), body.begin(), body.end());
        return out;
    }
};

/**
 * A supervisor that checks every compaction and every warm restart
 * against the reference fold of the bytes that were durable just
 * before it.
 */
class OracleSupervisor : public RecoverySupervisor
{
  public:
    using RecoverySupervisor::RecoverySupervisor;

    size_t compactionsChecked = 0;
    size_t restartsChecked = 0;
    uint64_t prunedCredits = 0;
    uint64_t foldedPaths = 0;

    void
    compactNow() override
    {
        const auto expected =
            referenceFold(snapshotBytes(), journal().bytes());
        RecoverySupervisor::compactNow();
        expectReference(expected, "compaction", ++compactionsChecked);
    }

    Gate
    gateEndpoint(uint64_t cr3, uint64_t seq, uint64_t now) override
    {
        return checkRestart([&] {
            return RecoverySupervisor::gateEndpoint(cr3, seq, now);
        });
    }

    Gate
    gateDrain(uint64_t now) override
    {
        return checkRestart(
            [&] { return RecoverySupervisor::gateDrain(now); });
    }

  private:
    std::vector<uint8_t>
    referenceFold(const std::vector<uint8_t> &snapshot,
                  const std::vector<uint8_t> &journal_bytes)
    {
        ReferenceFold fold(snapshot);
        for (const auto &record : readJournal(journal_bytes).records)
            fold.apply(record);
        prunedCredits += fold.pruned;
        foldedPaths += fold.deltaPaths;
        return fold.serialize();
    }

    template <typename GateCall>
    Gate
    checkRestart(const GateCall &gate)
    {
        // Only a dead checker restarts, and a gate that kills it
        // cannot also bring it back.
        if (checkerAlive())
            return gate();
        const std::vector<uint8_t> snapshot = snapshotBytes();
        const std::vector<uint8_t> journal_bytes = journal().bytes();
        const uint64_t restarts = stats().restarts;
        const Gate result = gate();
        if (stats().restarts != restarts)
            expectReference(referenceFold(snapshot, journal_bytes),
                            "restart", ++restartsChecked);
        return result;
    }

    void
    expectReference(const std::vector<uint8_t> &expected,
                    const char *what, size_t n) const
    {
        const std::vector<uint8_t> &got = snapshotBytes();
        if (got == expected)
            return;
        size_t at = 0;
        while (at < got.size() && at < expected.size() &&
               got[at] == expected[at])
            ++at;
        ADD_FAILURE() << what << " #" << n
                      << ": snapshot differs from the reference fold "
                         "at byte "
                      << at << " (" << got.size() << " vs "
                      << expected.size() << " bytes)";
    }
};

using OracleFleet = BasicRecoveryFleet<OracleSupervisor>;

ServiceConfig
calmService()
{
    ServiceConfig config;
    config.scheduler.deadlineCycles = 1'000'000'000'000ULL;
    config.breakerThreshold = 1'000'000;
    return config;
}

/** The crash suite's watchdog clock: dead 600 cycles after a crash,
 *  back up 600 after that. */
RecoveryConfig
recoveryEvery(size_t records)
{
    RecoveryConfig config;
    config.heartbeatIntervalCycles = 300;
    config.missedHeartbeatsToDeclareDead = 2;
    config.restartLatencyCycles = 600;
    config.compactEveryRecords = records;
    return config;
}

/** One fleet run: an untrained guard (so first-seen paths go slow and
 *  earn the credit the journal carries) and the fleet it protected. */
struct FleetRun
{
    std::unique_ptr<FlowGuard> guard;
    std::unique_ptr<OracleFleet> fleet;

    OracleSupervisor &supervisor() { return fleet->supervisor; }
};

class LiveFoldOracle : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        server_app = new workloads::SyntheticApp(workloads::buildServerApp(
            test::benignFleetSpec(server_cr3)));
        plugin_app = new workloads::SyntheticApp(
            workloads::buildPluginServerApp(
                test::churnFleetSpec(plugin_cr3)));
    }

    static void
    TearDownTestSuite()
    {
        delete plugin_app;
        delete server_app;
    }

    /** Runs the benign fleet (servers) or the churn fleet (plugin
     *  servers). */
    static FleetRun
    runFleet(bool churn, const RecoveryConfig &config,
             const trace::ControlFaultPlan &plan = {},
             uint64_t fault_seed = 1)
    {
        OracleFleet::AppBuilder apps = [churn](size_t i) {
            return churn ? workloads::buildPluginServerApp(
                               test::churnFleetSpec(plugin_cr3 + 0x100 * i))
                         : workloads::buildServerApp(
                               test::benignFleetSpec(server_cr3 + i));
        };
        // Four processes, long enough that even compactEveryRecords
        // 256 compacts during the run.
        std::vector<std::vector<uint8_t>> inputs;
        for (uint64_t seed = 11; seed < 15; ++seed)
            inputs.push_back(churn
                ? workloads::makePluginStream(
                      40, seed, test::churnFleetSpec(plugin_cr3))
                : workloads::makeBenignStream(160, seed, 4, 2));
        FleetRun run;
        run.guard = churn
            ? test::churnFleetGuard(*plugin_app, plugin_cr3, 0,
                                    /*path_sensitive=*/true)
            : test::benignFleetGuard(*server_app, 0,
                                     /*path_sensitive=*/true);
        run.fleet = std::make_unique<OracleFleet>(
            *run.guard, calmService(), config, plan, fault_seed, apps,
            inputs);
        run.fleet->run(20'000'000);
        return run;
    }

    static workloads::SyntheticApp *server_app;
    static workloads::SyntheticApp *plugin_app;
};

workloads::SyntheticApp *LiveFoldOracle::server_app = nullptr;
workloads::SyntheticApp *LiveFoldOracle::plugin_app = nullptr;

TEST_F(LiveFoldOracle, EveryCompactionMatchesAtEveryInterval)
{
    for (const bool churn : {false, true}) {
        uint64_t pruned = 0;
        uint64_t paths = 0;
        for (const size_t every : {size_t{1}, size_t{8}, size_t{256}}) {
            FleetRun run = runFleet(churn, recoveryEvery(every));
            OracleSupervisor &supervisor = run.supervisor();
            supervisor.compactNow();    // the tail a run leaves behind
            const auto &stats = supervisor.stats();
            // Every compaction went through the oracle, and there were
            // as many as the interval implies.
            EXPECT_EQ(supervisor.compactionsChecked, stats.compactions);
            EXPECT_GE(stats.compactions, stats.journalAppends / every)
                << "churn " << churn << " every " << every;
            EXPECT_GE(stats.compactions, every == 256 ? 3u : 50u)
                << "churn " << churn << " every " << every;
            pruned += supervisor.prunedCredits;
            paths += supervisor.foldedPaths;
        }
        EXPECT_GT(paths, 0u) << "churn " << churn
                             << ": commit deltas must carry n-grams";
        if (churn) {
            EXPECT_GT(pruned, 0u)
                << "the churn fleet's unloads must retire credit";
        }
    }
}

TEST_F(LiveFoldOracle, TornTailCrashesAndWarmRestartsMatch)
{
    size_t torn_runs = 0;
    size_t restarts = 0;
    size_t compactions_after_restart = 0;
    for (const bool churn : {false, true}) {
        for (int point = 0; point < 16; ++point) {
            trace::ControlFaultPlan plan;
            plan.monitorCrashAtCycle = 300 + 350ULL * point;
            plan.tornJournalOnCrash = true;
            FleetRun run = runFleet(churn, recoveryEvery(8), plan,
                               4'000 + point);
            OracleSupervisor &supervisor = run.supervisor();
            const size_t before_final = supervisor.compactionsChecked;
            supervisor.compactNow();
            ASSERT_EQ(supervisor.compactionsChecked, before_final + 1);
            const auto &stats = supervisor.stats();
            EXPECT_EQ(supervisor.restartsChecked, stats.restarts);
            torn_runs += stats.tornTailBytes != 0;
            restarts += stats.restarts;
            if (stats.restarts != 0)
                compactions_after_restart +=
                    stats.compactions - stats.restarts;
        }
    }
    // Not vacuous: crashes really tore tails, the checker came back,
    // and compactions ran on the fold a restart adopted.
    EXPECT_GE(torn_runs, 10u);
    EXPECT_GE(restarts, 16u);
    EXPECT_GT(compactions_after_restart, 0u);
}

TEST_F(LiveFoldOracle, JournalEditsBehindTheFoldAreRefolded)
{
    // No automatic compaction: the journal holds the whole run.
    const size_t journal_size =
        runFleet(false, recoveryEvery(0)).supervisor().journal()
            .bytes().size();
    ASSERT_GT(journal_size, 1'000u);
    for (const size_t cut : {size_t{0}, journal_size / 3,
                             journal_size / 2, journal_size - 1}) {
        FleetRun run = runFleet(false, recoveryEvery(0));
        OracleSupervisor &supervisor = run.supervisor();
        supervisor.journal().truncateTo(cut);
        supervisor.compactNow();
        // The re-fold is live again: later appends fold onto it.
        ViolationReport verdict;
        verdict.cr3 = server_cr3;
        verdict.seq = 1'000;
        verdict.reason = "after truncation";
        supervisor.noteVerdictCommitted(verdict);
        supervisor.compactNow();
        EXPECT_EQ(supervisor.compactionsChecked, 2u) << "cut " << cut;
    }
    for (const size_t at : {journal_size / 4, journal_size - 5}) {
        FleetRun run = runFleet(false, recoveryEvery(0));
        OracleSupervisor &supervisor = run.supervisor();
        supervisor.journal().mutableBytes()[at] ^= 0x40;
        supervisor.compactNow();
        EXPECT_EQ(supervisor.compactionsChecked, 1u) << "flip " << at;
    }
}

} // namespace
