/**
 * @file
 * What the decoder oracles sample: the endpoint-dense server that
 * perfbench's `storm` workload runs, and a trace sink that copies a
 * ToPA ring's contents every so many branches.
 */

#ifndef FLOWGUARD_TESTS_STORM_RING_HH
#define FLOWGUARD_TESTS_STORM_RING_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/cpu.hh"
#include "trace/ipt.hh"
#include "workloads/apps.hh"

namespace flowguard::test {

/** A ToPA ring's contents sampled while a server runs under IPT. */
struct RingSampler : cpu::TraceSink
{
    const trace::Topa &topa;
    size_t every;
    size_t seen = 0;
    std::vector<std::vector<uint8_t>> samples;

    RingSampler(const trace::Topa &ring, size_t period)
        : topa(ring), every(period)
    {}

    void
    onBranch(const cpu::BranchEvent &) override
    {
        if (++seen % every != 0)
            return;
        const auto view = topa.view();
        samples.emplace_back(view.begin(), view.end());
    }
};

/** The endpoint-dense server perfbench's `storm` workload runs. */
inline workloads::ServerSpec
stormSpec()
{
    workloads::ServerSpec spec;
    spec.name = "storm";
    spec.workPerRequest = 1;
    spec.implantVuln = true;
    spec.seed = 21;
    spec.cr3 = 0x2100;
    return spec;
}

} // namespace flowguard::test

#endif // FLOWGUARD_TESTS_STORM_RING_HH
