/**
 * @file
 * The VMs and thread placements of a RunConfig, built the way
 * runExperiment builds them, for tests that drive a System directly
 * (the experiment driver does not expose its phases).
 */

#ifndef CONSIM_TESTS_SYSTEM_RIG_HH
#define CONSIM_TESTS_SYSTEM_RIG_HH

#include <memory>
#include <vector>

#include "core/experiment.hh"
#include "core/scheduler.hh"
#include "core/system.hh"
#include "core/vm.hh"

namespace consim
{

/** VM storage + placements for a RunConfig. */
struct Rig
{
    std::vector<std::unique_ptr<VirtualMachine>> storage;
    std::vector<VirtualMachine *> vms;
    std::vector<ThreadPlacement> placements;
};

inline Rig
buildRig(const RunConfig &cfg)
{
    Rig rig;
    std::vector<int> threads_per_vm;
    for (std::size_t i = 0; i < cfg.workloads.size(); ++i) {
        const auto &prof = WorkloadProfile::get(cfg.workloads[i]);
        const int nthreads =
            i < cfg.vmThreads.size() ? cfg.vmThreads[i] : 0;
        rig.storage.push_back(std::make_unique<VirtualMachine>(
            prof, static_cast<VmId>(i),
            cfg.seed * 1000003ull + i * 7919ull, nthreads));
        rig.vms.push_back(rig.storage.back().get());
        threads_per_vm.push_back(rig.storage.back()->numThreads());
    }
    rig.placements = scheduleThreads(cfg.machine, threads_per_vm,
                                     cfg.policy, cfg.seed);
    return rig;
}

} // namespace consim

#endif // CONSIM_TESTS_SYSTEM_RIG_HH
