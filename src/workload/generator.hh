/**
 * @file
 * Synthetic instruction-stream generator: turns a WorkloadProfile
 * into an endless, seeded, per-thread stream of WorkSlices laid out
 * in the owning VM's address window. See profile.hh for the model.
 */

#ifndef CONSIM_WORKLOAD_GENERATOR_HH
#define CONSIM_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "cpu/instr_stream.hh"
#include "workload/profile.hh"

namespace consim
{

/** Tracks the distinct blocks a VM has touched (Table II column). */
class Footprint
{
  public:
    explicit Footprint(std::uint64_t capacity_blocks)
        : touched_(capacity_blocks)
    {
    }

    /** Mark a VM-relative block offset as touched. */
    void
    touch(std::uint64_t offset)
    {
        if (offset >= touched_.size() || touched_[offset])
            return;
        touched_[offset] = 1;
        ++count_;
    }

    /** @return distinct blocks touched so far. */
    std::uint64_t distinctBlocks() const { return count_; }

  private:
    friend struct CkptAccess;

    std::vector<std::uint8_t> touched_; ///< one flag per block
    std::uint64_t count_ = 0;
};

/** One thread's endless synthetic reference stream. */
class SyntheticStream : public InstrStream
{
  public:
    /**
     * @param profile    the workload model
     * @param vm         owning VM (fixes the address window)
     * @param thread_idx 0..numThreads-1 within the VM
     * @param seed       stream seed (derives the thread's RNG)
     * @param footprint  shared per-VM footprint tracker (may be null)
     * @param span_bits  the run's VM-window width (see
     *                   requiredVmSpanBits; default fits VMs up to
     *                   ~72 threads)
     */
    SyntheticStream(const WorkloadProfile &profile, VmId vm,
                    int thread_idx, std::uint64_t seed,
                    Footprint *footprint, int span_bits = 0);

    WorkSlice next() override;

    /** @return total references generated (diagnostics). */
    std::uint64_t refsGenerated() const { return refs_; }

  private:
    /** Checkpoint layer saves/restores the mutable stream state
     *  (rng, hot-window positions, counters). */
    friend struct CkptAccess;

    BlockAddr pickSharedRo();
    BlockAddr pickMigratory();
    BlockAddr pickPrivate();

    const WorkloadProfile &prof_;
    VmId vm_;
    int threadIdx_;
    Rng rng_;
    Footprint *footprint_;
    BlockAddr base_; ///< window base: vmBaseBlock(vm, span_bits)

    // VM-relative region bases (block offsets)
    std::uint64_t sharedRoBase_;
    std::uint64_t migratoryBase_;
    std::uint64_t privateBase_;

    // sliding hot windows (positions within the active segments)
    std::uint64_t hotSharedPos_ = 0;
    std::uint64_t hotPrivatePos_ = 0;
    std::uint64_t segShared_ = 0;  ///< resolved active segment sizes
    std::uint64_t segPrivate_ = 0;

    std::uint64_t refs_ = 0;
    std::uint32_t refsInTxn_ = 0;
};

/**
 * All streams of one workload instance plus its footprint tracker.
 * The VM layer in src/core binds these to cores via the scheduler.
 */
class WorkloadInstance
{
  public:
    /**
     * @param profile     workload model
     * @param vm          VM id (address window)
     * @param seed        instance seed; thread streams derive from it
     * @param num_threads thread-count override for heterogeneous VM
     *                    mixes (0 = the profile's default). Streams
     *                    and the private-region footprint scale with
     *                    it; the shared regions are per-VM and do not.
     * @param span_bits   the run's VM-window width (0 = the default
     *                    vmSpanBits); every VM of a run must use the
     *                    same width or addresses would collide.
     */
    WorkloadInstance(const WorkloadProfile &profile, VmId vm,
                     std::uint64_t seed, int num_threads = 0,
                     int span_bits = 0);

    const WorkloadProfile &profile() const { return prof_; }
    VmId vm() const { return vm_; }
    int numThreads() const { return numThreads_; }

    /** The run's resolved VM-window width this instance encodes
     *  addresses with. */
    int spanBits() const { return spanBits_; }

    /** Distinct blocks this instance can touch: the profile's shared
     *  regions plus one private region per actual thread. */
    std::uint64_t
    totalBlocks() const
    {
        return prof_.sharedRoBlocks + prof_.migratoryBlocks +
               static_cast<std::uint64_t>(numThreads_) *
                   prof_.privateBlocksPerThread;
    }

    /** @return the stream for a thread index. */
    SyntheticStream &thread(int idx) { return *streams_.at(idx); }

    /** @return distinct blocks this instance has touched. */
    std::uint64_t distinctBlocks() const
    {
        return footprint_.distinctBlocks();
    }

  private:
    friend struct CkptAccess;

    const WorkloadProfile &prof_;
    VmId vm_;
    int numThreads_;
    int spanBits_;
    Footprint footprint_;
    std::vector<std::unique_ptr<SyntheticStream>> streams_;
};

} // namespace consim

#endif // CONSIM_WORKLOAD_GENERATOR_HH
