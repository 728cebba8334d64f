/**
 * @file
 * Machine configuration for the consolidation CMP and the mapping
 * from cores to L2 sharing groups.
 *
 * The chip is an X-by-Y mesh of tiles; each tile holds one in-order
 * core, private L0/L1 caches, one bank of its group's L2 partition,
 * and one slice of the global directory. The aggregate L2 capacity is
 * fixed regardless of sharing degree: N cores in groups of K give
 * N/K partitions of l2TotalBytes/(N/K) each.
 *
 * The default configuration is the paper's Table III machine — a
 * 16-core 4x4 mesh with a 16 MB aggregate L2, whose five sharing
 * degrees partition it as:
 *   - private:       16 groups x 1 MB
 *   - shared-2-way:   8 groups x 2 MB
 *   - shared-4-way:   4 groups x 4 MB
 *   - shared-8-way:   2 groups x 8 MB
 *   - fully shared:   1 group x 16 MB
 * Groups are geometrically contiguous rectangles on the mesh; at the
 * 4x4 default these are exactly the pairs, quadrants, and halves
 * depicted in Fig. 1 of the paper, and on larger meshes (8x4, 8x8,
 * 16x8, ...) the same rule yields contiguous gx-by-gy blocks.
 */

#ifndef CONSIM_COMMON_CONFIG_HH
#define CONSIM_COMMON_CONFIG_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "coherence/protocol.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"
#include "noc/routing.hh"

namespace consim
{

/**
 * Number of cores sharing one last-level-cache partition.
 *
 * Parametric: any positive core count is a valid degree (construct
 * one with sharingDegree(n)); the enumerators name the paper's five
 * studied points. The int underlying type means arbitrary degrees
 * round-trip through static_cast unchanged.
 */
enum class SharingDegree : int
{
    Private = 1,
    Shared2 = 2,
    Shared4 = 4,
    Shared8 = 8,
    Shared16 = 16,
};

/** @return cores per group as an int. */
constexpr int
coresPerGroup(SharingDegree d)
{
    return static_cast<int>(d);
}

/** @return the degree with @p cores_per_group cores per partition. */
constexpr SharingDegree
sharingDegree(int cores_per_group)
{
    return static_cast<SharingDegree>(cores_per_group);
}

/** @return human-readable name, matching the paper's labels for the
 *  five studied degrees and "shared-N-way" for any other N. */
inline std::string
toString(SharingDegree d)
{
    const int n = coresPerGroup(d);
    if (n == 1)
        return "private";
    if (n == 16)
        return "fully-shared";
    return "shared-" + std::to_string(n) + "-way";
}

/** Hypervisor thread-to-core scheduling policy (paper §III-D). */
enum class SchedPolicy
{
    RoundRobin,  ///< spread each workload's threads across groups
    Affinity,    ///< pack each workload's threads into few groups
    AffinityRR,  ///< round robin with >=2 threads per group
    Random,      ///< seeded random placement (over-committed VM model)
};

/** @return human-readable name. */
inline std::string
toString(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::RoundRobin:
        return "round-robin";
      case SchedPolicy::Affinity:
        return "affinity";
      case SchedPolicy::AffinityRR:
        return "aff-rr";
      case SchedPolicy::Random:
        return "random";
    }
    return "?";
}

/** Full machine configuration (defaults follow paper Table III). */
struct MachineConfig
{
    // --- chip geometry ---
    int meshX = 4;                 ///< mesh columns
    int meshY = 4;                 ///< mesh rows
    int numCores() const { return meshX * meshY; }

    // --- private cache hierarchy ---
    std::uint64_t l0Bytes = 8 * 1024;   ///< 8 KB L0, 1 cycle
    int l0Assoc = 2;
    int l0Latency = 1;
    std::uint64_t l1Bytes = 64 * 1024;  ///< 64 KB L1, 2 cycles
    int l1Assoc = 4;
    int l1Latency = 2;

    // --- last level cache ---
    std::uint64_t l2TotalBytes = 16 * 1024 * 1024; ///< 16 MB aggregate
    int l2Assoc = 8;
    int l2Latency = 6;
    SharingDegree sharing = SharingDegree::Shared4;

    // --- memory system ---
    int memLatency = 150;          ///< off-chip access latency (cycles)
    int numMemCtrls = 4;           ///< controllers at the mesh corners
    int memIssueInterval = 4;      ///< min cycles between MC accepts
    /** Reply latency when the block came up with the directory-state
     *  fetch (state and data live in the same DRAM region, so an
     *  I-state miss that already paid the directory fetch only pays
     *  a transfer cost, not a second full access). */
    int memOverlapLatency = 25;

    // --- global directory ---
    bool dirCacheEnabled = true;   ///< per-tile directory caches
    std::uint64_t dirCacheEntries = 8192; ///< entries per tile slice
    int dirCacheAssoc = 8;
    int dirLatency = 2;            ///< directory-cache hit latency
    bool cleanForwarding = true;   ///< sharer supplies clean data (c2c)

    // --- interconnect ---
    bool idealNoc = false;         ///< ablation: fixed-latency network
    int idealNocLatency = 8;       ///< per-message latency when ideal
    /** Intra-group L1<->bank traffic takes a flat on-partition path
     *  (the paper's constant 6-cycle L2 regardless of sharing
     *  degree). Disable to route it over the mesh (ablation). */
    bool flatIntraGroup = true;
    int intraGroupLatency = 3;     ///< flat per-message latency
    int flitBytes = 16;            ///< 64B data + header = 5 flits
    int vcsPerVnet = 2;            ///< virtual channels per vnet
    int vcBufferFlits = 4;         ///< buffer depth per VC

    // --- L2 group topology helpers ---

    /** @return number of L2 sharing groups. */
    int
    numGroups() const
    {
        return numCores() / coresPerGroup(sharing);
    }

    /** @return bytes per L2 partition. */
    std::uint64_t
    l2PartitionBytes() const
    {
        return l2TotalBytes / static_cast<std::uint64_t>(numGroups());
    }

    /**
     * Shape of one contiguous group rectangle on the mesh: gx-by-gy
     * tiles with gx*gy == coresPerGroup, gx | meshX, gy | meshY.
     *
     * Among the valid factorizations the widest shape no taller than
     * it is wide wins (gx >= gy, smallest such gx); when every valid
     * shape is taller than wide, the widest one wins. On the 4x4 mesh
     * this reproduces the paper's Fig. 1 groupings exactly: degree 2
     * picks 2x1 horizontal pairs, degree 4 the 2x2 quadrants, degree
     * 8 the 4x2 halves, degree 16 the full chip.
     *
     * @return {gx, gy}, or {0, 0} when no tiling exists (validate()
     * turns that into a fatal config error).
     */
    std::pair<int, int>
    groupTileShape() const
    {
        const int cpg = coresPerGroup(sharing);
        int best_gx = 0, best_gy = 0;
        for (int gx = 1; gx <= cpg; ++gx) {
            if (cpg % gx != 0)
                continue;
            const int gy = cpg / gx;
            if (gx > meshX || gy > meshY || meshX % gx != 0 ||
                meshY % gy != 0) {
                continue;
            }
            best_gx = gx;
            best_gy = gy;
            if (gx >= gy)
                break; // smallest gx with gx >= gy
        }
        return {best_gx, best_gy};
    }

    /** @return the group a core belongs to (contiguous rectangular
     *  grouping; see groupTileShape()). */
    GroupId
    groupOfCore(CoreId core) const
    {
        CONSIM_ASSERT(core >= 0 && core < numCores(), "bad core ", core);
        const auto [gx, gy] = groupTileShape();
        CONSIM_ASSERT(gx > 0, "no contiguous ",
                      coresPerGroup(sharing), "-core group tiling of a ",
                      meshX, "x", meshY, " mesh (validate() rejects "
                      "such configs)");
        const int x = core % meshX;
        const int y = core / meshX;
        return (y / gy) * (meshX / gx) + (x / gx);
    }

    /** @return the member cores of a group, ascending. */
    std::vector<CoreId>
    coresOfGroup(GroupId g) const
    {
        std::vector<CoreId> members;
        for (CoreId c = 0; c < numCores(); ++c) {
            if (groupOfCore(c) == g)
                members.push_back(c);
        }
        CONSIM_ASSERT(!members.empty(), "empty group ", g);
        return members;
    }

    /**
     * Validate structural constraints; fatal on user error, naming
     * the field. A snapshot's machine context is checked here too, so
     * every value that would break a component is refused before one
     * is built.
     */
    void
    validate() const
    {
        if (meshX < 2 || meshY < 2)
            CONSIM_FATAL("mesh must be at least 2x2 (got ", meshX, "x",
                         meshY, "): memory controllers sit on the four "
                         "chip corners (System::mcTiles_), which "
                         "degenerate on a 1-wide mesh");
        if (!isPow2(l0Bytes) || !isPow2(l1Bytes))
            CONSIM_FATAL("private cache sizes must be powers of two");
        checkWays("l0_assoc", l0Assoc, l0Bytes / blockBytes);
        checkWays("l1_assoc", l1Assoc, l1Bytes / blockBytes);
        checkWays("dir_cache_assoc", dirCacheAssoc, dirCacheEntries);
        // The aggregate L2 is striped one bank per tile; every bank
        // must hold a whole number of sets. Indexing is modulo-based
        // throughout, so the total need not be a power of two (a
        // 6x6 chip legitimately wants a 36-divisible aggregate).
        const std::uint64_t bank_quantum =
            static_cast<std::uint64_t>(numCores()) *
            static_cast<std::uint64_t>(blockBytes);
        if (l2TotalBytes == 0 || l2TotalBytes % bank_quantum != 0)
            CONSIM_FATAL("aggregate L2 (", l2TotalBytes, " bytes) must "
                         "split into one bank of whole lines per tile: "
                         "want a multiple of ", bank_quantum,
                         " bytes for a ", numCores(), "-core chip");
        checkWays("l2_assoc", l2Assoc, l2TotalBytes / bank_quantum);
        const int cpg = coresPerGroup(sharing);
        if (cpg < 1 || cpg > numCores())
            CONSIM_FATAL("sharing degree ", cpg, " out of range for a ",
                         numCores(), "-core chip (want 1..", numCores(),
                         ")");
        if (numCores() % cpg != 0)
            CONSIM_FATAL("cores not divisible into groups");
        if (groupTileShape().first == 0)
            CONSIM_FATAL("no contiguous grouping: ", cpg,
                         "-core groups do not tile a ", meshX, "x",
                         meshY, " mesh as gx-by-gy rectangles (need "
                         "gx*gy == ", cpg, " with gx dividing ", meshX,
                         " and gy dividing ", meshY, "); pick a degree "
                         "whose factors divide the mesh dimensions");
        if (numMemCtrls < 1 || numMemCtrls > 4)
            CONSIM_FATAL("bad number of memory controllers (",
                         numMemCtrls, "): controllers sit at distinct "
                         "mesh corners, so 1..4 are supported");
        // Every latency is an event delay, and an event takes at
        // least one cycle.
        for (const auto &[field, cycles] :
             {std::pair{"l0_latency", l0Latency},
              {"l1_latency", l1Latency},
              {"l2_latency", l2Latency},
              {"mem_latency", memLatency},
              {"mem_overlap_latency", memOverlapLatency},
              {"dir_latency", dirLatency},
              {"ideal_noc_latency", idealNocLatency},
              {"intra_group_latency", intraGroupLatency}}) {
            if (cycles < 1)
                CONSIM_FATAL(field, " ", cycles,
                             " is below the 1-cycle minimum");
        }
        // The MC adds the interval to a cycle count, so a negative
        // one would wrap into "no issue limit".
        if (memIssueInterval < 0)
            CONSIM_FATAL("mem_issue_interval ", memIssueInterval,
                         " is negative");
        if (flitBytes < 1)
            CONSIM_FATAL("flit_bytes ", flitBytes,
                         " is below the 1-byte minimum");
        // A router tracks its input VCs in one 64-bit word, and a
        // VC's ring position and length in a byte.
        const int max_vcs = 64 / (NumPorts * numVnets);
        if (vcsPerVnet < 1 || vcsPerVnet > max_vcs)
            CONSIM_FATAL("vcs_per_vnet ", vcsPerVnet, " out of range "
                         "(want 1..", max_vcs, ": ", NumPorts,
                         " ports x ", numVnets, " vnets of VCs fit a "
                         "router's 64-VC word)");
        if (vcBufferFlits > 255)
            CONSIM_FATAL("vc_buffer_flits ", vcBufferFlits,
                         " above the 255-flit maximum");
    }

  private:
    /** Fatal unless @p assoc is 1..64 (a cache takes a 64-bit way
     *  mask) and splits a @p lines -line array into whole sets. */
    static void
    checkWays(const char *field, int assoc, std::uint64_t lines)
    {
        if (assoc < 1 || assoc > 64)
            CONSIM_FATAL(field, " ", assoc, " out of range (want 1..64)");
        if (lines == 0 || lines % static_cast<std::uint64_t>(assoc) != 0)
            CONSIM_FATAL(field, " ", assoc, " does not split the ",
                         lines, "-line array into whole sets");
    }
};

} // namespace consim

#endif // CONSIM_COMMON_CONFIG_HH
