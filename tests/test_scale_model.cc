/**
 * @file
 * Tests for the parametric scale model: the CoreSet variable-width
 * bitset, contiguous rectangular group tiling on arbitrary meshes,
 * XY routing and mesh delivery beyond 4x4 (including the non-square
 * 8x4 and non-pow2 6x6 geometries), bank/home/memory-tile mapping on
 * scaled-out chips, heterogeneous per-VM thread counts, and — the
 * correctness anchor of the whole refactor — a golden-hash regression
 * pinning the paper's 16-core consim.run.v1 envelope byte-for-byte
 * across all five sharing degrees and all four scheduling policies,
 * plus pins for the shapes that grid does not reach (ideal NoC,
 * all-mesh intra-group traffic, 64- and 256-core chips).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/config.hh"
#include "common/coreset.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "core/system.hh"
#include "noc/mesh.hh"
#include "noc/network.hh"
#include "noc/routing.hh"

namespace consim
{
namespace
{

// --- CoreSet ------------------------------------------------------

TEST(CoreSet, StartsEmpty)
{
    CoreSet s;
    EXPECT_TRUE(s.none());
    EXPECT_FALSE(s.any());
    EXPECT_EQ(s.count(), 0);
    EXPECT_EQ(s.findFirst(), -1);
}

TEST(CoreSet, SetTestClearWithinInlineWord)
{
    CoreSet s;
    s.set(0);
    s.set(15);
    s.set(63);
    EXPECT_TRUE(s.test(0) && s.test(15) && s.test(63));
    EXPECT_FALSE(s.test(1));
    EXPECT_EQ(s.count(), 3);
    s.clear(15);
    EXPECT_FALSE(s.test(15));
    EXPECT_EQ(s.count(), 2);
}

TEST(CoreSet, GrowsPast64Bits)
{
    CoreSet s;
    s.set(3);
    s.set(64);
    s.set(200);
    EXPECT_TRUE(s.test(3) && s.test(64) && s.test(200));
    EXPECT_FALSE(s.test(63) || s.test(65) || s.test(199));
    EXPECT_EQ(s.count(), 3);
    EXPECT_EQ(s.findFirst(), 3);
    s.clear(3);
    EXPECT_EQ(s.findFirst(), 64);
}

TEST(CoreSet, EqualityIgnoresStorageWidth)
{
    // A set that grew beyond 64 bits and then lost its high bits must
    // compare equal to one that never grew.
    CoreSet grew;
    grew.set(5);
    grew.set(130);
    grew.clear(130);
    CoreSet never;
    never.set(5);
    EXPECT_EQ(grew, never);
    EXPECT_EQ(never, grew);
    never.set(6);
    EXPECT_NE(grew, never);
}

TEST(CoreSet, ForEachSetIsAscending)
{
    CoreSet s;
    for (const int i : {190, 2, 64, 5, 127})
        s.set(i);
    std::vector<int> seen;
    s.forEachSet([&](int i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<int>{2, 5, 64, 127, 190}));
}

TEST(CoreSet, IsExactly)
{
    CoreSet s = CoreSet::single(7);
    EXPECT_TRUE(s.isExactly(7));
    EXPECT_FALSE(s.isExactly(6));
    s.set(90);
    EXPECT_FALSE(s.isExactly(7));
}

TEST(CoreSet, CopyIsDeep)
{
    CoreSet a;
    a.set(100);
    CoreSet b = a;
    b.set(101);
    EXPECT_FALSE(a.test(101));
    a = b;
    EXPECT_TRUE(a.test(101));
    a.clear(101);
    EXPECT_TRUE(b.test(101));
}

TEST(CoreSet, WordsRoundTrip)
{
    CoreSet s;
    s.set(1);
    s.set(70);
    s.set(300);
    const CoreSet back = CoreSet::fromWords(s.words());
    EXPECT_EQ(back, s);
    // Trimming: a small set serializes to at most one word.
    CoreSet small;
    small.set(9);
    EXPECT_EQ(small.words().size(), 1u);
    // The empty set serializes to no words at all.
    EXPECT_TRUE(CoreSet().words().empty());
    EXPECT_EQ(CoreSet::fromWords({}), CoreSet());
}

TEST(CoreSet, ResetKeepsNothingSet)
{
    CoreSet s;
    s.set(3);
    s.set(300);
    s.reset();
    EXPECT_TRUE(s.none());
    EXPECT_EQ(s, CoreSet());
    s.set(300); // storage is reusable after reset
    EXPECT_TRUE(s.test(300));
    EXPECT_EQ(s.count(), 1);
}

// --- group tiling -------------------------------------------------

MachineConfig
meshConfig(int mx, int my, int cpg)
{
    MachineConfig m;
    m.meshX = mx;
    m.meshY = my;
    m.sharing = sharingDegree(cpg);
    return m;
}

TEST(GroupTiling, PaperMeshReproducesFig1Groupings)
{
    // Degree 2: horizontal pairs (group = core/2).
    const MachineConfig pairs = meshConfig(4, 4, 2);
    EXPECT_EQ(pairs.groupTileShape(), (std::pair<int, int>{2, 1}));
    for (CoreId c = 0; c < 16; ++c)
        EXPECT_EQ(pairs.groupOfCore(c), c / 2);

    // Degree 4: the 2x2 quadrants.
    const MachineConfig quads = meshConfig(4, 4, 4);
    EXPECT_EQ(quads.groupTileShape(), (std::pair<int, int>{2, 2}));
    for (CoreId c = 0; c < 16; ++c) {
        const int x = c % 4, y = c / 4;
        EXPECT_EQ(quads.groupOfCore(c), (y / 2) * 2 + x / 2);
    }

    // Degree 8: the top/bottom halves.
    const MachineConfig halves = meshConfig(4, 4, 8);
    EXPECT_EQ(halves.groupTileShape(), (std::pair<int, int>{4, 2}));
    for (CoreId c = 0; c < 16; ++c)
        EXPECT_EQ(halves.groupOfCore(c), (c / 4) / 2);

    // Degrees 1 and 16: per-core and whole-chip.
    const MachineConfig priv = meshConfig(4, 4, 1);
    const MachineConfig full = meshConfig(4, 4, 16);
    for (CoreId c = 0; c < 16; ++c) {
        EXPECT_EQ(priv.groupOfCore(c), c);
        EXPECT_EQ(full.groupOfCore(c), 0);
    }
}

/** Groups must partition the mesh into equal contiguous rectangles. */
void
expectRectangularPartition(const MachineConfig &m)
{
    const int cpg = coresPerGroup(m.sharing);
    const auto [gx, gy] = m.groupTileShape();
    ASSERT_GT(gx, 0) << m.meshX << "x" << m.meshY << " cpg " << cpg;
    EXPECT_EQ(gx * gy, cpg);
    EXPECT_EQ(m.meshX % gx, 0);
    EXPECT_EQ(m.meshY % gy, 0);
    std::map<GroupId, std::vector<CoreId>> members;
    for (CoreId c = 0; c < m.numCores(); ++c)
        members[m.groupOfCore(c)].push_back(c);
    ASSERT_EQ(static_cast<int>(members.size()), m.numGroups());
    for (const auto &[g, cores] : members) {
        ASSERT_EQ(static_cast<int>(cores.size()), cpg) << "group " << g;
        // Contiguity: the member bounding box is exactly gx-by-gy.
        int min_x = m.meshX, max_x = -1, min_y = m.meshY, max_y = -1;
        for (CoreId c : cores) {
            min_x = std::min(min_x, c % m.meshX);
            max_x = std::max(max_x, c % m.meshX);
            min_y = std::min(min_y, c / m.meshX);
            max_y = std::max(max_y, c / m.meshX);
        }
        EXPECT_EQ(max_x - min_x + 1, gx) << "group " << g;
        EXPECT_EQ(max_y - min_y + 1, gy) << "group " << g;
        EXPECT_EQ(m.coresOfGroup(g), cores);
    }
}

TEST(GroupTiling, RectangularMeshes)
{
    for (const int cpg : {1, 2, 4, 8, 16, 32})
        expectRectangularPartition(meshConfig(8, 4, cpg));
    for (const int cpg : {1, 2, 4, 8, 16, 32, 64})
        expectRectangularPartition(meshConfig(8, 8, cpg));
    for (const int cpg : {1, 2, 4, 8, 16, 32, 64, 128})
        expectRectangularPartition(meshConfig(16, 8, cpg));
}

TEST(GroupTiling, CoresOfGroupEqualsBruteForceFilter)
{
    // coresOfGroup walks the group's rectangle; it must list exactly
    // the cores groupOfCore puts in the group, ascending, at every
    // degree that tiles the mesh.
    for (const auto &[mx, my] : {std::pair{4, 4}, {8, 8}, {16, 8}, {16, 16},
                                 {32, 32}}) {
        int degrees = 0;
        for (int cpg = 1; cpg <= mx * my; ++cpg) {
            const MachineConfig m = meshConfig(mx, my, cpg);
            if ((mx * my) % cpg != 0 || m.groupTileShape().first == 0)
                continue;
            m.validate();
            ++degrees;
            for (GroupId g = 0; g < m.numGroups(); ++g) {
                std::vector<CoreId> filtered;
                for (CoreId c = 0; c < m.numCores(); ++c)
                    if (m.groupOfCore(c) == g)
                        filtered.push_back(c);
                ASSERT_EQ(m.coresOfGroup(g), filtered)
                    << mx << "x" << my << " degree " << cpg << " group " << g;
            }
        }
        EXPECT_GE(degrees, 5) << mx << "x" << my;
    }
}

TEST(GroupTiling, NonPow2MeshAndDegrees)
{
    // 6x6 chip: 36 cores admit non-pow2 degrees.
    for (const int cpg : {1, 2, 3, 4, 6, 9, 12, 18, 36})
        expectRectangularPartition(meshConfig(6, 6, cpg));
    EXPECT_EQ(meshConfig(6, 6, 9).groupTileShape(),
              (std::pair<int, int>{3, 3}));
    EXPECT_EQ(meshConfig(6, 6, 6).groupTileShape(),
              (std::pair<int, int>{3, 2}));
}

// --- XY routing on non-4x4 meshes (satellite: mesh geometry) ------

/** Walk xyRoute hop by hop from src to dst, asserting every step
 *  stays on the mesh and the walk takes exactly hopDistance steps. */
void
expectXyWalkReaches(int mesh_x, int mesh_y, CoreId src, CoreId dst)
{
    CoreId here = src;
    int steps = 0;
    while (here != dst) {
        const int port = xyRoute(here, dst, mesh_x);
        const int x = here % mesh_x, y = here / mesh_x;
        switch (port) {
          case PortEast:
            ASSERT_LT(x, mesh_x - 1) << "east off-mesh at " << here;
            here += 1;
            break;
          case PortWest:
            ASSERT_GT(x, 0) << "west off-mesh at " << here;
            here -= 1;
            break;
          case PortSouth:
            ASSERT_LT(y, mesh_y - 1) << "south off-mesh at " << here;
            here += mesh_x;
            break;
          case PortNorth:
            ASSERT_GT(y, 0) << "north off-mesh at " << here;
            here -= mesh_x;
            break;
          default:
            FAIL() << "local port before reaching dst (tile " << here
                   << " -> " << dst << ")";
        }
        ASSERT_LE(++steps, mesh_x + mesh_y) << "routing loop";
    }
    EXPECT_EQ(steps, hopDistance(src, dst, mesh_x));
    EXPECT_EQ(xyRoute(dst, dst, mesh_x), PortLocal);
}

TEST(ScaledRouting, AllPairsReachableOn8x4And6x6)
{
    for (const auto &[mx, my] : {std::pair<int, int>{8, 4},
                                 std::pair<int, int>{6, 6}}) {
        for (CoreId s = 0; s < mx * my; ++s)
            for (CoreId d = 0; d < mx * my; ++d)
                expectXyWalkReaches(mx, my, s, d);
    }
}

TEST(ScaledRouting, MeshDeliversAllPairsOn8x4)
{
    MachineConfig cfg = meshConfig(8, 4, 8);
    std::vector<Msg> delivered;
    NetworkStats stats;
    Mesh mesh(cfg, stats, [&](const Msg &m) { delivered.push_back(m); });
    Cycle now = 0;
    int injected = 0;
    for (CoreId src = 0; src < 32; ++src) {
        for (CoreId dst = 0; dst < 32; ++dst) {
            if (src == dst)
                continue;
            Msg m;
            m.type = MsgType::GetS;
            m.block = static_cast<BlockAddr>(src * 32 + dst);
            m.srcTile = src;
            m.dstTile = dst;
            m.srcUnit = m.dstUnit = Unit::L2Bank;
            m.injectCycle = now;
            mesh.inject(m);
            ++injected;
        }
    }
    for (int i = 0; i < 20000 && !mesh.idle(); ++i)
        mesh.tick(now++);
    ASSERT_EQ(static_cast<int>(delivered.size()), injected);
    EXPECT_TRUE(mesh.idle());
    for (const Msg &m : delivered)
        EXPECT_EQ(m.block,
                  static_cast<BlockAddr>(m.srcTile * 32 + m.dstTile));
}

TEST(ScaledRouting, MeshDeliversAllPairsOn6x6)
{
    MachineConfig cfg = meshConfig(6, 6, 6);
    int delivered = 0;
    NetworkStats stats;
    Mesh mesh(cfg, stats, [&](const Msg &) { ++delivered; });
    Cycle now = 0;
    int injected = 0;
    for (CoreId src = 0; src < 36; ++src) {
        for (CoreId dst = 0; dst < 36; ++dst) {
            if (src == dst)
                continue;
            Msg m;
            m.type = MsgType::Data;
            m.block = 1;
            m.srcTile = src;
            m.dstTile = dst;
            m.srcUnit = m.dstUnit = Unit::L2Bank;
            m.injectCycle = now;
            mesh.inject(m);
            ++injected;
        }
    }
    for (int i = 0; i < 60000 && !mesh.idle(); ++i)
        mesh.tick(now++);
    EXPECT_EQ(delivered, injected);
    EXPECT_TRUE(mesh.idle());
}

// --- bank / home / memory mapping on scaled-out chips -------------

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p;
    p.name = "tiny";
    p.sharedRoBlocks = 4096;
    p.migratoryBlocks = 256;
    p.privateBlocksPerThread = 512;
    p.pSharedRo = 0.4;
    p.pMigratory = 0.05;
    p.hotSharedBlocks = 256;
    p.hotPrivateBlocks = 64;
    p.refsPerTransaction = 50;
    return p;
}

/** bankTileFor must be onto the group members and nothing else, and
 *  home striping must hit every tile. */
void
expectBankMapCoversGroups(const MachineConfig &cfg)
{
    WorkloadProfile prof = tinyProfile();
    VirtualMachine vm(prof, 0, 1);
    System sys(cfg, {&vm}, {});
    for (GroupId g = 0; g < cfg.numGroups(); ++g) {
        const auto members = cfg.coresOfGroup(g);
        std::set<CoreId> seen;
        for (BlockAddr b = 0; b < 256; ++b) {
            const CoreId tile = sys.bankTileFor(g, b);
            EXPECT_TRUE(std::find(members.begin(), members.end(),
                                  tile) != members.end())
                << "group " << g << " block " << b << " -> tile "
                << tile;
            seen.insert(tile);
        }
        EXPECT_EQ(seen.size(), members.size()) << "group " << g;
        // Interleaving is a bijection per stride: consecutive blocks
        // cycle through all members before repeating.
        const int size = static_cast<int>(members.size());
        std::set<CoreId> stride;
        for (BlockAddr b = 0; b < static_cast<BlockAddr>(size); ++b)
            stride.insert(sys.bankTileFor(g, b));
        EXPECT_EQ(static_cast<int>(stride.size()), size)
            << "group " << g;
    }
    std::set<CoreId> homes;
    for (BlockAddr b = 0; b < 8192; ++b)
        homes.insert(sys.homeTileFor(b));
    EXPECT_EQ(static_cast<int>(homes.size()), cfg.numCores());
}

TEST(ScaledTopology, BankMapOn8x4)
{
    MachineConfig cfg = meshConfig(8, 4, 8);
    expectBankMapCoversGroups(cfg);
}

TEST(ScaledTopology, BankMapOn6x6NonPow2Groups)
{
    // 6-core groups exercise the non-pow2 modulo interleave path; the
    // aggregate L2 is picked so every one of the 36 banks holds whole
    // sets (validate() rejects sizes that do not split).
    MachineConfig cfg = meshConfig(6, 6, 6);
    cfg.l2TotalBytes = 36ull * 64 * 1024;
    expectBankMapCoversGroups(cfg);
}

TEST(ScaledTopology, MemControllersSitOnCornersOf8x4)
{
    MachineConfig cfg = meshConfig(8, 4, 4);
    WorkloadProfile prof = tinyProfile();
    VirtualMachine vm(prof, 0, 1);
    System sys(cfg, {&vm}, {});
    std::set<CoreId> tiles;
    for (BlockAddr b = 0; b < 4096; ++b)
        tiles.insert(sys.memTileFor(b));
    EXPECT_EQ(static_cast<int>(tiles.size()), cfg.numMemCtrls);
    for (const CoreId t : tiles)
        EXPECT_TRUE(t == 0 || t == 7 || t == 24 || t == 31)
            << "tile " << t;
}

TEST(ScaledConfigDeathTest, ValidateRejectsBadScaleConfigs)
{
    EXPECT_DEATH(meshConfig(8, 4, 3).validate(), "divisible");
    EXPECT_DEATH(meshConfig(4, 4, 32).validate(), "out of range");
    MachineConfig bad_l2 = meshConfig(6, 6, 6);
    EXPECT_DEATH(bad_l2.validate(), "whole");
    MachineConfig bad_mc = meshConfig(4, 4, 4);
    bad_mc.numMemCtrls = 5;
    EXPECT_DEATH(bad_mc.validate(), "corners");
    MachineConfig thin = meshConfig(16, 1, 4);
    EXPECT_DEATH(thin.validate(), "at least 2x2");
}

// --- heterogeneous VM thread counts -------------------------------

TEST(HeterogeneousVms, ThreadOverrideScalesStreamsAndFootprint)
{
    WorkloadProfile prof = tinyProfile(); // numThreads defaults to 4
    VirtualMachine two(prof, 0, 1, 2);
    VirtualMachine dflt(prof, 1, 1);
    VirtualMachine eight(prof, 2, 1, 8);
    EXPECT_EQ(two.numThreads(), 2);
    EXPECT_EQ(dflt.numThreads(), 4);
    EXPECT_EQ(eight.numThreads(), 8);
    const std::uint64_t shared =
        prof.sharedRoBlocks + prof.migratoryBlocks;
    EXPECT_EQ(two.totalBlocks(),
              shared + 2 * prof.privateBlocksPerThread);
    EXPECT_EQ(dflt.totalBlocks(), prof.totalBlocks());
    EXPECT_EQ(eight.totalBlocks(),
              shared + 8 * prof.privateBlocksPerThread);
    // Streams exist exactly for the overridden count.
    EXPECT_NO_THROW(eight.instance().thread(7));
    EXPECT_THROW(two.instance().thread(2), std::out_of_range);
}

TEST(HeterogeneousVms, MixedSizesRunOnScaledChip)
{
    // One 2-, one 4- and one 8-thread VM on a 32-core chip: the run
    // must complete and attribute work to every VM.
    RunConfig cfg;
    cfg.machine.meshX = 8;
    cfg.machine.meshY = 4;
    cfg.machine.sharing = sharingDegree(4);
    cfg.workloads = {WorkloadKind::SpecJbb, WorkloadKind::TpcW,
                     WorkloadKind::TpcH};
    cfg.vmThreads = {2, 4, 8};
    cfg.warmupCycles = 30000;
    cfg.measureCycles = 30000;
    const RunResult r = runExperiment(cfg);
    ASSERT_EQ(r.vms.size(), 3u);
    for (const auto &v : r.vms)
        EXPECT_GT(v.instructions, 0u);
}

TEST(HeterogeneousVms, VmThreadsEchoOnlyWhenConfigured)
{
    RunConfig plain;
    plain.workloads = {WorkloadKind::TpcW};
    EXPECT_EQ(toJson(plain).dump(2).find("vm_threads"),
              std::string::npos);
    plain.vmThreads = {2};
    EXPECT_NE(toJson(plain).dump(2).find("vm_threads"),
              std::string::npos);
}

// --- golden 16-core envelope (byte-identity anchor) ---------------

/** FNV-1a 64-bit over the exact bytes consim_run writes via --json. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct GoldenPoint
{
    int sharing;
    SchedPolicy policy;
    std::uint64_t hash;
};

/**
 * Hashes of the consim.run.v1 envelope for "Mix 5" at 200k/200k
 * cycles, seed 42, on the paper's 16-core machine, captured from the
 * pre-refactor (fixed 16-bit mask) implementation. The parametric
 * scale model must reproduce these documents byte-for-byte: any
 * change here is a behavioural change to the paper's machine and
 * must be justified, not waved through.
 */
const GoldenPoint kGolden[] = {
    {1, SchedPolicy::Affinity, 0x4c1b024cec98df7cull},
    {1, SchedPolicy::RoundRobin, 0xe2382c65c559e5d3ull},
    {1, SchedPolicy::AffinityRR, 0xe7f9c34f45662d42ull},
    {1, SchedPolicy::Random, 0x8cc83a30770bb703ull},
    {2, SchedPolicy::Affinity, 0x7d086a42e4d9a615ull},
    {2, SchedPolicy::RoundRobin, 0x836eee95d5cae122ull},
    {2, SchedPolicy::AffinityRR, 0x16855bb6d8aa35b3ull},
    {2, SchedPolicy::Random, 0x88aff1a0d72ae025ull},
    {4, SchedPolicy::Affinity, 0x6b9a9adecd4ab50aull},
    {4, SchedPolicy::RoundRobin, 0xd6e5cb58a3a6a1cbull},
    {4, SchedPolicy::AffinityRR, 0x8482c0d5c8bb153cull},
    {4, SchedPolicy::Random, 0xcca4e86c3ec9e73aull},
    {8, SchedPolicy::Affinity, 0x2674a47660d0954aull},
    {8, SchedPolicy::RoundRobin, 0xc3d0e077bccbf393ull},
    {8, SchedPolicy::AffinityRR, 0x3a4d9c189772ab3aull},
    {8, SchedPolicy::Random, 0x1e15727097ee4563ull},
    {16, SchedPolicy::Affinity, 0x430405a15fba54b3ull},
    {16, SchedPolicy::RoundRobin, 0x24f4a75ff4440f60ull},
    {16, SchedPolicy::AffinityRR, 0x746434f187096429ull},
    {16, SchedPolicy::Random, 0x12b8f4e28477d8f2ull},
};

/** FNV-1a of the envelope consim_run --json writes for @p cfg. */
std::uint64_t
envelopeHash(const RunConfig &cfg)
{
    // consim_run folds even a single seed through averageRunResults
    // (seeds_used lands in the envelope), so the reproduction must
    // too.
    const RunResult r = averageRunResults({runExperiment(cfg)});
    // Reproduce consim_run --json byte-exactly: two-space indent plus
    // a trailing newline.
    std::ostringstream os;
    runResultJson(cfg, r).write(os, 2);
    os << "\n";
    return fnv1a(os.str());
}

TEST(GoldenEnvelope, PaperMachineByteIdenticalAcrossDegreesAndPolicies)
{
    for (const GoldenPoint &pt : kGolden) {
        RunConfig cfg = mixConfig(Mix::byName("Mix 5"), pt.policy,
                                  sharingDegree(pt.sharing));
        cfg.seed = 42;
        cfg.warmupCycles = 200000;
        cfg.measureCycles = 200000;
        EXPECT_EQ(envelopeHash(cfg), pt.hash)
            << "sharing " << pt.sharing << ", policy "
            << toString(pt.policy)
            << ": run.v1 envelope changed on the paper's machine";
    }
}

/** Mix 5 under affinity on an @p x x @p y mesh, seed 42. */
RunConfig
shapeConfig(int x, int y, int sharing, std::vector<int> threads,
            Cycle warmup, Cycle measure)
{
    RunConfig cfg = mixConfig(Mix::byName("Mix 5"),
                              SchedPolicy::Affinity,
                              sharingDegree(sharing));
    cfg.machine.meshX = x;
    cfg.machine.meshY = y;
    if (!threads.empty())
        cfg.vmThreads = std::move(threads);
    cfg.seed = 42;
    cfg.warmupCycles = warmup;
    cfg.measureCycles = measure;
    return cfg;
}

TEST(GoldenEnvelope, ShapesBeyondThePaperGridByteIdentical)
{
    // The grid above runs every message of a 4x4 chip through the
    // flat intra-group path and the mesh. These pins hold the other
    // delivery paths and the scaled chips to the same contract:
    //  - ideal NoC: constant-latency NetDeliver events (the transport
    //    bypass, no mesh ticks);
    //  - flatIntraGroup off: core<->bank traffic crosses the mesh too;
    //  - 8x8, 96 threads: time-sliced contexts, NI handoff 4;
    //  - 16x16, 256 threads: NI handoff 8, CoreSets spilled to heap
    //    words.
    // Windows are short; the hashes were captured with the same recipe
    // before the run loop was reduced to its single serial engine.
    struct ShapePin
    {
        const char *name;
        RunConfig cfg;
        std::uint64_t hash;
    };
    RunConfig ideal = shapeConfig(4, 4, 4, {}, 50000, 50000);
    ideal.machine.idealNoc = true;
    RunConfig meshOnly = shapeConfig(4, 4, 4, {}, 50000, 50000);
    meshOnly.machine.flatIntraGroup = false;
    const ShapePin pins[] = {
        {"ideal16", ideal, 0x6fcfe8b076a8600aull},
        {"mesh-only 16", meshOnly, 0xbabf673a38010cdaull},
        {"over64", shapeConfig(8, 8, 8, {24, 24, 24, 24}, 20000, 30000),
         0xa9aec41b004dfb0cull},
        {"chip256",
         shapeConfig(16, 16, 16, {64, 64, 64, 64}, 5000, 10000),
         0x365e7b275c145467ull},
    };
    for (const ShapePin &pin : pins) {
        const std::uint64_t h = envelopeHash(pin.cfg);
        EXPECT_EQ(h, pin.hash) << pin.name
                               << ": run.v1 envelope changed (now 0x"
                               << std::hex << h << ")";
    }
}

} // namespace
} // namespace consim
