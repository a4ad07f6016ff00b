/**
 * @file
 * Tests for the cache hierarchy, memory bus and stride prefetcher.
 */

#include <gtest/gtest.h>

#include "sim/memory_hierarchy.hh"

namespace mipp {
namespace {

CacheConfig
tinyCache(uint32_t lines, uint32_t assoc, uint32_t lat)
{
    return {lines * kLineSize, assoc, lat};
}

TEST(Cache, HitAfterInsert)
{
    Cache c(tinyCache(16, 4, 1));
    EXPECT_FALSE(c.lookup(5));
    c.insert(5, false);
    EXPECT_TRUE(c.lookup(5));
    EXPECT_TRUE(c.peek(5));
}

TEST(Cache, LruEvictsOldest)
{
    // Fully-associative 4-line cache (1 set).
    Cache c(tinyCache(4, 4, 1));
    for (uint64_t line = 0; line < 4; ++line)
        EXPECT_FALSE(c.insert(line * 1, false).has_value());
    // Touch 0 so 1 becomes LRU.
    c.lookup(0);
    auto victim = c.insert(100, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 1u);
}

TEST(Cache, SetIndexingSeparatesConflicts)
{
    // 8 lines, 2-way: 4 sets; lines 0 and 4 share set 0.
    Cache c(tinyCache(8, 2, 1));
    c.insert(0, false);
    c.insert(4, false);
    c.insert(8, false); // evicts LRU of set 0 (line 0)
    EXPECT_FALSE(c.peek(0));
    EXPECT_TRUE(c.peek(4));
    EXPECT_TRUE(c.peek(8));
    EXPECT_FALSE(c.peek(1)); // other sets untouched
}

TEST(Cache, DirtyVictimReported)
{
    Cache c(tinyCache(2, 2, 1));
    c.insert(1, true);
    c.insert(2, false);
    auto victim = c.insert(3, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 1u);
    EXPECT_TRUE(victim->dirty);
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(tinyCache(8, 2, 1));
    c.insert(3, false);
    EXPECT_TRUE(c.peek(3));
    c.invalidate(3);
    EXPECT_FALSE(c.peek(3));
}

TEST(Cache, PeekDoesNotDisturbLru)
{
    Cache c(tinyCache(2, 2, 1));
    c.insert(1, false);
    c.insert(2, false); // LRU = 1
    c.peek(1);          // must NOT refresh 1
    auto victim = c.insert(3, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 1u);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
    {
        cfg = CoreConfig::nehalemReference();
        cfg.l1d = tinyCache(8, 2, 4);
        cfg.l1i = tinyCache(8, 2, 3);
        cfg.l2 = tinyCache(32, 4, 11);
        cfg.l3 = tinyCache(128, 8, 30);
        cfg.memLatency = 200;
        cfg.busTransferCycles = 8;
    }

    CoreConfig cfg;
};

TEST_F(HierarchyTest, FirstAccessIsColdMissThenL1Hit)
{
    MemoryHierarchy mem(cfg);
    auto r1 = mem.access(0x1000, 1, AccessKind::Load, 0);
    EXPECT_EQ(r1.level, HitLevel::Dram);
    EXPECT_TRUE(r1.coldMiss);
    EXPECT_GE(r1.latency, cfg.memLatency);

    auto r2 = mem.access(0x1008, 1, AccessKind::Load, 300);
    EXPECT_EQ(r2.level, HitLevel::L1);
    EXPECT_EQ(r2.latency, cfg.l1d.latency);
    EXPECT_FALSE(r2.coldMiss);
}

TEST_F(HierarchyTest, EvictedFromL1StillHitsL2)
{
    MemoryHierarchy mem(cfg);
    // L1 has 8 lines; touch 16 distinct lines, then re-touch the first.
    for (uint64_t i = 0; i < 16; ++i)
        mem.access(i * kLineSize, 1, AccessKind::Load, i * 1000);
    auto r = mem.access(0, 1, AccessKind::Load, 1000000);
    EXPECT_EQ(r.level, HitLevel::L2);
    EXPECT_EQ(r.latency, cfg.l1d.latency + cfg.l2.latency);
}

TEST_F(HierarchyTest, CapacityMissIsNotCold)
{
    MemoryHierarchy mem(cfg);
    // Touch more lines than the L3 holds, then revisit the first: it
    // must be a DRAM access but not a cold miss.
    for (uint64_t i = 0; i < 300; ++i)
        mem.access(i * kLineSize, 1, AccessKind::Load, i * 1000);
    auto r = mem.access(0, 1, AccessKind::Load, 10000000);
    EXPECT_EQ(r.level, HitLevel::Dram);
    EXPECT_FALSE(r.coldMiss);
    EXPECT_EQ(mem.stats().capacityLoadMisses, 1u);
}

TEST_F(HierarchyTest, InclusionBackInvalidatesInnerLevels)
{
    MemoryHierarchy mem(cfg);
    mem.access(0, 1, AccessKind::Load, 0);
    EXPECT_EQ(mem.peekLevel(0), HitLevel::L1);
    // Evict line 0 from L3 by filling its set with conflicting lines.
    // L3: 128 lines, 8-way -> 16 sets; conflicts are multiples of
    // 16 lines.
    for (uint64_t i = 1; i <= 8; ++i)
        mem.access(i * 16 * kLineSize, 1, AccessKind::Load, i * 1000);
    EXPECT_EQ(mem.peekLevel(0), HitLevel::Dram)
        << "line 0 must be back-invalidated everywhere";
}

TEST_F(HierarchyTest, BusQueuingDelaysConcurrentMisses)
{
    MemoryHierarchy mem(cfg);
    auto r1 = mem.access(0x100000, 1, AccessKind::Load, 0);
    auto r2 = mem.access(0x200000, 2, AccessKind::Load, 0);
    auto r3 = mem.access(0x300000, 3, AccessKind::Load, 0);
    EXPECT_LT(r1.latency, r2.latency);
    EXPECT_LT(r2.latency, r3.latency);
    EXPECT_EQ(r3.latency - r2.latency, cfg.busTransferCycles);
    EXPECT_GT(mem.stats().busWaitCycles, 0u);
}

TEST_F(HierarchyTest, StoreMissCountsSeparately)
{
    MemoryHierarchy mem(cfg);
    mem.access(0x5000, 1, AccessKind::Store, 0);
    EXPECT_EQ(mem.stats().l1d.storeMisses, 1u);
    EXPECT_EQ(mem.stats().coldStoreMisses, 1u);
    EXPECT_EQ(mem.stats().l1d.loadMisses, 0u);
}

TEST_F(HierarchyTest, IfetchUsesInstructionCache)
{
    MemoryHierarchy mem(cfg);
    mem.access(0x400000, 0x400000, AccessKind::Ifetch, 0);
    EXPECT_EQ(mem.stats().l1i.ifetchAccesses, 1u);
    EXPECT_EQ(mem.stats().l1i.ifetchMisses, 1u);
    auto r = mem.access(0x400010, 0x400010, AccessKind::Ifetch, 300);
    EXPECT_EQ(r.level, HitLevel::L1);
}

TEST_F(HierarchyTest, StridePrefetcherHidesStridedMisses)
{
    cfg.prefetcherEnabled = true;
    MemoryHierarchy mem(cfg);
    uint64_t pc = 0x400100;
    uint64_t nPrefetched = 0;
    uint64_t t = 0;
    // Stride of one line; after training, subsequent accesses should be
    // intercepted by in-flight or completed prefetches.
    for (uint64_t i = 0; i < 64; ++i) {
        auto r = mem.access(0x800000 + i * kLineSize, pc,
                            AccessKind::Load, t);
        t += 400;
        nPrefetched += r.prefetched;
    }
    EXPECT_GT(mem.stats().prefetchesIssued, 20u);
    EXPECT_GT(nPrefetched + mem.stats().prefetchHits, 20u);
}

TEST_F(HierarchyTest, PrefetcherIgnoresPageCrossingStrides)
{
    cfg.prefetcherEnabled = true;
    MemoryHierarchy mem(cfg);
    uint64_t pc = 0x400200;
    for (uint64_t i = 0; i < 32; ++i)
        mem.access(0x10000000 + i * 8192, pc, AccessKind::Load, i * 500);
    EXPECT_EQ(mem.stats().prefetchesIssued, 0u);
}

TEST_F(HierarchyTest, WritebacksHappenOnDirtyEvictions)
{
    MemoryHierarchy mem(cfg);
    // Dirty many lines, then push them all the way out of the L3.
    for (uint64_t i = 0; i < 200; ++i)
        mem.access(i * kLineSize, 1, AccessKind::Store, i * 1000);
    for (uint64_t i = 200; i < 600; ++i)
        mem.access(i * kLineSize, 1, AccessKind::Load, i * 1000);
    EXPECT_GT(mem.stats().writebacks, 0u);
}

TEST(Cache, ZeroAssociativityClampedToOneWay)
{
    // associativity == 0 used to underflow the LRU way index.
    Cache c(CacheConfig{16 * kLineSize, 0, 1});
    EXPECT_FALSE(c.lookup(7));
    c.insert(7, false);
    EXPECT_TRUE(c.peek(7));
    // Direct-mapped after the clamp: a conflicting line evicts.
    auto victim = c.insert(7 + 16, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, 7u);
}

TEST(Cache, NormalizedClampsDegenerateConfigs)
{
    CacheConfig broken{0, 0, 1};
    CacheConfig fixed = broken.normalized();
    EXPECT_EQ(fixed.associativity, 1u);
    EXPECT_GE(fixed.sizeBytes, kLineSize);
    EXPECT_GE(fixed.numSets(), 1u);
    // Already-sane configs pass through untouched.
    CacheConfig sane{32 * 1024, 8, 4};
    CacheConfig same = sane.normalized();
    EXPECT_EQ(same.sizeBytes, sane.sizeBytes);
    EXPECT_EQ(same.associativity, sane.associativity);
}

TEST(Cache, MarkDirtyReportsResidency)
{
    Cache c(tinyCache(8, 2, 1));
    EXPECT_FALSE(c.markDirty(3)) << "absent line cannot absorb dirty data";
    c.insert(3, false);
    EXPECT_TRUE(c.markDirty(3));
}

TEST(Cache, InvalidateReportsDirtyLoss)
{
    Cache c(tinyCache(8, 2, 1));
    c.insert(3, true);
    c.insert(4, false);
    EXPECT_TRUE(c.invalidate(3)) << "dirty copy was dropped";
    EXPECT_FALSE(c.invalidate(4));
    EXPECT_FALSE(c.invalidate(99));
}

TEST(Cache, ResidentLinesEnumeratesValidWays)
{
    Cache c(tinyCache(8, 2, 1));
    c.insert(1, false);
    c.insert(2, false);
    auto lines = c.residentLines();
    EXPECT_EQ(lines.size(), 2u);
}

TEST(Cache, PackedWaysKeepResidency)
{
    // One set of four ways. A way packs its line beside the valid and
    // dirty bits, so line 0 and a line with bit 57 set must neither
    // alias each other nor lose their high bits.
    const uint64_t high = (1ULL << 57) | 5;
    Cache c(tinyCache(4, 4, 1));
    c.insert(0, false);
    c.insert(high, false);
    EXPECT_TRUE(c.peek(0));
    EXPECT_TRUE(c.peek(high));
    EXPECT_FALSE(c.peek(5));
    EXPECT_FALSE(c.peek(1ULL << 57));
    EXPECT_TRUE(c.markDirty(high));

    EXPECT_FALSE(c.invalidate(0)) << "the copy of line 0 was clean";
    EXPECT_FALSE(c.peek(0));
    EXPECT_FALSE(c.markDirty(0));
    EXPECT_EQ(c.residentLines(), std::vector<uint64_t>{high});

    // The invalidated way leaves without a victim; high then leaves
    // dirty.
    EXPECT_FALSE(c.insert(1, false).has_value());
    EXPECT_FALSE(c.insert(2, false).has_value());
    EXPECT_FALSE(c.insert(3, false).has_value());
    auto victim = c.insert(4, false);
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->line, high);
    EXPECT_TRUE(victim->dirty);

    auto clean = c.insert(0, true);
    ASSERT_TRUE(clean.has_value());
    EXPECT_EQ(clean->line, 1u);
    EXPECT_FALSE(clean->dirty);
    EXPECT_TRUE(c.invalidate(0)) << "the copy of line 0 was dirty";
    EXPECT_FALSE(c.peek(0));
}

TEST_F(HierarchyTest, StatsAccessesAddUp)
{
    MemoryHierarchy mem(cfg);
    for (uint64_t i = 0; i < 50; ++i)
        mem.access(i * 32, 1, i % 3 ? AccessKind::Load : AccessKind::Store,
                   i * 10);
    const auto &s = mem.stats();
    EXPECT_EQ(s.l1d.accesses(), 50u);
    // Every L1D miss must show up as an L2 access.
    EXPECT_EQ(s.l2.loadAccesses + s.l2.storeAccesses,
              s.l1d.loadMisses + s.l1d.storeMisses);
}

/** The per-level access chain must hold with the prefetcher active: the
 *  intercept path used to count an L2 miss without ever probing the L3,
 *  and prefetch DRAM fetches went unaccounted. */
TEST_F(HierarchyTest, PrefetchPathKeepsLevelStatsConsistent)
{
    cfg.prefetcherEnabled = true;
    MemoryHierarchy mem(cfg);
    uint64_t t = 0;
    // Mix of strided streams (various gaps: installed and intercepted
    // prefetches), random loads and stores.
    for (uint64_t i = 0; i < 200; ++i) {
        mem.access(0x800000 + i * kLineSize, 0x400100, AccessKind::Load, t);
        mem.access(0x900000 + i * 2 * kLineSize, 0x400108,
                   AccessKind::Load, t + 10);
        mem.access(0xA00000 + (i * 7919 % 512) * kLineSize, 0x400110,
                   i % 4 ? AccessKind::Load : AccessKind::Store, t + 20);
        t += i % 3 ? 100 : 500;
    }
    const auto &s = mem.stats();
    ASSERT_GT(s.prefetchesIssued, 0u);
    ASSERT_GT(s.prefetchHits, 0u);
    EXPECT_EQ(s.l2.accesses(), s.l1d.misses() + s.l1i.misses());
    EXPECT_EQ(s.l3.accesses(), s.l2.misses());
    EXPECT_EQ(s.dramAccesses, s.l3.misses() + s.prefetchesIssued);
    EXPECT_EQ(s.coldLoadMisses + s.capacityLoadMisses, s.l3.loadMisses);
}

TEST_F(HierarchyTest, CompletedPrefetchesAreInstalledIntoL2)
{
    cfg.prefetcherEnabled = true;
    MemoryHierarchy mem(cfg);
    uint64_t pc = 0x400100;
    uint64_t t = 0;
    uint64_t l2PrefetchHits = 0;
    // Gaps far beyond the memory latency: every prefetch completes and
    // must be *installed*, turning the next access into a plain L2 hit.
    for (uint64_t i = 0; i < 32; ++i) {
        auto r = mem.access(0x800000 + i * kLineSize, pc,
                            AccessKind::Load, t);
        t += 1000;
        if (r.level == HitLevel::L2 && r.prefetched) {
            l2PrefetchHits++;
            EXPECT_EQ(r.latency, cfg.l1d.latency + cfg.l2.latency);
        }
    }
    EXPECT_GT(mem.stats().prefetchesInstalled, 10u);
    EXPECT_GT(l2PrefetchHits, 10u);
    EXPECT_EQ(mem.stats().prefetchHits, l2PrefetchHits);
}

TEST_F(HierarchyTest, InFlightPrefetchInterceptHidesPartOfTheLatency)
{
    cfg.prefetcherEnabled = true;
    MemoryHierarchy mem(cfg);
    uint64_t pc = 0x400100;
    uint64_t t = 0;
    uint64_t intercepts = 0;
    // Gaps shorter than the memory latency: prefetches are still in
    // flight when the demand access arrives.
    for (uint64_t i = 0; i < 32; ++i) {
        auto r = mem.access(0x800000 + i * kLineSize, pc,
                            AccessKind::Load, t);
        t += 100;
        if (r.prefetched && r.latency > cfg.l1d.latency + cfg.l2.latency) {
            intercepts++;
            // Partially hidden, but never worse than a full miss.
            EXPECT_LE(r.latency,
                      cfg.l1d.latency + cfg.memLatency +
                          10 * cfg.busTransferCycles);
        }
    }
    EXPECT_GT(intercepts, 10u);
}

TEST_F(HierarchyTest, PrefetcherSkipsResidentTargets)
{
    cfg.prefetcherEnabled = true;
    MemoryHierarchy mem(cfg);
    uint64_t pc = 0x400100;
    // Warm the would-be prefetch target into the hierarchy (incl. L1D).
    mem.access(0x900000 + 3 * kLineSize, 1, AccessKind::Load, 0);
    // Train a stride whose next target is exactly that resident line:
    // confidence is reached on the third access, and the target must be
    // recognized as resident and skipped.
    mem.access(0x900000, pc, AccessKind::Load, 1000);
    mem.access(0x900000 + kLineSize, pc, AccessKind::Load, 1500);
    mem.access(0x900000 + 2 * kLineSize, pc, AccessKind::Load, 2000);
    EXPECT_EQ(mem.stats().prefetchesIssued, 0u);
}

TEST_F(HierarchyTest, ZeroEntryPrefetcherIsInert)
{
    // prefetcherEntries == 0 used to erase(end()) on the first trained
    // miss (the stride table's LRU scan over an empty map).
    cfg.prefetcherEnabled = true;
    cfg.prefetcherEntries = 0;
    MemoryHierarchy mem(cfg);
    for (uint64_t i = 0; i < 16; ++i)
        mem.access(0x800000 + i * kLineSize, 0x400100, AccessKind::Load,
                   i * 400);
    EXPECT_EQ(mem.stats().prefetchesIssued, 0u);
}

/** Inclusion: after arbitrary demand + prefetch traffic, every line
 *  resident in an inner cache is resident in the L3. */
TEST_F(HierarchyTest, InclusionInvariantHoldsUnderArbitraryTraffic)
{
    cfg.prefetcherEnabled = true;
    MemoryHierarchy mem(cfg);
    uint64_t t = 0;
    for (uint64_t i = 0; i < 500; ++i) {
        AccessKind kind = i % 5 == 0 ? AccessKind::Store :
                          i % 7 == 0 ? AccessKind::Ifetch :
                                       AccessKind::Load;
        uint64_t addr = i % 2 ? 0x800000 + i * kLineSize
                              : 0xC00000 + (i * 31 % 200) * kLineSize;
        mem.access(addr, 0x400000 + (i % 16) * 8, kind, t);
        t += 50 + (i % 9) * 100;
    }
    for (uint64_t line : mem.l1d().residentLines())
        EXPECT_TRUE(mem.l3().peek(line)) << "L1D line " << line;
    for (uint64_t line : mem.l1i().residentLines())
        EXPECT_TRUE(mem.l3().peek(line)) << "L1I line " << line;
    for (uint64_t line : mem.l2().residentLines())
        EXPECT_TRUE(mem.l3().peek(line)) << "L2 line " << line;
}

/** A dirty L1 victim whose line was meanwhile evicted from the L2 must
 *  land in the L3 (and eventually write back), not vanish. */
TEST(HierarchyWriteback, DirtyL1VictimSurvivesL2Eviction)
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    cfg.l1d = tinyCache(64, 2, 4);   // 32 sets
    cfg.l1i = tinyCache(64, 2, 3);
    cfg.l2 = tinyCache(16, 4, 11);   // 4 sets: easy to conflict
    cfg.l3 = tinyCache(128, 8, 30);  // 16 sets: X stays resident
    MemoryHierarchy mem(cfg);

    // Dirty line 0 (L1D set 0, L2 set 0, L3 set 0).
    mem.access(0, 1, AccessKind::Store, 0);
    // Evict line 0 from the L2 only: lines 4/8/12/16 share L2 set 0 but
    // land in different L1D sets, and spread over L3 sets.
    for (uint64_t l : {4, 8, 12, 16})
        mem.access(l * kLineSize, 1, AccessKind::Load, 1000 * l);
    ASSERT_FALSE(mem.l2().peek(0));
    ASSERT_TRUE(mem.l1d().peek(0));
    ASSERT_TRUE(mem.l3().peek(0));

    // Evict line 0 from L1D (lines 32 and 64 share L1D set 0): its
    // dirty data must fall back into the L3.
    mem.access(32 * kLineSize, 1, AccessKind::Load, 100000);
    mem.access(64 * kLineSize, 1, AccessKind::Load, 101000);
    ASSERT_FALSE(mem.l1d().peek(0));
    uint64_t before = mem.stats().writebacks;

    // Push line 0 out of the L3: the writeback must happen now.
    for (uint64_t l : {80, 96, 112, 128, 144, 160, 176, 192, 208})
        mem.access(l * kLineSize, 1, AccessKind::Load, 200000 + l * 1000);
    ASSERT_FALSE(mem.l3().peek(0));
    EXPECT_GT(mem.stats().writebacks, before)
        << "dirty line 0 was silently dropped";
}

/** Back-invalidating an inner dirty copy on an L3 eviction must write
 *  the data back, not drop it. */
TEST(HierarchyWriteback, BackInvalidationWritesBackDirtyInnerCopy)
{
    CoreConfig cfg = CoreConfig::nehalemReference();
    cfg.l1d = tinyCache(64, 2, 4);  // 32 sets
    cfg.l1i = tinyCache(64, 2, 3);
    cfg.l2 = tinyCache(256, 8, 11); // large: no interference
    cfg.l3 = tinyCache(16, 4, 30);  // 4 sets: easy to conflict
    MemoryHierarchy mem(cfg);

    // Dirty line 0 in L1D only (L2/L3 copies stay clean).
    mem.access(0, 1, AccessKind::Store, 0);
    ASSERT_EQ(mem.stats().writebacks, 0u);

    // Evict line 0 from the L3: lines 4/8/12/16 share L3 set 0, but
    // none of them evicts line 0 from L1D (different L1D sets).
    for (uint64_t l : {4, 8, 12, 16})
        mem.access(l * kLineSize, 1, AccessKind::Load, 1000 * l);

    EXPECT_FALSE(mem.l3().peek(0));
    EXPECT_FALSE(mem.l1d().peek(0)) << "inclusion requires invalidation";
    EXPECT_GE(mem.stats().writebacks, 1u)
        << "dirty L1D copy dropped on back-invalidation";
}

} // namespace
} // namespace mipp
