#include "sim/memory_hierarchy.hh"

#include <algorithm>
#include <cassert>

namespace mipp {

namespace {

/** Min-heap order for (ready cycle, line) prefetch entries. */
bool
heapLater(const std::pair<uint64_t, uint64_t> &a,
          const std::pair<uint64_t, uint64_t> &b)
{
    return a.first > b.first;
}

} // namespace

// --- Cache -------------------------------------------------------------------

Cache::Cache(const CacheConfig &cfg)
    : cfg_(cfg.normalized()),
      numSets_(std::max<uint32_t>(cfg_.numSets(), 1)),
      ways_(cfg_.associativity)
{
    sets_.resize(numSets_ * ways_);
}

size_t
Cache::find(const Way *set, uint64_t line) const
{
    size_t i = 0;
    while (i < ways_ && !holds(set[i], line))
        ++i;
    return i;
}

bool
Cache::lookup(uint64_t line)
{
    Way *set = &sets_[setIndex(line) * ways_];
    size_t i = find(set, line);
    if (i == ways_)
        return false;
    // Move to MRU position.
    std::rotate(set, set + i, set + i + 1);
    return true;
}

bool
Cache::peek(uint64_t line) const
{
    return find(&sets_[setIndex(line) * ways_], line) != ways_;
}

std::optional<Cache::Victim>
Cache::insert(uint64_t line, bool dirty)
{
    Way *set = &sets_[setIndex(line) * ways_];
    // Already resident: refresh.
    if (size_t i = find(set, line); i != ways_) {
        set[i] |= dirty ? kDirty : 0;
        std::rotate(set, set + i, set + i + 1);
        return std::nullopt;
    }
    std::optional<Victim> victim;
    Way lru = set[ways_ - 1];
    if (lru & kValid)
        victim = Victim{lru >> 2, (lru & kDirty) != 0};
    std::rotate(set, set + ways_ - 1, set + ways_);
    set[0] = line << 2 | (dirty ? kDirty : 0) | kValid;
    return victim;
}

bool
Cache::markDirty(uint64_t line)
{
    Way *set = &sets_[setIndex(line) * ways_];
    size_t i = find(set, line);
    if (i == ways_)
        return false;
    set[i] |= kDirty;
    return true;
}

bool
Cache::invalidate(uint64_t line)
{
    Way *set = &sets_[setIndex(line) * ways_];
    size_t i = find(set, line);
    if (i == ways_)
        return false;
    set[i] &= ~kValid;
    return (set[i] & kDirty) != 0;
}

std::vector<uint64_t>
Cache::residentLines() const
{
    std::vector<uint64_t> lines;
    for (Way w : sets_)
        if (w & kValid)
            lines.push_back(w >> 2);
    return lines;
}

// --- MemoryHierarchy -----------------------------------------------------------

MemoryHierarchy::MemoryHierarchy(const CoreConfig &cfg)
    : cfg_(cfg), l1i_(cfg.l1i), l1d_(cfg.l1d), l2_(cfg.l2), l3_(cfg.l3)
{
}

uint32_t
MemoryHierarchy::busCycles(uint64_t now)
{
    uint64_t wait = busFreeAt_ > now ? busFreeAt_ - now : 0;
    busFreeAt_ = std::max(busFreeAt_, now) + cfg_.busTransferCycles;
    stats_.busWaitCycles += wait;
    return static_cast<uint32_t>(wait) + cfg_.busTransferCycles;
}

void
MemoryHierarchy::insertL2(uint64_t line)
{
    if (auto v = l2_.insert(line, false)) {
        if (v->dirty && !l3_.markDirty(v->line)) {
            // L2 victim absent from L3 (inclusion normally prevents
            // this): never drop dirty data silently.
            stats_.writebacks++;
            busFreeAt_ += cfg_.busTransferCycles;
        }
    }
}

void
MemoryHierarchy::fillShared(uint64_t line)
{
    // Inclusive fills: L3 evictions back-invalidate the inner levels; a
    // dirty copy at ANY level writes back (the inner copy is the newest
    // data — dropping it on back-invalidation would lose stores).
    if (auto v = l3_.insert(line, false)) {
        bool dirty = v->dirty;
        dirty |= l2_.invalidate(v->line);
        dirty |= l1d_.invalidate(v->line);
        dirty |= l1i_.invalidate(v->line);
        if (dirty) {
            stats_.writebacks++;
            busFreeAt_ += cfg_.busTransferCycles;
        }
        // The victim left the hierarchy entirely: a later demand hit on
        // it can only follow a fresh demand fill, which the prefetcher
        // gets no credit for.
        prefetchedLines_.erase(v->line);
    }
    insertL2(line);
}

void
MemoryHierarchy::writebackInner(uint64_t line)
{
    // A dirty L1 victim lands in L2; L2 may have evicted the line while
    // it sat in L1 (L2 victims do not back-invalidate L1), so fall back
    // to L3, then to an off-chip writeback.
    if (l2_.markDirty(line))
        return;
    if (l3_.markDirty(line))
        return;
    stats_.writebacks++;
    busFreeAt_ += cfg_.busTransferCycles;
}

void
MemoryHierarchy::fill(uint64_t line, bool dirty, bool ifetch)
{
    fillShared(line);
    Cache &l1 = ifetch ? l1i_ : l1d_;
    if (auto v = l1.insert(line, dirty)) {
        if (v->dirty)
            writebackInner(v->line);
    }
}

void
MemoryHierarchy::drainPrefetches(uint64_t now)
{
    while (!prefetchHeap_.empty() && prefetchHeap_.front().first <= now) {
        auto [ready, line] = prefetchHeap_.front();
        std::pop_heap(prefetchHeap_.begin(), prefetchHeap_.end(),
                      heapLater);
        prefetchHeap_.pop_back();
        auto it = inFlight_.find(line);
        if (it == inFlight_.end() || it->second != ready)
            continue; // stale: intercepted by a demand access
        inFlight_.erase(it);
        fillShared(line);
        // L3-resident from here until fillShared's eviction hook erases
        // it, so the set is bounded by the L3 capacity.
        prefetchedLines_.insert(line);
        stats_.prefetchesInstalled++;
    }
}

void
MemoryHierarchy::train(uint64_t pc, uint64_t addr, uint64_t now)
{
    if (!cfg_.prefetcherEnabled || cfg_.prefetcherEntries == 0)
        return;

    auto it = strideTable_.find(pc);
    if (it == strideTable_.end()) {
        // Limited table: evict the least recently used entry.
        if (strideTable_.size() >= cfg_.prefetcherEntries) {
            auto victim = strideTable_.begin();
            for (auto jt = strideTable_.begin(); jt != strideTable_.end();
                 ++jt) {
                if (jt->second.lastUse < victim->second.lastUse)
                    victim = jt;
            }
            strideTable_.erase(victim);
        }
        strideTable_[pc] = {addr, 0, 0, now};
        return;
    }

    StrideEntry &e = it->second;
    int64_t stride = static_cast<int64_t>(addr) -
                     static_cast<int64_t>(e.lastAddr);
    if (stride != 0 && stride == e.stride) {
        e.confidence = std::min(e.confidence + 1, 3);
    } else {
        e.stride = stride;
        e.confidence = 0;
    }
    e.lastAddr = addr;
    e.lastUse = now;

    if (e.confidence >= 1 && e.stride != 0) {
        // Prefetchers do not cross DRAM pages (thesis §4.9): strides of a
        // page or more always land on another page and are not prefetched.
        if (e.stride >= 4096 || e.stride <= -4096)
            return;
        uint64_t next = addr + e.stride;
        uint64_t nline = next / kLineSize;
        // Sub-line strides often target the line the demand access is
        // already fetching; prefetching it again is pure waste.
        if (nline == addr / kLineSize)
            return;
        if (!l1d_.peek(nline) && !l2_.peek(nline) && !l3_.peek(nline) &&
            !inFlight_.count(nline)) {
            uint32_t lat = cfg_.memLatency + busCycles(now);
            inFlight_[nline] = now + lat;
            prefetchHeap_.push_back({now + lat, nline});
            std::push_heap(prefetchHeap_.begin(), prefetchHeap_.end(),
                           heapLater);
            // The prefetch fetches from DRAM (issue requires the line to
            // be absent everywhere): account the off-chip traffic to the
            // prefetcher so power-model activity sees it, and mark the
            // line touched so a later demand miss is not misclassified
            // as cold.
            stats_.dramAccesses++;
            touched_.insert(nline);
            stats_.prefetchesIssued++;
        }
    }
}

HitLevel
MemoryHierarchy::peekLevel(uint64_t addr) const
{
    uint64_t line = addr / kLineSize;
    if (l1d_.peek(line))
        return HitLevel::L1;
    if (l2_.peek(line))
        return HitLevel::L2;
    if (l3_.peek(line))
        return HitLevel::L3;
    return HitLevel::Dram;
}

AccessResult
MemoryHierarchy::access(uint64_t addr, uint64_t pc, AccessKind kind,
                        uint64_t now)
{
    // Completed prefetches land in L2/L3 before the demand lookup, so a
    // timely prefetch turns this access into an ordinary L2 hit.
    drainPrefetches(now);

    uint64_t line = addr / kLineSize;
    AccessResult res;
    const bool is_store = kind == AccessKind::Store;
    const bool is_ifetch = kind == AccessKind::Ifetch;

    Cache &l1 = is_ifetch ? l1i_ : l1d_;
    LevelStats &l1s = is_ifetch ? stats_.l1i : stats_.l1d;

    auto count = [&](LevelStats &s, bool miss) {
        if (is_ifetch) {
            s.ifetchAccesses++;
            s.ifetchMisses += miss;
        } else if (is_store) {
            s.storeAccesses++;
            s.storeMisses += miss;
        } else {
            s.loadAccesses++;
            s.loadMisses += miss;
        }
    };

    bool l1_hit = l1.lookup(line);
    count(l1s, !l1_hit);
    if (l1_hit) {
        if (is_store)
            l1.markDirty(line);
        res.latency = l1.config().latency;
        res.level = HitLevel::L1;
        return res;
    }

    // Train the prefetcher on L1D demand misses.
    if (!is_ifetch)
        train(pc, addr, now);

    auto fill_l1 = [&]() {
        if (auto v = l1.insert(line, is_store && !is_ifetch)) {
            if (v->dirty)
                writebackInner(v->line);
        }
    };

    bool l2_hit = l2_.lookup(line);
    if (l2_hit) {
        count(stats_.l2, false);
        if (prefetchedLines_.erase(line)) {
            // First demand use of an installed prefetch.
            stats_.prefetchHits++;
            res.prefetched = true;
        }
        res.latency = l1.config().latency + l2_.config().latency;
        res.level = HitLevel::L2;
        fill_l1();
        return res;
    }

    // In-flight prefetch interception: the demand request merges with the
    // prefetch's outstanding fill, so it counts as an L2 *hit* (the L3 is
    // never probed, and the DRAM traffic was already accounted to the
    // prefetch at issue). Latency is partially or fully hidden.
    if (auto it = inFlight_.find(line); it != inFlight_.end()) {
        count(stats_.l2, false);
        uint64_t ready = it->second;
        inFlight_.erase(it); // heap entry goes stale; skipped on pop
        fill(line, is_store && !is_ifetch, is_ifetch);
        stats_.prefetchHits++;
        res.prefetched = true;
        res.level = HitLevel::L2;
        uint64_t remaining = ready > now ? ready - now : 0;
        res.latency = l1.config().latency +
                      std::max<uint64_t>(l2_.config().latency, remaining);
        return res;
    }
    count(stats_.l2, true);

    bool l3_hit = l3_.lookup(line);
    count(stats_.l3, !l3_hit);
    if (l3_hit) {
        if (prefetchedLines_.erase(line)) {
            // Prefetched into L2/L3, evicted from L2 before first use,
            // still served from the L3 thanks to the prefetch.
            stats_.prefetchHits++;
            res.prefetched = true;
        }
        res.latency = l1.config().latency + l3_.config().latency;
        res.level = HitLevel::L3;
        insertL2(line);
        fill_l1();
        return res;
    }

    // DRAM access.
    stats_.dramAccesses++;
    res.level = HitLevel::Dram;
    res.coldMiss = touched_.insert(line).second;
    if (!is_ifetch) {
        if (is_store) {
            stats_.coldStoreMisses += res.coldMiss;
            stats_.capacityStoreMisses += !res.coldMiss;
        } else {
            stats_.coldLoadMisses += res.coldMiss;
            stats_.capacityLoadMisses += !res.coldMiss;
        }
    }
    res.latency = l1.config().latency + cfg_.memLatency + busCycles(now);
    fill(line, is_store && !is_ifetch, is_ifetch);
    return res;
}

} // namespace mipp
