/**
 * @file
 * Memory-system tests: sparse main memory, the cache timing model
 * (hits, misses, non-blocking fill merges, LRU, no-write-allocate),
 * and the BTB.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "ckpt/serial.hh"
#include "mem/cache.hh"
#include "mem/memory.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace elag;
using namespace elag::mem;

TEST(MainMemory, ZeroInitialized)
{
    MainMemory mem(1 << 20);
    EXPECT_EQ(mem.readWord(0x1234), 0u);
    EXPECT_EQ(mem.readByte(0xffff), 0);
    EXPECT_EQ(mem.allocatedPages(), 0u); // reads allocate nothing
}

TEST(MainMemory, ByteAndWordRoundTrip)
{
    MainMemory mem(1 << 20);
    mem.writeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(mem.readWord(0x100), 0xdeadbeefu);
    // Little-endian byte order.
    EXPECT_EQ(mem.readByte(0x100), 0xef);
    EXPECT_EQ(mem.readByte(0x103), 0xde);
    mem.writeByte(0x101, 0x00);
    EXPECT_EQ(mem.readWord(0x100), 0xdead00efu);
}

TEST(MainMemory, CrossPageWordAccess)
{
    MainMemory mem(1 << 20);
    uint32_t addr = 4096 - 2; // straddles a page boundary
    mem.writeWord(addr, 0x11223344);
    EXPECT_EQ(mem.readWord(addr), 0x11223344u);
}

TEST(MainMemory, OutOfRangeFaults)
{
    MainMemory mem(4096);
    EXPECT_THROW(mem.readWord(4094), FatalError);
    EXPECT_THROW(mem.writeByte(4096, 1), FatalError);
    EXPECT_NO_THROW(mem.readByte(4095));
}

TEST(MainMemory, WriteBlock)
{
    MainMemory mem(1 << 16);
    mem.writeBlock(10, {1, 2, 3});
    EXPECT_EQ(mem.readByte(10), 1);
    EXPECT_EQ(mem.readByte(12), 3);
}

TEST(Cache, HitAfterFill)
{
    Cache cache(CacheConfig{});
    auto miss = cache.access(0x1000, 100);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.readyCycle, 112u); // 12-cycle miss penalty
    // After the fill completes the block hits.
    auto hit = cache.access(0x1000, 113);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.readyCycle, 113u);
    // Same block, different word: also a hit (64B block).
    EXPECT_TRUE(cache.access(0x103c, 114).hit);
    // Next block: miss.
    EXPECT_FALSE(cache.access(0x1040, 115).hit);
}

TEST(Cache, FillInFlightMerges)
{
    Cache cache(CacheConfig{});
    auto miss = cache.access(0x2000, 50);
    ASSERT_FALSE(miss.hit);
    // A second access before the fill completes merges with it.
    auto merge = cache.access(0x2004, 55);
    EXPECT_FALSE(merge.hit);
    EXPECT_TRUE(merge.mergedWithFill);
    EXPECT_EQ(merge.readyCycle, miss.readyCycle);
    EXPECT_EQ(cache.fillMerges(), 1u);
}

TEST(Cache, DirectMappedConflict)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;
    cfg.blockSize = 64;
    cfg.assoc = 1; // 16 sets
    Cache cache(cfg);
    cache.access(0, 10);
    EXPECT_TRUE(cache.access(0, 30).hit);
    // 1024 bytes away: same set, different tag -> evicts.
    cache.access(1024, 40);
    EXPECT_FALSE(cache.access(0, 60).hit);
}

TEST(Cache, TwoWayAvoidsPingPong)
{
    CacheConfig cfg;
    cfg.sizeBytes = 2048;
    cfg.blockSize = 64;
    cfg.assoc = 2;
    Cache cache(cfg);
    cache.access(0, 10);
    cache.access(2048, 20); // same set, second way
    EXPECT_TRUE(cache.access(0, 40).hit);
    EXPECT_TRUE(cache.access(2048, 41).hit);
    // Third conflicting block evicts the LRU (block 0 was touched
    // at 40, block 2048 at 41 -> 0 is LRU... touch 0 again first).
    cache.access(0, 42);
    cache.access(4096, 50);
    EXPECT_TRUE(cache.access(0, 60).hit);
    EXPECT_FALSE(cache.access(2048, 61).hit);
}

TEST(Cache, NoAllocateLeavesCacheCold)
{
    Cache cache(CacheConfig{});
    cache.access(0x3000, 10, /*allocate_on_miss=*/false);
    EXPECT_FALSE(cache.wouldHit(0x3000, 100));
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, StatsAndReset)
{
    Cache cache(CacheConfig{});
    cache.access(0, 1);
    cache.access(0, 20);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_FALSE(cache.access(0, 1).hit);
}

// Property: a large cache warmed with N distinct blocks hits on all
// of them when re-accessed (no false conflicts).
TEST(Cache, WarmedWorkingSetAllHitsProperty)
{
    Cache cache(CacheConfig{64 * 1024, 64, 1, 12, true});
    Pcg32 rng(9);
    std::vector<uint32_t> blocks;
    for (int i = 0; i < 256; ++i)
        blocks.push_back(static_cast<uint32_t>(i) * 64);
    for (uint32_t addr : blocks)
        cache.access(addr, 1);
    for (uint32_t addr : blocks)
        EXPECT_TRUE(cache.access(addr, 1000).hit) << addr;
}

// ---------------------------------------------------------------
// The inline most-recent-block hit against a reference model.
// ---------------------------------------------------------------

namespace {

/**
 * The cache timing model written out plainly: every access searches
 * its set, with no most-recent-block shortcut. Serializes in Cache's
 * checkpoint layout so the two can be compared byte for byte.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheConfig &cfg)
        : cfg_(cfg), sets_(cfg.sizeBytes / (cfg.blockSize * cfg.assoc)),
          lines_(static_cast<size_t>(sets_) * cfg.assoc)
    {}

    CacheAccessResult
    access(uint32_t addr, uint64_t cycle, bool allocate,
           uint32_t extra_penalty)
    {
        uint32_t block = addr / cfg_.blockSize;
        uint32_t set = block % sets_;
        uint32_t tag = block / sets_;
        Line *ways = &lines_[static_cast<size_t>(set) * cfg_.assoc];
        CacheAccessResult r;
        for (uint32_t w = 0; w < cfg_.assoc; ++w) {
            Line &line = ways[w];
            if (!line.valid || line.tag != tag)
                continue;
            line.lastUsed = cycle;
            if (line.fillDone <= cycle) {
                ++hits;
                r.hit = true;
                r.readyCycle = cycle;
            } else {
                ++merges;
                r.mergedWithFill = true;
                r.readyCycle = line.fillDone;
            }
            return r;
        }
        ++misses;
        r.readyCycle = cycle + cfg_.missPenalty + extra_penalty;
        if (allocate) {
            // The first invalid way, else the first least recently
            // used one.
            Line *victim = nullptr;
            for (uint32_t w = 0; w < cfg_.assoc && !victim; ++w) {
                if (!ways[w].valid)
                    victim = &ways[w];
            }
            if (!victim) {
                victim = &ways[0];
                for (uint32_t w = 1; w < cfg_.assoc; ++w) {
                    if (ways[w].lastUsed < victim->lastUsed)
                        victim = &ways[w];
                }
            }
            *victim = {true, tag, cycle, r.readyCycle};
        }
        return r;
    }

    std::string
    serialized() const
    {
        ckpt::Writer w;
        w.varint(lines_.size());
        for (const Line &line : lines_) {
            w.b(line.valid);
            w.varint(line.tag);
            w.varint(line.lastUsed);
            w.varint(line.fillDone);
        }
        w.varint(hits);
        w.varint(misses);
        w.varint(merges);
        return w.data();
    }

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t merges = 0;

  private:
    struct Line
    {
        bool valid = false;
        uint32_t tag = 0;
        uint64_t lastUsed = 0;
        uint64_t fillDone = 0;
    };

    CacheConfig cfg_;
    uint32_t sets_;
    std::vector<Line> lines_;
};

std::string
serialized(const Cache &cache)
{
    ckpt::Writer w;
    cache.serialize(w);
    return w.data();
}

/** One timed access of a generated sequence. */
struct Access
{
    uint32_t addr;
    uint64_t cycle;
    bool allocate;
    uint32_t extraPenalty;
};

/**
 * I$-shaped: sequential fetch (16 instructions share a 64-byte
 * block) with occasional jumps back into a small loop body or far
 * away, one or two fetches per cycle, stalls of a miss penalty.
 */
std::vector<Access>
fetchSequence(uint64_t seed, size_t n)
{
    Pcg32 rng(seed);
    std::vector<Access> seq;
    uint32_t pc = 0;
    uint64_t cycle = 1;
    for (size_t i = 0; i < n; ++i) {
        seq.push_back({pc * 4, cycle, true, 0});
        uint32_t roll = rng.nextBounded(100);
        if (roll < 4)
            pc = rng.nextBounded(64); // back into the loop body
        else if (roll < 6)
            pc = rng.nextBounded(1u << 16); // a far call
        else
            ++pc;
        cycle += rng.nextBounded(3) == 0 ? 1 : 0;
        if (rng.nextBounded(50) == 0)
            cycle += 12;
    }
    return seq;
}

/**
 * D$-shaped: strided walks and repeated blocks over a small working
 * set, cycles that step back by up to three (speculative accesses at
 * ID1/ID2 after a MEM access), no-allocate stores, and fill jitter.
 */
std::vector<Access>
dataSequence(uint64_t seed, size_t n)
{
    Pcg32 rng(seed);
    std::vector<Access> seq;
    uint64_t cycle = 10;
    uint32_t walk = 0x1000;
    for (size_t i = 0; i < n; ++i) {
        uint32_t addr;
        uint32_t roll = rng.nextBounded(10);
        if (roll < 4) {
            walk += 4 * (1 + rng.nextBounded(4));
            addr = walk;
        } else if (roll < 7) {
            addr = (i > 0 && rng.nextBool()) ? seq.back().addr
                                             : walk - 64;
        } else {
            addr = rng.nextBounded(1u << 18) & ~3u;
        }
        uint64_t at = cycle >= 3 ? cycle - rng.nextBounded(4) : cycle;
        bool allocate = rng.nextBounded(5) != 0;
        uint32_t jitter =
            rng.nextBounded(8) == 0 ? rng.nextBounded(20) : 0;
        seq.push_back({addr, at, allocate, jitter});
        cycle += rng.nextBounded(3);
    }
    return seq;
}

/** Replay @p seq into a Cache and the reference; both must agree. */
void
expectMatchesReference(const CacheConfig &cfg,
                       const std::vector<Access> &seq)
{
    Cache cache(cfg);
    ReferenceCache ref(cfg);
    std::optional<Cache> copy;
    for (size_t i = 0; i < seq.size(); ++i) {
        const Access &a = seq[i];
        CacheAccessResult got =
            cache.access(a.addr, a.cycle, a.allocate, a.extraPenalty);
        CacheAccessResult want =
            ref.access(a.addr, a.cycle, a.allocate, a.extraPenalty);
        ASSERT_EQ(got.hit, want.hit) << "access " << i;
        ASSERT_EQ(got.readyCycle, want.readyCycle) << "access " << i;
        ASSERT_EQ(got.mergedWithFill, want.mergedWithFill)
            << "access " << i;
        if (copy) {
            CacheAccessResult c =
                copy->access(a.addr, a.cycle, a.allocate, a.extraPenalty);
            ASSERT_EQ(c.hit, want.hit) << "copy, access " << i;
            ASSERT_EQ(c.readyCycle, want.readyCycle)
                << "copy, access " << i;
        }
        // Copy mid-sequence, right after a hit, when the remembered
        // block is set: the copy must answer like the original.
        if (!copy && i >= seq.size() / 2 && got.hit)
            copy.emplace(cache);
    }
    EXPECT_EQ(cache.hits(), ref.hits);
    EXPECT_EQ(cache.misses(), ref.misses);
    EXPECT_EQ(cache.fillMerges(), ref.merges);
    EXPECT_EQ(serialized(cache), ref.serialized());
    ASSERT_TRUE(copy.has_value());
    EXPECT_EQ(serialized(*copy), ref.serialized());
}

CacheConfig
geometry(uint32_t size, uint32_t block, uint32_t assoc)
{
    CacheConfig cfg;
    cfg.sizeBytes = size;
    cfg.blockSize = block;
    cfg.assoc = assoc;
    return cfg;
}

} // namespace

TEST(CacheFastPath, FetchSequencesMatchReference)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        auto seq = fetchSequence(seed, 20000);
        expectMatchesReference(geometry(64 * 1024, 64, 1), seq);
        expectMatchesReference(geometry(1024, 64, 1), seq);
        expectMatchesReference(geometry(2048, 64, 4), seq);
    }
}

TEST(CacheFastPath, DataSequencesMatchReference)
{
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(seed);
        auto seq = dataSequence(seed, 20000);
        expectMatchesReference(geometry(64 * 1024, 64, 1), seq);
        expectMatchesReference(geometry(4096, 32, 2), seq);
        expectMatchesReference(geometry(1024, 64, 4), seq);
        // Non-power-of-two set count and block size: the division
        // path of the block/set/tag split.
        expectMatchesReference(geometry(3 * 64 * 2, 64, 2), seq);
        expectMatchesReference(geometry(5 * 48, 48, 1), seq);
    }
}

TEST(CacheFastPath, RestoreAndResetForgetTheRecentBlock)
{
    // 1 KB direct-mapped: 0x0 and 0x400 share line 0.
    CacheConfig cfg = geometry(1024, 64, 1);
    Cache snapped(cfg);
    snapped.access(0x0, 1);
    snapped.access(0x400, 20); // evicts 0x0: line 0 holds 0x400
    ckpt::Writer w;
    snapped.serialize(w);

    // This cache last hit 0x0 in line 0; after restoring the snapshot
    // line 0 holds 0x400, so 0x0 must miss, not hit inline.
    Cache restored(cfg);
    restored.access(0x0, 1);
    ASSERT_TRUE(restored.access(0x0, 30).hit);
    ckpt::Reader r(w.data().data(), w.size());
    restored.restore(r);
    EXPECT_FALSE(restored.access(0x0, 100).hit);
    EXPECT_FALSE(snapped.access(0x0, 100).hit);
    EXPECT_EQ(serialized(restored), serialized(snapped));

    // reset() invalidates every line, the remembered one included.
    ASSERT_TRUE(restored.access(0x0, 200).hit);
    restored.reset();
    EXPECT_FALSE(restored.access(0x0, 300).hit);
    EXPECT_EQ(restored.hits(), 0u);
    EXPECT_EQ(restored.misses(), 1u);

    // A restored cache continues a long sequence exactly like the
    // cache it was snapshotted from.
    auto seq = dataSequence(11, 4000);
    Cache cache(cfg);
    for (size_t i = 0; i < seq.size() / 2; ++i) {
        const Access &a = seq[i];
        cache.access(a.addr, a.cycle, a.allocate, a.extraPenalty);
    }
    ckpt::Writer mid;
    cache.serialize(mid);
    Cache resumed(cfg);
    ckpt::Reader mr(mid.data().data(), mid.size());
    resumed.restore(mr);
    for (size_t i = seq.size() / 2; i < seq.size(); ++i) {
        const Access &a = seq[i];
        CacheAccessResult want =
            cache.access(a.addr, a.cycle, a.allocate, a.extraPenalty);
        CacheAccessResult got =
            resumed.access(a.addr, a.cycle, a.allocate, a.extraPenalty);
        ASSERT_EQ(got.hit, want.hit) << i;
        ASSERT_EQ(got.readyCycle, want.readyCycle) << i;
    }
    EXPECT_EQ(serialized(resumed), serialized(cache));
}

TEST(Btb, ColdMissThenAllocatesOnTaken)
{
    Btb btb(1024);
    auto pred = btb.predict(100);
    EXPECT_FALSE(pred.hit);
    btb.update(100, false, 0); // not-taken branches do not allocate
    EXPECT_FALSE(btb.predict(100).hit);
    btb.update(100, true, 200);
    pred = btb.predict(100);
    EXPECT_TRUE(pred.hit);
    EXPECT_TRUE(pred.taken);
    EXPECT_EQ(pred.target, 200u);
}

TEST(Btb, TwoBitHysteresis)
{
    Btb btb(1024);
    btb.update(5, true, 50); // counter = 2
    btb.update(5, true, 50); // counter = 3
    btb.update(5, false, 0); // counter = 2, still predicts taken
    EXPECT_TRUE(btb.predict(5).taken);
    btb.update(5, false, 0); // counter = 1 -> not taken
    EXPECT_FALSE(btb.predict(5).taken);
    btb.update(5, true, 50); // counter = 2 -> taken again
    EXPECT_TRUE(btb.predict(5).taken);
}

TEST(Btb, TagPreventsAliasHit)
{
    Btb btb(16);
    btb.update(3, true, 30);
    // pc 19 maps to the same entry but has a different tag.
    EXPECT_FALSE(btb.predict(19).hit);
    btb.update(19, true, 90); // replaces
    EXPECT_FALSE(btb.predict(3).hit);
    EXPECT_EQ(btb.predict(19).target, 90u);
}

TEST(Btb, TargetUpdatesOnTaken)
{
    Btb btb(64);
    btb.update(7, true, 100);
    btb.update(7, true, 140); // indirect branch changed target
    EXPECT_EQ(btb.predict(7).target, 140u);
}
