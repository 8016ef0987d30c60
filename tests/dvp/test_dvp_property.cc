/**
 * @file
 * Property tests run against every DeadValuePool implementation via a
 * parameterized fixture, plus a randomized differential test against
 * a reference model of pool semantics.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>

#include "dvp/lx_dvp.hh"
#include "dvp/mq_dvp.hh"
#include "util/random.hh"

namespace zombie
{
namespace
{

Fingerprint
fp(std::uint64_t id)
{
    return Fingerprint::fromValueId(id);
}

using PoolFactory = std::function<std::unique_ptr<DeadValuePool>()>;

struct PoolCase
{
    std::string label;
    PoolFactory make;
    bool bounded;
    bool content_keyed;
};

// Without this gtest prints PoolCase as raw bytes, heap pointers
// included, and gtest_discover_tests puts that text into the ctest
// name, so the names would change from one build to the next.
void
PrintTo(const PoolCase &c, std::ostream *os)
{
    *os << c.label;
}

std::vector<PoolCase>
allPools()
{
    return {
        {"mq",
         [] {
             MqDvpConfig cfg;
             cfg.capacity = 64;
             cfg.numQueues = 4;
             return std::make_unique<MqDvp>(cfg);
         },
         true, true},
        {"lru",
         [] {
             return std::make_unique<MqDvp>(
                 MqDvpConfig{.capacity = 64, .numQueues = 1});
         },
         true, true},
        {"lx", [] { return std::make_unique<LxDvp>(64); }, true,
         false},
        {"infinite",
         [] {
             return std::make_unique<MqDvp>(
                 MqDvpConfig{.capacity = 0, .numQueues = 1});
         },
         false, true},
    };
}

class DvpProperty : public testing::TestWithParam<PoolCase>
{
};

TEST_P(DvpProperty, SizeNeverExceedsCapacity)
{
    auto pool = GetParam().make();
    for (std::uint64_t v = 0; v < 500; ++v) {
        pool->insertGarbage(fp(v), v, v, 1);
        if (GetParam().bounded)
            ASSERT_LE(pool->size(), pool->capacity());
    }
}

TEST_P(DvpProperty, HitReturnsAPreviouslyInsertedPpn)
{
    auto pool = GetParam().make();
    std::set<Ppn> inserted;
    Xoshiro256 rng(4);
    for (int i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.nextBounded(40);
        const Ppn ppn = static_cast<Ppn>(i);
        pool->insertGarbage(fp(v), v, ppn, 1);
        inserted.insert(ppn);
        const std::uint64_t probe = rng.nextBounded(40);
        const auto r = pool->lookupForWrite(fp(probe), probe);
        if (r.hit) {
            ASSERT_TRUE(inserted.count(r.ppn));
            inserted.erase(r.ppn); // a PPN revives at most once
        }
    }
}

TEST_P(DvpProperty, ErasedPpnIsNeverRevived)
{
    auto pool = GetParam().make();
    pool->insertGarbage(fp(1), 1, 100, 1);
    pool->onErase(100);
    const auto r = pool->lookupForWrite(fp(1), 1);
    EXPECT_FALSE(r.hit && r.ppn == 100);
}

TEST_P(DvpProperty, StatsCountLookupsAndInsertions)
{
    auto pool = GetParam().make();
    pool->insertGarbage(fp(1), 1, 1, 1);
    pool->lookupForWrite(fp(1), 1);
    pool->lookupForWrite(fp(2), 2);
    EXPECT_EQ(pool->stats().insertions, 1u);
    EXPECT_EQ(pool->stats().lookups, 2u);
    EXPECT_LE(pool->stats().hits, pool->stats().lookups);
}

TEST_P(DvpProperty, DrainToEmpty)
{
    auto pool = GetParam().make();
    for (std::uint64_t v = 0; v < 32; ++v)
        pool->insertGarbage(fp(v), v, v, 1);
    // Lookup every value (content-keyed pools hit; LX hits because
    // lpn == value id here), then erase everything that remains.
    for (std::uint64_t v = 0; v < 32; ++v)
        pool->lookupForWrite(fp(v), v);
    for (Ppn p = 0; p < 32; ++p)
        pool->onErase(p);
    EXPECT_EQ(pool->size(), 0u);
}

TEST_P(DvpProperty, RandomizedAgainstReferenceModel)
{
    // Reference semantics: the pool tracks a subset of the dead
    // copies; a hit must be consistent with the full dead-copy
    // multimap (fingerprint -> live dead PPNs).
    auto pool = GetParam().make();
    std::map<std::uint64_t, std::set<Ppn>> dead; // value -> ppns
    std::map<Ppn, std::uint64_t> owner;
    std::map<Ppn, Lpn> lpn_of;
    Xoshiro256 rng(99);
    Ppn next_ppn = 0;

    for (int step = 0; step < 5000; ++step) {
        const int op = static_cast<int>(rng.nextBounded(3));
        const std::uint64_t v = rng.nextBounded(30);
        if (op == 0) { // a copy of v dies at a random lpn
            const Ppn ppn = next_ppn++;
            const Lpn lpn = rng.nextBounded(100);
            pool->insertGarbage(fp(v), lpn, ppn,
                                static_cast<std::uint8_t>(v));
            dead[v].insert(ppn);
            owner[ppn] = v;
            lpn_of[ppn] = lpn;
        } else if (op == 1) { // a write of v arrives
            const Lpn lpn = rng.nextBounded(100);
            const auto r = pool->lookupForWrite(fp(v), lpn);
            if (r.hit) {
                ASSERT_TRUE(owner.count(r.ppn));
                if (GetParam().content_keyed) {
                    ASSERT_EQ(owner[r.ppn], v);
                } else {
                    // LBA-keyed pools still must only revive dead
                    // pages whose content matches the write.
                    ASSERT_EQ(owner[r.ppn], v);
                    ASSERT_EQ(lpn_of[r.ppn], lpn);
                }
                dead[owner[r.ppn]].erase(r.ppn);
                owner.erase(r.ppn);
            }
        } else if (!owner.empty()) { // GC erases a random dead ppn
            auto it = owner.begin();
            std::advance(it, rng.nextBounded(owner.size()));
            pool->onErase(it->first);
            dead[it->second].erase(it->first);
            owner.erase(it);
        }
        if (GetParam().bounded)
            ASSERT_LE(pool->size(), pool->capacity());
    }
}

TEST_P(DvpProperty, InfinitePoolHitsWheneverDeadCopyExists)
{
    if (GetParam().bounded)
        GTEST_SKIP() << "completeness only holds for the ideal pool";
    auto pool = GetParam().make();
    Xoshiro256 rng(5);
    std::map<std::uint64_t, int> dead;
    Ppn next_ppn = 0;
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t v = rng.nextBounded(20);
        if (rng.nextBool(0.5)) {
            pool->insertGarbage(fp(v), v, next_ppn++, 1);
            ++dead[v];
        } else {
            const bool expect_hit = dead[v] > 0;
            const auto r = pool->lookupForWrite(fp(v), v);
            ASSERT_EQ(r.hit, expect_hit);
            if (r.hit)
                --dead[v];
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPools, DvpProperty,
                         testing::ValuesIn(allPools()),
                         [](const auto &info) {
                             return info.param.label;
                         });

} // namespace
} // namespace zombie
