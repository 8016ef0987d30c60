#include "ftl/block_manager.hh"

#include <algorithm>

#include "util/logging.hh"

namespace zombie
{

BlockManager::BlockManager(FlashArray &array)
    : flash(array), geom(array.geometry())
{
    const std::uint64_t planes = geom.totalPlanes();
    freeLists.resize(planes);
    userActive.assign(planes, kNoBlock);
    hotActive.assign(planes, kNoBlock);
    gcActive.assign(planes, kNoBlock);
    gcReserve.assign(planes, kNoBlock);

    if (geom.blocksPerPlane() < 4)
        zombie_fatal("need at least 4 blocks per plane (user + GC "
                     "write points, GC reserve, and data)");

    // All blocks start free. Stacks are filled in reverse so the
    // lowest-numbered block of each plane is allocated first (makes
    // tests deterministic). The highest-numbered block of each plane
    // becomes the GC reserve.
    for (std::uint64_t plane = 0; plane < planes; ++plane) {
        auto &stack = freeLists[plane];
        stack.reserve(geom.blocksPerPlane());
        gcReserve[plane] =
            plane * geom.blocksPerPlane() + geom.blocksPerPlane() - 1;
        for (std::uint32_t b = geom.blocksPerPlane() - 1; b-- > 0;)
            stack.push_back(plane * geom.blocksPerPlane() + b);
    }

    freeCounts.resize(planes);
    for (std::uint64_t plane = 0; plane < planes; ++plane)
        freeCounts[plane] =
            static_cast<std::uint32_t>(freeLists[plane].size());
    userRoom.assign(planes, 1);
    for (std::uint64_t plane = 0; plane < planes; ++plane)
        refreshUserRoom(plane);

    // GC pacing masks: sized one bit per plane, trailing bits clear.
    // Watermarks default to 0 until the FTL configures its own; the
    // zero mask and the gate bits are meaningful regardless.
    const std::size_t mask_words = (planes + 63) / 64;
    zeroMask.assign(mask_words, 0);
    lowMask.assign(mask_words, 0);
    softMask.assign(mask_words, 0);
    gateOkMask.assign(mask_words, 0);
    for (std::uint64_t plane = 0; plane < planes; ++plane) {
        gateOkMask[plane >> 6] |= 1ULL << (plane & 63);
        refreshWaterBits(plane);
    }

    // Channel-first plane visit order: consecutive host writes land
    // on different channels, maximizing bus-level parallelism.
    const std::uint64_t planes_per_channel =
        planes / geom.channels();
    planeOrder.reserve(planes);
    for (std::uint64_t offset = 0; offset < planes_per_channel;
         ++offset) {
        for (std::uint32_t ch = 0; ch < geom.channels(); ++ch)
            planeOrder.push_back(ch * planes_per_channel + offset);
    }

    // Victim index: each plane's list can hold at most every block of
    // the plane, so one up-front reserve makes all later maintenance
    // allocation-free. Seed from the array's current state (usually
    // empty, but an already-written array is legal) and subscribe to
    // its garbage transitions.
    candidates.resize(planes);
    for (auto &list : candidates)
        list.reserve(geom.blocksPerPlane());
    inCandidates.assign(geom.totalBlocks(), false);
    for (std::uint64_t b = 0; b < geom.totalBlocks(); ++b)
        updateCandidate(b);
    // Every notified transition changes a victim score or candidate
    // set, so the plane's gate reopens even when membership is
    // stable. Plain function pointer + context: this fires per
    // invalidation.
    flash.setBlockListener(&BlockManager::onBlockChanged, this);
}

void
BlockManager::onBlockChanged(void *ctx, std::uint64_t block)
{
    auto *self = static_cast<BlockManager *>(ctx);
    self->reopenGcGate(self->geom.planeOfBlock(block));
    self->updateCandidate(block);
}

void
BlockManager::configureGcWatermarks(std::uint32_t low_water,
                                    std::uint32_t soft_water)
{
    gcLowWater = low_water;
    gcSoftWater = soft_water;
    for (std::uint64_t plane = 0; plane < freeCounts.size(); ++plane)
        refreshWaterBits(plane);
}

void
BlockManager::refreshWaterBits(std::uint64_t plane)
{
    const std::uint64_t bit = 1ULL << (plane & 63);
    const std::uint64_t word = plane >> 6;
    const std::uint32_t free = freeCounts[plane];
    if (free == 0)
        zeroMask[word] |= bit;
    else
        zeroMask[word] &= ~bit;
    if (free <= gcLowWater)
        lowMask[word] |= bit;
    else
        lowMask[word] &= ~bit;
    if (free <= gcSoftWater)
        softMask[word] |= bit;
    else
        softMask[word] &= ~bit;
}

std::uint64_t
BlockManager::nextUserPlane()
{
    if (!dieLoad) {
        const std::uint64_t plane = planeOrder[rrCursor];
        rrCursor = (rrCursor + 1) % planeOrder.size();
        return plane;
    }

    // Dynamic allocation: least-busy plane, visiting in round-robin
    // order so ties keep striping across channels. Planes that are
    // out of spare blocks are skipped unless every plane is. This
    // scan runs once per host write, so room is read from the
    // incrementally maintained bit and the die is a table lookup
    // instead of a division.
    const std::uint64_t n = planeOrder.size();
    std::uint64_t idx = rrCursor;
    if (noRoomPlanes == 0) {
        // Every plane has room (the steady state): the rotated
        // strict-< argmin over positions picks the first rotated
        // position whose die carries the globally smallest load.
        // Scan the die table (planes / planesPerDie entries) for
        // that minimum, then take the nearest-at-or-after-cursor
        // position among the dies that carry it — far cheaper
        // than gathering the load of all planes.
        // With the group-min accelerator the minimum comes from
        // the (dies / dieGroupSize)-entry group table, and only
        // groups carrying it are descended into — the candidate
        // die set and visit order are identical, so the choice
        // is byte-identical to the flat scan.
        Tick min_load;
        if (dieGroupLoad) {
            min_load = dieGroupLoad[0];
            for (std::uint32_t g = 1; g < dieGroupCount; ++g)
                min_load = std::min(min_load, dieGroupLoad[g]);
        } else {
            min_load = dieLoad[0];
            for (std::uint32_t d = 1; d < dieCount; ++d)
                min_load = std::min(min_load, dieLoad[d]);
        }
        // The sought position is the first one at or after the
        // cursor (wrapping) whose die carries min_load. GC
        // bursts leave whole burst's worth of dies with the
        // same completion tick, so the minimum is usually
        // carried by many dies and a short forward probe from
        // the cursor finds it in a step or two. Probe a bounded
        // window first; a sparse minimum falls back to the
        // per-die candidate descent. Both compute the same
        // position, so the choice is byte-identical either way.
        bool found = false;
        std::uint64_t probe = rrCursor;
        for (std::uint32_t k = 0; k < kMinProbeWindow; ++k) {
            if (dieLoad[orderDie[probe]] == min_load) {
                idx = probe;
                found = true;
                break;
            }
            if (++probe == n)
                probe = 0;
        }
        if (!found) {
            // Unwrapped positions (pos, or pos + n once
            // wrapped) are all >= rrCursor, so their plain min
            // is the rotated min.
            std::uint64_t first_pos = 2 * n;
            auto consider = [&](std::uint32_t d) {
                if (dieLoad[d] != min_load)
                    return;
                const auto &pos = diePositions[d];
                const auto it = std::lower_bound(
                    pos.begin(), pos.end(), rrCursor);
                const std::uint64_t cand =
                    it != pos.end() ? *it : pos.front() + n;
                first_pos = std::min(first_pos, cand);
            };
            if (dieGroupLoad) {
                for (std::uint32_t g = 0; g < dieGroupCount; ++g) {
                    if (dieGroupLoad[g] != min_load)
                        continue;
                    const std::uint32_t base = g * dieGroupSize;
                    for (std::uint32_t d = base;
                         d < base + dieGroupSize; ++d)
                        consider(d);
                }
            } else {
                for (std::uint32_t d = 0; d < dieCount; ++d)
                    consider(d);
            }
            idx = first_pos >= n ? first_pos - n : first_pos;
        }
        if (++rrCursor == n)
            rrCursor = 0;
        return planeOrder[idx];
    }
    std::uint64_t best = planeOrder[rrCursor];
    Tick best_load = kMaxTick;
    bool best_has_room = false;
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t plane = planeOrder[idx];
        if (++idx == n)
            idx = 0;
        const bool has_room = userRoom[plane];
        if (best_has_room && !has_room)
            continue;
        const Tick load = dieLoad[planeDie[plane]];
        if ((has_room && !best_has_room) || load < best_load) {
            best = plane;
            best_load = load;
            best_has_room = has_room;
        }
    }
    if (++rrCursor == n)
        rrCursor = 0;
    return best;
}

void
BlockManager::setDieLoadView(const Tick *die_busy,
                             std::uint32_t planes_per_die)
{
    zombie_assert(!die_busy || planes_per_die > 0,
                  "die-load view needs planes per die");
    dieLoad = die_busy;
    planeDie.resize(geom.totalPlanes());
    for (std::uint64_t p = 0; p < planeDie.size(); ++p)
        planeDie[p] = static_cast<std::uint32_t>(p / planes_per_die);
    dieCount = planeDie.empty() ? 0 : planeDie.back() + 1;
    orderDie.resize(planeOrder.size());
    for (std::uint64_t i = 0; i < planeOrder.size(); ++i)
        orderDie[i] = planeDie[planeOrder[i]];
    diePositions.assign(dieCount, {});
    for (auto &list : diePositions)
        list.reserve(planes_per_die);
    for (std::uint32_t i = 0; i < orderDie.size(); ++i)
        diePositions[orderDie[i]].push_back(i);
}

void
BlockManager::setDieLoadGroups(const Tick *group_min,
                               std::uint32_t dies_per_group)
{
    if (!group_min) {
        dieGroupLoad = nullptr;
        dieGroupSize = 0;
        dieGroupCount = 0;
        return;
    }
    zombie_assert(dieLoad, "die-load groups need a die-load view");
    zombie_assert(dies_per_group > 0 &&
                      dieCount % dies_per_group == 0,
                  "group size must tile the die table");
    dieGroupLoad = group_min;
    dieGroupSize = dies_per_group;
    dieGroupCount = dieCount / dies_per_group;
}

std::uint64_t
BlockManager::popFree(std::uint64_t plane, bool for_gc)
{
    reopenGcGate(plane);
    auto &stack = freeLists[plane];
    if (!stack.empty()) {
        const std::uint64_t block = stack.back();
        stack.pop_back();
        --freeCounts[plane];
        refreshWaterBits(plane);
        if (stack.empty())
            ++zeroFreePlanes;
        return block;
    }
    // GC may dip into its reserve so collection always progresses.
    if (for_gc && gcReserve[plane] != kNoBlock) {
        const std::uint64_t block = gcReserve[plane];
        gcReserve[plane] = kNoBlock;
        return block;
    }
    zombie_panic("plane ", plane, " ran out of free blocks; "
                 "GC thresholds failed to keep up");
}

Ppn
BlockManager::allocatePage(std::uint64_t plane, Stream stream)
{
    auto &active = stream == Stream::Gc
                       ? gcActive[plane]
                       : (stream == Stream::UserHot ? hotActive[plane]
                                                    : userActive[plane]);
    if (active == kNoBlock || !flash.blockHasRoom(active)) {
        const std::uint64_t retired = active;
        active = popFree(plane, stream == Stream::Gc);
        // The write point rolled over: the retired block just became
        // inactive, which may make it a victim candidate.
        if (retired != kNoBlock)
            updateCandidate(retired);
    }
    const Ppn ppn = flash.programPage(active);
    // The program may have filled the write point, and the roll-over
    // above may have drained the free stack.
    refreshUserRoom(plane);
    return ppn;
}

bool
BlockManager::streamHasRoom(std::uint64_t plane, Stream stream) const
{
    const std::uint64_t active =
        stream == Stream::Gc
            ? gcActive[plane]
            : (stream == Stream::UserHot ? hotActive[plane]
                                         : userActive[plane]);
    return active != kNoBlock && flash.blockHasRoom(active);
}

std::uint32_t
BlockManager::minFreeBlocks() const
{
    std::uint32_t lo = ~0u;
    for (const auto &stack : freeLists)
        lo = std::min<std::uint32_t>(
            lo, static_cast<std::uint32_t>(stack.size()));
    return lo;
}

void
BlockManager::releaseBlock(std::uint64_t block_index)
{
    const std::uint64_t plane = geom.planeOfBlock(block_index);
    zombie_assert(flash.writePtrOf(block_index) == 0,
                  "releasing a non-erased block ", block_index);
    reopenGcGate(plane);
    if (userActive[plane] == block_index)
        userActive[plane] = kNoBlock;
    if (hotActive[plane] == block_index)
        hotActive[plane] = kNoBlock;
    if (gcActive[plane] == block_index)
        gcActive[plane] = kNoBlock;
    // Refill the GC reserve before feeding the general pool.
    if (gcReserve[plane] == kNoBlock) {
        gcReserve[plane] = block_index;
    } else {
        if (freeLists[plane].empty())
            --zeroFreePlanes;
        freeLists[plane].push_back(block_index);
        ++freeCounts[plane];
        refreshWaterBits(plane);
    }
    updateCandidate(block_index);
    refreshUserRoom(plane);
}

bool
BlockManager::isActive(std::uint64_t block_index) const
{
    const std::uint64_t plane = geom.planeOfBlock(block_index);
    return userActive[plane] == block_index ||
           hotActive[plane] == block_index ||
           gcActive[plane] == block_index;
}

void
BlockManager::refreshUserRoom(std::uint64_t plane)
{
    const std::uint8_t had = userRoom[plane];
    const std::uint8_t has =
        freeCounts[plane] > 0 ||
        (userActive[plane] != kNoBlock &&
         flash.blockHasRoom(userActive[plane])) ||
        (hotActive[plane] != kNoBlock &&
         flash.blockHasRoom(hotActive[plane]));
    userRoom[plane] = has;
    noRoomPlanes += static_cast<std::uint64_t>(had) - has;
}

void
BlockManager::updateCandidate(std::uint64_t block_index)
{
    // Only fully written blocks are collected; partially written
    // inactive blocks do not exist by construction.
    const bool want = flash.invalidCountOf(block_index) > 0 &&
                      flash.writePtrOf(block_index) ==
                          geom.pagesPerBlock() &&
                      !isActive(block_index);
    if (want == static_cast<bool>(inCandidates[block_index]))
        return;
    inCandidates[block_index] = want;
    auto &list = candidates[geom.planeOfBlock(block_index)];
    const auto it =
        std::lower_bound(list.begin(), list.end(), block_index);
    if (want)
        list.insert(it, block_index);
    else
        list.erase(it);
}

const std::vector<std::uint64_t> &
BlockManager::victimCandidates(std::uint64_t plane) const
{
    zombie_assert(plane < candidates.size(), "plane out of bounds");
    return candidates[plane];
}

} // namespace zombie
