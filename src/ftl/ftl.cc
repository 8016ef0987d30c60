#include "ftl/ftl.hh"

#include <bit>
#include <utility>

#include "util/logging.hh"

namespace zombie
{

Ftl::Ftl(FlashArray &flash_array, FtlConfig config)
    : array(flash_array), cfg(std::move(config)),
      map(cfg.logicalPages, array.geometry().totalPages()),
      blockMgr(array),
      popWeight(gcPolicyWeight(cfg.gcPolicy, cfg.gcPopWeight)),
      gcJobs(array.geometry().totalPlanes()),
      gcActiveMask((array.geometry().totalPlanes() + 63) / 64, 0)
{
    if (cfg.gcPagesPerStep == 0)
        zombie_fatal("gcPagesPerStep must be > 0");
    blockMgr.configureGcWatermarks(cfg.gcLowWater, cfg.gcSoftWater);
    const std::uint64_t physical = array.geometry().totalPages();
    if (cfg.logicalPages > physical)
        zombie_fatal("logical space exceeds physical capacity");
    // Sanity-check the implied over-provisioning: warn below 5%.
    const double op =
        static_cast<double>(physical - cfg.logicalPages) /
        static_cast<double>(cfg.logicalPages);
    if (op < 0.05) {
        zombie_warn("over-provisioning is only ", op * 100.0,
                    "% - GC may thrash");
    }
}

void
Ftl::attachDvp(DeadValuePool *p)
{
    pool = p;
}

void
Ftl::attachDedup(FingerprintStore *s)
{
    zombie_assert(map.mappedCount() == 0,
                  "attach the dedup store before the first write");
    store = s;
    const std::uint64_t links = s ? cfg.logicalPages : 0;
    ownerNext.assign(links, kNoStoredPage);
    ownerPrev.assign(links, kNoStoredPage);
}

void
Ftl::setDieLoadView(const Tick *die_busy, std::uint32_t planes_per_die)
{
    blockMgr.setDieLoadView(die_busy, planes_per_die);
}

void
Ftl::setDieLoadGroups(const Tick *group_min,
                      std::uint32_t dies_per_group)
{
    blockMgr.setDieLoadGroups(group_min, dies_per_group);
}

void
Ftl::invalidateLpn(Lpn lpn)
{
    const Ppn old_ppn = map.ppnOf(lpn);
    const Fingerprint old_fp = map.fingerprintOf(lpn);
    const std::uint8_t old_pop = map.popularity(lpn);

    if (store) {
        unlinkOwner(lpn, old_ppn);
        const std::uint32_t remaining =
            store->releaseReference(old_fp);
        // The chain is empty exactly when lpn is still its head.
        zombie_assert((remaining > 0) == (map.lpnOf(old_ppn) != lpn),
                      "owner chain of ", old_ppn,
                      " disagrees with refcount ", remaining);
        // Other LPNs still share the page; it stays live (section
        // VII: many-to-one mapping delays garbage).
        if (remaining > 0)
            return;
    }

    array.invalidatePage(old_ppn, old_pop);
    map.clearReverse(old_ppn);
    // Pages inside a block under active collection are about to be
    // erased; registering them would allow a revival the erase would
    // then corrupt.
    if (pool && !inGcVictim(old_ppn))
        pool->insertGarbage(old_fp, lpn, old_ppn, old_pop);
}

bool
Ftl::inGcVictim(Ppn ppn) const
{
    const std::uint64_t block = array.geometry().blockOfPpn(ppn);
    const std::uint64_t plane = array.geometry().planeOfBlock(block);
    return gcJobs[plane].victim == block;
}

void
Ftl::mapNewContent(Lpn lpn, Ppn ppn, const Fingerprint &fp,
                   std::uint8_t pop)
{
    if (store) {
        // The new owner heads the chain: map() below makes it the
        // page's reverse entry.
        const Lpn head = map.lpnOf(ppn);
        ownerNext[lpn] = narrowPage(head);
        ownerPrev[lpn] = kNoStoredPage;
        if (head != kInvalidLpn)
            ownerPrev[head] = narrowPage(lpn);
    }
    map.map(lpn, ppn);
    map.setFingerprint(lpn, fp);
    map.setPopularity(lpn, pop);
}

void
Ftl::mapFreshPage(Lpn lpn, Ppn ppn, const Fingerprint &fp,
                  std::uint8_t pop)
{
    zombie_assert(map.lpnOf(ppn) == kInvalidLpn, "fresh PPN ", ppn,
                  " already owned by LPN ", map.lpnOf(ppn));
    mapNewContent(lpn, ppn, fp, pop);
    if (store)
        store->registerPage(fp, ppn);
}

void
Ftl::unlinkOwner(Lpn lpn, Ppn ppn)
{
    const Lpn prev = widenPage(ownerPrev[lpn]);
    const Lpn next = widenPage(ownerNext[lpn]);
    if (prev == kInvalidLpn) {
        zombie_assert(map.lpnOf(ppn) == lpn, "LPN ", lpn,
                      " missing from the owner chain of ", ppn);
        // The next owner (if any) becomes the head.
        if (next != kInvalidLpn)
            map.map(next, ppn);
    } else {
        zombie_assert(widenPage(ownerNext[prev]) == lpn, "LPN ", lpn,
                      " missing from the owner chain of ", ppn);
        ownerNext[prev] = narrowPage(next);
    }
    if (next != kInvalidLpn)
        ownerPrev[next] = narrowPage(prev);
}

HostOpResult
Ftl::write(Lpn lpn, const Fingerprint &fp, FlashStepBuffer &steps)
{
    zombie_assert(lpn < cfg.logicalPages, "write beyond logical space");
    steps.clear();
    HostOpResult result;
    ++fstats.hostWrites;

    // Collect before allocating so a plane can never be asked for a
    // user block while it still has reclaimable garbage pending.
    advanceGcAll(steps);

    const bool was_mapped = map.isMapped(lpn);

    // 1. In-line dedup against live content (before invalidating the
    //    old page, so a same-content rewrite is a pure no-op).
    if (store) {
        if (auto live = store->lookup(fp)) {
            const Ppn live_ppn = *live;
            if (was_mapped && map.ppnOf(lpn) == live_ppn) {
                // Same content, same page: nothing changes.
                const std::uint8_t pop = store->addReference(fp);
                store->releaseReference(fp); // undo ref bump
                map.setPopularity(lpn, pop);
            } else {
                if (was_mapped)
                    invalidateLpn(lpn);
                const std::uint8_t pop = store->addReference(fp);
                mapNewContent(lpn, live_ppn, fp, pop);
            }
            result.shortCircuit = true;
            result.dedupHit = true;
            ++fstats.dedupHits;
            return result;
        }
    }

    // 2. Out-of-place update: the old page dies and its hash enters
    //    the dead-value pool.
    if (was_mapped)
        invalidateLpn(lpn);

    // 3. Dead-value pool lookup: revive a zombie page on a hit.
    if (pool) {
        const DvpLookupResult hit = pool->lookupForWrite(fp, lpn);
        if (hit.hit) {
            array.revivePage(hit.ppn);
            mapFreshPage(lpn, hit.ppn, fp, hit.popularity);
            result.shortCircuit = true;
            result.dvpRevival = true;
            ++fstats.dvpRevivals;
            return result;
        }
    }

    // 4. Normal program path. With hot/cold separation, updates of
    //    frequently written LPNs use the hot write point. When the
    //    plane has no spare block to extend the preferred stream,
    //    degrade to whichever user write point still has room rather
    //    than strand the allocation.
    const bool hot = cfg.hotColdSeparation && was_mapped &&
                     map.popularity(lpn) >= cfg.hotThreshold;
    const std::uint64_t plane = blockMgr.nextUserPlane();
    Stream stream = hot ? Stream::UserHot : Stream::UserCold;
    if (blockMgr.freeBlocks(plane) == 0 &&
        !blockMgr.streamHasRoom(plane, stream)) {
        const Stream other =
            hot ? Stream::UserCold : Stream::UserHot;
        if (blockMgr.streamHasRoom(plane, other))
            stream = other;
    }
    const Ppn ppn = blockMgr.allocatePage(plane, stream);
    ++fstats.programs;
    mapFreshPage(lpn, ppn, fp, 1);
    steps.userSteps.push_back(FlashStep{FlashOp::Program, ppn});
    return result;
}

HostOpResult
Ftl::read(Lpn lpn, FlashStepBuffer &steps)
{
    steps.clear();
    HostOpResult result;
    ++fstats.hostReads;

    if (lpn >= cfg.logicalPages || !map.isMapped(lpn)) {
        ++fstats.unmappedReads;
        result.ok = false;
        return result;
    }

    const Ppn ppn = map.ppnOf(lpn);
    array.readPage(ppn);
    steps.userSteps.push_back(FlashStep{FlashOp::Read, ppn});
    if (pool)
        pool->onHostRead(lpn);
    return result;
}

HostOpResult
Ftl::trim(Lpn lpn, FlashStepBuffer &steps)
{
    steps.clear();
    HostOpResult result;
    ++fstats.trims;
    if (lpn >= cfg.logicalPages || !map.isMapped(lpn)) {
        result.ok = false;
        return result;
    }
    invalidateLpn(lpn);
    map.unmap(lpn);
    map.setPopularity(lpn, 0);
    advanceGcAll(steps);
    return result;
}

WearSummary
Ftl::wearSummary() const
{
    return summarizeWear(array);
}

void
Ftl::registerStats(StatRegistry &registry) const
{
    registry.addCounter("ftl.host_writes", &fstats.hostWrites);
    registry.addCounter("ftl.host_reads", &fstats.hostReads);
    registry.addCounter("ftl.unmapped_reads", &fstats.unmappedReads);
    registry.addCounter("ftl.programs", &fstats.programs);
    registry.addCounter("ftl.dvp_revivals", &fstats.dvpRevivals);
    registry.addCounter("ftl.dedup_hits", &fstats.dedupHits);
    registry.addCounter("ftl.trims", &fstats.trims);
    registry.addCounter("ftl.gc.invocations", &fstats.gcInvocations);
    registry.addCounter("ftl.gc.relocations", &fstats.gcRelocations);
}

void
Ftl::advanceGcAll(FlashStepBuffer &steps)
{
    const std::uint64_t planes = array.geometry().totalPlanes();
    const std::size_t words = blockMgr.planeMaskWords();

    // Emergency: a plane with no free block left drains its victim in
    // one shot (the GC reserve guarantees relocation space) so the
    // next user allocation cannot strand. In practice the paced tiers
    // below keep planes from ever reaching this point, which is why
    // the scan is gated on the manager's zero-free count.
    if (blockMgr.anyPlaneOutOfFreeBlocks()) {
        const std::uint64_t *zero = blockMgr.gcZeroMask();
        const std::uint32_t drain = array.geometry().pagesPerBlock();
        for (std::size_t w = 0; w < words; ++w) {
            // Per-word snapshot: advanceGc(p) only mutates plane p's
            // bits, so later bits of the word are still live-exact.
            for (std::uint64_t m = zero[w]; m; m &= m - 1) {
                const std::uint64_t p =
                    (w << 6) +
                    static_cast<unsigned>(std::countr_zero(m));
                advanceGc(p, drain, steps);
            }
        }
    }

    // Paced background collection: planes at/below the mandatory
    // watermark have first claim on the budget, then opportunistic
    // (quality-gated) collection of planes at the soft watermark.
    // This scan runs twice per host write, so eligibility is read
    // from the plane bitmaps: a word of 64 planes costs a handful of
    // loads and the scan skips straight between set bits. A clear
    // gate bit replays the memoized victim-gate "no" for free —
    // advanceGc would re-score the candidates only to refuse again.
    const std::uint64_t *act = gcActiveMask.data();
    const std::uint64_t *low = blockMgr.gcLowMask();
    const std::uint64_t *soft = blockMgr.gcSoftMask();
    const std::uint64_t *gate = blockMgr.gcGateOkMask();
    std::uint32_t budget = cfg.gcPagesPerStep;

    // Rotate the sweep from gcCursor exactly like the historical
    // per-plane loop: bits >= the cursor first (segment A), then the
    // wrap-around remainder (segment B).
    const std::size_t sw = gcCursor >> 6;
    const std::uint64_t head = ~0ULL << (gcCursor & 63);
    const auto sweep = [&](auto eligible) {
        std::uint64_t wmask = head;
        for (std::size_t w = sw; w < words && budget > 0; ++w) {
            for (std::uint64_t m = eligible(w) & wmask;
                 m && budget > 0; m &= m - 1) {
                const std::uint64_t p =
                    (w << 6) +
                    static_cast<unsigned>(std::countr_zero(m));
                budget -= advanceGc(p, budget, steps);
            }
            wmask = ~0ULL;
        }
        for (std::size_t w = 0; w <= sw && budget > 0; ++w) {
            const std::uint64_t tail = w == sw ? ~head : ~0ULL;
            for (std::uint64_t m = eligible(w) & tail;
                 m && budget > 0; m &= m - 1) {
                const std::uint64_t p =
                    (w << 6) +
                    static_cast<unsigned>(std::countr_zero(m));
                budget -= advanceGc(p, budget, steps);
            }
        }
    };
    sweep([&](std::size_t w) { return act[w] | (low[w] & gate[w]); });
    sweep([&](std::size_t w) { return soft[w] & ~act[w] & gate[w]; });

    if (++gcCursor == planes)
        gcCursor = 0;
}

bool
Ftl::startGcJob(std::uint64_t plane)
{
    // Gate memoization: every input of the decision below (candidate
    // membership, per-block garbage/wear scores, the free-block
    // count) reopens the plane's gate bit when it changes, so a
    // still-clear bit replays the cached "no" without re-scoring the
    // candidates.
    if (!blockMgr.gcGateOk(plane))
        return false;

    const auto &candidates = blockMgr.victimCandidates(plane);
    if (candidates.empty()) {
        blockMgr.markGcGateFailed(plane);
        return false;
    }
    const std::uint64_t victim =
        selectVictim(array, candidates, popWeight);

    // Thin garbage is not worth hundreds of relocations per erase;
    // above the mandatory watermark, wait for invalidations to
    // concentrate rather than collecting a poor victim.
    if (array.invalidCountOf(victim) < cfg.gcMinInvalid &&
        blockMgr.freeBlocks(plane) > cfg.gcLowWater) {
        blockMgr.markGcGateFailed(plane);
        return false;
    }

    GcJob &job = gcJobs[plane];
    job.victim = victim;
    job.nextPage = 0;
    gcActiveMask[plane >> 6] |= 1ULL << (plane & 63);
    ++fstats.gcInvocations;

    // The victim's garbage pages are now doomed: purge their pool
    // entries so no write revives a page scheduled for erase. The
    // invalid bitmap yields each garbage page in ascending order a
    // word (64 pages) at a time.
    if (pool) {
        const Geometry &geom = array.geometry();
        const Ppn first = geom.firstPpnOfBlock(victim);
        const std::uint32_t pages = geom.pagesPerBlock();
        for (std::uint32_t i = array.nextInvalidPage(victim, 0);
             i < pages; i = array.nextInvalidPage(victim, i + 1)) {
            pool->onErase(first + i);
        }
    }
    return true;
}

void
Ftl::relocatePage(std::uint64_t plane, Ppn src, FlashStepBuffer &steps)
{
    array.readPage(src);
    steps.gcSteps.push_back(FlashStep{FlashOp::Read, src});
    const Ppn dst = blockMgr.allocatePage(plane, true);
    steps.gcSteps.push_back(FlashStep{FlashOp::Program, dst});
    ++fstats.gcRelocations;

    const Lpn head = map.lpnOf(src);
    zombie_assert(head != kInvalidLpn,
                  "valid page without reverse mapping");
    zombie_assert(map.lpnOf(dst) == kInvalidLpn, "relocation target ",
                  dst, " already owned by LPN ", map.lpnOf(dst));
    if (store)
        store->relocate(map.fingerprintOf(head), dst);
    // The chain moves as it is; mapping the head last keeps it the
    // reverse entry.
    for (Lpn l = nextOwner(head); l != kInvalidLpn; l = nextOwner(l))
        map.map(l, dst);
    map.map(head, dst);
    // The source copy is dead; popularity 0 keeps GC scoring neutral
    // about relocation-created garbage.
    array.invalidatePage(src, 0);
    map.clearReverse(src);
}

std::uint32_t
Ftl::advanceGc(std::uint64_t plane, std::uint32_t budget,
               FlashStepBuffer &steps)
{
    GcJob &job = gcJobs[plane];
    if (!job.active() && !startGcJob(plane))
        return 0;

    const Geometry &geom = array.geometry();
    const Ppn first = geom.firstPpnOfBlock(job.victim);
    const std::uint32_t pages = geom.pagesPerBlock();

    // The relocation cursor hops valid bitmap bits instead of
    // probing every page: a budget-bounded walk leaves nextPage just
    // past the last page it moved, exactly like the per-page loop.
    std::uint32_t moved = 0;
    while (moved < budget) {
        const std::uint32_t page =
            array.nextValidPage(job.victim, job.nextPage);
        if (page == pages) {
            job.nextPage = pages;
            break;
        }
        relocatePage(plane, first + page, steps);
        ++moved;
        job.nextPage = page + 1;
    }

    if (job.nextPage == geom.pagesPerBlock()) {
        // All live data moved; the erase completes the job. Garbage
        // pages invalidated mid-job were never (re)inserted into the
        // pool, so nothing dangles.
        array.eraseBlock(job.victim);
        steps.gcSteps.push_back(FlashStep{FlashOp::Erase, first});
        blockMgr.releaseBlock(job.victim);
        job.reset();
        gcActiveMask[plane >> 6] &= ~(1ULL << (plane & 63));
    }
    return moved;
}

std::vector<Lpn>
Ftl::ownersOf(Ppn ppn) const
{
    std::vector<Lpn> out;
    for (Lpn l = map.lpnOf(ppn); l != kInvalidLpn; l = nextOwner(l))
        out.push_back(l);
    return out;
}

void
Ftl::checkConsistency() const
{
    // Every mapped LPN must point at a Valid physical page holding it.
    for (Lpn lpn = 0; lpn < cfg.logicalPages; ++lpn) {
        if (!map.isMapped(lpn))
            continue;
        const Ppn ppn = map.ppnOf(lpn);
        zombie_assert(array.state(ppn) == PageState::Valid,
                      "LPN ", lpn, " maps to non-valid PPN ", ppn);
        if (!store)
            zombie_assert(map.lpnOf(ppn) == lpn,
                          "reverse map mismatch for LPN ", lpn);
    }
    if (store)
        checkOwnerChains();
}

void
Ftl::checkOwnerChains() const
{
    // Walk every owner chain from its head, the reverse entry of a
    // live page. Each member must map to the chain's page and carry
    // its content; the chain's length is the content's refcount.
    // Members summing to the mapped count, with no LPN on two
    // chains, means every mapped LPN was visited exactly once.
    const std::uint64_t mapped = map.mappedCount();
    const std::uint64_t pages = array.geometry().totalPages();
    std::uint64_t members = 0;
    std::uint64_t chains = 0;
    for (Ppn ppn = 0; ppn < pages; ++ppn) {
        const Lpn head = map.lpnOf(ppn);
        if (head == kInvalidLpn)
            continue;
        ++chains;
        zombie_assert(ownerPrev[head] == kNoStoredPage, "head LPN ",
                      head, " of the owner chain of ", ppn,
                      " has a predecessor");
        const Fingerprint &fp = map.fingerprintOf(head);
        std::uint32_t length = 0;
        for (Lpn l = head; l != kInvalidLpn; l = nextOwner(l)) {
            zombie_assert(++members <= mapped, "owner chain of ", ppn,
                          " does not end");
            zombie_assert(map.ppnOf(l) == ppn, "LPN ", l,
                          " on the owner chain of ", ppn,
                          " maps to ", map.ppnOf(l));
            zombie_assert(map.fingerprintOf(l) == fp, "LPN ", l,
                          " on the owner chain of ", ppn,
                          " holds other content");
            const Lpn next = nextOwner(l);
            zombie_assert(next == kInvalidLpn ||
                              widenPage(ownerPrev[next]) == l,
                          "broken back link after LPN ", l);
            ++length;
        }
        const FingerprintStore::Entry *entry = store->find(fp);
        zombie_assert(entry, "content of live PPN ", ppn,
                      " missing from the dedup store");
        zombie_assert(widenPage(entry->ppn) == ppn,
                      "dedup store places ", fp.hex(), " at ",
                      entry->ppn, " not ", ppn);
        zombie_assert(entry->refs == length, "PPN ", ppn, " has ",
                      length, " owners but refcount ", entry->refs);
    }
    zombie_assert(members == mapped, "owner chains hold ", members,
                  " LPNs but ", mapped, " are mapped");
    zombie_assert(chains == store->size(), chains,
                  " owner chains but ", store->size(),
                  " live fingerprints");
}

} // namespace zombie
