/**
 * @file
 * Open-addressing hash containers for the metadata hot path.
 *
 * Every simulated write performs several fingerprint/PPN lookups (DVP
 * index, dedup store). Node-based std::unordered_map
 * pays one cache miss per bucket pointer and one per node; FlatMap
 * keeps the payload in one contiguous slot array probed linearly, with
 * robin-hood displacement bounding probe lengths and backward-shift
 * deletion keeping the table tombstone-free at any erase rate.
 *
 * Determinism contract: the layout is a pure function of the operation
 * sequence — capacity is a power of two grown on fixed load
 * thresholds, probing is linear from `hash & mask`, displacement ties
 * preserve insertion order, and rehash reinserts slots in index
 * order. No pointer values or allocator state leak into behaviour, so
 * seeded runs are byte-identical across platforms. Iteration order is
 * nevertheless an implementation detail (it changes when the table
 * grows): simulator output must never depend on it.
 */

#ifndef ZOMBIE_UTIL_FLAT_MAP_HH
#define ZOMBIE_UTIL_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hh"

namespace zombie
{

/**
 * Default key hash: SplitMix64 finalizer over the integral value.
 * std::hash is the identity on libstdc++ integers, which is unusable
 * with power-of-two masking; this mixer gives uniform low bits.
 */
template <typename Key>
struct FlatHash
{
    std::size_t
    operator()(const Key &key) const
    {
        std::uint64_t z = static_cast<std::uint64_t>(key);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(z ^ (z >> 31));
    }
};

/** Robin-hood open-addressing hash map (see file comment). */
template <typename Key, typename T, typename Hash = FlatHash<Key>>
class FlatMap
{
  public:
    using value_type = std::pair<Key, T>;

    /** Forward iterator over occupied slots. */
    template <typename MapPtr, typename Value>
    class Iter
    {
      public:
        Iter(MapPtr map, std::size_t pos) : map(map), pos(pos) {}

        Value &operator*() const { return map->slots[pos]; }
        Value *operator->() const { return &map->slots[pos]; }

        Iter &
        operator++()
        {
            ++pos;
            skipEmpty();
            return *this;
        }

        bool
        operator==(const Iter &other) const
        {
            return pos == other.pos;
        }

        bool
        operator!=(const Iter &other) const
        {
            return pos != other.pos;
        }

      private:
        friend class FlatMap;

        void
        skipEmpty()
        {
            while (pos < map->dists.size() && map->dists[pos] == 0)
                ++pos;
        }

        MapPtr map;
        std::size_t pos;
    };

    using iterator = Iter<FlatMap *, value_type>;
    using const_iterator = Iter<const FlatMap *, const value_type>;

    FlatMap() = default;

    iterator
    begin()
    {
        iterator it(this, 0);
        it.skipEmpty();
        return it;
    }

    const_iterator
    begin() const
    {
        const_iterator it(this, 0);
        it.skipEmpty();
        return it;
    }

    iterator end() { return iterator(this, dists.size()); }
    const_iterator end() const
    {
        return const_iterator(this, dists.size());
    }

    std::size_t size() const { return used; }
    bool empty() const { return used == 0; }

    /** Slots the table can hold before the next growth rehash. */
    std::size_t
    capacityBeforeGrowth() const
    {
        return dists.size() - dists.size() / 8;
    }

    /** Pre-size so @p n entries insert without rehashing. */
    void
    reserve(std::size_t n)
    {
        std::size_t cap = kMinCapacity;
        while (cap - cap / 8 < n)
            cap <<= 1;
        if (cap > dists.size())
            rehash(cap);
    }

    void
    clear()
    {
        slots.clear();
        slots.resize(dists.size());
        dists.assign(dists.size(), 0);
        used = 0;
    }

    iterator
    find(const Key &key)
    {
        return iterator(this, findPos(key));
    }

    const_iterator
    find(const Key &key) const
    {
        return const_iterator(this, findPos(key));
    }

    bool
    contains(const Key &key) const
    {
        return findPos(key) != dists.size();
    }

    std::size_t count(const Key &key) const { return contains(key); }

    T &
    at(const Key &key)
    {
        const std::size_t pos = findPos(key);
        zombie_assert(pos != dists.size(), "FlatMap::at missing key");
        return slots[pos].second;
    }

    const T &
    at(const Key &key) const
    {
        const std::size_t pos = findPos(key);
        zombie_assert(pos != dists.size(), "FlatMap::at missing key");
        return slots[pos].second;
    }

    /** Find-or-default-insert. The reference is invalidated by any
     * later insert or erase (slots shift), unlike node-based maps. */
    T &
    operator[](const Key &key)
    {
        return insertSlot(key)->second;
    }

    /** Insert if absent. @return {iterator, inserted}. */
    std::pair<iterator, bool>
    insert(const value_type &kv)
    {
        const std::size_t before = used;
        value_type *slot = insertSlot(kv.first);
        const bool inserted = used != before;
        if (inserted)
            slot->second = kv.second;
        return {iterator(this, static_cast<std::size_t>(slot -
                                                        slots.data())),
                inserted};
    }

    /** Erase by key. @return number of entries removed (0 or 1). */
    std::size_t
    erase(const Key &key)
    {
        const std::size_t pos = findPos(key);
        if (pos == dists.size())
            return 0;
        erasePos(pos);
        return 1;
    }

    /** Erase by iterator (must dereference an occupied slot). */
    void
    erase(iterator it)
    {
        zombie_assert(it.pos < dists.size() && dists[it.pos] != 0,
                      "FlatMap::erase of invalid iterator");
        erasePos(it.pos);
    }

  private:
    friend iterator;
    friend const_iterator;

    static constexpr std::size_t kMinCapacity = 16;
    static constexpr std::uint16_t kMaxDist = 0xffff;

    std::size_t
    findPos(const Key &key) const
    {
        if (used == 0)
            return dists.size();
        const std::size_t mask = dists.size() - 1;
        std::size_t pos = hasher(key) & mask;
        std::uint16_t dist = 1;
        while (true) {
            const std::uint16_t have = dists[pos];
            // Robin-hood invariant: a resident with a shorter probe
            // distance proves the key is absent.
            if (have < dist)
                return dists.size();
            if (have == dist && slots[pos].first == key)
                return pos;
            pos = (pos + 1) & mask;
            ++dist;
        }
    }

    /** Find @p key or claim a slot for it (value untouched on find,
     * default on insert). @return pointer to the slot. */
    value_type *
    insertSlot(const Key &key)
    {
        if (dists.empty() || (used + 1) * 8 > dists.size() * 7)
            rehash(dists.empty() ? kMinCapacity : dists.size() * 2);

        const std::size_t mask = dists.size() - 1;
        std::size_t pos = hasher(key) & mask;
        std::uint16_t dist = 1;
        value_type carry{key, T{}};
        value_type *result = nullptr;
        while (true) {
            if (dists[pos] == 0) {
                slots[pos] = std::move(carry);
                dists[pos] = dist;
                ++used;
                return result ? result : &slots[pos];
            }
            if (!result && dists[pos] == dist &&
                slots[pos].first == carry.first) {
                return &slots[pos];
            }
            if (dists[pos] < dist) {
                // Rob the richer resident: park the carried entry
                // here and continue inserting the displaced one.
                std::swap(carry, slots[pos]);
                std::swap(dist, dists[pos]);
                if (!result)
                    result = &slots[pos];
            }
            pos = (pos + 1) & mask;
            ++dist;
            if (dist == kMaxDist)
                zombie_panic("FlatMap probe length overflow");
        }
    }

    void
    erasePos(std::size_t pos)
    {
        const std::size_t mask = dists.size() - 1;
        // Backward-shift deletion: pull every displaced successor one
        // slot toward its home bucket; no tombstones, so the table
        // never degrades no matter how much churn it sees.
        std::size_t next = (pos + 1) & mask;
        while (dists[next] > 1) {
            slots[pos] = std::move(slots[next]);
            dists[pos] = static_cast<std::uint16_t>(dists[next] - 1);
            pos = next;
            next = (next + 1) & mask;
        }
        slots[pos] = value_type{};
        dists[pos] = 0;
        --used;
    }

    void
    rehash(std::size_t new_cap)
    {
        std::vector<value_type> old_slots = std::move(slots);
        std::vector<std::uint16_t> old_dists = std::move(dists);
        slots.clear();
        slots.resize(new_cap);
        dists.assign(new_cap, 0);
        used = 0;
        for (std::size_t i = 0; i < old_dists.size(); ++i) {
            if (old_dists[i] == 0)
                continue;
            value_type *slot = insertSlot(old_slots[i].first);
            slot->second = std::move(old_slots[i].second);
        }
    }

    std::vector<value_type> slots;
    std::vector<std::uint16_t> dists; //!< probe distance + 1; 0 = empty
    std::size_t used = 0;
    Hash hasher;
};

/** Open-addressing hash set over FlatMap's probing machinery. */
template <typename Key, typename Hash = FlatHash<Key>>
class FlatSet
{
  public:
    /** @return true if @p key was inserted (false: already present). */
    bool
    insert(const Key &key)
    {
        const std::size_t before = map.size();
        map[key];
        return map.size() != before;
    }

    std::size_t erase(const Key &key) { return map.erase(key); }
    bool contains(const Key &key) const { return map.contains(key); }
    std::size_t count(const Key &key) const { return map.count(key); }
    std::size_t size() const { return map.size(); }
    bool empty() const { return map.empty(); }
    void reserve(std::size_t n) { map.reserve(n); }
    void clear() { map.clear(); }

  private:
    struct Empty
    {
    };

    FlatMap<Key, Empty, Hash> map;
};

} // namespace zombie

#endif // ZOMBIE_UTIL_FLAT_MAP_HH
