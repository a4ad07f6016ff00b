/**
 * @file
 * Grow-only memo table keyed on short runs of packed u64 words.
 *
 * The evaluation engine memoizes every model component on exactly the
 * inputs it reads, packed into a few u64 words (line counts, latencies,
 * double bit patterns, port masks). Memo is the one lookup mechanism
 * behind all of those tables:
 *
 *  - the key is a run of u64 words, packed into the memo's reusable key
 *    buffer (key()), so a lookup allocates nothing once the buffer and
 *    the table have grown;
 *  - values live in a deque, so a returned reference stays valid for the
 *    memo's lifetime — inserting later entries never moves it;
 *  - an FNV-1a hash of the words indexes a FlatMap of per-hash chains,
 *    and an exact compare of the stored words decides, so a hash
 *    collision can never return another key's value;
 *  - the entry found or inserted last is compared first, which answers
 *    a repeated key (consecutive design points sharing a level) without
 *    hashing.
 *
 * Not thread-safe; entries are never erased.
 */

#ifndef MIPP_UTIL_MEMO_HH
#define MIPP_UTIL_MEMO_HH

#include <algorithm>
#include <cstdint>
#include <deque>
#include <span>
#include <utility>
#include <vector>

#include "util/flat_map.hh"

namespace mipp {

/** Grow-only u64-word-keyed memo table with stable value addresses. */
template <typename V>
class Memo
{
  public:
    /** Clear and return the key buffer; pack the lookup's words into it,
     *  then call get(). */
    std::vector<uint64_t> &
    key()
    {
        key_.clear();
        return key_;
    }

    /**
     * The value stored for the words in key(); on a miss, `make()` builds
     * it and it is stored. `make` must not look up this memo (it may use
     * any other one).
     */
    template <typename Make>
    V &
    get(Make &&make)
    {
        if (last_ != kNone && matches(entries_[last_]))
            return entries_[last_].value;
        const uint64_t h = hash(key_);
        if (const uint32_t *head = index_.find(h)) {
            for (uint32_t i = *head; i != kNone; i = entries_[i].next) {
                if (matches(entries_[i])) {
                    last_ = i;
                    return entries_[i].value;
                }
            }
        }
        V value = make();
        const auto begin = static_cast<uint32_t>(words_.size());
        words_.insert(words_.end(), key_.begin(), key_.end());
        const auto idx = static_cast<uint32_t>(entries_.size());
        auto [head, fresh] = index_.tryEmplace(h, idx);
        entries_.push_back({std::move(value), begin,
                            static_cast<uint32_t>(words_.size()),
                            fresh ? kNone : std::exchange(head, idx)});
        last_ = idx;
        return entries_.back().value;
    }

    /** FNV-1a over the key words (the index's bucket key). */
    static uint64_t
    hash(std::span<const uint64_t> words)
    {
        uint64_t h = kFnvOffset;
        for (uint64_t w : words) {
            h ^= w;
            h *= kFnvPrime;
        }
        return h;
    }

    static constexpr uint64_t kFnvOffset = 1469598103934665603ull;
    static constexpr uint64_t kFnvPrime = 1099511628211ull;

  private:
    static constexpr uint32_t kNone = ~uint32_t{0};

    struct Entry {
        V value;
        uint32_t begin, end;  ///< its key is words_[begin, end)
        uint32_t next;        ///< next older entry with its hash, or kNone
    };

    /** Whether @p e was stored under the words in key_. */
    bool
    matches(const Entry &e) const
    {
        return std::equal(key_.begin(), key_.end(), words_.begin() + e.begin,
                          words_.begin() + e.end);
    }

    std::vector<uint64_t> key_;
    std::deque<Entry> entries_;
    std::vector<uint64_t> words_;
    /** Hash -> newest entry with that hash. */
    FlatMap<uint32_t> index_;
    uint32_t last_ = kNone;
};

} // namespace mipp

#endif // MIPP_UTIL_MEMO_HH
