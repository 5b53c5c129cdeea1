// Dense dynamic bitset with fast "next set bit" queries.
//
// Backs the per-slice set of non-empty interconnect virtual queues: the L2
// arbitration loop needs "first non-empty queue at or after the round-robin
// pointer", which a word-scan with count-trailing-zeros answers in O(1) for
// the common <= 64-SM case instead of probing every per-SM deque. It also
// backs each slice's sets of capacity-blocked queue heads, which the same
// scan excludes word-wise while the slice has no room for them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpumas::sim {

class DynBitset {
 public:
  explicit DynBitset(size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  void set(size_t i) { words_[i >> 6] |= 1ull << (i & 63); }
  void clear(size_t i) { words_[i >> 6] &= ~(1ull << (i & 63)); }
  bool test(size_t i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

  bool any() const {
    for (const uint64_t w : words_) {
      if (w) return true;
    }
    return false;
  }

  // Lowest set index >= i, or -1 when no set bit remains at or after i.
  int find_at_or_after(size_t i) const {
    if (i >= n_) return -1;
    return scan(i, [this](size_t wi) { return words_[wi]; });
  }

  // Lowest index >= i that is set here and clear in both `x` and `y` (sets
  // of the same size), or -1. Pass one set twice to exclude only it.
  int find_at_or_after_excluding(size_t i, const DynBitset& x,
                                 const DynBitset& y) const {
    if (i >= n_) return -1;
    return scan(i, [&](size_t wi) {
      return words_[wi] & ~(x.words_[wi] | y.words_[wi]);
    });
  }

 private:
  // Word-wise scan from bit i over the words `word_at` yields.
  template <typename WordAt>
  int scan(size_t i, WordAt word_at) const {
    size_t wi = i >> 6;
    uint64_t w = word_at(wi) & (~0ull << (i & 63));
    while (true) {
      if (w) {
        return static_cast<int>((wi << 6) +
                                static_cast<size_t>(__builtin_ctzll(w)));
      }
      if (++wi >= words_.size()) return -1;
      w = word_at(wi);
    }
  }

  size_t n_;
  std::vector<uint64_t> words_;
};

}  // namespace gpumas::sim
