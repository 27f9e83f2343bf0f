// Tests for the bitset kernel layer: every kernel must match a per-bit
// reference loop, written here and independent of the word loops, over a
// randomized matrix of capacities, including non-multiple-of-64 ones, plus
// adversarial patterns (all-zero, all-ones, equal, subset). VertexSet-level
// regressions ride along: tail-word hygiene after ResetAll/
// AssignComplementOf, hash-cache invalidation after each word-parallel
// kernel, and VertexSet algebra against the same per-bit reference.

#include "graph/bitset_kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/vertex_set.h"
#include "util/rng.h"

namespace mintri {
namespace {

using Words = std::vector<uint64_t>;

constexpr int kCapacities[] = {1, 63, 64, 65, 640, 1000};
constexpr int kRandomReps = 64;

size_t WordsFor(int capacity) { return (capacity + 63) / 64; }

Words RandomWords(Rng* rng, int capacity, double density) {
  Words w(WordsFor(capacity), 0);
  for (auto& word : w) {
    // Byte-granular density mask over random bits, so low/high densities
    // produce runs and gaps rather than uniform noise.
    uint64_t byte_mask = 0;
    for (int b = 0; b < 8; ++b) {
      if (rng->NextBool(density)) byte_mask |= uint64_t{0xff} << (b * 8);
    }
    word = byte_mask & rng->Next();
  }
  w.back() &= bitset::TailMask(capacity);
  return w;
}

// The per-bit reference: bit i of a word buffer, and a buffer of n words
// built bit by bit from a predicate.
bool Bit(const Words& w, size_t i) { return (w[i / 64] >> (i % 64)) & 1; }

template <typename BitFn>
Words FromBits(size_t n, const BitFn& bit) {
  Words out(n, 0);
  for (size_t i = 0; i < 64 * n; ++i) {
    if (bit(i)) out[i / 64] |= uint64_t{1} << (i % 64);
  }
  return out;
}

// True iff bit i survives a kernel's tail mask: every bit of the words
// before the last, and the masked bits of the last.
bool KeptByTail(size_t i, size_t n, uint64_t tail_mask) {
  return i / 64 + 1 < n || ((tail_mask >> (i % 64)) & 1);
}

// Runs `check(a, b)` over the randomized pattern matrix for one capacity:
// independent random pairs at several densities, equal pairs, subset
// pairs, and the all-zero / all-ones extremes.
template <typename Check>
void ForEachPair(int capacity, const Check& check) {
  Rng rng(0x5eedu + capacity);
  const size_t n = WordsFor(capacity);
  for (int rep = 0; rep < kRandomReps; ++rep) {
    const double density = rep % 3 == 0 ? 0.05 : (rep % 3 == 1 ? 0.5 : 0.95);
    Words a = RandomWords(&rng, capacity, density);
    Words b = RandomWords(&rng, capacity, density);
    check(a, b);
    check(a, a);  // equal operands
    const Words sub =
        FromBits(n, [&](size_t i) { return Bit(a, i) && Bit(b, i); });
    check(sub, a);  // sub ⊆ a
  }
  const Words zero(n, 0);
  const Words ones = FromBits(n, [&](size_t i) {
    return static_cast<int>(i) < capacity;
  });
  check(zero, ones);
  check(ones, zero);
  check(zero, zero);
  check(ones, ones);
}

TEST(BitsetKernelsTest, KernelsMatchPerBitOracle) {
  for (int capacity : kCapacities) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    const size_t n = WordsFor(capacity);
    const size_t bits = 64 * n;
    const uint64_t tail = bitset::TailMask(capacity);
    ForEachPair(capacity, [&](const Words& a, const Words& b) {
      const auto either = [&](size_t i) { return Bit(a, i) || Bit(b, i); };
      const auto both = [&](size_t i) { return Bit(a, i) && Bit(b, i); };
      const auto a_only = [&](size_t i) { return Bit(a, i) && !Bit(b, i); };
      {
        Words got = a;
        bitset::UnionInto(got.data(), b.data(), n);
        EXPECT_EQ(got, FromBits(n, either));
      }
      {
        Words got(n, 0xdeadbeefu);
        bitset::AssignUnion(got.data(), a.data(), b.data(), n);
        EXPECT_EQ(got, FromBits(n, either));
      }
      {
        Words got = a;
        bitset::IntersectInto(got.data(), b.data(), n);
        EXPECT_EQ(got, FromBits(n, both));
      }
      {
        Words got = a;
        bitset::MinusInto(got.data(), b.data(), n);
        EXPECT_EQ(got, FromBits(n, a_only));
      }
      {
        // Tail hygiene: bits above the capacity must come out zero.
        Words got(n, 0);
        bitset::ComplementInto(got.data(), a.data(), n, tail);
        EXPECT_EQ(got, FromBits(n, [&](size_t i) {
                    return !Bit(a, i) && KeptByTail(i, n, tail);
                  }));
      }
      {
        Words got(n, 0);
        bitset::FillOnes(got.data(), n, tail);
        EXPECT_EQ(got, FromBits(n, [&](size_t i) {
                    return KeptByTail(i, n, tail);
                  }));
      }
      bool any_a = false, equal = true, subset = true, meet = false;
      int count = 0, first = -1;
      for (size_t i = 0; i < bits; ++i) {
        any_a |= Bit(a, i);
        equal &= Bit(a, i) == Bit(b, i);
        subset &= !a_only(i);
        meet |= both(i);
        count += Bit(a, i);
        if (first < 0 && Bit(a, i)) first = static_cast<int>(i);
      }
      EXPECT_EQ(bitset::IsZero(a.data(), n), !any_a);
      EXPECT_EQ(bitset::Equal(a.data(), b.data(), n), equal);
      EXPECT_EQ(bitset::IsSubset(a.data(), b.data(), n), subset);
      EXPECT_EQ(bitset::Intersects(a.data(), b.data(), n), meet);
      EXPECT_EQ(bitset::Popcount(a.data(), n), count);
      EXPECT_EQ(bitset::FirstSet(a.data(), n), first);
      {
        // BFS step: a=reach, b=removed, component seeded with a ∩ b so the
        // step sees a mix of already-visited, removed, and fresh bits;
        // the neighborhood accumulator starts as b.
        const Words comp = FromBits(n, both);
        const auto fresh = [&](size_t i) {
          return Bit(a, i) && !Bit(b, i) && !Bit(comp, i);
        };
        Words comp_got = comp, front_got(n, 0), nb_got = b, reach_got = a;
        const uint64_t any =
            bitset::BfsFusedStep(comp_got.data(), front_got.data(),
                                 nb_got.data(), reach_got.data(), b.data(), n);
        bool any_fresh = false;
        for (size_t i = 0; i < bits; ++i) any_fresh |= fresh(i);
        EXPECT_EQ(any != 0, any_fresh);
        EXPECT_EQ(comp_got, FromBits(n, [&](size_t i) {
                    return Bit(comp, i) || fresh(i);
                  }));
        EXPECT_EQ(front_got, FromBits(n, fresh));
        EXPECT_EQ(nb_got, FromBits(n, either));
        EXPECT_EQ(reach_got, Words(n, 0));
      }
    });
  }
}

TEST(BitsetKernelsTest, TailMask) {
  EXPECT_EQ(bitset::TailMask(64), ~uint64_t{0});
  EXPECT_EQ(bitset::TailMask(128), ~uint64_t{0});
  EXPECT_EQ(bitset::TailMask(1), uint64_t{1});
  EXPECT_EQ(bitset::TailMask(63), ~uint64_t{0} >> 1);
  EXPECT_EQ(bitset::TailMask(65), uint64_t{1});
}

// --- VertexSet-level regressions over the kernel layer -------------------

TEST(BitsetKernelsTest, ResetAllAndComplementKeepTailBitsZero) {
  for (int capacity : kCapacities) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    VertexSet s;
    s.ResetAll(capacity);
    EXPECT_EQ(s.Count(), capacity);
    EXPECT_EQ(s.word_data()[s.word_count() - 1] &
                  ~bitset::TailMask(capacity),
              0u);

    VertexSet c;
    c.AssignComplementOf(VertexSet(capacity));  // complement of empty = all
    EXPECT_EQ(c, s);
    EXPECT_EQ(c.word_data()[c.word_count() - 1] &
                  ~bitset::TailMask(capacity),
              0u);

    // Complement of the full set is empty — any stray tail bit would make
    // this nonzero.
    VertexSet e;
    e.AssignComplementOf(s);
    EXPECT_TRUE(e.Empty());
    EXPECT_EQ(e.Count(), 0);
  }
}

// Every word-parallel mutator must leave the cached hash either valid and
// correct or invalidated; equal element sets built through different
// operation sequences must agree on Hash().
TEST(BitsetKernelsTest, HashCacheSurvivesEveryWordParallelKernel) {
  for (int capacity : kCapacities) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    Rng rng(0xabcdu + capacity);
    for (int rep = 0; rep < 8; ++rep) {
      VertexSet a(capacity), b(capacity);
      for (int v = 0; v < capacity; ++v) {
        if (rng.NextBool(0.3)) a.Insert(v);
        if (rng.NextBool(0.3)) b.Insert(v);
      }
      const auto check = [&](VertexSet s) {
        (void)s.Hash();  // warm the cache so staleness would be visible
        return s;
      };

      VertexSet u = check(a);
      u.UnionWith(b);
      EXPECT_EQ(u.Hash(), VertexSet::FromVector(capacity, u.ToVector()).Hash());

      VertexSet i = check(a);
      i.IntersectWith(b);
      EXPECT_EQ(i.Hash(), VertexSet::FromVector(capacity, i.ToVector()).Hash());

      VertexSet m = check(a);
      m.MinusWith(b);
      EXPECT_EQ(m.Hash(), VertexSet::FromVector(capacity, m.ToVector()).Hash());

      VertexSet au = check(a);
      au.AssignUnionOf(a, b);
      EXPECT_EQ(au.Hash(),
                VertexSet::FromVector(capacity, au.ToVector()).Hash());

      VertexSet ac = check(a);
      ac.AssignComplementOf(a);
      EXPECT_EQ(ac.Hash(),
                VertexSet::FromVector(capacity, ac.ToVector()).Hash());

      VertexSet ra = check(a);
      ra.ResetAll(capacity);
      EXPECT_EQ(ra.Hash(), VertexSet::All(capacity).Hash());
    }
  }
}

// VertexSet algebra must agree with the per-bit reference bit for bit.
TEST(BitsetKernelsTest, VertexSetAlgebraMatchesPerBitOracle) {
  for (int capacity : kCapacities) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    Rng rng(0xf00du + capacity);
    for (int rep = 0; rep < 8; ++rep) {
      VertexSet a(capacity), b(capacity);
      for (int v = 0; v < capacity; ++v) {
        if (rng.NextBool(0.4)) a.Insert(v);
        if (rng.NextBool(0.4)) b.Insert(v);
      }
      const size_t n = a.word_count();
      const Words wa(a.word_data(), a.word_data() + n);
      const Words wb(b.word_data(), b.word_data() + n);
      const auto words_of = [&](const VertexSet& s) {
        return Words(s.word_data(), s.word_data() + n);
      };

      EXPECT_EQ(words_of(a.Union(b)), FromBits(n, [&](size_t i) {
                  return Bit(wa, i) || Bit(wb, i);
                }));
      EXPECT_EQ(words_of(a.Intersect(b)), FromBits(n, [&](size_t i) {
                  return Bit(wa, i) && Bit(wb, i);
                }));
      EXPECT_EQ(words_of(a.Minus(b)), FromBits(n, [&](size_t i) {
                  return Bit(wa, i) && !Bit(wb, i);
                }));

      bool subset = true, meet = false;
      int count = 0, first = -1;
      for (int v = 0; v < capacity; ++v) {
        const bool in_a = Bit(wa, v), in_b = Bit(wb, v);
        subset &= !in_a || in_b;
        meet |= in_a && in_b;
        count += in_a;
        if (first < 0 && in_a) first = v;
      }
      EXPECT_EQ(a.IsSubsetOf(b), subset);
      EXPECT_EQ(a.Intersects(b), meet);
      EXPECT_EQ(a.Count(), count);
      EXPECT_EQ(a.First(), first);
    }
  }
}

}  // namespace
}  // namespace mintri
