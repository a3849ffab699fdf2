//===- LogLinear.h - Log-linear histogram bucketing -------------*- C++ -*-===//
//
// Part of the earthcc project: a reproduction of "Communication Optimizations
// for Parallel C Programs" (Zhu & Hendren, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fixed log-linear bucketing behind both of the project's histograms:
/// the comm profiler's per-site latencies (SiteProfile, LogLinear<4>) and
/// the metrics registry's histograms (Histogram, LogLinear<2>). With
/// SubBits = b, each value below 2^b has a bucket of its own, and each
/// octave [2^E, 2^(E+1)) above is split into 2^b equal sub-buckets, up to
/// 2^64. Memory is fixed, a bucket is at most 2^-b of its lower bound wide,
/// and percentiles are exact functions of the recorded multiset.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_LOGLINEAR_H
#define EARTHCC_SUPPORT_LOGLINEAR_H

#include <algorithm>
#include <bit>
#include <cstdint>

namespace earthcc {

template <unsigned SubBits> struct LogLinear {
  static constexpr unsigned SubBuckets = 1u << SubBits;
  /// SubBuckets exact buckets, then SubBuckets per octave for the exponents
  /// SubBits through 63.
  static constexpr unsigned NumBuckets = SubBuckets * (65 - SubBits);

  /// Bucket index of \p V: V itself below 2^SubBits, else its octave and
  /// the SubBits bits below its top bit.
  static unsigned bucketOf(uint64_t V) {
    if (V < SubBuckets)
      return static_cast<unsigned>(V);
    unsigned E = 63 - static_cast<unsigned>(std::countl_zero(V));
    unsigned Sub = static_cast<unsigned>((V >> (E - SubBits)) &
                                         (SubBuckets - 1));
    return std::min(SubBuckets * (E - SubBits + 1) + Sub, NumBuckets - 1);
  }

  /// Inclusive lower bound of bucket \p B.
  static uint64_t bucketLowNs(unsigned B) {
    if (B < SubBuckets)
      return B;
    unsigned E = B / SubBuckets + SubBits - 1;
    return (uint64_t(1) << E) | (uint64_t(B % SubBuckets) << (E - SubBits));
  }

  /// Percentile \p P (0 < P <= 100) of \p Count samples whose per-bucket
  /// counts \p BucketAt(B) returns: the lower bound of the bucket holding
  /// the ceil(P% * Count)-th smallest sample, 0 when Count is 0, and \p Max
  /// when the buckets hold fewer than that many samples.
  template <typename BucketFn>
  static uint64_t percentile(double P, uint64_t Count, BucketFn &&BucketAt,
                             uint64_t Max) {
    if (!Count)
      return 0;
    // A fractional rank rounds up, and the rank clamps to [1, Count], so
    // the walk stays in bounds for any P and a single sample is every
    // percentile of itself.
    double Exact = P * static_cast<double>(Count) / 100.0;
    uint64_t Rank = static_cast<uint64_t>(Exact);
    if (static_cast<double>(Rank) < Exact)
      ++Rank;
    Rank = std::max<uint64_t>(1, std::min(Rank, Count));
    uint64_t Seen = 0;
    for (unsigned B = 0; B != NumBuckets; ++B) {
      Seen += BucketAt(B);
      if (Seen >= Rank)
        return bucketLowNs(B);
    }
    return Max;
  }
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_LOGLINEAR_H
