// FNV-1a fingerprint of a TransferReport, for golden pins of the transfer
// drivers: every integer field, the bit patterns of the reported times and
// latency quantiles, and every client completion in order.
#pragma once

#include <cstdint>
#include <cstring>

#include "harness/transfer.hpp"

namespace rmrn::harness {

template <typename T>
void fnv1aMix(std::uint64_t& h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
}

inline std::uint64_t reportHash(const TransferReport& report) {
  std::uint64_t h = 14695981039346656037ULL;
  fnv1aMix(h, report.complete);
  fnv1aMix(h, static_cast<std::uint64_t>(report.losses));
  fnv1aMix(h, static_cast<std::uint64_t>(report.recoveries));
  fnv1aMix(h, report.data_hops);
  fnv1aMix(h, report.recovery_hops);
  fnv1aMix(h, report.duration_ms);
  fnv1aMix(h, report.recovery_latency.p50);
  fnv1aMix(h, report.recovery_latency.p99);
  for (const ClientCompletion& c : report.completions) {
    fnv1aMix(h, c.client);
    fnv1aMix(h, c.completed_at_ms);
    fnv1aMix(h, static_cast<std::uint64_t>(c.losses));
  }
  return h;
}

}  // namespace rmrn::harness
