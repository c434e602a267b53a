// Throughput of the host-side byte kernels of the burn pipeline, scalar
// reference vs the production tier, printed as one JSON document so the
// speedups land in the bench trajectory:
//
//   {"buffer_bytes":...,"kernels":[
//     {"kernel":"mulacc","scalar_mb_s":...,"sliced_mb_s":...,
//      "speedup":...,"identical":true}, ...]}
//
// Rows: the GF(2^8) parity kernels (word-sliced / split-nibble tier), the
// CRC-32 that checksums every image stream (bytewise vs the dispatched
// Crc32, which is the PCLMULQDQ tier where the CPU has it; `crc32_sliced`
// keeps the portable slicing-by-8 tier timed and checked on such hosts),
// and audit-leaf hashing (a per-leaf Fnv1a64 loop vs AuditLeafHashes'
// interleaved chains).
//
// Each pair also runs a differential check (same inputs through both tiers
// must produce identical output), so a reported speedup can never come
// from a wrong kernel; the program exits 1 if any row is not identical.
// Host wall-clock time, not simulated time.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "src/common/gf256.h"
#include "src/common/hash.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/olfs/audit.h"
#include "src/olfs/params.h"

namespace {

using namespace ros;
using Buffer = std::vector<std::uint8_t>;

constexpr std::size_t kBufferBytes = 1 << 20;  // 1 MiB per stream
constexpr double kMinSeconds = 0.2;

Buffer RandomBuffer(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Buffer out(n);
  for (auto& b : out) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return out;
}

// Runs `op` until kMinSeconds of wall clock elapse; returns MB/s of payload
// swept (bytes_per_call per invocation).
double MeasureMbPerSec(std::size_t bytes_per_call,
                       const std::function<void()>& op) {
  // ros_analyze: allow(wallclock): host-side kernel-throughput timing;
  // never feeds simulator state.
  using Clock = std::chrono::steady_clock;
  op();  // warm the tables and the cache
  std::uint64_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 8; ++i) {
      op();
    }
    calls += 8;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < kMinSeconds);
  return static_cast<double>(calls) * static_cast<double>(bytes_per_call) /
         elapsed / 1e6;
}

struct KernelResult {
  std::string kernel;
  double scalar_mb_s = 0;
  double sliced_mb_s = 0;
  bool identical = false;
};

json::Value ToJson(const KernelResult& r) {
  json::Object o;
  o["kernel"] = r.kernel;
  o["scalar_mb_s"] = r.scalar_mb_s;
  o["sliced_mb_s"] = r.sliced_mb_s;
  o["speedup"] = r.scalar_mb_s > 0 ? r.sliced_mb_s / r.scalar_mb_s : 0.0;
  o["identical"] = r.identical;
  return o;
}

}  // namespace

int main() {
  const Buffer in = RandomBuffer(kBufferBytes, 1);
  const Buffer acc0 = RandomBuffer(kBufferBytes, 2);
  const Buffer q0 = RandomBuffer(kBufferBytes, 3);
  const std::uint8_t coeff = gf256::Pow2(7);
  std::vector<KernelResult> results;

  {
    KernelResult r{.kernel = "xor"};
    Buffer a = acc0;
    Buffer b = acc0;
    gf256::XorAccScalar(a, in);
    gf256::XorAcc(b, in);
    r.identical = a == b;
    r.scalar_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::XorAccScalar(a, in); });
    r.sliced_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::XorAcc(b, in); });
    results.push_back(r);
  }

  {
    KernelResult r{.kernel = "mulacc"};
    Buffer a = acc0;
    Buffer b = acc0;
    gf256::MulAccScalar(a, coeff, in);
    gf256::MulAcc(b, coeff, in);
    r.identical = a == b;
    r.scalar_mb_s = MeasureMbPerSec(
        kBufferBytes, [&] { gf256::MulAccScalar(a, coeff, in); });
    r.sliced_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::MulAcc(b, coeff, in); });
    results.push_back(r);
  }

  {
    KernelResult r{.kernel = "scale"};
    Buffer a = acc0;
    Buffer b = acc0;
    gf256::ScaleScalar(a, coeff);
    gf256::Scale(b, coeff);
    r.identical = a == b;
    r.scalar_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::ScaleScalar(a, coeff); });
    r.sliced_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::Scale(b, coeff); });
    results.push_back(r);
  }

  {
    // The fused kernel's scalar baseline is what ParityBuilder::Build used
    // to do: one XOR pass for P plus one multiply pass for Q — two sweeps
    // of the member stream. "Payload" is the member bytes, so MB/s is
    // member throughput, directly comparable across variants.
    KernelResult r{.kernel = "pq_fused"};
    Buffer ps = acc0, pf = acc0, qf = q0;
    gf256::XorAccScalar(ps, in);
    Buffer q2 = q0;
    gf256::ScaleScalar(q2, 2);
    gf256::XorAccScalar(q2, in);  // 2q ^ d, the Horner step
    gf256::PQAcc(pf, qf, in);
    r.identical = pf == ps && qf == q2;
    Buffer p1 = acc0, q1 = q0;
    r.scalar_mb_s = MeasureMbPerSec(kBufferBytes, [&] {
      gf256::XorAccScalar(p1, in);
      gf256::MulAccScalar(q1, coeff, in);
    });
    Buffer p3 = acc0, q3 = q0;
    r.sliced_mb_s =
        MeasureMbPerSec(kBufferBytes, [&] { gf256::PQAcc(p3, q3, in); });
    results.push_back(r);
  }

  {
    KernelResult r{.kernel = "solve_two"};
    Buffer da1(kBufferBytes), db1(kBufferBytes);
    Buffer da2(kBufferBytes), db2(kBufferBytes);
    const std::uint8_t ga = gf256::Pow2(3), gb = gf256::Pow2(9);
    gf256::SolveTwoScalar(da1, db1, acc0, q0, ga, gb);
    gf256::SolveTwo(da2, db2, acc0, q0, ga, gb);
    r.identical = da1 == da2 && db1 == db2;
    r.scalar_mb_s = MeasureMbPerSec(kBufferBytes, [&] {
      gf256::SolveTwoScalar(da1, db1, acc0, q0, ga, gb);
    });
    r.sliced_mb_s = MeasureMbPerSec(
        kBufferBytes, [&] { gf256::SolveTwo(da2, db2, acc0, q0, ga, gb); });
    results.push_back(r);
  }

  {
    // Odd lengths and a seed exercise each tier's tail and chaining.
    const std::span<const std::uint8_t> odd(in.data() + 3, in.size() - 10);
    auto crc_row = [&](std::string kernel, auto crc) {
      KernelResult r{.kernel = std::move(kernel)};
      r.identical = crc(in, 0) == Crc32Bytewise(in) &&
                    crc(odd, 0x1234u) == Crc32Bytewise(odd, 0x1234u);
      volatile std::uint32_t sink = 0;  // keeps the pure calls alive
      r.scalar_mb_s =
          MeasureMbPerSec(kBufferBytes, [&] { sink = Crc32Bytewise(in); });
      r.sliced_mb_s = MeasureMbPerSec(kBufferBytes, [&] { sink = crc(in, 0); });
      results.push_back(r);
    };
    crc_row("crc32", &Crc32);
    crc_row("crc32_sliced", &internal::Crc32Sliced);
  }

  {
    // 7.5 leaves and 6 leaves plus 5 bytes: whole groups of four, a group
    // whose last leaf is short, and a group of three.
    KernelResult r{.kernel = "audit_leaf"};
    const std::uint64_t leaf = olfs::OlfsParams{}.audit_leaf_bytes;
    const Buffer leaf_in = RandomBuffer(7 * leaf + leaf / 2 + 3, 4);
    auto per_leaf = [&](std::span<const std::uint8_t> data) {
      std::vector<std::uint64_t> leaves;
      for (std::size_t at = 0; at < data.size(); at += leaf) {
        const std::size_t n = std::min<std::size_t>(leaf, data.size() - at);
        leaves.push_back(Fnv1a64(data.subspan(at, n)));
      }
      return leaves;
    };
    const std::span<const std::uint8_t> leftover(leaf_in.data(),
                                                 6 * leaf + 5);
    r.identical = per_leaf(leaf_in) == olfs::AuditLeafHashes(leaf_in, leaf) &&
                  per_leaf(leftover) == olfs::AuditLeafHashes(leftover, leaf);
    volatile std::uint64_t sink = 0;
    r.scalar_mb_s = MeasureMbPerSec(
        leaf_in.size(), [&] { sink = per_leaf(leaf_in).back(); });
    r.sliced_mb_s = MeasureMbPerSec(leaf_in.size(), [&] {
      sink = olfs::AuditLeafHashes(leaf_in, leaf).back();
    });
    results.push_back(r);
  }

  json::Object doc;
  doc["buffer_bytes"] = static_cast<std::int64_t>(kBufferBytes);
  json::Array kernels;
  bool all_identical = true;
  for (const KernelResult& r : results) {
    kernels.push_back(ToJson(r));
    all_identical = all_identical && r.identical;
  }
  doc["kernels"] = std::move(kernels);
  std::printf("%s\n", json::Value(doc).DumpPretty().c_str());
  if (!all_identical) {
    std::fprintf(stderr, "a kernel disagrees with its reference\n");
    return 1;
  }
  return 0;
}
