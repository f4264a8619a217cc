#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace omr::compress {

/// Inline wire codecs (QuickReduce-style): blockwise quantization applied
/// to packet payloads on both legs of the collective. Elements are grouped
/// in sub-blocks of kCodecGroup; each group carries an fp16 scale (and,
/// for the asymmetric integer codecs, an fp16 zero point) followed by the
/// packed integer codes. kNone leaves the wire format byte-identical to
/// the uncompressed engine.
enum class WireCodec : std::uint8_t {
  kNone = 0,
  kFp8,  // e4m3 codes, per-group amax scale (non-additive: never q-folds)
  kQ8,   // 8-bit asymmetric uniform, per-group (scale, zero)
  kQ6,   // 6-bit asymmetric uniform
  kQ4,   // 4-bit asymmetric uniform
};

/// Elements per (scale, zero) group. QuickReduce uses 32; independent of
/// the engine's sparsity block size (a 256-element block carries 8 groups).
constexpr std::size_t kCodecGroup = 32;

/// Canonical lowercase name ("none", "fp8", "q8", "q6", "q4").
const char* codec_name(WireCodec c);
/// Inverse of codec_name; throws std::invalid_argument for unknown names.
WireCodec codec_from_name(const std::string& name);
/// All codec names, "none" first (CLI `--codec list`, selector candidates).
std::vector<std::string> codec_names();

/// Bits per integer code (0 for kNone, 8 for fp8/q8, 6, 4).
std::size_t codec_code_bits(WireCodec c);
/// Asymptotic wire bits per element including per-group metadata:
/// none 32, fp8 8.5, q8 9, q6 7, q4 5.
double codec_bits_per_element(WireCodec c);
/// Exact encoded payload bytes for `n` elements (partial trailing group
/// packs ceil(k*bits/8) code bytes plus full group metadata). kNone
/// returns n * 4.
std::size_t codec_payload_bytes(WireCodec c, std::size_t n);

/// Round-trip error bound relative to the group's max magnitude:
/// |x - decode(encode(x))| <= codec_rel_error_bound(c) * max|group|.
/// Includes the fp16 rounding of scale/zero. Zero for kNone.
double codec_rel_error_bound(WireCodec c);
/// Additional verification tolerance for a codec-encoded allreduce:
/// n_workers quantized contributions plus the result requantization, with
/// a 2x safety margin. `input_amax` is the max magnitude over the worker
/// input tensors.
double codec_verify_slack(WireCodec c, double input_amax,
                          std::size_t n_workers);

/// Round-to-nearest-even float -> IEEE binary16 -> float. Scales and zero
/// points are passed through this so their wire representation is exact.
float fp16_round(float x);

/// One encoded block payload. `q` holds one integer code per element for
/// the asymmetric codecs; fp8 stores its (already scale-divided) e4m3
/// representatives in `fp` instead, since e4m3 codes are not additive and
/// never fold in the quantized domain. Sizes: scale/zero one per group.
struct EncodedBlock {
  WireCodec codec = WireCodec::kNone;
  std::uint32_t n = 0;
  std::vector<float> scale;       // fp16-representable, one per group
  std::vector<float> zero;        // fp16-representable; int codecs only
  std::vector<std::int32_t> q;    // int codecs: codes in [0, 2^bits)
  std::vector<float> fp;          // fp8: e4m3 values in [-448, 448]

  std::size_t groups() const {
    return (n + kCodecGroup - 1) / kCodecGroup;
  }
  std::size_t payload_bytes() const { return codec_payload_bytes(codec, n); }
};

/// Encode `n` values. Deterministic (round-to-nearest-even throughout).
void encode_block(const float* x, std::size_t n, WireCodec c,
                  EncodedBlock& out);
/// Decode into out[0..e.n): the wire representatives.
void decode_block(const EncodedBlock& e, float* out);

/// Where encode_in_place reports the quantization error, the original
/// value minus its representative.
struct CodecResidual {
  float* err = nullptr;    // err[i] for i < err_n; null: not stored
  std::size_t err_n = 0;
  double sq = 0.0;         // += error^2 over all n, in element order
};

/// encode_block followed by decode_block into `x` itself, in one pass per
/// group: `out` receives the encoding and x[0..n) its representatives,
/// bit-identical to the two calls. Full q8/q6/q4 groups run in SSE2 lanes
/// where available. With `residual`, also reports the error.
void encode_in_place(float* x, std::size_t n, WireCodec c, EncodedBlock& out,
                     CodecResidual* residual = nullptr);
/// In-place encode+decode convenience (tests, trainer compressor).
void codec_roundtrip(float* x, std::size_t n, WireCodec c);

/// Quantized-domain sum accumulator for one slot column (§ aggregator
/// fold). Contributions whose (codec, n, scale, zero) match bitwise fold
/// as exact integer-code sums: sum_w x̂_w = scale * sum_w q_w + k * zero
/// per group, evaluated in double — order-independent and exact up to one
/// final float rounding. Any incompatible contribution (fp8, raw fp32, or
/// mismatched scales) deactivates the accumulator for the round and the
/// caller falls back to the float-domain fold (dequant-fold-requant).
struct QuantAccumulator {
  bool active = false;   // primed and every fold so far was compatible
  std::uint32_t k = 0;   // contributions folded
  WireCodec codec = WireCodec::kNone;
  std::uint32_t n = 0;
  std::vector<float> scale;
  std::vector<float> zero;
  std::vector<std::int64_t> q;

  /// Re-arm for a fresh round.
  void reset();
  /// Fold one contribution; returns the accumulator's post-fold activity.
  /// A null/incompatible contribution (or a raw fp32 one, passed as
  /// nullptr) permanently deactivates until reset().
  bool fold(const EncodedBlock* e);
  /// Decode the accumulated sum into out[0..count). Requires active.
  void decode(float* out, std::size_t count) const;

 private:
  bool compatible(const EncodedBlock& e) const;
};

}  // namespace omr::compress
