#include "compress/wire_codec.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace omr::compress {

namespace {

/// float -> IEEE binary16 bits, round-to-nearest-even. Out-of-range
/// magnitudes clamp to the largest finite half (65504); the codecs only
/// pass scales/zero points derived from finite inputs.
std::uint16_t f32_to_f16(float f) {
  std::uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  const std::uint16_t sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000u);
  std::uint32_t abs = bits & 0x7fffffffu;
  if (abs >= 0x7f800000u) {
    // Inf/NaN: clamp Inf to max finite, keep NaN as a quiet half NaN.
    return abs > 0x7f800000u ? static_cast<std::uint16_t>(sign | 0x7e00u)
                             : static_cast<std::uint16_t>(sign | 0x7bffu);
  }
  if (abs >= 0x477ff000u) {
    // Rounds to >= 65520: clamp to 65504 (no half infinities on the wire).
    return static_cast<std::uint16_t>(sign | 0x7bffu);
  }
  if (abs < 0x38800000u) {
    // Half-subnormal range (< 2^-14): quantize to multiples of 2^-24.
    if (abs < 0x33000000u) return sign;  // < 2^-25 rounds to zero
    // |x| = mant * 2^(e - 150) for the biased exponent e, so in units of
    // 2^-24 it is mant >> (126 - e).
    const int shift = 126 - static_cast<int>(abs >> 23);  // in [14, 24]
    std::uint32_t mant = (abs & 0x007fffffu) | 0x00800000u;
    const std::uint32_t lsb = std::uint32_t{1} << shift;
    const std::uint32_t rest = mant & (lsb - 1);
    mant >>= shift;
    if (rest > (lsb >> 1) || (rest == (lsb >> 1) && (mant & 1u))) ++mant;
    return static_cast<std::uint16_t>(sign | mant);
  }
  // Normal range: drop 13 mantissa bits with RNE, rebias exponent.
  const std::uint32_t lsb = 1u << 13;
  const std::uint32_t rest = abs & (lsb - 1);
  std::uint32_t half = ((abs >> 23) - 112u) << 10 | ((abs >> 13) & 0x3ffu);
  if (rest > (lsb >> 1) || (rest == (lsb >> 1) && (half & 1u))) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

float f16_to_f32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  std::uint32_t abs = h & 0x7fffu;
  std::uint32_t bits;
  if (abs >= 0x7c00u) {
    bits = sign | 0x7f800000u | ((abs & 0x3ffu) << 13);  // inf/nan
  } else if (abs >= 0x0400u) {
    bits = sign | ((abs + (112u << 10)) << 13);  // normal
  } else if (abs != 0) {
    // Subnormal half: renormalize.
    int shift = 0;
    while ((abs & 0x0400u) == 0) {
      abs <<= 1;
      ++shift;
    }
    bits = sign | ((113u - static_cast<std::uint32_t>(shift)) << 23) |
           ((abs & 0x3ffu) << 13);
  } else {
    bits = sign;
  }
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Quantize a scale-normalized value to e4m3 (3 mantissa bits, max normal
/// 448, subnormal step 2^-9), round-to-nearest-even via the default FP
/// environment. Input is finite and already clamped by the caller's scale
/// so |v| <= ~448 up to fp16 scale rounding slack.
float quantize_e4m3(float v) {
  if (v == 0.0f) return 0.0f;
  const float a = std::fabs(v);
  if (a >= 448.0f) return std::copysign(448.0f, v);
  int exp = 0;
  std::frexp(a, &exp);  // a = m * 2^exp, m in [0.5, 1)
  // Normals span binades 2^-6..2^8 (frexp exp -5..9); below that the
  // subnormal ladder has a fixed 2^-9 step.
  if (exp < -5) {
    const float q = std::nearbyintf(a * 512.0f) / 512.0f;
    return std::copysign(q, v);
  }
  const float step = std::ldexp(1.0f, exp - 4);  // 2^(exp-1) / 2^3
  float q = std::nearbyintf(a / step) * step;
  if (q > 448.0f) q = 448.0f;
  return std::copysign(q, v);
}

std::size_t group_count(std::size_t n) {
  return (n + kCodecGroup - 1) / kCodecGroup;
}

std::size_t meta_bytes_per_group(WireCodec c) {
  switch (c) {
    case WireCodec::kNone: return 0;
    case WireCodec::kFp8: return 2;  // fp16 scale
    default: return 4;               // fp16 scale + fp16 zero
  }
}

}  // namespace

const char* codec_name(WireCodec c) {
  switch (c) {
    case WireCodec::kNone: return "none";
    case WireCodec::kFp8: return "fp8";
    case WireCodec::kQ8: return "q8";
    case WireCodec::kQ6: return "q6";
    case WireCodec::kQ4: return "q4";
  }
  return "none";
}

WireCodec codec_from_name(const std::string& name) {
  if (name == "none" || name.empty()) return WireCodec::kNone;
  if (name == "fp8") return WireCodec::kFp8;
  if (name == "q8") return WireCodec::kQ8;
  if (name == "q6") return WireCodec::kQ6;
  if (name == "q4") return WireCodec::kQ4;
  throw std::invalid_argument("unknown wire codec '" + name +
                              "'; known: none fp8 q8 q6 q4");
}

std::vector<std::string> codec_names() {
  return {"none", "fp8", "q8", "q6", "q4"};
}

std::size_t codec_code_bits(WireCodec c) {
  switch (c) {
    case WireCodec::kNone: return 0;
    case WireCodec::kFp8: return 8;
    case WireCodec::kQ8: return 8;
    case WireCodec::kQ6: return 6;
    case WireCodec::kQ4: return 4;
  }
  return 0;
}

double codec_bits_per_element(WireCodec c) {
  if (c == WireCodec::kNone) return 32.0;
  return static_cast<double>(codec_code_bits(c)) +
         8.0 * static_cast<double>(meta_bytes_per_group(c)) /
             static_cast<double>(kCodecGroup);
}

std::size_t codec_payload_bytes(WireCodec c, std::size_t n) {
  if (c == WireCodec::kNone) return n * 4;
  const std::size_t bits = codec_code_bits(c);
  std::size_t bytes = 0;
  const std::size_t full = n / kCodecGroup;
  bytes += full * ((kCodecGroup * bits) / 8 + meta_bytes_per_group(c));
  const std::size_t tail = n % kCodecGroup;
  if (tail > 0) bytes += (tail * bits + 7) / 8 + meta_bytes_per_group(c);
  return bytes;
}

double codec_rel_error_bound(WireCodec c) {
  // Asymmetric codecs: half a quantization step over the group's range
  // (<= 2*amax), inflated ~40% for the fp16 rounding of scale/zero and
  // the resulting clamp at the range ends.
  switch (c) {
    case WireCodec::kNone: return 0.0;
    case WireCodec::kFp8: return 0.04;          // 16/448 + fp16 scale slack
    case WireCodec::kQ8: return 1.4 / 255.0 + 1e-3;
    case WireCodec::kQ6: return 1.4 / 63.0 + 1e-3;
    case WireCodec::kQ4: return 1.4 / 15.0 + 1e-3;
  }
  return 0.0;
}

double codec_verify_slack(WireCodec c, double input_amax,
                          std::size_t n_workers) {
  // Each worker contributes one quantization error bounded by its group
  // amax <= input_amax; the emitted result is requantized once at a
  // magnitude up to n_workers * input_amax. Factor 2 margin on top.
  const double rel = codec_rel_error_bound(c);
  const double nw = static_cast<double>(n_workers);
  return 2.0 * rel * input_amax * (nw + nw + 1.0);
}

float fp16_round(float x) { return f16_to_f32(f32_to_f16(x)); }

namespace {

/// Resize `out` for `n` values of codec `c`. Reused vectors keep their
/// storage, and every element is overwritten by the encoder.
void shape(EncodedBlock& out, WireCodec c, std::size_t n) {
  const bool coded = c != WireCodec::kNone && n > 0;
  const bool ints = coded && c != WireCodec::kFp8;
  out.codec = c;
  out.n = static_cast<std::uint32_t>(n);
  out.scale.resize(coded ? group_count(n) : 0);
  out.zero.resize(ints ? group_count(n) : 0);
  out.q.resize(ints ? n : 0);
  out.fp.resize(coded && !ints ? n : 0);
}

void encode_fp8(const float* x, std::size_t n, EncodedBlock& out) {
  for (std::size_t g = 0; g < out.scale.size(); ++g) {
    const std::size_t lo = g * kCodecGroup;
    const std::size_t hi = std::min(lo + kCodecGroup, n);
    float amax = 0.0f;
    for (std::size_t i = lo; i < hi; ++i) {
      amax = std::max(amax, std::fabs(x[i]));
    }
    const float scale = amax > 0.0f ? fp16_round(amax / 448.0f) : 0.0f;
    out.scale[g] = scale;
    for (std::size_t i = lo; i < hi; ++i) {
      out.fp[i] = scale > 0.0f ? quantize_e4m3(x[i] / scale) : 0.0f;
    }
  }
}

/// One integer-codec group being encoded: its values x[0..k), where its
/// codes, representatives (null: not wanted) and errors (null: not
/// wanted) go, and the group's (zero, scale) once known.
struct Group {
  const float* x;
  std::size_t k;
  std::int32_t* q;
  float* rep;  // may alias x
  float* err;
  float zero = 0.0f;
  float scale = 0.0f;

  void set_range(float mn, float mx, float levels) {
    zero = fp16_round(mn);
    scale = fp16_round((mx - zero) / levels);
  }
};

/// The scalar group kernel. The range folds in element order: std::min and
/// std::max keep the first of tied ±0 and skip a NaN unless it leads.
/// Codes are clamped in float: a value far past the fp16 range would
/// overflow the int conversion. A NaN element takes code 0.
void encode_group_scalar(Group& g, float levels) {
  float mn = g.x[0], mx = g.x[0];
  for (std::size_t i = 1; i < g.k; ++i) {
    mn = std::min(mn, g.x[i]);
    mx = std::max(mx, g.x[i]);
  }
  g.set_range(mn, mx, levels);
  for (std::size_t i = 0; i < g.k; ++i) {
    const float x = g.x[i];
    float q = 0.0f;
    if (g.scale > 0.0f) {
      q = std::nearbyintf((x - g.zero) / g.scale);
      q = q > 0.0f ? std::min(q, levels) : 0.0f;
    }
    g.q[i] = static_cast<std::int32_t>(q);
    if (g.rep == nullptr) continue;
    const float r = g.scale * static_cast<float>(g.q[i]) + g.zero;
    g.rep[i] = r;
    if (g.err != nullptr) g.err[i] = x - r;
  }
}

#if defined(__SSE2__)
/// The SSE2 group kernel for encode_in_place: a full group, four lanes at
/// a time, always writing the representatives. Returns false, having
/// written nothing, for a group the scalar kernel must take: one holding
/// a NaN or an inf, or whose min or max is ±0 (lane order would change
/// which of tied zeros wins). Otherwise the range is unique
/// and each step below is the scalar kernel's: a true division, round to
/// nearest even (the default MXCSR mode) after clamping to [0, levels],
/// and the representative as a separate multiply and add.
bool encode_group_sse2(Group& g, float levels) {
  static_assert(kCodecGroup % 4 == 0);
  __m128 v = _mm_loadu_ps(g.x);
  __m128 lo = v, hi = v;
  __m128 finite = _mm_sub_ps(v, v);  // +0, or NaN for a NaN or an inf
  for (std::size_t i = 4; i < kCodecGroup; i += 4) {
    v = _mm_loadu_ps(g.x + i);
    lo = _mm_min_ps(lo, v);
    hi = _mm_max_ps(hi, v);
    finite = _mm_add_ps(finite, _mm_sub_ps(v, v));
  }
  if (_mm_movemask_ps(_mm_cmpunord_ps(finite, finite)) != 0) return false;
  lo = _mm_min_ps(lo, _mm_shuffle_ps(lo, lo, _MM_SHUFFLE(1, 0, 3, 2)));
  lo = _mm_min_ps(lo, _mm_shuffle_ps(lo, lo, _MM_SHUFFLE(2, 3, 0, 1)));
  hi = _mm_max_ps(hi, _mm_shuffle_ps(hi, hi, _MM_SHUFFLE(1, 0, 3, 2)));
  hi = _mm_max_ps(hi, _mm_shuffle_ps(hi, hi, _MM_SHUFFLE(2, 3, 0, 1)));
  const float mn = _mm_cvtss_f32(lo);
  const float mx = _mm_cvtss_f32(hi);
  if (mn == 0.0f || mx == 0.0f) return false;
  g.set_range(mn, mx, levels);
  const bool coded = g.scale > 0.0f;  // else every code is 0
  const __m128 zero = _mm_set1_ps(g.zero);
  const __m128 scale = _mm_set1_ps(g.scale);
  const __m128 top = _mm_set1_ps(levels);
  for (std::size_t i = 0; i < kCodecGroup; i += 4) {
    v = _mm_loadu_ps(g.x + i);
    __m128i q = _mm_setzero_si128();
    if (coded) {
      __m128 t = _mm_div_ps(_mm_sub_ps(v, zero), scale);
      t = _mm_min_ps(_mm_max_ps(t, _mm_setzero_ps()), top);
      q = _mm_cvtps_epi32(t);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(g.q + i), q);
    const __m128 r = _mm_add_ps(_mm_mul_ps(scale, _mm_cvtepi32_ps(q)), zero);
    _mm_storeu_ps(g.rep + i, r);
    if (g.err != nullptr) _mm_storeu_ps(g.err + i, _mm_sub_ps(v, r));
  }
  return true;
}
#endif

}  // namespace

void encode_block(const float* x, std::size_t n, WireCodec c,
                  EncodedBlock& out) {
  shape(out, c, n);
  if (c == WireCodec::kNone || n == 0) return;
  if (c == WireCodec::kFp8) {
    encode_fp8(x, n, out);
    return;
  }
  const float levels = static_cast<float>((1u << codec_code_bits(c)) - 1u);
  for (std::size_t gi = 0; gi < out.scale.size(); ++gi) {
    const std::size_t lo = gi * kCodecGroup;
    Group g{x + lo, std::min(kCodecGroup, n - lo), out.q.data() + lo,
            nullptr, nullptr};
    encode_group_scalar(g, levels);
    out.zero[gi] = g.zero;
    out.scale[gi] = g.scale;
  }
}

void decode_block(const EncodedBlock& e, float* out) {
  const std::size_t n = e.n;
  if (e.codec == WireCodec::kNone || n == 0) return;
  if (e.codec == WireCodec::kFp8) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = e.fp[i] * e.scale[i / kCodecGroup];
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t g = i / kCodecGroup;
    out[i] = e.scale[g] * static_cast<float>(e.q[i]) + e.zero[g];
  }
}

void encode_in_place(float* x, std::size_t n, WireCodec c, EncodedBlock& out,
                     CodecResidual* residual) {
  if (c == WireCodec::kNone || c == WireCodec::kFp8 || n == 0) {
    // Encode, then decode element by element over x.
    encode_block(x, n, c, out);
    for (std::size_t i = 0; i < n; ++i) {
      const float r = c == WireCodec::kFp8
                          ? out.fp[i] * out.scale[i / kCodecGroup]
                          : x[i];
      const float err = x[i] - r;
      x[i] = r;
      if (residual == nullptr) continue;
      residual->sq += static_cast<double>(err) * err;
      if (i < residual->err_n && residual->err != nullptr) {
        residual->err[i] = err;
      }
    }
    return;
  }
  // Integer codecs: one pass per group, full groups in SSE2 lanes where
  // the lane kernel accepts them.
  shape(out, c, n);
  const float levels = static_cast<float>((1u << codec_code_bits(c)) - 1u);
  float err[kCodecGroup];
  for (std::size_t gi = 0; gi < out.scale.size(); ++gi) {
    const std::size_t lo = gi * kCodecGroup;
    Group g{x + lo, std::min(kCodecGroup, n - lo), out.q.data() + lo, x + lo,
            residual != nullptr ? err : nullptr};
    bool done = false;
#if defined(__SSE2__)
    done = g.k == kCodecGroup && encode_group_sse2(g, levels);
#endif
    if (!done) encode_group_scalar(g, levels);
    out.zero[gi] = g.zero;
    out.scale[gi] = g.scale;
    if (residual == nullptr) continue;
    for (std::size_t i = 0; i < g.k; ++i) {
      residual->sq += static_cast<double>(err[i]) * err[i];
    }
    if (residual->err != nullptr && lo < residual->err_n) {
      std::copy(err, err + std::min(g.k, residual->err_n - lo),
                residual->err + lo);
    }
  }
}

void codec_roundtrip(float* x, std::size_t n, WireCodec c) {
  if (c == WireCodec::kNone || n == 0) return;
  EncodedBlock e;
  encode_in_place(x, n, c, e);
}

void QuantAccumulator::reset() {
  active = false;
  k = 0;
  codec = WireCodec::kNone;
  n = 0;
  scale.clear();
  zero.clear();
  q.clear();
}

bool QuantAccumulator::compatible(const EncodedBlock& e) const {
  if (e.codec != codec || e.n != n) return false;
  if (e.scale.size() != scale.size() || e.zero.size() != zero.size()) {
    return false;
  }
  // Scales/zeros are fp16-rounded: bitwise float equality is the exactness
  // criterion (identical groups quantized on identical grids).
  for (std::size_t g = 0; g < scale.size(); ++g) {
    if (e.scale[g] != scale[g] || e.zero[g] != zero[g]) return false;
  }
  return true;
}

bool QuantAccumulator::fold(const EncodedBlock* e) {
  if (k == 0 && !active) {
    // Fresh accumulator: prime from the first contribution if it is an
    // integer codec; fp8 / raw contributions leave it inactive.
    if (e == nullptr || e->codec == WireCodec::kNone ||
        e->codec == WireCodec::kFp8) {
      k = 1;  // mark "saw a contribution" so later ones don't prime
      return false;
    }
    codec = e->codec;
    n = e->n;
    scale = e->scale;
    zero = e->zero;
    q.assign(e->q.begin(), e->q.end());
    k = 1;
    active = true;
    return true;
  }
  if (!active) {
    ++k;
    return false;
  }
  if (e == nullptr || !compatible(*e)) {
    active = false;
    ++k;
    return false;
  }
  for (std::size_t i = 0; i < q.size(); ++i) q[i] += e->q[i];
  ++k;
  return true;
}

void QuantAccumulator::decode(float* out, std::size_t count) const {
  assert(active);
  const std::size_t m = std::min<std::size_t>(count, n);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t g = i / kCodecGroup;
    // Exact in double: fp16 scale/zero have 11-bit significands, q sums
    // and k stay far below 2^40, so both products are representable; the
    // one double add then one float rounding is the only inexact step.
    out[i] = static_cast<float>(
        static_cast<double>(scale[g]) * static_cast<double>(q[i]) +
        static_cast<double>(k) * static_cast<double>(zero[g]));
  }
}

}  // namespace omr::compress
