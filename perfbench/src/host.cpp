#include "host.h"

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench::host {

std::uint64_t bits(double x) {
  std::uint64_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}
std::uint32_t bits(float x) {
  std::uint32_t b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}
double as_double(std::uint64_t b) {
  double x = 0.0;
  std::memcpy(&x, &b, sizeof x);
  return x;
}
float as_float(std::uint32_t b) {
  float x = 0.0f;
  std::memcpy(&x, &b, sizeof x);
  return x;
}

double mul_ties_away(double a, double b) {
  const double p = a * b;  // round to nearest, ties to even
  const double e = std::fma(a, b, -p);  // exact: a*b == p + e
  if (e == 0.0) return p;
  const double q = std::nextafter(p, e > 0.0 ? INFINITY : -INFINITY);
  if (2.0 * e != q - p) return p;  // not a tie: both rules agree
  return std::fabs(q) > std::fabs(p) ? q : p;
}

float mul_ties_away(float a, float b) {
  const double x = static_cast<double>(a) * b;  // exact: 24 x 24 bits
  const float p = static_cast<float>(x);
  const double e = x - p;  // exact
  if (e == 0.0) return p;
  const float q = std::nextafter(p, e > 0.0 ? INFINITY : -INFINITY);
  if (2.0 * e != static_cast<double>(q) - p) return p;
  return std::fabs(q) > std::fabs(p) ? q : p;
}

bool fits_binary32(double x) {
  if (!(std::fabs(x) <= FLT_MAX)) return false;  // the cast would overflow
  return static_cast<double>(static_cast<float>(x)) == x;
}

std::uint64_t OperandGen::fp64(int exp_span) {
  const std::uint64_t r = rng_();
  const int e = static_cast<int>(r % static_cast<std::uint64_t>(2 * exp_span + 1)) -
                exp_span;
  const std::uint64_t sign = (rng_() & 1) << 63;
  const std::uint64_t frac = rng_() >> 12;
  return sign | (static_cast<std::uint64_t>(e + 1023) << 52) | frac;
}

std::uint32_t OperandGen::fp32(int exp_span) {
  const std::uint64_t r = rng_();
  const int e = static_cast<int>(r % static_cast<std::uint64_t>(2 * exp_span + 1)) -
                exp_span;
  const std::uint32_t sign = static_cast<std::uint32_t>(r >> 63) << 31;
  const std::uint32_t frac = static_cast<std::uint32_t>(r >> 20) & 0x7FFFFFu;
  return sign | (static_cast<std::uint32_t>(e + 127) << 23) | frac;
}

mfm::serve::Op OperandGen::op(Kind k) {
  // A tie-prone multiplier: an odd 2- or 3-bit significand makes the
  // exact product of a full-precision operand need one or two bits more
  // than the format keeps, so a share of these products are exact ties.
  const auto tie_prone = [this](int exp_span) {
    const double m[] = {3.0, 5.0, 7.0, 1.5, 0.75};
    const int e =
        static_cast<int>(rng_() % static_cast<std::uint64_t>(2 * exp_span + 1)) -
        exp_span;
    const double v = std::ldexp(m[rng_() % 5], e);
    return (rng_() & 1) ? -v : v;
  };
  mfm::serve::Op op;
  switch (k) {
    case Kind::kInt:
      op.a = rng_();
      op.b = rng_();
      break;
    case Kind::kFp64: {
      const auto widened = [this] {
        return bits(static_cast<double>(as_float(fp32(60))));
      };
      switch (rng_() % 8) {
        case 4:
        case 5:  // both binary32-representable (the Sec. IV reduction)
          op.a = widened();
          op.b = widened();
          break;
        case 6:
          op.a = fp64(60);
          op.b = bits(tie_prone(40));
          break;
        case 7:
          op.a = widened();
          op.b = fp64(60);
          break;
        default:
          op.a = fp64(60);
          op.b = fp64(60);
      }
      break;
    }
    case Kind::kFp32x2:
    case Kind::kFp32x1: {
      const auto half_b = [&] {
        return (rng_() % 8 == 0) ? bits(static_cast<float>(tie_prone(30)))
                                 : fp32(60);
      };
      const std::uint64_t a_hi = fp32(60);
      const std::uint64_t a_lo = fp32(60);
      const std::uint64_t b_hi = half_b();
      const std::uint64_t b_lo = half_b();
      op.a = (a_hi << 32) | a_lo;
      op.b = (b_hi << 32) | b_lo;
      break;
    }
    case Kind::kFp32Add: {
      const std::uint32_t a = fp32(20);
      std::uint32_t b = fp32(20);
      switch (rng_() % 8) {
        case 0:
          b = a ^ 0x80000000u;  // exact cancellation: +0
          break;
        case 1:
          b = (a ^ 0x80000000u) ^ 1u;  // one-ulp cancellation, still normal
          break;
        default:
          break;
      }
      op.a = a;
      op.b = b;
      break;
    }
    case Kind::kReduce: {
      const std::uint64_t frac23 = (rng_() >> 41) << 29;  // 23 bits, aligned
      const std::uint64_t sign = (rng_() & 1) << 63;
      switch (rng_() % 4) {
        case 0:  // full precision: not reducible
          op.a = fp64(100);
          break;
        case 1:  // a binary32 value widened: reducible
          op.a = bits(static_cast<double>(as_float(fp32(100))));
          break;
        case 2: {  // 24-bit significand outside binary32's range
          const int mag = 160 + static_cast<int>(rng_() % 140);
          const int e = (rng_() & 1) ? mag : -mag;
          op.a = sign | (static_cast<std::uint64_t>(e + 1023) << 52) | frac23;
          break;
        }
        default:  // one bit below binary32 precision
          op.a = bits(static_cast<double>(as_float(fp32(100)))) |
                 (std::uint64_t{1} << 28);
      }
      op.b = rng_();
      break;
    }
  }
  return op;
}

namespace {

bool is_mf(const std::string& spec) {
  return spec == "mf" || spec == "mf-reduce";
}

/// The format an mf op runs under: the pinned variant, else ctrl.
std::string mf_format(const std::string& variant, std::uint64_t ctrl) {
  if (!variant.empty()) return variant;
  switch (ctrl & 3) {
    case 0: return "int64";
    case 1: return "fp64";
    default: return "fp32x2";
  }
}

std::uint64_t frmt_of(const std::string& format) {
  if (format == "int64") return 0;
  if (format == "fp64") return 1;
  return 2;
}

std::string hex(u128 v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%016llx_%016llx",
                static_cast<unsigned long long>(mfm::hi64(v)),
                static_cast<unsigned long long>(mfm::lo64(v)));
  return buf;
}

float lo_f(std::uint64_t w) { return as_float(static_cast<std::uint32_t>(w)); }
float hi_f(std::uint64_t w) {
  return as_float(static_cast<std::uint32_t>(w >> 32));
}

}  // namespace

mfm::serve::Op OperandGen::op_for(const std::string& spec,
                                  const std::string& variant) {
  if (is_mf(spec)) {
    const std::uint64_t ctrl = variant.empty() ? rng_() % 3 : 0;
    const std::string format = mf_format(variant, ctrl);
    const Kind k = format == "int64"    ? Kind::kInt
                   : format == "fp64"   ? Kind::kFp64
                   : format == "fp32x1" ? Kind::kFp32x1
                                        : Kind::kFp32x2;
    mfm::serve::Op o = op(k);
    o.ctrl = variant.empty() ? ctrl : frmt_of(format);
    return o;
  }
  if (spec == "fpmul-b32") return op(Kind::kFp32x2);  // low word is used
  if (spec == "fpmul-b64") return op(Kind::kFp64);
  if (spec == "fpadd-b32") return op(Kind::kFp32Add);
  if (spec == "reduce64to32") return op(Kind::kReduce);
  return op(Kind::kInt);
}

std::string check_op(const std::string& spec, const std::string& variant,
                     const mfm::serve::Op& op, const PortReader& read,
                     std::uint64_t* idle_upper) {
  std::string err;
  const auto expect = [&](const std::string& port, u128 want, u128 mask) {
    if (!err.empty()) return;
    const u128 got = read(port) & mask;
    if (got != (want & mask))
      err = spec + (variant.empty() ? "" : "/" + variant) + " port " + port +
            ": got " + hex(got) + " want " + hex(want & mask) + " (a " +
            hex(op.a) + " b " + hex(op.b) + " ctrl " +
            std::to_string(op.ctrl) + ")";
  };
  constexpr u128 kAll = ~static_cast<u128>(0);
  constexpr u128 k64 = ~std::uint64_t{0};
  constexpr u128 k32 = 0xFFFFFFFFu;

  if (spec == "mult8") {
    expect("p", (op.a & 0xFF) * (op.b & 0xFF), 0xFFFF);
  } else if (spec == "radix4-64" || spec == "radix16-64") {
    expect("p", static_cast<u128>(op.a) * op.b, kAll);
  } else if (is_mf(spec)) {
    const bool reduce_unit = spec == "mf-reduce";
    const std::string format = mf_format(variant, op.ctrl);
    if (format == "int64") {
      const u128 p = static_cast<u128>(op.a) * op.b;
      expect("ph", mfm::hi64(p), k64);
      expect("pl", mfm::lo64(p), k64);
      if (reduce_unit) expect("reduced", 0, 1);
    } else if (format == "fp64") {
      const double a = as_double(op.a);
      const double b = as_double(op.b);
      if (reduce_unit && fits_binary32(a) && fits_binary32(b)) {
        // Issued on the binary32 lane: only PH's low word is defined.
        expect("reduced", 1, 1);
        expect("ph",
               bits(mul_ties_away(static_cast<float>(a),
                                  static_cast<float>(b))),
               k32);
      } else {
        if (reduce_unit) expect("reduced", 0, 1);
        expect("ph", bits(mul_ties_away(a, b)), k64);
        expect("pl", 0, k64);
      }
    } else {
      const std::uint64_t lo = bits(mul_ties_away(lo_f(op.a), lo_f(op.b)));
      if (format == "fp32x1") {
        // The pins zero the upper operand words: the upper product lane
        // idles at one constant word.
        expect("ph", lo, k32);
        const std::uint64_t upper = mfm::lo64(read("ph") >> 32);
        if (err.empty() && *idle_upper != upper) {
          if (*idle_upper == kUnsetLane)
            *idle_upper = upper;
          else
            err = spec + "/fp32x1: idle upper lane changed from " +
                  hex(*idle_upper) + " to " + hex(upper);
        }
      } else {
        const std::uint64_t hi =
            bits(mul_ties_away(hi_f(op.a), hi_f(op.b)));
        expect("ph", (hi << 32) | lo, k64);
      }
      expect("pl", 0, k64);
      if (reduce_unit) expect("reduced", 0, 1);
    }
  } else if (spec == "fpmul-b32") {
    expect("p", bits(mul_ties_away(lo_f(op.a), lo_f(op.b))), k32);
  } else if (spec == "fpmul-b64") {
    expect("p", bits(mul_ties_away(as_double(op.a), as_double(op.b))), k64);
  } else if (spec == "fpadd-b32") {
    expect("s", bits(lo_f(op.a) + lo_f(op.b)), k32);
  } else if (spec == "reduce64to32") {
    const double x = as_double(op.a);
    const bool fits = fits_binary32(x);
    expect("reduce", fits ? 1 : 0, 1);
    if (fits) expect("out32", bits(static_cast<float>(x)), k32);
  } else {
    err = "no host reference for unit '" + spec + "'";
  }
  return err;
}

}  // namespace perfbench::host
