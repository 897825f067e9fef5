#include "core/kernels.hpp"

#include <cmath>
#include <stdexcept>

#include "core/kernel_points.hpp"

namespace estima::core {
namespace {

// SoA panel loops: one function per kernel, parameters hoisted per set,
// inner loop over contiguous points. `n_params` strides the panel. Each
// set s covers its own point count (ms[s], or the uniform m when ms is
// null — the lockstep LM batches problems of different prefix lengths)
// and writes out + s * stride.

void rat22_panel(const double* ns, const std::size_t* ms, std::size_t m,
                 std::size_t stride, const double* panel, std::size_t n_sets,
                 double* out) {
  for (std::size_t s = 0; s < n_sets; ++s) {
    const double* p = panel + s * 5;
    const double a0 = p[0], a1 = p[1], a2 = p[2], b1 = p[3], b2 = p[4];
    const std::size_t mi = ms != nullptr ? ms[s] : m;
    double* row = out + s * stride;
    for (std::size_t i = 0; i < mi; ++i) {
      row[i] = rat22_point(ns[i], a0, a1, a2, b1, b2);
    }
  }
}

void rat23_panel(const double* ns, const std::size_t* ms, std::size_t m,
                 std::size_t stride, const double* panel, std::size_t n_sets,
                 double* out) {
  for (std::size_t s = 0; s < n_sets; ++s) {
    const double* p = panel + s * 6;
    const double a0 = p[0], a1 = p[1], a2 = p[2];
    const double b1 = p[3], b2 = p[4], b3 = p[5];
    const std::size_t mi = ms != nullptr ? ms[s] : m;
    double* row = out + s * stride;
    for (std::size_t i = 0; i < mi; ++i) {
      row[i] = rat23_point(ns[i], a0, a1, a2, b1, b2, b3);
    }
  }
}

void rat33_panel(const double* ns, const std::size_t* ms, std::size_t m,
                 std::size_t stride, const double* panel, std::size_t n_sets,
                 double* out) {
  for (std::size_t s = 0; s < n_sets; ++s) {
    const double* p = panel + s * 7;
    const double a0 = p[0], a1 = p[1], a2 = p[2], a3 = p[3];
    const double b1 = p[4], b2 = p[5], b3 = p[6];
    const std::size_t mi = ms != nullptr ? ms[s] : m;
    double* row = out + s * stride;
    for (std::size_t i = 0; i < mi; ++i) {
      row[i] = rat33_point(ns[i], a0, a1, a2, a3, b1, b2, b3);
    }
  }
}

void cubicln_panel(const double* ls, const std::size_t* ms, std::size_t m,
                   std::size_t stride, const double* panel, std::size_t n_sets,
                   double* out) {
  for (std::size_t s = 0; s < n_sets; ++s) {
    const double* p = panel + s * 4;
    const double a = p[0], b = p[1], c = p[2], d = p[3];
    const std::size_t mi = ms != nullptr ? ms[s] : m;
    double* row = out + s * stride;
    for (std::size_t i = 0; i < mi; ++i) {
      row[i] = cubicln_point(ls[i], a, b, c, d);
    }
  }
}

void exprat_panel(const double* ns, const std::size_t* ms, std::size_t m,
                  std::size_t stride, const double* panel, std::size_t n_sets,
                  double* out) {
  for (std::size_t s = 0; s < n_sets; ++s) {
    const double* p = panel + s * 3;
    const double a = p[0], b = p[1], d = p[2];
    const std::size_t mi = ms != nullptr ? ms[s] : m;
    double* row = out + s * stride;
    for (std::size_t i = 0; i < mi; ++i) {
      row[i] = exprat_point(ns[i], a, b, d);
    }
  }
}

void poly25_panel(const double* ns, const double* sqs, const std::size_t* ms,
                  std::size_t m, std::size_t stride, const double* panel,
                  std::size_t n_sets, double* out) {
  for (std::size_t s = 0; s < n_sets; ++s) {
    const double* p = panel + s * 4;
    const double a = p[0], b = p[1], c = p[2], d = p[3];
    const std::size_t mi = ms != nullptr ? ms[s] : m;
    double* row = out + s * stride;
    for (std::size_t i = 0; i < mi; ++i) {
      row[i] = poly25_point(ns[i], sqs[i], a, b, c, d);
    }
  }
}

}  // namespace

void EvalTables::assign(const double* xs, std::size_t count) {
  n.assign(xs, xs + count);
  ln_n.resize(count);
  sqrt_n.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    ln_n[i] = std::log(xs[i]);
    sqrt_n[i] = std::sqrt(xs[i]);
  }
}

std::string kernel_name(KernelType type) {
  switch (type) {
    case KernelType::kRat22: return "Rat22";
    case KernelType::kRat23: return "Rat23";
    case KernelType::kRat33: return "Rat33";
    case KernelType::kCubicLn: return "CubicLn";
    case KernelType::kExpRat: return "ExpRat";
    case KernelType::kPoly25: return "Poly25";
  }
  return "unknown";
}

std::optional<KernelType> kernel_from_name(const std::string& name) {
  for (KernelType t : kAllKernels) {
    if (kernel_name(t) == name) return t;
  }
  return std::nullopt;
}

std::size_t kernel_param_count(KernelType type) {
  switch (type) {
    case KernelType::kRat22: return 5;   // a0 a1 a2 b1 b2
    case KernelType::kRat23: return 6;   // a0 a1 a2 b1 b2 b3
    case KernelType::kRat33: return 7;   // a0 a1 a2 a3 b1 b2 b3
    case KernelType::kCubicLn: return 4;
    case KernelType::kExpRat: return 3;  // a b d with c == 1
    case KernelType::kPoly25: return 4;
  }
  return 0;
}

bool kernel_is_linear(KernelType type) {
  return type == KernelType::kCubicLn || type == KernelType::kPoly25;
}

double kernel_eval(KernelType type, double n, const std::vector<double>& p) {
  switch (type) {
    case KernelType::kRat22:
      return rat22_point(n, p[0], p[1], p[2], p[3], p[4]);
    case KernelType::kRat23:
      return rat23_point(n, p[0], p[1], p[2], p[3], p[4], p[5]);
    case KernelType::kRat33:
      return rat33_point(n, p[0], p[1], p[2], p[3], p[4], p[5], p[6]);
    case KernelType::kCubicLn:
      return cubicln_point(std::log(n), p[0], p[1], p[2], p[3]);
    case KernelType::kExpRat:
      return exprat_point(n, p[0], p[1], p[2]);
    case KernelType::kPoly25:
      return poly25_point(n, std::sqrt(n), p[0], p[1], p[2], p[3]);
  }
  return std::nan("");
}

void kernel_eval_panel_v(KernelType type, const EvalTables& t,
                         const std::size_t* ms, std::size_t m,
                         std::size_t out_stride, const double* panel,
                         std::size_t n_sets, double* out) {
  const double* ns = t.n.data();
  switch (type) {
    case KernelType::kRat22:
      rat22_panel(ns, ms, m, out_stride, panel, n_sets, out);
      return;
    case KernelType::kRat23:
      rat23_panel(ns, ms, m, out_stride, panel, n_sets, out);
      return;
    case KernelType::kRat33:
      rat33_panel(ns, ms, m, out_stride, panel, n_sets, out);
      return;
    case KernelType::kCubicLn:
      cubicln_panel(t.ln_n.data(), ms, m, out_stride, panel, n_sets, out);
      return;
    case KernelType::kExpRat:
      exprat_panel(ns, ms, m, out_stride, panel, n_sets, out);
      return;
    case KernelType::kPoly25:
      poly25_panel(ns, t.sqrt_n.data(), ms, m, out_stride, panel, n_sets, out);
      return;
  }
  for (std::size_t s = 0; s < n_sets; ++s) {
    const std::size_t mi = ms != nullptr ? ms[s] : m;
    for (std::size_t i = 0; i < mi; ++i) out[s * out_stride + i] = std::nan("");
  }
}

void kernel_eval_panel(KernelType type, const EvalTables& t, std::size_t m,
                       const double* panel, std::size_t n_sets, double* out) {
  kernel_eval_panel_v(type, t, nullptr, m, m, panel, n_sets, out);
}

void kernel_denominator_panel(KernelType type, const EvalTables& t,
                              std::size_t m, const double* panel,
                              std::size_t n_sets, double* out) {
  const double* ns = t.n.data();
  switch (type) {
    case KernelType::kRat22: {
      for (std::size_t s = 0; s < n_sets; ++s) {
        const double* p = panel + s * 5;
        const double b1 = p[3], b2 = p[4];
        double* row = out + s * m;
        for (std::size_t i = 0; i < m; ++i) {
          const double n = ns[i];
          row[i] = 1.0 + b1 * n + b2 * (n * n);
        }
      }
      return;
    }
    case KernelType::kRat23: {
      for (std::size_t s = 0; s < n_sets; ++s) {
        const double* p = panel + s * 6;
        const double b1 = p[3], b2 = p[4], b3 = p[5];
        double* row = out + s * m;
        for (std::size_t i = 0; i < m; ++i) {
          const double n = ns[i];
          const double n2 = n * n;
          row[i] = 1.0 + b1 * n + b2 * n2 + b3 * (n2 * n);
        }
      }
      return;
    }
    case KernelType::kRat33: {
      for (std::size_t s = 0; s < n_sets; ++s) {
        const double* p = panel + s * 7;
        const double b1 = p[4], b2 = p[5], b3 = p[6];
        double* row = out + s * m;
        for (std::size_t i = 0; i < m; ++i) {
          const double n = ns[i];
          const double n2 = n * n;
          row[i] = 1.0 + b1 * n + b2 * n2 + b3 * (n2 * n);
        }
      }
      return;
    }
    case KernelType::kExpRat: {
      for (std::size_t s = 0; s < n_sets; ++s) {
        const double d = panel[s * 3 + 2];
        double* row = out + s * m;
        for (std::size_t i = 0; i < m; ++i) row[i] = 1.0 + d * ns[i];
      }
      return;
    }
    case KernelType::kCubicLn:
    case KernelType::kPoly25:
      for (std::size_t i = 0; i < n_sets * m; ++i) out[i] = 1.0;
      return;
  }
  for (std::size_t i = 0; i < n_sets * m; ++i) out[i] = 1.0;
}

std::vector<double> kernel_basis(KernelType type, double n) {
  switch (type) {
    case KernelType::kCubicLn: {
      const double l = std::log(n);
      return {1.0, l, l * l, l * l * l};
    }
    case KernelType::kPoly25:
      return {1.0, n, n * n, n * n * std::sqrt(n)};
    default:
      throw std::logic_error("kernel_basis: kernel is not linear in params");
  }
}

std::vector<double> kernel_linearized_row(KernelType type, double n,
                                          double y) {
  // For v = N(n)/D(n) with D(n) = 1 + sum b_k n^k, multiply through:
  //   N(n) - v * sum b_k n^k = v
  // which is linear in (a..., b...).
  switch (type) {
    case KernelType::kRat22:
      return {1.0, n, n * n, -y * n, -y * n * n};
    case KernelType::kRat23:
      return {1.0, n, n * n, -y * n, -y * n * n, -y * n * n * n};
    case KernelType::kRat33:
      return {1.0, n,     n * n, n * n * n,
              -y * n, -y * n * n, -y * n * n * n};
    case KernelType::kExpRat: {
      // ln v = (a + b n)/(1 + d n)  =>  a + b n - ln(v) d n = ln v.
      const double lv = std::log(y);
      return {1.0, n, -lv * n};
    }
    default:
      throw std::logic_error(
          "kernel_linearized_row: kernel is linear; use kernel_basis");
  }
}

double kernel_linearized_rhs(KernelType type, double n, double y) {
  (void)n;
  if (type == KernelType::kExpRat) return std::log(y);
  return y;
}

std::vector<double> FittedFunction::eval_many(const std::vector<int>& ns) const {
  std::vector<double> out;
  out.reserve(ns.size());
  for (int n : ns) out.push_back((*this)(static_cast<double>(n)));
  return out;
}

}  // namespace estima::core
