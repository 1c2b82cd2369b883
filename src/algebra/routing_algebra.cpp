#include "algebra/routing_algebra.hpp"

#include <chrono>
#include <cmath>
#include <sstream>

namespace fvn::algebra {

namespace {

std::string render(const Value& v) { return v.to_string(); }

}  // namespace

std::string DischargeReport::to_string() const {
  std::ostringstream os;
  os << "algebra " << algebra << ": ";
  auto show = [&](const Obligation& o) {
    os << o.name << "=" << (o.holds ? "ok" : "FAIL");
    if (!o.holds) os << "(" << o.counterexample << ")";
    os << " ";
  };
  show(totality);
  show(maximality);
  show(absorption);
  show(monotonicity);
  show(strict_monotonicity);
  show(isotonicity);
  os << "[" << total_checks << " checks, " << elapsed_seconds << "s]";
  return os.str();
}

DischargeReport discharge(const RoutingAlgebra& alg) {
  const auto start = std::chrono::steady_clock::now();
  DischargeReport report;
  report.algebra = alg.name;
  report.totality.name = "totality";
  report.maximality.name = "maximality";
  report.absorption.name = "absorption";
  report.monotonicity.name = "monotonicity";
  report.strict_monotonicity.name = "strict-monotonicity";
  report.isotonicity.name = "isotonicity";

  // Totality of the preference preorder.
  for (const auto& a : alg.signatures) {
    for (const auto& b : alg.signatures) {
      ++report.totality.checks;
      if (!alg.leq(a, b) && !alg.leq(b, a)) {
        report.totality.holds = false;
        report.totality.counterexample = render(a) + " incomparable to " + render(b);
        break;
      }
    }
    if (!report.totality.holds) break;
  }

  // Maximality: every signature is at least as preferred as φ.
  for (const auto& s : alg.signatures) {
    ++report.maximality.checks;
    if (!alg.leq(s, alg.phi)) {
      report.maximality.holds = false;
      report.maximality.counterexample = "phi preferred to " + render(s);
      break;
    }
  }

  // Absorption: l ⊕ φ = φ (up to preference-equivalence with φ).
  for (const auto& l : alg.labels) {
    ++report.absorption.checks;
    const Value extended = alg.apply(l, alg.phi);
    if (!(extended == alg.phi) && !alg.equivalent(extended, alg.phi)) {
      report.absorption.holds = false;
      report.absorption.counterexample =
          render(l) + " (+) phi = " + render(extended);
      break;
    }
  }

  // Monotonicity: s ⪯ l ⊕ s.
  for (const auto& l : alg.labels) {
    for (const auto& s : alg.signatures) {
      ++report.monotonicity.checks;
      const Value extended = alg.apply(l, s);
      if (!alg.leq(s, extended)) {
        report.monotonicity.holds = false;
        report.monotonicity.counterexample =
            render(l) + " (+) " + render(s) + " = " + render(extended) +
            " preferred to " + render(s);
        break;
      }
    }
    if (!report.monotonicity.holds) break;
  }

  // Strict monotonicity: s ≺ l ⊕ s for s ≠ φ.
  for (const auto& l : alg.labels) {
    for (const auto& s : alg.signatures) {
      if (s == alg.phi) continue;
      ++report.strict_monotonicity.checks;
      const Value extended = alg.apply(l, s);
      if (!alg.strictly_better(s, extended)) {
        report.strict_monotonicity.holds = false;
        report.strict_monotonicity.counterexample =
            render(l) + " (+) " + render(s) + " = " + render(extended);
        break;
      }
    }
    if (!report.strict_monotonicity.holds) break;
  }

  // Isotonicity: a ⪯ b => l⊕a ⪯ l⊕b.
  for (const auto& l : alg.labels) {
    for (const auto& a : alg.signatures) {
      for (const auto& b : alg.signatures) {
        ++report.isotonicity.checks;
        if (!alg.leq(a, b)) continue;
        if (!alg.leq(alg.apply(l, a), alg.apply(l, b))) {
          report.isotonicity.holds = false;
          report.isotonicity.counterexample =
              render(a) + " <= " + render(b) + " but not after applying " + render(l);
          break;
        }
      }
      if (!report.isotonicity.holds) break;
    }
    if (!report.isotonicity.holds) break;
  }

  report.total_checks = report.totality.checks + report.maximality.checks +
                        report.absorption.checks + report.monotonicity.checks +
                        report.strict_monotonicity.checks + report.isotonicity.checks;
  report.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return report;
}

// ---------------------------------------------------------------------------
// Base algebras
// ---------------------------------------------------------------------------

RoutingAlgebra add_algebra(std::int64_t max_metric, std::int64_t max_label) {
  RoutingAlgebra alg;
  alg.name = "addA";
  const std::int64_t inf = max_metric * 100;  // φ sentinel beyond any sum
  alg.phi = Value::integer(inf);
  for (std::int64_t v = 0; v <= max_metric; ++v) alg.signatures.push_back(Value::integer(v));
  alg.signatures.push_back(alg.phi);
  for (std::int64_t l = 1; l <= max_label; ++l) alg.labels.push_back(Value::integer(l));
  alg.origins = {Value::integer(0)};
  alg.leq = [](const Value& a, const Value& b) { return a.as_int() <= b.as_int(); };
  alg.apply = [inf](const Value& l, const Value& s) {
    if (s.as_int() >= inf) return Value::integer(inf);
    const std::int64_t sum = l.as_int() + s.as_int();
    return Value::integer(sum >= inf ? inf : sum);
  };
  return alg;
}

RoutingAlgebra hop_algebra(std::int64_t max_metric) {
  RoutingAlgebra alg = add_algebra(max_metric, 1);
  alg.name = "hopA";
  return alg;
}

RoutingAlgebra lp_algebra(std::int64_t levels) {
  // Exactly the paper's snippet: labelApply(l,s) = l; prefRel(s1,s2) = s1<=s2;
  // prohibitPath = a dedicated worst level.
  RoutingAlgebra alg;
  alg.name = "lpA";
  const std::int64_t worst = levels + 1;
  alg.phi = Value::integer(worst);
  for (std::int64_t v = 1; v <= levels; ++v) {
    alg.signatures.push_back(Value::integer(v));
    alg.labels.push_back(Value::integer(v));
  }
  alg.signatures.push_back(alg.phi);
  alg.origins = {Value::integer(1)};
  alg.leq = [](const Value& a, const Value& b) { return a.as_int() <= b.as_int(); };
  alg.apply = [worst](const Value& l, const Value& s) {
    if (s.as_int() >= worst) return Value::integer(worst);  // absorption
    return l;
  };
  return alg;
}

RoutingAlgebra bandwidth_algebra(std::int64_t max_bw) {
  RoutingAlgebra alg;
  alg.name = "bwA";
  alg.phi = Value::integer(0);  // zero bandwidth = unusable
  for (std::int64_t v = 0; v <= max_bw; ++v) alg.signatures.push_back(Value::integer(v));
  for (std::int64_t l = 1; l <= max_bw; ++l) alg.labels.push_back(Value::integer(l));
  alg.origins = {Value::integer(max_bw)};
  // Larger bandwidth preferred.
  alg.leq = [](const Value& a, const Value& b) { return a.as_int() >= b.as_int(); };
  alg.apply = [](const Value& l, const Value& s) {
    return Value::integer(std::min(l.as_int(), s.as_int()));
  };
  return alg;
}

RoutingAlgebra reliability_algebra() {
  RoutingAlgebra alg;
  alg.name = "relA";
  alg.phi = Value::real(0.0);
  for (int i = 0; i <= 10; ++i) alg.signatures.push_back(Value::real(i / 10.0));
  for (int i = 1; i <= 10; ++i) alg.labels.push_back(Value::real(i / 10.0));
  alg.origins = {Value::real(1.0)};
  alg.leq = [](const Value& a, const Value& b) { return a.as_double() >= b.as_double(); };
  alg.apply = [](const Value& l, const Value& s) {
    // Quantize back onto the sample grid so the carrier stays closed.
    const double p = l.as_double() * s.as_double();
    return Value::real(std::round(p * 10.0) / 10.0);
  };
  return alg;
}

// ---------------------------------------------------------------------------
// Composition
// ---------------------------------------------------------------------------

RoutingAlgebra lex_product(const RoutingAlgebra& a, const RoutingAlgebra& b) {
  RoutingAlgebra out;
  out.name = "lexProduct[" + a.name + "," + b.name + "]";
  out.phi = Value::list({a.phi, b.phi});
  // φ canonicalization: any pair with a φ component is prohibited.
  auto canon = [phiA = a.phi, phiB = b.phi, phi = out.phi](Value v) {
    const auto& items = v.as_list();
    if (items[0] == phiA || items[1] == phiB) return phi;
    return v;
  };
  for (const auto& sa : a.signatures) {
    for (const auto& sb : b.signatures) {
      const Value pair = canon(Value::list({sa, sb}));
      bool dup = false;
      for (const auto& existing : out.signatures) {
        if (existing == pair) dup = true;
      }
      if (!dup) out.signatures.push_back(pair);
    }
  }
  for (const auto& la : a.labels) {
    for (const auto& lb : b.labels) {
      out.labels.push_back(Value::list({la, lb}));
    }
  }
  for (const auto& oa : a.origins) {
    for (const auto& ob : b.origins) {
      out.origins.push_back(Value::list({oa, ob}));
    }
  }
  out.leq = [a, b](const Value& x, const Value& y) {
    const auto& xs = x.as_list();
    const auto& ys = y.as_list();
    if (a.strictly_better(xs[0], ys[0])) return true;
    if (a.strictly_better(ys[0], xs[0])) return false;
    return b.leq(xs[1], ys[1]);
  };
  out.apply = [a, b, canon](const Value& l, const Value& s) {
    const auto& ls = l.as_list();
    const auto& ss = s.as_list();
    return canon(Value::list({a.apply(ls[0], ss[0]), b.apply(ls[1], ss[1])}));
  };
  return out;
}

RoutingAlgebra direct_product(const RoutingAlgebra& a, const RoutingAlgebra& b) {
  RoutingAlgebra out = lex_product(a, b);  // same carrier/apply/φ machinery
  out.name = "directProduct[" + a.name + "," + b.name + "]";
  out.leq = [a, b](const Value& x, const Value& y) {
    const auto& xs = x.as_list();
    const auto& ys = y.as_list();
    return a.leq(xs[0], ys[0]) && b.leq(xs[1], ys[1]);
  };
  return out;
}

RoutingAlgebra bgp_system() {
  // LP compared first (the paper's BGPSystem), then route cost.
  RoutingAlgebra sys = lex_product(lp_algebra(3), add_algebra(8, 3));
  sys.name = "BGPSystem=lexProduct[LP,RC]";
  return sys;
}

}  // namespace fvn::algebra
