#include "ndlog/tuple.hpp"

#include <algorithm>

namespace fvn::ndlog {

constinit const Tuple::Row Tuple::kEmpty;

std::size_t Tuple::first_hash() const noexcept {
  const Row& r = row();
  std::size_t h = hash_values(r.values);
  for (char c : r.predicate) h = h * 131 + static_cast<unsigned char>(c);
  r.hash.store(h, std::memory_order_relaxed);
  return h;
}

std::string Tuple::to_string() const {
  const Row& r = row();
  std::string out = r.predicate;
  out += '(';
  bool first = true;
  for (const auto& v : r.values) {
    if (!first) out += ",";
    first = false;
    out += v.to_string();
  }
  out += ")";
  return out;
}

std::vector<std::string> sorted_strings(const TupleSet& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const auto& t : tuples) out.push_back(t.to_string());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fvn::ndlog
