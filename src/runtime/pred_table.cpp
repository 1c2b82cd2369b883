#include "runtime/pred_table.hpp"

#include "ndlog/analysis.hpp"

namespace fvn::runtime {

const PredInfo& PredTable::info(const std::string& predicate) const {
  auto it = cache_.find(predicate);
  if (it != cache_.end()) return it->second;
  PredInfo info;
  if (catalog_->contains(predicate)) {
    const auto& mat = catalog_->info(predicate);
    info.loc_index = mat.loc_index;
    info.lifetime = mat.lifetime_seconds;
    info.transient = mat.lifetime_seconds.has_value() && *mat.lifetime_seconds == 0.0;
    if (!mat.key_fields.empty()) info.key_fields = &mat.key_fields;
  }
  return cache_.emplace(predicate, info).first->second;
}

const std::string& PredTable::location_of(const ndlog::Tuple& tuple) const {
  const std::size_t idx = info(tuple.predicate()).loc_index;
  if (idx >= tuple.arity() || !tuple.at(idx).is_addr()) {
    throw ndlog::AnalysisError("tuple " + tuple.to_string() +
                               " has no address at its location attribute");
  }
  return tuple.at(idx).as_addr();
}

bool TupleKeyLess::operator()(const ndlog::Tuple& a, const ndlog::Tuple& b) const {
  if (int c = a.predicate().compare(b.predicate()); c != 0) return c < 0;
  const auto* kf = preds->info(a.predicate()).key_fields;
  if (kf == nullptr) return a < b;  // whole tuple is the key
  for (std::size_t f : *kf) {
    if (f < 1 || f > a.arity() || f > b.arity()) continue;
    const ndlog::Value& va = a.at(f - 1);
    const ndlog::Value& vb = b.at(f - 1);
    if (va < vb) return true;
    if (vb < va) return false;
  }
  return false;
}

}  // namespace fvn::runtime
