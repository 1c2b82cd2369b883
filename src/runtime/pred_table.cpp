#include "runtime/pred_table.hpp"

#include "ndlog/analysis.hpp"

namespace fvn::runtime {

const PredInfo& PredTable::info(const std::string& predicate) const {
  auto it = cache_.find(predicate);
  if (it != cache_.end()) return it->second;
  PredInfo info;
  info.name_hash = std::hash<std::string>{}(predicate);
  if (catalog_->contains(predicate)) {
    const auto& mat = catalog_->info(predicate);
    info.loc_index = mat.loc_index;
    info.lifetime = mat.lifetime_seconds;
    info.transient = mat.lifetime_seconds.has_value() && *mat.lifetime_seconds == 0.0;
    if (!mat.key_fields.empty()) info.key_fields = &mat.key_fields;
  }
  return cache_.emplace(predicate, info).first->second;
}

const ndlog::Symbol& PredTable::location(const ndlog::Tuple& tuple) const {
  const std::size_t idx = info(tuple.predicate()).loc_index;
  if (idx >= tuple.arity() || !tuple.at(idx).is_addr()) {
    throw ndlog::AnalysisError("tuple " + tuple.to_string() +
                               " has no address at its location attribute");
  }
  return tuple.at(idx).as_symbol();
}

namespace {

/// True when `f` holds at every 0-based position of a `tuple` that its
/// predicate's key covers; stops at the first position where it fails.
/// Hash and equality both walk the key through here.
template <class F>
bool all_key_positions(const ndlog::Tuple& tuple, const PredInfo& info, F&& f) {
  const std::size_t arity = tuple.arity();
  if (info.key_fields == nullptr) {
    for (std::size_t i = 0; i < arity; ++i) {
      if (!f(i)) return false;
    }
    return true;
  }
  for (std::size_t field : *info.key_fields) {
    if (field >= 1 && field <= arity && !f(field - 1)) return false;
  }
  return true;
}

}  // namespace

KeyedRow::KeyedRow(const ndlog::Tuple& tuple, const PredInfo& info)
    : row(&tuple), info(&info), hash(info.name_hash ^ tuple.arity()) {
  all_key_positions(tuple, info, [&](std::size_t i) {
    hash ^= tuple.values()[i].hash() + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
    return true;
  });
}

bool KeyEq::operator()(const KeyedRow& a, const KeyedRow& b) const {
  if (a.hash != b.hash || a.info != b.info || a.row->arity() != b.row->arity()) return false;
  return all_key_positions(*a.row, *a.info, [&](std::size_t i) {
    return a.row->values()[i] == b.row->values()[i];
  });
}

}  // namespace fvn::runtime
