#include "ndlog/database.hpp"

#include <algorithm>
#include <iterator>

namespace fvn::ndlog {

const TupleSet Database::kEmpty{};
const std::vector<const Tuple*> Database::kNoMatches{};

const Tuple* Database::insert(const Tuple& tuple) {
  Relation& rel = relations_[tuple.predicate()];
  auto [it, inserted] = rel.rows.insert(tuple);
  if (!inserted) return nullptr;
  const Tuple& stored = *it;
  for (auto& [column, index] : rel.indexes) {
    if (column < stored.arity()) index[stored.at(column)].push_back(&stored);
  }
  return &stored;
}

bool Database::erase(const Tuple& tuple) {
  auto rel = relations_.find(tuple.predicate());
  if (rel == relations_.end()) return false;
  auto elem = rel->second.rows.find(tuple);
  if (elem == rel->second.rows.end()) return false;
  // Index entries point at the stored row, so identity finds them.
  const Tuple* stored = &*elem;
  for (auto& [column, index] : rel->second.indexes) {
    if (column >= stored->arity()) continue;
    auto it = index.find(stored->at(column));
    if (it == index.end()) continue;
    auto& bucket = it->second;
    if (auto p = std::find(bucket.begin(), bucket.end(), stored); p != bucket.end()) {
      bucket.erase(p);
    }
    if (bucket.empty()) index.erase(it);
  }
  rel->second.rows.erase(elem);
  return true;
}

bool Database::contains(const Tuple& tuple) const {
  auto it = relations_.find(tuple.predicate());
  return it != relations_.end() && it->second.rows.count(tuple) != 0;
}

const TupleSet& Database::relation(const std::string& predicate) const {
  auto it = relations_.find(predicate);
  return it == relations_.end() ? kEmpty : it->second.rows;
}

const std::vector<const Tuple*>& Database::lookup(const std::string& predicate,
                                                  std::size_t position,
                                                  const Value& value) const {
  Relation& rel = relations_[predicate];
  auto idx = std::find_if(rel.indexes.begin(), rel.indexes.end(),
                          [&](const auto& entry) { return entry.first == position; });
  if (idx == rel.indexes.end()) {
    // Built lazily, from the current contents; maintained from here on.
    ColumnIndex index;
    for (const auto& t : rel.rows) {
      if (position < t.arity()) index[t.at(position)].push_back(&t);
    }
    rel.indexes.emplace_back(position, std::move(index));
    idx = std::prev(rel.indexes.end());
  }
  auto bucket = idx->second.find(value);
  return bucket == idx->second.end() ? kNoMatches : bucket->second;
}

bool Database::has_index(const std::string& predicate, std::size_t position) const {
  auto rel = relations_.find(predicate);
  return rel != relations_.end() &&
         std::any_of(rel->second.indexes.begin(), rel->second.indexes.end(),
                     [&](const auto& entry) { return entry.first == position; });
}

std::vector<std::string> Database::predicates() const {
  std::vector<std::string> out;
  for (const auto& [name, rel] : relations_) {
    if (!rel.rows.empty()) out.push_back(name);
  }
  return out;
}

std::size_t Database::size(const std::string& predicate) const {
  return relation(predicate).size();
}

std::size_t Database::total_size() const {
  std::size_t n = 0;
  for (const auto& [name, rel] : relations_) n += rel.rows.size();
  return n;
}

void Database::clear() { relations_.clear(); }

std::vector<std::string> Database::dump() const {
  std::vector<std::string> out;
  for (const auto& [name, rel] : relations_) {
    for (const auto& t : rel.rows) out.push_back(t.to_string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fvn::ndlog
