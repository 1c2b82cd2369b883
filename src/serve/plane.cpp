#include "serve/plane.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <sstream>

namespace fvn::serve {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(text);
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

/// Parse an unsigned decimal address; nullopt when `text` is not all digits.
std::optional<std::uint32_t> parse_addr(const std::string& text) {
  if (text.empty()) return std::nullopt;
  for (char c : text) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return std::nullopt;
  return static_cast<std::uint32_t>(v);
}

}  // namespace

// ---------------------------------------------------------------------------
// ServeSpec
// ---------------------------------------------------------------------------

ServeSpec ServeSpec::parse(const std::string& text,
                           const ndlog::Catalog& catalog) {
  const auto colon = text.find(':');
  const std::string pred = text.substr(0, colon);
  if (pred.empty()) throw ServeError("serve spec: empty predicate name");
  if (!catalog.contains(pred)) {
    throw ServeError("serve spec: predicate '" + pred +
                     "' is not declared by the program");
  }
  const ndlog::PredicateInfo& info = catalog.info(pred);

  // The roles apply to the non-location columns in declaration order; the
  // location specifier is the serving node and never part of a route.
  std::vector<std::size_t> cols;
  for (std::size_t i = 0; i < info.arity; ++i) {
    if (i != info.loc_index) cols.push_back(i);
  }
  if (cols.empty()) {
    throw ServeError("serve spec: predicate '" + pred +
                     "' has no non-location columns to serve");
  }

  ServeSpec spec;
  spec.predicate = pred;
  if (colon == std::string::npos) {
    // Default mapping: first non-location column keys the trie, the rest are
    // unlabeled payload.
    spec.dst_col = cols[0];
    for (std::size_t j = 1; j < cols.size(); ++j) {
      spec.value_cols.push_back(cols[j]);
      spec.labels.push_back("col" + std::to_string(cols[j]));
    }
    return spec;
  }

  const std::vector<std::string> roles = split(text.substr(colon + 1), ',');
  if (roles.size() != cols.size()) {
    throw ServeError("serve spec: '" + pred + "' has " +
                     std::to_string(cols.size()) +
                     " non-location columns but the spec names " +
                     std::to_string(roles.size()));
  }
  bool have_dst = false;
  for (std::size_t j = 0; j < roles.size(); ++j) {
    const std::string& role = roles[j];
    const std::size_t col = cols[j];
    if (role == "dst") {
      if (have_dst) throw ServeError("serve spec: duplicate 'dst' role");
      spec.dst_col = col;
      have_dst = true;
    } else if (role == "len") {
      if (spec.len_col) throw ServeError("serve spec: duplicate 'len' role");
      spec.len_col = col;
    } else if (role == "_" || role == "skip") {
      continue;
    } else if (role.empty()) {
      throw ServeError("serve spec: empty column role (use '_' to skip)");
    } else {
      spec.value_cols.push_back(col);
      spec.labels.push_back(role);
    }
  }
  if (!have_dst) {
    throw ServeError("serve spec: no 'dst' role — one column must key the trie");
  }
  return spec;
}

// ---------------------------------------------------------------------------
// ServePlane — writer side
// ---------------------------------------------------------------------------

ServePlane::ServePlane(ServeSpec spec)
    : ServePlane(std::move(spec), Options()) {}

ServePlane::ServePlane(ServeSpec spec, Options options)
    : spec_(std::move(spec)), options_(options) {}

ServePlane::NodeTable& ServePlane::table_for(Interner::Id node) {
  if (tables_.size() <= node) tables_.resize(node + 1);
  if (!tables_[node]) tables_[node] = std::make_unique<NodeTable>();
  return *tables_[node];
}

std::uint32_t ServePlane::key_bits_of(const ndlog::Value& dst) {
  using ndlog::ValueKind;
  switch (dst.kind()) {
    case ValueKind::Int:
      return static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(dst.as_int()));
    case ValueKind::Str:
    case ValueKind::Addr:
      return interner_.intern(dst.as_text());
    default:
      return interner_.intern(dst.to_string());
  }
}

bool ServePlane::apply(std::string_view kind, const std::string& node,
                       const ndlog::Tuple& tuple) {
  if (tuple.predicate() != spec_.predicate) return false;
  // Defensive: the spec was validated against the catalog, but a malformed
  // runtime tuple must not crash the serving plane.
  std::size_t needed = spec_.dst_col;
  if (spec_.len_col) needed = std::max(needed, *spec_.len_col);
  for (std::size_t col : spec_.value_cols) needed = std::max(needed, col);
  if (tuple.arity() <= needed) return false;

  const Interner::Id node_id = interner_.intern(node);
  const std::uint32_t bits = key_bits_of(tuple.at(spec_.dst_col));
  std::uint8_t len = 32;
  if (spec_.len_col) {
    const ndlog::Value& lv = tuple.at(*spec_.len_col);
    if (lv.kind() != ndlog::ValueKind::Int) return false;
    const std::int64_t raw = lv.as_int();
    len = raw <= 0 ? std::uint8_t{0}
                   : static_cast<std::uint8_t>(std::min<std::int64_t>(raw, 32));
  }
  const Key key = Key::make(bits, len);

  Row row;
  row.reserve(spec_.value_cols.size());
  for (std::size_t col : spec_.value_cols) {
    row.push_back(encode_value(tuple.at(col), interner_));
  }

  NodeTable& table = table_for(node_id);
  bool changed = false;
  if (kind == "install") {
    changed = table.shadow.insert(key, std::move(row));
    if (changed) ++installs_;
  } else if (kind == "retract" || kind == "expire") {
    changed = table.shadow.remove(key, row);
    if (changed) ++removes_;
  }
  if (changed) {
    table.dirty = true;
    any_dirty_ = true;
  }
  return changed;
}

void ServePlane::publish(bool force) {
  if (!any_dirty_ && !force) return;
  const auto start = std::chrono::steady_clock::now();

  auto snap = std::make_unique<Snapshot>();
  snap->epoch = publisher_.published() + 1;
  snap->version = installs_ + removes_;
  snap->names = interner_.snapshot();
  snap->tables.resize(tables_.size());
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    NodeTable* table = tables_[i].get();
    if (table == nullptr) continue;
    if (table->dirty || !table->frozen) {
      // Only re-freeze what changed; clean nodes share their FrozenTrie with
      // every snapshot published since they last moved. A table whose deltas
      // cancelled out (a route retracted and reinstalled since the last
      // publish) keeps its previous freeze too, so a retired snapshot holds
      // only tables that really changed.
      auto fresh = std::make_shared<const FrozenTrie>(table->shadow);
      const std::uint64_t checksum = fresh->checksum();
      if (!table->frozen || checksum != table->frozen_checksum ||
          !(*fresh == *table->frozen)) {
        table->frozen = std::move(fresh);
        table->frozen_checksum = checksum;
      }
      table->dirty = false;
    }
    snap->tables[i] = table->frozen;
    snap->routes += table->frozen->routes();
    snap->checksum += (static_cast<std::uint64_t>(i) + 1) * table->frozen_checksum;
  }
  any_dirty_ = false;
  publisher_.publish(std::move(snap));

  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  if (publish_us_.size() < kPublishWindow) {
    publish_us_.push_back(us);
  } else {
    publish_us_[publish_hist_.count() % kPublishWindow] = us;
  }
  publish_hist_.observe(us);
}

/// Recompute a snapshot's checksum the way publish() built it — the churn
/// tests call this from reader threads to prove no lookup ever observes a
/// torn table set.
std::uint64_t recompute_checksum(const Snapshot& snapshot) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < snapshot.tables.size(); ++i) {
    if (!snapshot.tables[i]) continue;
    sum += (static_cast<std::uint64_t>(i) + 1) * snapshot.tables[i]->checksum();
  }
  return sum;
}

// ---------------------------------------------------------------------------
// ServePlane — stats / rendering
// ---------------------------------------------------------------------------

namespace {

std::uint64_t percentile(std::vector<std::uint64_t> samples, double p) {
  if (samples.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

}  // namespace

ServePlane::Stats ServePlane::stats() const {
  Stats out;
  out.installs = installs_;
  out.removes = removes_;
  out.applied = installs_ + removes_;
  out.epochs_published = publisher_.published();
  out.snapshots_reclaimed = publisher_.reclaimed();
  out.retired_live = publisher_.retired_live();
  out.routes = publisher_.current().routes;
  out.lookups = publisher_.total_lookups();
  out.publish_p50_us = percentile(publish_us_, 0.50);
  out.publish_p99_us = percentile(publish_us_, 0.99);
  return out;
}

void ServePlane::flush_metrics() {
  if (options_.metrics == nullptr) return;
  obs::Registry& reg = *options_.metrics;
  const Stats s = stats();
  reg.counter("serve/installs").add(s.installs);
  reg.counter("serve/removes").add(s.removes);
  reg.counter("serve/epochs").add(s.epochs_published);
  reg.counter("serve/reclaimed").add(s.snapshots_reclaimed);
  reg.counter("serve/routes").add(s.routes);
  reg.counter("serve/lookups").add(s.lookups);
  reg.histogram("serve/publish_us").merge(publish_hist_);
}

std::string ServePlane::query(const std::string& node,
                              const std::string& dst) const {
  const Snapshot& snap = publisher_.current();
  std::ostringstream out;

  const auto node_id = snap.names->find(node);
  std::optional<std::uint32_t> addr = parse_addr(dst);
  bool text_keyed = false;
  if (!addr) {
    if (const auto dst_id = snap.names->find(dst)) {
      addr = *dst_id;
      text_keyed = true;
    }
  }
  const FrozenTrie* table =
      node_id && addr ? snap.table(*node_id) : nullptr;
  std::optional<FrozenTrie::Match> match =
      table != nullptr ? table->lookup(*addr) : std::nullopt;
  if (!match) {
    out << "no-route epoch=" << snap.epoch;
    return out.str();
  }

  if (text_keyed && match->key.len == 32) {
    out << snap.names->text_of(match->key.prefix);
  } else {
    out << match->key.prefix << "/" << static_cast<int>(match->key.len);
  }
  out << " epoch=" << snap.epoch << " rows=[";
  for (std::size_t r = 0; r < match->count; ++r) {
    if (r != 0) out << "; ";
    const Row& row = match->rows[r];
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out << ",";
      if (c < spec_.labels.size()) out << spec_.labels[c] << "=";
      out << decode_value(row[c], *snap.names);
    }
  }
  out << "]";
  return out.str();
}

// ---------------------------------------------------------------------------
// Feed
// ---------------------------------------------------------------------------

Feed::Feed(ServePlane& plane) : plane_(&plane) {}

Feed::Feed(ServePlane& plane, std::size_t publish_every)
    : plane_(&plane), publish_every_(publish_every) {
  if (publish_every == 0) {
    throw ServeError("a concurrent serve feed publishes every n >= 1 changes");
  }
}

std::function<void(std::string_view, const std::string&, const ndlog::Tuple&,
                   double)>
Feed::hook() {
  return [this](std::string_view kind, const std::string& node,
                const ndlog::Tuple& tuple, double now) {
    on_event(kind, node, tuple, now);
  };
}

void Feed::on_event(std::string_view kind, const std::string& node,
                    const ndlog::Tuple& tuple, double now) {
  if (publish_every_ == 0) {
    // Publish *before* applying an event from a later virtual time:
    // everything seen so far is a completed delta round, so the snapshot is
    // a consistent cut of the fixpoint computation.
    if (seen_any_ && now > last_now_) plane_->publish();
    seen_any_ = true;
    if (now > last_now_) last_now_ = now;
    plane_->apply(kind, node, tuple);
    return;
  }
  const std::lock_guard<std::mutex> lock(mu_);
  if (plane_->apply(kind, node, tuple) && ++since_publish_ >= publish_every_) {
    plane_->publish();
    since_publish_ = 0;
  }
}

void Feed::finish() {
  const std::lock_guard<std::mutex> lock(mu_);
  plane_->publish(/*force=*/true);
}

}  // namespace fvn::serve
