#include "ndlog/ast.hpp"

#include <algorithm>
#include <sstream>

namespace fvn::ndlog {

std::string_view to_string(BinOp op) noexcept {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "%";
  }
  return "?";
}

std::string_view to_string(CmpOp op) noexcept {
  switch (op) {
    case CmpOp::Eq: return "==";
    case CmpOp::Ne: return "!=";
    case CmpOp::Lt: return "<";
    case CmpOp::Le: return "<=";
    case CmpOp::Gt: return ">";
    case CmpOp::Ge: return ">=";
  }
  return "?";
}

std::string_view to_string(AggKind kind) noexcept {
  switch (kind) {
    case AggKind::Min: return "min";
    case AggKind::Max: return "max";
    case AggKind::Count: return "count";
    case AggKind::Sum: return "sum";
  }
  return "?";
}

CmpOp negate(CmpOp op) noexcept {
  switch (op) {
    case CmpOp::Eq: return CmpOp::Ne;
    case CmpOp::Ne: return CmpOp::Eq;
    case CmpOp::Lt: return CmpOp::Ge;
    case CmpOp::Le: return CmpOp::Gt;
    case CmpOp::Gt: return CmpOp::Le;
    case CmpOp::Ge: return CmpOp::Lt;
  }
  return CmpOp::Eq;
}

TermPtr Term::var(std::string name) {
  auto t = std::make_shared<Term>();
  t->kind = Kind::Var;
  t->name = std::move(name);
  return t;
}

TermPtr Term::constant_of(Value v) {
  auto t = std::make_shared<Term>();
  t->kind = Kind::Const;
  t->constant = std::move(v);
  return t;
}

TermPtr Term::func(std::string name, std::vector<TermPtr> args) {
  auto t = std::make_shared<Term>();
  t->kind = Kind::Func;
  t->name = std::move(name);
  t->args = std::move(args);
  return t;
}

TermPtr Term::binary(BinOp op, TermPtr lhs, TermPtr rhs) {
  auto t = std::make_shared<Term>();
  t->kind = Kind::Binary;
  t->op = op;
  t->args = {std::move(lhs), std::move(rhs)};
  return t;
}

void Term::collect_vars(std::vector<std::string>& out) const {
  switch (kind) {
    case Kind::Var:
      if (std::find(out.begin(), out.end(), name) == out.end()) out.push_back(name);
      break;
    case Kind::Const:
      break;
    case Kind::Func:
    case Kind::Binary:
      for (const auto& a : args) a->collect_vars(out);
      break;
  }
}

std::string Term::to_string() const {
  switch (kind) {
    case Kind::Var: return name;
    case Kind::Const: return constant.to_string();
    case Kind::Func: {
      std::string out = name + "(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) out += ",";
        out += args[i]->to_string();
      }
      return out + ")";
    }
    case Kind::Binary: {
      std::string out = "(";
      out += args[0]->to_string();
      out += ndlog::to_string(op);
      out += args[1]->to_string();
      out += ')';
      return out;
    }
  }
  return "?";
}

std::string HeadArg::to_string() const {
  if (is_agg()) return std::string(ndlog::to_string(*agg)) + "<" + agg_var + ">";
  return term->to_string();
}

namespace {
template <typename ArgVec, typename Fn>
std::string atom_to_string(const std::string& pred, const ArgVec& args,
                           int loc_index, Fn&& render) {
  std::string out = pred + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i) out += ",";
    if (static_cast<int>(i) == loc_index) out += "@";
    out += render(args[i]);
  }
  return out + ")";
}
}  // namespace

std::string Atom::to_string() const {
  return atom_to_string(predicate, args, loc_index,
                        [](const TermPtr& t) { return t->to_string(); });
}

void Atom::collect_vars(std::vector<std::string>& out) const {
  for (const auto& a : args) a->collect_vars(out);
}

bool HeadAtom::has_aggregate() const noexcept {
  return std::any_of(args.begin(), args.end(),
                     [](const HeadArg& a) { return a.is_agg(); });
}

std::string HeadAtom::to_string() const {
  return atom_to_string(predicate, args, loc_index,
                        [](const HeadArg& a) { return a.to_string(); });
}

std::string BodyAtom::to_string() const {
  std::string out = negated ? "!" : "";
  out += atom.to_string();
  return out;
}

std::string Comparison::to_string() const {
  const std::string_view op_text = (op == CmpOp::Eq) ? "=" : ndlog::to_string(op);
  return lhs->to_string() + std::string(op_text) + rhs->to_string();
}

std::string to_string(const BodyElem& elem) {
  return std::visit([](const auto& e) { return e.to_string(); }, elem);
}

std::string Rule::to_string() const {
  std::string out;
  if (!name.empty()) out += name + " ";
  out += head.to_string();
  if (!body.empty()) {
    out += " :- ";
    for (std::size_t i = 0; i < body.size(); ++i) {
      if (i) out += ", ";
      out += ndlog::to_string(body[i]);
    }
  }
  return out + ".";
}

std::string Materialize::to_string() const {
  std::ostringstream os;
  os << "materialize(" << predicate << ", ";
  if (lifetime_seconds) os << *lifetime_seconds;
  else os << "infinity";
  os << ", ";
  if (max_size) os << *max_size;
  else os << "infinity";
  os << ", keys(";
  for (std::size_t i = 0; i < key_fields.size(); ++i) {
    if (i) os << ",";
    os << key_fields[i];
  }
  os << ")).";
  return os.str();
}

const Materialize* Program::materialization_of(const std::string& pred) const {
  for (const auto& m : materializations) {
    if (m.predicate == pred) return &m;
  }
  return nullptr;
}

std::string Program::to_string() const {
  std::string out;
  for (const auto& m : materializations) out += m.to_string() + "\n";
  for (const auto& r : rules) out += r.to_string() + "\n";
  return out;
}

}  // namespace fvn::ndlog
