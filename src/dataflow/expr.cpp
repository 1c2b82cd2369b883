#include "dataflow/expr.hpp"

#include <sstream>

#include "ndlog/analysis.hpp"
#include "ndlog/eval.hpp"

namespace fvn::dataflow {

CompiledExpr CompiledExpr::of_slot(int s) {
  CompiledExpr e;
  e.kind = Kind::Slot;
  e.slot = s;
  return e;
}

CompiledExpr CompiledExpr::of_const(ndlog::Value v) {
  CompiledExpr e;
  e.kind = Kind::Const;
  e.constant = std::move(v);
  return e;
}

ndlog::Value CompiledExpr::eval(const std::vector<ndlog::Value>& regs) const {
  switch (kind) {
    case Kind::Slot:
      return regs[static_cast<std::size_t>(slot)];
    case Kind::Const:
      return constant;
    case Kind::Func: {
      std::vector<ndlog::Value> vals;
      vals.reserve(args.size());
      for (const auto& a : args) vals.push_back(a.eval(regs));
      return fn->call(vals);
    }
    case Kind::Binary: {
      const ndlog::Value lhs = args[0].eval(regs);
      const ndlog::Value rhs = args[1].eval(regs);
      switch (op) {
        case ndlog::BinOp::Add: return lhs.add(rhs);
        case ndlog::BinOp::Sub: return lhs.sub(rhs);
        case ndlog::BinOp::Mul: return lhs.mul(rhs);
        case ndlog::BinOp::Div: return lhs.div(rhs);
        case ndlog::BinOp::Mod: return lhs.mod(rhs);
      }
      return ndlog::Value::nil();
    }
  }
  return ndlog::Value::nil();
}

std::string CompiledExpr::to_string() const {
  switch (kind) {
    case Kind::Slot: {
      std::string out = "$";
      out += std::to_string(slot);
      return out;
    }
    case Kind::Const:
      return constant.to_string();
    case Kind::Func: {
      std::ostringstream os;
      os << fn->name << '(';
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) os << ',';
        os << args[i].to_string();
      }
      os << ')';
      return os.str();
    }
    case Kind::Binary: {
      std::ostringstream os;
      os << '(' << args[0].to_string() << ndlog::to_string(op)
         << args[1].to_string() << ')';
      return os.str();
    }
  }
  return "?";
}

int SlotMap::lookup(const std::string& var) const {
  auto it = slots_.find(var);
  return it == slots_.end() ? -1 : it->second;
}

int SlotMap::bind(const std::string& var) {
  int slot = static_cast<int>(names_.size());
  slots_.emplace(var, slot);
  names_.push_back(var);
  return slot;
}

CompiledExpr compile_term(const ndlog::Term& term, const SlotMap& slots) {
  using ndlog::Term;
  switch (term.kind) {
    case Term::Kind::Var: {
      int slot = slots.lookup(term.name);
      if (slot < 0) {
        throw ndlog::AnalysisError("dataflow planner: variable '" + term.name +
                                   "' used before it is bound");
      }
      return CompiledExpr::of_slot(slot);
    }
    case Term::Kind::Const:
      return CompiledExpr::of_const(term.constant);
    case Term::Kind::Func: {
      CompiledExpr e;
      e.kind = CompiledExpr::Kind::Func;
      e.fn = ndlog::find_builtin(term.name);
      if (e.fn == nullptr) {
        throw ndlog::AnalysisError("dataflow planner: unknown function '" + term.name + "'");
      }
      e.args.reserve(term.args.size());
      for (const auto& a : term.args) e.args.push_back(compile_term(*a, slots));
      return e;
    }
    case Term::Kind::Binary: {
      CompiledExpr e;
      e.kind = CompiledExpr::Kind::Binary;
      e.op = term.op;
      e.args.push_back(compile_term(*term.args[0], slots));
      e.args.push_back(compile_term(*term.args[1], slots));
      return e;
    }
  }
  throw ndlog::AnalysisError("dataflow planner: unknown term kind");
}

}  // namespace fvn::dataflow
