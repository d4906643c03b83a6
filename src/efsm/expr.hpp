// tut::efsm — integer expression language for guards and actions.
//
// The paper models behaviour with "statechart diagrams combined with the UML
// 2.0 textual notation". This is our textual notation: a small, total,
// side-effect-free integer expression language used in transition guards,
// Assign/Compute/SetTimer actions and send arguments. The EFSM runtime runs
// it lowered to efsm::Program bytecode (Expr::eval is the reference
// evaluator the bytecode is tested against), and the code generator
// translates it one-to-one to C.
//
// Grammar (C precedence):
//   expr   := or ('?' expr ':' expr)?
//   or     := and ('||' and)*
//   and    := cmp ('&&' cmp)*
//   cmp    := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//   add    := mul (('+'|'-') mul)*
//   mul    := unary (('*'|'/'|'%') unary)*
//   unary  := ('-'|'!')* primary
//   primary:= integer | identifier | '(' expr ')'
//
// Boolean results are 0/1. Division and modulo by zero throw EvalError, as
// does an identifier missing from the environment.
#pragma once

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tut::efsm {

class ExprError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

class EvalError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Variable bindings for evaluation.
using Env = std::map<std::string, long>;

/// A compiled expression (immutable AST). Compile once, evaluate many times.
class Expr {
public:
  /// Parses `text`. Throws ExprError on syntax errors.
  static Expr compile(std::string_view text);

  /// Evaluates under `env`. Throws EvalError on unknown identifiers or
  /// division/modulo by zero.
  long eval(const Env& env) const;

  /// Identifiers referenced by the expression (sorted, unique).
  std::vector<std::string> identifiers() const;

  /// The original source text.
  const std::string& text() const noexcept { return text_; }

  struct Node;

  /// The AST root, for translators (efsm::Program's bytecode compiler).
  const Node& root() const noexcept { return *root_; }

private:
  Expr() = default;
  std::string text_;
  std::shared_ptr<const Node> root_;
};

/// AST node. Exposed so translators (the bytecode compiler, potentially the
/// code generator) can walk the tree without re-parsing the text.
struct Expr::Node {
  enum class Op {
    Const,
    Var,
    Neg,
    Not,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Ternary,
  };

  Op op;
  long value = 0;    // Const
  std::string name;  // Var
  std::shared_ptr<const Node> a, b, c;

  long eval(const Env& env) const;
};

}  // namespace tut::efsm
