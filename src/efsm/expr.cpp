#include "efsm/expr.hpp"

#include <algorithm>
#include <cctype>
#include <set>

namespace tut::efsm {

long Expr::Node::eval(const Env& env) const {
  switch (op) {
    case Op::Const: return value;
    case Op::Var: {
      auto it = env.find(name);
      if (it == env.end()) {
        throw EvalError("unknown identifier '" + name + "'");
      }
      return it->second;
    }
    case Op::Neg: return -a->eval(env);
    case Op::Not: return a->eval(env) == 0 ? 1 : 0;
    case Op::Add: return a->eval(env) + b->eval(env);
    case Op::Sub: return a->eval(env) - b->eval(env);
    case Op::Mul: return a->eval(env) * b->eval(env);
    case Op::Div: {
      const long d = b->eval(env);
      if (d == 0) throw EvalError("division by zero");
      return a->eval(env) / d;
    }
    case Op::Mod: {
      const long d = b->eval(env);
      if (d == 0) throw EvalError("modulo by zero");
      return a->eval(env) % d;
    }
    case Op::Eq: return a->eval(env) == b->eval(env) ? 1 : 0;
    case Op::Ne: return a->eval(env) != b->eval(env) ? 1 : 0;
    case Op::Lt: return a->eval(env) < b->eval(env) ? 1 : 0;
    case Op::Le: return a->eval(env) <= b->eval(env) ? 1 : 0;
    case Op::Gt: return a->eval(env) > b->eval(env) ? 1 : 0;
    case Op::Ge: return a->eval(env) >= b->eval(env) ? 1 : 0;
    case Op::And: return (a->eval(env) != 0 && b->eval(env) != 0) ? 1 : 0;
    case Op::Or: return (a->eval(env) != 0 || b->eval(env) != 0) ? 1 : 0;
    case Op::Ternary: return a->eval(env) != 0 ? b->eval(env) : c->eval(env);
  }
  throw EvalError("corrupt expression node");
}

namespace {

void collect_vars(const Expr::Node& n, std::set<std::string>& out) {
  if (n.op == Expr::Node::Op::Var) out.insert(n.name);
  if (n.a) collect_vars(*n.a, out);
  if (n.b) collect_vars(*n.b, out);
  if (n.c) collect_vars(*n.c, out);
}

using Node = Expr::Node;
using NodePtr = std::shared_ptr<const Node>;

NodePtr make(Node::Op op, NodePtr a = nullptr, NodePtr b = nullptr,
             NodePtr c = nullptr) {
  auto n = std::make_shared<Node>();
  n->op = op;
  n->a = std::move(a);
  n->b = std::move(b);
  n->c = std::move(c);
  return n;
}

class Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  NodePtr run() {
    NodePtr e = ternary();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("unexpected trailing input '" + std::string(text_.substr(pos_)) + "'");
    }
    return e;
  }

private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw ExprError("expression error in \"" + std::string(text_) + "\": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(const char* token) {
    skip_ws();
    const std::size_t len = std::char_traits<char>::length(token);
    if (text_.compare(pos_, len, token) != 0) return false;
    // Avoid matching '<' as prefix of '<=' etc.: handled by ordering calls.
    pos_ += len;
    return true;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  NodePtr ternary() {
    NodePtr cond = logical_or();
    if (eat("?")) {
      NodePtr then = ternary();
      if (!eat(":")) fail("expected ':' in ternary");
      NodePtr otherwise = ternary();
      return make(Node::Op::Ternary, cond, then, otherwise);
    }
    return cond;
  }

  NodePtr logical_or() {
    NodePtr lhs = logical_and();
    while (eat("||")) lhs = make(Node::Op::Or, lhs, logical_and());
    return lhs;
  }

  NodePtr logical_and() {
    NodePtr lhs = comparison();
    while (eat("&&")) lhs = make(Node::Op::And, lhs, comparison());
    return lhs;
  }

  NodePtr comparison() {
    NodePtr lhs = additive();
    if (eat("==")) return make(Node::Op::Eq, lhs, additive());
    if (eat("!=")) return make(Node::Op::Ne, lhs, additive());
    if (eat("<=")) return make(Node::Op::Le, lhs, additive());
    if (eat(">=")) return make(Node::Op::Ge, lhs, additive());
    // Must come after <= / >=.
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '<') {
      ++pos_;
      return make(Node::Op::Lt, lhs, additive());
    }
    if (pos_ < text_.size() && text_[pos_] == '>') {
      ++pos_;
      return make(Node::Op::Gt, lhs, additive());
    }
    return lhs;
  }

  NodePtr additive() {
    NodePtr lhs = multiplicative();
    for (;;) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '+') {
        ++pos_;
        lhs = make(Node::Op::Add, lhs, multiplicative());
      } else if (pos_ < text_.size() && text_[pos_] == '-') {
        ++pos_;
        lhs = make(Node::Op::Sub, lhs, multiplicative());
      } else {
        return lhs;
      }
    }
  }

  NodePtr multiplicative() {
    NodePtr lhs = unary();
    for (;;) {
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '*') {
        ++pos_;
        lhs = make(Node::Op::Mul, lhs, unary());
      } else if (pos_ < text_.size() && text_[pos_] == '/') {
        ++pos_;
        lhs = make(Node::Op::Div, lhs, unary());
      } else if (pos_ < text_.size() && text_[pos_] == '%') {
        ++pos_;
        lhs = make(Node::Op::Mod, lhs, unary());
      } else {
        return lhs;
      }
    }
  }

  NodePtr unary() {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
      return make(Node::Op::Neg, unary());
    }
    if (pos_ < text_.size() && text_[pos_] == '!' &&
        (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '=')) {
      ++pos_;
      return make(Node::Op::Not, unary());
    }
    return primary();
  }

  NodePtr primary() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of expression");
    const char c = text_[pos_];
    if (c == '(') {
      ++pos_;
      NodePtr e = ternary();
      if (!eat(")")) fail("expected ')'");
      return e;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      long value = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        value = value * 10 + (text_[pos_] - '0');
        ++pos_;
      }
      auto n = std::make_shared<Node>();
      n->op = Node::Op::Const;
      n->value = value;
      return n;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string name;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        name += text_[pos_++];
      }
      auto n = std::make_shared<Node>();
      n->op = Node::Op::Var;
      n->name = std::move(name);
      return n;
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  const std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Expr Expr::compile(std::string_view text) {
  Expr e;
  e.text_ = std::string(text);
  e.root_ = Parser(e.text_).run();
  return e;
}

long Expr::eval(const Env& env) const { return root_->eval(env); }

std::vector<std::string> Expr::identifiers() const {
  std::set<std::string> set;
  collect_vars(*root_, set);
  return {set.begin(), set.end()};
}

}  // namespace tut::efsm
