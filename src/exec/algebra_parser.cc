#include "exec/algebra_parser.h"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "exec/plan.h"

namespace x100 {

namespace {

struct ParseError {
  std::string message;
  size_t offset;
};

struct Token {
  enum class Kind { kIdent, kNumber, kString, kSymbol, kEnd };
  Kind kind;
  std::string text;
  size_t offset;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { Advance(); }

  const Token& cur() const { return cur_; }

  void Advance() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_]))) {
      pos_++;
    }
    cur_.offset = pos_;
    if (pos_ >= text_.size()) {
      cur_ = {Token::Kind::kEnd, "", pos_};
      return;
    }
    char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '#') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '#')) {
        pos_++;
      }
      cur_ = {Token::Kind::kIdent, text_.substr(start, pos_ - start), start};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.')) {
        pos_++;
      }
      cur_ = {Token::Kind::kNumber, text_.substr(start, pos_ - start), start};
      return;
    }
    if (c == '\'') {
      size_t start = ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '\'') pos_++;
      if (pos_ >= text_.size()) {
        throw ParseError{"unterminated string literal", start};
      }
      cur_ = {Token::Kind::kString, text_.substr(start, pos_ - start), start};
      pos_++;  // closing quote
      return;
    }
    // Multi-char comparison symbols.
    for (const char* sym : {"<=", ">=", "==", "!="}) {
      if (text_.compare(pos_, 2, sym) == 0) {
        cur_ = {Token::Kind::kSymbol, sym, pos_};
        pos_ += 2;
        return;
      }
    }
    cur_ = {Token::Kind::kSymbol, std::string(1, c), pos_};
    pos_++;
  }

 private:
  const std::string& text_;
  size_t pos_ = 0;
  Token cur_;
};

/// Maps the paper's prefix operator symbols to binder function names.
const char* SymbolFn(const std::string& sym) {
  if (sym == "<") return "lt";
  if (sym == "<=") return "le";
  if (sym == ">") return "gt";
  if (sym == ">=") return "ge";
  if (sym == "==") return "eq";
  if (sym == "!=") return "ne";
  if (sym == "+") return "add";
  if (sym == "-") return "sub";
  if (sym == "*") return "mul";
  if (sym == "/") return "div";
  return nullptr;
}

class ParserImpl {
 public:
  ParserImpl(ExecContext* ctx, const Catalog& catalog, const std::string& text)
      : ctx_(ctx), catalog_(catalog), lex_(text) {}

  std::unique_ptr<Operator> ParsePlan() {
    std::unique_ptr<Operator> op = ParseOperator();
    Expect(Token::Kind::kEnd, "");
    return op;
  }

 private:
  [[noreturn]] void Fail(const std::string& msg) {
    throw ParseError{msg, lex_.cur().offset};
  }

  bool Peek(Token::Kind kind, const std::string& text = "") {
    return lex_.cur().kind == kind && (text.empty() || lex_.cur().text == text);
  }

  Token Expect(Token::Kind kind, const std::string& text) {
    if (!Peek(kind, text)) {
      Fail("expected '" + (text.empty() ? std::string("<token>") : text) +
           "', got '" + lex_.cur().text + "'");
    }
    Token t = lex_.cur();
    lex_.Advance();
    return t;
  }

  bool Accept(Token::Kind kind, const std::string& text) {
    if (Peek(kind, text)) {
      lex_.Advance();
      return true;
    }
    return false;
  }

  std::string Ident() { return Expect(Token::Kind::kIdent, "").text; }

  // ---- operators -------------------------------------------------------------

  std::unique_ptr<Operator> ParseOperator() {
    std::string name = Ident();
    Expect(Token::Kind::kSymbol, "(");
    std::unique_ptr<Operator> op;
    try {
      op = ParseOperatorBody(name);
    } catch (const std::invalid_argument& e) {
      // Operators check their inputs when they are constructed (join keys,
      // bound expressions); a bad one in user text is a parse error.
      Fail(e.what());
    }
    Expect(Token::Kind::kSymbol, ")");
    return op;
  }

  std::unique_ptr<Operator> ParseOperatorBody(const std::string& name) {
    std::unique_ptr<Operator> op;
    if (name == "Table" || name == "Scan") {
      op = ParseTable();
    } else if (name == "Select") {
      auto child = ParseOperator();
      Expect(Token::Kind::kSymbol, ",");
      ExprPtr pred = ParseExpr();
      op = plan::Select(ctx_, std::move(child), std::move(pred));
    } else if (name == "Project") {
      auto child = ParseOperator();
      Expect(Token::Kind::kSymbol, ",");
      op = plan::Project(ctx_, std::move(child), ParseProjList());
    } else if (name == "Aggr" || name == "HashAggr" || name == "DirectAggr" ||
               name == "OrdAggr") {
      auto child = ParseOperator();
      Expect(Token::Kind::kSymbol, ",");
      std::vector<std::string> groups = ParseIdentList();
      Expect(Token::Kind::kSymbol, ",");
      std::vector<AggrSpec> aggrs = ParseAggrList();
      if (name == "OrdAggr") {
        op = plan::OrdAggr(ctx_, std::move(child), std::move(groups),
                           std::move(aggrs));
      } else {
        // HashAggr and DirectAggr (Figure 9's Q1) name the one Aggr, which
        // picks direct ids or hashing from the keys it sees.
        op = plan::Aggr(ctx_, std::move(child), std::move(groups),
                        std::move(aggrs));
      }
    } else if (name == "TopN") {
      auto child = ParseOperator();
      Expect(Token::Kind::kSymbol, ",");
      std::vector<OrdKey> keys = ParseOrdList();
      Expect(Token::Kind::kSymbol, ",");
      Token n = Expect(Token::Kind::kNumber, "");
      op = plan::TopN(ctx_, std::move(child), std::move(keys),
                      std::atoll(n.text.c_str()));
    } else if (name == "Order") {
      auto child = ParseOperator();
      Expect(Token::Kind::kSymbol, ",");
      op = plan::Order(ctx_, std::move(child), ParseOrdList());
    } else if (name == "HashJoin" || name == "SemiJoin" || name == "AntiJoin") {
      auto probe = ParseOperator();
      Expect(Token::Kind::kSymbol, ",");
      auto build = ParseOperator();
      Expect(Token::Kind::kSymbol, ",");
      JoinSpec spec;
      spec.probe_keys = ParseIdentList();
      Expect(Token::Kind::kSymbol, ",");
      spec.build_keys = ParseIdentList();
      Expect(Token::Kind::kSymbol, ",");
      spec.probe_out = ParseIdentList();
      // build_out is optional; semi/anti joins never emit build columns.
      if (Accept(Token::Kind::kSymbol, ",")) {
        spec.build_out = ParseIdentList();
      }
      if (name == "SemiJoin") spec.type = JoinType::kSemi;
      if (name == "AntiJoin") spec.type = JoinType::kAnti;
      op = plan::Join(ctx_, std::move(probe), std::move(build),
                      std::move(spec));
    } else if (name == "Fetch1Join") {
      auto child = ParseOperator();
      Expect(Token::Kind::kSymbol, ",");
      std::string table = Ident();
      const Table* target = catalog_.Find(table);
      if (target == nullptr) Fail("unknown table '" + table + "'");
      Expect(Token::Kind::kSymbol, ",");
      std::string rowid = Ident();
      Expect(Token::Kind::kSymbol, ",");
      op = plan::Fetch1Join(ctx_, std::move(child), *target, rowid,
                            ParseFetchList());
    } else {
      Fail("unknown operator '" + name + "'");
    }
    return op;
  }

  std::unique_ptr<Operator> ParseTable() {
    std::string name = Ident();
    const Table* table = catalog_.Find(name);
    if (table == nullptr) Fail("unknown table '" + name + "'");
    ScanSpec spec;
    while (Accept(Token::Kind::kSymbol, ",")) {
      spec.cols.push_back(Ident());
      if (table->schema().Find(spec.cols.back()) < 0) {
        Fail("no column '" + spec.cols.back() + "' in table '" + name + "'");
      }
    }
    if (spec.cols.empty()) {
      // All declared (non-index) columns.
      for (const Field& f : table->schema().fields()) {
        if (f.name.rfind("#ji_", 0) != 0) spec.cols.push_back(f.name);
      }
    }
    return plan::Scan(ctx_, *table, std::move(spec));
  }

  // ---- lists ----------------------------------------------------------------

  std::vector<std::string> ParseIdentList() {
    Expect(Token::Kind::kSymbol, "[");
    std::vector<std::string> out;
    if (!Peek(Token::Kind::kSymbol, "]")) {
      out.push_back(Ident());
      while (Accept(Token::Kind::kSymbol, ",")) out.push_back(Ident());
    }
    Expect(Token::Kind::kSymbol, "]");
    return out;
  }

  std::vector<NamedExpr> ParseProjList() {
    Expect(Token::Kind::kSymbol, "[");
    std::vector<NamedExpr> out;
    do {
      std::string name = Ident();
      if (Accept(Token::Kind::kSymbol, "=")) {
        out.push_back(As(name, ParseExpr()));
      } else {
        out.push_back(Pass(name));
      }
    } while (Accept(Token::Kind::kSymbol, ","));
    Expect(Token::Kind::kSymbol, "]");
    return out;
  }

  std::vector<AggrSpec> ParseAggrList() {
    Expect(Token::Kind::kSymbol, "[");
    std::vector<AggrSpec> out;
    do {
      std::string name = Ident();
      Expect(Token::Kind::kSymbol, "=");
      std::string fn = Ident();
      Expect(Token::Kind::kSymbol, "(");
      if (fn == "count") {
        out.push_back(CountAll(name));
      } else {
        ExprPtr input = ParseExpr();
        if (fn == "sum") {
          out.push_back(Sum(name, std::move(input)));
        } else if (fn == "min") {
          out.push_back(Min(name, std::move(input)));
        } else if (fn == "max") {
          out.push_back(Max(name, std::move(input)));
        } else {
          Fail("unknown aggregate '" + fn + "'");
        }
      }
      Expect(Token::Kind::kSymbol, ")");
    } while (Accept(Token::Kind::kSymbol, ","));
    Expect(Token::Kind::kSymbol, "]");
    return out;
  }

  std::vector<OrdKey> ParseOrdList() {
    Expect(Token::Kind::kSymbol, "[");
    std::vector<OrdKey> out;
    do {
      OrdKey k;
      k.name = Ident();
      if (Peek(Token::Kind::kIdent, "ASC")) {
        lex_.Advance();
      } else if (Peek(Token::Kind::kIdent, "DESC")) {
        k.desc = true;
        lex_.Advance();
      }
      out.push_back(std::move(k));
    } while (Accept(Token::Kind::kSymbol, ","));
    Expect(Token::Kind::kSymbol, "]");
    return out;
  }

  std::vector<std::pair<std::string, std::string>> ParseFetchList() {
    Expect(Token::Kind::kSymbol, "[");
    std::vector<std::pair<std::string, std::string>> out;
    do {
      std::string src = Ident();
      std::string dst = src;
      if (Accept(Token::Kind::kIdent, "AS")) dst = Ident();
      out.emplace_back(std::move(src), std::move(dst));
    } while (Accept(Token::Kind::kSymbol, ","));
    Expect(Token::Kind::kSymbol, "]");
    return out;
  }

  // ---- expressions ------------------------------------------------------------

  ExprPtr ParseExpr() {
    const Token& t = lex_.cur();
    if (t.kind == Token::Kind::kSymbol) {
      const char* fn = SymbolFn(t.text);
      if (fn == nullptr) Fail("unexpected '" + t.text + "' in expression");
      lex_.Advance();
      return ParseCall(fn);
    }
    if (t.kind == Token::Kind::kNumber) {
      std::string text = t.text;
      lex_.Advance();
      if (text.find('.') != std::string::npos) {
        return LitF64(std::atof(text.c_str()));
      }
      long long v = std::atoll(text.c_str());
      if (v >= INT32_MIN && v <= INT32_MAX) return LitI32(static_cast<int32_t>(v));
      return LitI64(v);
    }
    if (t.kind == Token::Kind::kString) {
      std::string s = t.text;
      lex_.Advance();
      return LitStr(std::move(s));
    }
    if (t.kind == Token::Kind::kIdent) {
      std::string name = t.text;
      lex_.Advance();
      if (!Peek(Token::Kind::kSymbol, "(")) return Col(std::move(name));
      // Literal constructors.
      if (name == "date" || name == "flt" || name == "str" || name == "int") {
        Expect(Token::Kind::kSymbol, "(");
        ExprPtr lit;
        if (name == "date") {
          Token s = Expect(Token::Kind::kString, "");
          lit = LitDate(s.text.c_str());
        } else if (name == "str") {
          Token s = Expect(Token::Kind::kString, "");
          lit = LitStr(s.text);
        } else if (Peek(Token::Kind::kString)) {
          Token s = Expect(Token::Kind::kString, "");
          lit = name == "flt" ? LitF64(std::atof(s.text.c_str()))
                              : LitI64(std::atoll(s.text.c_str()));
        } else {
          Token s = Expect(Token::Kind::kNumber, "");
          lit = name == "flt" ? LitF64(std::atof(s.text.c_str()))
                              : LitI64(std::atoll(s.text.c_str()));
        }
        Expect(Token::Kind::kSymbol, ")");
        return lit;
      }
      return ParseCall(name.c_str());
    }
    Fail("expected expression");
  }

  ExprPtr ParseCall(const char* fn) {
    Expect(Token::Kind::kSymbol, "(");
    std::vector<ExprPtr> args;
    if (!Peek(Token::Kind::kSymbol, ")")) {
      args.push_back(ParseExpr());
      while (Accept(Token::Kind::kSymbol, ",")) args.push_back(ParseExpr());
    }
    Expect(Token::Kind::kSymbol, ")");
    return Expr::Call(fn, std::move(args));
  }

  ExecContext* ctx_;
  const Catalog& catalog_;
  Lexer lex_;
};

}  // namespace

AlgebraParser::AlgebraParser(ExecContext* ctx, const Catalog& catalog)
    : ctx_(ctx), catalog_(catalog) {}

std::unique_ptr<Operator> AlgebraParser::Parse(const std::string& text,
                                               std::string* error) {
  try {
    ParserImpl parser(ctx_, catalog_, text);
    return parser.ParsePlan();
  } catch (const ParseError& e) {
    if (error != nullptr) {
      *error = e.message + " (at offset " + std::to_string(e.offset) + ")";
    }
    return nullptr;
  }
}

}  // namespace x100
