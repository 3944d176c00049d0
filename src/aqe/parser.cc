#include "aqe/parser.h"

#include <cctype>
#include <cstdlib>

namespace apollo::aqe {

const char* AggregateName(Aggregate agg) {
  switch (agg) {
    case Aggregate::kNone:
      return "";
    case Aggregate::kMax:
      return "MAX";
    case Aggregate::kMin:
      return "MIN";
    case Aggregate::kAvg:
      return "AVG";
    case Aggregate::kSum:
      return "SUM";
    case Aggregate::kCount:
      return "COUNT";
    case Aggregate::kLast:
      return "LAST";
  }
  return "?";
}

const char* ColumnName(Column col) {
  switch (col) {
    case Column::kTimestamp:
      return "timestamp";
    case Column::kMetric:
      return "metric";
    case Column::kPredicted:
      return "predicted";
    case Column::kStar:
      return "*";
  }
  return "?";
}

namespace {

constexpr double kTwo63 = 9223372036854775808.0;

enum class TokKind { kIdent, kNumber, kSymbol, kEnd };

struct Token {
  TokKind kind;
  std::string text;  // uppercased for idents when matching keywords
  std::string raw;
  double number = 0.0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Expected<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    std::size_t i = 0;
    const std::size_t n = text_.size();
    while (i < n) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t start = i;
        while (i < n && (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                         text_[i] == '_' || text_[i] == '.')) {
          ++i;
        }
        Token tok;
        tok.kind = TokKind::kIdent;
        tok.raw = text_.substr(start, i - start);
        tok.text = Upper(tok.raw);
        tokens.push_back(tok);
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
          c == '+') {
        char* end = nullptr;
        const double value = std::strtod(text_.c_str() + i, &end);
        if (end == text_.c_str() + i) {
          return Error(ErrorCode::kParseError,
                       "bad number at offset " + std::to_string(i));
        }
        Token tok;
        tok.kind = TokKind::kNumber;
        tok.number = value;
        tok.raw = text_.substr(i, static_cast<std::size_t>(
                                      end - (text_.c_str() + i)));
        i = static_cast<std::size_t>(end - text_.c_str());
        tokens.push_back(tok);
        continue;
      }
      // Multi-char comparison operators.
      if ((c == '<' || c == '>' || c == '!' || c == '=') && i + 1 < n &&
          text_[i + 1] == '=') {
        tokens.push_back(Token{TokKind::kSymbol, text_.substr(i, 2),
                               text_.substr(i, 2), 0.0});
        i += 2;
        continue;
      }
      if (c == '(' || c == ')' || c == ',' || c == ';' || c == '*' ||
          c == '<' || c == '>' || c == '=') {
        tokens.push_back(Token{TokKind::kSymbol, std::string(1, c),
                               std::string(1, c), 0.0});
        ++i;
        continue;
      }
      return Error(ErrorCode::kParseError,
                   std::string("unexpected character '") + c + "'");
    }
    tokens.push_back(Token{TokKind::kEnd, "", "", 0.0});
    return tokens;
  }

 private:
  static std::string Upper(const std::string& s) {
    std::string out = s;
    for (char& c : out) c = static_cast<char>(std::toupper(
                            static_cast<unsigned char>(c)));
    return out;
  }

  const std::string& text_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Expected<Query> Run() {
    Query query;
    // SUBSCRIBE SELECT ... [EVERY n unit]; — the continuous-query form.
    if (MatchKeyword("SUBSCRIBE")) query.continuous = true;
    for (;;) {
      auto select = ParseSelect();
      if (!select.ok()) return select.error();
      query.selects.push_back(std::move(*select));
      if (MatchKeyword("UNION")) {
        // Accept optional ALL.
        MatchKeyword("ALL");
        continue;
      }
      break;
    }
    if (MatchKeyword("EVERY")) {
      if (!query.continuous) {
        return Error(ErrorCode::kParseError,
                     "EVERY is only valid after SUBSCRIBE");
      }
      if (Peek().kind != TokKind::kNumber) {
        return Error(ErrorCode::kParseError, "expected number after EVERY");
      }
      const double n = Advance().number;
      if (!(n >= 0)) {
        return Error(ErrorCode::kParseError, "EVERY interval must be >= 0");
      }
      std::int64_t scale = 0;
      if (MatchKeyword("NS")) scale = 1;
      else if (MatchKeyword("US")) scale = 1000;
      else if (MatchKeyword("MS")) scale = 1000 * 1000;
      else if (MatchKeyword("S") || MatchKeyword("SEC") ||
               MatchKeyword("SECONDS")) {
        scale = 1000 * 1000 * 1000;
      } else {
        return Error(ErrorCode::kParseError,
                     "expected time unit (ns|us|ms|s) near '" + Peek().raw +
                         "'");
      }
      const double every_ns = n * static_cast<double>(scale);
      if (every_ns >= kTwo63) {
        return Error(ErrorCode::kParseError,
                     "EVERY interval must be below 2^63 ns");
      }
      query.every_ns = static_cast<std::int64_t>(every_ns);
    }
    MatchSymbol(";");
    if (Peek().kind != TokKind::kEnd) {
      return Error(ErrorCode::kParseError,
                   "trailing input near '" + Peek().raw + "'");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool MatchKeyword(const std::string& kw) {
    if (Peek().kind == TokKind::kIdent && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool MatchSymbol(const std::string& sym) {
    if (Peek().kind == TokKind::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }

  Expected<Column> ParseColumn() {
    if (MatchSymbol("*")) return Column::kStar;
    if (Peek().kind != TokKind::kIdent) {
      return Error(ErrorCode::kParseError,
                   "expected column near '" + Peek().raw + "'");
    }
    const std::string name = Advance().text;
    if (name == "TIMESTAMP") return Column::kTimestamp;
    if (name == "METRIC" || name == "VALUE") return Column::kMetric;
    if (name == "PREDICTED" || name == "PROVENANCE") {
      return Column::kPredicted;
    }
    return Error(ErrorCode::kParseError, "unknown column: " + name);
  }

  Expected<SelectItem> ParseSelectItem() {
    SelectItem item;
    if (Peek().kind == TokKind::kIdent) {
      const std::string name = Peek().text;
      Aggregate agg = Aggregate::kNone;
      if (name == "MAX") agg = Aggregate::kMax;
      else if (name == "MIN") agg = Aggregate::kMin;
      else if (name == "AVG") agg = Aggregate::kAvg;
      else if (name == "SUM") agg = Aggregate::kSum;
      else if (name == "COUNT") agg = Aggregate::kCount;
      else if (name == "LAST") agg = Aggregate::kLast;
      if (agg != Aggregate::kNone) {
        ++pos_;
        if (!MatchSymbol("(")) {
          return Error(ErrorCode::kParseError,
                       "expected '(' after " + name);
        }
        auto column = ParseColumn();
        if (!column.ok()) return column.error();
        if (!MatchSymbol(")")) {
          return Error(ErrorCode::kParseError,
                       "expected ')' in " + name + "(...)");
        }
        if (*column == Column::kStar && agg != Aggregate::kCount) {
          return Error(ErrorCode::kParseError,
                       "'*' only valid inside COUNT(*)");
        }
        item.aggregate = agg;
        item.column = *column;
        return item;
      }
    }
    auto column = ParseColumn();
    if (!column.ok()) return column.error();
    if (*column == Column::kStar) {
      return Error(ErrorCode::kParseError,
                   "bare '*' select is not supported; name the columns");
    }
    item.column = *column;
    return item;
  }

  // Appends one condition — or two for `col BETWEEN lo AND hi`, which
  // desugars to `col >= lo AND col <= hi`. The BETWEEN owns its AND, so
  // the WHERE loop never mistakes it for a conjunction.
  Status ParseCondition(std::vector<Condition>& out) {
    auto column = ParseColumn();
    if (!column.ok()) return column.error();
    if (MatchKeyword("BETWEEN")) {
      if (Peek().kind != TokKind::kNumber) {
        return Error(ErrorCode::kParseError,
                     "expected number after BETWEEN near '" + Peek().raw +
                         "'");
      }
      const double lo = Advance().number;
      if (!MatchKeyword("AND")) {
        return Error(ErrorCode::kParseError,
                     "expected AND in BETWEEN near '" + Peek().raw + "'");
      }
      if (Peek().kind != TokKind::kNumber) {
        return Error(ErrorCode::kParseError,
                     "expected number after BETWEEN .. AND near '" +
                         Peek().raw + "'");
      }
      const double hi = Advance().number;
      out.push_back(Condition{*column, CompareOp::kGe, lo});
      out.push_back(Condition{*column, CompareOp::kLe, hi});
      return Status::Ok();
    }
    if (Peek().kind != TokKind::kSymbol) {
      return Error(ErrorCode::kParseError,
                   "expected comparison operator near '" + Peek().raw + "'");
    }
    const std::string op_text = Advance().text;
    CompareOp op;
    if (op_text == "<") op = CompareOp::kLt;
    else if (op_text == "<=") op = CompareOp::kLe;
    else if (op_text == ">") op = CompareOp::kGt;
    else if (op_text == ">=") op = CompareOp::kGe;
    else if (op_text == "=" || op_text == "==") op = CompareOp::kEq;
    else if (op_text == "!=") op = CompareOp::kNe;
    else {
      return Error(ErrorCode::kParseError, "bad operator: " + op_text);
    }
    if (Peek().kind != TokKind::kNumber) {
      return Error(ErrorCode::kParseError,
                   "expected number near '" + Peek().raw + "'");
    }
    const double value = Advance().number;
    out.push_back(Condition{*column, op, value});
    return Status::Ok();
  }

  Expected<Select> ParseSelect() {
    if (!MatchKeyword("SELECT")) {
      return Error(ErrorCode::kParseError,
                   "expected SELECT near '" + Peek().raw + "'");
    }
    Select select;
    for (;;) {
      auto item = ParseSelectItem();
      if (!item.ok()) return item.error();
      select.items.push_back(*item);
      if (!MatchSymbol(",")) break;
    }
    if (!MatchKeyword("FROM")) {
      return Error(ErrorCode::kParseError,
                   "expected FROM near '" + Peek().raw + "'");
    }
    if (Peek().kind != TokKind::kIdent) {
      return Error(ErrorCode::kParseError,
                   "expected table name near '" + Peek().raw + "'");
    }
    select.table = Advance().raw;

    if (MatchKeyword("WHERE")) {
      for (;;) {
        Status cond = ParseCondition(select.where);
        if (!cond.ok()) return Error(cond.code(), cond.message());
        if (!MatchKeyword("AND")) break;
      }
    }
    if (MatchKeyword("ORDER")) {
      if (!MatchKeyword("BY")) {
        return Error(ErrorCode::kParseError, "expected BY after ORDER");
      }
      auto column = ParseColumn();
      if (!column.ok()) return column.error();
      OrderBy order;
      order.column = *column;
      if (MatchKeyword("DESC")) order.descending = true;
      else MatchKeyword("ASC");
      select.order_by = order;
    }
    if (MatchKeyword("LIMIT")) {
      if (Peek().kind != TokKind::kNumber) {
        return Error(ErrorCode::kParseError, "expected number after LIMIT");
      }
      // A fractional LIMIT truncates; one at or above 2^64 is no limit.
      const double n = Advance().number;
      if (!(n >= 0)) {
        return Error(ErrorCode::kParseError, "LIMIT must be >= 0");
      }
      if (n < 2 * kTwo63) select.limit = static_cast<std::uint64_t>(n);
    }
    return select;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Expected<Query> Parse(const std::string& text) {
  Lexer lexer(text);
  auto tokens = lexer.Run();
  if (!tokens.ok()) return tokens.error();
  Parser parser(std::move(*tokens));
  return parser.Run();
}

}  // namespace apollo::aqe
