#include "aqe/query_builder.h"

#include <cmath>
#include <cstdio>

namespace apollo::aqe {

Query LatestValueQuery(const std::vector<std::string>& tables) {
  QueryBuilder builder;
  bool first = true;
  for (const std::string& table : tables) {
    if (!first) builder.Union();
    first = false;
    builder.Select(Aggregate::kMax, Column::kTimestamp)
        .Select(Column::kMetric)
        .From(table);
  }
  return builder.Build();
}

namespace {

const char* OpText(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
  }
  return "?";
}

std::string NumberText(double value) {
  // Integral values (timestamps, flags) print without a fraction so the
  // round-trip through the parser is exact; only those inside long long's
  // range are cast.
  if (std::fabs(value) < 9.2e18 && value == std::trunc(value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  // A sign keeps inf and nan numbers: unsigned, they lex as identifiers.
  char buf[48];
  std::snprintf(buf, sizeof(buf), std::isfinite(value) ? "%.17g" : "%+.17g",
                value);
  return buf;
}

void AppendSelect(std::string& out, const Select& select) {
  out += "SELECT ";
  for (std::size_t i = 0; i < select.items.size(); ++i) {
    if (i > 0) out += ", ";
    const SelectItem& item = select.items[i];
    if (item.aggregate == Aggregate::kNone) {
      out += ColumnName(item.column);
    } else {
      out += AggregateName(item.aggregate);
      out += "(";
      out += ColumnName(item.column);
      out += ")";
    }
  }
  out += " FROM ";
  out += select.table;
  if (!select.where.empty()) {
    out += " WHERE ";
    for (std::size_t i = 0; i < select.where.size(); ++i) {
      if (i > 0) out += " AND ";
      const Condition& cond = select.where[i];
      out += ColumnName(cond.column);
      out += " ";
      out += OpText(cond.op);
      out += " ";
      out += NumberText(cond.value);
    }
  }
  if (select.order_by.has_value()) {
    out += " ORDER BY ";
    out += ColumnName(select.order_by->column);
    out += select.order_by->descending ? " DESC" : " ASC";
  }
  if (select.limit.has_value()) {
    out += " LIMIT " + std::to_string(*select.limit);
  }
}

}  // namespace

std::string ToString(const Query& query) {
  std::string out;
  if (query.continuous) out += "SUBSCRIBE ";
  for (std::size_t i = 0; i < query.selects.size(); ++i) {
    if (i > 0) out += " UNION ";
    AppendSelect(out, query.selects[i]);
  }
  if (query.continuous && query.every_ns > 0) {
    out += " EVERY " + std::to_string(query.every_ns) + " ns";
  }
  return out;
}

}  // namespace apollo::aqe
