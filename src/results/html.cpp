#include "results/html.hpp"

#include <stdexcept>

namespace idseval::results {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument(what);
}

// Text form of one table cell — same conventions as the text renderer:
// strings verbatim, numbers in the shared exact format, null empty.
std::string cell_text(const Doc& cell) {
  switch (cell.kind()) {
    case Doc::Kind::kNull:
      return "";
    case Doc::Kind::kBool:
      return cell.as_bool() ? "true" : "false";
    case Doc::Kind::kInt:
      return std::to_string(cell.as_i64());
    case Doc::Kind::kUint:
      return std::to_string(cell.as_u64());
    case Doc::Kind::kDouble:
      return fmt_double_exact(cell.as_double());
    case Doc::Kind::kString:
      return cell.as_string();
    default:
      fail("table cell must be a scalar");
  }
}

bool is_rule_row(const Doc& row) {
  if (!row.is_object()) return false;
  const Doc* rule = row.find("rule");
  return rule != nullptr && rule->is_bool() && rule->as_bool();
}

struct TableShape {
  const Doc* title = nullptr;  ///< Null when absent.
  std::vector<std::string> names;
  std::vector<bool> right;  ///< Per column: right-aligned?
  const Doc* rows = nullptr;
};

TableShape parse_table(const Doc& table, const char* who) {
  if (!table.is_object()) fail(std::string(who) + ": expected table object");
  const Doc* columns = table.find("columns");
  const Doc* rows = table.find("rows");
  if (columns == nullptr || !columns->is_array() || columns->size() == 0) {
    fail(std::string(who) + ": missing columns");
  }
  if (rows == nullptr || !rows->is_array()) {
    fail(std::string(who) + ": missing rows");
  }
  TableShape shape;
  shape.title = table.find("title");
  shape.rows = rows;
  for (const Doc& column : columns->elements()) {
    const Doc* name = column.find("name");
    const Doc* align = column.find("align");
    if (name == nullptr) fail(std::string(who) + ": column without name");
    shape.names.push_back(name->as_string());
    shape.right.push_back(align != nullptr && align->as_string() == "right");
  }
  return shape;
}

}  // namespace

std::string html_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string table_to_html(const Doc& table) {
  const TableShape shape = parse_table(table, "table_to_html");
  std::string out = "<table>\n";
  if (shape.title != nullptr) {
    out += "  <caption>" + html_escape(shape.title->as_string()) +
           "</caption>\n";
  }
  out += "  <thead>\n    <tr>";
  for (std::size_t i = 0; i < shape.names.size(); ++i) {
    out += shape.right[i] ? "<th style=\"text-align:right\">" : "<th>";
    out += html_escape(shape.names[i]);
    out += "</th>";
  }
  out += "</tr>\n  </thead>\n  <tbody>\n";
  for (const Doc& row : shape.rows->elements()) {
    if (is_rule_row(row)) {
      // A rule is a visual group boundary: close and reopen the body so
      // CSS (tbody + tbody) can draw the separator.
      out += "  </tbody>\n  <tbody>\n";
      continue;
    }
    out += "    <tr>";
    for (std::size_t i = 0; i < row.elements().size(); ++i) {
      out += i < shape.right.size() && shape.right[i]
                 ? "<td style=\"text-align:right\">"
                 : "<td>";
      out += html_escape(cell_text(row.elements()[i]));
      out += "</td>";
    }
    out += "</tr>\n";
  }
  out += "  </tbody>\n</table>\n";
  return out;
}

std::string table_to_markdown(const Doc& table) {
  const TableShape shape = parse_table(table, "table_to_markdown");
  // Markdown pipe-table cells cannot hold a literal pipe.
  const auto md_cell = [](std::string text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      if (c == '|') out += "\\|";
      else out += c;
    }
    return out;
  };
  std::string out;
  if (shape.title != nullptr) {
    out += "**" + md_cell(shape.title->as_string()) + "**\n\n";
  }
  out += "|";
  for (const std::string& name : shape.names) {
    out += ' ';
    out += md_cell(name);
    out += " |";
  }
  out += "\n|";
  for (const bool right : shape.right) {
    out += right ? " ---: |" : " --- |";
  }
  out += "\n";
  for (const Doc& row : shape.rows->elements()) {
    if (is_rule_row(row)) continue;
    out += "|";
    for (const Doc& cell : row.elements()) {
      out += ' ';
      out += md_cell(cell_text(cell));
      out += " |";
    }
    out += "\n";
  }
  return out;
}

std::string html_document(std::string_view title,
                          const std::vector<Doc>& tables) {
  std::string out =
      "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>" +
      html_escape(title) +
      "</title>\n<style>\n"
      "body { font-family: sans-serif; margin: 2em; }\n"
      "table { border-collapse: collapse; margin-bottom: 2em; }\n"
      "caption { font-weight: bold; text-align: left; padding: 0.5em 0; }\n"
      "th, td { border: 1px solid #999; padding: 0.3em 0.7em; }\n"
      "th { background: #eee; }\n"
      "tbody + tbody tr:first-child td { border-top: 3px double #999; }\n"
      "</style>\n</head>\n<body>\n<h1>" +
      html_escape(title) + "</h1>\n";
  for (const Doc& table : tables) {
    if (table.is_null()) continue;  // optional sections stay optional
    out += table_to_html(table);
  }
  out += "</body>\n</html>\n";
  return out;
}

}  // namespace idseval::results
