#include "qvisor/policy_lexer.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace qv::qvisor {

namespace {

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

}  // namespace

std::string print_double(double w) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%g", w);
  if (std::strtod(buf, nullptr) == w) return buf;
  std::snprintf(buf, sizeof buf, "%.17g", w);
  return buf;
}

void PolicyLexer::skip_ws() {
  while (pos_ < end_ && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
}

bool PolicyLexer::at_end() {
  skip_ws();
  return pos_ >= end_;
}

bool PolicyLexer::consume(char c) {
  skip_ws();
  if (pos_ >= end_ || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

bool PolicyLexer::consume_op(std::string_view op) {
  skip_ws();
  const std::string_view rest(text_.data() + pos_, end_ - pos_);
  if (rest.substr(0, op.size()) != op) return false;
  if (op == ">" && rest.substr(0, 2) == ">>") return false;
  pos_ += op.size();
  return true;
}

std::string PolicyLexer::word() {
  skip_ws();
  if (pos_ >= end_ ||
      !(std::isalpha(static_cast<unsigned char>(text_[pos_])) ||
        text_[pos_] == '_')) {
    return {};
  }
  const std::size_t start = pos_;
  while (pos_ < end_ && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                         text_[pos_] == '_' || text_[pos_] == '-')) {
    ++pos_;
  }
  return text_.substr(start, pos_ - start);
}

bool PolicyLexer::number(double& out) {
  skip_ws();
  std::size_t i = pos_;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < end_ && is_digit(text_[i])) ++i;
    return i - from;
  };
  std::size_t mantissa = digits();
  if (i < end_ && text_[i] == '.') {
    ++i;
    mantissa += digits();
  }
  if (mantissa == 0) return false;
  if (i < end_ && (text_[i] == 'e' || text_[i] == 'E')) {
    const std::size_t mantissa_end = i++;
    if (i < end_ && (text_[i] == '+' || text_[i] == '-')) ++i;
    if (digits() == 0) i = mantissa_end;  // "2e" is the number 2, then "e"
  }
  const double v = std::strtod(text_.substr(pos_, i - pos_).c_str(), nullptr);
  if (!(v > 0.0) || !std::isfinite(v)) return false;
  pos_ = i;
  out = v;
  return true;
}

bool PolicyLexer::uint32(std::uint32_t& out) {
  skip_ws();
  std::size_t i = pos_;
  std::uint64_t v = 0;
  while (i < end_ && is_digit(text_[i])) {
    v = v * 10 + static_cast<std::uint64_t>(text_[i] - '0');
    if (v > 0xfffffffeull) return false;
    ++i;
  }
  if (i == pos_) return false;
  pos_ = i;
  out = static_cast<std::uint32_t>(v);
  return true;
}

}  // namespace qv::qvisor
