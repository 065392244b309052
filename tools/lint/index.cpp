#include "lint/index.hpp"

#include <algorithm>
#include <set>

namespace lint {

namespace {

const std::set<std::string>& not_a_function() {
  static const std::set<std::string> kSet = {
      "if",       "for",      "while",     "switch",   "catch",
      "return",   "sizeof",   "alignof",   "decltype", "noexcept",
      "throw",    "new",      "delete",    "co_await", "co_return",
      "co_yield", "typeid",   "alignas",   "defined",  "assert",
      "static_assert"};
  return kSet;
}

/// Lines occupied by preprocessor directives (including backslash
/// continuations). Directive tokens would otherwise be parsed as
/// declaration-scope garbage — a multi-line macro body is the classic
/// way to corrupt a heuristic scope stack.
std::vector<char> preprocessor_lines(const SourceFile& file) {
  const std::vector<std::string> lines = split_lines(file.stripped);
  std::vector<char> pp(lines.size() + 2, 0);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto first = lines[i].find_first_not_of(" \t");
    if (first == std::string::npos || lines[i][first] != '#') continue;
    std::size_t j = i;
    for (;;) {
      pp[j + 1] = 1;  // pp[] is 1-based like Token::line
      const auto last = lines[j].find_last_not_of(" \t\r");
      if (last == std::string::npos || lines[j][last] != '\\' ||
          j + 1 >= lines.size())
        break;
      ++j;
    }
    i = j;
  }
  return pp;
}

bool is_pp(const std::vector<char>& pp, const Token& t) {
  return t.line < pp.size() && pp[t.line] != 0;
}

/// Walk back over a `ns::ns::` qualifier chain ending just before token
/// `name_tok`; returns the chain start and fills `qualifier`
/// (`::`-joined, "" when unqualified).
std::size_t qualifier_chain(const std::vector<Token>& t, std::size_t name_tok,
                            std::string* qualifier) {
  std::vector<std::string> parts;
  std::size_t b = name_tok;
  while (b >= 2 && t[b - 1].text == "::") {
    std::size_t p = b - 2;
    if (t[p].text == ">") {
      // Templated qualifier `Basic<T>::push` — walk back to the `<`.
      std::size_t depth = 1;
      while (p > 0 && depth > 0) {
        --p;
        if (t[p].text == ">") ++depth;
        if (t[p].text == "<") --depth;
      }
      if (depth != 0 || p == 0) break;
      --p;  // the template name
    }
    if (t[p].kind != Token::Kind::kIdent) break;
    parts.push_back(t[p].text);
    b = p;
  }
  std::string q;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    if (!q.empty()) q += "::";
    q += *it;
  }
  *qualifier = std::move(q);
  return b;
}

struct ScopeEnt {
  std::string name;  // "" for plain blocks / anonymous namespaces
};

std::string scope_string(const std::vector<ScopeEnt>& stack,
                         const std::string& qualifier) {
  std::string s;
  for (const ScopeEnt& e : stack) {
    if (e.name.empty()) continue;
    if (!s.empty()) s += "::";
    s += e.name;
  }
  if (!qualifier.empty()) {
    if (!s.empty()) s += "::";
    s += qualifier;
  }
  return s;
}

class FileIndexer {
 public:
  FileIndexer(const SourceFile& file, std::size_t file_idx, Index* out)
      : file_(file), t_(file.tokens), pp_(preprocessor_lines(file)),
        file_idx_(file_idx), out_(out) {}

  void run() {
    const std::size_t n = t_.size();
    std::size_t i = 0;
    while (i < n) {
      const Token& tok = t_[i];
      if (is_pp(pp_, tok)) {
        ++i;
        continue;
      }
      const std::string& s = tok.text;
      if (s == "template" && i + 1 < n && t_[i + 1].text == "<") {
        const std::size_t past = skip_template_args(t_, i + 1);
        i = past == kNpos ? i + 2 : past;
        continue;
      }
      if (s == "using" || s == "typedef") {
        i = skip_past_semicolon(i);
        continue;
      }
      if (s == "namespace" && (i == 0 || t_[i - 1].text != "using")) {
        i = handle_namespace(i);
        continue;
      }
      if (s == "class" || s == "struct" || s == "union" || s == "enum") {
        i = handle_class(i);
        continue;
      }
      if (s == "=") {
        // Namespace/class-scope initializer: skip balanced to the `;` so
        // aggregate and lambda initializers never reach the scope stack.
        i = skip_initializer(i);
        continue;
      }
      if (s == "{") {
        stack_.push_back({""});
        ++i;
        continue;
      }
      if (s == "}") {
        if (!stack_.empty()) stack_.pop_back();
        ++i;
        continue;
      }
      if (tok.kind == Token::Kind::kIdent && i + 1 < n &&
          t_[i + 1].text == "(" && not_a_function().count(s) == 0) {
        const std::size_t next = try_function(i);
        if (next != kNpos) {
          i = next;
          continue;
        }
      }
      ++i;
    }
  }

 private:
  std::size_t skip_past_semicolon(std::size_t i) {
    const std::size_t n = t_.size();
    while (i < n && t_[i].text != ";") ++i;
    return i < n ? i + 1 : n;
  }

  /// Balanced skip from the `=` at `i` to just past the terminating `;`.
  std::size_t skip_initializer(std::size_t i) {
    const std::size_t n = t_.size();
    std::size_t depth = 0;
    ++i;
    while (i < n) {
      const std::string& s = t_[i].text;
      if (s == "(" || s == "[" || s == "{") ++depth;
      if (s == ")" || s == "]" || s == "}") {
        if (depth == 0) return i;  // stray closer: hand it to the walker
        --depth;
      }
      if (s == ";" && depth == 0) return i + 1;
      ++i;
    }
    return n;
  }

  std::size_t handle_namespace(std::size_t i) {
    const std::size_t n = t_.size();
    std::size_t j = i + 1;
    std::string name;
    while (j < n && (t_[j].kind == Token::Kind::kIdent ||
                     t_[j].text == "::" || t_[j].text == "inline")) {
      if (t_[j].kind == Token::Kind::kIdent || t_[j].text == "::")
        name += t_[j].text;
      ++j;
    }
    if (j < n && t_[j].text == "{") {
      stack_.push_back({name});  // "" for `namespace {` stays unnamed
      return j + 1;
    }
    // Namespace alias (`namespace fs = std::filesystem;`) or misparse.
    return skip_past_semicolon(i);
  }

  std::size_t handle_class(std::size_t i) {
    const std::size_t n = t_.size();
    std::size_t j = i + 1;
    if (j < n && t_[i].text == "enum" &&
        (t_[j].text == "class" || t_[j].text == "struct"))
      ++j;
    // Attributes and alignment before the name.
    for (;;) {
      if (j + 1 < n && t_[j].text == "[" && t_[j + 1].text == "[") {
        const std::size_t close = match_forward(t_, j);
        if (close == kNpos) return j + 1;
        j = close + 1;
      } else if (j + 1 < n && t_[j].text == "alignas" &&
                 t_[j + 1].text == "(") {
        const std::size_t close = match_forward(t_, j + 1);
        if (close == kNpos) return j + 1;
        j = close + 1;
      } else {
        break;
      }
    }
    std::string name;
    if (j < n && t_[j].kind == Token::Kind::kIdent) {
      name = t_[j].text;
      ++j;
    }
    if (j < n && t_[j].text == "<") {  // explicit specialisation head
      const std::size_t past = skip_template_args(t_, j);
      if (past == kNpos) return j + 1;
      j = past;
    }
    if (j < n && t_[j].text == "final") ++j;
    if (j < n && (t_[j].text == ":" || t_[j].text == ";" ||
                  t_[j].text == "{")) {
      if (t_[j].text == ":") {
        // Base clause: scan to the body `{` at bracket depth 0.
        ++j;
        while (j < n && t_[j].text != "{" && t_[j].text != ";") {
          if (t_[j].text == "<") {
            const std::size_t past = skip_template_args(t_, j);
            if (past == kNpos) return j + 1;
            j = past;
          } else if (t_[j].text == "(") {
            const std::size_t close = match_forward(t_, j);
            if (close == kNpos) return j + 1;
            j = close + 1;
          } else {
            ++j;
          }
        }
      }
      if (j < n && t_[j].text == "{") {
        stack_.push_back({name});
        return j + 1;
      }
      return j < n ? j + 1 : n;  // forward declaration (or base-less `;`)
    }
    // `struct X x;`-style declarator or elaborated type in a signature:
    // let the generic walker carry on from the next token.
    return i + 1;
  }

  /// Token at `i` is an identifier followed by `(`. Decide declaration /
  /// definition / neither; returns the resume position or kNpos.
  std::size_t try_function(std::size_t i) {
    const std::size_t n = t_.size();
    std::string name = t_[i].text;
    if (i > 0 && t_[i - 1].text == "~") name = "~" + name;
    const std::size_t close = match_forward(t_, i + 1);
    if (close == kNpos) return kNpos;
    std::size_t k = close + 1;
    while (k < n) {
      const std::string& s = t_[k].text;
      if (s == "const" || s == "volatile" || s == "mutable" ||
          s == "override" || s == "final" || s == "&" || s == "&&" ||
          s == "try") {
        ++k;
        continue;
      }
      if (s == "noexcept") {
        if (k + 1 < n && t_[k + 1].text == "(") {
          const std::size_t c = match_forward(t_, k + 1);
          if (c == kNpos) return kNpos;
          k = c + 1;
        } else {
          ++k;
        }
        continue;
      }
      if (k + 1 < n && s == "[" && t_[k + 1].text == "[") {
        const std::size_t c = match_forward(t_, k);
        if (c == kNpos) return kNpos;
        k = c + 1;
        continue;
      }
      if (s == "->") {  // trailing return type
        ++k;
        while (k < n && t_[k].text != "{" && t_[k].text != ";" &&
               t_[k].text != "=") {
          if (t_[k].text == "<") {
            const std::size_t past = skip_template_args(t_, k);
            if (past == kNpos) return kNpos;
            k = past;
          } else if (t_[k].text == "(") {
            const std::size_t c = match_forward(t_, k);
            if (c == kNpos) return kNpos;
            k = c + 1;
          } else {
            ++k;
          }
        }
        continue;
      }
      if (s == ":") {  // constructor initialiser list
        ++k;
        while (k < n && t_[k].text != ";") {
          if (t_[k].text == "(" || t_[k].text == "[") {
            const std::size_t c = match_forward(t_, k);
            if (c == kNpos) return kNpos;
            k = c + 1;
          } else if (t_[k].text == "{") {
            // A `{` after an identifier or `>` is a member brace-init;
            // anything else is the function body.
            const std::string& prev = t_[k - 1].text;
            if (t_[k - 1].kind == Token::Kind::kIdent || prev == ">") {
              const std::size_t c = match_forward(t_, k);
              if (c == kNpos) return kNpos;
              k = c + 1;
            } else {
              break;
            }
          } else {
            ++k;
          }
        }
        if (k < n && t_[k].text == "{") continue;  // re-dispatch on `{`
        return kNpos;
      }
      if (s == "{") {
        const std::size_t body_end = match_forward(t_, k);
        if (body_end == kNpos) return kNpos;
        record_def(i, name, k, body_end);
        return body_end + 1;
      }
      if (s == ";") {
        record_decl(i, name);
        return k + 1;
      }
      if (s == "=") {  // `= default`, `= delete`, `= 0`
        const std::size_t semi = skip_past_semicolon(k);
        record_decl(i, name);
        return semi;
      }
      return kNpos;
    }
    return kNpos;
  }

  void record_def(std::size_t name_tok, const std::string& name,
                  std::size_t body_begin, std::size_t body_end) {
    std::string qualifier;
    qualifier_chain(t_, name_tok, &qualifier);
    FunctionDef d;
    d.name = name;
    d.scope = scope_string(stack_, qualifier);
    d.file = file_idx_;
    d.line = t_[name_tok].line;
    d.body_begin = body_begin;
    d.body_end = body_end;
    const std::size_t idx = out_->functions.size();
    out_->functions.push_back(std::move(d));
    out_->fn_by_name.emplace(name, idx);
    out_->file_functions[file_idx_].push_back(idx);
  }

  void record_decl(std::size_t name_tok, const std::string& name) {
    std::string qualifier;
    qualifier_chain(t_, name_tok, &qualifier);
    FunctionDecl d;
    d.name = name;
    d.scope = scope_string(stack_, qualifier);
    d.file = file_idx_;
    d.line = t_[name_tok].line;
    const std::size_t idx = out_->decls.size();
    out_->decls.push_back(std::move(d));
    out_->decl_by_name.emplace(name, idx);
  }

  const SourceFile& file_;
  const std::vector<Token>& t_;
  std::vector<char> pp_;
  std::size_t file_idx_;
  Index* out_;
  std::vector<ScopeEnt> stack_;
};

/// Extract the call sites of one function body. Heuristic: `ident (`
/// whose qualifier-chain start is not preceded by an identifier, `>`,
/// `*` or `&` (those shapes are declarations or function-pointer types,
/// not calls).
void collect_calls(const SourceFile& file, std::size_t fn_idx,
                   const FunctionDef& def, const std::vector<char>& pp,
                   Index* out) {
  const std::vector<Token>& t = file.tokens;
  for (std::size_t k = def.body_begin + 1; k < def.body_end; ++k) {
    if (t[k].kind != Token::Kind::kIdent || t[k + 1].text != "(") continue;
    if (is_pp(pp, t[k])) continue;
    if (not_a_function().count(t[k].text) != 0) continue;
    std::string qualifier;
    const std::size_t start = qualifier_chain(t, k, &qualifier);
    const Token& prev = t[start - 1];  // body_begin is `{`, so start > 0
    const bool member = prev.text == "." || prev.text == "->";
    if (!member) {
      // An identifier before the name usually means a declaration
      // (`Foo bar(...)`) — but statement keywords introduce expressions.
      static const std::set<std::string> kExprKeywords = {
          "return", "co_return", "co_await", "co_yield", "throw",
          "else",   "do"};
      if ((prev.kind == Token::Kind::kIdent &&
           kExprKeywords.count(prev.text) == 0) ||
          prev.text == ">" || prev.text == "*" || prev.text == "&" ||
          prev.text == "~")
        continue;
    }
    CallSite c;
    c.fn = fn_idx;
    c.tok = k;
    c.line = t[k].line;
    c.name = t[k].text;
    c.qualifier = std::move(qualifier);
    c.member = member;
    const std::size_t idx = out->calls.size();
    out->calls.push_back(std::move(c));
    out->calls_by_fn[fn_idx].push_back(idx);
  }
}

/// True when `scope` equals `suffix` or ends with `::suffix`.
bool scope_suffix(const std::string& scope, const std::string& suffix) {
  if (scope == suffix) return true;
  if (scope.size() <= suffix.size() + 2) return false;
  return scope.compare(scope.size() - suffix.size(), suffix.size(),
                       suffix) == 0 &&
         scope.compare(scope.size() - suffix.size() - 2, 2, "::") == 0;
}

/// A declaration's scope matches a definition's when equal or when one
/// is a component suffix of the other (a qualified out-of-class
/// definition vs. the in-class declaration).
bool scopes_match(const std::string& def_scope, const std::string& decl_scope) {
  return def_scope == decl_scope || scope_suffix(def_scope, decl_scope) ||
         scope_suffix(decl_scope, def_scope);
}

}  // namespace

std::size_t Index::enclosing_function(std::size_t file,
                                      std::size_t tok) const {
  for (const std::size_t f : file_functions[file]) {
    const FunctionDef& d = functions[f];
    if (d.body_begin <= tok && tok <= d.body_end) return f;
  }
  return kNpos;
}

Index build_index(const Program& program) {
  Index index;
  index.file_functions.assign(program.files().size(), {});
  for (std::size_t f = 0; f < program.files().size(); ++f) {
    FileIndexer(program.files()[f], f, &index).run();
  }
  index.calls_by_fn.assign(index.functions.size(), {});
  for (std::size_t f = 0; f < program.files().size(); ++f) {
    const std::vector<char> pp = preprocessor_lines(program.files()[f]);
    for (const std::size_t fn : index.file_functions[f]) {
      collect_calls(program.files()[f], fn, index.functions[fn], pp, &index);
    }
  }
  return index;
}

CallGraph build_callgraph(const Program& program, const Index& index) {
  CallGraph cg;
  cg.resolved.assign(index.calls.size(), kNpos);
  cg.out.assign(index.functions.size(), {});
  cg.in.assign(index.functions.size(), {});

  for (std::size_t c = 0; c < index.calls.size(); ++c) {
    const CallSite& call = index.calls[c];
    const FunctionDef& caller = index.functions[call.fn];
    const std::size_t from_file = caller.file;

    std::vector<std::size_t> cands;
    const auto [lo, hi] = index.fn_by_name.equal_range(call.name);
    for (auto it = lo; it != hi; ++it) {
      const FunctionDef& def = index.functions[it->second];
      if (it->second == call.fn) continue;  // direct self-recursion: skip
      // Header-inclusion visibility: the definition itself is visible,
      // or some visible declaration matches the definition's scope.
      bool visible = program.is_visible(from_file, def.file);
      if (!visible) {
        const auto [dlo, dhi] = index.decl_by_name.equal_range(call.name);
        for (auto dit = dlo; dit != dhi && !visible; ++dit) {
          const FunctionDecl& decl = index.decls[dit->second];
          visible = program.is_visible(from_file, decl.file) &&
                    scopes_match(def.scope, decl.scope);
        }
      }
      if (!visible) continue;
      if (!call.qualifier.empty() && !scope_suffix(def.scope, call.qualifier))
        continue;
      cands.push_back(it->second);
    }
    if (cands.empty()) continue;

    // Scope proximity for unqualified free calls: same scope first, then
    // an enclosing scope, then everything visible.
    if (call.qualifier.empty() && !call.member) {
      auto tier = [&](auto pred) {
        std::vector<std::size_t> v;
        for (const std::size_t d : cands)
          if (pred(index.functions[d].scope)) v.push_back(d);
        return v;
      };
      std::vector<std::size_t> t1 =
          tier([&](const std::string& s) { return s == caller.scope; });
      if (t1.empty())
        t1 = tier([&](const std::string& s) {
          return s.empty() || caller.scope == s ||
                 (caller.scope.size() > s.size() &&
                  caller.scope.compare(0, s.size(), s) == 0 &&
                  caller.scope.compare(s.size(), 2, "::") == 0);
        });
      if (!t1.empty()) cands = std::move(t1);
    }

    // Require a unique scope: an overload set inside one class/namespace
    // resolves (edges to every overload), but same-named functions in
    // different scopes are ambiguous and contribute no edge.
    const std::string& scope0 = index.functions[cands[0]].scope;
    bool unique_scope = true;
    for (const std::size_t d : cands)
      if (index.functions[d].scope != scope0) unique_scope = false;
    if (!unique_scope) continue;

    cg.resolved[c] = cands[0];
    for (const std::size_t d : cands) {
      cg.out[call.fn].push_back(d);
      cg.in[d].push_back(call.fn);
    }
  }

  for (auto& v : cg.out) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  for (auto& v : cg.in) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  }
  return cg;
}

}  // namespace lint
