// ear_lint whole-program index: function definitions, declarations and
// the cross-TU call graph.
//
// No libclang — the indexer walks the token stream with a scope stack
// (namespace / class / extern-"C" blocks) and recognises function
// definitions by shape: at declaration scope, `ident (` whose matching
// `)` is followed (after cv/ref/noexcept/trailing-return/ctor-init
// qualifiers) by `{`. Bodies are skipped wholesale, so local classes
// and lambdas never pollute the scope stack.
//
// Call resolution is deliberately conservative: a call edge is added
// only when the candidate set — after filtering on the written
// qualifier, on header-inclusion visibility and on scope proximity —
// collapses to a single scope. Anything ambiguous (overload sets
// spread across classes, same-named helpers in different namespaces)
// contributes *no* edge rather than a wrong one, so the interprocedural
// passes under-approximate instead of aliasing unrelated TUs.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "lint/source.hpp"

namespace lint {

struct FunctionDef {
  std::string name;    // unqualified name as written (`run`, `~Campaign`)
  std::string scope;   // enclosing scope + written qualifier, `::`-joined
  std::size_t file;    // index into Program::files()
  std::size_t line;    // line of the name token
  std::size_t body_begin;  // token index of the body '{'
  std::size_t body_end;    // token index of the matching '}'
};

struct FunctionDecl {
  std::string name;
  std::string scope;
  std::size_t file;
  std::size_t line;
};

struct CallSite {
  std::size_t fn;     // index of the enclosing FunctionDef
  std::size_t tok;    // token index of the callee name (in the fn's file)
  std::size_t line;   // line of the callee name token
  std::string name;   // unqualified callee name
  std::string qualifier;  // written qualifier (`std`, `common::fix`), or ""
  bool member = false;    // receiver call (`x.f(...)`, `p->f(...)`)
};

struct Index {
  std::vector<FunctionDef> functions;
  std::vector<FunctionDecl> decls;
  std::vector<CallSite> calls;
  /// Call sites of each function, in token order.
  std::vector<std::vector<std::size_t>> calls_by_fn;
  /// Function-definition indices grouped by unqualified name.
  std::multimap<std::string, std::size_t> fn_by_name;
  /// Declaration indices grouped by unqualified name.
  std::multimap<std::string, std::size_t> decl_by_name;
  /// Function definitions per file, in token order.
  std::vector<std::vector<std::size_t>> file_functions;

  /// Innermost function whose body token range contains token `tok` of
  /// file `file`, or kNpos.
  [[nodiscard]] std::size_t enclosing_function(std::size_t file,
                                               std::size_t tok) const;
};

[[nodiscard]] Index build_index(const Program& program);

struct CallGraph {
  /// Resolved callee (FunctionDef index) per call site, kNpos when the
  /// call is unresolved or ambiguous.
  std::vector<std::size_t> resolved;
  /// Deduplicated adjacency: out[f] = callees of functions[f].
  std::vector<std::vector<std::size_t>> out;
  /// Reverse adjacency: in[f] = callers of functions[f].
  std::vector<std::vector<std::size_t>> in;
};

[[nodiscard]] CallGraph build_callgraph(const Program& program,
                                        const Index& index);

}  // namespace lint
