#!/usr/bin/env python3
"""dps-verify: AST-level protocol & lock-order analyzer (ctest `Lint.DpsVerify`).

Where `scripts/dps_lint.py` pattern-matches lines, this tool understands
statements: it parses every translation unit named by compile_commands.json
into a small function/statement IR and runs three semantic checks over
it, each targeting a bug class this repo has actually shipped:

  1. lock-order      build the cross-TU lock acquisition graph over
                     dps::Mutex / dps::MutexLock (seeded by DPS_REQUIRES
                     annotations and propagated through the call graph),
                     report cycles as potential deadlocks, emit the graph
                     as DOT (docs/lock_order.dot).
  2. protocol        path-sensitive acquire/release pairing of the runtime
                     protocols: create_flow_account -> finish_flow_account
                     (the PR-6 "window that can never refill" leak and the
                     PR-7 raise-out-of-flow_acquire leak), BufferPool
                     acquire -> release/ownership transfer, and
                     admit_call -> retire_call/retire_admission. Every
                     control-flow path out of a function — early returns,
                     `return Error(...)`, and exception edges out of
                     may-raise calls — must release or hand off the
                     resource.
  3. discard         calls whose Errc/Error-bearing return value is
                     silently dropped (statement-expression calls outside
                     the allowlist; `(void)call()` is the sanctioned
                     explicit discard).

Frontends. With the clang python bindings installed (`import clang.cindex`)
the IR is lowered from the real clang AST using the exact flags recorded in
compile_commands.json. Without them the built-in fallback frontend — a
tokenizer plus a structured-statement parser tuned to this codebase's
idiom — produces the same IR, so the checks run (and the fixture corpus is
asserted) on GCC-only hosts too. `--frontend` forces one or the other;
`--frontend libclang` exits with status 3 ("no usable frontend") when the
bindings are missing, which scripts/tier1.sh maps to SKIP.

Findings are suppressed only through ALLOWLIST below, keyed by stable
(check, file, symbol) ids — never by line number — and every entry carries
a written reason. docs/STATIC_ANALYSIS.md documents the policy.

Exit status: 0 clean, 1 findings, 2 usage/internal error, 3 no frontend.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Allowlists. Key: "check:file:symbol" (file repo-relative, symbol = the
# qualified function for protocol/discard findings, the cycle's sorted node
# list for lock-order). Value: reason.
# An entry that stops matching any finding is itself a finding (dead
# allowlist entries rot; same policy as dps_lint's TSAN_OPT_OUT).
# --------------------------------------------------------------------------

ALLOWLIST = {
    # (empty — the first full run over src/ came back clean after the
    #  convictions below were fixed in source instead of silenced)
}

# Lock cycles that are understood and accepted, keyed by the sorted "A<->B"
# node pair list. Every entry needs a written reason; acceptance criteria
# require each one to be documented in docs/STATIC_ANALYSIS.md too.
ACCEPTED_LOCK_CYCLES = {
}

# Functions whose Errc/Error return may be dropped without `(void)`.
DISCARD_ALLOWLIST = {
    # (empty)
}

# --- protocol definitions ---------------------------------------------------

# The engine protocols checked by the `protocol` pass. `acquire`/`release`
# map callee name -> index of the argument that identifies the resource
# (None = the call's assigned variable is the resource, value-style).
PROTOCOLS = [
    {
        "name": "flow-account",
        "acquire": {"create_flow_account": 0},
        "release": {"finish_flow_account": 0, "poison_flow_accounts": None},
        "desc": "split flow-control account (docs/SERVICE_MESH.md): every "
                "path out of the creating function must finish_flow_account "
                "or the window can never refill",
    },
    {
        "name": "buffer-pool",
        "acquire": {"acquire": None,       # value-style: tracks the variable
                    "acquire_sized": None},
        "acquire_recv": "BufferPool",      # only when the receiver resolves
        "release": {"release": 0},
        "transfer_releases": True,         # passing the buffer on = handoff
        "desc": "BufferPool buffer: release it or hand it off (encode/send "
                "own it after transfer); dropping it leaks pool capacity",
    },
    {
        "name": "admission",
        "acquire": {"admit_call": 0},
        "release": {"retire_call": 0, "retire_admission": 0,
                    "bind_admission": 1},  # tenant is arg 1; binding hands
                                           # the slot to the CallState
        "desc": "tenant admission slot (docs/SERVICE_MESH.md): exactly one "
                "retirement per admitted call",
    },
]

# Calls that can raise dps::Error mid-protocol (the PR-7 class: a poisoned
# flow_acquire raises while the caller still owes a release). A call to one
# of these while a tracked resource is live must sit inside a try block
# whose catch-all releases (directly, or via a one-call cleanup helper).
MAY_RAISE = {"flow_acquire", "send_now", "route_and_send", "raise",
             "acquire_collective_credit"}

CPP_EXTS = (".cpp", ".cc", ".cxx")
HDR_EXTS = (".hpp", ".h", ".hh")

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "catch", "return", "do", "else",
    "sizeof", "alignof", "decltype", "static_assert", "new", "delete",
    "throw", "case", "default", "assert",
}

TYPE_INTRO = {
    "void", "bool", "char", "int", "long", "short", "unsigned", "signed",
    "float", "double", "auto", "size_t", "uint8_t", "uint16_t", "uint32_t",
    "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
}


def rel(root, path):
    return os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")


# ==========================================================================
# Lexing (fallback frontend)
# ==========================================================================

TOKEN_RE = re.compile(r"""
      (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<num>\.?[0-9](?:[0-9a-fA-F'.xXbBpP+-]*[0-9a-fA-FlLuUzZ]|[0-9])?)
    | (?P<str>"(?:\\.|[^"\\])*"|'(?:\\.|[^'\\])*')
    | (?P<punct>->\*|->|::|\+\+|--|<<=|>>=|<=>|<<|>>|<=|>=|==|!=|&&|\|\|
                |\+=|-=|\*=|/=|%=|&=|\|=|\^=|\.\.\.|[{}()\[\];,.<>:=+\-*/%&|^!~?])
""", re.VERBOSE)


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line

    def __repr__(self):
        return f"{self.text}@{self.line}"


def strip_comments(text):
    """Blank // and /* */ bodies and string/char contents, keeping lines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:end]))
            i = end
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 2
                elif text[j] == "\n":
                    break  # unterminated on this line; bail out
                else:
                    j += 1
            # Keep the quotes, blank the body (so tokens never match inside).
            body = text[i + 1:j]
            out.append(quote + "".join(
                ch if ch == "\n" else " " for ch in body))
            if j < n and text[j] == quote:
                out.append(quote)
                j += 1
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def lex(text):
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(text):
        line += text.count("\n", pos, m.start())
        pos = m.start()
        kind = m.lastgroup
        toks.append(Tok(kind, m.group(), line))
    return toks


# ==========================================================================
# Preprocessor view (fallback frontend)
# ==========================================================================

PP_DIRECTIVE = re.compile(r"^\s*#\s*(\w+)\b(.*)$")

T, F, U = "T", "F", "U"  # three-valued condition results


def eval_pp_cond(expr, defines):
    """Three-valued evaluation of an #if condition.

    `defines` maps macro name -> bool (defined / explicitly undefined);
    unknown macros evaluate to U. Handles defined(X), !, &&, ||, parens and
    integer literals; anything fancier degrades to U, never to a guess.
    """
    expr = expr.strip()
    expr = re.sub(r"/\*.*?\*/", " ", expr)

    tokens = re.findall(r"defined\s*\(\s*\w+\s*\)|defined\s+\w+|\w+|&&|\|\||!|\(|\)", expr)

    def to_val(tok):
        m = re.match(r"defined\s*\(?\s*(\w+)\s*\)?", tok)
        if m:
            name = m.group(1)
            if name in defines:
                return T if defines[name] else F
            return U
        if re.fullmatch(r"\d+", tok):
            return T if int(tok) else F
        if re.fullmatch(r"\w+", tok):
            # Bare macro in arithmetic context: defined-and-nonzero.
            if tok in defines:
                return T if defines[tok] else F
            return U
        return tok

    vals = [to_val(t) for t in tokens]

    # Tiny recursive-descent over ! && || ( ).
    pos = [0]

    def peek():
        return vals[pos[0]] if pos[0] < len(vals) else None

    def eat():
        v = peek()
        pos[0] += 1
        return v

    def parse_primary():
        v = peek()
        if v == "(":
            eat()
            r = parse_or()
            if peek() == ")":
                eat()
            return r
        if v == "!":
            eat()
            r = parse_primary()
            return {T: F, F: T, U: U}[r]
        if v in (T, F, U):
            eat()
            return v
        # Unparseable operator (e.g. comparison): give up on this operand.
        eat()
        return U

    def parse_and():
        r = parse_primary()
        while peek() == "&&":
            eat()
            rhs = parse_primary()
            if r == F or rhs == F:
                r = F
            elif r == T and rhs == T:
                r = T
            else:
                r = U
        return r

    def parse_or():
        r = parse_and()
        while peek() == "||":
            eat()
            rhs = parse_and()
            if r == T or rhs == T:
                r = T
            elif r == F and rhs == F:
                r = F
            else:
                r = U
        return r

    if not vals:
        return U
    return parse_or()


def single_branch_text(text):
    """The view of `text` the fallback parser reads: lines of a conditional
    branch that is known not taken are blanked, and unknown macros take
    their first branch so braces stay balanced. Line numbers are kept."""
    defines = {}
    kept = []
    # Frames: [taken_now, seen_true]
    stack = []
    for raw in text.split("\n"):
        m = PP_DIRECTIVE.match(raw)
        parent_taken = all(f[0] for f in stack)
        if m:
            d, rest = m.group(1), m.group(2)
            if d in ("if", "ifdef", "ifndef"):
                if d == "ifdef":
                    v = eval_pp_cond(f"defined({rest.strip()})", defines)
                elif d == "ifndef":
                    v = eval_pp_cond(f"!defined({rest.strip()})", defines)
                else:
                    v = eval_pp_cond(rest, defines)
                taken = parent_taken and v != F
                stack.append([taken, taken])
            elif d == "elif":
                if stack:
                    f = stack[-1]
                    v = eval_pp_cond(rest, defines)
                    f[0] = parent_taken_of(stack) and not f[1] and v != F
                    f[1] = f[1] or f[0]
            elif d == "else":
                if stack:
                    f = stack[-1]
                    f[0] = parent_taken_of(stack) and not f[1]
                    f[1] = True
            elif d == "endif":
                if stack:
                    stack.pop()
            elif d == "define" and parent_taken:
                name = rest.strip().split("(")[0].split()[0] \
                    if rest.strip() else ""
                if name:
                    defines.setdefault(name, True)
            # Directive lines never carry code.
            kept.append("")
            continue
        kept.append(raw if parent_taken else "")
    return "\n".join(kept)


def parent_taken_of(stack):
    return all(f[0] for f in stack[:-1])


# ==========================================================================
# IR
# ==========================================================================

class Stmt:
    """One structured statement.

    kind: block | if | loop | switch | try | return | throw | expr | jump
      block:  stmts
      if:     then_s, else_s (Stmt or None), cond_text
      loop:   body
      switch: cases (list of blocks), has_default
      try:    body, handlers [(is_catch_all, block)]
      return: text, line
      throw:  line            (covers `throw` and dps::raise)
      expr:   calls, decls, text, line
      jump:   'break' | 'continue'
    """

    def __init__(self, kind, line=0, **kw):
        self.kind = kind
        self.line = line
        self.__dict__.update(kw)


class CallSite:
    __slots__ = ("name", "recv", "args", "line", "stmt_is_bare")

    def __init__(self, name, recv, args, line, stmt_is_bare=False):
        self.name = name
        self.recv = recv          # receiver expr text ('' for free calls)
        self.args = args          # list of raw arg strings
        self.line = line
        self.stmt_is_bare = stmt_is_bare  # whole statement == this call


class VarDecl:
    __slots__ = ("name", "type", "init", "line")

    def __init__(self, name, type_, init, line):
        self.name = name
        self.type = type_
        self.init = init
        self.line = line


class Function:
    def __init__(self, qualname, cls, name, path, line):
        self.qualname = qualname
        self.cls = cls              # enclosing class name or ""
        self.name = name
        self.path = path            # repo-relative
        self.line = line
        self.params = {}            # name -> type text
        self.requires = []          # DPS_REQUIRES argument exprs
        self.rettype = ""
        self.body = None            # Stmt('block')

    def all_stmts(self):
        out = []

        def walk(s):
            if s is None:
                return
            out.append(s)
            if s.kind == "block":
                for c in s.stmts:
                    walk(c)
            elif s.kind == "if":
                walk(s.then_s)
                walk(s.else_s)
            elif s.kind == "loop":
                walk(s.body)
            elif s.kind == "switch":
                for c in s.cases:
                    walk(c)
            elif s.kind == "try":
                walk(s.body)
                for _, h in s.handlers:
                    walk(h)
        walk(self.body)
        return out


class TU:
    def __init__(self, path):
        self.path = path
        self.functions = []
        self.classes = {}           # class -> {member: type}


# ==========================================================================
# Fallback frontend: parsing
# ==========================================================================

def parse_file(root, path):
    with open(os.path.join(root, path), encoding="utf-8",
              errors="replace") as f:
        raw = f.read()
    toks = lex(single_branch_text(strip_comments(raw)))
    tu = TU(path)
    _scan_top(toks, 0, len(toks), tu, [], path)
    return tu


def _match_paren(toks, i, open_c="(", close_c=")"):
    """toks[i] must be open_c; returns index just past the match."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _rfind_sig(toks, brace_i, lo):
    """Looking back from a '{' at brace_i, recognize a function signature.

    Returns (name, qual_cls, params_lo, params_hi, sig_lo) or None.
    Skips trailing const/noexcept/override/final/&&/&, annotation macros
    (DPS_*), trailing-return types, and constructor initializer lists.
    """
    j = brace_i - 1

    def skip_balanced_back(j, close_c, open_c):
        depth = 0
        while j >= lo:
            t = toks[j].text
            if t == close_c:
                depth += 1
            elif t == open_c:
                depth -= 1
                if depth == 0:
                    return j - 1
            j -= 1
        return lo - 1

    # Skip the constructor initializer list:   ') : a_(x), b_{y} {'
    # and trailing qualifiers / annotations / trailing return.
    guard = 0
    while j >= lo and guard < 500:
        guard += 1
        t = toks[j].text
        if t in ("const", "noexcept", "override", "final", "mutable",
                 "&", "&&", "try"):
            j -= 1
        elif t == ")":
            # Could be params, an annotation macro, or init-list member.
            k = skip_balanced_back(j, ")", "(")
            if k >= lo and toks[k].kind == "id":
                nm = toks[k].text
                if nm.startswith("DPS_") or nm == "noexcept":
                    j = k - 1
                    continue
                # ident( ... )  — params of the function, or an init-list
                # member ctor. Decide: if the token before ident is ':' or
                # ',', it's an init-list entry — keep scanning back.
                if k - 1 >= lo and toks[k - 1].text in (":", ","):
                    j = k - 2
                    # skip back through further init-list entries
                    continue
                # This is the signature's parameter list.
                return _sig_from(toks, k, j, lo)
            return None
        elif t == "}":
            # brace-init in an init-list member:  b_{y}
            j = skip_balanced_back(j, "}", "{")
            if j >= lo and toks[j].kind == "id" and j - 1 >= lo and \
                    toks[j - 1].text in (":", ","):
                j -= 2
                continue
            return None
        elif t == ">":
            # trailing return type like '-> std::vector<int>' — scan to '->'
            while j >= lo and toks[j].text != "->":
                j -= 1
            j -= 1
        elif toks[j].kind in ("id", "num") or t in ("::", "<", ">", "*",
                                                    ",", ".", "[", "]"):
            # tokens of a trailing return type; keep looking for '->'
            k = j
            found = False
            while k >= lo and k > j - 30:
                if toks[k].text == "->":
                    j = k - 1
                    found = True
                    break
                k -= 1
            if not found:
                return None
        else:
            return None
    return None


def _sig_from(toks, name_i, params_close, lo):
    """name_i indexes the function-name token just before its '(' ... ')'."""
    name = toks[name_i].text
    if name in CONTROL_KEYWORDS or not re.match(r"[A-Za-z_~]", name):
        return None
    # Qualifier:  Class::name  (possibly nested A::B::name)
    cls = ""
    j = name_i - 1
    while j - 1 >= lo and toks[j].text == "::" and toks[j - 1].kind == "id":
        cls = toks[j - 1].text  # innermost qualifier wins
        j -= 2
    # Return type heuristic: the token run before the (qualified) name.
    ret_toks = []
    k = j
    while k >= lo and k > j - 8:
        t = toks[k]
        if t.kind == "id" or t.text in ("::", "<", ">", "*", "&", "&&"):
            ret_toks.append(t.text)
            k -= 1
        else:
            break
    rettype = "".join(reversed(ret_toks))
    params_open = None
    depth = 0
    for p in range(params_close, lo - 1, -1):
        if toks[p].text == ")":
            depth += 1
        elif toks[p].text == "(":
            depth -= 1
            if depth == 0:
                params_open = p
                break
    if params_open is None:
        return None
    return (name, cls, params_open, params_close, k + 1, rettype)


def _scan_top(toks, i, end, tu, ctx, path):
    """Scan a namespace/class/file scope for classes and function bodies."""
    n = end
    while i < n:
        t = toks[i]
        if t.text in ("namespace",):
            # namespace [name] {  — recurse transparently.
            j = i + 1
            while j < n and toks[j].text != "{":
                if toks[j].text == ";":
                    break
                j += 1
            if j < n and toks[j].text == "{":
                close = _match_brace_span(toks, j)
                _scan_top(toks, j + 1, close - 1, tu, ctx, path)
                i = close
                continue
            i = j + 1
            continue
        if t.text in ("class", "struct") and i + 1 < n and \
                toks[i + 1].kind == "id":
            cname = toks[i + 1].text
            j = i + 2
            while j < n and toks[j].text not in ("{", ";"):
                j += 1
            if j < n and toks[j].text == "{":
                close = _match_brace_span(toks, j)
                _scan_class(toks, j + 1, close - 1, tu, ctx + [cname], path)
                i = close
                continue
            i = j + 1
            continue
        if t.text == "{":
            sig = _rfind_sig(toks, i, 0)
            if sig:
                i = _consume_function(toks, i, tu, ctx, path, sig)
                continue
            i = _match_brace_span(toks, i)
            continue
        i += 1


def _scan_class(toks, i, end, tu, ctx, path):
    cname = ctx[-1]
    members = tu.classes.setdefault(cname, {})
    n = end
    stmt_start = i
    while i < n:
        t = toks[i]
        if t.text in ("class", "struct") and i + 1 < n and \
                toks[i + 1].kind == "id" and _is_nested_class(toks, i, n):
            cname2 = toks[i + 1].text
            j = i + 2
            while j < n and toks[j].text not in ("{", ";"):
                j += 1
            if j < n and toks[j].text == "{":
                close = _match_brace_span(toks, j)
                _scan_class(toks, j + 1, close - 1, tu, ctx + [cname2], path)
                i = close
                stmt_start = i
                continue
            i = j + 1
            stmt_start = i
            continue
        if t.text == "{":
            sig = _rfind_sig(toks, i, stmt_start)
            if sig:
                i = _consume_function(toks, i, tu, ctx, path, sig,
                                      decl_lo=stmt_start)
                stmt_start = i
                continue
            i = _match_brace_span(toks, i)
            # `};` of an inline aggregate member or lambda-ish init
            continue
        if t.text == ";":
            _member_decl(toks, stmt_start, i, members, tu, ctx, path)
            i += 1
            stmt_start = i
            continue
        if t.text in ("public", "private", "protected") and i + 1 < n and \
                toks[i + 1].text == ":":
            i += 2
            stmt_start = i
            continue
        i += 1


def _is_nested_class(toks, i, n):
    # Heuristic: 'class X {' or 'class X final {' or 'class X : base {'
    j = i + 2
    while j < n and toks[j].text not in ("{", ";", "("):
        j += 1
    return j < n and toks[j].text == "{"


def _member_decl(toks, lo, hi, members, tu, ctx, path):
    """Record `Type name;` members and DPS_REQUIRES on method decls."""
    span = toks[lo:hi]
    if not span:
        return
    # DPS_REQUIRES on a declaration:  RetT name(args) ... DPS_REQUIRES(mu);
    for k, t in enumerate(span):
        if t.text in ("DPS_REQUIRES", "DPS_ACQUIRE", "DPS_RELEASE") and \
                k + 1 < len(span) and span[k + 1].text == "(":
            close = _match_paren(span, k + 1)
            args = "".join(x.text for x in span[k + 2:close - 1])
            # method name = id just before the first '(' of the span
            for m in range(len(span)):
                if span[m].text == "(" and m > 0 and span[m - 1].kind == "id":
                    mname = span[m - 1].text
                    key = "::".join(ctx + [mname])
                    tu.classes.setdefault("__requires__", {}).setdefault(
                        key, []).append((t.text, args))
                    break
            break
    # Simple member:  [mutable] [static] Type [*&] name [= init] ;
    #                 [mutable] Type name DPS_GUARDED_BY(mu);
    idx = 0
    texts = [t.text for t in span]
    while idx < len(texts) and texts[idx] in ("mutable", "static", "inline",
                                              "constexpr", "const"):
        idx += 1
    # Collect the type run, then the declarator name.
    ty = []
    j = idx
    depth = 0
    while j < len(span):
        t = span[j]
        if t.text == "<":
            depth += 1
        elif t.text == ">":
            depth -= 1
        elif depth == 0 and t.kind == "id" and j + 1 < len(span) and \
                span[j + 1].kind != "id" and ty and \
                span[j + 1].text not in ("::", "<"):
            # `t` is the declarator name
            name = t.text
            members[name] = "".join(ty).strip()
            return
        if t.text in ("(", "="):
            break
        ty.append(t.text)
        j += 1


def _match_brace_span(toks, i):
    return _match_paren(toks, i, "{", "}")


def _consume_function(toks, brace_i, tu, ctx, path, sig, decl_lo=0):
    name, cls, p_open, p_close, sig_lo, rettype = sig
    close = _match_brace_span(toks, brace_i)
    qual_cls = cls or (ctx[-1] if ctx else "")
    fn = Function("::".join(([qual_cls] if qual_cls else []) + [name]),
                  qual_cls, name, path, toks[brace_i].line)
    fn.rettype = rettype
    # Params:  Type name, Type name = default, ...
    fn.params = _parse_params(toks, p_open + 1, p_close)
    # Annotations between ')' and '{' — DPS_REQUIRES(mu) etc.
    j = p_close + 1
    while j < brace_i:
        if toks[j].kind == "id" and toks[j].text.startswith("DPS_") and \
                j + 1 < brace_i and toks[j + 1].text == "(":
            c = _match_paren(toks, j + 1)
            args = "".join(t.text for t in toks[j + 2:c - 1])
            if toks[j].text in ("DPS_REQUIRES",):
                fn.requires.extend(a.strip() for a in args.split(",") if a.strip())
            j = c
        else:
            j += 1
    # Header-declared REQUIRES (for out-of-line definitions).
    req = tu.classes.get("__requires__", {})
    for kind, args in req.get(fn.qualname, []):
        if kind == "DPS_REQUIRES":
            for a in args.split(","):
                if a.strip() and a.strip() not in fn.requires:
                    fn.requires.append(a.strip())
    fn.body, _ = _parse_block(toks, brace_i)
    tu.functions.append(fn)
    return close


def _parse_params(toks, lo, hi):
    params = {}
    depth = 0
    start = lo
    spans = []
    for j in range(lo, hi):
        t = toks[j].text
        if t in ("(", "<", "[", "{"):
            depth += 1
        elif t in (")", ">", "]", "}"):
            depth -= 1
        elif t == "," and depth == 0:
            spans.append((start, j))
            start = j + 1
    if start < hi:
        spans.append((start, hi))
    for a, b in spans:
        span = toks[a:b]
        # strip default value
        for k, t in enumerate(span):
            if t.text == "=":
                span = span[:k]
                break
        if not span:
            continue
        # last id token = name; everything before = type
        if span[-1].kind == "id" and len(span) > 1:
            nm = span[-1].text
            ty = "".join(t.text for t in span[:-1])
            params[nm] = ty
    return params


def _parse_block(toks, i):
    """toks[i] == '{'. Returns (Stmt('block'), index past '}')."""
    assert toks[i].text == "{"
    stmts = []
    j = i + 1
    n = len(toks)
    while j < n and toks[j].text != "}":
        s, j = _parse_stmt(toks, j)
        if s is not None:
            stmts.append(s)
    return Stmt("block", toks[i].line, stmts=stmts), min(j + 1, n)


def _parse_stmt(toks, i):
    n = len(toks)
    t = toks[i]
    if t.text == ";":
        return None, i + 1
    if t.text == "{":
        return _parse_block(toks, i)
    if t.text == "if":
        j = i + 1
        if j < n and toks[j].text == "constexpr":
            j += 1
        cond_lo = j
        j = _match_paren(toks, j) if j < n and toks[j].text == "(" else j
        cond_text = "".join(x.text for x in toks[cond_lo:j])
        then_s, j = _parse_stmt(toks, j)
        else_s = None
        if j < n and toks[j].text == "else":
            else_s, j = _parse_stmt(toks, j + 1)
        return Stmt("if", t.line, cond_text=cond_text, then_s=then_s,
                    else_s=else_s), j
    if t.text in ("while", "for"):
        j = i + 1
        if j < n and toks[j].text == "(":
            j = _match_paren(toks, j)
        body, j = _parse_stmt(toks, j)
        return Stmt("loop", t.line, body=body), j
    if t.text == "do":
        body, j = _parse_stmt(toks, i + 1)
        # consume `while ( ... ) ;`
        if j < n and toks[j].text == "while":
            j += 1
            if j < n and toks[j].text == "(":
                j = _match_paren(toks, j)
            if j < n and toks[j].text == ";":
                j += 1
        return Stmt("loop", t.line, body=body), j
    if t.text == "switch":
        j = i + 1
        if j < n and toks[j].text == "(":
            j = _match_paren(toks, j)
        if j < n and toks[j].text == "{":
            close = _match_brace_span(toks, j)
            cases, has_default = _parse_switch_body(toks, j + 1, close - 1)
            return Stmt("switch", t.line, cases=cases,
                        has_default=has_default), close
        s, j = _parse_stmt(toks, j)
        return s, j
    if t.text == "try":
        body, j = _parse_block(toks, i + 1) if i + 1 < n and \
            toks[i + 1].text == "{" else (Stmt("block", t.line, stmts=[]), i + 1)
        handlers = []
        while j < n and toks[j].text == "catch":
            k = j + 1
            catch_all = False
            if k < n and toks[k].text == "(":
                c = _match_paren(toks, k)
                inner = "".join(x.text for x in toks[k + 1:c - 1])
                catch_all = inner.strip() == "..."
                k = c
            if k < n and toks[k].text == "{":
                hb, k = _parse_block(toks, k)
            else:
                hb, k = _parse_stmt(toks, k)
            handlers.append((catch_all, hb))
            j = k
        return Stmt("try", t.line, body=body, handlers=handlers), j
    if t.text == "return":
        j = i
        depth = 0
        while j < n:
            x = toks[j].text
            if x in ("(", "[", "{"):
                depth += 1
            elif x in (")", "]", "}"):
                depth -= 1
            elif x == ";" and depth == 0:
                break
            j += 1
        text = " ".join(x.text for x in toks[i + 1:j])
        return Stmt("return", t.line, text=text,
                    calls=_calls_in(toks, i + 1, j)), j + 1
    if t.text == "throw":
        j = i
        while j < n and toks[j].text != ";":
            j += 1
        return Stmt("throw", t.line), j + 1
    if t.text in ("break", "continue"):
        j = i
        while j < n and toks[j].text != ";":
            j += 1
        return Stmt("jump", t.line, which=t.text), j + 1
    if t.text in ("case", "default"):
        # stray labels (outside _parse_switch_body pre-split) — skip to ':'
        j = i
        while j < n and toks[j].text != ":":
            j += 1
        return None, j + 1
    # Expression / declaration statement: up to ';' at depth 0. A '{' that
    # opens a lambda or init-list is balanced through.
    j = i
    depth = 0
    while j < n:
        x = toks[j].text
        if x in ("(", "[", "{"):
            depth += 1
        elif x in (")", "]", "}"):
            if depth == 0 and x == "}":
                break  # malformed / end of enclosing block
            depth -= 1
        elif x == ";" and depth == 0:
            break
        j += 1
    calls = _calls_in(toks, i, j)
    decls = _decls_in(toks, i, j)
    # `shared_ptr<Flowgraph> graph(new Flowgraph(...))` is a declaration,
    # not a call to a function named `graph` — drop pseudo-calls whose name
    # is this statement's own declarator.
    declnames = {d.name for d in decls}
    if declnames:
        calls = [c for c in calls if c.name not in declnames]
    bare = bool(calls) and _stmt_is_bare_call(toks, i, j, calls)
    if bare:
        calls[0].stmt_is_bare = True
    text = " ".join(x.text for x in toks[i:j])
    return Stmt("expr", t.line, calls=calls, decls=decls, text=text), j + 1


def _parse_switch_body(toks, lo, hi):
    """Split `case X: stmts...` groups into alternative blocks."""
    cases = []
    has_default = False
    j = lo
    cur = None
    while j < hi:
        t = toks[j]
        if t.text in ("case", "default") and _at_case_depth(toks, lo, j):
            if t.text == "default":
                has_default = True
            while j < hi and toks[j].text != ":":
                j += 1
            j += 1
            # consecutive labels share one group
            if cur is None or cur.stmts:
                cur = Stmt("block", t.line, stmts=[])
                cases.append(cur)
            continue
        s, j2 = _parse_stmt(toks, j)
        if j2 <= j:
            j += 1
            continue
        j = j2
        if s is not None:
            if cur is None:
                cur = Stmt("block", s.line, stmts=[])
                cases.append(cur)
            cur.stmts.append(s)
    return cases, has_default


def _at_case_depth(toks, lo, j):
    depth = 0
    for k in range(lo, j):
        x = toks[k].text
        if x in ("{", "(", "["):
            depth += 1
        elif x in ("}", ")", "]"):
            depth -= 1
    return depth == 0


def _stmt_is_bare_call(toks, lo, hi, calls):
    """True when the statement is exactly `[recv .] name ( args )`."""
    c = calls[0]
    # first token must begin the receiver/name chain; last must be ')'
    if hi - 1 < 0 or toks[hi - 1].text != ")":
        return False
    k = lo
    # walk an id(::id)*((.|->)id)* chain then '('
    if toks[k].kind != "id":
        return False
    while k < hi and (toks[k].kind == "id" or
                      toks[k].text in ("::", ".", "->")):
        k += 1
    return k < hi and toks[k].text == "(" and _match_paren(toks, k) == hi


def _lambda_ranges(toks, lo, hi):
    """Token index ranges of lambda bodies within [lo, hi).

    A lambda body's calls run when the lambda runs — on a worker thread, in
    a CondVar predicate, after the enclosing scope unlocked — so they must
    not be attributed to the enclosing statement's locked/resource context.
    """
    ranges = []
    for j in range(lo, hi):
        if toks[j].text != "{" or j == lo:
            continue
        k = j - 1
        while k > lo and toks[k].text in ("mutable", "noexcept"):
            k -= 1
        if toks[k].text == ")":
            depth = 0
            while k >= lo:
                if toks[k].text == ")":
                    depth += 1
                elif toks[k].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            k -= 1
        if k >= lo and toks[k].text == "]":
            close = _match_paren(toks, j, "{", "}")
            ranges.append((j, min(close, hi)))
    return ranges


def _calls_in(toks, lo, hi):
    calls = []
    skip = _lambda_ranges(toks, lo, hi)
    for j in range(lo, hi):
        if any(a <= j < b for a, b in skip):
            continue
        if toks[j].kind == "id" and j + 1 < hi and toks[j + 1].text == "(" \
                and toks[j].text not in CONTROL_KEYWORDS:
            name = toks[j].text
            # receiver chain before name:  a.b->c::name(
            recv_parts = []
            k = j - 1
            while k >= lo and toks[k].text in (".", "->", "::"):
                if k - 1 >= lo and toks[k - 1].kind == "id":
                    recv_parts.append(toks[k - 1].text + toks[k].text)
                    k -= 2
                elif k - 1 >= lo and toks[k - 1].text == ")":
                    # chained call result:  f().name( — record as dynamic
                    d = 0
                    m = k - 1
                    while m >= lo:
                        if toks[m].text == ")":
                            d += 1
                        elif toks[m].text == "(":
                            d -= 1
                            if d == 0:
                                break
                        m -= 1
                    inner = "".join(t.text for t in toks[m:k])
                    # include the callee before the inner '(' if present
                    if m - 1 >= lo and toks[m - 1].kind == "id":
                        mm = m - 1
                        pre = [toks[mm].text]
                        mm -= 1
                        while mm >= lo and toks[mm].text == "::" and \
                                mm - 1 >= lo and toks[mm - 1].kind == "id":
                            pre[:0] = [toks[mm - 1].text, "::"]
                            mm -= 2
                        inner = "".join(pre) + inner
                    recv_parts.append(inner + toks[k].text)
                    k = m - 1 if m - 1 >= lo and toks[m - 1].kind != "id" \
                        else m - 2
                    break
                else:
                    break
            recv = "".join(reversed(recv_parts))
            close = _match_paren(toks, j + 1)
            args = _split_args(toks, j + 2, close - 1)
            calls.append(CallSite(name, recv, args, toks[j].line))
    return calls


def _split_args(toks, lo, hi):
    args = []
    depth = 0
    start = lo
    for j in range(lo, hi):
        x = toks[j].text
        if x in ("(", "[", "{", "<"):
            depth += 1
        elif x in (")", "]", "}", ">"):
            depth -= 1
        elif x == "," and depth == 0:
            args.append("".join(t.text for t in toks[start:j]))
            start = j + 1
    if start < hi:
        args.append("".join(t.text for t in toks[start:hi]))
    return [a.strip() for a in args]


DECL_HEAD = re.compile(r"[A-Za-z_]")


def _decls_in(toks, lo, hi):
    """Best-effort local declarations in one statement."""
    decls = []
    # Pattern: [const] Type[<..>][*&] name ( = init | ( args ) | { args } | ; )
    j = lo
    # Only consider statements that *start* with a type-ish token.
    if j >= hi or toks[j].kind != "id":
        return decls
    k = j
    ty_toks = []
    depth = 0
    while k < hi:
        t = toks[k]
        if t.text == "<":
            depth += 1
            ty_toks.append(t.text)
        elif t.text == ">":
            depth -= 1
            ty_toks.append(t.text)
        elif depth == 0 and t.kind == "id":
            nxt = toks[k + 1].text if k + 1 < hi else ";"
            if ty_toks and ty_toks[-1] not in ("::", "<", "const") and \
                    nxt in ("=", "(", "{", ";", ","):
                # t is the declarator name — but only if the collected type
                # run looks like a type (not an arbitrary expression).
                ty = "".join(ty_toks).strip()
                if ty and not ty[0].isdigit() and ty not in ("return",):
                    init = " ".join(x.text for x in toks[k + 1:hi])
                    decls.append(VarDecl(t.text, ty, init, t.line))
                return decls
            ty_toks.append(t.text)
        elif depth == 0 and t.text in ("::", "*", "&", "&&"):
            ty_toks.append(t.text)
        elif depth == 0 and t.text == "const":
            ty_toks.append(t.text)
        elif depth > 0:
            ty_toks.append(t.text)
        else:
            break
        k += 1
    return decls


# ==========================================================================
# libclang frontend (optional)
# ==========================================================================

def try_libclang():
    try:
        import clang.cindex as ci  # noqa: F401
        ci.Index.create()
        return ci
    except Exception:
        return None


def parse_with_libclang(ci, root, path, args):
    """Lower a clang AST into the shared IR. Returns a TU."""
    idx = ci.Index.create()
    opts = ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD
    tu_c = idx.parse(os.path.join(root, path), args=args, options=opts)
    tu = TU(path)

    K = ci.CursorKind

    def lower_stmt(cur):
        k = cur.kind
        line = cur.location.line or 0
        if k == K.COMPOUND_STMT:
            return Stmt("block", line,
                        stmts=[s for s in map(lower_stmt, cur.get_children())
                               if s is not None])
        if k == K.IF_STMT:
            ch = list(cur.get_children())
            cond = ch[0] if ch else None
            then_s = lower_stmt(ch[1]) if len(ch) > 1 else None
            else_s = lower_stmt(ch[2]) if len(ch) > 2 else None
            cond_text = " ".join(t.spelling for t in cond.get_tokens()) \
                if cond is not None else ""
            return Stmt("if", line, cond_text=cond_text, then_s=then_s,
                        else_s=else_s)
        if k in (K.FOR_STMT, K.WHILE_STMT, K.DO_STMT,
                 K.CXX_FOR_RANGE_STMT):
            body = None
            for c in cur.get_children():
                body = lower_stmt(c)
            return Stmt("loop", line, body=body)
        if k == K.SWITCH_STMT:
            cases = []
            has_default = False
            for c in cur.get_children():
                if c.kind == K.COMPOUND_STMT:
                    cur_case = None
                    for cc in c.get_children():
                        if cc.kind in (K.CASE_STMT, K.DEFAULT_STMT):
                            if cc.kind == K.DEFAULT_STMT:
                                has_default = True
                            cur_case = Stmt("block", cc.location.line,
                                            stmts=[])
                            cases.append(cur_case)
                            sub = list(cc.get_children())
                            body = sub[-1] if sub else None
                            while body is not None and body.kind in \
                                    (K.CASE_STMT, K.DEFAULT_STMT):
                                sub = list(body.get_children())
                                body = sub[-1] if sub else None
                            if body is not None:
                                s = lower_stmt(body)
                                if s:
                                    cur_case.stmts.append(s)
                        elif cur_case is not None:
                            s = lower_stmt(cc)
                            if s:
                                cur_case.stmts.append(s)
            return Stmt("switch", line, cases=cases, has_default=has_default)
        if k == K.CXX_TRY_STMT:
            ch = list(cur.get_children())
            body = lower_stmt(ch[0]) if ch else None
            handlers = []
            for h in ch[1:]:
                hch = list(h.get_children())
                catch_all = len(hch) == 1  # no exception decl child
                hb = lower_stmt(hch[-1]) if hch else None
                handlers.append((catch_all, hb))
            return Stmt("try", line, body=body, handlers=handlers)
        if k == K.RETURN_STMT:
            text = " ".join(t.spelling for t in cur.get_tokens())
            return Stmt("return", line, text=text, calls=collect_calls(cur))
        if k == K.CXX_THROW_EXPR:
            return Stmt("throw", line)
        if k == K.BREAK_STMT:
            return Stmt("jump", line, which="break")
        if k == K.CONTINUE_STMT:
            return Stmt("jump", line, which="continue")
        if k == K.DECL_STMT:
            decls = []
            calls = collect_calls(cur)
            for c in cur.get_children():
                if c.kind == K.VAR_DECL:
                    init = " ".join(t.spelling for t in c.get_tokens())
                    decls.append(VarDecl(c.spelling, c.type.spelling, init,
                                         c.location.line))
            return Stmt("expr", line, calls=calls, decls=decls,
                        text=" ".join(t.spelling for t in cur.get_tokens()))
        if k == K.NULL_STMT:
            return None
        # default: expression statement
        calls = collect_calls(cur)
        text = " ".join(t.spelling for t in cur.get_tokens())
        s = Stmt("expr", line, calls=calls, decls=[], text=text)
        if len(calls) == 1 and cur.kind == K.CALL_EXPR:
            calls[0].stmt_is_bare = True
        if calls and cur.kind == K.CALL_EXPR:
            calls[0].stmt_is_bare = True
        return s

    def collect_calls(cur):
        calls = []

        def walk(c):
            if c.kind == K.CALL_EXPR:
                name = c.spelling or ""
                recv = ""
                args = []
                ch = list(c.get_arguments())
                for a in ch:
                    args.append(" ".join(t.spelling for t in a.get_tokens()))
                sub = list(c.get_children())
                if sub and sub[0].kind == K.MEMBER_REF_EXPR:
                    base = list(sub[0].get_children())
                    if base:
                        recv = " ".join(
                            t.spelling for t in base[0].get_tokens())
                if name:
                    calls.append(CallSite(name, recv, args,
                                          c.location.line))
            for cc in c.get_children():
                walk(cc)
        walk(cur)
        return calls

    def in_main_file(cur):
        try:
            return cur.location.file and \
                os.path.samefile(cur.location.file.name,
                                 os.path.join(root, path))
        except OSError:
            return False

    def walk_decls(cur, cls):
        for c in cur.get_children():
            k = c.kind
            if k in (K.NAMESPACE, K.UNEXPOSED_DECL, K.LINKAGE_SPEC):
                walk_decls(c, cls)
            elif k in (K.CLASS_DECL, K.STRUCT_DECL):
                members = tu.classes.setdefault(c.spelling, {})
                for m in c.get_children():
                    if m.kind == K.FIELD_DECL:
                        members[m.spelling] = m.type.spelling
                walk_decls(c, c.spelling)
            elif k in (K.CXX_METHOD, K.FUNCTION_DECL, K.CONSTRUCTOR,
                       K.DESTRUCTOR) and c.is_definition() and \
                    in_main_file(c):
                parent = c.semantic_parent
                pcls = parent.spelling if parent and parent.kind in \
                    (K.CLASS_DECL, K.STRUCT_DECL) else (cls or "")
                fn = Function(
                    ("%s::%s" % (pcls, c.spelling)) if pcls else c.spelling,
                    pcls, c.spelling, path, c.location.line)
                fn.rettype = c.result_type.spelling
                for a in c.get_arguments():
                    fn.params[a.spelling] = a.type.spelling
                # DPS_REQUIRES shows up as an annotate-like attr only with
                # -Wthread-safety; recover it from tokens instead.
                sig_toks = " ".join(t.spelling for t in c.get_tokens()[:64])
                for m in re.finditer(r"DPS_REQUIRES\s*\(([^)]*)\)", sig_toks):
                    fn.requires.extend(
                        x.strip() for x in m.group(1).split(",") if x.strip())
                body = None
                for ch in c.get_children():
                    if ch.kind == K.COMPOUND_STMT:
                        body = lower_stmt(ch)
                fn.body = body or Stmt("block", c.location.line, stmts=[])
                tu.functions.append(fn)

    walk_decls(tu_c.cursor, "")
    return tu


# ==========================================================================
# Check 1: lock-order
# ==========================================================================

PTR_WRAP = re.compile(r"(?:std::)?(?:unique_ptr|shared_ptr)<(.*)>$")


def _strip_type(ty):
    ty = ty.replace("const", "").strip()
    ty = ty.rstrip("*& ").strip()
    m = PTR_WRAP.match(ty)
    if m:
        ty = m.group(1).strip()
    # drop namespaces:  dps::detail::CallState -> CallState
    if "::" in ty:
        ty = ty.split("::")[-1]
    ty = ty.split("<")[0].strip()
    return ty


class LockOrder:
    def __init__(self, tus, verbose=False):
        self.tus = tus
        self.classes = {}
        for tu in tus:
            for cname, members in tu.classes.items():
                if cname == "__requires__":
                    continue
                self.classes.setdefault(cname, {}).update(members)
        self.edges = {}          # (A, B) -> example "file:line"
        self.direct = {}         # fn.qualname -> set of nodes acquired
        self.calls_under = []    # (holder_node, callee_name, site)
        self.fn_by_name = {}
        self.unresolved = 0
        self.verbose = verbose

    def resolve(self, expr, fn, local_types):
        """Map a mutex expression to a node label 'Class::member' or None."""
        expr = expr.strip()
        if expr.startswith("*"):
            expr = expr[1:].strip()
        if expr.startswith("&"):
            expr = expr[1:].strip()
        parts = re.split(r"\.|->", expr)
        if len(parts) == 1:
            name = parts[0]
            if not re.fullmatch(r"[A-Za-z_]\w*", name):
                return None
            # a member of the enclosing class?
            if fn.cls and name in self.classes.get(fn.cls, {}):
                return f"{fn.cls}::{name}"
            # a Mutex& parameter / local — identity unknown statically
            if name in fn.params or name in local_types:
                self.unresolved += 1
                return None
            # classless (fixture / free function) global
            if not fn.cls:
                return name
            # unknown member (class table may be incomplete: header not in
            # this TU's view). Fall back to class-qualified label.
            return f"{fn.cls}::{name}"
        base, member = parts[0], parts[-1]
        if not re.fullmatch(r"[A-Za-z_]\w*", member):
            return None
        bty = None
        if base in local_types:
            bty = _strip_type(local_types[base])
        elif base in fn.params:
            bty = _strip_type(fn.params[base])
        elif fn.cls and base in self.classes.get(fn.cls, {}):
            bty = _strip_type(self.classes[fn.cls][base])
        if bty and bty in self.classes and member in self.classes[bty]:
            return f"{bty}::{member}"
        if bty and bty not in ("auto",):
            return f"{bty}::{member}"
        self.unresolved += 1
        return None

    def run(self):
        for tu in self.tus:
            for fn in tu.functions:
                self.fn_by_name.setdefault(fn.name, []).append(fn)
        for tu in self.tus:
            for fn in tu.functions:
                self._walk_fn(tu, fn)
        # Propagate: locks acquired by callees become edges from held locks.
        may_acq = {q: set(v) for q, v in self.direct.items()}
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for tu in self.tus:
                for fn in tu.functions:
                    acq = may_acq.setdefault(fn.qualname, set())
                    for callee_fn in self._callees(fn):
                        sub = may_acq.get(callee_fn.qualname, set())
                        if not sub <= acq:
                            acq |= sub
                            changed = True
        for holder, call, site, caller in self.calls_under:
            for cand in self._resolve_callee(call, caller):
                for node in may_acq.get(cand.qualname, set()):
                    self.edges.setdefault((holder, node), site)
        return self.edges

    def _callees(self, fn):
        out = []
        for s in fn.all_stmts():
            for c in getattr(s, "calls", []) or []:
                out.extend(self._resolve_callee(c, fn))
        return out

    def _resolve_callee(self, call, caller):
        """Receiver-typed callee resolution.

        `q.size()` on a std::vector member must NOT resolve to the
        enclosing class's own size() — that receiver blindness is exactly
        how bogus self-deadlock edges appear. With a receiver we resolve
        its static type through locals/params/members and only match
        methods of that class; an unresolvable receiver propagates nothing
        (documented under-approximation, see docs/STATIC_ANALYSIS.md).
        A bare call to a name bound in the caller (a local lambda or
        callable parameter) is that local, never another class's member."""
        cands = self.fn_by_name.get(call.name, [])
        if not cands:
            return []
        recv = (call.recv or "").strip()
        local_types = getattr(caller, "_local_types", {})
        if not recv and (call.name in local_types or
                         call.name in caller.params):
            return []
        if not recv:
            same_cls = [f for f in cands if f.cls == caller.cls]
            if same_cls:
                return same_cls
            if len(cands) <= 2:
                return cands
            return []  # too ambiguous to propagate through
        if recv in ("this->", "this."):
            return [f for f in cands if f.cls == caller.cls]
        # static call:  Cls::name(...)
        m = re.match(r"^([A-Za-z_]\w*)::$", recv)
        if m:
            return [f for f in cands if f.cls == m.group(1)]
        base = re.split(r"\.|->|::", recv)[0].strip("*& ")
        if not re.fullmatch(r"[A-Za-z_]\w*", base):
            return []
        bty = None
        if base == "this":
            bty = caller.cls
        elif base in local_types:
            bty = _strip_type(local_types[base])
        elif base in caller.params:
            bty = _strip_type(caller.params[base])
        elif caller.cls and base in self.classes.get(caller.cls, {}):
            bty = _strip_type(self.classes[caller.cls][base])
        elif base in self.classes:
            bty = base  # e.g. Singleton::instance().method(...)
        if bty:
            return [f for f in cands if f.cls == bty]
        return []

    def _walk_fn(self, tu, fn):
        local_types = {}
        for s in fn.all_stmts():
            for d in getattr(s, "decls", []) or []:
                local_types[d.name] = d.type
        fn._local_types = local_types  # reused by _resolve_callee

        direct = self.direct.setdefault(fn.qualname, set())
        base_held = []
        for r in fn.requires:
            node = self.resolve(r, fn, local_types)
            if node:
                base_held.append((node, f"{fn.path}:{fn.line}"))
        # Hand-over-hand guard: once a function explicitly unlocks a lock
        # its caller handed it via DPS_REQUIRES (e.g. SimDomain::
        # handle_stall unlocking mu before taking wait-point locks), later
        # acquisitions no longer nest under the caller's locks — exporting
        # them through the call graph would fabricate cycles. Local edge
        # recording stays exact; only `direct` (the propagated set) stops.
        requires_intact = [True]

        def site(line):
            return f"{fn.path}:{line}"

        def walk(stmt, held):
            """held: list of [node, site, active, varname]. Returns nothing;
            mutates held within a block scope and restores on exit."""
            if stmt is None:
                return
            if stmt.kind == "block":
                mark = len(held)
                for s in stmt.stmts:
                    walk(s, held)
                del held[mark:]
                return
            if stmt.kind == "if":
                walk(stmt.then_s, held)
                walk(stmt.else_s, held)
                return
            if stmt.kind == "loop":
                walk(stmt.body, held)
                return
            if stmt.kind == "switch":
                for c in stmt.cases:
                    walk(c, held)
                return
            if stmt.kind == "try":
                walk(stmt.body, held)
                for _, h in stmt.handlers:
                    walk(h, held)
                return
            if stmt.kind in ("return", "throw", "jump"):
                return
            # expr statement: lock declarations, lock()/unlock(), calls
            for d in getattr(stmt, "decls", []) or []:
                if _strip_type(d.type).endswith("MutexLock"):
                    m = re.match(r"\(\s*(.*?)\s*\)", d.init or "")
                    arg = None
                    if d.init:
                        mm = re.match(r"^[({]\s*(.*?)\s*[)}]\s*$", d.init)
                        if mm:
                            arg = mm.group(1).split(",")[0]
                    if arg:
                        node = self.resolve(arg, fn, local_types)
                        if node:
                            self._acquire(node, held, site(d.line), d.name,
                                          direct, requires_intact[0])
                    continue
            for c in getattr(stmt, "calls", []) or []:
                if c.name == "lock" and c.recv:
                    var = c.recv.rstrip(".->")
                    for h in held:
                        if h[3] == var:
                            h[2] = True
                            break
                    else:
                        # mu_.lock() direct on a Mutex
                        node = self.resolve(var, fn, local_types)
                        if node:
                            self._acquire(node, held, site(c.line), None,
                                          direct, requires_intact[0])
                elif c.name == "unlock" and c.recv:
                    var = c.recv.rstrip(".->")
                    for h in held:
                        if h[3] == var:
                            h[2] = False
                    # also direct Mutex unlock by mutex name
                    node = self.resolve(var, fn, local_types)
                    if node:
                        for h in held:
                            if h[0] == node:
                                h[2] = False
                        if any(n == node for n, _ in base_held):
                            requires_intact[0] = False
                elif c.name not in ("lock", "unlock"):
                    active = [h for h in held if h[2]]
                    for h in active:
                        self.calls_under.append(
                            (h[0], c, site(c.line), fn))

        def _noop():
            pass

        # DPS_REQUIRES(mu) asserts the caller already holds mu — it seeds
        # the held-set (so locks this function takes order after mu) but is
        # NOT an acquisition: adding it to `direct` would turn every
        # `helper_locked()` call under mu into a bogus mu->mu self-cycle.
        held0 = [[n, s, True, None] for n, s in base_held]
        walk(fn.body, held0)

    def _acquire(self, node, held, site_s, varname, direct, export=True):
        for h in held:
            if h[2]:
                self.edges.setdefault((h[0], node), site_s)
        held.append([node, site_s, True, varname])
        if export:
            direct.add(node)

    def cycles(self):
        """SCCs with >1 node, plus self-loops."""
        adj = {}
        for (a, b) in self.edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set())
        index = {}
        low = {}
        stack = []
        onstk = set()
        out = []
        counter = [0]
        sys.setrecursionlimit(10000)

        def strong(v):
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            onstk.add(v)
            for w in adj.get(v, ()):  # noqa
                if w not in index:
                    strong(w)
                    low[v] = min(low[v], low[w])
                elif w in onstk:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstk.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1:
                    out.append(sorted(comp))

        for v in sorted(adj):
            if v not in index:
                strong(v)
        for (a, b) in self.edges:
            if a == b:
                out.append([a])
        return out

    def to_dot(self):
        lines = ["// Lock acquisition order of the DPS engine.",
                 "// Generated by scripts/dps_verify.py --dot; an edge",
                 "// A -> B means B was acquired while A was held (label =",
                 "// one example site). Cycles here are potential deadlocks",
                 "// and fail ctest Lint.DpsVerify unless accepted with a",
                 "// written reason in ACCEPTED_LOCK_CYCLES.",
                 "digraph lock_order {",
                 '  rankdir=LR;',
                 '  node [shape=box, fontname="monospace", fontsize=10];',
                 '  edge [fontname="monospace", fontsize=8];']
        nodes = sorted({n for e in self.edges for n in e})
        for n in nodes:
            lines.append(f'  "{n}";')
        for (a, b), site in sorted(self.edges.items()):
            lines.append(f'  "{a}" -> "{b}" [label="{site}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def check_lock_order(tus, findings, dot_path=None, root=None, verbose=False):
    lo = LockOrder(tus, verbose)
    lo.run()
    if dot_path:
        with open(dot_path, "w", encoding="utf-8") as f:
            f.write(lo.to_dot())
    for comp in lo.cycles():
        key = "lock-order:*:" + "<->".join(comp)
        if key in ACCEPTED_LOCK_CYCLES:
            ACCEPTED_LOCK_CYCLES[key] = ACCEPTED_LOCK_CYCLES[key]  # mark used
            continue
        example = ""
        for (a, b), site in lo.edges.items():
            if a in comp and b in comp:
                example = site
                break
        findings.append(
            (key, f"{example}: lock-order: potential deadlock cycle "
                  f"{' -> '.join(comp)} -> {comp[0]} — acquisition order "
                  f"must be a DAG (see docs/lock_order.dot); if this cycle "
                  f"is provably benign, accept it in ACCEPTED_LOCK_CYCLES "
                  f"with a reason and document it in "
                  f"docs/STATIC_ANALYSIS.md"))
    if verbose:
        print(f"  lock-order: {len(lo.edges)} edges, "
              f"{lo.unresolved} unresolved mutex exprs", file=sys.stderr)
    return lo


# ==========================================================================
# Check 2: acquire/release protocol
# ==========================================================================

def _norm_expr(e):
    return re.sub(r"\s+", "", e or "")


class ProtoState:
    """Set-of-states abstract interpretation over the statement tree."""

    def __init__(self, fn, proto, findings, member_handles):
        self.fn = fn
        self.proto = proto
        self.findings = findings
        self.member_handles = member_handles  # lenient-mode resource keys
        self.reported = set()

    def is_acquire(self, c):
        idx = self.proto["acquire"].get(c.name, "missing")
        if idx == "missing":
            return None
        if self.proto.get("acquire_recv"):
            if self.proto["acquire_recv"] not in (c.recv or ""):
                return None
        if idx is None:
            return "__value__"
        if idx < len(c.args):
            return _norm_expr(c.args[idx])
        return None

    def is_release(self, c, key):
        idx = self.proto["release"].get(c.name, "missing")
        if idx == "missing":
            return False
        if idx is None:
            return True  # releases every resource of this protocol
        return idx < len(c.args) and _norm_expr(c.args[idx]) == key


def check_protocol(tus, findings, verbose=False):
    for tu in tus:
        for fn in tu.functions:
            local_names = set(fn.params)
            for s in fn.all_stmts():
                for d in getattr(s, "decls", []) or []:
                    local_names.add(d.name)
            for proto in PROTOCOLS:
                _check_fn_protocol(fn, proto, local_names, findings)


def _check_fn_protocol(fn, proto, local_names, findings):
    # quick reject: does the function mention any acquire callee?
    names = proto["acquire"].keys()
    found = False
    for s in fn.all_stmts():
        for c in getattr(s, "calls", []) or []:
            if c.name in names:
                found = True
                break
        if found:
            break
    if not found:
        return

    ps = ProtoState(fn, proto, findings, set())

    # A state is a frozenset of live (key, acquire_line, strict) triples.
    def report(key, acq_line, exit_line, why):
        fid = f"protocol:{fn.path}:{fn.qualname}"
        msg = (f"{fn.path}:{exit_line}: protocol[{proto['name']}]: "
               f"{fn.qualname} {why} for resource '{key}' acquired at "
               f"line {acq_line} — {proto['desc']}")
        dedup = (fid, key, exit_line, why)
        if dedup in ps.reported:
            return
        ps.reported.add(dedup)
        findings.append((fid, msg))

    def release_all(state, call):
        ns = set()
        for (key, line, strict) in state:
            k = key[4:] if key.startswith("var:") else key
            if ps.is_release(call, k):
                continue
            ns.add((key, line, strict))
        return frozenset(ns)

    def value_escape(state, call, released_var):
        """Value-style resources escape when passed to any call."""
        if not proto.get("transfer_releases"):
            return state
        ns = set()
        for (key, line, strict) in state:
            if key.startswith("var:"):
                var = key[4:]
                touched = any(re.search(r"\b%s\b" % re.escape(var), a)
                              for a in call.args) or \
                    re.search(r"\b%s\b" % re.escape(var), call.recv or "")
                if touched and not ps.is_release(call, var):
                    continue  # ownership handed off (or moved)
            ns.add((key, line, strict))
        return frozenset(ns)

    protective = []  # stack of try-frames that release on catch

    def catch_protects(handlers, key):
        """A catch-all that releases `key` (or rethrows after a cleanup
        call) protects may-raise calls in its try body."""
        for catch_all, hb in handlers:
            if not catch_all or hb is None:
                continue
            for s in _stmts_of(hb):
                for c in getattr(s, "calls", []) or []:
                    if ps.is_release(c, key):
                        return True
                    # one-level cleanup helper: any call in a catch-all
                    # whose sole job is cleanup counts (lenient mode only)
            # catch-all with any call at all: lenient acceptance
            if any(getattr(s, "calls", None)
                   for s in _stmts_of(hb)):
                return "lenient"
        return False

    def _stmts_of(stmt):
        out = []

        def w(s):
            if s is None:
                return
            out.append(s)
            for attr in ("stmts",):
                for c in getattr(s, attr, []) or []:
                    w(c)
            for attr in ("then_s", "else_s", "body"):
                w(getattr(s, attr, None))
            for c in getattr(s, "cases", []) or []:
                w(c)
            for _, h in getattr(s, "handlers", []) or []:
                w(h)
        w(stmt)
        return out

    MAX_STATES = 128

    def walk(stmt, states, try_stack):
        """states: set of frozensets. Returns set of out-states; paths that
        exit the function report leaks here."""
        if stmt is None:
            return states
        if stmt.kind == "block":
            cur = states
            for s in stmt.stmts:
                cur = walk(s, cur, try_stack)
                if not cur:
                    return cur
            return cur
        if stmt.kind == "if":
            a = walk(stmt.then_s, states, try_stack)
            b = walk(stmt.else_s, states, try_stack) \
                if stmt.else_s is not None else states
            out = a | b
            return _cap(out)
        if stmt.kind == "loop":
            once = walk(stmt.body, states, try_stack)
            return _cap(states | once)
        if stmt.kind == "switch":
            out = set()
            for c in stmt.cases:
                out |= walk(c, states, try_stack)
            if not stmt.has_default or not stmt.cases:
                out |= states
            return _cap(out)
        if stmt.kind == "try":
            inner = walk(stmt.body, states, try_stack + [stmt.handlers])
            out = set(inner)
            # handler bodies run with whatever was live at entry (approx.)
            for catch_all, hb in stmt.handlers:
                out |= walk(hb, states | inner, try_stack)
            return _cap(out)
        if stmt.kind == "return":
            for st in states:
                for (key, line, strict) in st:
                    if strict:
                        report(key, line, stmt.line,
                               "returns without releasing")
            return set()
        if stmt.kind == "throw":
            for st in states:
                for (key, line, strict) in st:
                    if strict and not _protected(try_stack, key):
                        report(key, line, stmt.line,
                               "throws without releasing")
            return set()
        if stmt.kind == "jump":
            # break/continue: approximate as fallthrough (resource state
            # unchanged; the loop/switch exit handles the rest).
            return states
        # expr
        out = set()
        for st in states:
            cur = st
            for c in getattr(stmt, "calls", []) or []:
                # 1. may-raise exception edge while something is live.
                # A bare `raise(...)` is a deliberate exit: for member
                # (lenient) handles it is assumed to be value-correlated
                # with the acquire (e.g. a kLeaf-only raise after a
                # kSplit-only acquire) — only callee-raises (flow_acquire
                # poison, send failures) are flagged there. Strict (local)
                # handles flag both.
                if c.name in MAY_RAISE:
                    for (key, line, strict) in cur:
                        if c.name == "raise" and not strict:
                            continue
                        prot = _protected(try_stack, key)
                        if not prot:
                            report(key, line, c.line,
                                   f"may raise out of {c.name}() without "
                                   f"releasing (exception path drops the "
                                   f"resource)")
                # 2. release
                cur = release_all(cur, c)
                # 3. value escape
                cur = value_escape(cur, c, None)
                # 4. acquire
                akey = ps.is_acquire(c)
                if akey is not None:
                    if akey == "__value__":
                        var = _assigned_var(stmt)
                        if var:
                            cur = cur | {("var:" + var, c.line, True)}
                        # unbound temporaries are immediately handed off
                    else:
                        strict = _is_local_expr(akey, local_names)
                        cur = cur | {(akey, c.line, strict)}
            out.add(frozenset(cur))
        return _cap(out)

    def _protected(try_stack, key):
        for handlers in reversed(try_stack):
            p = catch_protects(handlers, key)
            if p:
                return True
        return False

    def _cap(states):
        if len(states) > MAX_STATES:
            # merge everything into one conservative union state
            merged = set()
            for st in states:
                merged |= st
            return {frozenset(merged)}
        return states

    def _assigned_var(stmt):
        for d in getattr(stmt, "decls", []) or []:
            # `auto f = [&](...) { ... acquire ... }` declares a lambda;
            # an acquire inside its body does not bind to the variable.
            if re.match(r"=\s*\[", d.init or ""):
                return None
            return d.name
        m = re.match(r"\s*([A-Za-z_]\w*)\s*=", getattr(stmt, "text", ""))
        return m.group(1) if m else None

    def _is_local_expr(key, local_names):
        ids = re.findall(r"[A-Za-z_]\w*", key)
        if not ids:
            return True  # literal handle (fixture style)
        return all(i in local_names or i.isdigit() for i in ids) and \
            not any(i.endswith("_") and i not in local_names for i in ids)

    final = walk(fn.body, {frozenset()}, [])
    for st in final:
        for (key, line, strict) in st:
            if strict:
                report(key, line, fn.line,
                       "can reach the end of the function without releasing")


# ==========================================================================
# Check 3: discarded Errc/Error results
# ==========================================================================

def check_discard(tus, findings, verbose=False):
    returners = {}
    for tu in tus:
        for fn in tu.functions:
            rt = (fn.rettype or "").replace("dps::", "").strip()
            if rt in ("Errc", "Error"):
                returners[fn.name] = rt
    if not returners:
        return
    for tu in tus:
        for fn in tu.functions:
            for s in fn.all_stmts():
                if s.kind != "expr":
                    continue
                text = getattr(s, "text", "")
                for c in getattr(s, "calls", []) or []:
                    if not c.stmt_is_bare:
                        continue
                    if c.name not in returners:
                        continue
                    fid = f"discard:{fn.path}:{fn.qualname}"
                    if c.name in DISCARD_ALLOWLIST:
                        continue
                    if re.match(r"\s*\(\s*void\s*\)", text):
                        continue
                    findings.append(
                        (fid,
                         f"{fn.path}:{c.line}: discard: result of "
                         f"{c.name}() ({returners[c.name]}) is silently "
                         f"dropped in {fn.qualname} — handle it, cast to "
                         f"(void) with a comment, or add to "
                         f"DISCARD_ALLOWLIST with a reason"))


# ==========================================================================
# Driver
# ==========================================================================

def load_compile_commands(path):
    with open(path, encoding="utf-8") as f:
        db = json.load(f)
    out = []
    for e in db:
        f_ = os.path.normpath(os.path.join(e["directory"], e["file"]))
        args = e.get("arguments")
        if not args and "command" in e:
            args = e["command"].split()
        out.append((f_, args or []))
    return out


def collect_sources(root, cc_path):
    """(cpp_files, headers) under src/, repo-relative."""
    cpps = []
    if cc_path and os.path.exists(cc_path):
        for f_, _args in load_compile_commands(cc_path):
            r = rel(root, f_)
            if r.startswith("src/") and r.endswith(CPP_EXTS):
                cpps.append(r)
    if not cpps:
        for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
            for fn in files:
                if fn.endswith(CPP_EXTS):
                    cpps.append(rel(root, os.path.join(dirpath, fn)))
    hdrs = []
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for fn in files:
            if fn.endswith(HDR_EXTS):
                hdrs.append(rel(root, os.path.join(dirpath, fn)))
    return sorted(set(cpps)), sorted(set(hdrs))


def analyze(root, paths, frontend, ci, cc_args=None, verbose=False):
    """Parse `paths` and return their TUs."""
    tus = []
    for p in paths:
        if frontend == "libclang" and ci is not None and p.endswith(CPP_EXTS):
            try:
                tu = parse_with_libclang(
                    ci, root, p, (cc_args or {}).get(p, []))
            except Exception as e:  # pragma: no cover — env specific
                if verbose:
                    print(f"  libclang failed on {p} ({e}); falling back",
                          file=sys.stderr)
                tu = parse_file(root, p)
        else:
            tu = parse_file(root, p)
        tus.append(tu)
    # Merge class tables across TUs so x.mu resolves cross-TU.
    merged = {}
    for tu in tus:
        for c, mem in tu.classes.items():
            merged.setdefault(c, {}).update(mem)
    for tu in tus:
        tu.classes = merged
    return tus


def run_checks(root, tus, dot_path, checks, verbose):
    findings = []
    if "lock-order" in checks:
        check_lock_order(tus, findings, dot_path, root, verbose)
    if "protocol" in checks:
        check_protocol(tus, findings, verbose)
    if "discard" in checks:
        check_discard(tus, findings, verbose)
    # Apply the allowlist; track which entries matched.
    used = set()
    out = []
    for fid, msg in findings:
        if fid in ALLOWLIST:
            used.add(fid)
            continue
        out.append(msg)
    for fid in ALLOWLIST:
        if fid not in used:
            out.append(
                f"dps_verify: allowlist entry '{fid}' no longer matches any "
                f"finding; remove it (reason on file: {ALLOWLIST[fid]})")
    return out


EXPECT_RE = re.compile(r"DPS-VERIFY-EXPECT:\s*(.+?)\s*$", re.M)


def run_fixtures(root, fixture_dir, frontend, ci, verbose):
    """Each fail_*.cpp must yield every `// DPS-VERIFY-EXPECT: <substr>`
    diagnostic; each pass_*.cpp must yield none. Returns exit status."""
    failures = []
    files = sorted(f for f in os.listdir(os.path.join(root, fixture_dir))
                   if f.endswith(".cpp"))
    if not files:
        print(f"dps_verify: no fixtures in {fixture_dir}", file=sys.stderr)
        return 2
    for fname in files:
        relp = f"{fixture_dir}/{fname}"
        with open(os.path.join(root, relp), encoding="utf-8") as f:
            raw = f.read()
        expects = EXPECT_RE.findall(raw)
        tus = analyze(root, [relp], frontend, ci, verbose=verbose)
        findings = []
        check_lock_order(tus, findings, None, root, verbose)
        check_protocol(tus, findings, verbose)
        check_discard(tus, findings, verbose)
        msgs = [m for _fid, m in findings]
        if fname.startswith("pass_"):
            if msgs:
                failures.append(
                    f"{relp}: expected clean, got {len(msgs)} finding(s):\n"
                    + "\n".join("    " + m for m in msgs))
            elif verbose:
                print(f"  {relp}: clean (as intended)")
            continue
        for exp in expects:
            if not any(exp in m for m in msgs):
                failures.append(
                    f"{relp}: missing expected diagnostic containing "
                    f"'{exp}'; got:\n"
                    + ("\n".join("    " + m for m in msgs) or "    (clean)"))
        if not expects:
            failures.append(f"{relp}: fixture has no DPS-VERIFY-EXPECT line")
        if verbose and not failures:
            print(f"  {relp}: {len(expects)} expected diagnostic(s) matched")
    if failures:
        for f_ in failures:
            print(f_)
        print(f"dps_verify --check-fixtures: {len(failures)} fixture "
              f"assertion(s) FAILED")
        return 1
    print(f"dps_verify --check-fixtures: {len(files)} fixture(s) OK "
          f"(every expected diagnostic produced, pass fixtures clean)")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="AST-level protocol & lock-order analyzer for DPS")
    ap.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json (default: build/, build-cc/)")
    ap.add_argument("--sources", nargs="*", default=None,
                    help="restrict analysis to these repo-relative files")
    ap.add_argument("--frontend", choices=["auto", "libclang", "fallback"],
                    default="auto")
    ap.add_argument("--dot", default=None,
                    help="write the lock acquisition graph here as DOT")
    ap.add_argument("--checks", default="lock-order,protocol,discard")
    ap.add_argument("--check-fixtures", default=None, metavar="DIR",
                    help="run the known-bad fixture corpus and assert "
                         "every expected diagnostic")
    ap.add_argument("--expect-clean", action="store_true",
                    help="exit 1 if any finding at all is produced "
                         "(no-false-positive corpus check)")
    ap.add_argument("--verbose", "-v", action="store_true")
    args = ap.parse_args()
    root = os.path.abspath(args.root)

    ci = None
    frontend = args.frontend
    if frontend in ("auto", "libclang"):
        ci = try_libclang()
        if ci is None:
            if frontend == "libclang":
                print("dps_verify: libclang python bindings not available "
                      "(pip install libclang / clang); cannot honor "
                      "--frontend=libclang", file=sys.stderr)
                return 3
            frontend = "fallback"
        else:
            frontend = "libclang"
    print(f"dps_verify: frontend={frontend}")

    if args.check_fixtures:
        return run_fixtures(root, args.check_fixtures.rstrip("/"),
                            frontend, ci, args.verbose)

    cc = args.compile_commands
    if cc is None:
        for cand in ("build/compile_commands.json",
                     "build-cc/compile_commands.json"):
            p = os.path.join(root, cand)
            if os.path.exists(p):
                cc = p
                break
    cc_args = {}
    if cc and os.path.exists(cc):
        for f_, a in load_compile_commands(cc):
            cc_args[rel(root, f_)] = [x for x in a[1:]
                                      if not x.endswith(".cpp")
                                      and x not in ("-o", "-c")]
    elif args.frontend == "libclang":
        print(f"dps_verify: compile_commands.json not found (configure the "
              f"'compile-commands' preset first)", file=sys.stderr)
        return 2

    if args.sources:
        paths = [p.rstrip("/") for p in args.sources]
    else:
        cpps, hdrs = collect_sources(root, cc)
        paths = cpps + hdrs
    checks = set(args.checks.split(","))

    tus = analyze(root, paths, frontend, ci, cc_args, args.verbose)
    nfun = sum(len(t.functions) for t in tus)
    if args.verbose:
        print(f"  parsed {len(tus)} file(s), {nfun} function bodies",
              file=sys.stderr)
    msgs = run_checks(root, tus, args.dot, checks, args.verbose)

    if msgs:
        for m in msgs:
            print(m)
        print(f"dps_verify: {len(msgs)} finding(s) over {len(paths)} "
              f"file(s), {nfun} functions")
        return 1
    print(f"dps_verify: clean ({len(paths)} files, {nfun} functions, "
          f"checks: {','.join(sorted(checks))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
