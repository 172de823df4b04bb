"""Text format for simplicial sets, categories, groups, actions and maps.

A document is a sequence of named blocks:

    sset K {
      dim 1;
      gen 0 a b;
      gen 1 e;
      face e 0 -> [] b;
      face e 1 -> [] a;
    }
    category C { obj a b; mor f: a -> b; comp g.f = h; }
    groupoid G { ... same statements as category ... }
    group G { elements e g1; unit e; mul g1.g1 = e; }
    group S3 perm 3 gens (0 1), (1 2);
    map m: K -> L { e -> [0] v; }
    action A { group G; on a b; act g1 a = b; }

`#` starts a comment; layout is free-form, statements end with `;`.
Identity morphisms are implicit and named id_<object>; degeneracy
words are bracketed, outermost letter first.  Map sources and targets
may name a category, groupoid or group, which is replaced by its
nerve to depth 4.  All problems are collected into one
DslParseError carrying line-annotated diagnostics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .actions import GroupoidAction, group_action, validate_action
from .categories import (
    FiniteCategory,
    as_groupoid,
    build_category,
    identity_names,
    nerve,
    validate_category,
)
from .groups import (
    FiniteGroup,
    cycles_to_images,
    one_object_groupoid,
    perm_group,
    validate_group,
)
from .simplicial import (
    MAX_DIM,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    rename_generators,
    validate,
)


NAME_RE = re.compile(r"[A-Za-z0-9_@]+")
TOKEN_RE = re.compile(r"->|[A-Za-z0-9_@]+|[{}\[\]();:.,=]")
MAP_NERVE_DEPTH = 4


class DslParseError(Exception):
    """All diagnostics of a failed parse, each tagged with its line."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__(
            "\n".join(f"line {line}: {msg}" for line, msg in self.diagnostics)
        )


@dataclass(frozen=True)
class Token:
    text: str
    line: int


def _tokenize(text, diags):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            m = TOKEN_RE.match(line, pos)
            if not m:
                diags.append((lineno, f"unexpected character '{ch}'"))
                pos += 1
                continue
            tokens.append(Token(m.group(), lineno))
            pos = m.end()
    return tokens


class Document:
    """Named entities in declaration order.

    `entities` maps name -> (kind, value) with kind one of sset,
    category, groupoid, group, action, map; `meta` keeps the reference
    names needed to print actions and maps back out.
    """

    def __init__(self):
        self.entities = {}
        self.meta = {}

    @property
    def order(self):
        return tuple(self.entities)

    def kind(self, name):
        return self.entities[name][0]

    def value(self, name):
        return self.entities[name][1]


def _is_name(text):
    return NAME_RE.fullmatch(text) is not None


def _is_nat(text):
    return text.isdigit()


class _Parser:
    def __init__(self, text):
        self.diags = []
        self.tokens = _tokenize(text, self.diags)
        self.pos = 0
        self.doc = Document()

    # -- token helpers ----------------------------------------------------

    def _peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _next(self):
        tok = self._peek()
        if tok is not None:
            self.pos += 1
        return tok

    def _line(self):
        tok = self._peek()
        if tok is not None:
            return tok.line
        if self.tokens:
            return self.tokens[-1].line
        return 1

    def _fail(self, line, msg):
        self.diags.append((line, msg))

    def _statement(self):
        """Tokens up to the next ';' (consumed); stops before '}'."""
        out = []
        while True:
            tok = self._peek()
            if tok is None or tok.text == "}":
                if out:
                    self._fail(out[0].line, "missing ';'")
                return out
            self.pos += 1
            if tok.text == ";":
                return out
            out.append(tok)

    # -- document ---------------------------------------------------------

    def parse(self):
        while self._peek() is not None:
            self._block()
        if self.diags:
            raise DslParseError(self.diags)
        return self.doc

    def _block(self):
        head = self._next()
        if head.text not in ("sset", "category", "groupoid", "group", "action", "map"):
            self._fail(head.line, f"unknown block kind '{head.text}'")
            self._skip_block()
            return
        name_tok = self._next()
        if name_tok is None or not _is_name(name_tok.text):
            self._fail(head.line, f"{head.text} block needs a name")
            self._skip_block()
            return
        name = name_tok.text
        if name in self.doc.entities:
            self._fail(name_tok.line, f"duplicate entity name '{name}'")
            self._skip_block()
            return

        if head.text == "group" and self._peek() is not None and self._peek().text == "perm":
            self._perm_group(name)
            return
        if head.text == "map":
            self._map_block(name, name_tok.line)
            return

        if not self._open_brace(head.line):
            return
        statements = self._block_statements()
        if head.text == "sset":
            self._sset_block(name, name_tok.line, statements)
        elif head.text in ("category", "groupoid"):
            self._category_block(head.text, name, name_tok.line, statements)
        elif head.text == "group":
            self._group_block(name, name_tok.line, statements)
        else:
            self._action_block(name, name_tok.line, statements)

    def _open_brace(self, line):
        tok = self._next()
        if tok is None or tok.text != "{":
            self._fail(line, "expected '{'")
            self._skip_block()
            return False
        return True

    def _block_statements(self):
        statements = []
        while True:
            tok = self._peek()
            if tok is None:
                self._fail(self._line(), "unterminated block")
                return statements
            if tok.text == "}":
                self.pos += 1
                return statements
            stmt = self._statement()
            if stmt:
                statements.append(stmt)

    def _skip_block(self):
        depth = 0
        while True:
            tok = self._next()
            if tok is None:
                return
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
                if depth <= 0:
                    return
            elif tok.text == ";" and depth == 0:
                return

    # -- sset blocks ------------------------------------------------------

    def _word_tokens(self, toks, line, what):
        """Parse '[ k ... ]' from the front of toks; returns (word, rest)."""
        if not toks or toks[0].text != "[":
            self._fail(line, f"{what}: expected a bracketed degeneracy word")
            return None, toks
        idx = 1
        word = []
        while idx < len(toks) and toks[idx].text != "]":
            if not _is_nat(toks[idx].text):
                self._fail(toks[idx].line, f"{what}: bad word entry '{toks[idx].text}'")
                return None, toks[idx:]
            word.append(int(toks[idx].text))
            idx += 1
        if idx >= len(toks):
            self._fail(line, f"{what}: unclosed degeneracy word")
            return None, []
        if any(a <= b for a, b in zip(word, word[1:])):
            self._fail(line, f"{what}: degeneracy word must be strictly decreasing")
            return None, toks[idx + 1:]
        return tuple(word), toks[idx + 1:]

    def _sset_block(self, name, line, statements):
        bound = None
        truncated = False
        gen_dim = {}
        gen_order = []
        face_lines = []
        for stmt in statements:
            kw = stmt[0]
            if kw.text == "dim":
                if len(stmt) != 2 or not _is_nat(stmt[1].text):
                    self._fail(kw.line, "usage: dim N;")
                elif bound is not None:
                    self._fail(kw.line, "duplicate dim statement")
                elif int(stmt[1].text) > MAX_DIM:
                    dim = int(stmt[1].text)
                    self._fail(kw.line, f"dim {dim} exceeds the supported maximum {MAX_DIM}")
                else:
                    bound = int(stmt[1].text)
            elif kw.text == "truncated":
                if len(stmt) != 1:
                    self._fail(kw.line, "usage: truncated;")
                truncated = True
            elif kw.text == "gen":
                if len(stmt) < 3 or not _is_nat(stmt[1].text):
                    self._fail(kw.line, "usage: gen DIM name ...;")
                    continue
                d = int(stmt[1].text)
                if d > MAX_DIM:
                    self._fail(kw.line, f"gen {d} exceeds the supported maximum {MAX_DIM}")
                for tok in stmt[2:]:
                    if not _is_name(tok.text):
                        self._fail(tok.line, f"bad generator name '{tok.text}'")
                    elif tok.text in gen_dim:
                        self._fail(tok.line, f"duplicate generator '{tok.text}'")
                    else:
                        gen_dim[tok.text] = d
                        gen_order.append(tok.text)
            elif kw.text == "face":
                face_lines.append(stmt)
            else:
                self._fail(kw.line, f"unknown sset statement '{kw.text}'")

        if bound is None:
            bound = max(gen_dim.values(), default=0)

        faces = {}
        for stmt in face_lines:
            kw = stmt[0]
            # face NAME K -> [word] NAME ;
            if (
                len(stmt) < 5
                or not _is_name(stmt[1].text)
                or not _is_nat(stmt[2].text)
                or stmt[3].text != "->"
            ):
                self._fail(kw.line, "usage: face name K -> [word] name;")
                continue
            g, k = stmt[1].text, int(stmt[2].text)
            word, rest = self._word_tokens(stmt[4:], kw.line, f"face of '{g}'")
            if word is None:
                continue
            if len(rest) != 1 or not _is_name(rest[0].text):
                self._fail(kw.line, "usage: face name K -> [word] name;")
                continue
            y = rest[0].text
            if g not in gen_dim:
                self._fail(kw.line, f"face of unknown generator '{g}'")
                continue
            n = gen_dim[g]
            if n == 0 or k > n:
                self._fail(kw.line, f"face index {k} out of range for '{g}' (dimension {n})")
                continue
            if y not in gen_dim:
                self._fail(kw.line, f"face of '{g}' refers to unknown generator '{y}'")
                continue
            if gen_dim[y] + len(word) != n - 1:
                self._fail(
                    kw.line,
                    f"face d_{k} of '{g}' must have dimension {n - 1}, got {gen_dim[y] + len(word)}",
                )
                continue
            if (g, k) in faces:
                self._fail(kw.line, f"duplicate face d_{k} of '{g}'")
                continue
            faces[(g, k)] = SimplexRef(word, y, n - 1)

        broken = False
        for g, d in gen_dim.items():
            if d > bound:
                self._fail(line, f"generator '{g}' has dimension {d} above the bound {bound}")
                broken = True
        for g in gen_order:
            n = gen_dim[g]
            if n == 0:
                continue
            for k in range(n + 1):
                if (g, k) not in faces:
                    self._fail(line, f"missing face d_{k} of '{g}'")
                    broken = True
        if broken:
            return
        gens_by_dim = [[] for _ in range(bound + 1)]
        for g in gen_order:
            gens_by_dim[gen_dim[g]].append(g)
        face_table = {}
        for g in gen_order:
            n = gen_dim[g]
            if n >= 1:
                face_table[g] = tuple(faces[(g, k)] for k in range(n + 1))
        S = SimplicialSet(gens_by_dim, face_table, truncated=truncated)
        for msg in validate(S):
            self._fail(line, f"in sset {name}: {msg}")
        self.doc.entities[name] = ("sset", S)

    # -- category / groupoid blocks --------------------------------------

    def _category_block(self, kind, name, line, statements):
        start = len(self.diags)
        objects = []
        homs = {}
        comp_lines = []
        seen_obj = set()
        for stmt in statements:
            kw = stmt[0]
            if kw.text == "obj":
                for tok in stmt[1:]:
                    if not _is_name(tok.text):
                        self._fail(tok.line, f"bad object name '{tok.text}'")
                    elif tok.text in seen_obj:
                        self._fail(tok.line, f"duplicate object '{tok.text}'")
                    else:
                        seen_obj.add(tok.text)
                        objects.append(tok.text)
            elif kw.text == "mor":
                # mor f : a -> b ;
                if (
                    len(stmt) != 6
                    or stmt[2].text != ":"
                    or stmt[4].text != "->"
                    or not _is_name(stmt[1].text)
                ):
                    self._fail(kw.line, "usage: mor f: a -> b;")
                    continue
                f, a, b = stmt[1].text, stmt[3].text, stmt[5].text
                if f in homs or f in seen_obj:
                    self._fail(kw.line, f"duplicate morphism '{f}'")
                    continue
                homs[f] = (a, b, kw.line)
            elif kw.text == "comp":
                comp_lines.append(stmt)
            else:
                self._fail(kw.line, f"unknown {kind} statement '{kw.text}'")

        for f, (a, b, ln) in homs.items():
            if a not in seen_obj:
                self._fail(ln, f"morphism '{f}' has unknown source '{a}'")
            if b not in seen_obj:
                self._fail(ln, f"morphism '{f}' has unknown target '{b}'")
        if len(self.diags) > start:
            # names are broken; composites would only cascade
            return

        identity_of = identity_names(objects, homs)
        known = set(homs) | set(identity_of.values())
        src = {f: st[0] for f, st in homs.items()}
        tgt = {f: st[1] for f, st in homs.items()}
        for a, i in identity_of.items():
            src[i] = a
            tgt[i] = a

        comp = {}
        ids = set(identity_of.values())
        for stmt in comp_lines:
            kw = stmt[0]
            # comp g . f = h ;
            if len(stmt) != 6 or stmt[2].text != "." or stmt[4].text != "=":
                self._fail(kw.line, "usage: comp g.f = h;")
                continue
            g, f, h = stmt[1].text, stmt[3].text, stmt[5].text
            bad = [m for m in (g, f, h) if m not in known]
            if bad:
                self._fail(kw.line, f"composite names unknown morphism '{bad[0]}'")
                continue
            if tgt[f] != src[g]:
                self._fail(kw.line, f"'{g}.{f}' is not composable")
                continue
            if g in ids or f in ids:
                expected = f if g in ids else g
                if h != expected:
                    self._fail(kw.line, f"identity composite '{g}.{f}' must be {expected}")
                continue
            if (g, f) in comp:
                self._fail(kw.line, f"duplicate composite '{g}.{f}'")
                continue
            comp[(g, f)] = h

        for g in homs:
            for f in homs:
                if tgt[f] == src[g] and (g, f) not in comp:
                    self._fail(line, f"missing composite '{g}.{f}'")
        if len(self.diags) > start:
            return

        C = build_category(objects, {f: (st[0], st[1]) for f, st in homs.items()}, comp)
        for msg in validate_category(C):
            self._fail(line, f"in {kind} {name}: {msg}")
        if len(self.diags) > start:
            return
        if kind == "groupoid":
            G = as_groupoid(C)
            if G is None:
                self._fail(line, f"in groupoid {name}: some morphism has no inverse")
                return
            self.doc.entities[name] = ("groupoid", G)
        else:
            self.doc.entities[name] = ("category", C)

    # -- group blocks -----------------------------------------------------

    def _perm_group(self, name):
        stmt = self._statement()
        # perm N gens ( c ... ) ( c ... ) , ( c ... ) ;
        line = stmt[0].line if stmt else self._line()
        if len(stmt) < 2 or stmt[0].text != "perm" or not _is_nat(stmt[1].text):
            self._fail(line, "usage: group NAME perm DEGREE gens (cycles), ...;")
            return
        degree = int(stmt[1].text)
        rest = stmt[2:]
        if not rest or rest[0].text != "gens":
            self._fail(line, "usage: group NAME perm DEGREE gens (cycles), ...;")
            return
        rest = rest[1:]
        gens = []
        cycles = []
        cur = None
        ok = True
        repeat = None
        for tok in rest:
            if tok.text == "(":
                if cur is not None:
                    self._fail(tok.line, "nested '(' in cycle notation")
                    ok = False
                    break
                cur = []
            elif tok.text == ")":
                if cur is None:
                    self._fail(tok.line, "unmatched ')'")
                    ok = False
                    break
                if repeat is None and len(set(cur)) < len(cur):
                    twice = next(v for v in cur if cur.count(v) > 1)
                    repeat = (tok.line, f"cycle ({' '.join(map(str, cur))}) repeats {twice}")
                cycles.append(cur)
                cur = None
            elif tok.text == ",":
                if cur is not None or not cycles:
                    self._fail(tok.line, "misplaced ','")
                    ok = False
                    break
                gens.append(cycles)
                cycles = []
            elif _is_nat(tok.text) and cur is not None:
                cur.append(int(tok.text))
            else:
                self._fail(tok.line, f"unexpected '{tok.text}' in cycle notation")
                ok = False
                break
        if not ok:
            return
        if cur is not None:
            self._fail(line, "unclosed cycle")
            return
        if cycles:
            gens.append(cycles)
        try:
            images = [cycles_to_images(degree, cyc_list) for cyc_list in gens]
            group = perm_group(degree, images)
        except ValueError as exc:
            self._fail(line, str(exc))
            return
        if repeat is not None:
            self._fail(*repeat)
            return
        self.doc.entities[name] = ("group", group)
        self.doc.meta[name] = {}

    def _group_block(self, name, line, statements):
        start = len(self.diags)
        elements = []
        seen = set()
        unit = None
        mul_lines = []
        for stmt in statements:
            kw = stmt[0]
            if kw.text == "elements":
                for tok in stmt[1:]:
                    if not _is_name(tok.text):
                        self._fail(tok.line, f"bad element name '{tok.text}'")
                    elif tok.text in seen:
                        self._fail(tok.line, f"duplicate element '{tok.text}'")
                    else:
                        seen.add(tok.text)
                        elements.append(tok.text)
            elif kw.text == "unit":
                if len(stmt) != 2:
                    self._fail(kw.line, "usage: unit e;")
                elif unit is not None:
                    self._fail(kw.line, "duplicate unit statement")
                else:
                    unit = stmt[1].text
            elif kw.text == "mul":
                mul_lines.append(stmt)
            else:
                self._fail(kw.line, f"unknown group statement '{kw.text}'")
        if unit is None or unit not in seen:
            self._fail(line, f"group {name} needs a unit among its elements")
            return

        mul = {}
        for stmt in mul_lines:
            kw = stmt[0]
            if len(stmt) != 6 or stmt[2].text != "." or stmt[4].text != "=":
                self._fail(kw.line, "usage: mul a.b = c;")
                continue
            a, b, c = stmt[1].text, stmt[3].text, stmt[5].text
            bad = [e for e in (a, b, c) if e not in seen]
            if bad:
                self._fail(kw.line, f"product names unknown element '{bad[0]}'")
                continue
            if a == unit or b == unit:
                expected = b if a == unit else a
                if c != expected:
                    self._fail(kw.line, f"unit product '{a}.{b}' must be {expected}")
                continue
            if (a, b) in mul:
                self._fail(kw.line, f"duplicate product '{a}.{b}'")
                continue
            mul[(a, b)] = c
        for a in elements:
            mul[(unit, a)] = a
            mul[(a, unit)] = a
        for a in elements:
            for b in elements:
                if (a, b) not in mul:
                    self._fail(line, f"missing product '{a}.{b}'")
        if len(self.diags) > start:
            return
        G = FiniteGroup(elements, unit, mul)
        for msg in validate_group(G):
            self._fail(line, f"in group {name}: {msg}")
        if len(self.diags) > start:
            return
        self.doc.entities[name] = ("group", G)
        self.doc.meta[name] = {}

    # -- action blocks ----------------------------------------------------

    def _action_block(self, name, line, statements):
        start = len(self.diags)
        group_name = None
        points = []
        seen_pts = set()
        act_lines = []
        for stmt in statements:
            kw = stmt[0]
            if kw.text == "group":
                if len(stmt) != 2:
                    self._fail(kw.line, "usage: group NAME;")
                elif group_name is not None:
                    self._fail(kw.line, "duplicate group statement")
                else:
                    group_name = stmt[1].text
                    if (
                        group_name not in self.doc.entities
                        or self.doc.kind(group_name) != "group"
                    ):
                        self._fail(kw.line, f"'{group_name}' is not an earlier group")
                        group_name = None
            elif kw.text == "on":
                for tok in stmt[1:]:
                    if not _is_name(tok.text):
                        self._fail(tok.line, f"bad point name '{tok.text}'")
                    elif tok.text in seen_pts:
                        self._fail(tok.line, f"duplicate point '{tok.text}'")
                    else:
                        seen_pts.add(tok.text)
                        points.append(tok.text)
            elif kw.text == "act":
                act_lines.append(stmt)
            else:
                self._fail(kw.line, f"unknown action statement '{kw.text}'")
        if group_name is None:
            self._fail(line, f"action {name} needs a group")
            return
        G = self.doc.value(group_name)

        table = {}
        for stmt in act_lines:
            kw = stmt[0]
            if len(stmt) != 5 or stmt[3].text != "=":
                self._fail(kw.line, "usage: act g x = y;")
                continue
            g, x, y = stmt[1].text, stmt[2].text, stmt[4].text
            if g not in G.elements:
                self._fail(kw.line, f"action by unknown element '{g}'")
                continue
            if x not in seen_pts:
                self._fail(kw.line, f"action entry uses unknown point '{x}'")
                continue
            if y not in seen_pts:
                self._fail(kw.line, f"action entry uses unknown point '{y}'")
                continue
            if g == G.unit:
                if y != x:
                    self._fail(kw.line, f"unit must act trivially on '{x}'")
                continue
            if (g, x) in table:
                self._fail(kw.line, f"duplicate action entry for ({g}, {x})")
                continue
            table[(g, x)] = y
        for g in G.elements:
            if g == G.unit:
                continue
            for x in points:
                if (g, x) not in table:
                    self._fail(line, f"missing action entry for ({g}, {x})")
        if len(self.diags) > start:
            return
        A = group_action(G, tuple(points), table)
        for msg in validate_action(A):
            self._fail(line, f"in action {name}: {msg}")
        if len(self.diags) > start:
            return
        self.doc.entities[name] = ("action", A)
        self.doc.meta[name] = {"group": group_name, "points": tuple(points)}

    # -- map blocks -------------------------------------------------------

    def _resolve_space(self, name, line):
        if name not in self.doc.entities:
            self._fail(line, f"unknown entity '{name}'")
            return None
        S = entity_sset(*self.doc.entities[name], MAP_NERVE_DEPTH)
        if S is None:
            self._fail(line, f"'{name}' is not a simplicial set, category or group")
        return S

    def _map_block(self, name, line):
        # NAME already consumed; expect ': A -> B {'
        start = len(self.diags)
        tok = self._next()
        if tok is None or tok.text != ":":
            self._fail(line, "usage: map NAME: A -> B { ... }")
            self._skip_block()
            return
        a_tok = self._next()
        arrow = self._next()
        b_tok = self._next()
        if (
            a_tok is None
            or arrow is None
            or b_tok is None
            or arrow.text != "->"
            or not _is_name(a_tok.text)
            or not _is_name(b_tok.text)
        ):
            self._fail(line, "usage: map NAME: A -> B { ... }")
            self._skip_block()
            return
        if not self._open_brace(line):
            return
        statements = self._block_statements()
        A = self._resolve_space(a_tok.text, a_tok.line)
        B = self._resolve_space(b_tok.text, b_tok.line)
        if A is None or B is None:
            return

        assign = {}
        for stmt in statements:
            kw = stmt[0]
            # x -> [word] y ;
            if len(stmt) < 4 or stmt[1].text != "->" or not _is_name(kw.text):
                self._fail(kw.line, "usage: source -> [word] target;")
                continue
            x = kw.text
            word, rest = self._word_tokens(stmt[2:], kw.line, f"value of '{x}'")
            if word is None:
                continue
            if len(rest) != 1 or not _is_name(rest[0].text):
                self._fail(kw.line, "usage: source -> [word] target;")
                continue
            y = rest[0].text
            if x not in A.gen_dim:
                self._fail(kw.line, f"assignment to unknown generator '{x}'")
                continue
            if y not in B.gen_dim:
                self._fail(kw.line, f"value of '{x}' names unknown generator '{y}'")
                continue
            if x in assign:
                self._fail(kw.line, f"duplicate assignment for '{x}'")
                continue
            assign[x] = SimplexRef(word, y, B.gen_dim[y] + len(word))
        f = SimplicialMap(A, B, assign)
        for msg in f.validate():
            self._fail(line, f"in map {name}: {msg}")
        if len(self.diags) > start:
            return
        self.doc.entities[name] = ("map", f)
        self.doc.meta[name] = {"source": a_tok.text, "target": b_tok.text}


def parse_document(text):
    """Parse a document, raising DslParseError with all diagnostics."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing.


def sanitize_names(names):
    """Deterministic token-safe renaming; first come keeps the cleaner name."""
    out = {}
    used = set()
    for g in names:
        base = re.sub(r"[^A-Za-z0-9_@]", "_", g) or "x"
        cand = base
        k = 2
        while cand in used:
            cand = f"{base}_{k}"
            k += 1
        used.add(cand)
        out[g] = cand
    return out


def sanitize_sset(S):
    """Copy of S whose generator names survive the text format."""
    names = [g for level in S.gens for g in level]
    mapping = sanitize_names(names)
    if all(mapping[g] == g for g in names):
        return S
    return rename_generators(S, mapping)


def entity_sset(kind, value, depth):
    """The simplicial set an entity stands for, or None for other kinds.

    A simplicial set is itself; a category or groupoid is nerved to
    `depth`, a group through its one-object groupoid, and generated
    names are sanitized so the result prints as document text.
    """
    if kind == "sset":
        return value
    if kind == "group":
        value = one_object_groupoid(value)
    elif kind not in ("category", "groupoid"):
        return None
    return sanitize_sset(nerve(value, depth))


def ref_text(r):
    """A simplex reference as document text: `[k ...] gen`."""
    return "[" + " ".join(str(k) for k in r.word) + "] " + r.gen


def _print_sset(out, name, S):
    S = sanitize_sset(S)
    out.append(f"sset {name} {{")
    out.append(f"  dim {max(S.bound, 0)};")
    if S.truncated:
        out.append("  truncated;")
    for n, level in enumerate(S.gens):
        if level:
            out.append(f"  gen {n} " + " ".join(level) + ";")
    for level in S.gens:
        for g in level:
            if g in S.face_table:
                for k, r in enumerate(S.face_table[g]):
                    out.append(f"  face {g} {k} -> {ref_text(r)};")
    out.append("}")


def _print_category(out, kind, name, C):
    ids = set(C.identities.values())
    # identity names are implicit in the text format, so composite values
    # that hit an identity are spelled with the parser's auto names
    auto = identity_names(C.objects, (m for m in C.morphisms if m not in ids))
    rename = {C.identities[a]: auto[a] for a in C.objects}

    out.append(f"{kind} {name} {{")
    if C.objects:
        out.append("  obj " + " ".join(C.objects) + ";")
    for f in C.morphisms:
        if f not in ids:
            out.append(f"  mor {f}: {C.src[f]} -> {C.tgt[f]};")
    for (g, f), h in sorted(C.comp.items()):
        if g in ids or f in ids:
            continue
        out.append(f"  comp {g}.{f} = {rename.get(h, h)};")
    out.append("}")


def _print_group(out, name, G):
    out.append(f"group {name} {{")
    out.append("  elements " + " ".join(G.elements) + ";")
    out.append(f"  unit {G.unit};")
    for (a, b), c in sorted(G.mul.items()):
        if a == G.unit or b == G.unit:
            continue
        out.append(f"  mul {a}.{b} = {c};")
    out.append("}")


def _print_action(out, name, A, meta):
    out.append(f"action {name} {{")
    out.append(f"  group {meta['group']};")
    out.append("  on " + " ".join(meta["points"]) + ";")
    base = A.base
    for (g, x), y in sorted(A.act.items()):
        if base.is_identity(g):
            continue
        out.append(f"  act {g} {x} = {y};")
    out.append("}")


def _print_map(out, name, f, meta):
    out.append(f"map {name}: {meta['source']} -> {meta['target']} {{")
    for level in f.source.gens:
        for g in level:
            r = f.assign[g]
            out.append(f"  {g} -> {ref_text(r)};")
    out.append("}")


def print_entity(kind, name, value, meta=None):
    """One entity as document text, usable as input again."""
    out = []
    if kind == "sset":
        _print_sset(out, name, value)
    elif kind in ("category", "groupoid"):
        _print_category(out, kind, name, value)
    elif kind == "group":
        _print_group(out, name, value)
    elif kind == "action":
        _print_action(out, name, value, meta)
    elif kind == "map":
        _print_map(out, name, value, meta)
    else:
        raise ValueError(f"unknown entity kind '{kind}'")
    out.append("")
    return "\n".join(out)


def print_document(doc):
    """Canonical text for a document; parse(print(doc)) is structurally equal."""
    return "\n".join(
        print_entity(kind, name, value, doc.meta.get(name))
        for name, (kind, value) in doc.entities.items()
    )
