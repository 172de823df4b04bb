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
from typing import NamedTuple

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
# the last alternative catches any other character, for a diagnostic
TOKEN_RE = re.compile(r"->|[A-Za-z0-9_@]+|[{}\[\]();:.,=]|(\S)")
MAP_NERVE_DEPTH = 4


class DslParseError(Exception):
    """All diagnostics of a failed parse, each tagged with its line."""

    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__(
            "\n".join(f"line {line}: {msg}" for line, msg in self.diagnostics)
        )


class Token(NamedTuple):
    text: str
    line: int


def _tokenize(text, diags):
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in TOKEN_RE.finditer(line.split("#", 1)[0]):
            if m.lastindex:
                diags.append((lineno, f"unexpected character '{m.group()}'"))
            else:
                tokens.append(Token(m.group(), lineno))
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


# entity kind -> the function listing a value's structural problems
VALIDATORS = {
    "sset": validate,
    "category": validate_category,
    "groupoid": validate_category,
    "group": validate_group,
    "action": validate_action,
    "map": SimplicialMap.validate,
}

# keyword of a product table -> (usage form, entry, member, neutral element)
_TABLE_WORDS = {
    "comp": ("g.f = h", "composite", "morphism", "identity"),
    "mul": ("a.b = c", "product", "element", "unit"),
}
_FACE_USAGE = "face name K -> [word] name;"
_VALUE_USAGE = "source -> [word] target;"


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

    # -- statement readers ------------------------------------------------

    def _shape(self, toks, shape, usage, line=None):
        """The tokens at the placeholders of `shape`, or None after `usage: ...`.

        `shape` is space-separated words: NAME and NAT match a name and a
        natural number, ANY matches any token, any other word matches
        itself, and a final `...` matches the remaining tokens, which are
        returned after the placeholders.  The usage line is that of the
        first token unless `line` is given.
        """
        words = shape.split()
        if words[-1] == "...":
            words.pop()
            fits = len(toks) >= len(words)
        else:
            fits = len(toks) == len(words)
        fits = fits and all(
            w == "ANY" or (_is_name(t.text) if w == "NAME" else _is_nat(t.text) if w == "NAT" else t.text == w)
            for w, t in zip(words, toks)
        )
        if not fits:
            self._fail(toks[0].line if line is None else line, f"usage: {usage}")
            return None
        return [t for w, t in zip(words, toks) if w in ("NAME", "NAT", "ANY")] + toks[len(words):]

    def _names(self, toks, noun, into, value=None):
        """Add each name among toks to the dict `into`, mapped to `value`."""
        for tok in toks:
            if not _is_name(tok.text):
                self._fail(tok.line, f"bad {noun} name '{tok.text}'")
            elif tok.text in into:
                self._fail(tok.line, f"duplicate {noun} '{tok.text}'")
            else:
                into[tok.text] = value

    def _ref(self, toks, line, what, usage):
        """(word, name) from `[k ...] name`, or None after a diagnostic."""
        if not toks or toks[0].text != "[":
            self._fail(line, f"{what}: expected a bracketed degeneracy word")
            return None
        idx = 1
        word = []
        while idx < len(toks) and toks[idx].text != "]":
            if not _is_nat(toks[idx].text):
                self._fail(toks[idx].line, f"{what}: bad word entry '{toks[idx].text}'")
                return None
            word.append(int(toks[idx].text))
            idx += 1
        if idx >= len(toks):
            self._fail(line, f"{what}: unclosed degeneracy word")
            return None
        if any(a <= b for a, b in zip(word, word[1:])):
            self._fail(line, f"{what}: degeneracy word must be strictly decreasing")
            return None
        name = self._shape(toks[idx + 1:], "NAME", usage, line)
        return None if name is None else (tuple(word), name[0].text)

    def _table(self, kw, stmts, known, neutral, plain, composable, line):
        """The entries of the `kw g.f = h` statements (comp or mul).

        Names must be among `known`.  An entry with a `neutral` factor
        (an identity or the unit) must equal the other factor and is not
        stored; every composable pair of `plain` names needs an entry.
        """
        form, entry, member, unit = _TABLE_WORDS[kw]
        table = {}
        for stmt in stmts:
            args = self._shape(stmt, f"{kw} ANY . ANY = ANY", f"{kw} {form};")
            if args is None:
                continue
            g, f, h = (t.text for t in args)
            line_of = stmt[0].line
            bad = [m for m in (g, f, h) if m not in known]
            if bad:
                self._fail(line_of, f"{entry} names unknown {member} '{bad[0]}'")
            elif not composable(g, f):
                self._fail(line_of, f"'{g}.{f}' is not composable")
            elif g in neutral or f in neutral:
                expected = f if g in neutral else g
                if h != expected:
                    self._fail(line_of, f"{unit} {entry} '{g}.{f}' must be {expected}")
            elif (g, f) in table:
                self._fail(line_of, f"duplicate {entry} '{g}.{f}'")
            else:
                table[(g, f)] = h
        for g in plain:
            for f in plain:
                if composable(g, f) and (g, f) not in table:
                    self._fail(line, f"missing {entry} '{g}.{f}'")
        return table

    def _finish(self, kind, name, line, value, start, meta=None):
        """Validate a block's entity; store it if the block reported nothing.

        Problems are prefixed `in KIND NAME: `, and a groupoid is its
        category upgraded by inverse search.
        """
        for msg in VALIDATORS[kind](value):
            self._fail(line, f"in {kind} {name}: {msg}")
        if kind == "groupoid" and len(self.diags) == start:
            value = as_groupoid(value)
            if value is None:
                self._fail(line, f"in groupoid {name}: some morphism has no inverse")
        if len(self.diags) == start:
            self.doc.entities[name] = (kind, value)
            if meta is not None:
                self.doc.meta[name] = meta

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

    def _sset_block(self, name, line, statements):
        start = len(self.diags)
        bound = None
        truncated = False
        gen_dim = {}
        face_lines = []
        for stmt in statements:
            kw = stmt[0]
            if kw.text == "dim":
                args = self._shape(stmt, "dim NAT", "dim N;")
                if args is None:
                    continue
                if bound is not None:
                    self._fail(kw.line, "duplicate dim statement")
                elif int(args[0].text) > MAX_DIM:
                    self._fail(kw.line, f"dim {int(args[0].text)} exceeds the supported maximum {MAX_DIM}")
                else:
                    bound = int(args[0].text)
            elif kw.text == "truncated":
                self._shape(stmt, "truncated", "truncated;")
                truncated = True
            elif kw.text == "gen":
                args = self._shape(stmt, "gen NAT ANY ...", "gen DIM name ...;")
                if args is None:
                    continue
                d = int(args[0].text)
                if d > MAX_DIM:
                    self._fail(kw.line, f"gen {d} exceeds the supported maximum {MAX_DIM}")
                self._names(args[1:], "generator", gen_dim, d)
            elif kw.text == "face":
                face_lines.append(stmt)
            else:
                self._fail(kw.line, f"unknown sset statement '{kw.text}'")

        if bound is None:
            bound = max(gen_dim.values(), default=0)

        faces = {}
        for stmt in face_lines:
            kw = stmt[0]
            args = self._shape(stmt, "face NAME NAT -> ANY ...", _FACE_USAGE)
            if args is None:
                continue
            g, k = args[0].text, int(args[1].text)
            ref = self._ref(args[2:], kw.line, f"face of '{g}'", _FACE_USAGE)
            if ref is None:
                continue
            word, y = ref
            n = gen_dim.get(g)
            if n is None:
                self._fail(kw.line, f"face of unknown generator '{g}'")
            elif n == 0 or k > n:
                self._fail(kw.line, f"face index {k} out of range for '{g}' (dimension {n})")
            elif y not in gen_dim:
                self._fail(kw.line, f"face of '{g}' refers to unknown generator '{y}'")
            elif gen_dim[y] + len(word) != n - 1:
                self._fail(
                    kw.line,
                    f"face d_{k} of '{g}' must have dimension {n - 1}, got {gen_dim[y] + len(word)}",
                )
            elif (g, k) in faces:
                self._fail(kw.line, f"duplicate face d_{k} of '{g}'")
            else:
                faces[(g, k)] = SimplexRef(word, y, n - 1)

        broken = False
        for g, d in gen_dim.items():
            if d > bound:
                self._fail(line, f"generator '{g}' has dimension {d} above the bound {bound}")
                broken = True
        for g, n in gen_dim.items():
            for k in range(n + 1):
                if n and (g, k) not in faces:
                    self._fail(line, f"missing face d_{k} of '{g}'")
                    broken = True
        if broken:
            return
        gens_by_dim = [[] for _ in range(bound + 1)]
        for g, n in gen_dim.items():
            gens_by_dim[n].append(g)
        face_table = {
            g: tuple(faces[(g, k)] for k in range(n + 1)) for g, n in gen_dim.items() if n >= 1
        }
        S = SimplicialSet(gens_by_dim, face_table, truncated=truncated)
        self._finish("sset", name, line, S, start)

    # -- category / groupoid blocks --------------------------------------

    def _category_block(self, kind, name, line, statements):
        start = len(self.diags)
        objects = {}
        homs = {}
        comp_lines = []
        for stmt in statements:
            kw = stmt[0]
            if kw.text == "obj":
                self._names(stmt[1:], "object", objects)
            elif kw.text == "mor":
                args = self._shape(stmt, "mor NAME : ANY -> ANY", "mor f: a -> b;")
                if args is None:
                    continue
                f, a, b = (t.text for t in args)
                if f in homs or f in objects:
                    self._fail(kw.line, f"duplicate morphism '{f}'")
                    continue
                homs[f] = (a, b, kw.line)
            elif kw.text == "comp":
                comp_lines.append(stmt)
            else:
                self._fail(kw.line, f"unknown {kind} statement '{kw.text}'")

        for f, (a, b, ln) in homs.items():
            if a not in objects:
                self._fail(ln, f"morphism '{f}' has unknown source '{a}'")
            if b not in objects:
                self._fail(ln, f"morphism '{f}' has unknown target '{b}'")
        if len(self.diags) > start:
            # names are broken; composites would only cascade
            return

        identity_of = identity_names(objects, homs)
        src = {f: st[0] for f, st in homs.items()}
        tgt = {f: st[1] for f, st in homs.items()}
        for a, i in identity_of.items():
            src[i] = a
            tgt[i] = a
        comp = self._table(
            "comp", comp_lines, src, set(identity_of.values()), homs,
            lambda g, f: tgt[f] == src[g], line,
        )
        if len(self.diags) > start:
            return
        C = build_category(objects, {f: (st[0], st[1]) for f, st in homs.items()}, comp)
        self._finish(kind, name, line, C, start)

    # -- group blocks -----------------------------------------------------

    def _perm_group(self, name):
        stmt = self._statement()
        # perm N gens ( c ... ) ( c ... ) , ( c ... ) ;
        line = stmt[0].line if stmt else self._line()
        args = self._shape(stmt, "perm NAT gens ...", "group NAME perm DEGREE gens (cycles), ...;", line)
        if args is None:
            return
        degree = int(args[0].text)
        gens = []
        cycles = []
        cur = None
        repeat = None
        for tok in args[1:]:
            if tok.text == "(":
                if cur is not None:
                    self._fail(tok.line, "nested '(' in cycle notation")
                    return
                cur = []
            elif tok.text == ")":
                if cur is None:
                    self._fail(tok.line, "unmatched ')'")
                    return
                if repeat is None and len(set(cur)) < len(cur):
                    twice = next(v for v in cur if cur.count(v) > 1)
                    repeat = (tok.line, f"cycle ({' '.join(map(str, cur))}) repeats {twice}")
                cycles.append(cur)
                cur = None
            elif tok.text == ",":
                if cur is not None or not cycles:
                    self._fail(tok.line, "misplaced ','")
                    return
                gens.append(cycles)
                cycles = []
            elif _is_nat(tok.text) and cur is not None:
                cur.append(int(tok.text))
            else:
                self._fail(tok.line, f"unexpected '{tok.text}' in cycle notation")
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
        # no validate_group: a perm group is one by construction, and the
        # associativity check of a degree-6 group alone is 720^3 lookups
        self.doc.entities[name] = ("group", group)
        self.doc.meta[name] = {}

    def _group_block(self, name, line, statements):
        start = len(self.diags)
        elements = {}
        unit = None
        mul_lines = []
        for stmt in statements:
            kw = stmt[0]
            if kw.text == "elements":
                self._names(stmt[1:], "element", elements)
            elif kw.text == "unit":
                args = self._shape(stmt, "unit ANY", "unit e;")
                if args is None:
                    continue
                if unit is not None:
                    self._fail(kw.line, "duplicate unit statement")
                else:
                    unit = args[0].text
            elif kw.text == "mul":
                mul_lines.append(stmt)
            else:
                self._fail(kw.line, f"unknown group statement '{kw.text}'")
        if unit not in elements:
            self._fail(line, f"group {name} needs a unit among its elements")
            return

        plain = [a for a in elements if a != unit]
        mul = self._table("mul", mul_lines, elements, {unit}, plain, lambda a, b: True, line)
        for a in elements:
            mul[(unit, a)] = a
            mul[(a, unit)] = a
        if len(self.diags) > start:
            return
        self._finish("group", name, line, FiniteGroup(elements, unit, mul), start, {})

    # -- action blocks ----------------------------------------------------

    def _action_block(self, name, line, statements):
        start = len(self.diags)
        group_name = None
        points = {}
        act_lines = []
        for stmt in statements:
            kw = stmt[0]
            if kw.text == "group":
                args = self._shape(stmt, "group ANY", "group NAME;")
                if args is None:
                    continue
                if group_name is not None:
                    self._fail(kw.line, "duplicate group statement")
                elif args[0].text in self.doc.entities and self.doc.kind(args[0].text) == "group":
                    group_name = args[0].text
                else:
                    self._fail(kw.line, f"'{args[0].text}' is not an earlier group")
            elif kw.text == "on":
                self._names(stmt[1:], "point", points)
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
            args = self._shape(stmt, "act ANY ANY = ANY", "act g x = y;")
            if args is None:
                continue
            g, x, y = (t.text for t in args)
            if g not in G.elements:
                self._fail(kw.line, f"action by unknown element '{g}'")
            elif x not in points:
                self._fail(kw.line, f"action entry uses unknown point '{x}'")
            elif y not in points:
                self._fail(kw.line, f"action entry uses unknown point '{y}'")
            elif g == G.unit:
                if y != x:
                    self._fail(kw.line, f"unit must act trivially on '{x}'")
            elif (g, x) in table:
                self._fail(kw.line, f"duplicate action entry for ({g}, {x})")
            else:
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
        self._finish("action", name, line, A, start, {"group": group_name, "points": tuple(points)})

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
        # NAME already consumed; expect ': A -> B {', and skip from just
        # after the first token when that is not ':'
        start = len(self.diags)
        head = self.tokens[self.pos:self.pos + 4]
        self.pos += len(head) if head and head[0].text == ":" else len(head[:1])
        args = self._shape(head, ": NAME -> NAME", "map NAME: A -> B { ... }", line)
        if args is None:
            self._skip_block()
            return
        a_name, b_name = (t.text for t in args)
        if not self._open_brace(line):
            return
        statements = self._block_statements()
        A = self._resolve_space(a_name, args[0].line)
        B = self._resolve_space(b_name, args[1].line)
        if A is None or B is None:
            return

        assign = {}
        for stmt in statements:
            kw = stmt[0]
            if self._shape(stmt, "NAME -> ANY ANY ...", _VALUE_USAGE) is None:
                continue
            x = kw.text
            ref = self._ref(stmt[2:], kw.line, f"value of '{x}'", _VALUE_USAGE)
            if ref is None:
                continue
            word, y = ref
            if x not in A.gen_dim:
                self._fail(kw.line, f"assignment to unknown generator '{x}'")
            elif y not in B.gen_dim:
                self._fail(kw.line, f"value of '{x}' names unknown generator '{y}'")
            elif x in assign:
                self._fail(kw.line, f"duplicate assignment for '{x}'")
            else:
                assign[x] = SimplexRef(word, y, B.gen_dim[y] + len(word))
        f = SimplicialMap(A, B, assign)
        self._finish("map", name, line, f, start, {"source": a_name, "target": b_name})


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
