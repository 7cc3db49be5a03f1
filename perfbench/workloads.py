"""Seeded inputs for the three grading workloads.

Every workload grades problems drawn from the reference mutation corpus,
``CorpusGenerator(seed=0, per_query=20)`` -- the corpus BENCH_corpus.json
describes.  Per-entry grading cost is heavy-tailed (a narrow entry takes
2 ms at the median and up to 0.7 s; a wide one 8 ms at the median and up
to 29 s), so drawing a fresh corpus per seed changes the total work by
tens of percent between seeds.  The graded problems are therefore fixed,
and ``--seed`` chooses everything that must leave the work unchanged:
submission order, whitespace, keyword case and alias names, plus which
wrong form each classroom submission repeats.  Every rendered variant is
checked to canonicalize to its original, so the pipeline sees exactly
the reference problem.

* ``wide-where``: entries whose target WHERE has >= 8 distinct atoms,
  graded without witnesses, minus the entries listed in
  ``wide_tail.json`` (each alone costs 1.8-29 s, more than a run's
  budget allows; see README.md).
* ``narrow-tutor``: every entry of the remaining targets, graded with
  witnesses.
* ``classroom``: a duplicate-heavy stream over narrow targets with
  witnesses: per assignment a few wrong forms plus the correct answer,
  each re-rendered per submission.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
from dataclasses import dataclass

from repro.corpus import CorpusGenerator
from repro.service.cache import canonical_key
from repro.sqlparser.lexer import tokenize
from repro.sqlparser.rewrite import parse_query_extended

HERE = pathlib.Path(__file__).resolve().parent

REFERENCE_SEED = 0
PER_QUERY = 20
#: A target is "wide" when its WHERE has at least this many distinct atoms.
WIDE_ATOMS = 8
#: Classroom: distinct wrong forms per assignment, rendered variants per
#: form, the share of submissions that are the correct answer, and the
#: stream length generated up front (a run stops at its time limit).
CLASSROOM_FORMS = 3
CLASSROOM_VARIANTS = 6
CLASSROOM_CORRECT_SHARE = 0.3
CLASSROOM_STREAM = 200_000
#: A run grades ``--seconds / PASS_SECONDS`` whole passes (rounded, at
#: least one): 2 of either workload at 30 s.  A pass takes 21 s on
#: ``wide-where`` and 7.5 s on ``narrow-tutor`` on an unloaded 2-core
#: x86-64 machine, and up to 1.8x that under load from other tenants;
#: two passes keep a ``wide-where`` run under ~90 s even then.
PASS_SECONDS = 15.0

NAMES = ("wide-where", "narrow-tutor", "classroom")


@dataclass(frozen=True)
class Submission:
    """One submission: the reference problem it renders and its text."""

    key: str  # corpus entry seed, or "correct:<schema>:<qid>"
    schema: str
    qid: str
    sql: str


@dataclass
class Workload:
    """Inputs of one workload run."""

    name: str
    witness: bool
    #: ``(schema, qid) -> target SQL`` for every assignment.
    targets: dict
    #: Distinct submissions; ``order`` indexes into it.
    submissions: list
    #: Pass workloads grade every submission once per pass in a seeded
    #: order (fresh sessions each pass); the classroom grades one long
    #: stream through one set of sessions.
    passes: bool
    seed: int

    def pass_count(self, seconds):
        """Passes a run of ``seconds`` grades: a fixed amount of work, so
        that a slow machine shows as slow grades, not as fewer of them."""
        return max(1, round(seconds / PASS_SECONDS))

    def order(self, pass_index):
        """Submission indices graded in pass ``pass_index`` (or the stream).

        A pass interleaves the assignments at random but keeps each
        assignment's submissions in corpus order: a session's solver
        caches carry over between its submissions, so reordering within an
        assignment moves single grades by up to 7x, while interleaving
        across assignments (separate solvers) leaves every grade's work
        unchanged.
        """
        rng = random.Random(f"{self.seed}:{self.name}:order:{pass_index}")
        if not self.passes:
            return _classroom_stream(self.submissions, rng)
        queues = {}
        for index, sub in enumerate(self.submissions):
            queues.setdefault((sub.schema, sub.qid), []).append(index)
        slots = [key for key, queue in queues.items() for _ in queue]
        rng.shuffle(slots)
        cursor = dict.fromkeys(queues, 0)
        order = []
        for key in slots:
            order.append(queues[key][cursor[key]])
            cursor[key] += 1
        return order

    def input_hash(self):
        """sha256 over the rendered submissions (changes with the seed)."""
        digest = hashlib.sha256()
        for sub in self.submissions:
            digest.update(f"{sub.key}\0{sub.sql}\0".encode())
        return digest.hexdigest()


def _classroom_stream(submissions, rng):
    """Every submission once (the first student per form pays the miss),
    then seeded repeats: the correct answer ``CLASSROOM_CORRECT_SHARE`` of
    the time, otherwise one of the assignment's wrong forms."""
    by_assignment = {}
    for index, sub in enumerate(submissions):
        right = sub.key.startswith("correct:")
        pair = by_assignment.setdefault((sub.schema, sub.qid), ([], []))
        pair[0 if right else 1].append(index)
    groups = [by_assignment[k] for k in sorted(by_assignment)]
    stream = list(range(len(submissions)))
    rng.shuffle(stream)
    for _ in range(CLASSROOM_STREAM - len(stream)):
        rights, wrongs = rng.choice(groups)
        if rights and rng.random() < CLASSROOM_CORRECT_SHARE:
            stream.append(rng.choice(rights))
        else:
            stream.append(rng.choice(wrongs))
    return stream


# ----------------------------------------------------------------------
# Reference corpus
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    entries: list  # CorpusEntry, corpus order
    catalogs: dict  # schema -> Catalog
    wide: set  # (schema, qid) of wide targets


def reference_corpus():
    generator = CorpusGenerator(seed=REFERENCE_SEED)
    entries = generator.generate_pool(per_query=PER_QUERY)
    catalogs = {source.name: source.catalog() for source in generator.sources}
    targets = {(e.schema, e.qid): e.target_sql for e in entries}
    wide = {
        key
        for key, sql in targets.items()
        if len(set(parse_query_extended(sql, catalogs[key[0]]).where.atoms()))
        >= WIDE_ATOMS
    }
    return Reference(entries, catalogs, wide)


def wide_tail():
    """Entry seeds excluded from ``wide-where`` (see ``wide_tail.json``)."""
    data = json.loads((HERE / "wide_tail.json").read_text())
    return {item["entry"] for item in data["excluded"]}


def build(name, seed, reference=None):
    """The inputs of workload ``name`` for ``seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    ref = reference or reference_corpus()
    if name == "wide-where":
        tail = wide_tail()
        chosen = [
            e for e in ref.entries
            if (e.schema, e.qid) in ref.wide and e.seed not in tail
        ]
    else:
        chosen = [e for e in ref.entries if (e.schema, e.qid) not in ref.wide]
    if name == "classroom":
        per_target = {}
        for e in chosen:
            per_target.setdefault((e.schema, e.qid), []).append(e)
        chosen = [
            e for group in per_target.values() for e in group[:CLASSROOM_FORMS]
        ]
    targets = {(e.schema, e.qid): e.target_sql for e in chosen}
    submissions = []
    for e in chosen:
        catalog = ref.catalogs[e.schema]
        variants = CLASSROOM_VARIANTS if name == "classroom" else 1
        for v in range(variants):
            rng = random.Random(f"{seed}:{name}:{e.seed}:{v}")
            submissions.append(
                Submission(e.seed, e.schema, e.qid,
                           render(e.wrong_sql, catalog, rng))
            )
    if name == "classroom":
        for (schema, qid), sql in sorted(targets.items()):
            for v in range(CLASSROOM_VARIANTS):
                rng = random.Random(f"{seed}:{name}:correct:{schema}:{qid}:{v}")
                submissions.append(
                    Submission(f"correct:{schema}:{qid}", schema, qid,
                               render(sql, ref.catalogs[schema], rng))
                )
    return Workload(
        name=name,
        witness=name != "wide-where",
        targets=targets,
        submissions=submissions,
        passes=name != "classroom",
        seed=seed,
    )


# ----------------------------------------------------------------------
# Surface rendering
# ----------------------------------------------------------------------

_CLAUSE_END = {"WHERE", "GROUP", "HAVING", "ORDER"}
_GLUE = {".", "(", ")", ","}
_ALIAS_STYLES = ("keep", "t{}", "{}{}", "x_{}")


def render(sql, catalog, rng):
    """``sql`` re-rendered with seeded whitespace, keyword case and aliases.

    Falls back to a rendering without alias renames, then to ``sql``
    itself, whenever a variant would not canonicalize to the original
    query -- a variant must never change the grading problem.
    """
    original = canonical_key(parse_query_extended(sql, catalog))
    style = rng.choice(_ALIAS_STYLES)
    for attempt in dict.fromkeys((style, "keep")):
        text = _render_tokens(sql, catalog, rng, attempt)
        try:
            variant = canonical_key(parse_query_extended(text, catalog))
        except Exception:  # a rendering the parser rejects is not used
            continue
        if variant == original:
            return text
    return sql


def _render_tokens(sql, catalog, rng, style):
    tokens = tokenize(sql)[:-1]  # drop EOF
    mapping = _alias_mapping(sql, catalog, tokens, style)
    case = rng.choice((str.upper, str.lower, str.capitalize))
    out = []
    previous = None
    for index, token in enumerate(tokens):
        if token.kind == "keyword":
            text = case(token.value)
        elif token.kind == "string":
            text = "'" + token.value.replace("'", "''") + "'"
        elif token.kind == "ident" and token.value.lower() in mapping and (
            _is_alias_use(tokens, index)
        ):
            text = mapping[token.value.lower()]
        else:
            text = token.value
        if _declares_implicit_alias(tokens, index) and (
            token.value.lower() in mapping
        ):
            text = f"{text} {mapping[token.value.lower()]}"
        if previous is not None:
            glued = previous.value in _GLUE or token.value in _GLUE
            if previous.kind == "op" and previous.value == "." or (
                token.kind == "op" and token.value == "."
            ):
                sep = ""
            elif glued and previous.kind == "op" or glued and token.kind == "op":
                sep = rng.choice(("", " "))
            else:
                sep = rng.choice((" ", " ", " ", "  ", "\n  ", "\n"))
            out.append(sep)
        out.append(text)
        previous = token
    return "".join(out)


def _is_alias_use(tokens, index):
    """An ident token is an alias reference (``a.col``) or declaration
    (``Table a`` / ``Table AS a``)."""
    nxt = tokens[index + 1] if index + 1 < len(tokens) else None
    if nxt is not None and nxt.kind == "op" and nxt.value == ".":
        return True
    prev = tokens[index - 1] if index else None
    if prev is not None and prev.kind == "keyword" and prev.value == "AS":
        return _in_from(tokens, index)
    return (
        prev is not None and prev.kind == "ident" and _in_from(tokens, index)
    )


def _declares_implicit_alias(tokens, index):
    """A FROM item given as a bare table name (``FROM Serves, ...``)."""
    token = tokens[index]
    if token.kind != "ident" or not _in_from(tokens, index):
        return False
    prev = tokens[index - 1]
    if not (prev.kind == "keyword" and prev.value == "FROM"
            or prev.kind == "op" and prev.value == ","):
        return False
    nxt = tokens[index + 1] if index + 1 < len(tokens) else None
    return nxt is None or not (
        nxt.kind == "ident" or nxt.kind == "keyword" and nxt.value == "AS"
    )


def _in_from(tokens, index):
    depth = 0
    for token in reversed(tokens[:index]):
        if token.kind == "op" and token.value == ")":
            depth += 1
        elif token.kind == "op" and token.value == "(":
            depth -= 1
        elif token.kind == "keyword" and depth == 0:
            if token.value == "FROM":
                return True
            if token.value in _CLAUSE_END or token.value == "SELECT":
                return False
    return False


def _alias_mapping(sql, catalog, tokens, style):
    """Old alias -> new alias for every FROM entry (empty for ``keep``).

    Implicit aliases (``FROM Serves``) are declared explicitly in the
    rendered text (see ``_declares_implicit_alias``).
    """
    if style == "keep":
        return {}
    query = parse_query_extended(sql, catalog)
    taken = {t.value.lower() for t in tokens if t.kind == "ident"}
    mapping = {}
    for i, entry in enumerate(query.from_entries):
        if style == "{}{}":
            base = f"{entry.table.lower()[:2]}{i}"
        else:
            base = style.format(i)
        name = base
        while name in taken:
            name = name + "_"
        taken.add(name)
        mapping[entry.alias] = name
    return mapping
