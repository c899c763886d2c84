"""Independent correctness oracle for attribution responses.

Shares no code with ``repro`` below the query text: the query is parsed
here, evaluated to its groundings by stdlib :mod:`sqlite3`, turned into a
lineage over the endogenous facts, and its Banzhaf values are counted by a
small exact counter (brute force for small lineages, Shannon expansion
with independent components above that).  Values follow repro's
``domain="lineage"`` convention: the Banzhaf value of a fact counts the
subsets of the *other variables of the lineage* that it flips, and an
answer with a purely exogenous grounding has no attribution (it is
skipped, exactly like an answer with no grounding).
"""

from __future__ import annotations

import re
import sqlite3
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

Clause = FrozenSet[int]
Lineage = FrozenSet[Clause]
#: One fact of the input: (relation, values, endogenous).
FactRow = Tuple[str, Tuple[object, ...], bool]

_ATOM = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*)\s*\(([^)]*)\)\s*$")
_SELECTION = re.compile(
    r"\s*([A-Z][A-Za-z_0-9]*)\s*(<=|>=|!=|<>|==|=|<|>)\s*(.+?)\s*$")
_SQL_OP = {"=": "=", "==": "=", "!=": "!=", "<>": "!=", "<": "<",
           "<=": "<=", ">": ">", ">=": ">="}
#: Largest lineage (in variables) whose values are counted by brute force.
BRUTE_FORCE_MAX_VARS = 8


class OracleMismatch(AssertionError):
    """A response disagrees with the oracle."""


def fact_label(relation: str, values: Sequence[object]) -> str:
    """The text form of a fact, as responses print it: ``R('a', 1)``."""
    return f"{relation}({', '.join(repr(value) for value in values)})"


# --------------------------------------------------------------------- #
# Query text
# --------------------------------------------------------------------- #


def _term(text: str):
    token = text.strip()
    if not token:
        raise ValueError("empty term")
    if token[0] in "'\"":
        return ("const", token[1:-1])
    if re.fullmatch(r"-?\d+", token):
        return ("const", int(token))
    if re.fullmatch(r"-?\d+\.\d+", token):
        return ("const", float(token))
    if token[0].isupper():
        return ("var", token)
    return ("const", token)


def _split_body(body: str) -> List[str]:
    parts, depth, current = [], 0, []
    for char in body:
        depth += char == "("
        depth -= char == ")"
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return [part for part in parts if part.strip()]


def parse_rules(text: str):
    """Parse a (union of) conjunctive queries into plain tuples.

    Returns ``[(head_vars, atoms, selections)]`` with ``atoms`` as
    ``(relation, terms)`` and ``selections`` as ``(var, op, constant)``.
    """
    rules = []
    for rule in (part for part in text.split(";") if part.strip()):
        head_text, body_text = rule.split(":-", 1)
        head = _ATOM.match(head_text)
        if head is None:
            raise ValueError(f"cannot parse head {head_text!r}")
        head_vars = tuple(_term(t)[1] for t in head.group(2).split(",")
                          if t.strip())
        atoms, selections = [], []
        for part in _split_body(body_text):
            atom = _ATOM.match(part)
            if atom is not None:
                terms = tuple(_term(t) for t in atom.group(2).split(","))
                atoms.append((atom.group(1), terms))
                continue
            selection = _SELECTION.match(part)
            if selection is None:
                raise ValueError(f"cannot parse body element {part!r}")
            variable, op, constant = selection.groups()
            selections.append((variable, op, _term(constant)[1]))
        rules.append((head_vars, atoms, selections))
    return rules


# --------------------------------------------------------------------- #
# Exact Banzhaf counting
# --------------------------------------------------------------------- #


def _support(masks: Iterable[int]) -> int:
    support = 0
    for mask in masks:
        support |= mask
    return support


def _components(clauses: FrozenSet[int]) -> List[FrozenSet[int]]:
    """Split clause bitmasks into groups that share no variable."""
    groups: List[Tuple[int, List[int]]] = []
    for clause in clauses:
        support, members, rest = clause, [clause], []
        for group_support, group in groups:
            if group_support & support:
                support |= group_support
                members += group
            else:
                rest.append((group_support, group))
        rest.append((support, members))
        groups = rest
    return [frozenset(members) for _, members in groups]


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


class _Counter:
    """Exact model counts and Banzhaf values of positive DNFs.

    A DNF is a frozenset of clause bitmasks (bit ``i`` = variable ``i``);
    counts and values are over exactly the variables the clauses mention.
    Independent components combine through the count of falsifying
    assignments; otherwise a Shannon expansion on the most frequent
    variable splits the DNF, and a variable missing from one branch
    counts twice per absent variable there.
    """

    def __init__(self) -> None:
        self.memo: Dict[FrozenSet[int], Tuple[int, Dict[int, int]]] = {}

    def solve(self, clauses: FrozenSet[int]) -> Tuple[int, Dict[int, int]]:
        """(models, {variable bit: Banzhaf value}) over the support."""
        if not clauses:
            return 0, {}
        support = _support(clauses)
        if 0 in clauses:
            return 1 << _popcount(support), {}
        cached = self.memo.get(clauses)
        if cached is not None:
            return cached
        parts = _components(clauses)
        if len(parts) > 1:
            solved = [self.solve(part) for part in parts]
            falsified = [(1 << _popcount(_support(part))) - count
                         for part, (count, _) in zip(parts, solved)]
            values: Dict[int, int] = {}
            for index, (_, part_values) in enumerate(solved):
                # x flips the disjunction iff it flips its own component
                # while every other component is false.
                others = 1
                for other, value in enumerate(falsified):
                    if other != index:
                        others *= value
                for bit, value in part_values.items():
                    values[bit] = value * others
            everything_false = 1
            for value in falsified:
                everything_false *= value
            result = ((1 << _popcount(support)) - everything_false, values)
        else:
            pivot, best, bit = 0, -1, 1
            while bit <= support:
                if support & bit:
                    frequency = sum(1 for clause in clauses if clause & bit)
                    if frequency > best:
                        pivot, best = bit, frequency
                bit <<= 1
            rest = support & ~pivot
            width = _popcount(rest)
            values = {}
            counts = []
            for branch in (frozenset(c & ~pivot for c in clauses),
                           frozenset(c for c in clauses if not c & pivot)):
                count, branch_values = self.solve(branch)
                pad = width - _popcount(_support(branch))
                counts.append(count << pad)
                for variable, value in branch_values.items():
                    values[variable] = values.get(variable, 0) + (value << pad)
            values[pivot] = counts[0] - counts[1]
            result = (counts[0] + counts[1], values)
        self.memo[clauses] = result
        return result


def _banzhaf_brute(masks: FrozenSet[int], width: int) -> List[int]:
    truth = [any(mask & subset == mask for mask in masks)
             for subset in range(1 << width)]
    values = []
    for position in range(width):
        bit = 1 << position
        values.append(sum(truth[subset | bit] - truth[subset]
                          for subset in range(1 << width)
                          if not subset & bit))
    return values


def _banzhaf_shannon(masks: FrozenSet[int], width: int) -> List[int]:
    _, values = _Counter().solve(masks)
    return [values.get(1 << position, 0) for position in range(width)]


def banzhaf_values(clauses: Iterable[Iterable[int]],
                   brute_force_max_vars: int = BRUTE_FORCE_MAX_VARS
                   ) -> Dict[int, int]:
    """Exact Banzhaf value of every variable of a positive DNF.

    The domain is the set of variables occurring in the clauses.
    """
    clauses = [tuple(clause) for clause in clauses]
    variables = sorted({variable for clause in clauses
                        for variable in clause})
    position = {variable: index for index, variable in enumerate(variables)}
    masks = frozenset(sum(1 << position[v] for v in set(clause))
                      for clause in clauses)
    width = len(variables)
    count = (_banzhaf_brute if width <= brute_force_max_vars
             else _banzhaf_shannon)(masks, width)
    return dict(zip(variables, count))


# --------------------------------------------------------------------- #
# Query evaluation
# --------------------------------------------------------------------- #


class Oracle:
    """Expected attributions for query texts over one fact list.

    Facts live in one sqlite table per arity, ``a<k>(rel, fid, endo, c0,
    ..., c<k-1>)``, indexed by relation: thousands of small relations
    would make a table each slow to create.
    """

    def __init__(self, facts: Sequence[FactRow]) -> None:
        self.labels = [fact_label(relation, values)
                       for relation, values, _ in facts]
        self.connection = sqlite3.connect(":memory:")
        arity: Dict[str, int] = {}
        rows: Dict[int, list] = {}
        for fid, (relation, values, endogenous) in enumerate(facts):
            if arity.setdefault(relation, len(values)) != len(values):
                raise ValueError(f"relation {relation} used with two arities")
            rows.setdefault(len(values), []).append(
                (relation, fid, int(endogenous)) + tuple(values))
        for width, table_rows in rows.items():
            columns = "".join(f", c{i}" for i in range(width))
            self.connection.execute(
                f"CREATE TABLE a{width} (rel TEXT, fid INTEGER, "
                f"endo INTEGER{columns})")
            self.connection.executemany(
                f"INSERT INTO a{width} VALUES "
                f"({', '.join('?' * (width + 3))})", table_rows)
            self.connection.execute(f"CREATE INDEX a{width}_rel ON "
                                    f"a{width} (rel)")
        self.arity = arity

    def close(self) -> None:
        self.connection.close()

    def _rule_groundings(self, head_vars, atoms, selections):
        if any(relation not in self.arity for relation, _ in atoms):
            return []
        first: Dict[str, str] = {}
        where, params, tables = [], [], []
        for index, (relation, terms) in enumerate(atoms):
            if len(terms) != self.arity[relation]:
                raise ValueError(f"atom {relation} has the wrong arity")
            tables.append(f"a{len(terms)} AS t{index}")
            where.append(f"t{index}.rel = ?")
            params.append(relation)
            for column, (kind, value) in enumerate(terms):
                ref = f"t{index}.c{column}"
                if kind == "const":
                    where.append(f"{ref} = ?")
                    params.append(value)
                elif value in first:
                    where.append(f"{ref} = {first[value]}")
                else:
                    first[value] = ref
        for variable, op, constant in selections:
            where.append(f"{first[variable]} {_SQL_OP[op]} ?")
            params.append(constant)
        select = [first[v] for v in head_vars]
        for index in range(len(atoms)):
            select += [f"t{index}.fid", f"t{index}.endo"]
        sql = (f"SELECT {', '.join(select)} FROM {', '.join(tables)}"
               + (f" WHERE {' AND '.join(where)}" if where else ""))
        width = len(head_vars)
        out = []
        for row in self.connection.execute(sql, params):
            pairs = row[width:]
            out.append((tuple(row[:width]),
                        frozenset(pairs[i] for i in range(0, len(pairs), 2)
                                  if pairs[i + 1])))
        return out

    def lineages(self, text: str) -> Dict[Tuple[object, ...], Lineage]:
        """Per answer tuple, its lineage as clauses of fact ids."""
        clauses: Dict[Tuple[object, ...], set] = {}
        exogenous_only: set = set()
        for head_vars, atoms, selections in parse_rules(text):
            for answer, clause in self._rule_groundings(head_vars, atoms,
                                                        selections):
                if clause:
                    clauses.setdefault(answer, set()).add(clause)
                else:
                    exogenous_only.add(answer)
        return {answer: frozenset(found) for answer, found in clauses.items()
                if answer not in exogenous_only}

    def expected(self, text: str
                 ) -> Dict[Tuple[object, ...], Dict[str, Fraction]]:
        """Per answer tuple, the exact Banzhaf value of each fact label."""
        return {
            answer: {self.labels[fid]: Fraction(value) for fid, value
                     in banzhaf_values(lineage).items()}
            for answer, lineage in self.lineages(text).items()
        }


# --------------------------------------------------------------------- #
# Response checks
# --------------------------------------------------------------------- #


def _answers(response: Mapping[str, object], expected, key: str):
    if not response.get("ok"):
        raise OracleMismatch(f"response not ok: {response.get('error')}")
    got = {tuple(entry["answer"]): entry[key]
           for entry in response["answers"]}
    if set(got) != set(expected):
        raise OracleMismatch(
            f"answers differ: got {sorted(map(repr, got))[:5]}, expected "
            f"{sorted(map(repr, expected))[:5]}")
    return got


def check_attribute(response: Mapping[str, object],
                    expected: Mapping[Tuple[object, ...],
                                      Mapping[str, Fraction]]) -> None:
    """Every value must equal the exact one, Fraction for Fraction."""
    for answer, attributions in _answers(response, expected,
                                         "attributions").items():
        got = {entry["fact"]: Fraction(entry["value"])
               for entry in attributions}
        if got != expected[answer]:
            wrong = sorted(fact for fact in set(got) | set(expected[answer])
                           if got.get(fact) != expected[answer].get(fact))
            raise OracleMismatch(
                f"answer {answer}: values differ for {wrong[:5]}")


def check_ranking(response: Mapping[str, object],
                  expected: Mapping[Tuple[object, ...],
                                    Mapping[str, Fraction]],
                  epsilon: Fraction, k=None) -> None:
    """Check a ``rank`` (``k is None``) or ``topk`` response.

    * every entry's ``[lower, upper]`` contains the exact value;
    * a full ranking lists every fact once, in an order that never
      contradicts a certified separation (a later entry's lower bound
      above an earlier entry's upper bound);
    * a top-k lists ``min(k, facts)`` distinct facts, and no omitted fact
      beats a listed one by more than the epsilon certificate allows:
      its exact value is at most ``(1+eps)/(1-eps)`` times the listed
      entry's upper bound.  A fact certified out has at least ``k``
      facts certainly above it, one of which is not certainly above any
      listed fact; an undecided fact's interval meets the relative-error
      test, so it cannot lie above a listed fact by more than that ratio.

    ``epsilon`` is the ranking epsilon the service was configured with.
    The top-k test is looser than "no omitted fact exceeds a listed one":
    with ``epsilon > 0`` the service certifies its top-k only to within
    that relative error, so a correct response may omit a fact slightly
    above a listed one.
    """
    slack = (1 + epsilon) / (1 - epsilon)
    for answer, ranking in _answers(response, expected, "ranking").items():
        exact = expected[answer]
        facts = [entry["fact"] for entry in ranking]
        if len(set(facts)) != len(facts) or not set(facts) <= set(exact):
            raise OracleMismatch(f"answer {answer}: bad fact list")
        for entry in ranking:
            if not entry["lower"] <= exact[entry["fact"]] <= entry["upper"]:
                raise OracleMismatch(
                    f"answer {answer}: {entry['fact']} exact "
                    f"{exact[entry['fact']]} outside [{entry['lower']}, "
                    f"{entry['upper']}]")
        for earlier, later in zip(ranking, ranking[1:]):
            if later["lower"] > earlier["upper"]:
                raise OracleMismatch(
                    f"answer {answer}: {later['fact']} is certified above "
                    f"{earlier['fact']} but ranked below it")
        if k is None:
            if len(facts) != len(exact):
                raise OracleMismatch(f"answer {answer}: ranking incomplete")
            continue
        if len(facts) != min(k, len(exact)):
            raise OracleMismatch(f"answer {answer}: top-{k} lists "
                                 f"{len(facts)} facts")
        listed = set(facts)
        floor = min(entry["upper"] for entry in ranking)
        for fact, value in exact.items():
            if fact not in listed and value > slack * floor:
                raise OracleMismatch(
                    f"answer {answer}: omitted {fact} ({value}) beats the "
                    f"listed top-{k} beyond the epsilon certificate")
