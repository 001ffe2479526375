"""Recursive-descent parser for the mini SQL dialect.

Grammar (terminals in caps, ``[]`` optional, ``{}`` repetition)::

    query      := [EXPLAIN [ANALYZE] | WATCH] SELECT select_list
                  FROM ident "," ident "," distance_term
                  [WHERE predicate {AND predicate}]
                  [GROUP BY qualified]
                  [ORDER BY ident [ASC | DESC]]
                  [STOP AFTER NUMBER]
                  [PARALLEL NUMBER | SHARDS NUMBER]
                  [NOTIFY]
    select_list := "*" ["," MIN "(" ident ")"]
                 | MIN "(" ident ")" ["," "*"]
    distance_term := DISTANCE "(" qualified "," qualified ")" [AS ident]
    predicate  := ident cmp NUMBER
                | NUMBER cmp ident
                | ident BETWEEN NUMBER AND NUMBER
    qualified  := ident "." ident
    cmp        := "<" | "<=" | ">" | ">=" | "="

This is the paper's Figure 1 surface: the distance term in the FROM
clause, distance predicates in WHERE, GROUP BY for the semi-join,
ORDER BY d (DESC for the reverse variant), the STOP AFTER extension,
and a SHARDS count hint routing the query through the shard router
(:mod:`repro.shard`); PARALLEL is a spelling of SHARDS, resolved here.  An ``EXPLAIN [ANALYZE]``
prefix asks for the plan (estimated, or measured by actually running
the query) instead of rows.  A ``WATCH`` prefix (optionally closed by
``NOTIFY``) registers the query as a *standing* join whose result is
maintained incrementally under updates (:mod:`repro.live`, see
docs/LIVE.md).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import QuerySyntaxError
from repro.query.ast_nodes import AttributePredicate, Comparison, Query
from repro.query.lexer import (
    EOF,
    IDENT,
    KEYWORD,
    NUMBER,
    OP,
    PUNCT,
    Token,
    tokenize,
)

_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.type != EOF:
            self._pos += 1
        return token

    def _expect(self, type_: str, text: str = "") -> Token:
        token = self._peek()
        if token.type != type_ or (text and token.text != text):
            wanted = text or type_
            raise QuerySyntaxError(
                f"expected {wanted}, got {token.text or 'end of input'!r}",
                token.position,
            )
        return self._advance()

    def _accept(self, type_: str, text: str = "") -> bool:
        token = self._peek()
        if token.type == type_ and (not text or token.text == text):
            self._advance()
            return True
        return False

    # -- grammar --------------------------------------------------------

    def parse_query(self) -> Query:
        """Parse one full query and verify nothing trails it."""
        query = Query()
        if self._accept(KEYWORD, "EXPLAIN"):
            query.explain = True
            if self._accept(KEYWORD, "ANALYZE"):
                query.analyze = True
        if self._accept(KEYWORD, "WATCH"):
            query.watch = True
        self._expect(KEYWORD, "SELECT")
        self._select_list(query)
        self._expect(KEYWORD, "FROM")
        query.relation1 = self._expect(IDENT).text
        self._expect(PUNCT, ",")
        query.relation2 = self._expect(IDENT).text
        self._expect(PUNCT, ",")
        self._distance_term(query)
        if self._accept(KEYWORD, "WHERE"):
            self._predicates(query)
        if self._accept(KEYWORD, "GROUP"):
            self._expect(KEYWORD, "BY")
            query.group_by = self._qualified()
        if self._accept(KEYWORD, "ORDER"):
            self._expect(KEYWORD, "BY")
            order_ident = self._expect(IDENT).text
            if order_ident != query.alias:
                raise QuerySyntaxError(
                    f"can only ORDER BY the distance alias "
                    f"{query.alias!r}, got {order_ident!r}"
                )
            if self._accept(KEYWORD, "DESC"):
                query.descending = True
            else:
                self._accept(KEYWORD, "ASC")
        if self._accept(KEYWORD, "STOP"):
            self._expect(KEYWORD, "AFTER")
            number = self._expect(NUMBER)
            value = float(number.text)
            if value != int(value) or value < 1:
                raise QuerySyntaxError(
                    f"STOP AFTER needs a positive integer, got "
                    f"{number.text}", number.position,
                )
            query.stop_after = int(value)
        for hint in ("PARALLEL", "SHARDS"):
            if not self._accept(KEYWORD, hint):
                continue
            number = self._expect(NUMBER)
            value = float(number.text)
            if value != int(value) or value < 1:
                raise QuerySyntaxError(
                    f"{hint} needs a positive integer, got "
                    f"{number.text}", number.position,
                )
            if query.shards is not None:
                raise QuerySyntaxError(
                    "PARALLEL and SHARDS are one hint; give it once",
                    number.position,
                )
            # PARALLEL n is a spelling of SHARDS n: the shard router,
            # run inline.
            query.shards = int(value)
        if self._peek().type == KEYWORD and self._peek().text == "NOTIFY":
            token = self._advance()
            if not query.watch:
                raise QuerySyntaxError(
                    "NOTIFY is only valid on a WATCH query",
                    token.position,
                )
        self._expect(EOF)
        self._validate(query)
        return query

    def _select_list(self, query: Query) -> None:
        saw_star = False
        while True:
            if self._accept(PUNCT, "*"):
                saw_star = True
            elif self._accept(KEYWORD, "MIN"):
                self._expect(PUNCT, "(")
                self._expect(IDENT)
                self._expect(PUNCT, ")")
                query.select_min = True
            else:
                token = self._peek()
                raise QuerySyntaxError(
                    "select list supports '*' and 'MIN(d)'",
                    token.position,
                )
            # A comma followed by another select item continues the
            # list; a comma before FROM's first relation does not occur
            # because FROM is a keyword.
            if self._peek().type == PUNCT and self._peek().text == ",":
                nxt = self._tokens[self._pos + 1]
                is_item = nxt.type == PUNCT and nxt.text == "*" or (
                    nxt.type == KEYWORD and nxt.text == "MIN"
                )
                if is_item:
                    self._advance()
                    continue
            break
        if not saw_star and not query.select_min:
            raise QuerySyntaxError("empty select list")

    def _distance_term(self, query: Query) -> None:
        self._expect(KEYWORD, "DISTANCE")
        self._expect(PUNCT, "(")
        rel1, attr1 = self._qualified()
        self._expect(PUNCT, ",")
        rel2, attr2 = self._qualified()
        self._expect(PUNCT, ")")
        if self._accept(KEYWORD, "AS"):
            query.alias = self._expect(IDENT).text
        if rel1 != query.relation1 or rel2 != query.relation2:
            raise QuerySyntaxError(
                f"DISTANCE arguments must be "
                f"{query.relation1}.<attr>, {query.relation2}.<attr> "
                f"in FROM order; got {rel1}.{attr1}, {rel2}.{attr2}"
            )
        query.attr1 = attr1
        query.attr2 = attr2

    def _qualified(self) -> Tuple[str, str]:
        relation = self._expect(IDENT).text
        self._expect(PUNCT, ".")
        attribute = self._expect(IDENT).text
        return relation, attribute

    def _predicates(self, query: Query) -> None:
        while True:
            self._predicate(query)
            if not self._accept(KEYWORD, "AND"):
                break

    def _predicate(self, query: Query) -> None:
        token = self._peek()
        if token.type == IDENT:
            name = self._advance().text
            if self._peek().type == PUNCT and self._peek().text == ".":
                # rel.attr <op> NUMBER -- an attribute selection
                # (paper's "population > 5 million" style predicate).
                self._advance()
                attribute = self._expect(IDENT).text
                op = self._expect(OP).text
                value = float(self._expect(NUMBER).text)
                if name not in (query.relation1, query.relation2):
                    raise QuerySyntaxError(
                        f"predicate references unknown relation "
                        f"{name!r}", token.position,
                    )
                query.attribute_predicates.append(
                    AttributePredicate(name, attribute, op, value)
                )
                return
            if name != query.alias:
                raise QuerySyntaxError(
                    f"WHERE supports the distance alias "
                    f"{query.alias!r} or rel.attr predicates, got "
                    f"{name!r}", token.position,
                )
            if self._accept(KEYWORD, "BETWEEN"):
                low = float(self._expect(NUMBER).text)
                self._expect(KEYWORD, "AND")
                high = float(self._expect(NUMBER).text)
                query.comparisons.append(Comparison(">=", low))
                query.comparisons.append(Comparison("<=", high))
                return
            op = self._expect(OP).text
            value = float(self._expect(NUMBER).text)
            query.comparisons.append(Comparison(op, value))
            return
        if token.type == NUMBER:
            value = float(self._advance().text)
            op = self._expect(OP).text
            name = self._expect(IDENT).text
            if name != query.alias:
                raise QuerySyntaxError(
                    f"WHERE supports only the distance alias "
                    f"{query.alias!r}, got {name!r}", token.position,
                )
            query.comparisons.append(Comparison(_FLIP[op], value))
            return
        raise QuerySyntaxError(
            "expected a distance predicate", token.position
        )

    @staticmethod
    def _validate(query: Query) -> None:
        if query.group_by is not None:
            rel, attr = query.group_by
            if rel != query.relation1 or attr != query.attr1:
                raise QuerySyntaxError(
                    f"GROUP BY must target the first relation's spatial "
                    f"attribute {query.relation1}.{query.attr1} "
                    f"(the distance semi-join of Figure 1b)"
                )
        dmin, dmax = query.distance_bounds()
        if dmin > dmax:
            raise QuerySyntaxError(
                f"contradictory distance predicates: "
                f"d >= {dmin} and d <= {dmax}"
            )
        if query.shards is not None and query.descending:
            raise QuerySyntaxError(
                "SHARDS (or PARALLEL) does not support ORDER BY ... DESC "
                "(the shard router's merge is nearest-first)"
            )
        if query.watch:
            # The standing-join repair machinery maintains the
            # ascending one-result-per-pair stream; everything else
            # is a different (unsupported) maintenance problem.
            if query.explain:
                raise QuerySyntaxError(
                    "EXPLAIN and WATCH are mutually exclusive"
                )
            if query.descending:
                raise QuerySyntaxError(
                    "WATCH maintains the nearest-first result; "
                    "ORDER BY ... DESC is not supported"
                )
            if query.is_semi_join or query.select_min:
                raise QuerySyntaxError(
                    "WATCH does not support the distance semi-join "
                    "(GROUP BY / MIN(d))"
                )
            if query.shards is not None:
                raise QuerySyntaxError(
                    "WATCH runs on the standing-join engine; "
                    "PARALLEL and SHARDS hints do not apply"
                )
            if query.attribute_predicates:
                raise QuerySyntaxError(
                    "WATCH cannot maintain attribute predicates; "
                    "filter the delta stream instead"
                )
            if (
                query.stop_after is None
                and query.distance_bounds()[1] == float("inf")
            ):
                raise QuerySyntaxError(
                    "WATCH needs a finite result: give STOP AFTER k "
                    "(top-K) and/or a d <= bound (range)"
                )


def parse(sql: str) -> Query:
    """Parse a distance (semi-)join query into a :class:`Query`."""
    return _Parser(tokenize(sql)).parse_query()
