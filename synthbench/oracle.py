"""The benchmark's answer oracle, independent of the package under test.

Synthesized programs come back as pretty-printed source text.  This module
parses that text with its own small parser, runs it with its own
interpreter on seeded inputs, and checks each output against the goal's
specification written as a Python predicate.  ``/check`` verdicts are
compared against the hand-written ``inputs/checks/expected.json``.
Nothing here imports the package under test.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent

#: Seeded inputs each synthesized program is run on.
TRIALS = 24

#: Component semantics: every signature the benchmark goals use.
COMPONENTS: Dict[str, object] = {
    "leq": lambda a: lambda b: a <= b,
    "lt": lambda a: lambda b: a < b,
    "neg": lambda a: -a,
    "dec": lambda a: a - 1,
    "inc": lambda a: a + 1,
    "one": 1,
    "negOne": -1,
    "Nil": (),
    "Cons": lambda x: lambda xs: (x,) + xs,
}


def _ints(rng: random.Random) -> int:
    return rng.randint(-20, 20)


def _list(rng: random.Random, low: int = 0) -> tuple:
    return tuple(rng.randint(-9, 9) for _ in range(rng.randint(low, 6)))


def _nat_and_long_list(rng: random.Random) -> tuple:
    xs = _list(rng)
    return rng.randint(0, len(xs)), xs


#: goal -> (input generator, specification predicate over (*args, result)).
#: The predicates transcribe the refinement types of the goal files.
SPECS: Dict[str, Tuple[Callable[[random.Random], tuple], Callable[..., bool]]] = {
    "max": (
        lambda rng: (_ints(rng), _ints(rng)),
        lambda x, y, r: r >= x and r >= y and r in (x, y),
    ),
    "abs": (
        lambda rng: (_ints(rng),),
        lambda x, r: r >= 0 and (r == x or r + x == 0),
    ),
    "sign": (
        lambda rng: (_ints(rng),),
        lambda x, r: (x >= 0 or r == -1) and (x != 0 or r == 0) and (x <= 0 or r == 1),
    ),
    "replicate": (
        lambda rng: (rng.randint(0, 6), _ints(rng)),
        lambda n, x, r: isinstance(r, tuple) and len(r) == n,
    ),
    "stutter": (
        lambda rng: (_list(rng),),
        lambda xs, r: isinstance(r, tuple) and len(r) == 2 * len(xs),
    ),
    "length": (
        lambda rng: (_list(rng),),
        lambda xs, r: r == len(xs),
    ),
    "append": (
        lambda rng: (_list(rng), _list(rng)),
        lambda xs, ys, r: isinstance(r, tuple) and len(r) == len(xs) + len(ys),
    ),
    "drop": (
        _nat_and_long_list,
        lambda n, xs, r: isinstance(r, tuple) and len(r) == len(xs) - n,
    ),
}

# -- parsing ---------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_']*)|(->|[\\.()|=]))")
_KEYWORDS = {"fix", "match", "with", "if", "then", "else"}


def _tokenize(text: str) -> List[str]:
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"cannot tokenize {text[pos:]!r}")
        tokens.append(match.group(match.lastindex))
        pos = match.end()
    return tokens


class _Parser:
    """Terms as the package prints them: ``fix``, ``\\x .``, ``match``,
    ``if``, application by juxtaposition, integer literals."""

    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None) -> str:
        token = self.peek()
        if token is None or (expected is not None and token != expected):
            raise ValueError(f"expected {expected!r}, got {token!r}")
        self.pos += 1
        return token

    def term(self):
        token = self.peek()
        if token == "fix":
            self.take()
            name = self.take()
            self.take(".")
            return ("fix", name, self.term())
        if token == "\\":
            self.take()
            name = self.take()
            self.take(".")
            return ("lam", name, self.term())
        if token == "if":
            self.take()
            cond = self.term()
            self.take("then")
            then = self.term()
            self.take("else")
            return ("if", cond, then, self.term())
        if token == "match":
            self.take()
            subject = self.term()
            self.take("with")
            cases = [self.case()]
            while self.peek() == "|":
                self.take()
                cases.append(self.case())
            return ("match", subject, tuple(cases))
        return self.application()

    def case(self):
        ctor = self.take()
        binders = []
        while self.peek() != "->":
            binders.append(self.take())
        self.take("->")
        return ctor, tuple(binders), self.term()

    def application(self):
        head = self.atom()
        while self.peek() is not None and (
            self.peek() == "(" or self.peek() not in _KEYWORDS | {")", "|", "->", ".", "="}
        ):
            head = ("app", head, self.atom())
        return head

    def atom(self):
        token = self.take()
        if token == "(":
            inner = self.term()
            self.take(")")
            return inner
        if token.isdigit():
            return ("lit", int(token))
        return ("var", token)


def parse_definition(text: str) -> Tuple[str, tuple]:
    """``name = term`` -> (name, term tree)."""
    parser = _Parser(_tokenize(text))
    name = parser.take()
    parser.take("=")
    term = parser.term()
    if parser.peek() is not None:
        raise ValueError(f"trailing input at {parser.peek()!r}")
    return name, term


# -- evaluation --------------------------------------------------------------


class _OutOfFuel(Exception):
    pass


def _evaluate(term, env: Dict[str, object], fuel: List[int]):
    fuel[0] -= 1
    if fuel[0] < 0:
        raise _OutOfFuel()
    kind = term[0]
    if kind == "lit":
        return term[1]
    if kind == "var":
        if term[1] in env:
            return env[term[1]]
        return COMPONENTS[term[1]]
    if kind == "lam":
        _, name, body = term
        return lambda value: _evaluate(body, {**env, name: value}, fuel)
    if kind == "fix":
        _, name, body = term
        scope = dict(env)
        scope[name] = lambda value: function(value)
        function = _evaluate(body, scope, fuel)
        return function
    if kind == "app":
        return _evaluate(term[1], env, fuel)(_evaluate(term[2], env, fuel))
    if kind == "if":
        cond = _evaluate(term[1], env, fuel)
        if not isinstance(cond, bool):
            raise TypeError("non-boolean guard")
        return _evaluate(term[2] if cond else term[3], env, fuel)
    if kind == "match":
        subject = _evaluate(term[1], env, fuel)
        if not isinstance(subject, tuple):
            raise TypeError("match on a non-list")
        for ctor, binders, body in term[2]:
            if ctor == "Nil" and not subject and not binders:
                return _evaluate(body, env, fuel)
            if ctor == "Cons" and subject and len(binders) == 2:
                head, tail = subject[0], subject[1:]
                return _evaluate(body, {**env, binders[0]: head, binders[1]: tail}, fuel)
        raise TypeError("no case matched")
    raise ValueError(f"unknown term {kind}")


def program_meets_spec(goal: str, text: str, seed: int) -> bool:
    """Does the printed program ``text`` satisfy ``goal``'s specification on
    :data:`TRIALS` inputs drawn from ``seed``?  Any error counts as a breach."""
    generate, spec = SPECS[goal]
    try:
        _, term = parse_definition(text)
    except ValueError:
        return False
    rng = random.Random(f"{goal}-{seed}")
    for _ in range(TRIALS):
        args = generate(rng)
        fuel = [100_000]
        try:
            value = _evaluate(term, {}, fuel)
            for arg in args:
                value = value(arg)
            if not spec(*args, value):
                return False
        except (_OutOfFuel, TypeError, KeyError, ValueError, RecursionError):
            return False
    return True


def expected_verdicts() -> Dict[str, str]:
    """``/check`` case name -> the hand-written expected status."""
    return json.loads((HERE / "inputs" / "checks" / "expected.json").read_text())
